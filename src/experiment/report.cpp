#include "experiment/report.hpp"

#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace mahimahi::experiment {
namespace {

using util::csv_field;
using util::fixed;

/// Appends `key` (a literal that opens the value's quotes), `value` escaped
/// and the closing quote.
void append_string_field(std::string& out, const char* key,
                         const std::string& value) {
  out += key;
  util::append_json_escaped(out, value);
  out += '"';
}

void append_fixed_array(std::string& out, const std::vector<double>& values) {
  out += "[";
  for (std::size_t j = 0; j < values.size(); ++j) {
    out += j == 0 ? "" : ", ";
    out += fixed(values[j]);
  }
  out += "]";
}

void append_summary_fields(std::string& out, const util::Samples& plt) {
  out += "\"plt_median_ms\": " + fixed(plt.empty() ? 0 : plt.median());
  out += ", \"plt_mean_ms\": " + fixed(plt.empty() ? 0 : plt.mean());
  out += ", \"plt_p95_ms\": " + fixed(plt.empty() ? 0 : plt.percentile(95));
  out += ", \"plt_min_ms\": " + fixed(plt.empty() ? 0 : plt.min());
  out += ", \"plt_max_ms\": " + fixed(plt.empty() ? 0 : plt.max());
}

}  // namespace

std::string Report::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"mahimahi-experiment-v1\",\n";
  append_string_field(out, "  \"name\": \"", name);
  out += ",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"loads_per_cell\": " + std::to_string(loads_per_cell) + ",\n";
  out += "  \"total_cells\": " + std::to_string(total_cells) + ",\n";
  out += "  \"shard\": \"" + std::to_string(shard_index) + "/" +
         std::to_string(shard_count) + "\",\n";
  if (interrupted) {
    out += "  \"interrupted\": true,\n";
  }
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(cell.index);
    append_string_field(out, ", \"site\": \"", cell.site);
    append_string_field(out, ", \"protocol\": \"", cell.protocol);
    append_string_field(out, ", \"shell\": \"", cell.shell);
    append_string_field(out, ", \"queue\": \"", cell.queue);
    append_string_field(out, ", \"cc\": \"", cell.cc);
    append_string_field(out, ", \"fleet\": \"", cell.fleet);
    out += ", \"fleet_sessions\": " + std::to_string(cell.fleet_sessions);
    if (fault_axis) {
      append_string_field(out, ", \"fault\": \"", cell.fault);
    }
    if (interrupted) {
      out += ", \"loads_done\": " + std::to_string(cell.loads_done);
      out += ", \"loads_expected\": " + std::to_string(cell.loads_expected);
    }
    out += ", \"failed_loads\": " + std::to_string(cell.failed_loads);
    out += ", ";
    append_summary_fields(out, cell.plt_ms);
    out += ", \"plt_ms\": ";
    append_fixed_array(out, cell.plt_ms.values());
    if (fault_axis) {
      out += ", \"objects_failed\": " + std::to_string(cell.objects_failed);
      out += ", \"retries\": " + std::to_string(cell.retries);
      out += ", \"timeouts\": " + std::to_string(cell.timeouts);
      const util::Samples& deg = cell.degraded_plt_ms;
      out += ", \"degraded_plt_median_ms\": " +
             fixed(deg.empty() ? 0 : deg.median());
      out += ", \"degraded_plt_ms\": ";
      append_fixed_array(out, deg.values());
    }
    // Worker-task failures surface in any report (fault axis or not);
    // healthy runs have none, so the key's absence keeps them byte-stable.
    if (!cell.load_errors.empty()) {
      out += ", \"load_errors\": [";
      for (std::size_t j = 0; j < cell.load_errors.size(); ++j) {
        append_string_field(out, j == 0 ? "\"" : ", \"", cell.load_errors[j]);
      }
      out += "]";
    }
    if (cell.probe_ran) {
      out += ", \"probe\": {\"queue_delay_p95_ms\": " +
             fixed(cell.queue_delay_p95_ms, 3);
      out += ", \"jain_index\": " + fixed(cell.jain_index);
      out += ", \"flows\": [";
      for (std::size_t j = 0; j < cell.flows.size(); ++j) {
        const FlowResult& flow = cell.flows[j];
        append_string_field(out, j == 0 ? "{\"cc\": \"" : ", {\"cc\": \"",
                            flow.controller);
        out += ", \"bytes\": " + std::to_string(flow.bytes_delivered);
        out += ", \"throughput_bps\": " + fixed(flow.throughput_bps, 1);
        out += ", \"share\": " + fixed(flow.share);
        out += ", \"retransmissions\": " +
               std::to_string(flow.retransmissions) + "}";
      }
      out += "]}";
    }
    // Derived metrics ride along only when requested (key absent
    // otherwise, like load_errors): the snapshot is already deterministic
    // JSON, so the report stays byte-stable under the same contract.
    if (!cell.metrics_json.empty()) {
      out += ", \"metrics\": " + cell.metrics_json;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string Report::to_csv() const {
  std::string out =
      "cell,site,protocol,shell,queue,cc,fleet,fleet_sessions,loads,"
      "failed_loads,plt_median_ms,plt_mean_ms,plt_p95_ms,plt_min_ms,"
      "plt_max_ms,queue_delay_p95_ms,jain_index,flow_shares";
  if (fault_axis) {
    out += ",fault,objects_failed,retries,timeouts,degraded_plt_median_ms";
  }
  out += "\n";
  for (const CellResult& cell : cells) {
    out += std::to_string(cell.index) + ",";
    // Label columns come from the spec; none may add a field or a row.
    for (const std::string* label : {&cell.site, &cell.protocol, &cell.shell,
                                     &cell.queue, &cell.cc, &cell.fleet}) {
      out += csv_field(*label) + ",";
    }
    out += std::to_string(cell.fleet_sessions) + ",";
    out += std::to_string(cell.plt_ms.size()) + ",";
    out += std::to_string(cell.failed_loads) + ",";
    const util::Samples& plt = cell.plt_ms;
    out += fixed(plt.empty() ? 0 : plt.median()) + ",";
    out += fixed(plt.empty() ? 0 : plt.mean()) + ",";
    out += fixed(plt.empty() ? 0 : plt.percentile(95)) + ",";
    out += fixed(plt.empty() ? 0 : plt.min()) + ",";
    out += fixed(plt.empty() ? 0 : plt.max()) + ",";
    if (cell.probe_ran) {
      out += fixed(cell.queue_delay_p95_ms, 3) + ",";
      out += fixed(cell.jain_index) + ",";
      std::string shares;
      for (const FlowResult& flow : cell.flows) {
        shares += shares.empty() ? "" : "|";
        shares += flow.controller + ":" + fixed(flow.share, 4);
      }
      out += csv_field(std::move(shares));
    } else {
      out += ",,";
    }
    if (fault_axis) {
      const util::Samples& deg = cell.degraded_plt_ms;
      out += "," + csv_field(cell.fault);
      out += "," + std::to_string(cell.objects_failed);
      out += "," + std::to_string(cell.retries);
      out += "," + std::to_string(cell.timeouts);
      out += "," + fixed(deg.empty() ? 0 : deg.median());
    }
    out += "\n";
  }
  return out;
}

std::string Report::to_bench_json() const {
  std::string out;
  out += "{\n  \"schema\": \"mahimahi-bench-v1\",\n  \"benchmarks\": [";
  bool first = true;
  const auto add = [&](const std::string& row_name, double ns_per_op) {
    out += first ? "\n" : ",\n";
    first = false;
    append_string_field(out, "    {\"name\": \"", row_name);
    out += ", \"ns_per_op\": " + fixed(ns_per_op, 1) +
           ", \"items_per_second\": 0, \"bytes_per_second\": 0}";
  };
  for (const CellResult& cell : cells) {
    std::string label = cell.site + "/" + cell.protocol + "/" + cell.shell +
                        "/" + cell.queue + "/" + cell.cc + "/" + cell.fleet;
    if (fault_axis && cell.fault != "none") {
      label += "/" + cell.fault;
    }
    if (!cell.plt_ms.empty()) {
      add("exp_plt_median/" + label, cell.plt_ms.median() * 1e6);
    }
    if (fault_axis && !cell.degraded_plt_ms.empty()) {
      add("exp_degraded_plt/" + label, cell.degraded_plt_ms.median() * 1e6);
    }
    if (cell.probe_ran) {
      add("exp_queue_p95_ms/" + label, cell.queue_delay_p95_ms * 1e6);
      add("exp_jain/" + label, cell.jain_index * 1e9);
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

bool Report::write_file(const std::string& path, const std::string& content) {
  return util::atomic_write_file(path, content);
}

}  // namespace mahimahi::experiment
