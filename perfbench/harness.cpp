// perfbench_harness: the in-process half of the whole-system benchmark.
//
//   perfbench_harness info
//       Print {"optimized": <NDEBUG and no sanitizer>, "compiler": ".."}.
//   perfbench_harness setup <spec> <reps>
//       Time the replayable-input set-up of <spec> <reps> times: every
//       distinct site is generated (corpus::generate_site) and recorded
//       (core::RecordSession::record) under the seed the experiment runner
//       forks for it, then every cell is materialized
//       (experiment::materialize_cell).
//   perfbench_harness layers --sweep <spec> --sweep-loads N --obs-loads N
//                            --crowd <spec> --crowd-loads N --work <dir>
//                            [--trace-a <dir> --trace-b <dir>]
//       The serial per-layer pass. It replays every (cell, load) of the
//       sweep spec on a harness-owned net::EventLoop through
//       core::ReplayWorld, untraced and traced, every fleet load of the
//       crowd spec through fleet::SessionMux, every cell's transport probe,
//       the HTTP and mux parsers over every recorded response, the obs
//       derive/export path and the journal codec and writer over the first
//       --obs-loads traced loads of every cell, and the trace
//       read side (parse_trace_file, diff_traces) over --trace-a/--trace-b
//       (or over its own exports when absent). It prints one JSON object:
//       per-layer metrics, the per-load PLTs and the bytes each probe flow
//       delivered, so the caller can check them against the report of the
//       user command. Exits 1 when a count did not repeat.
//
// Every stage runs on one thread, so per-call times carry no pool noise.
// Counts (events, allocations, trace events, bytes) are measured on two
// repetitions and must agree exactly. Refuses to run unless built with
// NDEBUG and without sanitizers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/sessions.hpp"
#include "experiment/checkpoint.hpp"
#include "experiment/matrix.hpp"
#include "experiment/spec.hpp"
#include "fleet/session_mux.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "journal/journal.hpp"
#include "net/bulk_probe.hpp"
#include "net/event_loop.hpp"
#include "net/mux.hpp"
#include "obs/analyze.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/random.hpp"

// --- counting allocator ------------------------------------------------------
// Every operator new in the process is counted; the array and nothrow forms
// forward here in libstdc++. The per-layer pass reads deltas around the
// calls it measures, on one thread.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}
// Out of line, so GCC does not pair an inlined free() with a new-expression
// and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace mahimahi;
using namespace mahimahi::experiment;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

struct AllocSnapshot {
  std::uint64_t count{g_allocs.load(std::memory_order_relaxed)};
  std::uint64_t bytes{g_alloc_bytes.load(std::memory_order_relaxed)};
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

double total(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) {
    sum += value;
  }
  return sum;
}

std::string fmt6(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6f", value);
  return buffer;
}

/// Flat JSON object writer for the metrics block (names are plain ASCII).
class JsonFields {
 public:
  void number(const std::string& name, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    add(name, buffer);
  }
  void raw(const std::string& name, const std::string& json) { add(name, json); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& name, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": ") + json;
  }
  std::string body_;
};

std::uint64_t vm_kb(const char* field) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

// --- the runner's task inputs, rebuilt from public APIs ----------------------

struct RecordedSite {
  corpus::GeneratedSite site;
  record::RecordStore store;
};

struct Inputs {
  ExperimentSpec spec;
  std::vector<Cell> cells;
  std::vector<MaterializedCell> materialized;
  std::map<std::string, RecordedSite> sites;
  std::vector<double> site_record_ms;
};

/// generate + record each distinct site under the runner's seed fork, then
/// materialize every cell: exactly the runner's set-up, serially.
Inputs build_inputs(const ExperimentSpec& spec) {
  Inputs in;
  in.spec = spec;
  in.cells = expand_matrix(spec);
  const util::Rng seed_root{spec.seed};
  for (const Cell& cell : in.cells) {
    if (in.sites.count(cell.site.label) != 0) {
      continue;
    }
    const auto start = Clock::now();
    RecordedSite entry{corpus::generate_site(cell.site.site), {}};
    core::SessionConfig config;
    config.seed = seed_root.fork("record-" + cell.site.label).next();
    core::RecordSession session{entry.site, corpus::LiveWebConfig{}, config};
    entry.store = session.record();
    in.site_record_ms.push_back(ns_since(start) / 1e6);
    in.sites.emplace(cell.site.label, std::move(entry));
  }
  for (const Cell& cell : in.cells) {
    in.materialized.push_back(materialize_cell(cell));
  }
  return in;
}

// session_config, origin_options and the probe spec in run_probe_stage
// mirror the experiment runner's private helpers; run.py proves the mirror
// by comparing PLTs and probe bytes with the report of the real command.
core::SessionConfig session_config(const Inputs& in, std::size_t pos) {
  const Cell& cell = in.cells[pos];
  core::SessionConfig config;
  config.seed = cell.cell_seed;
  config.shells = in.materialized[pos].shells;
  config.browser.protocol = cell.protocol;
  config.deadline = in.spec.cell_deadline;
  if (cell.cc.fleet.size() == 1) {
    config.congestion_control = cell.cc.fleet.front();
  } else {
    config.cc_fleet = cell.cc.fleet;
  }
  config.fault = cell.fault.fault;
  return config;
}

replay::OriginServerSet::Options origin_options(const Cell& cell) {
  replay::OriginServerSet::Options options;
  options.multiplexed = cell.protocol == web::AppProtocol::kMultiplexed;
  return options;
}

std::string protocol_name(const Cell& cell) {
  return cell.protocol == web::AppProtocol::kMultiplexed ? "mux" : "http11";
}

// --- stage: single-session loads (core / net / web / obs write side) ---------

struct LoadSample {
  double build_ns{0};
  double run_ns{0};
  std::uint64_t events{0};
  std::uint64_t allocs{0};
  std::uint64_t alloc_bytes{0};
  std::uint64_t trace_events{0};
  double plt_ms{0};
  web::PageLoadResult result;
  obs::TraceBuffer trace;
};

LoadSample run_load(const Inputs& in, std::size_t pos, int load, bool traced) {
  const Cell& cell = in.cells[pos];
  const RecordedSite& site = in.sites.at(cell.site.label);
  obs::Tracer tracer;
  core::SessionConfig config = session_config(in, pos);
  config.tracer = traced ? &tracer : nullptr;
  LoadSample sample;
  const AllocSnapshot before;
  net::EventLoop loop;
  loop.set_event_limit(200'000'000);
  auto start = Clock::now();
  std::optional<web::PageLoadResult> result;
  {
    core::ReplayWorld world{loop, site.store, config, origin_options(cell), load};
    sample.build_ns = ns_since(start);
    start = Clock::now();
    world.browser().load(site.site.primary_url(),
                         [&](web::PageLoadResult r) { result = std::move(r); });
    sample.events = loop.run();
    sample.run_ns = ns_since(start);
  }
  const AllocSnapshot after;
  sample.allocs = after.count - before.count;
  sample.alloc_bytes = after.bytes - before.bytes;
  if (!result.has_value()) {
    throw std::runtime_error{"page load never completed"};
  }
  sample.plt_ms = to_ms(result->page_load_time);
  sample.result = std::move(*result);
  if (traced) {
    sample.trace = tracer.take();
    sample.trace_events = sample.trace.events.size();
  }
  return sample;
}

struct SweepStage {
  // [pos][load]
  std::vector<std::vector<LoadSample>> untraced;
  std::vector<std::vector<LoadSample>> traced;
  bool counts_repeat{true};
};

SweepStage run_sweep_stage(const Inputs& in, int loads, JsonFields& out) {
  SweepStage stage;
  const std::size_t n = in.cells.size();
  stage.untraced.assign(n, {});
  stage.traced.assign(n, {});
  // Each load runs untraced, traced, untraced, traced — interleaved, so
  // drift in the machine's speed hits both modes alike. Times take the
  // faster repetition of each mode; counts must agree exactly, and tracing
  // must not move the PLT.
  const auto merge = [&](LoadSample a, const LoadSample& b, std::size_t pos,
                         int load) {
    if (a.events != b.events || a.allocs != b.allocs ||
        a.alloc_bytes != b.alloc_bytes || a.trace_events != b.trace_events ||
        a.plt_ms != b.plt_ms) {
      std::fprintf(stderr, "perfbench: counts differ between repetitions of "
                   "cell %zu load %d\n", pos, load);
      stage.counts_repeat = false;
    }
    a.build_ns = std::min(a.build_ns, b.build_ns);
    a.run_ns = std::min(a.run_ns, b.run_ns);
    return a;
  };
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (int load = 0; load < loads; ++load) {
      LoadSample u1 = run_load(in, pos, load, false);
      LoadSample t1 = run_load(in, pos, load, true);
      const LoadSample u2 = run_load(in, pos, load, false);
      const LoadSample t2 = run_load(in, pos, load, true);
      if (u1.plt_ms != t1.plt_ms) {
        std::fprintf(stderr, "perfbench: tracing changed the PLT of cell %zu "
                     "load %d\n", pos, load);
        stage.counts_repeat = false;
      }
      stage.untraced[pos].push_back(merge(std::move(u1), u2, pos, load));
      stage.traced[pos].push_back(merge(std::move(t1), t2, pos, load));
    }
  }

  double untraced_ns = 0;
  double traced_ns = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t traced_allocs = 0;
  std::uint64_t untraced_allocs = 0;
  std::size_t samples = 0;
  for (const std::string proto : {"http11", "mux"}) {
    std::vector<double> build_us;
    std::vector<double> run_ms;
    double events = 0;
    double run_ns = 0;
    double allocs = 0;
    double alloc_bytes = 0;
    std::size_t count = 0;
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (protocol_name(in.cells[pos]) != proto) {
        continue;
      }
      for (int load = 0; load < loads; ++load) {
        const LoadSample& s = stage.untraced[pos][load];
        const LoadSample& t = stage.traced[pos][load];
        build_us.push_back(s.build_ns / 1e3);
        run_ms.push_back(s.run_ns / 1e6);
        events += static_cast<double>(s.events);
        run_ns += s.run_ns;
        allocs += static_cast<double>(s.allocs);
        alloc_bytes += static_cast<double>(s.alloc_bytes);
        ++count;
        untraced_ns += s.build_ns + s.run_ns;
        traced_ns += t.build_ns + t.run_ns;
        trace_events += t.trace_events;
        traced_allocs += t.allocs;
        untraced_allocs += s.allocs;
        ++samples;
      }
    }
    const double per = count == 0 ? 0 : 1.0 / static_cast<double>(count);
    out.number("core.world_build_us.p50." + proto, median(build_us));
    out.number("net.loop_run_ms.p50." + proto, median(run_ms));
    out.number("net.loop_run_ms.p95." + proto, percentile(run_ms, 95));
    out.number("net.loop_run_samples." + proto, static_cast<double>(count));
    out.number("net.events_per_load." + proto, events * per);
    out.number("net.ns_per_event." + proto, events > 0 ? run_ns / events : 0);
    out.number("core.allocs_per_load." + proto, allocs * per);
    out.number("core.alloc_kb_per_load." + proto, alloc_bytes * per / 1024.0);
  }
  const double per_load = samples == 0 ? 0 : 1.0 / static_cast<double>(samples);
  out.number("obs.trace_events_per_load", static_cast<double>(trace_events) * per_load);
  out.number("obs.allocs_per_trace_event",
             trace_events == 0 ? 0
                               : (static_cast<double>(traced_allocs) -
                                  static_cast<double>(untraced_allocs)) /
                                     static_cast<double>(trace_events));
  out.number("obs.record_overhead_share",
             untraced_ns > 0 ? (traced_ns - untraced_ns) / untraced_ns : 0);
  out.number("stage.sweep_untraced_ms", untraced_ns / 1e6);
  out.number("stage.sweep_traced_ms", traced_ns / 1e6);
  return stage;
}

// --- stage: obs export / derive, util atomic write, journal -------------------

struct Exporter {
  const char* name;
  const char* suffix;  // the runner's artifact file suffix
  std::string (*render)(const obs::TraceMeta&, const std::vector<obs::LoadTrace>&);
};

constexpr Exporter kExporters[] = {
    {"chrome", ".trace.json", obs::to_chrome_trace},
    {"har", ".har", obs::to_har},
    {"csv", ".csv", obs::to_csv},
};

void run_obs_write_stage(const Inputs& in, SweepStage& sweep, int loads,
                         const std::string& work, JsonFields& out,
                         bool& counts_repeat) {
  const std::string export_dir = work + "/exports";
  const std::string journal_dir = work + "/journal";
  std::filesystem::create_directories(export_dir);
  std::filesystem::create_directories(journal_dir);
  std::vector<double> derive_ms;
  std::map<std::string, double> export_ns;
  std::map<std::string, double> export_bytes;
  double write_ns = 0;
  double write_bytes = 0;
  for (std::size_t pos = 0; pos < in.cells.size(); ++pos) {
    const Cell& cell = in.cells[pos];
    std::vector<obs::LoadTrace> traces;
    for (int load = 0; load < loads; ++load) {
      traces.push_back(obs::LoadTrace{load, sweep.traced[pos][load].trace});
    }
    auto start = Clock::now();
    const std::string metrics = obs::derive_cell_metrics(traces).to_json_inline();
    derive_ms.push_back(ns_since(start) / 1e6);
    if (metrics.empty()) {
      throw std::runtime_error{"empty metrics snapshot for " + cell.label()};
    }
    const obs::TraceMeta meta{in.spec.name, cell.label(), cell.index, cell.cell_seed};
    for (const Exporter& exporter : kExporters) {
      // Rendered twice: the faster time counts, the bytes must match.
      start = Clock::now();
      const std::string bytes = exporter.render(meta, traces);
      double ns = ns_since(start);
      start = Clock::now();
      const std::string again = exporter.render(meta, traces);
      ns = std::min(ns, ns_since(start));
      if (bytes != again) {
        std::fprintf(stderr, "perfbench: %s export not repeatable (cell %d)\n",
                     exporter.name, cell.index);
        counts_repeat = false;
      }
      export_ns[exporter.name] += ns;
      export_bytes[exporter.name] += static_cast<double>(bytes.size());
      const std::string path =
          export_dir + "/cell" + std::to_string(cell.index) + exporter.suffix;
      start = Clock::now();
      if (!util::atomic_write_file(path, bytes)) {
        throw std::runtime_error{"atomic write failed: " + path};
      }
      write_ns += ns_since(start);
      write_bytes += static_cast<double>(bytes.size());
    }
  }
  const double cells = static_cast<double>(in.cells.size());
  const double total_loads = cells * loads;
  out.number("obs.derive_ms_per_cell", median(derive_ms));
  for (const Exporter& exporter : kExporters) {
    const std::string name = exporter.name;
    out.number("obs.export_ms_per_cell." + name, export_ns[name] / 1e6 / cells);
    out.number("obs.export_kb_per_load." + name, export_bytes[name] / 1024.0 / total_loads);
  }
  out.number("util.atomic_write_ms_per_mb", write_ns / 1e6 / (write_bytes / 1048576.0));

  // Journal: the runner's record per load task, encoded, decoded and
  // appended (fsync'd) exactly as a --journal run writes it.
  std::vector<std::string> records;
  double codec_ns = 0;
  for (std::size_t pos = 0; pos < in.cells.size(); ++pos) {
    for (int load = 0; load < loads; ++load) {
      const LoadSample& s = sweep.traced[pos][load];
      TaskResult result;
      result.plts.push_back(s.plt_ms);
      result.oks.push_back(s.result.success ? 1 : 0);
      result.degraded.push_back(to_ms(s.result.degraded_page_load_time));
      result.failed_objects.push_back(static_cast<std::uint32_t>(s.result.objects_failed));
      result.retries.push_back(static_cast<std::uint32_t>(s.result.retries));
      result.timeouts.push_back(static_cast<std::uint32_t>(s.result.timeouts));
      result.trace = s.trace;
      const TaskKey key{in.cells[pos].index, load, false};
      const auto start = Clock::now();
      std::string record = encode_task_record(key, result);
      const auto decoded = decode_task_record(record);
      codec_ns += ns_since(start);
      if (!decoded.has_value() || decoded->second.plts != result.plts) {
        throw std::runtime_error{"journal codec did not round-trip"};
      }
      records.push_back(std::move(record));
    }
  }
  std::vector<double> append_ms;
  double record_bytes = 0;
  {
    journal::Writer writer{journal_dir, 0};
    for (const std::string& record : records) {
      const auto start = Clock::now();
      if (!writer.append(record)) {
        throw std::runtime_error{"journal append failed"};
      }
      append_ms.push_back(ns_since(start) / 1e6);
      record_bytes += static_cast<double>(record.size());
    }
  }
  const std::string journal_file = journal::Writer::journal_path(journal_dir);
  const auto file_bytes = static_cast<double>(std::filesystem::file_size(journal_file));
  const auto start = Clock::now();
  const journal::ReadResult read = journal::read_journal_file(journal_file);
  const double read_ns = ns_since(start);
  if (read.records != records || read.torn_tail) {
    throw std::runtime_error{"journal read-back differs from what was appended"};
  }
  const double n = static_cast<double>(records.size());
  out.number("journal.append_ms.p50", median(append_ms));
  out.number("journal.kb_per_record", record_bytes / 1024.0 / n);
  out.number("experiment.codec_us_per_record", codec_ns / 1e3 / n);
  out.number("journal.read_ms_per_mb", read_ns / 1e6 / (file_bytes / 1048576.0));
  double export_total = 0;
  for (const auto& [kind, ns] : export_ns) {
    export_total += ns;
  }
  out.number("stage.obs_write_ms", total(derive_ms) + total(append_ms) +
                                       (export_total + write_ns + codec_ns) / 1e6);
}

// --- stage: trace read side ---------------------------------------------------

std::vector<std::string> cell_csvs(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cell", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".csv") == 0) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void run_read_stage(const std::string& dir_a, const std::string& dir_b,
                    JsonFields& out) {
  double bytes = 0;
  double parse_ns[2] = {0, 0};
  std::vector<obs::ParsedTrace> runs[2];
  for (int side = 0; side < 2; ++side) {
    for (const std::string& path : cell_csvs(side == 0 ? dir_a : dir_b)) {
      std::string error;
      const auto start = Clock::now();
      auto parsed = obs::parse_trace_file(path, &error);
      const double ns = ns_since(start);
      if (!parsed.has_value()) {
        throw std::runtime_error{"trace parse failed: " + path + ": " + error};
      }
      parse_ns[side] += ns;
      if (side == 0) {
        bytes += static_cast<double>(std::filesystem::file_size(path));
      }
      runs[side].push_back(std::move(*parsed));
    }
  }
  if (runs[0].empty()) {
    throw std::runtime_error{"no cell CSVs in " + dir_a};
  }
  // mm_metrics per cell CSV: parse, rebuild the loads, derive.
  double loads_ns = 0;
  double derive_ns = 0;
  for (const obs::ParsedTrace& trace : runs[0]) {
    auto start = Clock::now();
    const std::vector<obs::LoadTrace> loads = obs::to_load_traces(trace);
    loads_ns += ns_since(start);
    start = Clock::now();
    const std::string snapshot = obs::derive_cell_metrics(loads).to_json();
    derive_ns += ns_since(start);
    if (snapshot.empty()) {
      throw std::runtime_error{"empty metrics snapshot for " + trace.cell_label};
    }
  }
  // mm_trace_diff: parse both runs, then diff.
  const auto start = Clock::now();
  const obs::TraceDiff diff = obs::diff_traces(runs[0], runs[1]);
  const double diff_ns = ns_since(start);
  if (!diff.identical) {
    throw std::runtime_error{"traces of identical runs differ"};
  }
  const double mb = bytes / 1048576.0;
  out.number("obs.parse_ms_per_mb", parse_ns[0] / 1e6 / mb);
  out.number("obs.diff_ms_per_mb", diff_ns / 1e6 / mb);
  out.number("stage.read_ms",
             (2 * parse_ns[0] + parse_ns[1] + loads_ns + derive_ns + diff_ns) / 1e6);
}

// --- stage: transport probes --------------------------------------------------

/// Returns the bytes each probe flow delivered, per cell.
std::vector<std::vector<std::uint64_t>> run_probe_stage(const Inputs& in,
                                                        JsonFields& out) {
  std::vector<std::vector<std::uint64_t>> flow_bytes(in.cells.size());
  std::vector<double> probe_ms;
  double total_ns = 0;
  double delivered = 0;
  double retransmits = 0;
  for (std::size_t pos = 0; pos < in.cells.size(); ++pos) {
    const Cell& cell = in.cells[pos];
    const MaterializedCell& mat = in.materialized[pos];
    net::MultiBulkFlowSpec probe;
    probe.controllers = cell.cc.fleet;
    probe.duration = in.spec.probe_duration;
    probe.queue = cell.queue.queue;
    probe.one_way_delay = mat.total_one_way_delay;
    probe.loss = mat.loss;
    probe.loss_seed = cell.cell_seed ^ 0x1055;
    probe.queue.pie_seed = cell.cell_seed ^ 0xC37;
    if (mat.uplink != nullptr) {
      probe.uplink_trace = mat.uplink;
      probe.downlink_trace = mat.downlink;
    } else {
      probe.link_mbps = 1000.0;
    }
    const auto start = Clock::now();
    const net::MultiBulkFlowReport report = net::run_multi_bulk_flow(probe);
    const double ns = ns_since(start);
    probe_ms.push_back(ns / 1e6);
    total_ns += ns;
    for (const auto& flow : report.flows) {
      flow_bytes[pos].push_back(flow.bytes_delivered);
      delivered += static_cast<double>(flow.bytes_delivered);
      retransmits += static_cast<double>(flow.retransmissions);
    }
  }
  out.number("net.probe_ms", median(probe_ms));
  out.number("net.probe_ns_per_delivered_kb", delivered > 0 ? total_ns / (delivered / 1024.0) : 0);
  out.number("net.probe_retransmits", retransmits);
  out.number("stage.probe_ms", total_ns / 1e6);
  return flow_bytes;
}

// --- stage: HTTP and mux parsers over every recorded response -----------------

void run_parser_stage(const Inputs& in, JsonFields& out) {
  constexpr std::size_t kSegment = 1460;  // one MSS per push, as TCP delivers
  std::string http_stream;
  std::string mux_stream;
  std::size_t responses = 0;
  std::uint32_t stream_id = 1;
  for (const auto& [label, site] : in.sites) {
    for (const record::RecordedExchange& exchange : site.store.exchanges()) {
      const std::string wire = http::to_bytes(exchange.response);
      http_stream += wire;
      for (std::size_t at = 0; at < wire.size(); at += 16 * 1024) {
        mux_stream += net::mux::encode_frame(net::mux::Frame{
            stream_id, net::mux::Frame::Type::kData, wire.substr(at, 16 * 1024)});
      }
      mux_stream += net::mux::encode_frame(net::mux::Frame{stream_id, net::mux::Frame::Type::kEnd, ""});
      stream_id += 2;
      ++responses;
    }
  }
  // Repeat each parse until it has run for ~50 ms; report the best pass.
  const auto time_best = [](const auto& pass) {
    double best = 0;
    double elapsed = 0;
    for (int rep = 0; rep < 3 || elapsed < 5e7; ++rep) {
      const auto start = Clock::now();
      pass();
      const double ns = ns_since(start);
      best = rep == 0 ? ns : std::min(best, ns);
      elapsed += ns;
    }
    return best;
  };
  const double http_ns = time_best([&] {
    http::ResponseParser parser;
    for (std::size_t i = 0; i < responses; ++i) {
      parser.notify_request(http::Method::kGet);
    }
    std::size_t parsed = 0;
    for (std::size_t at = 0; at < http_stream.size(); at += kSegment) {
      parser.push(std::string_view{http_stream}.substr(at, kSegment));
      while (parser.has_message()) {
        (void)parser.pop();
        ++parsed;
      }
    }
    if (parsed != responses) {
      throw std::runtime_error{"HTTP parser lost responses"};
    }
  });
  const double mux_ns = time_best([&] {
    net::mux::FrameParser parser;
    std::size_t ends = 0;
    for (std::size_t at = 0; at < mux_stream.size(); at += kSegment) {
      parser.push(std::string_view{mux_stream}.substr(at, kSegment));
      while (parser.has_frame()) {
        ends += parser.pop().type == net::mux::Frame::Type::kEnd ? 1 : 0;
      }
    }
    if (parser.failed() || ends != responses) {
      throw std::runtime_error{"mux frame parser lost frames"};
    }
  });
  out.number("http.parse_ns_per_byte", http_ns / static_cast<double>(http_stream.size()));
  out.number("net.mux_parse_ns_per_byte", mux_ns / static_cast<double>(mux_stream.size()));
}

// --- stage: shared-world fleets -----------------------------------------------

struct FleetStage {
  // [pos][load] -> per-session PLTs
  std::vector<std::vector<std::vector<double>>> plts;
};

FleetStage run_fleet_stage(const Inputs& in, int loads, JsonFields& out,
                           bool& counts_repeat) {
  FleetStage stage;
  stage.plts.assign(in.cells.size(), {});
  const std::uint64_t rss_before = vm_kb("VmRSS:");
  double run_ns = 0;
  double sessions = 0;
  std::size_t peak_live = 0;
  int max_sessions = 1;
  std::optional<std::uint64_t> first_allocs;
  const auto run_mux = [&](std::size_t pos, int load, double* ns,
                           std::size_t* live, std::uint64_t* allocs) {
    const Cell& cell = in.cells[pos];
    const RecordedSite& site = in.sites.at(cell.site.label);
    fleet::MuxConfig config;
    config.fleet_seed = util::Rng{cell.cell_seed}
                            .fork("fleet-load-" + std::to_string(load))
                            .next();
    config.stagger = cell.fleet.stagger;
    config.session = session_config(in, pos);
    config.origin = origin_options(cell);
    config.shared_world = true;
    const AllocSnapshot before;
    fleet::SessionMux mux{site.store, site.site.primary_url(), config};
    for (int s = 0; s < cell.fleet.sessions; ++s) {
      mux.add_session(s);
    }
    const auto start = Clock::now();
    std::vector<fleet::SessionOutcome> outcomes = mux.run();
    *ns = ns_since(start);
    *live = mux.peak_live_sessions();
    *allocs = AllocSnapshot{}.count - before.count;
    std::vector<double> result;
    for (const fleet::SessionOutcome& outcome : outcomes) {
      result.push_back(outcome.plt_ms);
    }
    return result;
  };
  for (std::size_t pos = 0; pos < in.cells.size(); ++pos) {
    for (int load = 0; load < loads; ++load) {
      double ns = 0;
      std::size_t live = 0;
      std::uint64_t allocs = 0;
      stage.plts[pos].push_back(run_mux(pos, load, &ns, &live, &allocs));
      if (!first_allocs.has_value()) {
        first_allocs = allocs;
      }
      run_ns += ns;
      sessions += in.cells[pos].fleet.sessions;
      peak_live = std::max(peak_live, live);
      max_sessions = std::max(max_sessions, in.cells[pos].fleet.sessions);
    }
  }
  const std::uint64_t hwm = vm_kb("VmHWM:");
  // Count-repeat check: the first fleet load again, same allocations.
  double ns = 0;
  std::size_t live = 0;
  std::uint64_t allocs = 0;
  const auto again = run_mux(0, 0, &ns, &live, &allocs);
  if (again != stage.plts[0][0] || allocs != first_allocs.value_or(0)) {
    std::fprintf(stderr, "perfbench: fleet load not repeatable\n");
    counts_repeat = false;
  }
  out.number("fleet.mux_run_ms_per_session", run_ns / 1e6 / sessions);
  out.number("fleet.peak_live_sessions", static_cast<double>(peak_live));
  out.number("fleet.rss_kb_per_session",
             hwm > rss_before ? static_cast<double>(hwm - rss_before) / max_sessions : 0);
  out.number("stage.fleet_ms", run_ns / 1e6);
  return stage;
}

// --- commands -----------------------------------------------------------------

int cmd_setup(const std::string& spec_path, int reps) {
  const ExperimentSpec spec = load_spec_file(spec_path);
  std::string times;
  std::vector<double> site_ms;
  double store_kb = 0;
  std::size_t sites = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    const Inputs in = build_inputs(spec);
    const double s = ns_since(start) / 1e9;
    times += (times.empty() ? "" : ", ") + fmt6(s);
    site_ms.insert(site_ms.end(), in.site_record_ms.begin(), in.site_record_ms.end());
    if (rep == 0) {
      sites = in.sites.size();
      for (const auto& [label, site] : in.sites) {
        for (const record::RecordedExchange& exchange : site.store.exchanges()) {
          store_kb += static_cast<double>(http::to_bytes(exchange.request).size() +
                                          http::to_bytes(exchange.response).size()) /
                      1024.0;
        }
      }
    }
  }
  JsonFields out;
  out.raw("setup_s", "[" + times + "]");
  out.number("record.site_ms", median(site_ms));
  out.number("record.store_kb", store_kb / static_cast<double>(sites));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

std::string plt_json(const std::vector<std::vector<std::vector<double>>>& plts) {
  std::string json = "[";
  for (std::size_t pos = 0; pos < plts.size(); ++pos) {
    json += pos == 0 ? "[" : ", [";
    bool first = true;
    for (const auto& load : plts[pos]) {
      for (double plt : load) {
        json += (first ? "\"" : ", \"") + fmt6(plt) + "\"";
        first = false;
      }
    }
    json += "]";
  }
  return json + "]";
}

int cmd_layers(const std::map<std::string, std::string>& args) {
  const auto need = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) {
      throw std::invalid_argument{"missing --" + key};
    }
    return it->second;
  };
  const std::string work = need("work");
  std::filesystem::create_directories(work);
  const int sweep_loads = std::stoi(need("sweep-loads"));
  const int crowd_loads = std::stoi(need("crowd-loads"));
  JsonFields metrics;
  bool counts_repeat = true;

  const Inputs crowd = build_inputs(load_spec_file(need("crowd")));
  // The fleet stage runs first, so the peak-RSS delta is the fleets' own.
  const FleetStage fleet = run_fleet_stage(crowd, crowd_loads, metrics, counts_repeat);

  Inputs sweep = build_inputs(load_spec_file(need("sweep")));
  metrics.number("stage.sweep_record_ms", total(sweep.site_record_ms));
  metrics.number("stage.crowd_record_ms", total(crowd.site_record_ms));
  SweepStage loads = run_sweep_stage(sweep, sweep_loads, metrics);
  counts_repeat = counts_repeat && loads.counts_repeat;
  const auto probe_bytes = run_probe_stage(sweep, metrics);
  run_parser_stage(sweep, metrics);
  const int obs_loads = std::min(sweep_loads, std::stoi(need("obs-loads")));
  run_obs_write_stage(sweep, loads, obs_loads, work, metrics, counts_repeat);
  if (args.count("trace-a") != 0) {
    run_read_stage(need("trace-a"), need("trace-b"), metrics);
  } else {
    run_read_stage(work + "/exports", work + "/exports", metrics);
  }

  std::vector<std::vector<std::vector<double>>> sweep_plts(sweep.cells.size());
  for (std::size_t pos = 0; pos < sweep.cells.size(); ++pos) {
    for (const LoadSample& s : loads.untraced[pos]) {
      sweep_plts[pos].push_back({s.plt_ms});
    }
  }
  JsonFields top;
  top.raw("metrics", metrics.str());
  top.raw("sweep_plts", plt_json(sweep_plts));
  std::string bytes_json = "[";
  for (const auto& cell : probe_bytes) {
    bytes_json += bytes_json.size() == 1 ? "[" : ", [";
    for (std::size_t f = 0; f < cell.size(); ++f) {
      bytes_json += (f == 0 ? "" : ", ") + std::to_string(cell[f]);
    }
    bytes_json += "]";
  }
  top.raw("probe_bytes", bytes_json + "]");
  top.raw("crowd_plts", plt_json(fleet.plts));
  std::printf("%s\n", top.str().c_str());
  return counts_repeat ? 0 : 1;
}

bool optimized_build() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return true;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s info | setup <spec> <reps> | layers ...\n", argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "info") {
    std::printf("{\"optimized\": %s, \"compiler\": \"%s\"}\n",
                optimized_build() ? "true" : "false", __VERSION__);
    return 0;
  }
  if (!optimized_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a Debug or sanitizer build\n");
    return 3;
  }
  try {
    if (command == "setup" && argc == 4) {
      return cmd_setup(argv[2], std::stoi(argv[3]));
    }
    if (command == "layers") {
      std::map<std::string, std::string> args;
      for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) {
          throw std::invalid_argument{std::string{"unexpected argument "} + argv[i]};
        }
        args[argv[i] + 2] = argv[i + 1];
      }
      return cmd_layers(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
  return 2;
}
