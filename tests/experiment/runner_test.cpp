// End-to-end tests of the experiment engine on a deliberately tiny corpus
// site: matrix execution, thread-count byte-identity of the serialized
// reports (the engine's core contract), sharding, and the mixed-CC
// fairness cell.

#include "experiment/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace mahimahi::experiment {
namespace {

/// A small site so each page load stays cheap (the real corpus profiles
/// are exercised by the bench drivers and integration tier).
SiteAxis tiny_site() {
  SiteAxis axis;
  axis.label = "tiny";
  axis.site.name = "tiny";
  axis.site.seed = 7;
  axis.site.server_count = 3;
  axis.site.object_count = 8;
  axis.site.size_scale = 0.25;
  return axis;
}

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "unit";
  spec.seed = 99;
  spec.loads_per_cell = 2;
  spec.probe_duration = 2'000'000;  // 2 s window keeps probes quick
  spec.sites = {tiny_site()};
  spec.protocols = {web::AppProtocol::kHttp11};
  ShellAxis cable;
  cable.label = "cable";
  ShellLayerSpec delay;
  delay.kind = ShellLayerSpec::Kind::kDelay;
  delay.delay_one_way = 10'000;
  ShellLayerSpec link;
  link.kind = ShellLayerSpec::Kind::kLink;
  link.up_mbps = 8;
  link.down_mbps = 8;
  cable.layers = {delay, link};
  spec.shells = {cable};
  spec.queues = {QueueAxis{"fifo", net::QueueSpec{}}};
  spec.ccs = {CcAxis{"reno", {"reno"}}, CcAxis{"cubic", {"cubic"}}};
  return spec;
}

TEST(ExperimentRunner, RunsEveryCellAndReportsSamples) {
  const Report report = run_experiment(small_spec());
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.total_cells, 2);
  for (const CellResult& cell : report.cells) {
    EXPECT_EQ(cell.plt_ms.size(), 2u);
    EXPECT_EQ(cell.failed_loads, 0u);
    for (const double plt : cell.plt_ms.values()) {
      EXPECT_GT(plt, 0.0);
    }
    ASSERT_TRUE(cell.probe_ran);
    ASSERT_EQ(cell.flows.size(), 1u);
    EXPECT_DOUBLE_EQ(cell.jain_index, 1.0);  // single flow
    EXPECT_NEAR(cell.flows[0].share, 1.0, 1e-12);
  }
  EXPECT_EQ(report.cells[0].cc, "reno");
  EXPECT_EQ(report.cells[1].cc, "cubic");
  // The probe really ran each cell's controller (both fully utilize the
  // clean 8 Mbit/s bottleneck, so byte counts alone cannot tell them
  // apart — the transport-visible difference shows on lossy cells, which
  // bench_cc_comparison's shape checks cover).
  EXPECT_EQ(report.cells[0].flows[0].controller, "reno");
  EXPECT_EQ(report.cells[1].flows[0].controller, "cubic");
}

TEST(ExperimentRunner, ReportsAreByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = small_spec();
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options_one;
  options_one.runner = &one;
  RunOptions options_four;
  options_four.runner = &four;
  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_four);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_bench_json(), b.to_bench_json());
}

TEST(ExperimentRunner, ShardsPartitionTheMatrixExactly) {
  const ExperimentSpec spec = small_spec();
  const Report full = run_experiment(spec);
  RunOptions shard0;
  shard0.shard_count = 2;
  shard0.shard_index = 0;
  RunOptions shard1;
  shard1.shard_count = 2;
  shard1.shard_index = 1;
  const Report a = run_experiment(spec, shard0);
  const Report b = run_experiment(spec, shard1);
  ASSERT_EQ(a.cells.size() + b.cells.size(), full.cells.size());
  // Shard rows are the exact rows of the full run (same seeds, same
  // samples) — sharding changes where cells run, never what they measure.
  const auto row_json = [](const Report& report, std::size_t i) {
    Report one;
    one.name = report.name;
    one.seed = report.seed;
    one.loads_per_cell = report.loads_per_cell;
    one.total_cells = report.total_cells;
    one.cells = {report.cells[i]};
    return one.to_json();
  };
  EXPECT_EQ(row_json(a, 0), row_json(full, 0));
  EXPECT_EQ(row_json(b, 0), row_json(full, 1));
}

TEST(ExperimentRunner, LoadsOverrideCapsWork) {
  RunOptions options;
  options.loads_override = 1;
  options.transport_probes = false;
  const Report report = run_experiment(small_spec(), options);
  for (const CellResult& cell : report.cells) {
    EXPECT_EQ(cell.plt_ms.size(), 1u);
    EXPECT_FALSE(cell.probe_ran);
  }
}

TEST(ExperimentRunner, MixedFleetCellReportsFairness) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"mixed", {"bbr", "cubic", "cubic"}}};
  const Report report = run_experiment(spec);
  ASSERT_EQ(report.cells.size(), 1u);
  const CellResult& cell = report.cells[0];
  // Page loads run with the heterogeneous fleet plumbed through browser
  // and origin servers.
  EXPECT_EQ(cell.failed_loads, 0u);
  ASSERT_TRUE(cell.probe_ran);
  ASSERT_EQ(cell.flows.size(), 3u);
  EXPECT_EQ(cell.flows[0].controller, "bbr");
  EXPECT_EQ(cell.flows[1].controller, "cubic");
  double total_share = 0;
  for (const FlowResult& flow : cell.flows) {
    EXPECT_GT(flow.bytes_delivered, 0u) << flow.controller << " starved";
    total_share += flow.share;
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  EXPECT_GT(cell.jain_index, 0.0);
  EXPECT_LE(cell.jain_index, 1.0);
}

TEST(ExperimentRunner, FleetAxisDegradesPltUnderLoad) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"cubic", {"cubic"}}};
  spec.fleets = {FleetAxis{"solo", 1, 0}, FleetAxis{"crowd", 6, 10'000}};
  RunOptions options;
  options.transport_probes = false;
  const Report report = run_experiment(spec, options);
  ASSERT_EQ(report.cells.size(), 2u);
  const CellResult& solo = report.cells[0];
  const CellResult& crowd = report.cells[1];
  EXPECT_EQ(solo.fleet, "solo");
  EXPECT_EQ(solo.fleet_sessions, 1);
  EXPECT_EQ(crowd.fleet, "crowd");
  EXPECT_EQ(crowd.fleet_sessions, 6);
  // One sample per load for the solo cell; sessions x loads for the crowd.
  EXPECT_EQ(solo.plt_ms.size(), 2u);
  EXPECT_EQ(crowd.plt_ms.size(), 12u);
  EXPECT_EQ(solo.failed_loads + crowd.failed_loads, 0u);
  // Six users contending for the same 8 Mbit/s link and origin servers
  // cannot beat one user having it all to itself.
  EXPECT_GT(crowd.plt_ms.median(), solo.plt_ms.median());
}

TEST(ExperimentRunner, FleetCellsAreByteIdenticalAcrossThreadCounts) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"cubic", {"cubic"}}};
  spec.fleets = {FleetAxis{"crowd", 4, 10'000}};
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  RunOptions options_four = options_one;
  options_four.runner = &four;
  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_four);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(ExperimentRunner, RejectsBadShards) {
  RunOptions options;
  options.shard_index = 2;
  options.shard_count = 2;
  EXPECT_THROW(run_experiment(small_spec(), options), std::invalid_argument);
}

TEST(ExperimentRunner, RejectsCellsWithoutLoads) {
  // A cell is derived and exported by the task that lands its last load,
  // so a run must schedule at least one load per cell.
  ExperimentSpec spec = small_spec();
  spec.loads_per_cell = 0;
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
}

/// small_spec() narrowed to one cc, with a fault ladder attached.
ExperimentSpec faulted_spec() {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"reno", {"reno"}}};
  FaultAxis chaos;
  chaos.label = "chaos";
  chaos.fault = fault::parse_fault_spec(
      "crash:p=0.3 retry:deadline=2s,max=3,base=100ms,cap=1s");
  FaultAxis grim;
  grim.label = "grim";
  grim.fault = fault::parse_fault_spec("crash:p=0.6 noretry");
  spec.faults = {FaultAxis{}, chaos, grim};
  return spec;
}

TEST(ExperimentRunner, FaultNoneAxisChangesNoMeasurement) {
  // Adding an explicit `fault none` axis widens the report (the fault
  // column appears) but must not perturb a single sample: the healthy
  // control is the same simulation, coin-flip for coin-flip.
  ExperimentSpec bare = small_spec();
  bare.ccs = {CcAxis{"reno", {"reno"}}};
  ExperimentSpec with_axis = bare;
  with_axis.faults = {FaultAxis{}};

  const Report a = run_experiment(bare);
  const Report b = run_experiment(with_axis);
  EXPECT_FALSE(a.fault_axis);
  EXPECT_TRUE(b.fault_axis);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].plt_ms.values(), b.cells[i].plt_ms.values());
    EXPECT_EQ(a.cells[i].queue_delay_p95_ms, b.cells[i].queue_delay_p95_ms);
    EXPECT_EQ(b.cells[i].fault, "none");
  }
  // And the axis-free report serializes without the fault column at all —
  // the byte-compat contract for every pre-existing spec.
  EXPECT_EQ(a.to_json().find("\"fault\""), std::string::npos);
  EXPECT_EQ(a.to_csv().find("fault"), std::string::npos);
  EXPECT_NE(b.to_csv().find(",fault,"), std::string::npos);
}

TEST(ExperimentRunner, FaultedCellsAreByteIdenticalAcrossThreadCounts) {
  // The whole point of stateless fault decisions: a chaos ladder is as
  // reproducible as a healthy run, at any pool size.
  const ExperimentSpec spec = faulted_spec();
  core::ParallelRunner one{1};
  core::ParallelRunner four{4};
  RunOptions options_one;
  options_one.runner = &one;
  RunOptions options_four;
  options_four.runner = &four;
  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_four);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_bench_json(), b.to_bench_json());
  // Prove the ladder actually injected: the defended cell retried or
  // timed out, the undefended cell lost objects.
  ASSERT_EQ(a.cells.size(), 3u);
  const CellResult& chaos = a.cells[1];
  const CellResult& grim = a.cells[2];
  EXPECT_EQ(chaos.fault, "chaos");
  EXPECT_EQ(grim.fault, "grim");
  EXPECT_GT(chaos.retries + chaos.timeouts + chaos.objects_failed, 0u);
  EXPECT_GT(grim.objects_failed, 0u);
}

TEST(ExperimentRunner, FaultShardsMatchTheUnshardedRows) {
  // Sharding a faulted matrix must reproduce the full run's rows exactly
  // — fault plans key off the cell seed, not off which shard ran them.
  const ExperimentSpec spec = faulted_spec();
  const Report full = run_experiment(spec);
  std::vector<CellResult> stitched;
  for (int shard = 0; shard < 2; ++shard) {
    RunOptions options;
    options.shard_count = 2;
    options.shard_index = shard;
    for (CellResult& cell : run_experiment(spec, options).cells) {
      stitched.push_back(std::move(cell));
    }
  }
  ASSERT_EQ(stitched.size(), full.cells.size());
  for (const CellResult& row : full.cells) {
    bool matched = false;
    for (const CellResult& candidate : stitched) {
      if (candidate.index != row.index) {
        continue;
      }
      matched = candidate.plt_ms.values() == row.plt_ms.values() &&
                candidate.objects_failed == row.objects_failed &&
                candidate.retries == row.retries &&
                candidate.failed_loads == row.failed_loads;
    }
    EXPECT_TRUE(matched) << "cell " << row.index << " diverged under sharding";
  }
}

TEST(ExperimentRunner, FailedLoadsLandAsReportRowsNotCrashes) {
  // An undefended cell under heavy crash faults: loads fail, the
  // experiment completes, and the failures are data — counted per cell,
  // with the healthy cells untouched.
  const ExperimentSpec spec = faulted_spec();
  const Report report = run_experiment(spec);
  ASSERT_EQ(report.cells.size(), 3u);
  const CellResult& none = report.cells[0];
  const CellResult& grim = report.cells[2];
  EXPECT_EQ(none.failed_loads, 0u);
  EXPECT_EQ(none.objects_failed, 0u);
  EXPECT_GT(grim.failed_loads, 0u);
  // Every load produced a row-worth of samples — failed ones included.
  EXPECT_EQ(grim.plt_ms.size() + /* torn tasks */ grim.load_errors.size(),
            static_cast<std::size_t>(report.loads_per_cell));
  // Degraded PLT never exceeds full PLT, sample for sample.
  ASSERT_EQ(grim.degraded_plt_ms.size(), grim.plt_ms.size());
  for (std::size_t i = 0; i < grim.plt_ms.size(); ++i) {
    EXPECT_LE(grim.degraded_plt_ms.values()[i], grim.plt_ms.values()[i]);
  }
  // The serialized report carries the fault axis and the failure counts.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"fault\": \"grim\""), std::string::npos);
  EXPECT_NE(json.find("\"objects_failed\""), std::string::npos);
}

TEST(ExperimentRunner, CsvLabelsNeverShiftColumns) {
  // Spec labels are free text (the spec parser accepts `shell say,hi
  // delay=10ms`); in report.csv every row must still have exactly the
  // header's fields, and every cell exactly one row.
  ExperimentSpec spec = small_spec();
  spec.loads_per_cell = 1;
  spec.sites[0].label = "ti,ny";
  spec.shells[0].label = "say,hi";
  spec.queues[0].label = "fi\nfo";
  spec.ccs = {CcAxis{"re,\r\nno", {"reno"}}};
  FaultAxis fault;
  fault.label = "cr,ash";
  fault.fault = fault::parse_fault_spec(
      "crash:p=0.05 retry:deadline=2s,max=3,base=100ms,cap=1s");
  spec.faults = {fault};
  const Report report = run_experiment(spec);
  ASSERT_EQ(report.cells.size(), 1u);

  const std::string csv = report.to_csv();
  std::vector<std::string> rows;
  std::size_t start = 0;
  for (std::size_t end; (end = csv.find('\n', start)) != std::string::npos;
       start = end + 1) {
    rows.push_back(csv.substr(start, end - start));
  }
  EXPECT_EQ(start, csv.size());  // ends with a newline
  ASSERT_EQ(rows.size(), 1 + report.cells.size());
  const auto fields = [](const std::string& row) {
    return std::count(row.begin(), row.end(), ',') + 1;
  };
  for (const std::string& row : rows) {
    EXPECT_EQ(fields(row), fields(rows[0])) << row;
    EXPECT_EQ(row.find('\r'), std::string::npos) << row;
  }
  EXPECT_NE(rows[1].find(",ti;ny,http11,say;hi,fi;fo,re;;;no,"),
            std::string::npos)
      << rows[1];
  EXPECT_NE(rows[1].find(",cr;ash,"), std::string::npos) << rows[1];
}

}  // namespace
}  // namespace mahimahi::experiment
