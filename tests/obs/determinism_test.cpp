// The exported-artifact determinism contract, end to end through the
// experiment engine: for a fixed spec, the bytes of every per-cell trace
// artifact (Chrome trace JSON, HAR, CSV) are identical at any thread
// count and across shard splits — including chaos (fault-ladder) and
// fleet (shared-world mux) cells. Also pins that turning tracing on does
// not perturb the measurements themselves, and that every task path
// (run, replayed, cancelled, watchdog-tripped) hands its trace to the
// cell that the pool exports as soon as its last load lands.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_runner.hpp"
#include "experiment/runner.hpp"
#include "fault/fault.hpp"
#include "journal/journal.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mahimahi::experiment {
namespace {

namespace fs = std::filesystem;

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
  spec.name = "obs-unit";
  spec.seed = 99;
  spec.loads_per_cell = 2;
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
  spec.ccs = {CcAxis{"reno", {"reno"}}};
  return spec;
}

/// small_spec() plus a chaos cell: every fault injector active, client
/// defended — the hardest case for trace determinism (retries, timeouts,
/// injected events).
ExperimentSpec chaos_spec() {
  ExperimentSpec spec = small_spec();
  FaultAxis chaos;
  chaos.label = "chaos";
  chaos.fault = fault::parse_fault_spec(
      "crash:p=0.3 retry:deadline=2s,max=3,base=100ms,cap=1s");
  spec.faults = {FaultAxis{}, chaos};
  return spec;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in) << "missing artifact " << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / name;
  fs::remove_all(dir);
  return dir;
}

constexpr const char* kSuffixes[] = {".trace.json", ".har", ".csv"};

void expect_identical_artifacts(const fs::path& a, const fs::path& b,
                                const std::vector<int>& cell_indices) {
  for (const int cell : cell_indices) {
    for (const char* suffix : kSuffixes) {
      const std::string name = "cell" + std::to_string(cell) + suffix;
      EXPECT_EQ(read_file(a / name), read_file(b / name))
          << name << " differs between " << a << " and " << b;
    }
  }
}

TEST(ObsDeterminism, ArtifactsByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = chaos_spec();
  core::ParallelRunner one{1};
  core::ParallelRunner eight{8};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  options_one.trace_dir = fresh_dir("obs-threads-1").string();
  RunOptions options_eight = options_one;
  options_eight.runner = &eight;
  options_eight.trace_dir = fresh_dir("obs-threads-8").string();

  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_eight);
  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_EQ(a.cells.size(), 2u);
  expect_identical_artifacts(options_one.trace_dir, options_eight.trace_dir,
                             {0, 1});
  // The chaos cell really exercised the fault path, and its injections
  // landed in the trace.
  EXPECT_GT(a.cells[1].retries + a.cells[1].timeouts +
                a.cells[1].objects_failed,
            0u);
  const std::string csv =
      read_file(fs::path{options_one.trace_dir} / "cell1.csv");
  EXPECT_NE(csv.find(",fault,injected,"), std::string::npos);
}

TEST(ObsDeterminism, FleetArtifactsByteIdenticalAcrossThreadCounts) {
  // A shared-world mux is one indivisible simulation tracing into one
  // buffer; sessions are told apart by their global fleet index.
  ExperimentSpec spec = small_spec();
  spec.fleets = {FleetAxis{"crowd", 3, 10'000}};
  core::ParallelRunner one{1};
  core::ParallelRunner eight{8};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  options_one.trace_dir = fresh_dir("obs-fleet-1").string();
  RunOptions options_eight = options_one;
  options_eight.runner = &eight;
  options_eight.trace_dir = fresh_dir("obs-fleet-8").string();

  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_eight);
  EXPECT_EQ(a.to_json(), b.to_json());
  expect_identical_artifacts(options_one.trace_dir, options_eight.trace_dir,
                             {0});
  // All three sessions appear as distinct streams, plus shared infra (-1).
  const std::string csv =
      read_file(fs::path{options_one.trace_dir} / "cell0.csv");
  for (const char* prefix : {"\n0,-1,", "\n0,0,", "\n0,1,", "\n0,2,"}) {
    EXPECT_NE(csv.find(prefix), std::string::npos)
        << "stream " << prefix << " missing from the fleet trace";
  }
}

TEST(ObsDeterminism, ShardSplitsReproduceTheUnshardedArtifacts) {
  const ExperimentSpec spec = chaos_spec();
  RunOptions full_options;
  full_options.transport_probes = false;
  full_options.trace_dir = fresh_dir("obs-full").string();
  const Report full = run_experiment(spec, full_options);
  ASSERT_EQ(full.cells.size(), 2u);

  // Each shard writes only its own cells; the artifacts use global cell
  // indices, so the two shard dirs jointly hold the full run's files.
  const fs::path shard_dir = fresh_dir("obs-shards");
  for (int shard = 0; shard < 2; ++shard) {
    RunOptions options;
    options.transport_probes = false;
    options.shard_count = 2;
    options.shard_index = shard;
    options.trace_dir = shard_dir.string();
    run_experiment(spec, options);
  }
  expect_identical_artifacts(full_options.trace_dir, shard_dir, {0, 1});
}

TEST(ObsDeterminism, TracingDoesNotPerturbTheReport) {
  const ExperimentSpec spec = chaos_spec();
  RunOptions untraced;
  untraced.transport_probes = false;
  RunOptions traced = untraced;
  traced.trace_dir = fresh_dir("obs-perturb").string();
  const Report a = run_experiment(spec, untraced);
  const Report b = run_experiment(spec, traced);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

/// Three loads per cell with metrics and artifacts on: at 8 threads the
/// loads of one cell land out of order, yet the cell is exported from its
/// load-ordered slots, byte-identical to the single-thread run.
TEST(ObsHandoff, OutOfOrderLoadsExportTheSameCell) {
  ExperimentSpec spec = chaos_spec();
  spec.loads_per_cell = 3;
  core::ParallelRunner one{1};
  core::ParallelRunner eight{8};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  options_one.metrics = true;
  options_one.trace_dir = fresh_dir("obs-handoff-1").string();
  RunOptions options_eight = options_one;
  options_eight.runner = &eight;
  options_eight.trace_dir = fresh_dir("obs-handoff-8").string();

  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_eight);
  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_EQ(a.cells.size(), 2u);
  for (const CellResult& cell : a.cells) {
    EXPECT_FALSE(cell.metrics_json.empty()) << "cell " << cell.index;
  }
  expect_identical_artifacts(options_one.trace_dir, options_eight.trace_dir,
                             {0, 1});
  const std::string csv =
      read_file(fs::path{options_eight.trace_dir} / "cell0.csv");
  for (const char* load : {"\n0,", "\n1,", "\n2,"}) {
    EXPECT_NE(csv.find(load), std::string::npos)
        << "load " << load << " missing from the exported cell";
  }
}

/// Resume at 8 threads from a journal holding every other record of a
/// finished run: each cell mixes replayed and live loads, and both kinds
/// feed the cell's countdown.
TEST(ObsHandoff, ReplayedLoadsFeedTheCellOnResume) {
  ExperimentSpec spec = chaos_spec();
  spec.loads_per_cell = 3;
  core::ParallelRunner one{1};
  RunOptions clean;
  clean.runner = &one;
  clean.transport_probes = false;
  clean.metrics = true;
  clean.trace_dir = fresh_dir("obs-resume-clean").string();
  const Report reference = run_experiment(spec, clean);

  const fs::path journal_dir = fresh_dir("obs-resume-journal");
  RunOptions journaled = clean;
  journaled.journal_dir = journal_dir.string();
  journaled.trace_dir = fresh_dir("obs-resume-first").string();
  run_experiment(spec, journaled);
  const journal::ReadResult full = journal::read_journal_file(
      journal::Writer::journal_path(journal_dir.string()));
  ASSERT_EQ(full.records.size(), 6u);
  {
    // Single-thread append order is task order (cell, then load), so
    // keeping records 0, 2 and 4 leaves each cell partly journaled.
    journal::Writer half{journal_dir.string(), 0};
    for (std::size_t i = 0; i < full.records.size(); i += 2) {
      ASSERT_TRUE(half.append(full.records[i]));
    }
  }

  core::ParallelRunner eight{8};
  RunOptions resume = clean;
  resume.runner = &eight;
  resume.journal_dir = journal_dir.string();
  resume.resume = true;
  resume.trace_dir = fresh_dir("obs-resume-resumed").string();
  const Report resumed = run_experiment(spec, resume);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
  expect_identical_artifacts(clean.trace_dir, resume.trace_dir, {0, 1});
  const std::string events = read_file(journal_dir / "events.csv");
  EXPECT_NE(events.find("journal-replay"), std::string::npos);
  EXPECT_NE(events.find("journal-append"), std::string::npos);
}

/// A pre-set cancel token skips every task, yet every cell still gets all
/// three artifacts and a metrics block: each skipped load is an empty
/// load in its cell.
TEST(ObsHandoff, CancelledCellsStillExportEmptyLoads) {
  ExperimentSpec spec = chaos_spec();
  spec.loads_per_cell = 3;
  std::atomic<bool> cancel{true};
  core::ParallelRunner eight{8};
  RunOptions options;
  options.runner = &eight;
  options.transport_probes = false;
  options.metrics = true;
  options.cancel = &cancel;
  options.trace_dir = fresh_dir("obs-cancelled").string();
  const Report report = run_experiment(spec, options);
  EXPECT_TRUE(report.interrupted);

  std::vector<obs::LoadTrace> empty_loads(3);
  for (int load = 0; load < 3; ++load) {
    empty_loads[static_cast<std::size_t>(load)].load_index = load;
  }
  const std::string empty_metrics =
      obs::derive_cell_metrics(empty_loads).to_json_inline();
  const std::vector<Cell> matrix = expand_matrix(spec);
  ASSERT_EQ(report.cells.size(), matrix.size());
  for (std::size_t pos = 0; pos < matrix.size(); ++pos) {
    const Cell& cell = matrix[pos];
    EXPECT_EQ(report.cells[pos].metrics_json, empty_metrics);
    const obs::TraceMeta meta{spec.name, cell.label(), cell.index,
                              cell.cell_seed};
    const fs::path base = fs::path{options.trace_dir} /
                          ("cell" + std::to_string(cell.index));
    EXPECT_EQ(read_file(base.string() + ".trace.json"),
              obs::to_chrome_trace(meta, empty_loads));
    EXPECT_EQ(read_file(base.string() + ".har"),
              obs::to_har(meta, empty_loads));
    EXPECT_EQ(read_file(base.string() + ".csv"),
              obs::to_csv(meta, empty_loads));
  }
}

/// A watchdog trip is a final failed load whose partial trace (ending in
/// the watchdog-expired event) is the diagnosis: it must be exported.
TEST(ObsHandoff, WatchdogTrippedLoadsExportTheirPartialTrace) {
  ExperimentSpec spec = small_spec();
  spec.loads_per_cell = 3;
  spec.cell_deadline = 1'000;  // 1 ms of virtual time: no load finishes
  core::ParallelRunner one{1};
  core::ParallelRunner eight{8};
  RunOptions options_one;
  options_one.runner = &one;
  options_one.transport_probes = false;
  options_one.metrics = true;
  options_one.trace_dir = fresh_dir("obs-watchdog-1").string();
  RunOptions options_eight = options_one;
  options_eight.runner = &eight;
  options_eight.trace_dir = fresh_dir("obs-watchdog-8").string();

  const Report a = run_experiment(spec, options_one);
  const Report b = run_experiment(spec, options_eight);
  ASSERT_EQ(a.cells.size(), 1u);
  EXPECT_EQ(a.cells[0].load_errors.size(), 3u);
  EXPECT_EQ(a.to_json(), b.to_json());
  expect_identical_artifacts(options_one.trace_dir, options_eight.trace_dir,
                             {0});
  const std::string csv =
      read_file(fs::path{options_eight.trace_dir} / "cell0.csv");
  std::size_t expired = 0;
  for (std::size_t at = csv.find("watchdog-expired"); at != std::string::npos;
       at = csv.find("watchdog-expired", at + 1)) {
    ++expired;
  }
  EXPECT_EQ(expired, 3u) << "one watchdog-expired event per tripped load";
}

/// A trace artifact or events.csv whose write fails is reported on the
/// Report (in cell order, events.csv last) instead of being dropped; the
/// other artifacts still land.
TEST(ObsHandoff, FailedArtifactWritesAreReported) {
  const ExperimentSpec spec = chaos_spec();
  const fs::path trace_dir = fresh_dir("obs-failed-writes");
  const fs::path journal_dir = fresh_dir("obs-failed-journal");
  // A directory where a file should land makes the atomic rename fail.
  fs::create_directories(trace_dir / "cell0.csv");
  fs::create_directories(journal_dir / "events.csv");
  RunOptions options;
  options.transport_probes = false;
  options.trace_dir = trace_dir.string();
  options.journal_dir = journal_dir.string();
  const Report report = run_experiment(spec, options);
  const std::vector<std::string> expected{
      (trace_dir / "cell0.csv").string(), (journal_dir / "events.csv").string()};
  EXPECT_EQ(report.failed_writes, expected);
  for (const char* name : {"cell0.trace.json", "cell0.har", "cell1.csv"}) {
    EXPECT_TRUE(fs::is_regular_file(trace_dir / name)) << name;
  }

  // A clean run reports nothing.
  RunOptions clean = options;
  clean.trace_dir = fresh_dir("obs-clean-writes").string();
  clean.journal_dir = fresh_dir("obs-clean-journal").string();
  EXPECT_TRUE(run_experiment(spec, clean).failed_writes.empty());
}

}  // namespace
}  // namespace mahimahi::experiment
