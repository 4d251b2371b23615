#!/usr/bin/env python3
"""Whole-system host-time benchmark of the simulator.

Measures the simulator's own wall-clock time, CPU time and memory (never
the simulated page-load times, which are outputs) on four workloads, run
through the commands users run:

  sweep           mm_experiment on a 32-cell matrix, probes on, no
                  observation
  sweep-observed  the same matrix with --metrics --trace-dir --journal
  crowd           shared-world fleets of 16 and 64 users
  readback        mm_metrics on every cell CSV plus mm_trace_diff of two
                  traced runs

Usage (from the repository root):

  python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs the serial
per-layer pass (perfbench_harness layers) on the same inputs instead and
reports the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.

The first run builds the program from the checkout's sources into
.bench_build/perfbench; every run works in .perfbench_runs/ and removes
its own directory when it ends.
"""

import argparse
import copy
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".perfbench_runs"
PINS_FILE = BENCH_DIR / "pins.json"

DEFAULT_SEED = 1
THREADS = min(os.cpu_count() or 1, 4)
SWEEP_LOADS = 4       # loads per cell of `sweep`
OBSERVED_LOADS = 1    # loads per cell of `sweep-observed` and `readback`
CROWD_LOADS = 2       # fleet loads per cell of `crowd`
FLEET_SIZES = (16, 64)  # users per shared-world load of `crowd`
PROBE_SECONDS = 6     # virtual seconds of each sweep cell's transport probe
SETUP_REPS = 15       # least set-up samples per run; setup_s is their median
MIN_ITERATIONS = 3    # measured iterations per run, however short --seconds
COMMAND_TIMEOUT_S = 150

WORKLOADS = ("sweep", "sweep-observed", "crowd", "readback")

# name -> unit; the end_to_end and per_layer lists of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "loads_per_s": "1/s",
    "cpu_ms_per_load": "ms",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "ops_ok_share": "share",
}

PER_LAYER = {}
for _name in ("record", "replay", "probe", "journal", "metrics", "export"):
    PER_LAYER[f"experiment.{_name}_ms"] = "ms"
PER_LAYER.update({
    "experiment.pool_busy_share": "share",
    "experiment.serial_share": "share",
    "record.site_ms": "ms",
    "record.store_kb": "KB",
})
for _proto in ("http11", "mux"):
    PER_LAYER.update({
        f"core.world_build_us.p50.{_proto}": "us",
        f"net.loop_run_ms.p50.{_proto}": "ms",
        f"net.loop_run_ms.p95.{_proto}": "ms",
        f"net.loop_run_samples.{_proto}": "count",
        f"net.events_per_load.{_proto}": "count",
        f"net.ns_per_event.{_proto}": "ns",
        f"core.allocs_per_load.{_proto}": "count",
        f"core.alloc_kb_per_load.{_proto}": "KB",
    })
PER_LAYER.update({
    "http.parse_ns_per_byte": "ns",
    "net.mux_parse_ns_per_byte": "ns",
    "net.probe_ms": "ms",
    "net.probe_ns_per_delivered_kb": "ns",
    "net.probe_retransmits": "count",
    "fleet.mux_run_ms_per_session": "ms",
    "fleet.peak_live_sessions": "count",
    "fleet.rss_kb_per_session": "KB",
    "obs.trace_events_per_load": "count",
    "obs.allocs_per_trace_event": "count",
    "obs.record_overhead_share": "share",
    "obs.derive_ms_per_cell": "ms",
})
for _kind in ("chrome", "har", "csv"):
    PER_LAYER[f"obs.export_ms_per_cell.{_kind}"] = "ms"
for _kind in ("chrome", "har", "csv"):
    PER_LAYER[f"obs.export_kb_per_load.{_kind}"] = "KB"
PER_LAYER.update({
    "obs.parse_ms_per_mb": "ms/MB",
    "obs.diff_ms_per_mb": "ms/MB",
    "util.atomic_write_ms_per_mb": "ms/MB",
    "journal.append_ms.p50": "ms",
    "journal.kb_per_record": "KB",
    "experiment.codec_us_per_record": "us",
    "journal.read_ms_per_mb": "ms/MB",
    "pass.overhead_share": "share",
})


class BenchError(Exception):
    """The benchmark cannot produce a result (build, input or tool failure)."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def shrink_for_smoke():
    """Tiny inputs for the smoke test: one load per cell, small fleets."""
    global SWEEP_LOADS, CROWD_LOADS, SETUP_REPS, MIN_ITERATIONS, FLEET_SIZES
    global PROBE_SECONDS
    SWEEP_LOADS, CROWD_LOADS, SETUP_REPS, MIN_ITERATIONS = 1, 1, 2, 1
    FLEET_SIZES, PROBE_SECONDS = (2, 4), 1


# --- inputs -------------------------------------------------------------------

def sweep_spec(seed):
    return f"""name sweep
seed {seed}
loads {SWEEP_LOADS}
probe-seconds {PROBE_SECONDS}
site nytimes
site cnbc
protocol http11
protocol mux
shell cable delay=10ms link=12x5
shell lte delay=30ms link=lte
queue fifo infinite
queue pie pie target=15ms tupdate=15ms
cc cubic
cc mixed 1xbbr+2xcubic
"""


def crowd_spec(seed):
    return f"""name crowd
seed {seed}
loads {CROWD_LOADS}
probe-seconds 4
site nytimes
protocol http11
protocol mux
shell fast delay=10ms link=100x50
queue fifo infinite
cc cubic
fleet f{FLEET_SIZES[0]} sessions={FLEET_SIZES[0]} stagger=25ms
fleet f{FLEET_SIZES[1]} sessions={FLEET_SIZES[1]} stagger=25ms
"""


# --- build --------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources next to {BENCH_DIR.name}/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    step = ["cmake", "--build", str(BUILD_DIR), "-j", str(THREADS)]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in ("Release", "RelWithDebInfo") or cache.get("MAHI_SANITIZE"):
        raise BenchError(f"refusing to measure a {build_type or 'unoptimized'} "
                         f"or sanitizer build")
    info = json.loads(subprocess.run([str(tool("perfbench_harness")), "info"],
                                     capture_output=True, text=True,
                                     check=True).stdout)
    if not info["optimized"]:
        raise BenchError("refusing to measure a build without NDEBUG")
    return {"build_type": build_type, "compiler": info["compiler"],
            "cxx": cache.get("CMAKE_CXX_COMPILER", "")}


def source_fingerprint():
    """The commit when the checkout is a git work tree, else a digest of the
    program's sources (the benchmark may run from a plain export)."""
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted((ROOT / top).rglob("*"))
        for path in paths:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def tool(name):
    path = BUILD_DIR / name
    return path if path.exists() else BUILD_DIR / "mahimahi" / name


# --- running one command ------------------------------------------------------

class Invocation:
    """One child process: wall clock, CPU time and max RSS from wait4."""

    def __init__(self, argv, cwd, stdout_path=None):
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        err_path = Path(cwd) / "stderr.txt"
        with open(err_path, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=out,
                                    stderr=err, env=child_env())
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        if stdout_path:
            out.close()
        # Reaped here, so tell Popen it need not wait for the child itself.
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.max_rss_mb = usage.ru_maxrss / 1024.0
        if self.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            log(f"{Path(argv[0]).name} exited {self.returncode}: {' | '.join(tail)}")


def child_env():
    env = dict(os.environ)
    env["MAHI_THREADS"] = str(THREADS)
    env.pop("MAHI_EXP_LOADS", None)
    return env


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_tree(directory):
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def tree_bytes(directory):
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def journal_digest(path):
    """Digest of the journal's records as a set: pool threads append in
    completion order, so the frame order is not deterministic."""
    data = Path(path).read_bytes()
    records, offset = [], 0
    while offset < len(data):
        if offset + 12 > len(data):
            raise BenchError("torn journal frame")
        length = int.from_bytes(data[offset + 4:offset + 8], "little")
        crc = int.from_bytes(data[offset + 8:offset + 12], "little")
        payload = data[offset + 12:offset + 12 + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise BenchError("corrupt journal frame")
        records.append(payload)
        offset += 12 + length
    digest = hashlib.sha256()
    for payload in sorted(records):
        digest.update(hashlib.sha256(payload).digest())
    return digest.hexdigest(), len(records)


def report_ops(report):
    """(tasks attempted, tasks failed with a typed error row) of a report."""
    attempted = failed = 0
    for cell in report["cells"]:
        attempted += report["loads_per_cell"] + (1 if "probe" in cell else 0)
        failed += len(cell.get("load_errors", []))
    return attempted, failed


def strip_metrics(report):
    stripped = copy.deepcopy(report)
    for cell in stripped["cells"]:
        cell.pop("metrics", None)
    return stripped


# --- one iteration of each workload -------------------------------------------

class Iteration:
    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.max_rss_mb = 0.0
        self.loads = 0
        self.artifact_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.report = None

    def add(self, inv):
        self.wall_s += inv.wall_s
        self.cpu_s += inv.cpu_s
        self.max_rss_mb = max(self.max_rss_mb, inv.max_rss_mb)
        return inv.returncode == 0


class Workload:
    """Inputs in a run directory, and one call per measured iteration."""

    def __init__(self, name, seed, run_dir):
        self.name = name
        self.seed = seed
        self.run_dir = run_dir
        self.sweep_file = run_dir / "sweep.mx"
        self.crowd_file = run_dir / "crowd.mx"
        # The workload's spec text carries the seed; the tools get only it.
        self.sweep_file.write_text(sweep_spec(seed))
        self.crowd_file.write_text(crowd_spec(seed))
        self.trace_a = run_dir / "traces-a"
        self.trace_b = run_dir / "traces-b"
        self.profile = None
        self.profile_wall_s = None
        self.traces_report = None

    @property
    def spec_file(self):
        return self.crowd_file if self.name == "crowd" else self.sweep_file

    def experiment_args(self):
        if self.name == "sweep":
            return []
        if self.name == "crowd":
            return ["--no-probes"]
        return ["--loads", str(OBSERVED_LOADS)]

    def experiment(self, out_dir, extra, profile=False):
        out_dir.mkdir(parents=True)
        it = Iteration()
        argv = [tool("mm_experiment"), self.spec_file.resolve(),
                *self.experiment_args(), *extra,
                "--json", "report.json", "--csv", "report.csv"]
        if profile:
            argv.append("--profile")
        ok = it.add(Invocation(argv, out_dir))
        (out_dir / "stderr.txt").unlink()
        try:
            it.report = json.loads((out_dir / "report.json").read_text())
            it.attempted, it.failed = report_ops(it.report)
            it.loads = sum(len(c["plt_ms"]) for c in it.report["cells"])
        except (OSError, ValueError, KeyError) as e:
            log(f"unreadable report: {e}")
            ok = False
        if not ok:
            it.attempted = max(it.attempted, 1)
            it.failed = it.attempted
            it.loads = 0
            return it
        if profile:
            self.profile = json.loads((out_dir / "profile.json").read_text())
            self.profile_wall_s = it.wall_s
            (out_dir / "profile.json").unlink()
        it.artifact_bytes = tree_bytes(out_dir)
        it.digests["report.json"] = sha256_file(out_dir / "report.json")
        it.digests["report.csv"] = sha256_file(out_dir / "report.csv")
        return it

    def observed(self, out_dir, profile=False):
        it = self.experiment(out_dir, ["--metrics", "--trace-dir", "traces",
                                       "--journal", "journal"], profile)
        if it.failed:
            return it
        it.digests["traces"] = sha256_tree(out_dir / "traces")
        it.digests["journal.events"] = sha256_file(out_dir / "journal" / "events.csv")
        it.digests["journal.records"], records = journal_digest(
            out_dir / "journal" / "journal.bin")
        if records != it.attempted:
            log(f"journal holds {records} records for {it.attempted} tasks")
            it.failed = it.attempted
        blocks = [c.get("metrics") for c in it.report["cells"]]
        it.digests["metrics"] = hashlib.sha256(
            json.dumps(blocks, sort_keys=True).encode()).hexdigest()
        return it

    def readback(self, out_dir):
        out_dir.mkdir(parents=True)
        it = Iteration()
        csvs = sorted(p for p in self.trace_a.iterdir() if p.suffix == ".csv")
        digest = hashlib.sha256()
        for csv in csvs:
            out = out_dir / (csv.stem + ".metrics.json")
            ok = it.add(Invocation([tool("mm_metrics"), csv], out_dir, out))
            it.attempted += 1
            if not ok or out.stat().st_size == 0:
                it.failed += 1
            digest.update(out.read_bytes())
        out = out_dir / "diff.txt"
        ok = it.add(Invocation([tool("mm_trace_diff"), self.trace_a, self.trace_b],
                               out_dir, out))
        it.attempted += 1
        if not ok:
            it.failed += 1
        digest.update(out.read_bytes())
        (out_dir / "stderr.txt").unlink()
        it.loads = 0 if it.failed else len(csvs) * OBSERVED_LOADS
        it.artifact_bytes = tree_bytes(out_dir)
        it.digests["readback"] = digest.hexdigest()
        return it

    def iterate(self, out_dir, profile=False):
        if self.name in ("sweep", "crowd"):
            return self.experiment(out_dir, [], profile)
        if self.name == "sweep-observed":
            return self.observed(out_dir, profile)
        return self.readback(out_dir)

    # --- set-up ---------------------------------------------------------------

    def produce_traces(self, profile=False):
        """readback's set-up: the two trace directories it compares, plus
        one more production so the median has three samples. Returns the
        seconds each production took."""
        times = []
        for rep, target in enumerate((self.trace_a, self.trace_b, None)):
            out_dir = self.run_dir / f"setup{rep}"
            extra = ["--trace-dir", "traces"]
            if rep == 0:
                extra += ["--metrics", "--journal", "journal"]
            it = self.experiment(out_dir, extra, profile and rep == 0)
            if it.failed:
                raise BenchError("producing the readback traces failed")
            times.append(it.wall_s)
            if target is not None:
                (out_dir / "traces").rename(target)
            if rep == 0:
                self.traces_report = it.report
            shutil.rmtree(out_dir)
        return times


def harness_setup(spec_file, reps):
    """Seconds the harness took to build the replayable inputs of
    `spec_file`, once per repetition, plus its record-layer figures."""
    proc = subprocess.run([str(tool("perfbench_harness")), "setup",
                           str(spec_file), str(reps)],
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"harness setup failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    return result.pop("setup_s"), result


# --- checks -------------------------------------------------------------------

def load_pins():
    if PINS_FILE.is_file():
        return json.loads(PINS_FILE.read_text())
    return {}


def check_digests(workload, reference, it, pins):
    """Every iteration must match the set's first one, and the default seed
    must match the pinned digests. A mismatch fails every task of `it`."""
    problems = []
    for key, value in it.digests.items():
        if reference.digests.get(key) != value:
            problems.append(f"{key} differs from the first run of this set")
    if workload.seed == DEFAULT_SEED:
        for key, value in pins.get(workload.name, {}).items():
            if it.digests.get(key) != value:
                problems.append(f"{key} differs from the pinned digest")
    if problems:
        it.failed = it.attempted
    return problems


def plts_of(report):
    return [[f"{v:.6f}" for v in cell["plt_ms"]] for cell in report["cells"]]


# --- the two modes ------------------------------------------------------------

def run_untraced(workload, seconds, pins):
    result = {"attempted": 0, "failed": 0, "problems": []}
    # Set-up is timed cold, in a fresh harness process, once before every
    # iteration: the samples then span the whole run, as the iterations do.
    setup = workload.produce_traces() if workload.name == "readback" else []

    def time_setup():
        if workload.name != "readback":
            setup.extend(harness_setup(workload.spec_file, 1)[0])

    time_setup()
    # Warm-up iteration: discarded from the figures, kept as the reference
    # every later iteration of the set must reproduce.
    reference = workload.iterate(workload.run_dir / "warmup")
    iterations = [reference]
    if workload.name == "sweep-observed" and not reference.failed:
        # The observed rows must equal the unobserved rows of the same loads.
        plain = workload.experiment(workload.run_dir / "plain", [])
        iterations.append(plain)
        if plain.loads and (strip_metrics(reference.report) != plain.report or
                            plain.digests["report.csv"] != reference.digests["report.csv"]):
            result["problems"].append("observed report rows differ from sweep rows")
            plain.failed = plain.attempted
        shutil.rmtree(workload.run_dir / "plain")
    shutil.rmtree(workload.run_dir / "warmup")
    measured = []
    start = time.perf_counter()
    while len(measured) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        time_setup()
        out_dir = workload.run_dir / f"it{len(measured)}"
        it = workload.iterate(out_dir)
        shutil.rmtree(out_dir)
        measured.append(it)
        if not it.loads:
            break  # the command failed; its tasks already count as failed
        result["problems"] += check_digests(workload, reference, it, pins)
    iterations += measured
    while workload.name != "readback" and len(setup) < SETUP_REPS:
        time_setup()
    result["problems"] += check_digests(workload, reference, reference, pins)
    for it in iterations:
        result["attempted"] += it.attempted
        result["failed"] += it.failed
    ok = [it for it in measured if it.loads]
    if not ok:
        raise BenchError("no iteration completed")
    result["metrics"] = {
        "setup_s": statistics.median(setup),
        "loads_per_s": statistics.median(it.loads / it.wall_s for it in ok),
        "cpu_ms_per_load": statistics.median(1e3 * it.cpu_s / it.loads for it in ok),
        "peak_rss_mb": statistics.median(it.max_rss_mb for it in ok),
        "artifact_mb": statistics.median(it.artifact_bytes / 1048576.0 for it in ok),
    }
    result["iterations"] = len(measured)
    result["digests"] = reference.digests
    result["loads_per_s_quartiles"] = statistics.quantiles(
        [it.loads / it.wall_s for it in ok], n=4) if len(ok) > 1 else []
    return result


def run_traced(workload, pins):
    """The serial per-layer pass on the workload's inputs, plus one untraced
    and one --profile run of the user command for the runner phases."""
    result = {"attempted": 0, "failed": 0, "problems": []}
    if workload.name == "readback":
        # The profiled command is the production of trace directory A.
        workload.produce_traces(profile=True)
        _, record = harness_setup(workload.sweep_file, 3)
    else:
        _, record = harness_setup(workload.spec_file, 3)
    untraced = workload.iterate(workload.run_dir / "untraced")
    runs = [untraced]
    if workload.name != "readback":
        runs.append(workload.iterate(workload.run_dir / "profiled", profile=True))
    for it in runs:
        result["attempted"] += it.attempted
        result["failed"] += it.failed
        result["problems"] += check_digests(workload, untraced, it, pins)
    if any(it.failed for it in runs):
        raise BenchError("the untraced runs of the traced pass failed")

    sweep_loads = SWEEP_LOADS if workload.name == "sweep" else OBSERVED_LOADS
    crowd_loads = CROWD_LOADS if workload.name == "crowd" else 1
    argv = [tool("perfbench_harness"), "layers",
            "--sweep", workload.sweep_file, "--sweep-loads", str(sweep_loads),
            "--obs-loads", str(OBSERVED_LOADS),
            "--crowd", workload.crowd_file, "--crowd-loads", str(crowd_loads),
            "--work", workload.run_dir / "layers"]
    if workload.name == "readback":
        argv += ["--trace-a", workload.trace_a, "--trace-b", workload.trace_b]
    proc = subprocess.run([str(a) for a in argv], capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    result["attempted"] += 1
    if proc.returncode != 0:
        # A count that did not repeat still prints the metrics; a crash not.
        result["failed"] += 1
        tail = " ".join(proc.stderr.strip().splitlines()[-1:])
        result["problems"].append(f"per-layer pass failed: {tail}")
        if not proc.stdout.strip():
            raise BenchError(f"the per-layer pass printed nothing: {tail}")
    layers = json.loads(proc.stdout)
    metrics = layers["metrics"]
    metrics.update(record)

    # The pass must have simulated exactly the work the report holds: the
    # same PLT for every load and the same bytes for every probe flow.
    report = workload.traces_report if workload.name == "readback" else untraced.report
    expected = plts_of(report)
    got = layers["crowd_plts" if workload.name == "crowd" else "sweep_plts"]
    result["attempted"] += sum(len(c) for c in expected)
    if expected != got:
        result["failed"] += sum(len(c) for c in expected)
        result["problems"].append("per-layer pass PLTs differ from the report")
    if workload.name != "crowd":
        probes = [[flow["bytes"] for flow in cell["probe"]["flows"]]
                  for cell in report["cells"]]
        result["attempted"] += len(probes)
        if probes != layers["probe_bytes"]:
            result["failed"] += len(probes)
            result["problems"].append("per-layer pass probes differ from the report")

    phases = {}
    for scope in workload.profile["scopes"]:
        phases[scope["name"]] = scope["total_ns"] / 1e6
    for name in ("record", "replay", "probe", "journal", "metrics", "export"):
        metrics[f"experiment.{name}_ms"] = phases.get(name, 0.0)
    wall_ms = 1e3 * workload.profile_wall_s
    busy = sum(phases.get(n, 0.0) for n in ("replay", "probe", "journal"))
    serial = sum(phases.get(n, 0.0) for n in ("metrics", "export"))
    metrics["experiment.pool_busy_share"] = busy / (wall_ms * THREADS)
    metrics["experiment.serial_share"] = serial / wall_ms

    # Tracing overhead: the serial pass's time per load of this workload's
    # own work against the untraced command's CPU time per load.
    stage_ms = {
        "sweep": metrics["stage.sweep_record_ms"] + metrics["stage.sweep_untraced_ms"]
        + metrics["stage.probe_ms"],
        "sweep-observed": metrics["stage.sweep_record_ms"]
        + metrics["stage.sweep_traced_ms"] + metrics["stage.probe_ms"]
        + metrics["stage.obs_write_ms"],
        "crowd": metrics["stage.crowd_record_ms"] + metrics["stage.fleet_ms"],
        "readback": metrics["stage.read_ms"],
    }[workload.name]
    untraced_ms_per_load = 1e3 * untraced.cpu_s / untraced.loads
    metrics["pass.overhead_share"] = \
        (stage_ms / untraced.loads - untraced_ms_per_load) / untraced_ms_per_load
    result["metrics"] = {k: metrics[k] for k in PER_LAYER}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one iteration (smoke_test.py); "
                             "pinned digests do not apply")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's output digests as the pins of "
                             "the workload (default seed, full size only)")
    args = parser.parse_args()
    if args.smoke:
        shrink_for_smoke()
    if args.write_pins and (args.smoke or args.trace or args.seed != DEFAULT_SEED):
        parser.error("--write-pins needs the default seed, --trace 0 and full size")

    try:
        build_info = build()
    except (BenchError, OSError, subprocess.CalledProcessError, ValueError) as e:
        log(f"error: {e}")
        return 1

    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    pins = {} if args.smoke else load_pins()
    if args.write_pins:
        pins.pop(args.workload, None)
    try:
        workload = Workload(args.workload, args.seed, run_dir)
        if args.trace:
            result = run_traced(workload, pins)
        else:
            result = run_untraced(workload, args.seconds, pins)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in result["problems"]:
        log(f"check failed: {problem}")
    if args.write_pins and not result["problems"] and not result["failed"]:
        pins[args.workload] = result["digests"]
        PINS_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        log(f"pinned {len(result['digests'])} digests for {args.workload}")
    failed = result["failed"]
    attempted = max(result["attempted"], 1)
    metrics = result["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics["ops_ok_share"] = 1.0 - failed / attempted
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": source_fingerprint(),
        "nproc": os.cpu_count(), "threads": THREADS,
        "iterations": result.get("iterations"),
        "loads_per_s_quartiles": result.get("loads_per_s_quartiles"),
        **build_info,
    }
    print("# perfbench " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
