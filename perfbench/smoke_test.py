#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, untraced and traced,
on tiny inputs. Checks that each run exits 0 and prints a correct result
whose metrics are exactly the ones BENCHMARK.json lists, with their units.

  python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark's metric lists)


def declared(kind):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    failures = []
    if declared("end_to_end") != run.END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared("per_layer") != run.PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--smoke",
                    "--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  cwd=BENCH_DIR.parent, timeout=600)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = run.PER_LAYER if trace else run.END_TO_END
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: unexpected keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: not correct: {proc.stderr.strip()[-400:]}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected:
                failures.append(f"{where}: metric names or units differ")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                failures.append(f"{where}: non-numeric values {bad}")
            print(f"ok   {where}" if not failures else f"...  {where}", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
