"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads paper-mix]

Runs perfbench/run.py once per workload x seed, one process at a time,
and prints per workload and end-to-end metric the median and the
interquartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), plus the failed share
and each run's wall time. Raw results go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--label", default="steadiness")
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit("%s seed %d failed:\n%s"
                         % (workload, seed, proc.stderr[-2000:]))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed,
                         "run_wall_s": wall, "info": json.loads(lines[-2]),
                         "result": result})
            print("%-15s seed %-3d %6.1f s  correct=%s failed=%d/%d  %s" % (
                workload, seed, wall, result["correct"], result["failed"],
                result["attempted"], "  ".join(
                    "%s=%.5g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)

    out = ROOT / ".perfbench_work" / ("%s.json" % args.label)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("\n%-15s %-15s %12s %9s %7s" % ("workload", "metric", "median",
                                           "iqr/med", "bound"))
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print("%-15s %-15s %12.5g %9.4f %7.2f"
                  % (workload, name, med, (q3 - q1) / med, bounds[name]))
        shares = {r["result"]["failed"] / r["result"]["attempted"]
                  for r in mine}
        print("%-15s failed share %s, run wall %.1f-%.1f s" % (
            workload, sorted(shares), min(r["run_wall_s"] for r in mine),
            max(r["run_wall_s"] for r in mine)))
    print("total run wall %.0f s" % sum(r["run_wall_s"] for r in runs))


if __name__ == "__main__":
    main()
