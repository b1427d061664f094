"""Run the benchmark over several seeds and summarise it per workload.

    python3 bench/sweep.py [--out FILE]

Runs the command from BENCHMARK.json for every workload it lists, once
per seed 1..10, with its run_seconds, and prints every end-to-end metric
by name and unit with its median, quartiles (statistics.quantiles, n=4),
spread (q3 - q1) / median and the bound BENCHMARK.json fixes for it,
plus fail_frac (failed jobs over attempted).  A spread above a third of
its bound is marked WIDE (setup_s is exempt).  Each workload then gets
one --trace 1 run, with seed 1.  --out writes everything as JSON.  Exits
1 if any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    all_correct = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, name, seed, 0) for seed in SEEDS]
        all_correct &= all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"runs": runs, "fail_frac": failed / attempted, "summary": {}}
        print(f"{name}: {len(runs)} runs, {attempted} jobs attempted, fail_frac {failed / attempted:.4f}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = summarise(values, metric["bound"])
            entry["summary"][metric["name"]] = {"unit": metric["unit"], **s}
            wide = metric["name"] != "setup_s" and s["spread"] > metric["bound"] / 3
            print(f"  {metric['name']:12s} {s['median']:12.4f} {metric['unit']:3s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                  f"bound {metric['bound']}{'  WIDE' if wide else ''}")
        traced = run_once(spec, name, SEEDS[0], 1)
        all_correct &= traced["correct"]
        entry["traced"] = traced
        m = traced["metrics"]
        print(f"  traced (seed {SEEDS[0]}): overhead {m['trace.overhead_s']['value']:.3f} s, "
              f"coverage {m['trace.coverage']['value']:.4f}")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
