"""Benchmark entry point: one workload, one seed, fresh child interpreters.

    python3 bench/run.py --workload sieve-P --seed 1 --seconds 10 --trace 0

Run it from the root of a qhk checkout; the package is imported from src/.
Each job runs in a new interpreter (bench/child.py), one child at a time,
because qhk's lru_cache memo tables live as long as their process and
because wall clock has to include interpreter teardown.  The seed picks
each child's PYTHONHASHSEED; the jobs themselves are fixed per workload.

Children run one after another until the next one would end past
--seconds (at least one).  Each metric is the median over the children,
since run-to-run noise on a shared 2-core machine is about 10% per child.
With --trace 1 the run alternates untraced and traced children instead,
in pairs.  It reports the traced children's per-layer figures (each the
lower median, so that counts stay whole), the median import and teardown
times of the untraced children, and the tracer's overhead as the median
difference in wall time within a pair.

A summary goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from layers import now
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # a run must end within 180 s; a child still going at this point is killed


def spawn(workload: str, size: str, trace: bool, hash_seed: int, deadline: float) -> dict:
    """Run one child, killing it at `deadline`; return its report plus the
    parent-side measurements.  A child that crashes, is killed or prints no
    report counts as one failed job."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, str(HERE / "child.py"), workload, size, "1" if trace else "0"]
    t_spawn = now()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - t_spawn, 0.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4 rather than wait: it returns this child's own ru_maxrss
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    t_reaped = now()
    lines = out.decode(errors="replace").splitlines()
    report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if report is None:
        return {"ok": False, "attempted": 1, "failed": 1,
                "problems": [f"child {workload} exited with {proc.returncode} and no report"]}
    return {
        "ok": True,
        "wall_s": t_reaped - t_spawn,
        "setup_s": report["t_first_job"] - t_spawn,
        "verdict_s": report["t_last_answer"] - report["t_first_job"],
        "teardown_s": t_reaped - report["t_done"],
        "import_s": report["import_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "problems": report["problems"],
        "layers": report.get("layers"),
        "missing": report.get("missing", []),
    }


def measure(workload: str, size: str, seed: int, seconds: float, trace: bool) -> list[list[dict]]:
    """Rounds of children until the next round would end past `seconds`
    (at least one).  A round is one untraced child, or with `trace` one
    untraced and then one traced child; the children of a round share
    their hash seed."""
    rng = random.Random(seed)
    t_begin = now()
    deadline = t_begin + RUN_LIMIT_S
    rounds = []
    while True:
        t_round = now()
        hash_seed = rng.randrange(1, 2**32)
        rounds.append([spawn(workload, size, traced, hash_seed, deadline)
                       for traced in ((False, True) if trace else (False,))])
        if not all(c["ok"] for c in rounds[-1]) or 2 * now() - t_round - t_begin > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at small degrees, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "qhk" / "__init__.py").is_file():
        print(f"error: no qhk sources under {SRC}; run from the root of a qhk checkout", file=sys.stderr)
        return 2

    rounds = measure(args.workload, args.size, args.seed, args.seconds, bool(args.trace))
    children = [c for r in rounds for c in r]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for line in c["problems"]:
            print(f"problem: {line}", file=sys.stderr)
    ok = [c for c in children if c["ok"]]

    def median(key, among):
        return statistics.median(c[key] for c in among)

    metrics: dict[str, tuple[float, str]] = {}
    pairs = [r for r in rounds if all(c["ok"] for c in r)]
    if args.trace and pairs:
        plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        metrics = {
            name: (statistics.median_low(t["layers"][name][0] for t in traced), unit)
            for name, (_, unit) in traced[0]["layers"].items()
        }
        metrics["interp.import_s"] = (median("import_s", plain), "s")
        metrics["interp.teardown_s"] = (median("teardown_s", plain), "s")
        metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs), "s")
        for name in traced[0]["missing"]:
            print(f"missing boundary: {name} (its metrics are not reported)", file=sys.stderr)
    elif not args.trace and ok:
        metrics = {
            "wall_s": (median("wall_s", ok), "s"),
            "verdict_s": (median("verdict_s", ok), "s"),
            "setup_s": (median("setup_s", ok), "s"),
            "peak_rss_mb": (median("peak_rss_mb", ok), "MB"),
        }
    print(f"{args.workload} ({args.size}, seed {args.seed}): {len(children)} children, "
          f"{attempted} jobs attempted, {failed} failed, fail_frac {failed / attempted:.4f}", file=sys.stderr)
    print("  child wall_s: " + " ".join(f"{c['wall_s']:.3f}" for c in ok), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}", file=sys.stderr)
    result = {
        "correct": failed == 0 and len(ok) == len(children),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
