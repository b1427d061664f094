"""One fresh interpreter running one workload; started by run.py.

    python3 bench/child.py WORKLOAD SIZE TRACE

WORKLOAD is a name from workloads.py and SIZE is "full" or "tiny".
TRACE 1 installs the per-layer spans of layers.py.  qhk must be
importable (run.py puts src/ on PYTHONPATH).  The child calls only qhk's
public entry points, checks every answer against pinned.json, prints one
JSON line and then exits normally, so that the parent's clock includes
interpreter teardown.  Time stamps are CLOCK_MONOTONIC, which parent and
child share.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from layers import Tracer, now
from workloads import CAP, MAX_VECTORS, WORKLOADS


def sieve_jobs(qhk, max_degree):
    """One job per degree: the three JSON listings the CLI prints, checked
    by dimension and by the SHA-256 of their bytes."""
    space = qhk.RealProj()

    def listings(degree):
        texts = []
        for command in ("annihilated", "primitives", "sieve"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = qhk.cli.main(
                    [command, "--space", "P", "--degree", str(degree),
                     "--max-length", str(CAP), "--format", "json"]
                )
            if code != 0:
                raise RuntimeError(f"qhk {command} exited with {code}")
            texts.append(buf.getvalue())
        dims = [json.loads(t)["dimension"] for t in texts]
        return {
            "basis": len(qhk.monomial_basis(space, degree, CAP)),
            "annihilated": dims[0],
            "primitives": dims[1],
            "sieve": dims[2],
            "sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
        }

    for degree in range(1, max_degree + 1):
        yield f"P/cap{CAP}/degree{degree}", lambda degree=degree: listings(degree)


def _counts(report) -> dict:
    return {"checked": report.checked, "excluded": len(report.excluded), "failures": len(report.failures)}


def thm2_jobs(qhk, max_degree):
    key = f"P/cap{CAP}/degree{max_degree}/vectors{MAX_VECTORS}"
    yield key, lambda: _counts(
        qhk.sieve.verify_suspension_factorization(qhk.RealProj(), max_degree, CAP, MAX_VECTORS)
    )


def hopf_jobs(qhk, **bounds):
    key = f"P/cap{CAP}/" + "/".join(f"{k}{v}" for k, v in bounds.items())
    yield key, lambda: _counts(qhk.sieve.verify_root_compatibility(qhk.RealProj(), CAP, **bounds))


JOBS = {"sieve-P": sieve_jobs, "thm2-P": thm2_jobs, "hopf-P": hopf_jobs}


def main(argv: list[str]) -> int:
    workload, size, trace = argv[0], argv[1], argv[2] == "1"
    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text())
    t_import = now()
    import qhk
    import qhk.cli
    import qhk.sieve

    t_imported = now()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    result = {"import_s": t_imported - t_import}
    jobs = list(JOBS[workload](qhk, **WORKLOADS[workload][size]))
    want = pinned[workload]
    answers, problems = {}, []
    t_first = now()
    for key, job in jobs:
        try:
            answers[key] = job()
        except Exception as err:  # a job that raises is a failed job, not a dead run
            problems.append(f"{key}: {type(err).__name__}: {err}")
            continue
        if answers[key] != want.get(key):
            problems.append(f"{key}: got {answers[key]}, pinned {want.get(key)}")
    t_last = now()
    result.update(
        t_first_job=t_first,
        t_last_answer=t_last,
        attempted=len(jobs),
        failed=len(problems),
        problems=problems,
        answers=answers,
    )
    if tracer:
        tracer.uninstall()
        layers, missing = tracer.metrics(t_last - t_first, t_last - tracer.t_top)
        result.update(layers=layers, missing=missing)
    result["t_done"] = now()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
