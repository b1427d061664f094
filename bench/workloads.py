"""The benchmark's workloads, at full size and at the self-test's tiny size.

Every workload works over P = RP^infinity with words capped at two
operations, which is where the package's acceptance criteria and its
degree frontier live.  The full sizes keep one child to a few seconds, so
that a 40 s run takes the median of several fresh children.  NOTES.md
says why each workload exists and why the sizes sit below the frontier.
"""

CAP = 2
MAX_VECTORS = 64

WORKLOADS = {
    # the three JSON listings of `qhk annihilated|primitives|sieve` for
    # every degree 1..max_degree, all in one interpreter
    "sieve-P": {
        "full": {"max_degree": 13},
        "tiny": {"max_degree": 6},
    },
    # verify_suspension_factorization(P, max_degree, CAP, MAX_VECTORS), cold
    "thm2-P": {
        "full": {"max_degree": 17},
        "tiny": {"max_degree": 8},
    },
    # verify_root_compatibility(P, CAP, **bounds)
    "hopf-P": {
        "full": {"hopf_degree": 11, "square_degree": 10, "word_degree": 16, "primitive_degree": 10},
        "tiny": {"hopf_degree": 5, "square_degree": 5, "word_degree": 6, "primitive_degree": 6},
    },
}
