"""Names of the theorem suites that ``verify.run_suites`` runs.

Kept apart from ``verify`` and free of imports, so ``algscope verify
--help`` can list the suites without loading the pipeline.
"""

SUITE_NAMES = (
    "kernel-relations",
    "alpha0",
    "v-mult",
    "dim-symmetry",
    "nil-ideal",
    "multiplicative",
    "corollary2",
    "corollary3",
    "perturbation",
)

DEFAULT_SUITES = ("kernel-relations", "alpha0", "v-mult", "dim-symmetry")
