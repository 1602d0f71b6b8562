"""Run the proved-theorem suites over random functionals on a small corpus.

Every finding here must pass: the seven kernel product relations, the
shift-independence of the filtration, the product inclusions between
filtration levels (over pairs of finite and of nonzero points), and the exact
dimension symmetry of the spectrum under alpha -> 1/alpha.
"""

import numpy as np

import algscope as ag

corpus = [
    ("Mat_2", ag.mat_algebra(2)),
    ("Mat_3", ag.mat_algebra(3)),
    ("upper triangular 3x3", ag.upper_triangular(3)),
    ("dual numbers", ag.dual_numbers()),
    ("group algebra of Z2 x Z2", ag.group_algebra(ag.klein_table())),
    ("Mat_2 + dual numbers", ag.direct_sum(ag.mat_algebra(2), ag.dual_numbers())),
]

rng = np.random.default_rng(0)
per_algebra = 20

print(f"{per_algebra} random functionals per algebra\n")
for name, alg in corpus:
    worst = {}
    for _ in range(per_algebra):
        f = ag.random_functional(alg.dim, rng)
        # one decomposition per functional feeds every suite; v-mult checks
        # both of its variants on one product tensor of it
        dec = ag.decompose(alg, f)
        findings = [ag.verify_kernel_relations(alg, dec.pencil.kernels)]
        findings += ag.verify_v_mult(alg, dec)
        findings += ag.verify_dim_symmetry(dec)
        findings.append(ag.verify_alpha0_suite(dec))
        findings.append(ag.verify_stab_transversality(dec))
        for finding in findings:
            record = worst.setdefault(finding.theorem_id, [0.0, True])
            record[0] = max(record[0], finding.max_residual)
            record[1] = record[1] and finding.passed
    print(name)
    for theorem_id in sorted(worst):
        residual, passed = worst[theorem_id]
        print(f"  [{'pass' if passed else 'FAIL'}] {theorem_id:<20} worst residual {residual:.2e}")
    print()
