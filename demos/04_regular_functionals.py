"""Kernel-dimension minimizers and the identities they unlock.

Sampling small perturbations of a functional finds the generic (minimal)
kernel dimension of any pencil combination.  At such a minimizer the
stabilizer at 1 is a commutative subalgebra (for Mat_n: the commutant of a
generic matrix, i.e. a maximal torus), products of Stab(0) with Stab(inf)
vanish, and the identities demonstrably FAIL at a non-minimizing functional,
which the negative control exhibits.  The suites read the minimizer's
reduced pencil, computed once and shared.
"""

import numpy as np

import algscope as ag

alg = ag.mat_algebra(3)
full_dual = [ag.Functional(row) for row in np.eye(alg.dim, dtype=complex)]
rng = np.random.default_rng(1)

f_start = ag.random_functional(alg.dim, rng)
f_min, dim = ag.minimize_stab_dim(alg, 1.0, -1.0, full_dual, f_start, samples=32, seed=2)
print(f"Mat_3: minimal dim Stab(1) over sampled neighbourhood = {dim} (the diagonal torus)")

rp = ag.reduce_pencil(alg, f_min)
cor2 = ag.verify_corollaries(alg, rp, ag.ProjectivePoint.finite(1.0))
print(f"commutators inside Stab(1): worst norm {cor2.max_residual:.2e} -> "
      f"{'commutative' if cor2.passed else 'NOT commutative'}")

pert = ag.verify_regular_perturbation(alg, rp, 1.0, -1.0, full_dual)
print(f"perturbation identity G(xy - yx) = 0 for all G: worst {pert.max_residual:.2e}")
print()

tri = ag.upper_triangular(2)
tri_dual = [ag.Functional(row) for row in np.eye(3, dtype=complex)]
f0 = ag.Functional(np.array([1.0, 1.0, 2.0]))
f_min0, dim0 = ag.minimize_stab_dim(tri, 1.0, 0.0, tri_dual, f0, seed=3)
rp0 = ag.reduce_pencil(tri, f_min0)
cor3 = ag.verify_corollaries(tri, rp0, ag.ProjectivePoint.finite(0.0))
print(f"upper triangular 2x2: minimal dim Stab(0) = {dim0}")
print(f"Stab(0) . Stab(inf) products: worst norm {cor3.max_residual:.2e}")
print()

print("negative control: F = trace against the identity on Mat_2")
control = ag.negative_control_finding(ag.mat_algebra(2))
print(f"  Stab(1) is then all of Mat_2; commutator check residual {control.max_residual:.2f}")
print(f"  check failed as intended: {not control.passed}")
