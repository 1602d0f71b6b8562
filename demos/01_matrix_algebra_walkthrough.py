"""Walk through the full decomposition of Mat_3(C).

With F(X) = tr(diag(1, 2, 5) X), the pairing F(e_ij e_km) is nondegenerate,
the spectrum consists of the seven eigenvalue ratios nu_i / nu_j, the point
alpha = 1 carries the diagonal matrices, and every other point is the line
through a single matrix unit.  Products of matrix units mirror products of
spectral points: E21 E13 = E23 lands exactly in V(2 * 2.5) = V(5)... and a
product whose ratio is not in the spectrum collapses into nil = {0}.
"""

import numpy as np

import algscope as ag

alg = ag.mat_algebra(3)
f = ag.matrix_trace_functional(np.diag([1.0, 2.0, 5.0]))

dec = ag.decompose(alg, f)

print("algebra: Mat_3(C), dim", alg.dim)
print("functional: X -> tr(diag(1, 2, 5) X)")
print("dim nil =", dec.nil.dim)
print("shift used:", np.round(dec.alpha0_used, 6))
print()
print("spectrum (alpha, algebraic multiplicity, stabilizer dim, filtration):")
for p in dec.points:
    alpha = "inf" if p.alpha.is_infinite else f"{p.alpha.value.real:+.4f}"
    print(f"  alpha = {alpha:>9}   mult = {p.algebraic_mult}   "
          f"stab = {p.stab_dim}   dims = {list(p.filtration_dims)}")
print()

print("V(1) is spanned by the diagonal matrix units:")
v1 = dec.v_spaces[dec.point_at(ag.ProjectivePoint.finite(1.0))]
for col in range(v1.dim):
    weights = np.abs(v1.frame[:, col])
    names = [alg.label(i) for i in np.nonzero(weights > 1e-8)[0]]
    print(f"  basis vector {col}: supported on {names}")
print()

# point_at gives a point's index, and v_spaces[i] is V(alpha) of points[i]
v2, v52, v5 = (dec.v_spaces[dec.point_at(ag.ProjectivePoint.finite(x))] for x in (2.0, 2.5, 5.0))

print("products of spectral lines multiply their points:")
prod = ag.multiply(alg, v2.frame[:, 0], v52.frame[:, 0]).coords
print(f"  V(2) . V(2.5): distance to V(5) = {v5.residual(prod.reshape(-1, 1))[0]:.2e}")

square = ag.multiply(alg, v2.frame[:, 0], v2.frame[:, 0]).coords
print(f"  V(2) . V(2): 4 is not a spectral point, |product| = {np.linalg.norm(square):.2e}")
print()

print("invariant checks:")
for check in dec.checks:
    print(f"  [{'pass' if check.passed else 'FAIL'}] {check.name}")
