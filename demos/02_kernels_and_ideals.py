"""Kernels of the pairing, the nil ideal, and multiplicative functionals.

The dual numbers C[eps]/(eps^2) with the projection F(a + b eps) = a give the
smallest nontrivial picture: the pairing has rank 1, eps spans all three
kernels, nil is an ideal, and F is multiplicative.  One SVD of the pairing
gives both kernels at one rank; since left = right = nil, two of the kernel
relations (left * algebra <= left, algebra * right <= right) say that nil
is an ideal, and the multiplicative classification reads the rank from the
kernels.  A direct sum with a
matrix block shows how a functional that vanishes on the nilpotent summand
pushes those directions into nil.
"""

import numpy as np

import algscope as ag

dual = ag.dual_numbers()
f = ag.Functional(np.array([1.0, 0.0]))

print("dual numbers, F(a + b eps) = a")
g = ag.gram(dual, f)
print("pairing matrix:")
print(np.real_if_close(g))

ker = ag.kernels(dual, f)
print(f"dim left kernel = {ker.left.dim}, right = {ker.right.dim}, nil = {ker.nil.dim}")
print("eps direction inside nil:", np.round(ker.nil.frame[:, 0], 6))

relations = ag.verify_kernel_relations(dual, ker)
print(f"kernel relations, nil an ideal among them: {relations.passed} "
      f"(residual {relations.max_residual:.1e})")

rep = ag.is_multiplicative(dual, f, ker)
print(f"multiplicative classification: {rep.verdict} "
      f"(rank {rep.rank}, F(1) = {rep.unit_value:.1f}, residual {rep.max_residual:.1e})")
print()

print("scaling breaks only the unit normalization:")
f2 = ag.Functional(np.array([2.0, 0.0]))
rep2 = ag.is_multiplicative(dual, f2, ag.kernels(dual, f2))
print(f"  F' = 2 F: {rep2.verdict}")
print()

print("Mat_2 + dual numbers, functional vanishing on the nilpotent summand")
combo = ag.direct_sum(ag.mat_algebra(2), ag.dual_numbers())
coords = np.zeros(6, dtype=complex)
coords[:4] = ag.matrix_trace_functional(np.diag([1.0, 3.0])).coords
pulled_back = ag.Functional(coords)
ker = ag.kernels(combo, pulled_back)
print(f"  dim nil = {ker.nil.dim}")
eps_direction = np.zeros((6, 1), dtype=complex)
eps_direction[5, 0] = 1.0
print(f"  eps direction sits inside nil: residual {ker.nil.residual(eps_direction)[0]:.1e}")
dec = ag.decompose(combo, pulled_back)
print(f"  quotient dim = {dec.quotient_dim}, spectrum size = {len(dec.points)}")
