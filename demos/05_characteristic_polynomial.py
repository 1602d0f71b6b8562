"""The homogeneous characteristic polynomial and its symmetries.

det(lam a~ + mu a~^T) is homogeneous of degree K = dim - dim nil; its
projective zeros are the spectrum.  Transposition symmetry of determinants
makes the coefficient vector palindromic, which forces the spectrum to be
closed under alpha -> 1/alpha with matching multiplicities.  For Mat_n with
F = tr(diag(nu) .) the polynomial factors into the n^2 linear terms
(lam nu_i + mu nu_j).

chi is reported by its coefficients.  The spectrum, each multiplicity and
the count at infinity come from decompose's one eigendecomposition, not
from the roots of chi.
"""

import numpy as np

import algscope as ag


def spectrum(dec):
    """(alpha, algebraic multiplicity) of each point, "inf" for infinity."""
    return [
        ("inf" if p.alpha.is_infinite else complex(np.round(p.alpha.value, 9)), p.algebraic_mult)
        for p in dec.points
    ]


alg = ag.mat_algebra(2)
nu = [1.0, 2.0]
dec = ag.decompose(alg, ag.matrix_trace_functional(np.diag(nu)))
chi = dec.chi

print("Mat_2, F = tr(diag(1, 2) .)")
print("chi coefficients (lam^4 .. mu^4):", np.round(chi.coeffs.real, 6) + 0.0)

product = np.array([1.0 + 0.0j])
for i in range(2):
    for j in range(2):
        product = np.convolve(product, np.array([nu[i], nu[j]], dtype=complex))
product = -product  # sign (-1)^{n(n-1)/2} for n = 2
print("product of (lam nu_i + mu nu_j):   ", np.round(product.real, 6))
print("palindromic (transpose symmetry):", np.allclose(chi.coeffs, chi.coeffs[::-1]))
print("spectrum nu_i / nu_j with multiplicity:", spectrum(dec))
print()

alg3 = ag.upper_triangular(2)
f3 = ag.Functional(np.array([1.0, 1.0, 2.0]))
dec3 = ag.decompose(alg3, f3)
print("upper triangular 2x2, F = (1, 1, 2): chi =", np.round(dec3.chi.coeffs.real, 6) + 0.0)
at_infinity = sum(p.algebraic_mult for p in dec3.points if p.alpha.is_infinite)
print("multiplicity at infinity:", at_infinity)
print("spectrum:", spectrum(dec3))
print()

print("the spectrum is identical under any regular shift:")
for seed in (4, 5):
    dec = ag.decompose(alg3, f3, seed=seed)
    print(f"  seed {seed}: shift {complex(np.round(dec.alpha0_used, 4))} -> {spectrum(dec)}")
