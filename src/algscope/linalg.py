"""Tolerance-aware dense linear algebra over complex doubles.

Matrices are plain ``numpy.ndarray`` objects (complex128, 2-d).  This module
supplies the rank/nullspace primitives, the subspace lattice (sum,
intersection, equality), eigen-analysis of a matrix pencil through a regular
shift, and extraction of the homogeneous determinant polynomial
``det(lam*a + mu*b)``.

Rank decisions use a relative singular-value threshold ``tol * sigma_max``.
Operators of the form ``a - alpha*b`` can cancel to a matrix that is zero up
to roundoff; for those the caller passes ``scale`` (the pre-cancellation
magnitude) so the cutoff never collapses to the noise floor of an
all-noise matrix.

:func:`stack_ranks` makes the rank decision of :func:`rank` for a list of
equal-shape matrices with one LAPACK call: numpy runs the routine of a
single call on each matrix of the stack, so every rank is that of the
single call.  The nullspaces and pencil eigen-analyses are written the same
way, over a stack (``_nullspaces``, ``_shifted_eigens``); :func:`nullspace`
and :func:`pencil_eigen` call them with a stack of one, so a batch of
pencils gets, bit for bit, the answers of one call per pencil.
:func:`det_poly` interpolates one pencil's determinant from one ``det`` per
node; :mod:`algscope.spectral` takes its batches' characteristic
polynomials from the eigenvalues ``_shifted_eigens`` returns instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite, ShapeError, SingularShift

__all__ = [
    "ProjectivePoint",
    "INFINITY",
    "Subspace",
    "HomogeneousPoly",
    "as_matrix",
    "rank",
    "nullspace",
    "orthonormal_columns",
    "stack_ranks",
    "subspace_sum",
    "subspace_intersect",
    "subspace_equal",
    "complement",
    "projector_distance",
    "pencil_eigen",
    "det_poly",
    "projective_close",
]


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-d array; raise on NaN/Inf."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m.real) & np.isfinite(m.imag)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def _svd_cutoff(s: np.ndarray, tol: float, scale: float | None) -> float:
    """Threshold below which singular values count as zero.

    Relative to the largest singular value (or 1 for an exactly zero matrix),
    and never below ``tol * scale`` when a problem scale is supplied.
    """
    smax = float(s[0]) if s.size else 0.0
    base = smax if smax > 0.0 else 1.0
    if scale is not None:
        base = max(base, float(scale))
    return tol * base


def rank(m, tol: float, *, scale: float | None = None) -> int:
    """Numerical rank with the cutoff convention of :func:`nullspace`."""
    m = as_matrix(m)
    if 0 in m.shape:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s >= _svd_cutoff(s, tol, scale)))


# --------------------------------------------------------------------------
# projective points


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of the projective line: a finite complex number or infinity.

    Infinity is a distinct tag (``value is None``), never a large float.
    """

    value: complex | None

    @classmethod
    def finite(cls, z) -> "ProjectivePoint":
        z = complex(z)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise NonFinite("finite projective point built from non-finite value")
        return cls(z)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def inverse(self) -> "ProjectivePoint":
        """The involution alpha -> 1/alpha with 0 and infinity swapped."""
        if self.is_infinite:
            return ProjectivePoint.finite(0.0)
        if self.value == 0:
            return INFINITY
        return ProjectivePoint.finite(1.0 / self.value)

    def __repr__(self) -> str:
        return "inf" if self.is_infinite else repr(self.value)


INFINITY = ProjectivePoint(None)


def projective_close(p: ProjectivePoint, q: ProjectivePoint, tol: float) -> bool:
    """Closeness test used to match spectrum points; relative for large values."""
    if p.is_infinite or q.is_infinite:
        return p.is_infinite and q.is_infinite
    a, b = p.value, q.value
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n carried by an orthonormal column frame.

    ``frame`` has shape ``(ambient_dim, dim)`` and satisfies
    ``frame^H frame = I`` within ``10 * tol``.
    """

    ambient_dim: int
    frame: np.ndarray
    tol: float

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[0] != self.ambient_dim:
            raise ShapeError(
                f"frame shape {frame.shape} does not match ambient dim {self.ambient_dim}"
            )
        if frame.shape[1] > self.ambient_dim:
            raise ShapeError("frame has more columns than the ambient dimension")
        g = frame.conj().T @ frame
        if g.size and np.max(np.abs(g - np.eye(frame.shape[1]))) > 10.0 * self.tol:
            raise ShapeError("frame columns are not orthonormal at the stated tolerance")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def residual(self, vectors: np.ndarray) -> np.ndarray:
        """Relative out-of-subspace norm per column of ``vectors``.

        Accepts a single vector or a column matrix of vectors.
        """
        v = np.asarray(vectors, dtype=complex)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"vectors of length {v.shape[0]} against ambient dimension {self.ambient_dim}"
            )
        out = v - self.frame @ (self.frame.conj().T @ v)
        return np.linalg.norm(out, axis=0) / np.maximum(1.0, np.linalg.norm(v, axis=0))

    @classmethod
    def zero(cls, ambient_dim: int, tol: float = 1e-9) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex), tol)

    @classmethod
    def full(cls, ambient_dim: int, tol: float = 1e-9) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=complex), tol)


def nullspace(m, tol: float, *, scale: float | None = None) -> Subspace:
    """Right nullspace of ``m``: the span of right-singular directions whose
    singular values fall below ``tol * sigma_max`` (``sigma_max`` replaced by 1
    for an exactly zero matrix, and by ``scale`` when that is larger).

    Satisfies ``rank(m) + dim(nullspace(m)) = cols(m)``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_matrix(m)
    n = m.shape[1]
    if n == 0:
        return Subspace(0, np.zeros((0, 0), dtype=complex), tol)
    if m.shape[0] == 0:
        return Subspace.full(n, tol)
    return _nullspaces(m[None], tol, [scale])[0][1]


def _nullspaces(stack: np.ndarray, tol: float, scales) -> list[tuple[Subspace, Subspace]]:
    """The left null space {x : x^T m = 0} and the right one, that of
    :func:`nullspace`, of each matrix m of the finite, nonempty stack
    ``stack`` at its own ``scales[i]``, from one full SVD of the stack
    m = U S V^H: at the rank r its singular values give, the trailing
    columns of conj(U) span the left and the trailing rows of V^H,
    conjugated, the right."""
    u, s, vh = np.linalg.svd(stack)
    m, n = stack.shape[-2:]
    spaces = []
    for row, left, v, scale in zip(s, u, vh, scales):
        r = int(np.sum(row >= _svd_cutoff(row, tol, scale)))
        spaces.append((Subspace(m, left[:, r:].conj(), tol), Subspace(n, v[r:].conj().T, tol)))
    return spaces


def orthonormal_columns(cols, tol: float, *, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span of ``cols`` (SVD based)."""
    cols = as_matrix(cols)
    if cols.shape[1] == 0:
        return cols
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.sum(s >= _svd_cutoff(s, tol, scale)))
    return u[:, :r]


# --------------------------------------------------------------------------
# stacks of matrices


def stack_ranks(mats, tol: float, scales) -> np.ndarray:
    """:func:`rank` of each of the equal-shape matrices ``mats`` at its own
    ``scales[i]``, from one values-only SVD of their stack; raises on NaN/Inf
    as :func:`as_matrix` does."""
    stack = np.stack(mats).astype(complex, copy=False)
    if stack.ndim != 3:
        raise ShapeError(f"expected a stack of 2-d arrays, got shape {stack.shape}")
    if stack.size and not np.all(np.isfinite(stack)):
        raise NonFinite("matrix contains NaN or Inf entries")
    s = np.linalg.svd(stack, compute_uv=False)
    cutoffs = [_svd_cutoff(row, tol, scale) for row, scale in zip(s, scales)]
    return np.sum(s >= np.array(cutoffs).reshape(-1, 1), axis=1)


def _check_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"subspaces live in different ambient dimensions: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Orthonormal frame spanning the union of the two column spans."""
    _check_ambient(a, b)
    tol = max(a.tol, b.tol)
    stacked = np.hstack([a.frame, b.frame])
    return Subspace(a.ambient_dim, orthonormal_columns(stacked, tol), tol)


def subspace_intersect(a: Subspace, b: Subspace, tol: float) -> Subspace:
    """Intersection, via the nullspace of stacked projector complements; the
    zero subspace, with no SVD, when either input is zero."""
    _check_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim, tol)
    eye = np.eye(a.ambient_dim)
    stacked = np.vstack([eye - a.projector(), eye - b.projector()])
    # projectors have unit scale, so an all-roundoff stack means full overlap
    return nullspace(stacked, tol, scale=1.0)


def subspace_equal(a: Subspace, b: Subspace, tol: float) -> bool:
    """Equal dimension and operator-norm projector distance below ``tol``."""
    _check_ambient(a, b)
    if a.dim != b.dim:
        return False
    return projector_distance(a, b) < tol


def projector_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance of the two orthogonal projectors, the largest
    singular value of their difference from one values-only SVD; 0.0, with
    no SVD, when both subspaces are zero."""
    _check_ambient(a, b)
    if a.dim == b.dim == 0:
        return 0.0
    return float(np.linalg.svd(a.projector() - b.projector(), compute_uv=False)[0])


def complement(a: Subspace) -> Subspace:
    """Orthogonal complement of ``a`` inside its ambient space."""
    if a.dim == 0:
        return Subspace.full(a.ambient_dim, a.tol)
    return nullspace(a.frame.conj().T, a.tol, scale=1.0)


# --------------------------------------------------------------------------
# pencil eigen-analysis


def _cluster_values(values: np.ndarray, cluster_tol: float) -> list[list[int]]:
    """Single-linkage clustering of complex values; relative for large
    moduli.  Returns the indices of each cluster's members, the clusters in
    the order of their first members."""
    n = len(values)
    modulus = np.maximum(1.0, np.abs(values))
    close = np.abs(values[:, None] - values) <= cluster_tol * np.maximum(modulus[:, None], modulus)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        parent[find(int(i))] = find(int(j))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _point_sort_key(item: tuple[ProjectivePoint, int, np.ndarray | None]):
    p = item[0]
    if p.is_infinite:
        return (1, 0.0, 0.0)
    return (0, abs(p.value), float(np.angle(p.value)))


def pencil_eigen(
    a, b, alpha0: complex, *, cluster_tol: float = 1e-6
) -> list[tuple[ProjectivePoint, int, np.ndarray | None]]:
    """Eigenvalues of the pencil ``a - alpha*b`` through the regular shift
    ``alpha0``, with the eigenvector of each simple one.

    One ``np.linalg.eig`` gives the eigenvalues ``L`` and unit eigenvectors
    of ``M = (a - alpha0*b)^{-1} b``.  An eigenvalue within the infinity
    cutoff (``b x = 0`` for its vector x) maps to alpha = infinity, and every
    other one to ``alpha = alpha0 + 1/L`` (``(a - alpha*b) x = 0``).  Mapped
    values closer than ``cluster_tol`` (relative for large moduli) are
    merged into a single point with summed multiplicity; multiplicities add
    up to the pencil size.  The two poles of the projective line are treated
    symmetrically at the same resolution: values of modulus at most
    ``cluster_tol`` snap to exactly 0, mirroring the cutoff that sends
    values of modulus beyond ``1/cluster_tol`` to infinity, so the
    involution alpha -> 1/alpha maps returned points to returned points.

    Each item is (point, multiplicity, vector).  At a point of multiplicity
    1, ``vector`` is the eigenvector of its one eigenvalue as a read-only
    unit column x, with ``(a - alpha*b) x = 0`` (``b x = 0`` at infinity);
    at a multiple point it is None.  Raises :class:`SingularShift` when
    ``a - alpha0*b`` is numerically singular, which signals a bad shift
    rather than bad data.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"pencil needs equal square matrices, got {a.shape} and {b.shape}")
    if a.shape[0] == 0:
        return []
    shifted = a - alpha0 * b
    s = np.linalg.svd(shifted, compute_uv=False)
    problem_scale = max(
        float(np.linalg.norm(a, "fro")), abs(alpha0) * float(np.linalg.norm(b, "fro")), 1e-300
    )
    if s[-1] < 1e-12 * max(s[0], problem_scale):
        raise SingularShift(f"shift alpha0={alpha0} leaves the pencil singular")
    return _shifted_eigens(shifted[None], b[None], [alpha0], cluster_tol)[1][0]


def _shifted_eigens(
    shifted: np.ndarray, b: np.ndarray, alpha0s, cluster_tol: float
) -> tuple[np.ndarray, list[list[tuple[ProjectivePoint, int, np.ndarray | None]]]]:
    """The eigenvalues of ``shifted[i]^{-1} b[i]``, one row per pencil, and
    the points of :func:`pencil_eigen` for each pencil of a stack, given
    ``shifted[i] = a[i] - alpha0s[i] * b[i]`` at a shift already known to be
    regular: one ``solve`` and one ``eig`` over the whole stack, then the
    clustering of each pencil's eigenvalues."""
    lams, vectors = np.linalg.eig(np.linalg.solve(shifted, b))
    vectors.setflags(write=False)
    return lams, [
        _eigen_points(lam, vec, alpha0, cluster_tol)
        for lam, vec, alpha0 in zip(lams, vectors, alpha0s)
    ]


def _eigen_points(
    lams: np.ndarray, vectors: np.ndarray, alpha0: complex, cluster_tol: float
) -> list[tuple[ProjectivePoint, int, np.ndarray | None]]:
    """Map the eigenvalues ``lams`` of ``(a - alpha0*b)^{-1} b`` to points
    alpha, cluster them and pair each simple one with its column of
    ``vectors`` (see :func:`pencil_eigen`)."""
    at_inf = np.abs(lams) <= cluster_tol / (1.0 + cluster_tol * abs(alpha0))
    alphas = alpha0 + 1.0 / np.where(at_inf, 1.0, lams)

    def vector(members: list[int]) -> np.ndarray | None:
        # a slice, so the column stays a read-only view
        return vectors[:, members[0] : members[0] + 1] if len(members) == 1 else None

    finite = np.flatnonzero(~at_inf)
    points = []
    for members in _cluster_values(alphas[finite], cluster_tol):
        # np.mean's sum and division, without its per-call overhead
        z = complex(alphas[finite[members]].sum() / len(members))
        point = ProjectivePoint.finite(0.0 if abs(z) <= cluster_tol else z)
        points.append((point, len(members), vector(finite[members].tolist())))
    if at_inf.any():
        inf_members = np.flatnonzero(at_inf).tolist()
        points.append((INFINITY, len(inf_members), vector(inf_members)))
    points.sort(key=_point_sort_key)
    return points


# --------------------------------------------------------------------------
# homogeneous determinant polynomial


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous polynomial ``sum_d coeffs[d] * lam^(degree-d) * mu^d``."""

    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.degree + 1,):
            raise ShapeError(
                f"need {self.degree + 1} coefficients for degree {self.degree}, got {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, lam: complex, mu: complex) -> complex:
        d = np.arange(self.degree + 1)
        return complex(np.sum(self.coeffs * lam ** (self.degree - d) * mu**d))

    def coefficient_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def infinity_multiplicity(self, rel_tol: float = 1e-6) -> int:
        """Order of vanishing at (lam, mu) = (0, 1), read as the number of
        trailing coefficients below ``rel_tol`` times the coefficient norm.

        A coefficient threshold, not a decision: the middle coefficients of
        a degree-K determinant can exceed its end ones by about 2^K, and
        interpolation leaves an absolute error of about eps times the norm,
        so at large K it counts roundoff as vanishing and overstates the
        order (on most random Mat_8 functionals, K = 64, where the truth is
        0).  No invariant check reads it."""
        norm = self.coefficient_norm()
        if norm == 0.0:
            return self.degree
        count = 0
        for c in self.coeffs[::-1]:
            if abs(c) <= rel_tol * norm:
                count += 1
            else:
                break
        return count

    def finite_root_multiset(self, rel_tol: float = 1e-6) -> np.ndarray:
        """Roots alpha of ``poly(1, -alpha)``, with multiplicity, unsorted.

        Leading coefficients below ``rel_tol`` times the coefficient norm are
        trimmed first; those degrees correspond to roots at infinity, which
        would otherwise surface as huge spurious values.
        """
        d = np.arange(self.degree + 1)
        p = self.coeffs * (-1.0) ** d  # coefficients of alpha^d
        keep = self.degree + 1 - self.infinity_multiplicity(rel_tol)
        p = p[:keep]
        if p.size <= 1:
            return np.zeros(0, dtype=complex)
        return np.roots(p[::-1])


def det_poly(a, b) -> HomogeneousPoly:
    """Coefficients of ``det(lam*a + mu*b)`` as a homogeneous polynomial.

    Recovered by evaluating the determinant at ``K+1`` sample ratios and
    solving the interpolation system; sampling at the ``K+1``-st roots of
    unity makes the system an exact inverse DFT with unit-modulus nodes, so
    the recovery is perfectly conditioned at any degree.  The ``K+1``
    determinants come from one ``np.linalg.det`` call per node.  For
    ``K = 0`` the empty-determinant convention gives the constant
    polynomial 1.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"det_poly needs equal square matrices, got {a.shape} and {b.shape}")
    k = a.shape[0]
    if k == 0:
        return HomogeneousPoly(0, np.array([1.0 + 0.0j]))
    nodes = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
    values = np.array([np.linalg.det(a + t * b) for t in nodes])
    return HomogeneousPoly(k, np.fft.fft(values) / (k + 1))
