"""Tolerance-aware dense linear algebra over complex doubles.

Matrices are plain ``numpy.ndarray`` objects (complex128, 2-d).  This module
supplies the rank/nullspace primitives, the subspace lattice (sum,
intersection, equality), eigen-analysis of a matrix pencil through a regular
shift, and extraction of the homogeneous determinant polynomial
``det(lam*a + mu*b)``.

Rank decisions use a relative singular-value threshold ``tol * sigma_max``,
and one function, ``_ranks``, counts the values at or above it for
:func:`rank`, :func:`nullspace`, :func:`orthonormal_columns` and
:func:`stack_ranks`, which raise :class:`ValueError` for a ``tol`` that is
not a finite number > 0.
Operators of the form ``a - alpha*b`` can cancel to a matrix that is zero up
to roundoff; for those the caller passes ``scale`` (the pre-cancellation
magnitude) so the cutoff never collapses to the noise floor of an
all-noise matrix.

:func:`stack_ranks` makes the rank decision for a list of equal-shape
matrices with one LAPACK call: numpy runs the routine of a single call on
each matrix of the stack, so every rank is that of the single call.  So
are the nullspaces and pencil eigen-analyses written (``_nullspaces``,
``_shifted_eigens``), and :func:`rank`, :func:`nullspace` and
:func:`pencil_eigen` run theirs on a stack of one: a batch gets, bit for
bit, the answers of one call per matrix.  Between their LAPACK calls no
loop runs per matrix or per point: ranks, frame checks and the clustering
of eigenvalues are array passes over the stack.
:func:`det_poly` interpolates one pencil's determinant from one ``det`` per
node; :mod:`algscope.spectral` takes its batches' characteristic
polynomials from the eigenvalues ``_shifted_eigens`` returns instead.
Nothing reads roots or an order at infinity back from the coefficients:
the eigen-analysis decides the spectrum and its count at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    DimensionMismatch,
    NonFinite,
    ShapeError,
    SingularShift,
    _check_tolerance,
)

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


def _ranks(s: np.ndarray, tol: float, scales) -> np.ndarray:
    """Per row of the stack ``s`` of descending singular values, how many are
    at or above ``tol`` times the row's largest (1 for an exactly zero
    matrix) or, when larger and not None, the problem scale ``scales[i]``."""
    smax = s[:, 0] if s.shape[-1] else np.zeros(len(s))
    # a missing scale becomes NaN, which fmax ignores
    floor = np.array(scales, dtype=float)
    cutoffs = tol * np.fmax(np.where(smax > 0.0, smax, 1.0), floor)
    return np.sum(s >= cutoffs[:, None], axis=1)


def rank(m, tol: float, *, scale: float | None = None) -> int:
    """Numerical rank at the cutoff of :func:`nullspace`: :func:`stack_ranks`
    of ``m`` alone."""
    return int(stack_ranks([m], tol, [scale])[0])


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


def _close(a, b, tol):
    """``|a - b| <= tol * max(1, |a|, |b|)``, elementwise over complex values
    or arrays that broadcast: the one closeness test of spectral values,
    absolute below modulus 1 and relative above it.  Clustering the
    eigenvalues (:func:`_stack_points`), :func:`projective_close` and the
    point lookup of the suites all decide with it."""
    return np.abs(a - b) <= tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def projective_close(p: ProjectivePoint, q: ProjectivePoint, tol: float) -> bool:
    """Closeness test used to match spectrum points (:func:`_close`); two
    infinite points are close, and an infinite point is close to no finite
    one."""
    if p.is_infinite or q.is_infinite:
        return p.is_infinite and q.is_infinite
    return bool(_close(p.value, q.value, tol))


# --------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n carried by an orthonormal column frame.

    ``frame`` has shape ``(ambient_dim, dim)`` and satisfies
    ``frame^H frame = I`` within ``10 * tol``.  The constructor checks that
    bound, and the stacked nullspaces behind :func:`nullspace` run the same
    check (``_check_orthonormal``) once per stack instead.  The constructor,
    :meth:`zero` and :meth:`full` raise :class:`ValueError` unless ``tol``
    is a finite number > 0.
    """

    ambient_dim: int
    frame: np.ndarray
    tol: float

    def __post_init__(self):
        _check_tolerance("tol", self.tol)
        frame = np.asarray(self.frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[0] != self.ambient_dim:
            raise ShapeError(
                f"frame shape {frame.shape} does not match ambient dim {self.ambient_dim}"
            )
        if frame.shape[1] > self.ambient_dim:
            raise ShapeError("frame has more columns than the ambient dimension")
        _check_orthonormal(frame, self.tol)
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @classmethod
    def _checked(cls, ambient_dim: int, frame: np.ndarray, tol: float) -> "Subspace":
        """The subspace of ``frame``, a complex (ambient_dim, dim) array whose
        orthonormality the caller has checked, made read-only."""
        space = object.__new__(cls)
        frame.setflags(write=False)
        space.__dict__.update(ambient_dim=ambient_dim, frame=frame, tol=tol)
        return space

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
    def zero(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        """The zero subspace, whose empty frame needs no check."""
        _check_tolerance("tol", tol)
        return cls._checked(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex), tol)

    @classmethod
    def full(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        """The whole space, framed by the exact identity, which needs no
        check."""
        _check_tolerance("tol", tol)
        return cls._checked(ambient_dim, np.eye(ambient_dim, dtype=complex), tol)


def nullspace(m, tol: float, *, scale: float | None = None) -> Subspace:
    """Right nullspace of ``m``: the span of right-singular directions whose
    singular values fall below ``tol * sigma_max`` (``sigma_max`` replaced by 1
    for an exactly zero matrix, and by ``scale`` when that is larger).

    Satisfies ``rank(m) + dim(nullspace(m)) = cols(m)``.
    """
    _check_tolerance("tol", tol)
    m = as_matrix(m)
    n = m.shape[1]
    if n == 0:
        return Subspace(0, np.zeros((0, 0), dtype=complex), tol)
    if m.shape[0] == 0:
        return Subspace.full(n, tol)
    return _nullspaces(m[None], tol, [scale])[0]


def _nullspaces(stack: np.ndarray, tol: float, scales, *, left: bool = False) -> list:
    """The right null space, that of :func:`nullspace`, of each matrix m of
    the finite, nonempty stack ``stack`` at its own ``scales[i]``, from one
    full SVD of the stack m = U S V^H: at the rank r its singular values
    give, the trailing rows of V^H, conjugated, span it.  With ``left``,
    (left, right) pairs, the left null space {x : x^T m = 0} spanned by the
    trailing columns of conj(U)."""
    u, s, vh = np.linalg.svd(stack)
    m, n = stack.shape[-2:]
    ranks = _ranks(s, tol, scales)
    rights = _checked_frames(vh.transpose(0, 2, 1), n - ranks, tol)
    if not left:
        return rights
    return list(zip(_checked_frames(u, m - ranks, tol), rights))


def _check_orthonormal(frames: np.ndarray, tol: float):
    """Raise :class:`ShapeError` unless the columns of the frame, or of each
    frame of the stack, ``frames`` are orthonormal within ``10 * tol``."""
    gram = frames.conj().swapaxes(-1, -2) @ frames
    if gram.size and np.max(np.abs(gram - np.eye(frames.shape[-1]))) > 10.0 * tol:
        raise ShapeError("frame columns are not orthonormal at the stated tolerance")


def _checked_frames(cols: np.ndarray, dims: np.ndarray, tol: float) -> list[Subspace]:
    """The subspaces spanned by the conjugated last ``dims[i]`` columns of
    each ``cols[i]``, checked as :class:`Subspace` checks its frame, once
    per dimension."""
    n, width = cols.shape[-2:]
    for d in sorted(set(dims.tolist()) - {0}):
        _check_orthonormal(cols[dims == d, :, width - d :], tol)
    frames = [c[:, width - d :].conj() for c, d in zip(cols, dims.tolist())]
    return [Subspace._checked(n, w, tol) for w in frames]


def orthonormal_columns(cols, tol: float, *, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span of ``cols`` (SVD based)."""
    _check_tolerance("tol", tol)
    cols = as_matrix(cols)
    if cols.shape[1] == 0:
        return cols
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, : int(_ranks(s[None], tol, [scale])[0])]


# --------------------------------------------------------------------------
# stacks of matrices


def stack_ranks(mats, tol: float, scales) -> np.ndarray:
    """:func:`rank` of each of the equal-shape matrices ``mats`` at its own
    ``scales[i]``, from one values-only SVD of their stack, once each has
    passed :func:`as_matrix`."""
    _check_tolerance("tol", tol)
    stack = np.stack([as_matrix(m) for m in mats])
    return _ranks(np.linalg.svd(stack, compute_uv=False), tol, scales)


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
    # projectors have unit scale, so an all-roundoff stack means full overlap
    return nullspace(_intersection_operator(a, b), tol, scale=1.0)


def _intersection_operator(a: Subspace, b: Subspace) -> np.ndarray:
    """``[I - P_a; I - P_b]``, whose nullspace at unit scale is the
    intersection of ``a`` and ``b``."""
    eye = np.eye(a.ambient_dim)
    return np.vstack([eye - a.projector(), eye - b.projector()])


def subspace_equal(a: Subspace, b: Subspace, tol: float) -> bool:
    """Equal dimension and operator-norm projector distance below ``tol``, a
    finite number > 0."""
    _check_tolerance("tol", tol)
    _check_ambient(a, b)
    if a.dim != b.dim:
        return False
    return projector_distance(a, b) < tol


def projector_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance of the two orthogonal projectors
    (:func:`_frame_distance`); 0.0, with no SVD, when both are zero."""
    _check_ambient(a, b)
    if a.dim == b.dim == 0:
        return 0.0
    return _frame_distance(a.frame, b.frame)


def _frame_distance(wa: np.ndarray, wb: np.ndarray) -> float:
    """Operator-norm distance of the projectors onto the spans of the
    orthonormal frames ``wa`` and ``wb``, from one values-only SVD."""
    return float(np.linalg.svd(wa @ wa.conj().T - wb @ wb.conj().T, compute_uv=False)[0])


def complement(a: Subspace) -> Subspace:
    """Orthogonal complement of ``a`` inside its ambient space."""
    if a.dim == 0:
        return Subspace.full(a.ambient_dim, a.tol)
    return nullspace(a.frame.conj().T, a.tol, scale=1.0)


# --------------------------------------------------------------------------
# pencil eigen-analysis


def _square_pencil(a, b, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as matrices; a :class:`ShapeError` naming ``caller``
    unless they are square and of one shape."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{caller} needs equal square matrices, got {a.shape} and {b.shape}")
    return a, b


#: :func:`pencil_eigen` refuses a shift alpha0 at which sigma_min of
#: ``a - alpha0*b`` is below this fraction of max(sigma_max, problem scale)
SINGULAR_SHIFT_TOL = 1e-12


def pencil_eigen(
    a, b, alpha0: complex, *, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> list[tuple[ProjectivePoint, int, np.ndarray | None]]:
    """Eigenvalues of the pencil ``a - alpha*b`` through the regular shift
    ``alpha0``, with the eigenvector of each simple one.

    One ``np.linalg.eig`` gives the eigenvalues ``L`` and unit eigenvectors
    of ``M = (a - alpha0*b)^{-1} b``, its entries below eps ||M||_F first
    set to 0 (:func:`_shifted_eigens`).  An eigenvalue within the infinity
    cutoff (``b x = 0`` for its vector x) maps to alpha = infinity, and every
    other one to ``alpha = alpha0 + 1/L`` (``(a - alpha*b) x = 0``).  Mapped
    values closer than ``cluster_tol`` (relative for large moduli) are
    merged into a single point with summed multiplicity; multiplicities add
    up to the pencil size.  The two poles of the projective line are treated
    symmetrically at the same resolution: every value of modulus at most
    ``cluster_tol`` joins one point at exactly 0, as every value of modulus
    beyond ``1/cluster_tol`` joins the one point at infinity, so the
    involution alpha -> 1/alpha maps returned points to returned points.

    Each item is (point, multiplicity, vector).  At a point of multiplicity
    1, ``vector`` is the eigenvector of its one eigenvalue as a read-only
    unit column x, with ``(a - alpha*b) x = 0`` (``b x = 0`` at infinity);
    at a multiple point it is None.  Raises :class:`SingularShift` when
    ``a - alpha0*b`` is numerically singular, which signals a bad shift
    rather than bad data, and :class:`ValueError` when ``cluster_tol`` is
    not a finite number > 0.
    """
    _check_tolerance("cluster_tol", cluster_tol)
    a, b = _square_pencil(a, b, "pencil_eigen")
    if a.shape[0] == 0:
        return []
    shifted = a - alpha0 * b
    s = np.linalg.svd(shifted, compute_uv=False)
    problem_scale = max(
        float(np.linalg.norm(a, "fro")), abs(alpha0) * float(np.linalg.norm(b, "fro")), 1e-300
    )
    if s[-1] < SINGULAR_SHIFT_TOL * max(s[0], problem_scale):
        raise SingularShift(f"shift alpha0={alpha0} leaves the pencil singular")
    return _shifted_eigens(shifted[None], b[None], [alpha0], cluster_tol)[1][0]


def _shifted_eigens(
    shifted: np.ndarray, b: np.ndarray, alpha0s, cluster_tol: float
) -> tuple[np.ndarray, list[list[tuple[ProjectivePoint, int, np.ndarray | None]]]]:
    """The eigenvalues of ``shifted[i]^{-1} b[i]``, one row per pencil, and
    the points of :func:`pencil_eigen` for each pencil of a stack, given
    ``shifted[i] = a[i] - alpha0s[i] * b[i]`` at a shift already known to be
    regular: one ``solve`` and one ``eig`` over the whole stack, then
    :func:`_stack_points` over the stack of eigenvalues.

    ``eig`` balances its input, and entries of M = shifted^{-1} b at
    roundoff level (down to 1e-33 and below where the quotient frame
    carries roundoff) break its backward stability: on tri_4 at a
    functional zero on half the coordinates, ||M X - X L|| / ||M|| reached
    5e-2.  Every entry of each M below eps ||M||_F is set to 0 first, a
    perturbation inside ``eig``'s own backward error.  The threshold is
    each matrix's own, so a pencil gets the same bits in a stack of any
    size."""
    m = np.linalg.solve(shifted, b)
    floor = np.finfo(float).eps * np.linalg.norm(m, axis=(1, 2))
    m[np.abs(m) < floor[:, None, None]] = 0.0
    lams, vectors = np.linalg.eig(m)
    vectors.setflags(write=False)
    return lams, _stack_points(lams, vectors, alpha0s, cluster_tol)


def _stack_points(
    lams: np.ndarray, vectors: np.ndarray, alpha0s, cluster_tol: float
) -> list[list[tuple[ProjectivePoint, int, np.ndarray | None]]]:
    """The points of :func:`pencil_eigen` of each pencil, from the
    eigenvalues ``lams[i]`` of ``(a - alpha0s[i] b)^{-1} b`` and their unit
    eigenvectors ``vectors[i]``, in one pass over the (B, K) stack.  The
    points are the components of the graph linking the infinite values, the
    finite values of modulus ``cluster_tol`` or less, and the finite ones
    within ``cluster_tol`` of each other (:func:`_close`), each labelled by
    its first member: each value takes the least label linked to it until
    none changes.  A finite point is the mean of its members, snapped to 0
    at modulus ``cluster_tol`` or less; infinity comes last, and the finite
    points by modulus, phase and first member."""
    b, k = lams.shape
    shifts = np.asarray(alpha0s, dtype=complex).reshape(b, 1)
    # moduli of points and shifts as Python's abs takes them, hypot, which
    # numpy's abs of a complex array does not match bit for bit
    shift_size = np.hypot(shifts.real, shifts.imag)
    at_inf = np.abs(lams) <= cluster_tol / (1.0 + cluster_tol * shift_size)
    alphas = shifts + 1.0 / np.where(at_inf, 1.0, lams)
    finite = ~at_inf
    near = _close(alphas[:, :, None], alphas[:, None, :], cluster_tol)
    index = np.arange(k)
    # every value links itself, a NaN too, which then fails the finite check
    linked = near & finite[:, :, None] & finite[:, None, :] | (index[:, None] == index)
    linked |= at_inf[:, :, None] & at_inf[:, None, :]
    near_zero = finite & (np.hypot(alphas.real, alphas.imag) <= cluster_tol)
    linked |= near_zero[:, :, None] & near_zero[:, None, :]
    labels = np.broadcast_to(index, (b, k))
    while True:
        least = np.where(linked, labels[:, None, :], k).min(axis=2)
        if np.array_equal(least, labels):
            break
        labels = least
    first = labels == index
    mults = np.sum(labels[:, None, :] == index[:, None], axis=2)
    # the points of c members: their values in index order, summed as one
    # point's values alone are, and divided by c
    centroids = np.zeros((b, k), dtype=complex)
    for c in set(mults[first & finite].tolist()):
        rows, cols = np.nonzero(first & finite & (mults == c))
        members = np.nonzero(labels[rows] == cols[:, None])[1].reshape(-1, c)
        centroids[rows, cols] = alphas[rows[:, None], members].sum(axis=1) / c
    size = np.hypot(centroids.real, centroids.imag)
    snap = size <= cluster_tol
    centroids[snap], size[snap] = 0.0, 0.0
    if not np.all(np.isfinite(centroids)):
        raise NonFinite("finite projective point built from non-finite value")
    # stable: equal keys keep the order of the first members
    order = np.lexsort((np.angle(centroids), size, np.where(first, at_inf, 2)), axis=-1)
    points = [np.take_along_axis(x, order, axis=1).tolist() for x in (mults, centroids, at_inf)]
    counts = first.sum(axis=1).tolist()
    return [
        [
            (INFINITY if inf else ProjectivePoint(z), m, vec[:, j : j + 1] if m == 1 else None)
            for j, m, z, inf in zip(firsts[:count], ms, zs, infs)
        ]
        for vec, count, firsts, ms, zs, infs in zip(vectors, counts, order.tolist(), *points)
    ]


# --------------------------------------------------------------------------
# homogeneous determinant polynomial


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous polynomial ``sum_d coeffs[d] * lam^(degree-d) * mu^d``,
    the checked (degree, coeffs) pair of chi and of :func:`det_poly`."""

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
    a, b = _square_pencil(a, b, "det_poly")
    k = a.shape[0]
    if k == 0:
        return HomogeneousPoly(0, np.array([1.0 + 0.0j]))
    nodes = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
    values = np.array([np.linalg.det(a + t * b) for t in nodes])
    return HomogeneousPoly(k, np.fft.fft(values) / (k + 1))
