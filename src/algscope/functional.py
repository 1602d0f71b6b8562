"""Linear functionals, the pairing matrix F(e_i e_j), and its kernels.

A functional F is a coordinate vector f with f_i = F(e_i).  Pushing the
multiplication table through F gives the pairing matrix a[i, j] = F(e_i e_j),
a bilinear form on the algebra.  Its left kernel, right kernel and their
intersection (the two-sided degenerate directions, ``nil``) drive the whole
decomposition: compressing the form to an orthonormal complement of ``nil``
yields the reduced pencil (a~, a~^T), of which :class:`ReducedPencil` stores
a~ alone.  For a generic F the pencil is regular:
some combination a~ - alpha0 a~^T is invertible.  It need not be for a
special F: on Mat_4 with F(X) = tr(N X), N the nilpotent shift, every
combination is singular, and :func:`algscope.spectral.decompose` raises
:class:`algscope.errors.SingularPencil`, a :class:`~algscope.errors.NoRegularValue`
that names this cause.

The kernels' product relations, among them that nil is a two-sided ideal
when left = right = nil, are checked by
:func:`algscope.verify.verify_kernel_relations`; this module classifies a
functional by the rank-1 criterion (:func:`is_multiplicative`) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import Algebra, Element
from .errors import DEFAULT_TOL, DimensionMismatch, NonFinite, TheoremViolation, _check_tolerance
from .linalg import Subspace, _intersection_operator, _nullspaces, _off_span, complement

__all__ = [
    "Functional",
    "ReducedPencil",
    "Kernels",
    "random_functional",
    "matrix_trace_functional",
    "gram",
    "kernels",
    "reduce_pencil",
    "MultiplicativeReport",
    "is_multiplicative",
]

#: verdicts of :func:`is_multiplicative`
MULTIPLICATIVE = "Multiplicative"
RANK_ONE_BUT_NOT_UNIT = "RankOneButNotUnit"
NOT_RANK_ONE = "NotRankOne"


@dataclass(frozen=True)
class Functional:
    """Linear functional with coordinates f_i = F(e_i), a finite vector: NaN
    or Inf coordinates raise :class:`NonFinite`, as they do in an
    :class:`Algebra`."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=complex)
        if v.ndim != 1:
            raise DimensionMismatch("functional coordinates must be a vector")
        if v.size and not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise NonFinite("functional coordinates contain NaN or Inf")
        v.setflags(write=False)
        object.__setattr__(self, "coords", v)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __call__(self, x) -> complex:
        xv = x.coords if isinstance(x, Element) else np.asarray(x, dtype=complex)
        if xv.shape != self.coords.shape:
            raise DimensionMismatch("element does not match the functional's dimension")
        return complex(xv @ self.coords)


def random_functional(dim: int, rng: np.random.Generator) -> Functional:
    """Independent complex-Gaussian coordinates, unit variance per entry."""
    return _random_functionals(dim, rng, 1)[0]


def _random_functionals(dim: int, rng: np.random.Generator, n: int) -> list[Functional]:
    """``n`` functionals of :func:`random_functional`, from one draw of the
    stream that ``n`` calls of it would take: per functional, the real
    parts, then the imaginary parts."""
    z = rng.standard_normal((n, 2, dim))
    return [Functional(c) for c in (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)]


def matrix_trace_functional(weight: np.ndarray) -> Functional:
    """The functional X -> tr(weight @ X) on the matrix algebra, for the
    row-major e_{ij} basis of :func:`algscope.algebra.mat_algebra`."""
    w = np.asarray(weight, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionMismatch("weight must be a square matrix")
    # tr(w e_{ij}) = w[j, i]
    return Functional(w.T.reshape(-1))


def _dim_error(alg: Algebra, dim: int, what: str) -> DimensionMismatch | None:
    """The :class:`DimensionMismatch` naming ``what``, of dimension ``dim``,
    and ``alg.dim``, or None when the two agree."""
    if dim == alg.dim:
        return None
    return DimensionMismatch(
        f"{what}: dimension {dim} does not match the algebra dimension {alg.dim}"
    )


def _check_dim(alg: Algebra, dim: int, what: str):
    """Raise the :func:`_dim_error`, if any, as every dimension check does."""
    error = _dim_error(alg, dim, what)
    if error is not None:
        raise error


def _check_kernels(alg: Algebra, ker: Kernels):
    """:func:`_check_dim` of each of the kernels ``ker``."""
    for space in ker:
        _check_dim(alg, space.ambient_dim, "kernels")


def _pairings(alg: Algebra, coords: np.ndarray) -> np.ndarray:
    """Pairing matrices F(e_i e_j) of the functionals whose coordinates are
    the rows of ``coords``, from one contraction."""
    return np.einsum("ijk,ck->cij", alg.structure, coords)


def _pairing_norms(pairings: np.ndarray) -> list[float | NonFinite]:
    """The Frobenius norm, the pencil's scale bound, of each pairing of the
    stack ``pairings``, or in its place, where finite coordinates overflow
    it, the :class:`NonFinite` that asks to rescale F."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(pairings, axis=(1, 2)).tolist()
    too_large = "functional: the pairing F(e_i e_j) is too large for double precision; rescale F"
    return [norm if np.isfinite(norm) else NonFinite(too_large) for norm in norms]


def gram(alg: Algebra, f: Functional) -> np.ndarray:
    """Pairing matrix a[i, j] = F(e_i e_j) of the multiplication table
    through F, read-only."""
    _check_dim(alg, f.dim, "functional")
    a = _pairings(alg, f.coords[None])[0]
    a.setflags(write=False)
    return a


class Kernels(NamedTuple):
    left: Subspace
    right: Subspace
    nil: Subspace


def kernels(alg: Algebra, f: Functional, tol: float = DEFAULT_TOL) -> Kernels:
    """Left kernel {x : F(x y) = 0 for all y}, right kernel
    {x : F(y x) = 0 for all y}, and their intersection ``nil``: those that
    :func:`reduce_pencil` keeps."""
    return reduce_pencil(alg, f, tol).kernels


def _raise_first(results: list) -> list:
    """``results``, unless one of them is an error: then the first is
    raised."""
    failed = next((r for r in results if isinstance(r, Exception)), None)
    if failed is not None:
        raise failed
    return results


def _groups(keys) -> dict:
    """The indices of ``keys`` per distinct key, in order of first
    appearance; a key of None joins no group."""
    groups: dict = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return groups


def _stack_kernels(a: np.ndarray, tol: float) -> list[Kernels]:
    """Kernels of each finite pairing matrix of the stack ``a``: one full SVD
    of the stack gives both, at one rank per pairing, so the left and the
    right kernel have the same dimension.  Their intersections, those of
    :func:`algscope.linalg.subspace_intersect`, take one more full SVD, of
    the stack of ``[I - P_left; I - P_right]``, for the pairings whose
    kernels :func:`_may_meet` cannot keep apart; the others meet in 0, and
    their nil is 0 with no such SVD."""
    pairs = _nullspaces(a, tol, [None] * len(a), left=True)
    meet = _may_meet(pairs, tol)
    nils = [Subspace.zero(a.shape[-1], tol) for _ in pairs]
    if meet:
        ops = np.stack([_intersection_operator(*pairs[i]) for i in meet])
        for i, nil in zip(meet, _nullspaces(ops, tol, [1.0] * len(meet))):
            nils[i] = nil
    return [Kernels(left, right, nil) for (left, right), nil in zip(pairs, nils)]


def _may_meet(pairs: list[tuple[Subspace, Subspace]], tol: float) -> list[int]:
    """The indices, in order, of the (left, right) kernel pairs ``pairs``
    whose intersection at ``tol`` may be nonzero, decided by their principal
    angles (Bjorck and Golub, Math. Comp. 27, 1973).

    The singular values of ``(I - P_left) R``, R the right kernel's frame,
    are the sines of the principal angles theta between the kernels, and
    one values-only SVD per kernel dimension gives them.  The intersection
    SVD sees ``[I - P_left; I - P_right]``, whose small singular values are
    sqrt(2) sin(theta / 2), against a cutoff of at most sqrt(2) tol, so it
    finds an intersection only where sin(theta) = 2 sin(theta / 2)
    cos(theta / 2) is below 2 tol.  A pair whose sines are all at least
    4 tol, twice that bound, meets in 0: the margin absorbs the rounding of
    both SVDs.  The others take the intersection SVD, which decides their
    nil exactly as :func:`subspace_intersect` does."""
    meet = []
    for members in _groups(right.dim or None for _, right in pairs).values():
        left = np.stack([pairs[i][0].frame for i in members])
        right = np.stack([pairs[i][1].frame for i in members])
        sines = np.linalg.svd(_off_span(left, right), compute_uv=False)
        meet += [i for i, s in zip(members, sines[:, -1].tolist()) if not s >= 4.0 * tol]
    return sorted(meet)


@dataclass(frozen=True)
class ReducedPencil:
    """The pairing compressed to an orthonormal complement of ``nil``.

    ``kernels`` are the left and right kernels of the pairing and their
    intersection ``nil``.  ``a_tilde = Q^T a Q`` where the columns of
    ``Q = quotient_frame`` complete ``nil`` to a basis.  The pencil stores
    only these; ``at_tilde``, the transpose of a~, and ``K``, the quotient
    dimension, are read from a~.  Downstream results must not depend on the
    choice of Q.
    """

    kernels: Kernels
    quotient_frame: np.ndarray
    a_tilde: np.ndarray
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("quotient_frame", "a_tilde"):
            m = np.asarray(getattr(self, name), dtype=complex)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        scale = 1.0 if self.K == 0 else max(float(np.linalg.norm(self.a_tilde, "fro")), 1e-300)
        object.__setattr__(self, "_scale", scale)

    @property
    def at_tilde(self) -> np.ndarray:
        """a~^T, a read-only view of a~."""
        return self.a_tilde.T

    @property
    def K(self) -> int:
        return self.a_tilde.shape[0]

    @property
    def nil(self) -> Subspace:
        return self.kernels.nil

    def pencil_scale(self) -> float:
        """Magnitude of the pencil before any cancellation; rank-decision floor."""
        return self._scale


def reduce_pencil(alg: Algebra, f: Functional, tol: float = DEFAULT_TOL) -> ReducedPencil:
    """Compress the pairing to the canonical SVD complement of its
    two-sided kernel.  A ``tol`` that is not a finite number > 0 raises
    :class:`ValueError`."""
    return _raise_first(_reduce_pencils(alg, [f], tol))[0]


def _reduce_pencils(
    alg: Algebra, fs: list[Functional], tol: float
) -> list[ReducedPencil | Exception]:
    """:func:`reduce_pencil` of each functional of ``fs``: the pairing
    matrices come from one contraction and both kernels from one stacked
    SVD (:func:`_stack_kernels`).  A functional of another dimension gets
    in its place the :class:`DimensionMismatch`, and one whose pairing is
    too large the :class:`NonFinite` of :func:`_pairing_norms`.  The others
    are unaffected.  A ``tol`` that is not a finite number > 0 raises
    :class:`ValueError` for all of them."""
    _check_tolerance("tol", tol)
    out: list = [_dim_error(alg, f.dim, "functional") for f in fs]
    sized = [i for i, rp in enumerate(out) if rp is None]
    coords = np.array([fs[i].coords for i in sized], dtype=complex).reshape(-1, alg.dim)
    pairings = _pairings(alg, coords)
    for i, norm in zip(sized, _pairing_norms(pairings)):
        if isinstance(norm, NonFinite):
            out[i] = norm
    keep = [j for j, i in enumerate(sized) if out[i] is None]
    if keep:
        eye = np.eye(alg.dim, dtype=complex)
        for j, ker in zip(keep, _stack_kernels(pairings[keep], tol)):
            out[sized[j]] = _compress(pairings[j], ker, eye)
    return out


def _compress(a: np.ndarray, ker: Kernels, eye: np.ndarray) -> ReducedPencil:
    """The pairing ``a`` compressed to the canonical complement of the
    ``nil`` of its kernels ``ker``.  A pairing whose nil is 0 is its own
    pencil: Q is ``eye``, one identity for the batch, and a~ a copy of ``a``."""
    if ker.nil.dim == 0:
        return ReducedPencil(ker, eye, a.copy())
    q = complement(ker.nil).frame
    return ReducedPencil(ker, q, q.T @ a @ q)


@dataclass(frozen=True)
class MultiplicativeReport:
    verdict: str
    rank: int
    unit_value: complex
    max_residual: float


def is_multiplicative(
    alg: Algebra, f: Functional, ker: Kernels, tol: float = DEFAULT_TOL
) -> MultiplicativeReport:
    """Classify F by the rank-1 criterion.

    ``ker`` are the kernels of F on ``alg``, as returned by :func:`kernels`
    or kept by :class:`ReducedPencil`; the rank of the pairing is
    ``alg.dim - dim ker.right``, decided by the SVD that built them.  A
    functional with ``rank a = 1`` and ``F(1) = 1`` must satisfy
    ``F(e_i e_j) = F(e_i) F(e_j)`` for every pair; that identity is verified
    directly and a failure raises :class:`TheoremViolation` because it can
    only come from a defect, not from the input.  A functional or kernels
    of another dimension raise :class:`DimensionMismatch`, and a ``tol``
    that is not a finite number > 0 raises :class:`ValueError`.
    """
    _check_tolerance("tol", tol)
    _check_dim(alg, f.dim, "functional coordinates")
    _check_kernels(alg, ker)
    r = alg.dim - ker.right.dim
    unit_value = f(alg.unit)
    if r != 1:
        return MultiplicativeReport(NOT_RANK_ONE, r, unit_value, float("nan"))
    if abs(unit_value - 1.0) >= tol:
        return MultiplicativeReport(RANK_ONE_BUT_NOT_UNIT, r, unit_value, float("nan"))
    a = gram(alg, f)
    residual = float(np.max(np.abs(a - np.outer(f.coords, f.coords))))
    if residual >= tol * max(1.0, float(np.abs(f.coords).max()) ** 2):
        raise TheoremViolation(
            f"rank-1 functional with F(1)=1 failed the product identity (residual {residual:.3e})"
        )
    return MultiplicativeReport(MULTIPLICATIVE, r, unit_value, residual)

