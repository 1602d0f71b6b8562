"""Linear functionals, the pairing matrix F(e_i e_j), and its kernels.

A functional F is a coordinate vector f with f_i = F(e_i).  Pushing the
multiplication table through F gives the pairing matrix a[i, j] = F(e_i e_j),
a bilinear form on the algebra.  Its left kernel, right kernel and their
intersection (the two-sided degenerate directions, ``nil``) drive the whole
decomposition: compressing the form to an orthonormal complement of ``nil``
yields the reduced pencil (a~, a~^T).  For a generic F the pencil is regular:
some combination a~ - alpha0 a~^T is invertible.  It need not be for a
special F: on Mat_4 with F(X) = tr(N X), N the nilpotent shift, every
combination is singular, and :func:`algscope.spectral.decompose` raises
:class:`algscope.errors.SingularPencil`, a :class:`~algscope.errors.NoRegularValue`
that names this cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import Algebra, Element, pairwise_products
from .errors import DimensionMismatch, NonFinite, TheoremViolation
from .linalg import Subspace, _nullspaces, complement, subspace_intersect

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
    "NilIdealReport",
    "nil_ideal_check",
]

#: verdicts of :func:`is_multiplicative`
MULTIPLICATIVE = "Multiplicative"
RANK_ONE_BUT_NOT_UNIT = "RankOneButNotUnit"
NOT_RANK_ONE = "NotRankOne"


@dataclass(frozen=True)
class Functional:
    """Linear functional with coordinates f_i = F(e_i)."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=complex)
        if v.ndim != 1:
            raise DimensionMismatch("functional coordinates must be a vector")
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
    return Functional((rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2))


def matrix_trace_functional(weight: np.ndarray) -> Functional:
    """The functional X -> tr(weight @ X) on the matrix algebra, for the
    row-major e_{ij} basis of :func:`algscope.algebra.mat_algebra`."""
    w = np.asarray(weight, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionMismatch("weight must be a square matrix")
    # tr(w e_{ij}) = w[j, i]
    return Functional(w.T.reshape(-1))


def _pairings(alg: Algebra, coords: np.ndarray) -> np.ndarray:
    """Pairing matrices F(e_i e_j) of the functionals whose coordinates are
    the rows of ``coords``, from one contraction."""
    return np.einsum("ijk,ck->cij", alg.structure, coords)


def gram(alg: Algebra, f: Functional) -> np.ndarray:
    """Pairing matrix a[i, j] = F(e_i e_j) of the multiplication table
    through F, read-only."""
    if f.dim != alg.dim:
        raise DimensionMismatch("functional does not match the algebra dimension")
    a = _pairings(alg, f.coords[None])[0]
    a.setflags(write=False)
    return a


class Kernels(NamedTuple):
    left: Subspace
    right: Subspace
    nil: Subspace


def kernels(alg: Algebra, f: Functional, tol: float = 1e-9) -> Kernels:
    """Left kernel {x : F(x y) = 0 for all y}, right kernel
    {x : F(y x) = 0 for all y}, and their intersection ``nil``."""
    a = gram(alg, f)
    _check_pairing(a, tol)
    return _stack_kernels(a[None], tol)[0]


def _check_pairing(a: np.ndarray, tol: float):
    """The errors that the kernels of the pairing ``a`` raise: a tolerance
    that is not positive, or a non-finite entry."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains NaN or Inf entries")


def _stack_kernels(a: np.ndarray, tol: float) -> list[Kernels]:
    """Kernels of each finite pairing matrix of the stack ``a``: one full SVD
    of the stack gives both, at one rank per pairing, so the left and the
    right kernel have the same dimension; their intersection is taken per
    pairing."""
    pairs = _nullspaces(a, tol, [None] * len(a))
    return [Kernels(l, r, subspace_intersect(l, r, tol)) for l, r in pairs]


@dataclass(frozen=True)
class ReducedPencil:
    """The pairing compressed to an orthonormal complement of ``nil``.

    ``kernels`` are the left and right kernels of the pairing and their
    intersection ``nil``.  ``a_tilde = Q^T a Q`` where the columns of
    ``Q = quotient_frame`` complete ``nil`` to a basis; ``at_tilde`` is its
    transpose.  ``K`` is the quotient dimension.  Downstream results must not
    depend on the choice of Q.
    """

    kernels: Kernels
    quotient_frame: np.ndarray
    a_tilde: np.ndarray
    at_tilde: np.ndarray
    K: int
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("quotient_frame", "a_tilde", "at_tilde"):
            m = np.asarray(getattr(self, name), dtype=complex)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        scale = 1.0 if self.K == 0 else max(float(np.linalg.norm(self.a_tilde, "fro")), 1e-300)
        object.__setattr__(self, "_scale", scale)

    @property
    def nil(self) -> Subspace:
        return self.kernels.nil

    def pencil_scale(self) -> float:
        """Magnitude of the pencil before any cancellation; rank-decision floor."""
        return self._scale


def reduce_pencil(alg: Algebra, f: Functional, tol: float = 1e-9) -> ReducedPencil:
    """Compress the pairing to the canonical SVD complement of its
    two-sided kernel."""
    (rp,) = _reduce_pencils(alg, [f], tol)
    if isinstance(rp, Exception):
        raise rp
    return rp


def _reduce_pencils(
    alg: Algebra, fs: list[Functional], tol: float
) -> list[ReducedPencil | Exception]:
    """:func:`reduce_pencil` of each functional of ``fs``: the pairing
    matrices come from one contraction and both kernels from one stacked
    SVD.  A functional that :func:`reduce_pencil` would refuse gets in its
    place the error it would raise, and the others are unaffected."""
    out: list = [None] * len(fs)
    for i, f in enumerate(fs):
        if f.dim != alg.dim:
            out[i] = DimensionMismatch("functional does not match the algebra dimension")
    sized = [i for i, rp in enumerate(out) if rp is None]
    coords = np.array([fs[i].coords for i in sized], dtype=complex).reshape(-1, alg.dim)
    pairings = _pairings(alg, coords)
    for i, a in zip(sized, pairings):
        try:
            _check_pairing(a, tol)
        except (ValueError, NonFinite) as exc:
            out[i] = exc
    keep = [j for j, i in enumerate(sized) if out[i] is None]
    if keep:
        for j, ker in zip(keep, _stack_kernels(pairings[keep], tol)):
            out[sized[j]] = _compress(pairings[j], ker)
    return out


def _compress(a: np.ndarray, ker: Kernels) -> ReducedPencil:
    """The pairing ``a`` compressed to the canonical complement of the
    ``nil`` of its kernels ``ker``."""
    q = complement(ker.nil).frame
    a_tilde = q.T @ a @ q
    return ReducedPencil(ker, q, a_tilde, a_tilde.T.copy(), q.shape[1])


@dataclass(frozen=True)
class MultiplicativeReport:
    verdict: str
    rank: int
    unit_value: complex
    max_residual: float


def is_multiplicative(
    alg: Algebra, f: Functional, ker: Kernels, tol: float = 1e-9
) -> MultiplicativeReport:
    """Classify F by the rank-1 criterion.

    ``ker`` are the kernels of F on ``alg``, as returned by :func:`kernels`
    or kept by :class:`ReducedPencil`; the rank of the pairing is
    ``alg.dim - dim ker.right``, decided by the SVD that built them.  A
    functional with ``rank a = 1`` and ``F(1) = 1`` must satisfy
    ``F(e_i e_j) = F(e_i) F(e_j)`` for every pair; that identity is verified
    directly and a failure raises :class:`TheoremViolation` because it can
    only come from a defect, not from the input.
    """
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


@dataclass(frozen=True)
class NilIdealReport:
    premise_holds: bool
    is_ideal: bool | None
    max_residual: float


def nil_ideal_check(alg: Algebra, ker: Kernels, tol: float = 1e-9) -> NilIdealReport:
    """When left kernel = right kernel = nil, verify that nil is a two-sided
    ideal by projecting basis-by-frame products onto nil's complement.

    ``ker`` are the kernels of a functional on ``alg``, as returned by
    :func:`kernels` or kept by :class:`ReducedPencil`.  Both kernels come
    from one SVD with one dimension, and nil, their intersection, lies in
    each, so the premise is ``dim left == dim nil``."""
    if ker.left.dim != ker.nil.dim:
        return NilIdealReport(False, None, float("nan"))
    if ker.nil.dim == 0:
        return NilIdealReport(True, True, 0.0)
    basis = np.eye(alg.dim, dtype=complex)
    worst = 0.0
    for prods in (
        pairwise_products(alg, basis, ker.nil.frame),
        pairwise_products(alg, ker.nil.frame, basis),
    ):
        flat = prods.reshape(-1, alg.dim).T
        worst = max(worst, float(np.max(ker.nil.residual(flat))))
    return NilIdealReport(True, worst < tol, worst)
