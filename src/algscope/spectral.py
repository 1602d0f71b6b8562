"""Spectrum, stabilizer subspaces, and the Jordan filtration of the reduced
pencil.

The reduced pencil (a~, a~^T) defines, for each point alpha of the projective
line, the stabilizer

    Stab(alpha) = {x : F(x z) = alpha F(z x) for all z}

which in quotient coordinates is the kernel of ``a~^T - alpha a~`` (the
kernel of the pencil acting on the *first* slot of the bilinear form; the
matrices a~ and a~^T act on the second slot, so the slot-one kernel is the
nullspace of the transposed combination).  Stab(infinity) is the kernel of
``a~``.  The filtration

    V^0 = Stab(alpha),
    V^{k+1} = {x : exists y in V^k with (a~^T - alpha a~) x = (a~^T - alpha0 a~) y}

climbs the Jordan chain of the shifted operator and stabilizes at V(alpha);
the stabilized spaces are independent of the regular shift alpha0 and satisfy
dim V(alpha) = dim nil + algebraic multiplicity of alpha.

One eigendecomposition of the shifted operator gives the spectrum with the
multiplicity of every point, chi and the count at infinity; no second rule
(a coefficient threshold, or a climb until a level stops growing) decides
any of them.  The dimension identity fixes where each chain ends: a chain
ends at its multiplicity, with no test that it has stopped growing.  A
point whose Stab(alpha) already has that dimension is complete at level
0.  Simple points are the case mult = 1: there
1 <= dim Stab(alpha) <= dim V(alpha) - dim nil = 1, so V(alpha) = Stab(alpha)
is spanned by the eigenvector, with no rank decision at all.  The other
points climb their chains, each on its own, up to the multiplicity.  A
spectrum that miscounts a point cannot hide behind this: the dimension
check and the direct-sum rank test of :func:`decompose` still see it.  The
levels are kept as quotient frames.  The product tests multiply honest
algebra elements, the columns ``[Q W, nil]`` of each level, and measure
each product in quotient coordinates: every level contains nil and
``[Q, nil]`` is unitary, so no level needs a lift.
:attr:`Decomposition.filtrations` lifts the levels to subspaces of the full
algebra on first access, for the report's frames and the public API.  Every
per-point field of a decomposition is a tuple aligned with its ``points``,
read by index, so two points of equal value keep a chain each.

At the two points where the pencil degenerates to one matrix, level 0 is
already known.  Stab(infinity) = {x : F(z x) = 0 for all z} is the
pairing's right kernel and Stab(0) = {x : F(x z) = 0 for all z} its left
kernel, which the reduced pencil holds; in quotient coordinates each is the
kernel seen through Q, Q^H kernel, of dimension dim kernel - dim nil.  One
rule, :func:`_stab_frames`, reads them there for :func:`stab` and for the
level 0 of each multiple point, and takes one stacked SVD at the others.
One lookup, :func:`_point_indices`, finds points by value for the suites
and :meth:`Decomposition.point_at`.

Level 0 does not involve the shift, so shift independence has content only
above it: :func:`algscope.verify.verify_alpha0_suite` checks each level 0
by its residual in Stab(alpha) and compares the reported levels above it
with the ones :func:`_filtration_reduced` climbs under a new shift.

The rank tolerance is decided once, by the reduction: every rank decision
after it (the level 0 of a multiple point, a climb, :func:`stab`, the lift
of a level and the invariant checks) reads the pencil's own ``rp.nil.tol``,
which :attr:`Decomposition.tol` returns.

:func:`decompose_all` decomposes a batch of functionals with one seed, each
stage once over the batch, grouped by the quotient dimension K: the
reduction, the shift draws, the spectrum and the level 0 of the multiple
points other than 0 and infinity each run stacked LAPACK calls.  Each
decomposition keeps its row of the spectrum's eigenvalues, and forms chi
from them when chi is first read (:attr:`Decomposition.chi`), so a caller
that never reads chi, as :func:`algscope.verify.run_suites` does not,
never forms it.  Each of these stages has one
implementation, written over a stack; the single-pencil functions
(:func:`algscope.functional.reduce_pencil`, :func:`choose_alpha0`,
:func:`spectrum`, :func:`algscope.linalg.nullspace`) call it with a stack
of one, and :func:`decompose` is the batch of one.
numpy runs on each matrix of a stack the routine a single call runs on it,
so the rule is bitwise equality: each decomposition of a batch equals the
one its functional gets alone, bit for bit.  The invariant checks are no
stage of the batch: each decomposition runs its own, on its one pencil,
when they are first read (:attr:`Decomposition.checks`).  The suites read
each decomposition's points as arrays and its shape, K and the widths of
its levels; both are derived once per decomposition, on first read, and a
decomposition built from another's fields, some of them changed, derives
its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import Algebra
from .errors import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    NoRegularValue,
    SingularPencil,
    _check_tolerance,
    _ReadOnly,
)
from .functional import Functional, ReducedPencil, _groups, _raise_first, _reduce_pencils
from .linalg import (
    SHIFT_FLOOR,
    HomogeneousPoly,
    ProjectivePoint,
    Subspace,
    _close,
    _interpolate,
    _nullspaces,
    _off_span,
    _shift_regularities,
    _shifted_eigens,
    _unit_nodes,
    det_poly,
    nullspace,
    orthonormal_columns,
    pencil_eigen,
    rank,
)

__all__ = [
    "SpectrumPoint",
    "Decomposition",
    "InvariantCheck",
    "char_poly",
    "choose_alpha0",
    "spectrum",
    "stab",
    "decompose",
    "decompose_all",
]

LOG_DET_NODES = 12


class SpectrumPoint(NamedTuple):
    """One spectral point with its algebraic and geometric data.

    ``filtration_dims`` are dimensions of the filtration levels inside the
    full algebra (each level contains nil), so the final value minus
    ``dim nil`` equals the algebraic multiplicity; ``stab_dim`` is the
    stabilizer dimension within the quotient.  Points compare and hash by
    value, and ``_replace`` makes a copy with some fields changed.
    """

    alpha: ProjectivePoint
    algebraic_mult: int
    stab_dim: int
    filtration_dims: tuple[int, ...]


class InvariantCheck(NamedTuple):
    name: str
    passed: bool
    residual: float
    detail: str = ""


class Decomposition(_ReadOnly):
    """Full output of :func:`decompose` for one (algebra, functional) pair.

    ``pencil`` is the reduced pencil every other field was built from; the
    theorem suites read it instead of reducing the pairing again.
    ``quotient_filtrations[i]`` is the chain of ``points[i]``, its levels
    V^0 <= V^1 <= ... as quotient-coordinate frames, each fixing its level
    with nil; ``filtrations`` and ``v_spaces`` lift them to the full algebra
    on first access, aligned with ``points`` the same way, and
    :meth:`point_at` gives the index of a point by value.  Level 0 is
    Stab(alpha), which does not depend on the shift, so the
    shift-independence suite climbs a second chain from it.
    ``eigenvalues`` are those of S^-1 a~, S = a~^T - ``alpha0_used`` a~,
    from the eigendecomposition that gave the spectrum (none at K = 0);
    :attr:`chi` is formed from them on first read.  ``seed`` draws the
    log-determinant nodes of :attr:`checks`.  The values derived on first
    read are held beside the fields, which are read-only; a decomposition
    built from the same fields derives its own.  ``==`` is identity."""

    def __init__(
        self,
        pencil: ReducedPencil,
        eigenvalues: np.ndarray,
        points: tuple[SpectrumPoint, ...],
        quotient_filtrations: tuple[tuple[np.ndarray, ...], ...],
        alpha0_used: complex | None,
        cluster_tol: float,
        seed: int,
    ):
        self.__dict__.update(
            pencil=pencil,
            eigenvalues=eigenvalues,
            points=points,
            quotient_filtrations=quotient_filtrations,
            alpha0_used=alpha0_used,
            cluster_tol=cluster_tol,
            seed=seed,
        )

    @property
    def tol(self) -> float:
        """The rank tolerance of the reduction, ``pencil.nil.tol``, at which
        every rank decision of the decomposition was taken."""
        return self.pencil.nil.tol

    @cached_property
    def chi(self) -> HomogeneousPoly:
        """The characteristic polynomial det(lam a~ + mu a~^T), formed on
        first read from ``eigenvalues`` L: with S = a~^T - alpha0 a~,
        a~ + w a~^T = S (w + (1 + alpha0 w) S^-1 a~), so chi(1, w) = det(S)
        prod_i (w + (1 + alpha0 w) L_i).  That takes one ``det`` and one
        product per node at the K + 1 unit-circle nodes, and the
        interpolation of :func:`algscope.linalg.det_poly` gives the
        coefficients.  At K = 0, where there is no shift, chi is 1."""
        k = self.pencil.K
        if not k:
            return HomogeneousPoly(0, np.array([1.0 + 0.0j]))
        alpha0 = self.alpha0_used
        shifted = self.pencil.at_tilde - alpha0 * self.pencil.a_tilde
        nodes = _unit_nodes(k)[:, None]
        factors = nodes + (1.0 + alpha0 * nodes) * self.eigenvalues
        return _interpolate(np.linalg.det(shifted) * np.prod(factors, axis=-1))

    @cached_property
    def _point_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, infinite): the points in spectrum order as arrays, the
        value 0 at infinity, as the suites read them."""
        infinite = [p.alpha.is_infinite for p in self.points]
        values = [0j if x else p.alpha.value for p, x in zip(self.points, infinite)]
        return np.array(values, dtype=complex), np.array(infinite, dtype=bool)

    @cached_property
    def _shape(self) -> tuple | None:
        """The batch key of the suites: K and the widths of each chain's
        levels, or None when there are no points.  Decompositions of one
        shape share nil's dimension and the column layout of their
        levels."""
        widths = tuple(tuple(w.shape[1] for w in c) for c in self.quotient_filtrations)
        return (self.pencil.K, widths) if widths else None

    @cached_property
    def filtrations(self) -> tuple[tuple[Subspace, ...], ...]:
        """The levels of each point as subspaces of the full algebra, each
        containing nil."""
        return tuple(
            tuple(_lift(self.pencil, w) for w in frames) for frames in self.quotient_filtrations
        )

    @cached_property
    def checks(self) -> tuple[InvariantCheck, ...]:
        """The invariant checks of this decomposition
        (:func:`_decomposition_checks` of its pencil, points and V(alpha)
        frames at its ``seed``), run on first read, the same five at every
        K: at K = 0 they check an empty spectrum against an empty quotient
        and pass."""
        v_frames = [levels[-1] for levels in self.quotient_filtrations]
        return tuple(_decomposition_checks(self.pencil, self.points, v_frames, self.seed))

    @property
    def v_spaces(self) -> tuple[Subspace, ...]:
        """V(alpha), the last filtration level, of each point."""
        return tuple(levels[-1] for levels in self.filtrations)

    @property
    def nil(self) -> Subspace:
        return self.pencil.nil

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def quotient_dim(self) -> int:
        return self.pencil.K

    def point_at(self, alpha: ProjectivePoint) -> int | None:
        """The index of the first point within ``cluster_tol`` of ``alpha``
        (relative for large values), or None: :func:`_point_indices` of the
        one query."""
        value = np.array([[0j if alpha.is_infinite else alpha.value]])
        query = value, np.array([[alpha.is_infinite]])
        at = _point_indices([self], _alphas([self]), query)[0, 0] if self.points else -1
        return None if at < 0 else int(at)


def _alphas(decs: list[Decomposition]) -> tuple[np.ndarray, np.ndarray]:
    """The points of each of ``decs``, all with as many: (values,
    infinite), the value 0 at infinity, one row per decomposition."""
    rows = [dec._point_values for dec in decs]
    return np.stack([v for v, _ in rows]), np.stack([x for _, x in rows])


def _point_indices(decs: list[Decomposition], alphas: tuple, queries: tuple) -> np.ndarray:
    """Per decomposition r of ``decs``, whose :func:`_alphas` are
    ``alphas``, the index into its points of the point each of ``queries``
    (values, infinite), as ``alphas`` are, falls at, or -1: the first point
    within ``cluster_tol`` (:func:`algscope.linalg._close`), or at infinity
    the first infinite one, for all decompositions at once.  The one point
    lookup: :meth:`Decomposition.point_at` and the suites read it."""
    points, infinite = alphas
    values, at_infinity = (q[..., None] for q in queries)
    shape = (len(decs),) + (1,) * (values.ndim - 2) + (points.shape[1],)
    tols = np.array([dec.cluster_tol for dec in decs]).reshape(shape[:-1] + (1,))
    close = _close(values, points.reshape(shape), tols) & ~at_infinity
    close = np.where(infinite.reshape(shape), at_infinity, close)
    return np.where(close.any(axis=-1), close.argmax(axis=-1), -1)


def char_poly(rp: ReducedPencil) -> HomogeneousPoly:
    """Homogeneous characteristic polynomial det(lam a~ + mu a~^T),
    interpolated from K + 1 determinants (:func:`algscope.linalg.det_poly`):
    independent of the spectrum, whose eigenvalues give :func:`decompose`
    its chi."""
    return det_poly(rp.a_tilde, rp.at_tilde)


#: (a~, a~^T, pencil scales) of pencils of one size K >= 1, stacked
PencilStack = tuple[np.ndarray, np.ndarray, np.ndarray]


def _pencil_stack(rps: list[ReducedPencil]) -> PencilStack:
    """The a~, the a~^T and the pencil scales of pencils of one size K >= 1,
    stacked.  :func:`_decompose_pencils` builds it once per K-group and hands it
    to every stage of that group."""
    return (
        np.stack([rp.a_tilde for rp in rps]),
        np.stack([rp.at_tilde for rp in rps]),
        np.array([rp.pencil_scale() for rp in rps]),
    )


def _draw_shift(rng: np.random.Generator) -> complex:
    """A random modulus in [0.5, 2] with a random phase."""
    modulus = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return complex(modulus * np.cos(phase), modulus * np.sin(phase))


def choose_alpha0(rp: ReducedPencil, seed: int = 0) -> complex:
    """Draw a regular shift: random modulus in [0.5, 2], random phase,
    accepted when the shifted pencil's regularity reaches the larger of
    ``SHIFT_FLOOR`` and the pencil's own rank tolerance ``rp.nil.tol``, so
    no accepted shift is one that the pencil's rank test calls singular.

    Deterministic for a fixed seed; tries up to max(64, K + 1) draws and
    raises :class:`NoRegularValue` if all fall below the floor, reporting
    the best regularity reached.  It raises the subclass
    :class:`SingularPencil` when that best regularity is also below the
    pencil's own rank tolerance ``rp.nil.tol``: then ``a~^T - alpha a~`` has
    rank below K at each of more than K distinct draws of alpha, and a
    regular pencil is singular at no more than K points, so this one is
    singular for every alpha.
    """
    if rp.K < 1:
        raise NoRegularValue("empty pencil has no spectrum to shift into")
    return _raise_first(_choose_alpha0s([rp], _pencil_stack([rp]), seed))[0]


def _choose_alpha0s(
    rps: list[ReducedPencil], stack: PencilStack, seed: int = 0
) -> list[complex | NoRegularValue]:
    """:func:`choose_alpha0` of each of the pencils ``rps``, all of one size
    K >= 1 and one tolerance, all with ``seed``, so every pencil sees the
    same draws and the same floor; its caller hands it their
    :func:`_pencil_stack` ``stack``.  Each draw is tested with one
    values-only SVD over the pencils still waiting; a pencil that finds no
    shift in max(64, K + 1) draws gets in its place the error
    :func:`choose_alpha0` would raise."""
    rng = np.random.default_rng(seed)
    a, at, scales = stack
    draws = max(64, rps[0].K + 1)
    floor = _shift_floor(rps[0])
    out: list = [None] * len(rps)
    best = [0.0] * len(rps)
    waiting = np.arange(len(rps))
    for _ in range(draws):
        alpha0 = _draw_shift(rng)
        regularity = _shift_regularities(a[waiting], at[waiting], scales[waiting], alpha0)
        for j, r in zip(waiting.tolist(), regularity.tolist()):
            if r >= floor:
                out[j] = alpha0
            else:
                best[j] = max(best[j], r)
        waiting = waiting[~(regularity >= floor)]
        if not waiting.size:
            return out
    for j in waiting.tolist():
        out[j] = _no_shift_error(rps[j], best[j], draws)
    return out


def _shift_floor(rp: ReducedPencil) -> float:
    """The least regularity at which the shift search accepts a draw for
    ``rp``: ``SHIFT_FLOOR``, raised to the pencil's rank tolerance when
    that is larger."""
    return max(SHIFT_FLOOR, rp.nil.tol)


def _no_shift_error(rp: ReducedPencil, best: float, draws: int) -> NoRegularValue:
    """Why ``rp`` found no shift in ``draws`` > K draws whose best
    regularity was ``best``: :class:`SingularPencil` when ``best`` is below
    the pencil's own rank tolerance, :class:`NoRegularValue` otherwise.

    The regularity of a draw alpha is sigma_min / max(sigma_max,
    (1 + |alpha|) scale) of ``a~ - alpha a~^T``, the transpose of
    ``a~^T - alpha a~``, which has the same singular values; so a
    regularity below ``tol`` is exactly the verdict rank < K that the rank
    test at ``tol``, floored by that scale, gives ``a~^T - alpha a~``.  No
    draw is tested again."""
    failure = (
        f"no regular shift found in {draws} samples: the best regularity of the shifted pencil "
        f"(sigma_min / scale) was {best:.3e}, below the floor {_shift_floor(rp):.1e}"
    )
    if best < rp.nil.tol:
        return SingularPencil(
            f"the pencil is singular for every alpha; F is not generic: a~^T - alpha a~ has "
            f"rank below {rp.K} at tolerance {rp.nil.tol:.1e} at each of {draws} distinct "
            f"alpha; {failure}"
        )
    return NoRegularValue(failure)


def spectrum(
    rp: ReducedPencil, alpha0: complex, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> list[tuple[ProjectivePoint, int, np.ndarray | None]]:
    """Spectral points with algebraic multiplicities, sorted by modulus then
    phase with infinity last, each with the quotient frame of Stab(alpha)
    when its multiplicity is 1 (None otherwise).

    :func:`algscope.linalg.pencil_eigen` gives both, from one values-only
    SVD that tests the shift ``alpha0`` by the rule of :func:`choose_alpha0`
    and one eigendecomposition of the pencil ``a~^T - alpha a~`` through
    it.  That pencil has the spectrum of ``a~ - alpha a~^T``, its
    transpose, and its eigenvectors span the kernels of
    ``a~^T - alpha a~``, the stabilizers.  At a simple point
    1 <= dim Stab(alpha) <= dim V(alpha) = 1, so the eigenvector is the
    whole filtration, with no rank decision.  :func:`decompose` keeps the
    eigenvalues of the same eigendecomposition, which give chi.  A
    ``cluster_tol`` that is not a finite number > 0 raises
    :class:`ValueError`."""
    return pencil_eigen(rp.at_tilde, rp.a_tilde, alpha0, cluster_tol=cluster_tol)


def _slot_one_operator(rp: ReducedPencil, alpha: ProjectivePoint) -> tuple[np.ndarray, float]:
    """Matrix whose nullspace is Stab(alpha) in quotient coordinates, with the
    pre-cancellation scale used as the rank-decision floor."""
    if alpha.is_infinite:
        return rp.a_tilde, rp.pencil_scale()
    m = rp.at_tilde - alpha.value * rp.a_tilde
    return m, (1.0 + abs(alpha.value)) * rp.pencil_scale()


def _filtration_reduced(
    rp: ReducedPencil,
    alpha: ProjectivePoint,
    alpha0: complex,
    stab_frame: np.ndarray,
    mult: int,
) -> list[np.ndarray]:
    """Quotient-coordinate frames of V^0 <= V^1 <= ... at ``alpha`` under
    the shift ``alpha0``, climbed from ``stab_frame``, the V^0 =
    Stab(alpha) frame, up to the algebraic multiplicity ``mult`` of
    ``alpha``, each rank decided at the pencil's tolerance.

    dim V(alpha) - dim nil equals ``mult``, so the chain ends at the first
    level of that dimension, with no test that it has stopped growing.  A
    level 0 of full dimension is then the whole chain, with no climb; a
    simple point (mult = 1) is that case.  A level that does not grow ends
    the chain below its multiplicity, which the dimension check of
    :func:`decompose` then reports.  Per level below the end: the
    orthonormal columns of the image under the shifted operator, and the
    next level's nullspace, whose own SVD decides whether the level grows.
    A complete level 0 builds neither operator."""
    chain = [stab_frame]
    if stab_frame.shape[1] >= mult:
        return chain
    tol = rp.nil.tol
    s_mat, s_scale = _slot_one_operator(rp, alpha)
    t_mat, t_scale = _slot_one_operator(rp, ProjectivePoint.finite(alpha0))
    while chain[-1].shape[1] < mult:
        image = orthonormal_columns(t_mat @ chain[-1], tol, scale=t_scale)
        nxt = nullspace(_off_span(image, s_mat), tol, scale=s_scale).frame
        if nxt.shape[1] <= chain[-1].shape[1]:
            break
        chain.append(nxt)
    return chain


def _lift_frame(rp: ReducedPencil, quotient_frame_cols: np.ndarray) -> np.ndarray:
    """Frame of the preimage in the full algebra: the quotient directions
    ``Q w``, then all of nil.  ``[Q, nil]`` is unitary, so the frame is
    orthonormal when the quotient columns are."""
    return np.hstack([rp.quotient_frame @ quotient_frame_cols, rp.nil.frame])


def _lift(rp: ReducedPencil, quotient_frame_cols: np.ndarray) -> Subspace:
    """A filtration level as a subspace of the full algebra, at the pencil's
    tolerance: quotient directions plus all of nil."""
    return Subspace(rp.nil.ambient_dim, _lift_frame(rp, quotient_frame_cols), rp.nil.tol)


def _is_kernel_point(alpha: ProjectivePoint) -> bool:
    """Whether Stab(alpha) is a kernel of the pairing: alpha = infinity or 0."""
    return alpha.is_infinite or alpha.value == 0


def _kernel_stab_frame(rp: ReducedPencil, alpha: ProjectivePoint) -> np.ndarray:
    """The quotient frame of Stab(alpha) at alpha = infinity or 0, read from
    the right or the left kernel of the pairing that ``rp`` holds: Q^H
    kernel, of dimension dim kernel - dim nil.  At nil = 0, where Q = I,
    that is the kernel's own frame; otherwise the leading dim kernel -
    dim nil left singular vectors of the K x dim kernel matrix Q^H kernel,
    whose other singular values are roundoff since nil lies in the kernel:
    a count, with no cutoff."""
    ker = rp.kernels.right if alpha.is_infinite else rp.kernels.left
    if not rp.nil.dim:
        return ker.frame
    u = np.linalg.svd(rp.quotient_frame.conj().T @ ker.frame, full_matrices=False)[0]
    frame = u[:, : ker.dim - rp.nil.dim]
    frame.setflags(write=False)
    return frame


def _stab_frames(rps: list[ReducedPencil], alphas: list[ProjectivePoint]) -> list[np.ndarray]:
    """The quotient frame of Stab(alphas[i]) of each pencil ``rps[i]``, all
    of one size K and one tolerance: from the kernels at 0 and infinity
    (:func:`_kernel_stab_frame`), and at the other points from one stacked
    nullspace SVD of a~^T - alpha a~, each at its pre-cancellation scale."""
    frames = [
        _kernel_stab_frame(rp, x) if _is_kernel_point(x) else None for rp, x in zip(rps, alphas)
    ]
    others = [i for i, w in enumerate(frames) if w is None]
    if others:
        mats, scales = zip(*(_slot_one_operator(rps[i], alphas[i]) for i in others))
        for i, space in zip(others, _nullspaces(np.stack(mats), rps[0].nil.tol, scales)):
            frames[i] = space.frame
    return frames


def stab(rp: ReducedPencil, alpha: ProjectivePoint) -> Subspace:
    """Stabilizer subspace of the full algebra at ``alpha`` (contains nil),
    read from the reduced pencil ``rp`` of (algebra, F) and decided at its
    tolerance ``rp.nil.tol``.

    Equals {x : F(x z) = alpha F(z x) for all z} for finite alpha and
    {x : F(z x) = 0 for all z} at infinity: Stab(infinity) is the
    pairing's right kernel, and Stab(0) = {x : F(x z) = 0 for all z} its
    left kernel.  ``rp`` holds both and they are returned as they are, with
    no SVD.  Every other alpha lifts its frame from :func:`_stab_frames`,
    the rule of each decomposition's level 0.
    """
    if _is_kernel_point(alpha):
        return rp.kernels.right if alpha.is_infinite else rp.kernels.left
    frame = _lift_frame(rp, _stab_frames([rp], [alpha])[0])
    return Subspace(rp.nil.ambient_dim, frame, rp.nil.tol)


def _side_by_side(rows: list[list[np.ndarray]]) -> np.ndarray:
    """The matrices of each row side by side, one matrix per row, stacked;
    every row's matrices have one row count, and every row as many columns
    in all."""
    side = np.hstack([w for row in rows for w in row])
    cols = sum(w.shape[1] for w in rows[0])
    return np.ascontiguousarray(side.reshape(len(side), len(rows), cols).swapaxes(0, 1))


def _stab_residuals(
    rps: list[ReducedPencil],
    alphas: list[list[ProjectivePoint]],
    frames: list[list[np.ndarray]],
) -> list[list[float]]:
    """How far each quotient frame ``frames[c][i]`` lies from
    Stab(alphas[c][i]) of the pencil ``rps[c]``, all of one size K, and
    each row of frames of the same widths: the largest
    ``|(a~^T - alpha a~) w| / ((1 + |alpha|) scale)`` over its columns w,
    ``|a~ w| / scale`` at infinity, with ``scale`` the pencil scale, and
    0.0 for a frame with no columns.  Since sigma_min <= |S w| for a unit
    w, a residual below ``tol`` means the rank decision at the same cutoff
    would find dim Stab(alpha) >= 1.  The alpha0 suite hands it the
    pencils of one decomposition shape, the invariant checks one pencil.
    Each row's frames go side by side into one matrix, and the rows through
    two stacked products, which hand each pencil's matrices to the routine
    a pencil alone gets, so a pencil's residuals have the same bits in a
    group of any size; with no columns at all, nothing is stacked and no
    product runs."""
    widths = np.array([w.shape[1] for w in frames[0]], dtype=int)
    if not widths.sum():
        return [[0.0] * len(row) for row in frames]
    a, at, scales = _pencil_stack(rps)
    # per row and column: whether its point is infinity, and its value
    infinite = np.array([[x.is_infinite for x in row] for row in alphas]).repeat(widths, axis=1)
    values = np.array([[0j if x.is_infinite else x.value for x in row] for row in alphas])
    values = values.repeat(widths, axis=1)
    w = _side_by_side(frames)
    a_w = a @ w
    images = np.where(infinite[:, None, :], a_w, at @ w - values[:, None, :] * a_w)
    norms = np.linalg.norm(images, axis=1)
    res = norms / (np.where(infinite, 1.0, 1.0 + np.abs(values)) * scales[:, None])
    # the largest of each frame's columns, from its first column to the next
    # frame's; the appended 0 gives a trailing empty frame an index
    res = np.hstack([res, np.zeros((len(res), 1))])
    worst = np.maximum.reduceat(res, np.cumsum(widths) - widths, axis=1)
    return np.where(widths > 0, worst, 0.0).tolist()


def _log_det_residual(rp: ReducedPencil, points: Sequence[SpectrumPoint], seed: int) -> float:
    """How far r(t) = log|det(a~ - t a~^T)| - sum_i m_i log|t - alpha_i|,
    the sum over the finite ``points`` alpha_i of the pencil ``rp``, of
    multiplicity m_i, is from a constant: max r - min r over
    ``LOG_DET_NODES`` nodes t.

    det(a~ - t a~^T) = det(a~^T - t a~) = c prod_i (t - alpha_i)^m_i, of
    degree K - m_inf in t, so r is the constant log|c| when the points and
    their multiplicities are right: a wrong count at infinity leaves a trend
    in log|t|, and a wrong finite point or multiplicity a jump.  log|t| is
    uniform over the log moduli of the nonzero finite points widened by 1
    on each side ([-1, 1] when there are none), and the phase of t uniform;
    the draws come from a child of ``seed``'s sequence, apart from the shift
    draws.  The determinants come from one ``slogdet`` of the stack of the
    nodes' matrices, which cannot overflow."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    u = rng.uniform(size=LOG_DET_NODES)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=LOG_DET_NODES)
    finite = [p for p in points if not p.alpha.is_infinite]
    moduli = [abs(p.alpha.value) for p in finite if p.alpha.value != 0]
    lo, hi = (np.log(min(moduli)) - 1.0, np.log(max(moduli)) + 1.0) if moduli else (-1.0, 1.0)
    t = np.exp(lo + u * (hi - lo) + 1j * phase)
    # the node matrices a~ - t a~^T in one buffer, with no temporary of
    # their size
    mats = np.empty((t.size, rp.K, rp.K), dtype=complex)
    np.multiply(t[:, None, None], np.ascontiguousarray(rp.at_tilde), out=mats)
    _, log_dets = np.linalg.slogdet(np.subtract(rp.a_tilde, mats, out=mats))
    alphas = np.array([p.alpha.value for p in finite], dtype=complex)
    mults = np.array([p.algebraic_mult for p in finite], dtype=float)
    r = log_dets - np.sum(mults * np.log(np.abs(t[:, None] - alphas)), axis=1)
    return float(r.max() - r.min())


def _decomposition_checks(
    rp: ReducedPencil,
    points: Sequence[SpectrumPoint],
    v_frames: Sequence[np.ndarray],
    seed: int,
) -> list[InvariantCheck]:
    """Invariant checks of one decomposition of the reduced pencil ``rp``
    into ``points``, at the pencil's tolerance ``tol = rp.nil.tol``;
    :attr:`Decomposition.checks` runs it on its own pencil, points and
    frames.  At K = 0 all five pass with residual 0.

    ``v_frames[i]`` is the quotient-coordinate frame of V(alpha) for
    ``points[i]``.  The V(alpha) split the algebra over nil exactly when
    the stacked frames have rank equal to both their column count and K;
    once the dimension checks fix the column count at K, this single rank
    test proves the sum is direct and spans, which pairwise intersections
    cannot for three or more spaces.  The rank takes one values-only SVD at
    unit scale, the simple points' residuals in Stab(alpha) one product
    (:func:`_stab_residuals`), and the log-determinant test one ``slogdet``
    at ``LOG_DET_NODES`` nodes drawn from ``seed``
    (:func:`_log_det_residual`).  That test reads the pencil and the
    points, not chi's coefficients, whose end ones no threshold separates
    from roundoff at large K.  It passes at a drift of at most
    K sqrt(``tol``): a point off by a relative delta moves r by about
    m delta |alpha| / |t - alpha|, and the points are only as accurate as
    the pencil's eigenvalue conditioning allows, far less accurate than
    ``tol`` on some valid inputs (1e-7, with r moving by 1.5e-6, on an
    exact Mat_6 case), while a wrong point or multiplicity moves r by
    order 1.
    """
    k, tol = rp.K, rp.nil.tol
    total = sum(p.algebraic_mult for p in points)
    worst = max((abs(w.shape[1] - p.algebraic_mult) for p, w in zip(points, v_frames)), default=0)
    # at a simple point the dimension check holds by construction, so test
    # that the frame lies in Stab(alpha)
    simple = [i for i, p in enumerate(points) if p.algebraic_mult == 1]
    (residuals,) = _stab_residuals(
        [rp], [[points[i].alpha for i in simple]], [[v_frames[i] for i in simple]]
    )
    off = max(residuals, default=0.0)
    stacked = np.hstack([*v_frames, np.zeros((k, 0))])
    r, cols = rank(stacked, tol, scale=1.0), stacked.shape[1]
    drift = _log_det_residual(rp, points, seed)
    return [
        InvariantCheck(
            "multiplicities_sum_to_quotient_dim",
            total == k,
            float(abs(total - k)),
            f"sum {total} vs K {k}",
        ),
        InvariantCheck(
            "v_dim_equals_nil_plus_multiplicity",
            worst == 0,
            float(worst),
            "dim V(alpha) - dim nil vs algebraic multiplicity",
        ),
        InvariantCheck(
            "simple_frames_in_stabilizer",
            off < tol,
            off,
            "max |(a~^T - alpha a~) v| / ((1 + |alpha|) scale) over simple points, "
            "|a~ v| / scale at infinity",
        ),
        InvariantCheck(
            "v_spaces_direct_sum",
            r == cols == k,
            float(max(cols - r, k - r)),
            f"rank {r} of {cols} stacked V(alpha) columns vs K {k}",
        ),
        InvariantCheck(
            "log_det_matches_spectrum",
            drift <= k * tol**0.5,
            drift,
            f"max - min over {LOG_DET_NODES} nodes t of log|det(a~ - t a~^T)| "
            "- sum m log|t - alpha|, vs K sqrt(tol)",
        ),
    ]


def decompose(
    alg: Algebra,
    f: Functional,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> Decomposition:
    """Run the full pipeline: kernels, reduced pencil, characteristic
    polynomial, spectrum, and one Jordan filtration per spectral point.

    One eigendecomposition (:func:`spectrum`) gives the spectrum, each
    point's multiplicity and the filtration of every simple point, its
    eigenvector; every other point climbs (:func:`_filtration_reduced`) and
    its chain ends at its multiplicity.  The result
    keeps the reduced pencil (``pencil``) and records the shift used, all
    dimensions and ``seed``; its ``checks``, run on first read, are the
    invariant checks: multiplicity counts, the
    residual of each simple point's frame in Stab(alpha)
    (``simple_frames_in_stabilizer``), one rank test on the stacked quotient
    frames of all V(alpha) proving that they form a direct sum spanning the
    algebra over nil (``v_spaces_direct_sum``), and one test that the points
    and multiplicities account for det(a~ - t a~^T) up to a constant factor
    at nodes t drawn from ``seed`` (``log_det_matches_spectrum``).  chi
    comes from the eigenvalues of the spectrum's eigendecomposition, on
    first read; it is reported, and no check reads its coefficients.  It is
    :func:`decompose_all` of the one functional ``f``."""
    return decompose_all(alg, [f], seed, tol, cluster_tol)[0]


def decompose_all(
    alg: Algebra,
    fs: list[Functional],
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list[Decomposition]:
    """:func:`decompose` of each functional of ``fs``, all with ``seed``, as
    one batch: each stage runs once over the batch, grouped by the quotient
    dimension K, and hands every matrix of a stack to the LAPACK routine a
    single call would run on it, so each decomposition equals, bit for bit,
    the one :func:`decompose` returns.

    The reduction (:func:`algscope.functional._reduce_pencils`) takes the
    pairing matrices from one contraction and both kernels from one stacked
    SVD; their principal angles, one values-only SVD per kernel dimension,
    rule out nil where the kernels are apart, and the pairings whose
    kernels may meet take one more stacked SVD for it.
    :func:`_decompose_pencils` then decomposes the reduced pencils.  A
    ``tol`` or ``cluster_tol`` that is not a finite number > 0 raises
    :class:`ValueError`."""
    _check_tolerance("cluster_tol", cluster_tol)
    return _decompose_pencils(_reduce_pencils(alg, list(fs), tol), seed, cluster_tol)


def _decompose_pencils(
    rps: list[ReducedPencil | Exception], seed: int, cluster_tol: float
) -> list[Decomposition]:
    """The decompositions of the reduced pencils ``rps``, each as
    :func:`decompose_all` describes it, where an error stands for a
    functional whose reduction failed.

    Each draw of the shift is tested with one values-only SVD over the
    pencils still waiting for one; the spectrum takes one ``solve``, one
    ``eig`` and one array pass that clusters the eigenvalues of the stack,
    whose rows the decompositions keep for chi, and the level 0 of the
    multiple points one :func:`_stab_frames` call: one nullspace SVD, and
    the kernels in quotient coordinates at 0 and infinity.  Each
    decomposition runs its checks on first read
    (:attr:`Decomposition.checks`).  The shift that :func:`choose_alpha0`
    accepts passed the regularity test of
    :func:`algscope.linalg.pencil_eigen`, so the spectrum skips that test.
    The pencils are grouped by K and their tolerance, and each group is
    done in one pass, whose every stage reads one stack of its pencils
    (:func:`_pencil_stack`), dropped when the group is done.  A group with
    a failed shift draw is not decomposed, and the first error in the order
    of ``rps`` is raised: the one :func:`decompose` raises for it."""
    out: list = list(rps)
    keys = [(rp.K, rp.nil.tol) if isinstance(rp, ReducedPencil) else None for rp in rps]
    for members in _groups(keys).values():
        group = [rps[i] for i in members]
        if group[0].K == 0:  # nil is the whole algebra, and chi = 1
            empty = np.empty(0, complex)
            found = [Decomposition(rp, empty, (), (), None, cluster_tol, seed) for rp in group]
        else:
            stack = _pencil_stack(group)
            found = _choose_alpha0s(group, stack, seed)
            if not any(isinstance(alpha0, Exception) for alpha0 in found):
                found = _decompose_stack(group, stack, found, cluster_tol, seed)
            del stack
        for i, dec in zip(members, found):
            out[i] = dec
    return _raise_first(out)


def _decompose_stack(
    rps: list[ReducedPencil],
    stack: PencilStack,
    alpha0s: list[complex],
    cluster_tol: float,
    seed: int,
) -> list[Decomposition]:
    """The decompositions of pencils of one size K >= 1 and one tolerance,
    stacked in ``stack``, at their regular shifts ``alpha0s``: the
    spectrum over the stack, then the level 0 of every multiple point, and
    each chain climbed from it up to the point's multiplicity; each
    decomposition keeps its eigenvalues for chi and ``seed`` for its
    checks.  The spectrum takes one ``solve`` and one ``eig`` of the
    shifted stack a~^T - alpha0 a~, with no singular-shift test
    (:func:`algscope.linalg._shifted_eigens`), and the level 0 of all
    multiple points one call of :func:`_stab_frames`."""
    a, at, _ = stack
    shifted = at - np.array(alpha0s)[:, None, None] * a
    lams, spectra = _shifted_eigens(shifted, a, alpha0s, cluster_tol)
    lams.setflags(write=False)
    # (pencil, item) of each multiple point, and its Stab(alpha) frame
    multiple = [(c, j) for c, raw in enumerate(spectra) for j, x in enumerate(raw) if x[2] is None]
    alphas = [spectra[c][j][0] for c, j in multiple]
    stab_frames = dict(zip(multiple, _stab_frames([rps[c] for c, _ in multiple], alphas)))
    out = []
    for c, (rp, lam, alpha0, raw) in enumerate(zip(rps, lams, alpha0s, spectra)):
        points, chains = [], []
        for j, (alpha, mult, vector) in enumerate(raw):
            # a simple point's eigenvector is its one level; the others climb
            # from their Stab(alpha) up to their multiplicity
            if vector is None:
                chain = tuple(_filtration_reduced(rp, alpha, alpha0, stab_frames[c, j], mult))
            else:
                chain = (vector,)
            dims = tuple(w.shape[1] + rp.nil.dim for w in chain)
            points.append(SpectrumPoint(alpha, mult, chain[0].shape[1], dims))
            chains.append(chain)
        out.append(
            Decomposition(rp, lam, tuple(points), tuple(chains), alpha0, cluster_tol, seed)
        )
    return out

