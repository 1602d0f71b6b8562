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
algebra on first access, for the report's frames and the public API.

Level 0 does not involve the shift, so shift independence has content only
above it: :func:`algscope.verify.verify_alpha0_suite` checks each level 0
by its residual in Stab(alpha) and compares the levels above it under two
shifts (:func:`_alpha0_independence`).

:func:`decompose_all` decomposes a batch of functionals with one seed, each
stage once over the batch, grouped by the quotient dimension K: the
reduction, the shift draws, the spectrum with chi (from the spectrum's
eigenvalues) and the level 0 of the multiple points each run stacked LAPACK
calls.  Each stage has one implementation, written over a stack; the
single-pencil functions
(:func:`algscope.functional.reduce_pencil`, :func:`choose_alpha0`,
:func:`char_poly`, :func:`spectrum`, :func:`algscope.linalg.nullspace`)
call it with a stack of one, and :func:`decompose` is the batch of one.
The invariant checks, too, run once over each stack.
numpy runs on each matrix of a stack the routine a single call runs on it,
so the rule is bitwise equality: each decomposition of a batch equals the
one its functional gets alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra
from .errors import NoRegularValue, SingularPencil
from .functional import Functional, ReducedPencil, _reduce_pencils
from .linalg import (
    HomogeneousPoly,
    ProjectivePoint,
    Subspace,
    _nullspaces,
    _shifted_eigens,
    det_poly,
    nullspace,
    orthonormal_columns,
    pencil_eigen,
    rank,
    stack_ranks,
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

DEFAULT_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-6
LOG_DET_NODES = 12


@dataclass(frozen=True)
class SpectrumPoint:
    """One spectral point with its algebraic and geometric data.

    ``filtration_dims`` are dimensions of the filtration levels inside the
    full algebra (each level contains nil), so the final value minus
    ``dim nil`` equals the algebraic multiplicity; ``stab_dim`` is the
    stabilizer dimension within the quotient.
    """

    alpha: ProjectivePoint
    algebraic_mult: int
    stab_dim: int
    filtration_dims: tuple[int, ...]


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class Decomposition:
    """Full output of :func:`decompose` for one (algebra, functional) pair.

    ``pencil`` is the reduced pencil every other field was built from; the
    theorem suites read it instead of reducing the pairing again.
    ``quotient_filtrations`` stores the levels V^0 <= V^1 <= ... of each
    point as quotient-coordinate frames, each fixing its level with nil;
    ``filtrations`` and ``v_spaces`` lift them to the full algebra on first
    access.  Level 0 is Stab(alpha), which does not depend on the shift, so
    the shift-independence suite starts its filtrations from it."""

    pencil: ReducedPencil
    chi: HomogeneousPoly
    points: tuple[SpectrumPoint, ...]
    quotient_filtrations: dict[ProjectivePoint, tuple[np.ndarray, ...]]
    alpha0_used: complex | None
    tol: float
    cluster_tol: float
    checks: tuple[InvariantCheck, ...]

    @cached_property
    def filtrations(self) -> dict[ProjectivePoint, tuple[Subspace, ...]]:
        """The levels of each point as subspaces of the full algebra, each
        containing nil."""
        return {
            alpha: tuple(_lift(self.pencil, w, self.tol) for w in frames)
            for alpha, frames in self.quotient_filtrations.items()
        }

    @property
    def v_spaces(self) -> dict[ProjectivePoint, Subspace]:
        """V(alpha), the last filtration level, of each point."""
        return {alpha: levels[-1] for alpha, levels in self.filtrations.items()}

    @property
    def nil(self) -> Subspace:
        return self.pencil.nil

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def quotient_dim(self) -> int:
        return self.pencil.K

    def point_at(self, alpha: ProjectivePoint, tol: float | None = None) -> SpectrumPoint | None:
        from .linalg import projective_close

        t = self.cluster_tol if tol is None else tol
        for p in self.points:
            if projective_close(p.alpha, alpha, t):
                return p
        return None


def char_poly(rp: ReducedPencil) -> HomogeneousPoly:
    """Homogeneous characteristic polynomial det(lam a~ + mu a~^T),
    interpolated from K + 1 determinants (:func:`algscope.linalg.det_poly`):
    independent of the spectrum, whose eigenvalues give :func:`decompose`
    its chi."""
    return det_poly(rp.a_tilde, rp.at_tilde)


def _pencil_stack(rps: list[ReducedPencil]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The a~, the a~^T and the pencil scales of pencils of one size K >= 1,
    stacked."""
    return (
        np.stack([rp.a_tilde for rp in rps]),
        np.stack([rp.at_tilde for rp in rps]),
        np.array([rp.pencil_scale() for rp in rps]),
    )


def _shift_regularities(
    a: np.ndarray, at: np.ndarray, scales: np.ndarray, alpha0: complex
) -> np.ndarray:
    """sigma_min / max(sigma_max, (1 + |alpha0|) scale) of the shifted
    pencil a - alpha0 at, for each pencil of the stack (a, at) with pencil
    scales ``scales``, from one values-only SVD."""
    s = np.linalg.svd(a - alpha0 * at, compute_uv=False)
    return s[:, -1] / np.maximum(s[:, 0], (1.0 + abs(alpha0)) * scales)


def _draw_shift(rng: np.random.Generator) -> complex:
    """A random modulus in [0.5, 2] with a random phase."""
    modulus = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return complex(modulus * np.cos(phase), modulus * np.sin(phase))


def choose_alpha0(rp: ReducedPencil, seed: int = 0, floor: float = 1e-8) -> complex:
    """Draw a regular shift: random modulus in [0.5, 2], random phase,
    accepted when the shifted pencil is comfortably nonsingular.

    Deterministic for a fixed seed; tries up to 64 samples and raises
    :class:`NoRegularValue` if all fall below ``floor``, reporting the best
    regularity reached.  It raises the subclass :class:`SingularPencil` when
    ``a~^T - alpha a~`` then has rank below K at K + 1 further distinct draws
    of alpha: a regular pencil is singular at no more than K points, so this
    one is singular for every alpha.
    """
    if rp.K < 1:
        raise NoRegularValue("empty pencil has no spectrum to shift into")
    (alpha0,) = _choose_alpha0s([rp], seed, floor)
    if isinstance(alpha0, Exception):
        raise alpha0
    return alpha0


def _choose_alpha0s(
    rps: list[ReducedPencil], seed: int = 0, floor: float = 1e-8
) -> list[complex | NoRegularValue]:
    """:func:`choose_alpha0` of each of the pencils ``rps``, all of one size
    K >= 1 and all with ``seed``, so every pencil sees the same draws.  Each
    draw is tested with one values-only SVD over the pencils still waiting;
    a pencil that finds no shift gets in its place the error
    :func:`choose_alpha0` would raise."""
    rng = np.random.default_rng(seed)
    a, at, scales = _pencil_stack(rps)
    out: list = [None] * len(rps)
    best = [0.0] * len(rps)
    waiting = np.arange(len(rps))
    for _ in range(64):
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
    more_draws = [_draw_shift(rng) for _ in range(rps[0].K + 1)]
    for j in waiting.tolist():
        out[j] = _no_shift_error(rps[j], best[j], floor, more_draws)
    return out


def _no_shift_error(
    rp: ReducedPencil, best: float, floor: float, more_draws: list[complex]
) -> NoRegularValue:
    """Why no shift was found for ``rp``: :class:`SingularPencil` when
    ``a~^T - alpha a~`` has rank below K at each of the K + 1 draws
    ``more_draws``, decided at the pencil's own rank tolerance,
    :class:`NoRegularValue` otherwise."""
    failure = (
        f"no regular shift found in 64 samples: the best regularity of the shifted pencil "
        f"(sigma_min / scale) was {best:.3e}, below the floor {floor:.1e}"
    )
    top = 0
    for alpha in more_draws:
        m, scale = _slot_one_operator(rp, ProjectivePoint.finite(alpha))
        top = max(top, rank(m, rp.nil.tol, scale=scale))
    if top < rp.K:
        return SingularPencil(
            f"the pencil is singular for every alpha; F is not generic: a~^T - alpha a~ has "
            f"rank at most {top} of {rp.K} at {rp.K + 1} distinct alpha; {failure}"
        )
    return NoRegularValue(failure)


def spectrum(
    rp: ReducedPencil, alpha0: complex, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> list[tuple[ProjectivePoint, int, np.ndarray | None]]:
    """Spectral points with algebraic multiplicities, sorted by modulus then
    phase with infinity last, each with the quotient frame of Stab(alpha)
    when its multiplicity is 1 (None otherwise).

    :func:`algscope.linalg.pencil_eigen` gives both, from one values-only
    SVD that tests the shift ``alpha0`` and one eigendecomposition of the
    pencil ``a~^T - alpha a~`` through it.  That pencil has the spectrum of
    ``a~ - alpha a~^T``, its transpose, and its eigenvectors span the
    kernels of ``a~^T - alpha a~``, the stabilizers.  At a simple point
    1 <= dim Stab(alpha) <= dim V(alpha) = 1, so the eigenvector is the
    whole filtration, with no rank decision.  :func:`decompose` reads chi
    from the eigenvalues of the same eigendecomposition."""
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
    tol: float,
    stab_frame: np.ndarray,
    mult: int,
) -> list[np.ndarray]:
    """Quotient-coordinate frames of V^0 <= V^1 <= ... at ``alpha`` under
    the shift ``alpha0``, climbed from ``stab_frame``, the V^0 =
    Stab(alpha) frame, up to the algebraic multiplicity ``mult`` of
    ``alpha``.

    dim V(alpha) - dim nil equals ``mult``, so the chain ends at the first
    level of that dimension, with no test that it has stopped growing.  A
    level 0 of full dimension is then the whole chain, with no climb; a
    simple point (mult = 1) is that case.  A level that does not grow ends
    the chain below its multiplicity, which the dimension check of
    :func:`decompose` then reports.  Per level below the end: the
    orthonormal columns of the image under the shifted operator, and the
    next level's nullspace, whose own SVD decides whether the level grows."""
    s_mat, s_scale = _slot_one_operator(rp, alpha)
    t_mat, t_scale = _slot_one_operator(rp, ProjectivePoint.finite(alpha0))
    chain = [stab_frame]
    while chain[-1].shape[1] < mult:
        image = orthonormal_columns(t_mat @ chain[-1], tol, scale=t_scale)
        off_image = s_mat - image @ (image.conj().T @ s_mat)
        nxt = nullspace(off_image, tol, scale=s_scale).frame
        if nxt.shape[1] <= chain[-1].shape[1]:
            break
        chain.append(nxt)
    return chain


def _lift_frame(rp: ReducedPencil, quotient_frame_cols: np.ndarray) -> np.ndarray:
    """Frame of the preimage in the full algebra: the quotient directions
    ``Q w``, then all of nil.  ``[Q, nil]`` is unitary, so the frame is
    orthonormal when the quotient columns are."""
    return np.hstack([rp.quotient_frame @ quotient_frame_cols, rp.nil.frame])


def _lift(rp: ReducedPencil, quotient_frame_cols: np.ndarray, tol: float) -> Subspace:
    """A filtration level as a subspace of the full algebra: quotient
    directions plus all of nil."""
    return Subspace(rp.nil.ambient_dim, _lift_frame(rp, quotient_frame_cols), tol)


def stab(rp: ReducedPencil, alpha: ProjectivePoint, tol: float = DEFAULT_TOL) -> Subspace:
    """Stabilizer subspace of the full algebra at ``alpha`` (contains nil),
    read from the reduced pencil ``rp`` of (algebra, F).

    Equals {x : F(x z) = alpha F(z x) for all z} for finite alpha and
    {x : F(z x) = 0 for all z} at infinity.
    """
    m, scale = _slot_one_operator(rp, alpha)
    frame = _lift_frame(rp, nullspace(m, tol, scale=scale).frame)
    return Subspace(rp.nil.ambient_dim, frame, tol)


def _stab_residuals(
    rps: list[ReducedPencil], alphas: list[list[ProjectivePoint]], frames: list[list[np.ndarray]]
) -> list[list[float]]:
    """How far each quotient frame ``frames[c][i]`` lies from
    Stab(alphas[c][i]) of the pencil ``rps[c]``, all of one size K: the
    largest ``|(a~^T - alpha a~) w| / ((1 + |alpha|) scale)`` over its
    columns w, ``|a~ w| / scale`` at infinity, with ``scale`` the pencil
    scale, and 0.0 for a frame with no columns.  Since sigma_min <= |S w|
    for a unit w, a residual below ``tol`` means the rank decision at the
    same cutoff would find dim Stab(alpha) >= 1.  The pencils whose frames
    have the same number of columns in all go through two stacked products
    with their columns side by side, which hand each pencil's matrices to
    the routine a pencil alone gets, so a pencil's residuals have the same
    bits in a stack of any size."""
    a, at, scales = _pencil_stack(rps)
    widths = [[w.shape[1] for w in f] for f in frames]
    # per pencil and column: whether its point is infinity, and its value
    infinite = [np.repeat([x.is_infinite for x in row], n) for row, n in zip(alphas, widths)]
    values = [
        np.repeat([0j if x.is_infinite else x.value for x in row], n)
        for row, n in zip(alphas, widths)
    ]
    counts = [sum(n) for n in widths]
    out = [[0.0] * len(f) for f in frames]
    for count in sorted(set(counts) - {0}):
        members = [c for c, n in enumerate(counts) if n == count]
        w = np.stack([np.hstack(frames[c]) for c in members])
        inf = np.array([infinite[c] for c in members], dtype=bool)
        val = np.array([values[c] for c in members])
        a_w = a[members] @ w
        images = np.where(inf[:, None, :], a_w, at[members] @ w - val[:, None, :] * a_w)
        res = np.linalg.norm(images, axis=1) / (
            np.where(inf, 1.0, 1.0 + np.abs(val)) * scales[members, None]
        )
        for c, row in zip(members, res):
            # the largest of each frame's columns, from its first column to
            # the next frame's; the appended 0 gives a trailing empty frame
            # an index
            starts = np.cumsum(widths[c]) - widths[c]
            worst = np.maximum.reduceat(np.append(row, 0.0), starts)
            out[c] = np.where(np.array(widths[c]) > 0, worst, 0.0).tolist()
    return out


def _direct_sum_ranks(
    v_frames: list[list[np.ndarray]], k: int, tol: float
) -> list[tuple[int, int]]:
    """(rank, column count) of each pencil's stacked V(alpha) frames, K rows
    each, at unit scale: one values-only SVD per column count, normally the
    one stack of K x K matrices."""
    stacked = [np.hstack(frames + [np.zeros((k, 0))]) for frames in v_frames]
    counts = [w.shape[1] for w in stacked]
    ranks = [0] * len(stacked)
    for count in sorted(set(counts) - {0}):
        members = [c for c, n in enumerate(counts) if n == count]
        found = stack_ranks([stacked[c] for c in members], tol, [1.0] * len(members))
        for c, r in zip(members, found.tolist()):
            ranks[c] = r
    return list(zip(ranks, counts))


def _log_det_residuals(
    rps: list[ReducedPencil], points: list[list[SpectrumPoint]], seed: int
) -> list[float]:
    """Per pencil of one size K, how far
    r(t) = log|det(a~ - t a~^T)| - sum_i m_i log|t - alpha_i|, the sum over
    its finite points alpha_i of multiplicity m_i, is from a constant:
    max r - min r over ``LOG_DET_NODES`` nodes t.

    det(a~ - t a~^T) = det(a~^T - t a~) = c prod_i (t - alpha_i)^m_i, of
    degree K - m_inf in t, so r is the constant log|c| when the points and
    their multiplicities are right: a wrong count at infinity leaves a trend
    in log|t|, and a wrong finite point or multiplicity a jump.  log|t| is
    uniform over the log moduli of the pencil's nonzero finite points
    widened by 1 on each side ([-1, 1] when it has none), and the phase of
    t uniform; the draws come from a child of ``seed``'s sequence, apart
    from the shift draws, and are shared by the stack.  The determinants
    come from one stacked ``slogdet``, which cannot overflow, and each
    pencil's sum from its own row, so a residual has the same bits in a
    stack of any size."""
    a, at, _ = _pencil_stack(rps)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    u = rng.uniform(size=LOG_DET_NODES)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=LOG_DET_NODES)
    finite = [[p for p in ps if not p.alpha.is_infinite] for ps in points]
    nodes = []
    for ps in finite:
        moduli = [abs(p.alpha.value) for p in ps if p.alpha.value != 0]
        lo, hi = (np.log(min(moduli)) - 1.0, np.log(max(moduli)) + 1.0) if moduli else (-1.0, 1.0)
        nodes.append(np.exp(lo + u * (hi - lo) + 1j * phase))
    t = np.array(nodes)
    # one node at a time: numpy's broadcast over all nodes at once is slower
    mats = np.empty((len(rps), LOG_DET_NODES) + a.shape[1:], dtype=complex)
    for j in range(LOG_DET_NODES):
        mats[:, j] = a - t[:, j, None, None] * at
    _, log_dets = np.linalg.slogdet(mats)
    out = []
    for row, ts, ps in zip(log_dets, t, finite):
        alphas = np.array([p.alpha.value for p in ps], dtype=complex)
        mults = np.array([p.algebraic_mult for p in ps], dtype=float)
        r = row - np.sum(mults * np.log(np.abs(ts[:, None] - alphas)), axis=1)
        out.append(float(r.max() - r.min()))
    return out


def _decomposition_checks(
    rps: list[ReducedPencil],
    points: list[list[SpectrumPoint]],
    v_frames: list[list[np.ndarray]],
    tol: float,
    seed: int,
) -> list[list[InvariantCheck]]:
    """Invariant checks of the decompositions of the reduced pencils
    ``rps``, all of one size K >= 1, run once over the stack; a single
    decomposition is the stack of one, and gets the same bits in a stack of
    any size.

    ``v_frames[c][i]`` is the quotient-coordinate frame of V(alpha) for
    ``points[c][i]``.  The V(alpha) split the algebra over nil exactly when
    the stacked frames have rank equal to both their column count and K;
    once the dimension checks fix the column count at K, this single rank
    test proves the sum is direct and spans, which pairwise intersections
    cannot for three or more spaces.  The ranks take one values-only SVD per
    column count (:func:`_direct_sum_ranks`), the simple points' residuals
    in Stab(alpha) one product over the stack (:func:`_stab_residuals`),
    and the log-determinant test one ``slogdet`` of the stack at
    ``LOG_DET_NODES`` nodes drawn from ``seed`` (:func:`_log_det_residuals`).
    That test reads the pencil and the points, not chi's coefficients,
    whose end ones no threshold separates from roundoff at large K.  Its
    threshold is K sqrt(``tol``): a point off by a relative delta moves r
    by about m delta |alpha| / |t - alpha|, and the points are only as
    accurate as the pencil's eigenvalue conditioning allows, far less
    accurate than ``tol`` on some valid inputs (1e-7, with r moving by
    1.5e-6, on an exact Mat_6 case), while a wrong point or multiplicity
    moves r by order 1.
    """
    k = rps[0].K
    # at a simple point the dimension check holds by construction, so test
    # that the frame lies in Stab(alpha)
    simple = [[p.algebraic_mult == 1 for p in ps] for ps in points]
    residuals = _stab_residuals(
        rps,
        [[p.alpha for p, keep in zip(ps, row) if keep] for ps, row in zip(points, simple)],
        [[w for w, keep in zip(ws, row) if keep] for ws, row in zip(v_frames, simple)],
    )
    off_simple = [max(row, default=0.0) for row in residuals]
    direct_sum = _direct_sum_ranks(v_frames, k, tol)
    drifts = _log_det_residuals(rps, points, seed)
    out = []
    rows = zip(points, v_frames, off_simple, direct_sum, drifts)
    for ps, frames, off, (r, cols), drift in rows:
        total = sum(p.algebraic_mult for p in ps)
        worst = max((abs(w.shape[1] - p.algebraic_mult) for p, w in zip(ps, frames)), default=0)
        out.append(
            [
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
                    drift < k * tol**0.5,
                    drift,
                    f"max - min over {LOG_DET_NODES} nodes t of log|det(a~ - t a~^T)| "
                    "- sum m log|t - alpha|, vs K sqrt(tol)",
                ),
            ]
        )
    return out


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
    dimensions, and a list of invariant checks: multiplicity counts, the
    residual of each simple point's frame in Stab(alpha)
    (``simple_frames_in_stabilizer``), one rank test on the stacked quotient
    frames of all V(alpha) proving that they form a direct sum spanning the
    algebra over nil (``v_spaces_direct_sum``), and one test that the points
    and multiplicities account for det(a~ - t a~^T) up to a constant factor
    at nodes t drawn from ``seed`` (``log_det_matches_spectrum``).  chi
    comes from the eigenvalues of the spectrum's eigendecomposition; it is
    reported, and no check reads its coefficients.  It is
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

    The pairing matrices come from one contraction and both kernels from
    one stacked SVD; each draw of the shift is tested with one
    values-only SVD over the pencils still waiting for one; the spectrum
    takes one ``solve`` and one ``eig``, chi one ``det`` of the shifted
    stack on top of the same eigenvalues, the level 0 of every multiple
    point one nullspace SVD, and the log-determinant check one ``slogdet``
    of the stack at its nodes.  The shift that :func:`choose_alpha0`
    accepts leaves the pencil far from singular, so the spectrum takes it
    without the singular-shift test of :func:`algscope.linalg.pencil_eigen`.
    When functionals fail, the error that the first of them in ``fs``
    raises from :func:`decompose` is raised."""
    rps = _reduce_pencils(alg, list(fs), tol)
    out: list = list(rps)
    groups: dict[int, list[int]] = {}
    for i, rp in enumerate(rps):
        if isinstance(rp, ReducedPencil):
            if rp.K == 0:
                out[i] = _empty_decomposition(alg, rp, tol, cluster_tol)
            else:
                groups.setdefault(rp.K, []).append(i)
    for members in groups.values():
        for i, alpha0 in zip(members, _choose_alpha0s([rps[i] for i in members], seed)):
            out[i] = alpha0
    failed = next((r for r in out if isinstance(r, Exception)), None)
    if failed is not None:
        raise failed
    for members in groups.values():
        decs = _decompose_stack(
            [rps[i] for i in members], [out[i] for i in members], tol, cluster_tol, seed
        )
        for i, dec in zip(members, decs):
            out[i] = dec
    return out


def _empty_decomposition(
    alg: Algebra, rp: ReducedPencil, tol: float, cluster_tol: float
) -> Decomposition:
    """The decomposition of a pencil with K = 0: nil is the whole algebra."""
    chi = HomogeneousPoly(0, np.array([1.0 + 0.0j]))
    checks = (
        InvariantCheck("multiplicities_sum_to_quotient_dim", True, 0.0, "empty spectrum"),
        InvariantCheck(
            "v_spaces_direct_sum", rp.nil.dim == alg.dim, 0.0, "nil is the whole algebra"
        ),
    )
    return Decomposition(rp, chi, (), {}, None, tol, cluster_tol, checks)


def _spectra(
    a: np.ndarray, at: np.ndarray, alpha0s: list[complex], cluster_tol: float
) -> tuple[list[HomogeneousPoly], list[list[tuple[ProjectivePoint, int, np.ndarray | None]]]]:
    """chi and :func:`spectrum` of each pencil of the stack (a, at) at its
    regular shift ``alpha0s[i]``, without the singular-shift test.

    Both come from one ``solve`` and one ``eig``: with S = a~^T - alpha0 a~
    and L the eigenvalues of S^-1 a~, a~ + w a~^T = S (w + (1 + alpha0 w)
    S^-1 a~), so chi(1, w) = det(S) prod_i (w + (1 + alpha0 w) L_i).  That
    takes one ``det`` of the shifted stack and one product per node at the
    K + 1 unit-circle nodes of :func:`algscope.linalg.det_poly`, and the
    same inverse DFT gives the coefficients."""
    shifts = np.array(alpha0s)
    shifted = at - shifts[:, None, None] * a
    lams, spectra = _shifted_eigens(shifted, a, alpha0s, cluster_tol)
    k = a.shape[-1]
    nodes = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))[:, None]
    factors = nodes + (1.0 + shifts[:, None, None] * nodes) * lams[:, None, :]
    values = np.linalg.det(shifted)[:, None] * np.prod(factors, axis=-1)
    return [HomogeneousPoly(k, np.fft.fft(row) / (k + 1)) for row in values], spectra


def _decompose_stack(
    rps: list[ReducedPencil], alpha0s: list[complex], tol: float, cluster_tol: float, seed: int
) -> list[Decomposition]:
    """The decompositions of pencils of one size K >= 1 at their regular
    shifts ``alpha0s``: chi and the spectrum over the stack, then the level
    0 of every multiple point from one stacked nullspace SVD, each chain
    climbed from it up to the point's multiplicity, and the checks, once
    over the stack, with ``seed``."""
    a, at, _ = _pencil_stack(rps)
    chis, spectra = _spectra(a, at, alpha0s, cluster_tol)
    # (pencil, item) of each multiple point, and its Stab(alpha) frame
    multiple = [
        (c, j) for c, raw in enumerate(spectra) for j, item in enumerate(raw) if item[2] is None
    ]
    stab_frames = {}
    if multiple:
        mats, scales = zip(*(_slot_one_operator(rps[c], spectra[c][j][0]) for c, j in multiple))
        for key, (_, space) in zip(multiple, _nullspaces(np.stack(mats), tol, scales)):
            stab_frames[key] = space.frame
    all_points, all_levels = [], []
    for c, (rp, alpha0, raw) in enumerate(zip(rps, alpha0s, spectra)):
        points: list[SpectrumPoint] = []
        quotient_filtrations: dict[ProjectivePoint, tuple[np.ndarray, ...]] = {}
        for j, (alpha, mult, vector) in enumerate(raw):
            # a simple point's eigenvector is its one level; the others climb
            # from their Stab(alpha) up to their multiplicity
            if vector is None:
                frames = _filtration_reduced(rp, alpha, alpha0, tol, stab_frames[c, j], mult)
            else:
                frames = [vector]
            dims = tuple(w.shape[1] + rp.nil.dim for w in frames)
            points.append(SpectrumPoint(alpha, mult, frames[0].shape[1], dims))
            quotient_filtrations[alpha] = tuple(frames)
        all_points.append(points)
        all_levels.append(quotient_filtrations)
    v_frames = [[levels[-1] for levels in q.values()] for q in all_levels]
    checks = _decomposition_checks(rps, all_points, v_frames, tol, seed)
    return [
        Decomposition(rp, chi, tuple(points), levels, alpha0, tol, cluster_tol, tuple(found))
        for rp, chi, points, levels, alpha0, found in zip(
            rps, chis, all_points, all_levels, alpha0s, checks
        )
    ]


def _alpha0_independence(
    rp: ReducedPencil,
    alpha: ProjectivePoint,
    alpha0_a: complex,
    alpha0_b: complex,
    tol: float,
    compare_tol: float,
    stab_frame: np.ndarray,
    mult: int,
) -> tuple[bool, float]:
    """The levels above 0 of the filtration at ``alpha``, climbed from
    ``stab_frame`` under ``alpha0_a`` and under ``alpha0_b``, each ending at
    the multiplicity ``mult``, compared: (all equal, max projector
    distance).

    Both chains share level 0, so it is not compared.  The comparison stops
    at the first level that differs; chains of different dimensions give
    (False, inf)."""
    if not alpha.is_infinite and alpha.value in (alpha0_a, alpha0_b):
        raise NoRegularValue("the shift must differ from the point under study")
    a = _filtration_reduced(rp, alpha, alpha0_a, tol, stab_frame, mult)
    b = _filtration_reduced(rp, alpha, alpha0_b, tol, stab_frame, mult)
    if [w.shape[1] for w in a] != [w.shape[1] for w in b]:
        return False, float("inf")
    worst = 0.0
    for wa, wb in zip(a[1:], b[1:]):
        # the spectral norm, as a values-only SVD that np.linalg.svd counts
        dist = float(np.linalg.svd(wa @ wa.conj().T - wb @ wb.conj().T, compute_uv=False)[0])
        worst = max(worst, dist)
        if not dist < compare_tol:
            return False, worst
    return True, worst
