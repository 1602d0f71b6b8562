"""Executable property suites for the structural theorems of the
decomposition, producing pass/fail findings with residuals and witnesses.

Proved identities (the kernel product relations, shift-independence of the
filtration, product inclusions between filtration levels over pairs of
finite and of nonzero points, the dimension symmetries) must pass on any
valid input; a failure always indicates a defect or a conditioning problem
and carries a witness reproducing the worst case; a passing one names none.
The regular-functional identities hold only at a functional that locally
minimizes the relevant kernel dimension, so the suite provides an empirical
minimizer and a deliberate negative control.  Every suite reads one
analysis: kernels, a decomposition, or a minimizer's reduced pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import Algebra, pairwise_products
from .functional import (
    Functional,
    Kernels,
    ReducedPencil,
    _pairings,
    kernels,
    random_functional,
    reduce_pencil,
)
from .linalg import INFINITY, ProjectivePoint, Subspace, rank, stack_ranks
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    Decomposition,
    _alpha0_independence,
    _lift_frame,
    _stab_residuals,
    choose_alpha0,
    decompose_all,
    stab,
)
from .suite_names import DEFAULT_SUITES, SUITE_NAMES

__all__ = [
    "Finding",
    "verify_kernel_relations",
    "verify_alpha0_suite",
    "verify_v_mult",
    "verify_dim_symmetry",
    "verify_stab_transversality",
    "minimize_stab_dim",
    "verify_regular_perturbation",
    "verify_corollaries",
    "negative_control_finding",
    "PROVED_THEOREMS",
    "OBSERVATIONS",
    "SUITE_NAMES",
    "run_suites",
]

KERNEL_RELATIONS = "KernelRelations"
ALPHA0_INDEPENDENCE = "Alpha0Independence"
V_MULT_FINITE = "VMultFinite"
V_MULT_NONZERO = "VMultNonzero"
DIM_SYMMETRY_V = "DimSymmetryV"
DIM_SYMMETRY_STAB = "DimSymmetryStab"
RANK_ONE_MULTIPLICATIVE = "RankOneMultiplicative"
NIL_IDEAL = "NilIdeal"
REGULAR_PERTURBATION = "RegularPerturbation"
COROLLARY_1 = "Corollary1"
COROLLARY_2 = "Corollary2"
COROLLARY_3 = "Corollary3"
STAB_TRANSVERSALITY = "StabTransversality"

#: findings whose failure can only mean a defect, never a property of the data
PROVED_THEOREMS = frozenset(
    {
        KERNEL_RELATIONS,
        ALPHA0_INDEPENDENCE,
        V_MULT_FINITE,
        V_MULT_NONZERO,
        DIM_SYMMETRY_V,
        DIM_SYMMETRY_STAB,
        RANK_ONE_MULTIPLICATIVE,
        NIL_IDEAL,
    }
)

#: observation-grade findings, reported but never gating an exit code
OBSERVATIONS = frozenset({STAB_TRANSVERSALITY})


@dataclass(frozen=True)
class Finding:
    theorem_id: str
    passed: bool
    max_residual: float
    witness: tuple | None = None
    samples: int = 0
    notes: tuple[str, ...] = ()


def _first_worst(res: np.ndarray, tol: float) -> tuple[float, tuple | None]:
    """The largest of ``res`` (0.0 when empty) and, when it reaches ``tol``,
    its index, the first in C order.  Below ``tol`` the residuals are
    round-off, whose argmax any reordering of the arithmetic moves, so the
    index is None."""
    worst = float(res.max()) if res.size else 0.0
    if worst < tol:
        return worst, None
    return worst, tuple(int(i) for i in np.unravel_index(np.argmax(res), res.shape))


# --------------------------------------------------------------------------
# kernel product relations


def verify_kernel_relations(alg: Algebra, ker: Kernels, tol: float = 1e-8) -> Finding:
    """All seven product inclusions between the left kernel, right kernel,
    their intersection, and the full algebra.

    ``ker`` are the kernels of a functional on ``alg``, as returned by
    :func:`algscope.functional.kernels` or kept by the reduced pencil of a
    decomposition (``dec.pencil.kernels``)."""
    full = Subspace.full(alg.dim, ker.nil.tol)
    relations = [
        ("left*algebra<=left", ker.left, full, ker.left),
        ("algebra*right<=right", full, ker.right, ker.right),
        ("left*right<=nil", ker.left, ker.right, ker.nil),
        ("left*nil<=nil", ker.left, ker.nil, ker.nil),
        ("nil*right<=nil", ker.nil, ker.right, ker.nil),
        ("nil*algebra<=left", ker.nil, full, ker.left),
        ("algebra*nil<=right", full, ker.nil, ker.right),
    ]
    worst = 0.0
    witness = None
    samples = 0
    for name, xs, ys, target in relations:
        if xs.dim == 0 or ys.dim == 0:
            continue
        prods = pairwise_products(alg, xs.frame, ys.frame)
        res = target.residual(prods.reshape(-1, alg.dim).T).reshape(xs.dim, ys.dim)
        samples += res.size
        local, at = _first_worst(res, tol)
        if local > worst:
            worst, witness = local, at and (name,) + at
    return Finding(KERNEL_RELATIONS, worst < tol, worst, witness, samples)


# --------------------------------------------------------------------------
# shift independence


def _suite_shifts(dec: Decomposition, seed: int) -> tuple[complex, complex]:
    """The alpha0 suite's two regular shifts, drawn with seeds ``seed + 1``
    and ``seed + 2``."""
    return choose_alpha0(dec.pencil, seed=seed + 1), choose_alpha0(dec.pencil, seed=seed + 2)


def verify_alpha0_suite(dec: Decomposition, seed: int = 0, tol: float = 1e-8) -> Finding:
    """Shift-independence of the filtration at every spectral point of
    ``dec``, under two random regular shifts drawn with seeds ``seed + 1``
    and ``seed + 2``.

    One rule covers every point.  Level 0, Stab(alpha), does not involve
    the shift, so the decomposition's own frame of it
    (``dec.quotient_filtrations``) must lie in Stab(alpha), with a residual
    below ``dec.tol`` (see :func:`algscope.spectral._stab_residuals`).  A
    chain ends at its multiplicity, so a level 0 of that dimension is the
    whole filtration; a simple point is the case mult = 1.  A point whose
    level 0 is below its multiplicity climbs its filtration from that level
    under each shift, up to the multiplicity, and the levels above 0 must
    agree, with projector distance below ``tol``; levels of different
    dimensions count as unequal, with distance inf.  The shifts are drawn
    only when a point climbs or a failing finding names them.  The residual
    of a point is the largest of these.  A failing finding names as witness
    (alpha, shift_a, shift_b) for the first failing point with the largest
    residual, and a passing one, whose residuals are round-off, names none."""
    if not dec.points:
        return Finding(ALPHA0_INDEPENDENCE, True, 0.0, None, 0, ("empty spectrum",))
    shifts = None
    alphas = [p.alpha for p in dec.points]
    frames = [dec.quotient_filtrations[alpha][0] for alpha in alphas]
    results = []
    (residuals,) = _stab_residuals([dec.pencil], [alphas], [frames])
    for p, w, residual in zip(dec.points, frames, residuals):
        equal, dist = True, 0.0
        if w.shape[1] < p.algebraic_mult:
            shifts = shifts or _suite_shifts(dec, seed)
            equal, dist = _alpha0_independence(
                dec.pencil, p.alpha, *shifts, dec.tol, tol, w, p.algebraic_mult
            )
        results.append((residual < dec.tol and equal, max(residual, dist)))
    worst = max(residual for _, residual in results)
    failing = [i for i, (passed, _) in enumerate(results) if not passed]
    witness = None
    if failing:
        # max keeps the first of equal residuals
        at = max(failing, key=lambda i: results[i][1])
        witness = (alphas[at], *(shifts or _suite_shifts(dec, seed)))
    return Finding(ALPHA0_INDEPENDENCE, not failing, worst, witness, len(results))


# --------------------------------------------------------------------------
# product inclusions between filtration levels


def _target_indices(dec: Decomposition, values: np.ndarray) -> np.ndarray:
    """Index into ``dec.points`` of the point each finite value falls at, or
    -1: :meth:`Decomposition.point_at` (the first point within
    ``cluster_tol``, relative for large values) applied elementwise."""
    finite = np.array([not p.alpha.is_infinite for p in dec.points], dtype=bool)
    alphas = np.array([0j if p.alpha.is_infinite else p.alpha.value for p in dec.points])
    v = values[..., None]
    scale = np.maximum(np.maximum(1.0, np.abs(v)), np.abs(alphas))
    close = (np.abs(v - alphas) <= dec.cluster_tol * scale) & finite
    return np.where(close.any(axis=-1), close.argmax(axis=-1), -1)


def _chunks(widths: list[int], limit: int) -> list[list[int]]:
    """Consecutive indices into ``widths``, split greedily so that each
    chunk's widths sum to at most ``limit``, unless one width alone
    exceeds it."""
    chunks = [[]]
    total = 0
    for i, width in enumerate(widths):
        if chunks[-1] and total + width > limit:
            chunks.append([])
            total = 0
        chunks[-1].append(i)
        total += width
    return chunks


def _product_inclusions(alg: Algebra, dec: Decomposition, tol: float) -> tuple[tuple, tuple]:
    """Check V^k(a) * V^m(b) <= V^{k+m}(a b) for the pairs of spectral points
    of ``dec``, where infinity times a nonzero point is infinity; products
    falling at a non-spectral value must lie in nil.  Returns (worst
    residual, witness, samples) over the pairs of finite points, then over
    the pairs of nonzero points, infinity included.

    The levels are read as the quotient frames W of
    ``dec.quotient_filtrations``, with no lift to :class:`Subspace`: the
    columns ``[Q W, nil]`` of all levels of all points are stacked into one
    matrix and multiplied in one :func:`pairwise_products` call.  Every
    level contains nil and ``[Q, nil]`` is unitary, so a product p lies off
    the level ``[Q W, nil]`` by exactly the part of its quotient
    coordinates c = Q^H p off W, and off nil by all of c: its residual is
    ``|c - W W^H c| / max(1, |p|)``, or ``|c| / max(1, |p|)`` for nil.
    Each product's residual is taken once, against its own target level:
    all coordinates are projected onto the columns of all levels in one
    product, and each keeps only its target's columns.  Products of 0 and
    infinity belong to neither variant.  A variant whose worst
    residual reaches ``tol`` names as witness (a, b, k, m), meaning
    V^k(a) V^m(b), the first quadruple, in the order a, b, k, m over the
    points in spectrum order, whose products reach that residual.  Below
    ``tol`` the residuals are round-off, whose argmax any reordering of the
    arithmetic moves, so a passing variant names no witness.  Every product
    of two of its columns is one sample."""
    if not dec.points:
        return (0.0, None, 0), (0.0, None, 0)
    rp = dec.pencil
    all_levels = [w for p in dec.points for w in dec.quotient_filtrations[p.alpha]]
    n_levels = np.array([len(dec.quotient_filtrations[p.alpha]) for p in dec.points])
    # column c of the stack spans part of level level_of[c] at dec.points[point_of[c]]
    widths = [w.shape[1] + rp.nil.dim for w in all_levels]
    point_of = np.repeat(np.repeat(np.arange(len(dec.points)), n_levels), widths)
    level_of = np.repeat(np.concatenate([np.arange(n) for n in n_levels]), widths)
    stacked = np.hstack([_lift_frame(rp, w) for w in all_levels])
    prods = pairwise_products(alg, stacked, stacked).reshape(-1, alg.dim)

    # the target of each product, as an index into all levels of all points:
    # level min(k + m, last) at the point of alpha * beta (infinity when a
    # factor is), or -1 for nil
    infinite = np.array([p.alpha.is_infinite for p in dec.points], dtype=bool)
    values = np.array([0j if p.alpha.is_infinite else p.alpha.value for p in dec.points])
    finite_col = ~infinite[point_of]
    nonzero_col = (infinite | (values != 0))[point_of]
    at = _target_indices(dec, np.multiply.outer(values, values))
    at[infinite[:, None] | infinite[None, :]] = np.argmax(infinite)
    target_point = at[point_of[:, None], point_of[None, :]]
    first_level = np.cumsum(n_levels) - n_levels
    level = np.minimum(level_of[:, None] + level_of[None, :], n_levels[target_point] - 1)
    target = np.where(target_point >= 0, first_level[target_point] + level, -1).ravel()

    in_variant = [np.outer(cols, cols).ravel() for cols in (finite_col, nonzero_col)]
    covered = in_variant[0] | in_variant[1]
    # each product's quotient coordinates, as a row, and their projection
    # onto its target level; a chunk holds whole levels of at most N columns
    # in all, so no array outgrows the product tensor
    coords = prods @ rp.quotient_frame.conj()
    projected = np.zeros_like(coords)
    for chunk in _chunks([w.shape[1] for w in all_levels], alg.dim):
        cols = np.hstack([all_levels[t] for t in chunk])
        level_of_col = np.repeat(chunk, [all_levels[t].shape[1] for t in chunk])
        onto = coords @ cols.conj()
        onto[target[:, None] != level_of_col] = 0.0
        projected += onto @ cols.T
    off = np.linalg.norm(coords - projected, axis=1)
    res = off / np.maximum(1.0, np.linalg.norm(prods, axis=1))

    def worst_of(members: np.ndarray) -> tuple[float, tuple | None, int]:
        samples = int(members.sum())
        worst = float(res[members].max()) if samples else 0.0
        if worst < tol:
            return worst, None, samples
        rows, cols = np.divmod(np.flatnonzero(members & (res == worst)), len(point_of))
        r, c = min(
            zip(rows, cols),
            key=lambda rc: (point_of[rc[0]], point_of[rc[1]], level_of[rc[0]], level_of[rc[1]]),
        )
        a, b = dec.points[point_of[r]].alpha, dec.points[point_of[c]].alpha
        return worst, (a, b, int(level_of[r]), int(level_of[c])), samples

    return worst_of(in_variant[0]), worst_of(in_variant[1])


def verify_v_mult(alg: Algebra, dec: Decomposition, tol: float = 1e-7) -> list[Finding]:
    """Product inclusions V^k(a) V^m(b) <= V^{k+m}(a b) between the
    filtration levels of ``dec``, one finding per variant: ``VMultFinite``
    over the pairs of finite points and ``VMultNonzero`` over the pairs of
    nonzero points, where infinity times a nonzero point is infinity.  Both
    read one product tensor (see :func:`_product_inclusions`); the witness
    (a, b, k, m) of a failing variant names V^k(a) V^m(b) in ``dec``'s own
    points, and a passing one names none.  The pair (0, infinity) belongs
    to neither variant."""
    finite, nonzero = _product_inclusions(alg, dec, tol)
    notes = ()
    has_zero = any((not p.alpha.is_infinite) and p.alpha.value == 0 for p in dec.points)
    has_inf = any(p.alpha.is_infinite for p in dec.points)
    if has_zero and has_inf:
        notes = ("mixed pair (0, infinity) not covered by either variant; skipped",)
    return [
        Finding(V_MULT_FINITE, finite[0] < tol, *finite, notes),
        Finding(V_MULT_NONZERO, nonzero[0] < tol, *nonzero, notes),
    ]


# --------------------------------------------------------------------------
# dimension symmetries


def _mirror_indices(dec: Decomposition) -> list[int]:
    """Index into ``dec.points`` of the point at the inverse
    (:meth:`ProjectivePoint.inverse`) of each point, or -1:
    :meth:`Decomposition.point_at` applied to every inverse.  The finite
    inverses are looked up at once (:func:`_target_indices`); the inverse of
    0 is infinity, which matches the infinite point."""
    inverses = [p.alpha.inverse() for p in dec.points]
    found = _target_indices(dec, np.array([0j if q.is_infinite else q.value for q in inverses]))
    at_infinity = next((i for i, p in enumerate(dec.points) if p.alpha.is_infinite), -1)
    return [at_infinity if q.is_infinite else int(i) for q, i in zip(inverses, found)]


def verify_dim_symmetry(dec: Decomposition) -> list[Finding]:
    """The spectrum of ``dec`` is closed under alpha -> 1/alpha (0 and
    infinity paired) with exactly equal multiplicities, V dimensions, and
    stabilizer dimensions.  Each finding's witness is the first point, in
    spectrum order, that reaches its largest mismatch, with its mirror or
    "no mirror point".  Each mirror is found by the rule of
    :meth:`Decomposition.point_at`, all of them at once (see
    :func:`_mirror_indices`)."""
    v_mismatch = 0
    stab_mismatch = 0
    v_witness = None
    stab_witness = None
    for p, m in zip(dec.points, _mirror_indices(dec)):
        mirror = dec.points[m] if m >= 0 else None
        if mirror is None:
            if p.algebraic_mult > v_mismatch:
                v_mismatch = p.algebraic_mult
                v_witness = (p.alpha, "no mirror point")
            continue
        dv = abs(p.algebraic_mult - mirror.algebraic_mult) + abs(
            p.filtration_dims[-1] - mirror.filtration_dims[-1]
        )
        if dv > v_mismatch:
            v_mismatch = dv
            v_witness = (p.alpha, mirror.alpha)
        ds = abs(p.stab_dim - mirror.stab_dim)
        if ds > stab_mismatch:
            stab_mismatch = ds
            stab_witness = (p.alpha, mirror.alpha)
    n = len(dec.points)
    return [
        Finding(DIM_SYMMETRY_V, v_mismatch == 0, float(v_mismatch), v_witness, n),
        Finding(DIM_SYMMETRY_STAB, stab_mismatch == 0, float(stab_mismatch), stab_witness, n),
    ]


def verify_stab_transversality(dec: Decomposition) -> Finding:
    """Observation-grade: the stabilizers of distinct spectral points of
    ``dec`` meet only in nil.

    One rank test covers all P(P-1)/2 pairs (``samples``): the stacked
    quotient-coordinate Stab(alpha) frames (level 0 of
    ``dec.quotient_filtrations``) must have rank equal to the sum of the
    stabilizer dimensions, so the stabilizers form a direct sum over nil.
    That implies pairwise transversality, and both hold whenever the
    decomposition's own ``v_spaces_direct_sum`` check passes, since
    Stab(alpha) <= V(alpha).  The residual is the rank deficit and the
    witness the first point whose stabilizer meets the earlier ones.  The
    stabilizers are not asserted to fill the quotient, which fails in
    general."""
    if not dec.points:
        return Finding(STAB_TRANSVERSALITY, True, 0.0, None, 0)
    frames = [dec.quotient_filtrations[p.alpha][0] for p in dec.points]
    stacked = np.hstack(frames)
    ends = np.cumsum([w.shape[1] for w in frames])
    deficit = int(ends[-1]) - rank(stacked, dec.tol, scale=1.0)
    n = len(frames)
    witness = None
    if deficit:
        # the first point whose stabilizer meets the sum of the earlier ones
        prefix_ranks = (rank(stacked[:, :end], dec.tol, scale=1.0) for end in ends)
        first = next(i for i, r in enumerate(prefix_ranks) if r < ends[i])
        witness = (dec.points[first].alpha,)
    return Finding(STAB_TRANSVERSALITY, deficit == 0, float(deficit), witness, n * (n - 1) // 2)


# --------------------------------------------------------------------------
# regular functionals


def _perturbed_coords(
    f_start: Functional, s_basis: list[Functional], samples: int, seed: int
) -> np.ndarray:
    """Coordinates of ``f_start`` and of ``samples`` perturbations
    ``f_start + sum eps_i g_i`` (|eps_i| <= 0.1), one row each.  One
    uniform call draws, per sample and in the order of ``s_basis``, the
    radius and the phase of each eps: the stream of one call per sample."""
    rng = np.random.default_rng(seed)
    directions = np.array([g.coords for g in s_basis], dtype=complex).reshape(-1, f_start.dim)
    draws = rng.uniform([0.0, 0.0], [0.1, 2.0 * np.pi], size=(samples, len(s_basis), 2))
    eps = draws[..., 0] * np.exp(1j * draws[..., 1])
    return np.vstack([f_start.coords, f_start.coords + eps @ directions])


def minimize_stab_dim(
    alg: Algebra,
    lambda0: complex,
    mu0: complex,
    s_basis: list[Functional],
    f_start: Functional,
    samples: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> tuple[Functional, int]:
    """Sample ``f_start + sum eps_i g_i`` with small random eps (|eps| <= 0.1)
    and return the first of ``f_start`` and the samples attaining the
    minimal kernel dimension of ``lambda0 a + mu0 a^T``.

    Rank is lower-semicontinuous, so the minimum over the neighbourhood is the
    generic value and random sampling finds it with overwhelming probability.
    The sample stream is a deterministic function of the seed, evaluated as a
    prefix, so more samples can only lower the result.  The pairing matrices
    of all candidates come from one contraction, their pencil combinations
    and scales are formed as arrays, and their ranks come from one stacked
    values-only SVD (:func:`algscope.linalg.stack_ranks`).  The candidates
    are ranked, never reduced: the suites read the winner's reduced pencil.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    coords = _perturbed_coords(f_start, s_basis, samples, seed)
    a = _pairings(alg, coords)
    combos = lambda0 * a.transpose(0, 2, 1) + mu0 * a
    scales = (abs(lambda0) + abs(mu0)) * np.maximum(np.linalg.norm(a, axis=(1, 2)), 1e-300)
    dims = alg.dim - stack_ranks(combos, tol, scales)
    # the first minimum: a later candidate must be strictly lower to win
    best = int(np.argmin(dims))
    return (Functional(coords[best].copy()) if best else f_start), int(dims[best])


def _stab_pair(rp: ReducedPencil, alpha: ProjectivePoint) -> tuple[Subspace, Subspace]:
    """Stab(alpha) and Stab(1/alpha) of ``rp`` at its own rank tolerance,
    with one nullspace when 1/alpha == alpha."""
    xs = stab(rp, alpha, rp.nil.tol)
    inverse = alpha.inverse()
    return xs, (xs if inverse == alpha else stab(rp, inverse, rp.nil.tol))


def verify_regular_perturbation(
    alg: Algebra,
    rp: ReducedPencil,
    lambda0: complex,
    mu0: complex,
    s_basis: list[Functional],
    tol: float = 1e-6,
) -> Finding:
    """At a kernel-dimension minimizer, every direction G of the perturbation
    space annihilates ``lambda0 x y + mu0 y x`` for x in the kernel of
    ``lambda0 a + mu0 a^T`` and y in the kernel of the swapped combination.
    These are Stab(alpha) and Stab(1/alpha) of the minimizer's reduced
    pencil ``rp`` at alpha = -mu0 / lambda0 (infinity when lambda0 = 0);
    (0, 0) raises :class:`ValueError`."""
    if lambda0 == 0 and mu0 == 0:
        raise ValueError("lambda0 and mu0 must not both be 0")
    alpha = INFINITY if lambda0 == 0 else ProjectivePoint.finite(-mu0 / lambda0)
    xs, ys = _stab_pair(rp, alpha)
    xy = pairwise_products(alg, xs.frame, ys.frame)
    yx = pairwise_products(alg, ys.frame, xs.frame).transpose(1, 0, 2)
    directions = np.array([g.coords for g in s_basis], dtype=complex).reshape(-1, alg.dim)
    w = lambda0 * xy + mu0 * yx
    res = np.abs(w @ directions.T) / (1.0 + np.linalg.norm(directions, axis=1))
    worst, witness = _first_worst(res, tol)
    return Finding(REGULAR_PERTURBATION, worst < tol, worst, witness, res.size)


def verify_corollaries(
    alg: Algebra, rp: ReducedPencil, alpha: ProjectivePoint, tol: float = 1e-6
) -> Finding:
    """Element-level identities at a stabilizer-dimension minimizer, read
    from its reduced pencil ``rp``.

    alpha = 1: the stabilizer is a commutative subalgebra (commutators
    vanish).  alpha = 0: products of Stab(0) with Stab(infinity), the left
    and right kernels ``rp.kernels``, vanish and nil squares to zero.  Other
    finite alpha: x y = alpha y x for x in Stab(alpha), y in Stab(1/alpha).
    """
    if alpha.is_infinite:
        raise ValueError("corollaries are stated for finite alpha")
    if alpha.value == 0:
        ker = rp.kernels
        stab_res = np.linalg.norm(pairwise_products(alg, ker.left.frame, ker.right.frame), axis=-1)
        nil_res = np.linalg.norm(pairwise_products(alg, ker.nil.frame, ker.nil.frame), axis=-1)
        # max keeps the first of equal residuals, as the loop order did
        (worst, at), label = max(
            (_first_worst(stab_res, tol), "stab0*stabinf"),
            (_first_worst(nil_res, tol), "nil*nil"),
            key=lambda found: found[0][0],
        )
        witness = at and (label,) + at
        return Finding(COROLLARY_3, worst < tol, worst, witness, stab_res.size + nil_res.size)
    xs, ys = _stab_pair(rp, alpha)
    xy = pairwise_products(alg, xs.frame, ys.frame)
    yx = pairwise_products(alg, ys.frame, xs.frame).transpose(1, 0, 2)
    worst, witness = _first_worst(np.linalg.norm(xy - alpha.value * yx, axis=-1), tol)
    theorem_id = COROLLARY_2 if alpha.value == 1 else COROLLARY_1
    return Finding(theorem_id, worst < tol, worst, witness, xs.dim * ys.dim)


def negative_control_finding(
    alg: Algebra, tol: float = 1e-6, rank_tol: float = DEFAULT_TOL
) -> Finding:
    """Run the commutativity corollary at a deliberately non-minimizing
    functional (the unit-coordinate functional, whose pairing is symmetric on
    the reference algebras, making Stab(1) the whole algebra), reduced at
    ``rank_tol``.

    The returned finding reports the underlying check; the control *passes*
    exactly when that check fails, guarding against vacuously green suites.
    """
    control = reduce_pencil(alg, Functional(alg.unit.copy()), rank_tol)
    inner = verify_corollaries(alg, control, ProjectivePoint.finite(1.0), tol)
    notes = ("negative control: expected the commutativity check to fail",)
    detected = "control NOT detected" if inner.passed else "control detected"
    return replace(inner, notes=notes + (detected,))


# --------------------------------------------------------------------------
# suite driver


def run_suites(
    alg: Algebra,
    suites: tuple[str, ...] = DEFAULT_SUITES,
    n_functionals: int = 10,
    seed: int = 0,
    rank_tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list[Finding]:
    """Run the selected suites over random functionals; deterministic per
    seed.  The drawn functionals are decomposed as one batch, with ``seed``
    (:func:`algscope.spectral.decompose_all`), and each decomposition equals,
    bit for bit, the one :func:`algscope.spectral.decompose` gives its
    functional alone.  Per-functional suites then loop over the functionals
    and read each one's decomposition; ``v-mult`` checks both of its
    variants on one product tensor of it, in quotient coordinates, so no
    suite lifts a level (``Decomposition.filtrations``); ``kernel-relations``,
    ``nil-ideal`` and ``multiplicative`` read the kernels its reduced pencil
    keeps, or, when no suite needs a decomposition, the functional's
    :func:`algscope.functional.kernels`.  The
    regular-functional suites run once at a sampled minimizer, reduced once
    at ``rank_tol``; ``corollary2`` and ``perturbation`` share its pencil."""
    from .functional import is_multiplicative, nil_ideal_check

    unknown = [s for s in suites if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    rng = np.random.default_rng(seed)
    fs = [random_functional(alg.dim, rng) for _ in range(n_functionals)]
    analysed = {"alpha0", "v-mult", "dim-symmetry", "transversality"}.intersection(suites)
    if analysed:
        decs = decompose_all(alg, fs, seed=seed, tol=rank_tol, cluster_tol=cluster_tol)
    findings: list[Finding] = []
    for index, f in enumerate(fs):
        if analysed:
            dec = decs[index]
            ker = dec.pencil.kernels
        elif {"kernel-relations", "nil-ideal", "multiplicative"}.intersection(suites):
            ker = kernels(alg, f, rank_tol)
        if "kernel-relations" in suites:
            findings.append(verify_kernel_relations(alg, ker))
        if "alpha0" in suites:
            findings.append(verify_alpha0_suite(dec, seed=seed + index))
        if "v-mult" in suites:
            findings.extend(verify_v_mult(alg, dec))
        if "dim-symmetry" in suites:
            findings.extend(verify_dim_symmetry(dec))
        if "transversality" in suites:
            findings.append(verify_stab_transversality(dec))
        if "nil-ideal" in suites:
            rep = nil_ideal_check(alg, ker, rank_tol)
            ok = (not rep.premise_holds) or bool(rep.is_ideal)
            res = 0.0 if not rep.premise_holds else rep.max_residual
            findings.append(
                Finding(NIL_IDEAL, ok, res, None, 1, () if rep.premise_holds else ("premise not met",))
            )
        if "multiplicative" in suites:
            rep = is_multiplicative(alg, f, ker, rank_tol)
            res = 0.0 if math.isnan(rep.max_residual) else rep.max_residual
            findings.append(
                Finding(RANK_ONE_MULTIPLICATIVE, True, res, None, 1, (f"verdict: {rep.verdict}",))
            )
    full_dual = [Functional(row) for row in np.eye(alg.dim, dtype=complex)]
    f_start = fs[0] if fs else random_functional(alg.dim, rng)
    if "corollary2" in suites or "perturbation" in suites:
        f_min, _ = minimize_stab_dim(alg, 1.0, -1.0, full_dual, f_start, seed=seed, tol=rank_tol)
        rp = reduce_pencil(alg, f_min, rank_tol)
        if "corollary2" in suites:
            findings.append(verify_corollaries(alg, rp, ProjectivePoint.finite(1.0)))
        if "perturbation" in suites:
            findings.append(verify_regular_perturbation(alg, rp, 1.0, -1.0, full_dual))
    if "corollary3" in suites:
        f_min0, _ = minimize_stab_dim(alg, 1.0, 0.0, full_dual, f_start, seed=seed, tol=rank_tol)
        rp0 = reduce_pencil(alg, f_min0, rank_tol)
        findings.append(verify_corollaries(alg, rp0, ProjectivePoint.finite(0.0)))
    findings.sort(key=lambda fi: fi.theorem_id)  # stable: preserves input index order
    return findings
