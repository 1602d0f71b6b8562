"""Executable property suites for the structural theorems of the
decomposition, producing pass/fail findings with residuals and witnesses.

Proved identities (the kernel product relations, shift-independence of the
filtration, product inclusions between filtration levels over pairs of
finite and of nonzero points, the dimension symmetries) must pass on any
valid input; a failure always indicates a defect or a conditioning problem
and carries a witness reproducing the worst case; a passing one names none.
The regular-functional identities hold at a functional that minimizes the
relevant kernel dimension, as a generic one does; the module provides an
empirical minimizer and a deliberate negative control.  Every suite reads
one analysis: kernels, a decomposition, or the reduced pencil of the first
drawn functional, which is the batch's own.

Each per-functional suite is written once, over a list of decompositions
(or of kernels), and :func:`run_suites` runs it once per chunk of its
functionals; the public single-decomposition function is its batch of one.
A batch is grouped so that every stacked product runs on each member's
matrices the routine, at the shapes, that the member gets alone, so each
finding has the same bits in a batch of any size.  No stacked operand takes
more than ``_VALIDATE_BLOCK_BYTES`` unless one member alone does.

:func:`verify_stab_transversality` is a check of one decomposition that no
suite runs: it follows from the decomposition's own ``v_spaces_direct_sum``
check, since Stab(alpha) <= V(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .algebra import _VALIDATE_BLOCK_BYTES, Algebra, pairwise_products
from .errors import DimensionMismatch
from .functional import (
    Functional,
    Kernels,
    ReducedPencil,
    _check_dim,
    _check_kernels,
    _check_pairing,
    _pairings,
    _stack_kernels,
    random_functional,
    reduce_pencil,
)
from .linalg import INFINITY, ProjectivePoint, Subspace, rank, stack_ranks
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    Decomposition,
    _alpha0_independence,
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


def _budget_parts(members: list[int], nbytes: int) -> list[list[int]]:
    """``members`` split into consecutive parts of at most
    ``_VALIDATE_BLOCK_BYTES`` at ``nbytes`` per member."""
    parts = _chunks([nbytes] * len(members), _VALIDATE_BLOCK_BYTES)
    return [[members[j] for j in part] for part in parts if part]


# --------------------------------------------------------------------------
# kernel product relations

#: the seven relations: name, left factor, right factor and target, each an
#: index into (left, right, nil), None standing for the whole algebra
_RELATIONS = (
    ("left*algebra<=left", 0, None, 0),
    ("algebra*right<=right", None, 1, 1),
    ("left*right<=nil", 0, 1, 2),
    ("left*nil<=nil", 0, 2, 2),
    ("nil*right<=nil", 2, 1, 2),
    ("nil*algebra<=left", 2, None, 0),
    ("algebra*nil<=right", None, 2, 1),
)


def _kernel_relations(alg: Algebra, kers: list[Kernels], tol: float) -> list[Finding]:
    """:func:`verify_kernel_relations` of each of ``kers``: per group of
    equal kernel dimensions and per relation, one stacked product, with the
    whole algebra read from the structure tensor, and one stacked
    residual.  A member's operands take at most 16 N^2 max(kernel dims) <=
    16 N^3 bytes, and :func:`run_suites` passes chunks of at most
    ``_VALIDATE_BLOCK_BYTES`` over 16 N^3 members, so that chunk bounds
    every group."""
    n = alg.dim
    s = alg.structure.reshape(n, n * n)
    out: list = [None] * len(kers)
    groups: dict[tuple, list[int]] = {}
    for i, ker in enumerate(kers):
        groups.setdefault(tuple(x.dim for x in ker), []).append(i)
    for dims, members in groups.items():
        frames = [np.stack([kers[i][t].frame for i in members]) for t in range(3)]
        b = len(members)
        worst = [0.0] * b
        witness: list = [None] * b
        samples = 0
        for name, x, y, t in _RELATIONS:
            if 0 in [dims[f] for f in (x, y) if f is not None]:
                continue
            if y is None:
                prods = (np.swapaxes(frames[x], 1, 2) @ s).reshape(b, dims[x], n, n)
            elif x is None:
                prods = np.swapaxes(frames[y], 1, 2)[:, None] @ s.reshape(n, n, n)
            else:
                prods = pairwise_products(alg, frames[x], frames[y])
            # each product a column, as Subspace.residual takes them
            v = prods.reshape(b, -1, n).transpose(0, 2, 1)
            w = frames[t]
            off = v - w @ (w.conj().transpose(0, 2, 1) @ v)
            res = np.linalg.norm(off, axis=1) / np.maximum(1.0, np.linalg.norm(v, axis=1))
            res = res.reshape(b, *prods.shape[1:3])
            samples += res[0].size
            for r, local in enumerate(res.max(axis=(1, 2)).tolist()):
                if local > worst[r]:
                    _, at = _first_worst(res[r], tol)
                    worst[r], witness[r] = local, at and (name,) + at
        for i, wst, wit in zip(members, worst, witness):
            out[i] = Finding(KERNEL_RELATIONS, wst < tol, wst, wit, samples)
    return out


def verify_kernel_relations(alg: Algebra, ker: Kernels, tol: float = 1e-8) -> Finding:
    """All seven product inclusions between the left kernel, right kernel,
    their intersection, and the full algebra.

    ``ker`` are the kernels of a functional on ``alg``, as returned by
    :func:`algscope.functional.kernels` or kept by the reduced pencil of a
    decomposition (``dec.pencil.kernels``).  A failing finding names the
    relation and the first worst pair of frame columns.  It runs the
    stacked suite on a batch of one.  Kernels of another dimension raise
    :class:`DimensionMismatch`."""
    _check_kernels(alg, ker)
    return _kernel_relations(alg, [ker], tol)[0]


# --------------------------------------------------------------------------
# shift independence


def _suite_shifts(dec: Decomposition, seed: int) -> tuple[complex, complex]:
    """The alpha0 suite's two regular shifts, drawn with seeds ``seed + 1``
    and ``seed + 2``."""
    return choose_alpha0(dec.pencil, seed=seed + 1), choose_alpha0(dec.pencil, seed=seed + 2)


def _alpha0_suite(decs: list[Decomposition], seeds: list[int], tol: float) -> list[Finding]:
    """:func:`verify_alpha0_suite` of each of ``decs`` with its own seed:
    one level-0 residual call per K-group, then each climb on its own."""
    groups: dict[int, list[int]] = {}
    for i, dec in enumerate(decs):
        if dec.points:
            groups.setdefault(dec.pencil.K, []).append(i)
    residuals = {}
    for members in groups.values():
        found = _stab_residuals(
            [decs[i].pencil for i in members],
            [[p.alpha for p in decs[i].points] for i in members],
            [[decs[i].quotient_filtrations[p.alpha][0] for p in decs[i].points] for i in members],
        )
        residuals.update(zip(members, found))
    out = []
    for i, (dec, seed) in enumerate(zip(decs, seeds)):
        if not dec.points:
            out.append(Finding(ALPHA0_INDEPENDENCE, True, 0.0, None, 0, ("empty spectrum",)))
            continue
        shifts = None
        results = []
        for p, residual in zip(dec.points, residuals[i]):
            equal, dist = True, 0.0
            w = dec.quotient_filtrations[p.alpha][0]
            if w.shape[1] < p.algebraic_mult:
                shifts = shifts or _suite_shifts(dec, seed)
                equal, dist = _alpha0_independence(
                    dec.pencil, p.alpha, *shifts, dec.tol, tol, w, p.algebraic_mult
                )
            results.append((residual < dec.tol and equal, max(residual, dist)))
        worst = max(residual for _, residual in results)
        failing = [j for j, (passed, _) in enumerate(results) if not passed]
        witness = None
        if failing:
            # max keeps the first of equal residuals
            at = max(failing, key=lambda j: results[j][1])
            witness = (dec.points[at].alpha, *(shifts or _suite_shifts(dec, seed)))
        out.append(Finding(ALPHA0_INDEPENDENCE, not failing, worst, witness, len(results)))
    return out


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
    residual, and a passing one, whose residuals are round-off, names none.
    It runs the stacked suite on a batch of one."""
    return _alpha0_suite([dec], [seed], tol)[0]


# --------------------------------------------------------------------------
# product inclusions between filtration levels


def _point_table(decs: list[Decomposition]):
    """The points of each of ``decs``, padded to the most points, and to
    one at least: (values, finite, infinite, cluster_tol), the value 0 at
    infinity and in the padding, which is neither finite nor infinite."""
    width = max([len(dec.points) for dec in decs] + [1])
    values = np.zeros((len(decs), width), dtype=complex)
    finite = np.zeros((len(decs), width), dtype=bool)
    infinite = np.zeros((len(decs), width), dtype=bool)
    for r, dec in enumerate(decs):
        for j, p in enumerate(dec.points):
            if p.alpha.is_infinite:
                infinite[r, j] = True
            else:
                finite[r, j] = True
                values[r, j] = p.alpha.value
    return values, finite, infinite, np.array([dec.cluster_tol for dec in decs])


def _target_indices(table, values: np.ndarray) -> np.ndarray:
    """Per decomposition r of the :func:`_point_table` ``table``, the index
    into its points of the point each finite value of ``values[r]`` falls
    at, or -1: :meth:`Decomposition.point_at` (the first point within
    ``cluster_tol``, relative for large values) applied elementwise, to all
    decompositions at once."""
    alphas, finite, _, cluster_tol = table
    shape = (len(alphas),) + (1,) * (values.ndim - 1) + (alphas.shape[1],)
    alphas = alphas.reshape(shape)
    v = values[..., None]
    scale = np.maximum(np.maximum(1.0, np.abs(v)), np.abs(alphas))
    near = cluster_tol.reshape(shape[:-1] + (1,)) * scale
    close = (np.abs(v - alphas) <= near) & finite.reshape(shape)
    return np.where(close.any(axis=-1), close.argmax(axis=-1), -1)


def _product_inclusions(alg: Algebra, decs: list[Decomposition], tol: float) -> list[tuple]:
    """Check V^k(a) * V^m(b) <= V^{k+m}(a b) for the pairs of spectral points
    of each of ``decs``, where infinity times a nonzero point is infinity;
    products falling at a non-spectral value must lie in nil.  Returns per
    decomposition (worst residual, witness, samples) over the pairs of
    finite points, then over the pairs of nonzero points, infinity
    included.

    The levels are read as the quotient frames W of
    ``dec.quotient_filtrations``, with no lift to :class:`Subspace`: the
    columns ``[Q W, nil]`` of all levels of all points of a decomposition
    are stacked into one matrix, and the matrices of a group, the
    decompositions with the same K, column count and projection chunks,
    into one array multiplied in one :func:`pairwise_products` call.  Every
    level contains nil and ``[Q, nil]`` is unitary, so a product p lies off
    the level ``[Q W, nil]`` by exactly the part of its quotient
    coordinates c = Q^H p off W, and off nil by all of c: its residual is
    ``|c - W W^H c| / max(1, |p|)``, or ``|c| / max(1, |p|)`` for nil.
    Each product's residual is taken once, against its own target level:
    all coordinates are projected onto the columns of all levels, in chunks
    of whole levels of at most N columns, and each keeps only its target's
    columns.  Products of 0 and infinity belong to neither variant.  A
    variant whose worst residual reaches ``tol`` names as witness
    (a, b, k, m), meaning V^k(a) V^m(b), the first quadruple, in the order
    a, b, k, m over the points in spectrum order, whose products reach
    that residual.  Below ``tol`` the residuals are round-off, whose argmax
    any reordering of the arithmetic moves, so a passing variant names no
    witness.  Every product of two of its columns is one sample."""
    n = alg.dim
    out: list = [((0.0, None, 0), (0.0, None, 0))] * len(decs)
    groups: dict[tuple, list[int]] = {}
    for i, dec in enumerate(decs):
        if dec.points:
            widths = [w.shape[1] for p in dec.points for w in dec.quotient_filtrations[p.alpha]]
            cols = sum(widths) + len(widths) * dec.pencil.nil.dim
            chunks = tuple(sum(widths[t] for t in chunk) for chunk in _chunks(widths, n))
            groups.setdefault((dec.pencil.K, cols, chunks), []).append(i)
    for (_, cols, _), members in groups.items():
        for part in _budget_parts(members, 16 * cols * n * max(n, cols)):
            for i, found in zip(part, _group_inclusions(alg, [decs[i] for i in part], tol)):
                out[i] = found
    return out


def _positions(counts) -> np.ndarray:
    """The index of each item within its run, for consecutive runs of
    ``counts[i]`` items."""
    counts = np.asarray(counts, dtype=int)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _group_inclusions(alg: Algebra, decs: list[Decomposition], tol: float) -> list[tuple]:
    """:func:`_product_inclusions` of one group of decompositions."""
    n = alg.dim
    b = len(decs)
    # the group shares K, so nil has one dimension in all of it
    nil = decs[0].pencil.nil.dim
    chains = [dec.quotient_filtrations[p.alpha] for dec in decs for p in dec.points]
    flat = [w for chain in chains for w in chain]
    table = _point_table(decs)
    values, finite, infinite, _ = table
    # per point of the group, in order: its index in its decomposition and
    # its number of levels (n_levels, 0 in the padding); per column c of a
    # decomposition's stack: the point point_of[c] and the level level_of[c]
    # it spans part of, the level's W columns then nil's
    n_points = [len(dec.points) for dec in decs]
    chain_len = [len(chain) for chain in chains]
    point_index = _positions(n_points)
    n_levels = np.zeros(values.shape, dtype=int)
    n_levels[np.repeat(np.arange(b), n_points), point_index] = chain_len
    width = np.array([w.shape[1] for w in flat], dtype=int)
    span = width + nil
    point_of = np.repeat(np.repeat(point_index, chain_len), span).reshape(b, -1)
    level_of = np.repeat(_positions(chain_len), span).reshape(b, -1)
    cols = point_of.shape[1]
    # per level of the group: its decomposition
    per_dec = n_levels.sum(axis=1)
    level_dec = np.repeat(np.arange(b), per_dec)

    # the target of each product, as an index into all levels of all points
    # of its decomposition: level min(k + m, last) at the point of
    # alpha * beta (infinity when a factor is), or -1 for nil
    rows = np.arange(b)[:, None, None]
    at = _target_indices(table, values[:, :, None] * values[:, None, :])
    either = infinite[:, :, None] | infinite[:, None, :]
    at = np.where(either, infinite.argmax(axis=1)[:, None, None], at)
    target_point = at[rows, point_of[:, :, None], point_of[:, None, :]]
    first_level = np.cumsum(n_levels, axis=1) - n_levels
    level = np.minimum(
        level_of[:, :, None] + level_of[:, None, :], n_levels[rows, target_point] - 1
    )
    target = np.where(target_point >= 0, first_level[rows, target_point] + level, -1)
    target = target.reshape(b, -1)
    finite_col = np.take_along_axis(finite, point_of, axis=1)
    nonzero_col = np.take_along_axis(infinite | (values != 0), point_of, axis=1)
    in_variant = [(x[:, :, None] & x[:, None, :]).reshape(b, -1) for x in (finite_col, nonzero_col)]

    # the columns [Q W, nil] of every level, from one stacked product Q W
    # per width, which runs on each level the routine that Q @ W alone
    # does; no temporary outlives this step
    q = np.stack([dec.pencil.quotient_frame for dec in decs])
    start = np.cumsum(span) - span - level_dec * cols
    stacked = np.empty((b, n, cols), dtype=complex)
    for d in sorted(set(width.tolist())):
        sel = np.flatnonzero(width == d)
        at_cols = start[sel, None] + np.arange(d)
        lifted = q[level_dec[sel]] @ np.stack([flat[t] for t in sel])
        stacked[level_dec[sel, None], :, at_cols] = lifted.swapaxes(1, 2)
    if nil:
        at_cols = (start + width)[:, None] + np.arange(nil)
        nil_frames = np.stack([dec.pencil.nil.frame for dec in decs])[level_dec]
        stacked[level_dec[:, None], :, at_cols] = nil_frames.swapaxes(1, 2)
        del nil_frames
    del q, lifted
    prods = pairwise_products(alg, stacked, stacked).reshape(b, cols * cols, n)
    scale = np.maximum(1.0, np.linalg.norm(prods, axis=2))
    # each product's quotient coordinates, as a row, less their projection
    # onto its target level; chunk s of each decomposition holds whole
    # levels of at most N columns in all, as many in every member, so no
    # array outgrows the product tensor, and at most three of its size are
    # alive at once.  A row's target lies in one chunk, and every other
    # chunk takes exact zeros off it
    coords = prods @ np.stack([dec.pencil.quotient_frame.conj() for dec in decs])
    del prods
    # per level of the group: its index among its decomposition's levels,
    # and its chunk there
    level_at = _positions(per_dec)
    chunks = [_chunks(ws.tolist(), n) for ws in np.split(width, np.cumsum(per_dec)[:-1])]
    chunk_of = np.concatenate([np.repeat(np.arange(len(ch)), list(map(len, ch))) for ch in chunks])
    for s in range(len(chunks[0])):
        sel = np.flatnonzero(chunk_of == s)
        # the members' levels of chunk s side by side, one matrix each
        frames = np.hstack([flat[t] for t in sel]).reshape(decs[0].pencil.K, b, -1)
        frames = np.ascontiguousarray(frames.swapaxes(0, 1))
        level_of_col = np.repeat(level_at[sel], width[sel]).reshape(b, -1)
        onto = coords @ frames.conj()
        onto[target[:, :, None] != level_of_col[:, None, :]] = 0.0
        coords -= onto @ frames.transpose(0, 2, 1)
        del onto
    res = np.linalg.norm(coords, axis=2) / scale

    found = []
    for members in in_variant:
        samples = members.sum(axis=1).tolist()
        worst = np.where(members, res, -np.inf).max(axis=1, initial=-np.inf).tolist()
        variant = []
        for r, dec in enumerate(decs):
            if not samples[r] or worst[r] < tol:
                variant.append((worst[r] if samples[r] else 0.0, None, samples[r]))
                continue
            hit = np.flatnonzero(members[r] & (res[r] == worst[r]))
            p, q = np.divmod(hit, cols)
            x, y = min(
                zip(p, q),
                key=lambda pq: (
                    point_of[r, pq[0]], point_of[r, pq[1]], level_of[r, pq[0]], level_of[r, pq[1]]
                ),
            )
            a, c = dec.points[point_of[r, x]].alpha, dec.points[point_of[r, y]].alpha
            variant.append((worst[r], (a, c, int(level_of[r, x]), int(level_of[r, y])), samples[r]))
        found.append(variant)
    return list(zip(*found))


def _v_mult(alg: Algebra, decs: list[Decomposition], tol: float) -> list[list[Finding]]:
    """:func:`verify_v_mult` of each of ``decs``."""
    out = []
    for dec, (finite, nonzero) in zip(decs, _product_inclusions(alg, decs, tol)):
        notes = ()
        has_zero = any((not p.alpha.is_infinite) and p.alpha.value == 0 for p in dec.points)
        has_inf = any(p.alpha.is_infinite for p in dec.points)
        if has_zero and has_inf:
            notes = ("mixed pair (0, infinity) not covered by either variant; skipped",)
        out.append(
            [
                Finding(V_MULT_FINITE, finite[0] < tol, *finite, notes),
                Finding(V_MULT_NONZERO, nonzero[0] < tol, *nonzero, notes),
            ]
        )
    return out


def verify_v_mult(alg: Algebra, dec: Decomposition, tol: float = 1e-7) -> list[Finding]:
    """Product inclusions V^k(a) V^m(b) <= V^{k+m}(a b) between the
    filtration levels of ``dec``, one finding per variant: ``VMultFinite``
    over the pairs of finite points and ``VMultNonzero`` over the pairs of
    nonzero points, where infinity times a nonzero point is infinity.  Both
    read one product tensor (see :func:`_product_inclusions`); the witness
    (a, b, k, m) of a failing variant names V^k(a) V^m(b) in ``dec``'s own
    points, and a passing one names none.  The pair (0, infinity) belongs
    to neither variant.  It runs the stacked suite on a batch of one.  A
    decomposition of another dimension raises :class:`DimensionMismatch`."""
    _check_dim(alg, dec.pencil.nil.ambient_dim, "decomposition")
    return _v_mult(alg, [dec], tol)[0]


# --------------------------------------------------------------------------
# dimension symmetries


def _dim_symmetry(decs: list[Decomposition]) -> list[list[Finding]]:
    """:func:`verify_dim_symmetry` of each of ``decs``, the mirrors of all
    their points looked up at once in their :func:`_point_table`: a nonzero
    finite point's is 1/alpha, infinity's is 0, and 0's is the infinite
    point."""
    table = _point_table(decs)
    values, finite, infinite, _ = table
    zero = finite & (values == 0)
    mirrors = np.divide(1.0, values, out=np.zeros_like(values), where=finite & ~zero)
    at_infinity = np.where(infinite.any(axis=1), infinite.argmax(axis=1), -1)
    found = np.where(zero, at_infinity[:, None], _target_indices(table, mirrors)).tolist()
    out = []
    for dec, hits in zip(decs, found):
        v_mismatch = stab_mismatch = 0
        v_witness = stab_witness = None
        for p, m in zip(dec.points, hits):
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
        v, stab, n = float(v_mismatch), float(stab_mismatch), len(dec.points)
        out.append(
            [
                Finding(DIM_SYMMETRY_V, not v, v, v_witness, n),
                Finding(DIM_SYMMETRY_STAB, not stab, stab, stab_witness, n),
            ]
        )
    return out


def verify_dim_symmetry(dec: Decomposition) -> list[Finding]:
    """The spectrum of ``dec`` is closed under alpha -> 1/alpha (0 and
    infinity paired) with exactly equal multiplicities, V dimensions, and
    stabilizer dimensions.  Each finding's witness is the first point, in
    spectrum order, that reaches its largest mismatch, with its mirror or
    "no mirror point".  Each mirror is found by the rule of
    :meth:`Decomposition.point_at`, all of them at once (see
    :func:`_target_indices`).  It runs the stacked suite on a batch of one."""
    return _dim_symmetry([dec])[0]


def verify_stab_transversality(dec: Decomposition) -> Finding:
    """The stabilizers of distinct spectral points of ``dec`` meet only in
    nil.

    One rank test covers all P(P-1)/2 pairs (``samples``): the stacked
    quotient-coordinate Stab(alpha) frames (level 0 of
    ``dec.quotient_filtrations``) must have rank equal to the sum of the
    stabilizer dimensions, so the stabilizers form a direct sum over nil.
    That implies pairwise transversality, and both hold whenever the
    decomposition's own ``v_spaces_direct_sum`` check passes, since
    Stab(alpha) <= V(alpha).  The residual is the rank deficit and the
    witness the first point whose stabilizer meets the earlier ones.  The
    stabilizers are not asserted to fill the quotient, which fails in
    general.  No suite runs it."""
    if not dec.points:
        return Finding(STAB_TRANSVERSALITY, True, 0.0, None, 0)
    frames = [dec.quotient_filtrations[p.alpha][0] for p in dec.points]
    stacked = np.hstack(frames)
    ends = np.cumsum([w.shape[1] for w in frames])
    deficit = int(ends[-1]) - rank(stacked, dec.tol, scale=1.0)
    witness = None
    if deficit:
        # the first point whose stabilizer meets the sum of the earlier ones
        prefix = (rank(stacked[:, :end], dec.tol, scale=1.0) for end in ends)
        witness = (dec.points[next(j for j, got in enumerate(prefix) if got < ends[j])].alpha,)
    n = len(frames)
    return Finding(STAB_TRANSVERSALITY, not deficit, float(deficit), witness, n * (n - 1) // 2)


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
    generic value, which a generic ``f_start`` already attains.  The sample
    stream is a deterministic function of the seed, evaluated as a prefix, so
    more samples can only lower the result.  The pairings of all candidates
    come from one contraction, and their ranks from stacked values-only SVDs
    (:func:`algscope.linalg.stack_ranks`): ``f_start`` first, then the
    samples only when its kernel is nonzero.  A functional whose dimension
    is not ``alg.dim`` raises :class:`DimensionMismatch`.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if any(f.dim != alg.dim for f in [f_start, *s_basis]):
        raise DimensionMismatch("functional does not match the algebra dimension")
    coords = _perturbed_coords(f_start, s_basis, samples, seed)
    a = _pairings(alg, coords)
    mats = lambda0 * a.transpose(0, 2, 1) + mu0 * a
    scales = (abs(lambda0) + abs(mu0)) * np.maximum(np.linalg.norm(a, axis=(1, 2)), 1e-300)
    dims = alg.dim - stack_ranks(mats[:1], tol, scales[:1])
    if dims[0]:
        dims = np.concatenate([dims, alg.dim - stack_ranks(mats[1:], tol, scales[1:])])
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
    (0, 0) raises :class:`ValueError`, and a pencil or a direction whose
    dimension is not ``alg.dim`` :class:`DimensionMismatch`."""
    if lambda0 == 0 and mu0 == 0:
        raise ValueError("lambda0 and mu0 must not both be 0")
    _check_dim(alg, rp.nil.ambient_dim, "reduced pencil")
    if any(g.dim != alg.dim for g in s_basis):
        raise DimensionMismatch("functional does not match the algebra dimension")
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
    A pencil of another dimension raises :class:`DimensionMismatch`.
    """
    if alpha.is_infinite:
        raise ValueError("corollaries are stated for finite alpha")
    _check_dim(alg, rp.nil.ambient_dim, "reduced pencil")
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
    On a commutative algebra, whose structure constants are symmetric in
    their first two indices at the axiom tolerance ``max(rank_tol, 1e-12)``
    of ``algscope verify``, no functional fails that check, so the control
    is noted "not applicable" instead of detected or not.
    """
    control = reduce_pencil(alg, Functional(alg.unit.copy()), rank_tol)
    inner = verify_corollaries(alg, control, ProjectivePoint.finite(1.0), tol)
    notes = ("negative control: expected the commutativity check to fail",)
    c = alg.structure
    if np.max(np.abs(c - c.transpose(1, 0, 2))) < max(rank_tol, 1e-12):
        verdict = "not applicable: the algebra is commutative"
    else:
        verdict = "control NOT detected" if inner.passed else "control detected"
    return replace(inner, notes=notes + (verdict,))


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
    seed.  The drawn functionals are decomposed and checked in consecutive
    chunks, each as one batch: at most ``_VALIDATE_BLOCK_BYTES`` over 16 N^3
    functionals, the size of a product tensor of N columns, so all of them
    at N <= 16, and only the findings of a finished chunk are kept.  A
    chunk is decomposed with ``seed`` (:func:`algscope.spectral.decompose_all`),
    and each decomposition equals, bit for bit, the one
    :func:`algscope.spectral.decompose` gives its functional alone; no
    suite reads its checks, so none run.  Each
    per-functional suite then runs once over the chunk, written over its
    decompositions with stacked products, and each finding equals, bit for
    bit, the one its public single-decomposition function gives;
    ``v-mult`` checks both of its variants on one product tensor per group,
    in quotient coordinates, so no suite lifts a level
    (``Decomposition.filtrations``).  ``kernel-relations``, ``nil-ideal``
    and ``multiplicative`` read the kernels each reduced pencil keeps, or,
    when no suite needs a decomposition, the chunk's kernels from one
    stacked SVD of its pairings.  Findings are sorted by theorem id, stably,
    so each theorem's findings follow the functionals' order.
    ``corollary2`` and ``corollary3`` run once, on the first drawn
    functional: a complex-Gaussian functional misses, with probability 1,
    the algebraic set where a combination's kernel exceeds its generic
    dimension, so :func:`minimize_stab_dim` returns it itself.  They read
    the pencil its chunk reduced, which equals, bit for bit, the one
    :func:`algscope.functional.reduce_pencil` gives it, or, when no suite
    decomposes, that call's."""
    from .functional import is_multiplicative, nil_ideal_check

    unknown = [s for s in suites if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    rng = np.random.default_rng(seed)
    fs = [random_functional(alg.dim, rng) for _ in range(n_functionals)]
    analysed = {"alpha0", "v-mult", "dim-symmetry"}.intersection(suites)
    read_kernels = {"kernel-relations", "nil-ideal", "multiplicative"}.intersection(suites)
    findings: list[Finding] = []
    first = None  # the reduced pencil of fs[0], when a chunk decomposed it
    for chunk in _budget_parts(list(range(len(fs))), 16 * alg.dim**3):
        part = [fs[i] for i in chunk]
        if analysed:
            decs = decompose_all(alg, part, seed=seed, tol=rank_tol, cluster_tol=cluster_tol)
            kers = [dec.pencil.kernels for dec in decs]
            if first is None:
                first = decs[0].pencil
        elif read_kernels:
            pairings = _pairings(alg, np.array([f.coords for f in part]))
            _check_pairing(pairings, rank_tol)
            kers = _stack_kernels(pairings, rank_tol)
        if "kernel-relations" in suites:
            findings += _kernel_relations(alg, kers, 1e-8)
        if "alpha0" in suites:
            findings += _alpha0_suite(decs, [seed + i for i in chunk], 1e-8)
        if "v-mult" in suites:
            findings += [f for pair in _v_mult(alg, decs, 1e-7) for f in pair]
        if "dim-symmetry" in suites:
            findings += [f for pair in _dim_symmetry(decs) for f in pair]
        if "nil-ideal" in suites:
            for ker in kers:
                rep = nil_ideal_check(alg, ker, rank_tol)
                ok = (not rep.premise_holds) or bool(rep.is_ideal)
                res = 0.0 if not rep.premise_holds else rep.max_residual
                notes = () if rep.premise_holds else ("premise not met",)
                findings.append(Finding(NIL_IDEAL, ok, res, None, 1, notes))
        if "multiplicative" in suites:
            for f, ker in zip(part, kers):
                rep = is_multiplicative(alg, f, ker, rank_tol)
                res = 0.0 if math.isnan(rep.max_residual) else rep.max_residual
                notes = (f"verdict: {rep.verdict}",)
                findings.append(Finding(RANK_ONE_MULTIPLICATIVE, True, res, None, 1, notes))
    if {"corollary2", "corollary3"}.intersection(suites):
        if first is None:
            first = reduce_pencil(alg, fs[0] if fs else random_functional(alg.dim, rng), rank_tol)
        if "corollary2" in suites:
            findings.append(verify_corollaries(alg, first, ProjectivePoint.finite(1.0)))
        if "corollary3" in suites:
            findings.append(verify_corollaries(alg, first, ProjectivePoint.finite(0.0)))
    findings.sort(key=lambda fi: fi.theorem_id)
    return findings
