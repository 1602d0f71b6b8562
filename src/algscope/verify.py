"""Executable property suites for the structural theorems of the
decomposition, producing pass/fail findings with residuals and witnesses.

Proved identities (the kernel product relations, shift-independence of the
filtration, product inclusions between filtration levels over pairs of
finite and of nonzero points, the dimension symmetries) must pass on any
valid input; a failure always indicates a defect or a conditioning problem
and carries a witness reproducing the worst case; a passing one names none.
The kernel-relations suite checks three product relations; the other four
between the kernels follow from them, since nil lies in both kernels, and
that nil is a two-sided ideal when left = right = nil is two of those four.
The regular-functional identities hold at a functional that minimizes the
relevant kernel dimension, as a generic one does; the module provides an
empirical minimizer and a deliberate negative control.  Every suite reads
one analysis, the reduction of each functional: its kernels, its pencil
(the regular-functional suites read the first drawn functional's), or the
decomposition of that pencil.  The alpha0 suite checks the chain each
decomposition reports, comparing it with one chain climbed under a new
shift.

Each per-functional suite is written once, over a list of decompositions
(or of kernels), and :func:`run_suites` runs it once per chunk of its
functionals; the public single-decomposition function is its batch of one.
Both read the suite's residual threshold from one constant of this module
(``KERNEL_RELATIONS_TOL``, ``ALPHA0_TOL``, ``V_MULT_TOL``), as the
regular-functional checks do theirs (``COROLLARY_TOL``,
``REGULAR_PERTURBATION_TOL``).
A batch is grouped so that every stacked product runs on each member's
matrices the routine, at the shapes, that the member gets alone, so each
finding has the same bits in a batch of any size: v-mult and the alpha0
suite group decompositions by their shape (K and the widths of every
point's levels, ``Decomposition._shape``), whose members share one column
layout, and dim-symmetry by their number of points.  Each suite reads a
decomposition's levels by position, ``dec.quotient_filtrations[i]`` the
chain of ``dec.points[i]``, and its shape and its points as arrays, which
the decomposition derives once, on first read; no suite reads chi, so
:func:`run_suites` never forms it.  No stacked operand takes more
than ``_VALIDATE_BLOCK_BYTES`` unless one member alone does.  v-mult
makes one pass per part of a shape group: it stacks the part's layout
(its levels, targets and point lookup) but forms the product tensor of
one member at a time, so it never holds more than one decomposition's
product tensor.  Every product of two frames, the whole algebra among them
as the identity frame, is one :func:`pairwise_products` call, and every
level that v-mult lifts out of the quotient goes through
:func:`algscope.spectral._lift_frame`.

:func:`verify_stab_transversality` is a check of one decomposition that no
suite runs: it follows from the decomposition's own ``v_spaces_direct_sum``
check, since Stab(alpha) <= V(alpha).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
import numpy as np

from .algebra import _VALIDATE_BLOCK_BYTES, Algebra, _axiom_tol, pairwise_products
from .errors import DEFAULT_CLUSTER_TOL, DEFAULT_TOL, _check_tolerance
from .functional import (
    Functional,
    Kernels,
    ReducedPencil,
    _check_dim,
    _check_kernels,
    _groups,
    _pairing_norms,
    _pairings,
    _raise_first,
    _random_functionals,
    _reduce_pencils,
    reduce_pencil,
)
from .linalg import INFINITY, ProjectivePoint, _frame_distance, _span_residuals, rank, stack_ranks
from .spectral import (
    Decomposition,
    _alphas,
    _decompose_pencils,
    _filtration_reduced,
    _lift_frame,
    _point_indices,
    _side_by_side,
    _stab_residuals,
    choose_alpha0,
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
REGULAR_PERTURBATION = "RegularPerturbation"
COROLLARY_1 = "Corollary1"
COROLLARY_2 = "Corollary2"
COROLLARY_3 = "Corollary3"
STAB_TRANSVERSALITY = "StabTransversality"

#: the residual thresholds of the suites, which each suite reads itself, so
#: that a batched finding equals the one its public function gives; the
#: negative control runs the commutativity corollary at ``COROLLARY_TOL``
#: too
KERNEL_RELATIONS_TOL = 1e-8
ALPHA0_TOL = 1e-8
V_MULT_TOL = 1e-7
COROLLARY_TOL = 1e-6
REGULAR_PERTURBATION_TOL = 1e-6


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

#: the three relations: name, left factor, right factor and target, each an
#: index into (left, right, nil, algebra)
_RELATIONS = (
    ("left*algebra<=left", 0, 3, 0),
    ("algebra*right<=right", 3, 1, 1),
    ("left*right<=nil", 0, 1, 2),
)


def _kernel_relations(alg: Algebra, kers: list[Kernels]) -> list[Finding]:
    """:func:`verify_kernel_relations` of each of ``kers``, at
    ``KERNEL_RELATIONS_TOL``: per group of equal kernel dimensions and per
    relation, one stacked :func:`pairwise_products` call, with the whole
    algebra as the identity frame, and one stacked residual.  A relation
    with a factor nil would form combinations of these products, measured
    against the same targets, since nil lies in both kernels.  A member's
    operands take at most 16 N^2 max(kernel dims) <= 16 N^3 bytes, and
    :func:`run_suites` passes chunks of at most ``_VALIDATE_BLOCK_BYTES``
    over 16 N^3 members, so that chunk bounds every group."""
    tol = KERNEL_RELATIONS_TOL
    n = alg.dim
    out: list = [None] * len(kers)
    for dims, members in _groups(tuple(x.dim for x in ker) for ker in kers).items():
        frames = [np.stack([kers[i][t].frame for i in members]) for t in range(3)] + [np.eye(n)]
        dims += (n,)
        b = len(members)
        worst = [0.0] * b
        witness: list = [None] * b
        samples = 0
        for name, x, y, t in _RELATIONS:
            if 0 in (dims[x], dims[y]):
                continue
            prods = pairwise_products(alg, frames[x], frames[y])
            # each product a column, as Subspace.residual takes them
            v = prods.reshape(b, -1, n).transpose(0, 2, 1)
            res = _span_residuals(frames[t], v).reshape(b, *prods.shape[1:3])
            samples += res[0].size
            for r, local in enumerate(res.max(axis=(1, 2)).tolist()):
                if local > worst[r]:
                    _, at = _first_worst(res[r], tol)
                    worst[r], witness[r] = local, at and (name,) + at
        for i, wst, wit in zip(members, worst, witness):
            out[i] = Finding(KERNEL_RELATIONS, wst < tol, wst, wit, samples)
    return out


def verify_kernel_relations(alg: Algebra, ker: Kernels) -> Finding:
    """The product inclusions between the left kernel, right kernel, their
    intersection nil, and the full algebra, at ``KERNEL_RELATIONS_TOL``:
    ``left*algebra<=left``, ``algebra*right<=right`` and
    ``left*right<=nil``.

    ``ker`` are the kernels of a functional on ``alg``, as returned by
    :func:`algscope.functional.kernels` or kept by the reduced pencil of a
    decomposition (``dec.pencil.kernels``).  The four relations with a
    factor nil follow, since nil lies in both kernels: ``left*nil<=nil``
    and ``nil*right<=nil`` from ``left*right<=nil``, ``nil*algebra<=left``
    from ``left*algebra<=left`` and ``algebra*nil<=right`` from
    ``algebra*right<=right``.  When left = right = nil, the last two say
    that nil is a two-sided ideal.  A failing finding names the relation
    and the first worst pair of frame columns.  It runs the stacked suite
    on a batch of one.  Kernels of another dimension raise
    :class:`DimensionMismatch`."""
    _check_kernels(alg, ker)
    return _kernel_relations(alg, [ker])[0]


# --------------------------------------------------------------------------
# shift independence


def _new_shift(dec: Decomposition, seed: int) -> complex:
    """The alpha0 suite's regular shift: drawn with seed ``seed + 1``, or
    with ``seed + 2`` when the first draw is the decomposition's own
    shift."""
    shift = choose_alpha0(dec.pencil, seed=seed + 1)
    return shift if shift != dec.alpha0_used else choose_alpha0(dec.pencil, seed=seed + 2)


def _chain_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """The largest projector distance between the levels above 0 of two
    chains of quotient frames that share level 0, or inf when their level
    widths differ."""
    if [w.shape[1] for w in a] != [w.shape[1] for w in b]:
        return float("inf")
    return max((_frame_distance(wa, wb) for wa, wb in zip(a[1:], b[1:])), default=0.0)


def _alpha0_suite(decs: list[Decomposition], seeds: list[int]) -> list[Finding]:
    """:func:`verify_alpha0_suite` of each of ``decs`` with its own seed, at
    ``ALPHA0_TOL``: one level-0 residual call per shape
    (``Decomposition._shape``), then each climb on its own."""
    residuals = {}
    for members in _groups(dec._shape for dec in decs).values():
        group = [decs[i] for i in members]
        found = _stab_residuals(
            [dec.pencil for dec in group],
            [[p.alpha for p in dec.points] for dec in group],
            [[levels[0] for levels in dec.quotient_filtrations] for dec in group],
        )
        residuals.update(zip(members, found))
    out = []
    for i, (dec, seed) in enumerate(zip(decs, seeds)):
        if not dec.points:
            out.append(Finding(ALPHA0_INDEPENDENCE, True, 0.0, None, 0, ("empty spectrum",)))
            continue
        shift = None
        results = []
        for p, levels, residual in zip(dec.points, dec.quotient_filtrations, residuals[i]):
            dist = 0.0
            if levels[0].shape[1] < p.algebraic_mult:
                shift = shift or _new_shift(dec, seed)
                climbed = _filtration_reduced(
                    dec.pencil, p.alpha, shift, levels[0], p.algebraic_mult
                )
                dist = _chain_distance(levels, climbed)
            results.append((residual < dec.tol and dist < ALPHA0_TOL, max(residual, dist)))
        worst = max(residual for _, residual in results)
        failing = [j for j, (passed, _) in enumerate(results) if not passed]
        witness = None
        if failing:
            # max keeps the first of equal residuals
            at = max(failing, key=lambda j: results[j][1])
            witness = (dec.points[at].alpha, dec.alpha0_used, shift or _new_shift(dec, seed))
        out.append(Finding(ALPHA0_INDEPENDENCE, not failing, worst, witness, len(results)))
    return out


def verify_alpha0_suite(dec: Decomposition, seed: int = 0) -> Finding:
    """Shift-independence of the filtration that ``dec`` reports at every
    spectral point, against a chain climbed under a new random regular
    shift, drawn with seed ``seed + 1`` (``seed + 2`` when that draw is
    ``dec.alpha0_used``).

    One rule covers every point.  Level 0, Stab(alpha), does not involve
    the shift, so the decomposition's own frame of it
    (``dec.quotient_filtrations[i][0]`` at ``dec.points[i]``) must lie in
    Stab(alpha), with a residual below ``dec.tol`` (see
    :func:`algscope.spectral._stab_residuals`).  A chain ends at its
    multiplicity, so a level 0 of that dimension is the whole filtration;
    a simple point is the case mult = 1.  A point whose
    level 0 is below its multiplicity climbs a chain from that level under
    the new shift, up to the multiplicity, and its levels above 0 must
    agree with the reported ones, climbed under ``dec.alpha0_used``, with
    projector distance below ``ALPHA0_TOL``; levels of different
    dimensions count as unequal, with distance inf.  The shift is drawn
    only when a point climbs or a failing finding names it.  The residual
    of a point is the largest of these.  A failing finding names as witness
    (alpha, ``dec.alpha0_used``, new shift) for the first failing point
    with the largest residual, and a passing one, whose residuals are
    round-off, names none.  It runs the stacked suite on a batch of one."""
    return _alpha0_suite([dec], [seed])[0]


# --------------------------------------------------------------------------
# product inclusions between filtration levels


def _group_inclusions(alg: Algebra, decs: list[Decomposition]) -> list[list[Finding]]:
    """:func:`verify_v_mult` of each of ``decs``, decompositions of one
    shape (``Decomposition._shape``): V^k(a) * V^m(b) <= V^{k+m}(a b) for
    the pairs of spectral points, where infinity times a nonzero point is
    infinity; products falling at a non-spectral value must lie in nil.

    The layout, targets and point lookup are taken for all of ``decs`` at
    once; the product tensor, one :func:`pairwise_products` call, is formed
    for one member at a time, and only its row of residuals is kept.  A
    member's columns are its levels side by side, each lifted as
    ``[Q W, nil]`` (:func:`algscope.spectral._lift_frame`) from its
    quotient frame W; at nil = 0, Q is the identity, and the columns are
    the W with no product with Q.  Every level contains nil and
    ``[Q, nil]`` is unitary, so a product p lies off the level
    ``[Q W, nil]`` by exactly the part of its quotient coordinates
    c = Q^H p off W, and off nil by all of c: its residual is
    ``|c - W W^H c| / max(1, |p|)``, or ``|c| / max(1, |p|)`` for nil.
    Each product's residual is taken once, against its own target level:
    all coordinates are projected onto the columns of all levels, in chunks
    of whole levels of at most N columns, and each keeps only its target's
    columns.  :func:`_v_mult` splits a shape group into parts by what it
    holds per member: the lookup's p^3 complex temporaries, for p points,
    and a max(N, cols) square of complex entries, which bounds its frames
    and its per-product arrays.  One member's cols^2 N product tensor does
    not count, since only one is alive.

    ``VMultFinite`` reads the pairs of finite points, ``VMultNonzero`` the
    pairs of nonzero points, infinity included; products of 0 and infinity
    belong to neither variant, which a decomposition with both notes.  A
    variant whose worst residual reaches ``V_MULT_TOL`` names as witness
    (a, b, k, m), meaning V^k(a) V^m(b), the first quadruple, in the order
    a, b, k, m over the points in spectrum order, whose products reach that
    residual.  Below it the residuals are round-off, whose argmax any
    reordering of the arithmetic moves, so a passing variant names no
    witness.  Every product of two of its columns is one sample."""
    n = alg.dim
    b = len(decs)
    nil = decs[0].pencil.nil.dim
    # the layout all members share: per point, its number of levels and its
    # first level among all levels; per level, its width; per column c of a
    # member's stack, the level level_at[c] among all levels it spans part
    # of, the level's W columns then nil's, that level's point point_of[c]
    # and its index level_of[c] in the point's chain
    _, chains = decs[0]._shape
    n_levels = np.array([len(chain) for chain in chains], dtype=int)
    first_level = np.cumsum(n_levels) - n_levels
    width = np.array([w for chain in chains for w in chain], dtype=int)
    level_at = np.repeat(np.arange(len(width)), width + nil)
    point_of = np.repeat(np.arange(len(chains)), n_levels)[level_at]
    level_of = level_at - first_level[point_of]
    cols = len(level_at)

    # the target of each product, as an index into all levels of all points
    # of its decomposition: level min(k + m, last) at the point of
    # alpha * beta (infinity when a factor is), or -1 for nil
    alphas = _alphas(decs)
    values, infinite = alphas
    at_infinity = infinite[:, :, None] | infinite[:, None, :]
    at = _point_indices(decs, alphas, (values[:, :, None] * values[:, None, :], at_infinity))
    target_point = at[:, point_of[:, None], point_of[None, :]]
    level = np.minimum(level_of[:, None] + level_of[None, :], n_levels[target_point] - 1)
    target = np.where(target_point >= 0, first_level[target_point] + level, -1).reshape(b, -1)
    finite_col = ~infinite[:, point_of]
    nonzero_col = (infinite | (values != 0))[:, point_of]
    in_variant = [(x[:, :, None] & x[:, None, :]).reshape(b, -1) for x in (finite_col, nonzero_col)]
    mixed = infinite.any(axis=1) & (~infinite & (values == 0)).any(axis=1)
    note = ("mixed pair (0, infinity) not covered by either variant; skipped",)
    notes = [note if m else () for m in mixed.tolist()]

    # the columns [Q W, nil] of every level; at nil = 0, Q is the identity
    # and the columns are W
    levels = [[w for chain in dec.quotient_filtrations for w in chain] for dec in decs]
    columns = levels
    if nil:
        columns = [[_lift_frame(d.pencil, w) for w in row] for d, row in zip(decs, levels)]
    stacked = _side_by_side(columns)
    # the projection chunks, each whole levels of at most N columns: their
    # frames, conjugated, and per column its level
    chunks = []
    for c in _chunks(width.tolist(), n):
        frames = _side_by_side([row[c[0] : c[-1] + 1] for row in levels])
        chunks.append((frames.conj(), frames, np.repeat(c, width[c])))
    # one decomposition's product tensor at a time: each product's quotient
    # coordinates, as a row, less their projection onto its target level.
    # A row's target lies in one chunk, and every other chunk takes exact
    # zeros off it
    res = np.empty((b, cols * cols))
    for r, dec in enumerate(decs):
        prods = pairwise_products(alg, stacked[r], stacked[r]).reshape(cols * cols, n)
        scale = np.maximum(1.0, np.linalg.norm(prods, axis=1))
        coords = prods @ dec.pencil.quotient_frame.conj() if nil else prods
        del prods
        for conj, frames, level_cols in chunks:
            onto = coords @ conj[r]
            onto[target[r][:, None] != level_cols] = 0.0
            coords -= onto @ frames[r].T
        res[r] = np.linalg.norm(coords, axis=1) / scale

    out: list = [[] for _ in decs]
    for theorem_id, members in zip((V_MULT_FINITE, V_MULT_NONZERO), in_variant):
        samples = members.sum(axis=1).tolist()
        worst = np.where(members, res, -np.inf).max(axis=1, initial=-np.inf).tolist()
        for r, dec in enumerate(decs):
            residual = worst[r] if samples[r] else 0.0
            witness = None
            if residual >= V_MULT_TOL:
                x, y = np.divmod(np.flatnonzero(members[r] & (res[r] == residual)), cols)
                first = np.lexsort((level_of[y], level_of[x], point_of[y], point_of[x]))[0]
                x, y = x[first], y[first]
                a, c = dec.points[point_of[x]].alpha, dec.points[point_of[y]].alpha
                witness = (a, c, int(level_of[x]), int(level_of[y]))
            passed = residual < V_MULT_TOL
            out[r].append(Finding(theorem_id, passed, residual, witness, samples[r], notes[r]))
    return out


def _v_mult(alg: Algebra, decs: list[Decomposition]) -> list[list[Finding]]:
    """:func:`verify_v_mult` of each of ``decs``: one
    :func:`_group_inclusions` call per part of each shape group
    (``Decomposition._shape``), split by :func:`_budget_parts`.  An empty
    spectrum passes both variants with 0 samples."""
    n = alg.dim
    out = [[Finding(V_MULT_FINITE, True, 0.0), Finding(V_MULT_NONZERO, True, 0.0)] for _ in decs]
    for (k, chains), members in _groups(dec._shape for dec in decs).items():
        cols = sum(map(sum, chains)) + sum(map(len, chains)) * (n - k)
        for part in _budget_parts(members, 16 * (len(chains) ** 3 + max(n, cols) ** 2)):
            for i, found in zip(part, _group_inclusions(alg, [decs[i] for i in part])):
                out[i] = found
    return out


def verify_v_mult(alg: Algebra, dec: Decomposition) -> list[Finding]:
    """Product inclusions V^k(a) V^m(b) <= V^{k+m}(a b) between the
    filtration levels of ``dec`` at ``V_MULT_TOL``, one finding per variant:
    ``VMultFinite`` over the pairs of finite points and ``VMultNonzero``
    over the pairs of nonzero points, where infinity times a nonzero point
    is infinity.  Both read one product tensor of the lifted levels (see
    :func:`_group_inclusions`); the witness (a, b, k, m) of a failing
    variant names V^k(a) V^m(b) in ``dec``'s own points, and a passing one
    names none.  The pair (0, infinity) belongs to neither variant.  It
    runs the stacked suite on a batch of one.  A decomposition of another
    dimension raises :class:`DimensionMismatch`."""
    _check_dim(alg, dec.pencil.nil.ambient_dim, "decomposition")
    return _v_mult(alg, [dec])[0]


# --------------------------------------------------------------------------
# dimension symmetries


def _dim_symmetry(decs: list[Decomposition]) -> list[list[Finding]]:
    """:func:`verify_dim_symmetry` of each of ``decs``, the mirrors of all
    points of a group of equal point counts looked up at once
    (:func:`algscope.spectral._point_indices`): a nonzero finite point's is
    1/alpha, infinity's is 0, and 0's is the infinite point."""
    found: list = [[]] * len(decs)
    for members in _groups(len(dec.points) or None for dec in decs).values():
        group = [decs[i] for i in members]
        alphas = _alphas(group)
        values, infinite = alphas
        mirrors = np.divide(1.0, values, out=np.zeros_like(values), where=values != 0)
        at = _point_indices(group, alphas, (mirrors, ~infinite & (values == 0)))
        for i, row in zip(members, at.tolist()):
            found[i] = row
    out = []
    for dec, hits in zip(decs, found):
        # (mismatch, witness) rows of each finding, from a passing one
        v_rows, stab_rows = [(0, None)], [(0, None)]
        for p, m in zip(dec.points, hits):
            if m < 0:
                v_rows.append((p.algebraic_mult, (p.alpha, "no mirror point")))
                continue
            mirror = dec.points[m]
            dv = abs(p.algebraic_mult - mirror.algebraic_mult) + abs(
                p.filtration_dims[-1] - mirror.filtration_dims[-1]
            )
            v_rows.append((dv, (p.alpha, mirror.alpha)))
            stab_rows.append((abs(p.stab_dim - mirror.stab_dim), (p.alpha, mirror.alpha)))
        findings = []
        for theorem_id, rows in ((DIM_SYMMETRY_V, v_rows), (DIM_SYMMETRY_STAB, stab_rows)):
            # max keeps the first of equal mismatches
            mismatch, witness = max(rows, key=lambda row: row[0])
            findings.append(Finding(theorem_id, not mismatch, float(mismatch), witness, len(hits)))
        out.append(findings)
    return out


def verify_dim_symmetry(dec: Decomposition) -> list[Finding]:
    """The spectrum of ``dec`` is closed under alpha -> 1/alpha (0 and
    infinity paired) with exactly equal multiplicities, V dimensions, and
    stabilizer dimensions.  Each finding's witness is the first point, in
    spectrum order, that reaches its largest mismatch, with its mirror or
    "no mirror point".  Each mirror is found by the one point lookup of
    :meth:`Decomposition.point_at`, all of them at once
    (:func:`algscope.spectral._point_indices`).  It runs the stacked suite
    on a batch of one."""
    return _dim_symmetry([dec])[0]


def verify_stab_transversality(dec: Decomposition) -> Finding:
    """The stabilizers of distinct spectral points of ``dec`` meet only in
    nil.

    One rank test covers all P(P-1)/2 pairs (``samples``): the stacked
    quotient-coordinate Stab(alpha) frames (level 0 of each chain of
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
    frames = [levels[0] for levels in dec.quotient_filtrations]
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


def _check_combination(lambda0: complex, mu0: complex):
    """Raise :class:`ValueError` when ``lambda0 a + mu0 a^T`` is (0, 0)."""
    if lambda0 == 0 and mu0 == 0:
        raise ValueError("lambda0 and mu0 must not both be 0")


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
    samples only when its kernel is nonzero.  (0, 0) raises
    :class:`ValueError`, a functional whose dimension is not ``alg.dim``
    :class:`DimensionMismatch`, and a pairing too large for double
    precision the :class:`NonFinite` of :func:`reduce_pencil`.
    """
    _check_combination(lambda0, mu0)
    # the power of two that puts the pair's largest real or imaginary part
    # in [0.5, 1) scales it exactly and leaves the kernel as it is, and no
    # finite pair then overflows the combination or its rank scale
    parts = [complex(lambda0), complex(mu0)]
    _, e = math.frexp(max(abs(x) for z in parts for x in (z.real, z.imag)))
    lambda0, mu0 = (complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in parts)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    for f in [f_start, *s_basis]:
        _check_dim(alg, f.dim, "functional")
    coords = _perturbed_coords(f_start, s_basis, samples, seed)
    a = _pairings(alg, coords)
    scales = (abs(lambda0) + abs(mu0)) * np.maximum(_raise_first(_pairing_norms(a)), 1e-300)
    mats = lambda0 * a.transpose(0, 2, 1) + mu0 * a
    dims = alg.dim - stack_ranks(mats[:1], tol, scales[:1])
    if dims[0]:
        dims = np.concatenate([dims, alg.dim - stack_ranks(mats[1:], tol, scales[1:])])
    # the first minimum: a later candidate must be strictly lower to win
    best = int(np.argmin(dims))
    return (Functional(coords[best].copy()) if best else f_start), int(dims[best])


def _stab_products(
    alg: Algebra, rp: ReducedPencil, alpha: ProjectivePoint
) -> tuple[np.ndarray, np.ndarray]:
    """x y and y x, both indexed [x, y], for the frame columns x of
    Stab(alpha) and y of Stab(1/alpha) of ``rp``.  At 1/alpha == alpha (1 or
    -1) one nullspace and one :func:`pairwise_products` call give both."""
    inverse = alpha.inverse()
    xs = stab(rp, alpha).frame
    if inverse == alpha:
        xy = pairwise_products(alg, xs, xs)
        return xy, xy.transpose(1, 0, 2)
    ys = stab(rp, inverse).frame
    return pairwise_products(alg, xs, ys), pairwise_products(alg, ys, xs).transpose(1, 0, 2)


def verify_regular_perturbation(
    alg: Algebra,
    rp: ReducedPencil,
    lambda0: complex,
    mu0: complex,
    s_basis: list[Functional],
) -> Finding:
    """At a kernel-dimension minimizer, every direction G of the perturbation
    space annihilates ``lambda0 x y + mu0 y x`` for x in the kernel of
    ``lambda0 a + mu0 a^T`` and y in the kernel of the swapped combination,
    up to ``REGULAR_PERTURBATION_TOL``.
    These are Stab(alpha) and Stab(1/alpha) of the minimizer's reduced
    pencil ``rp`` at alpha = -mu0 / lambda0 (infinity when lambda0 = 0),
    multiplied by :func:`_stab_products`.  (0, 0) raises :class:`ValueError`,
    and a pencil or a direction whose dimension is not ``alg.dim``
    :class:`DimensionMismatch`."""
    _check_combination(lambda0, mu0)
    _check_dim(alg, rp.nil.ambient_dim, "reduced pencil")
    for g in s_basis:
        _check_dim(alg, g.dim, "functional")
    alpha = INFINITY if lambda0 == 0 else ProjectivePoint.finite(-mu0 / lambda0)
    xy, yx = _stab_products(alg, rp, alpha)
    directions = np.array([g.coords for g in s_basis], dtype=complex).reshape(-1, alg.dim)
    w = lambda0 * xy + mu0 * yx
    res = np.abs(w @ directions.T) / (1.0 + np.linalg.norm(directions, axis=1))
    tol = REGULAR_PERTURBATION_TOL
    worst, witness = _first_worst(res, tol)
    return Finding(REGULAR_PERTURBATION, worst < tol, worst, witness, res.size)


def verify_corollaries(alg: Algebra, rp: ReducedPencil, alpha: ProjectivePoint) -> Finding:
    """Element-level identities at a stabilizer-dimension minimizer, read
    from its reduced pencil ``rp``, at ``COROLLARY_TOL``.

    alpha = 1: the stabilizer is a commutative subalgebra (commutators
    vanish), and one product call forms x y and y x (:func:`_stab_products`).
    alpha = 0: products of Stab(0) with Stab(infinity), the left and right
    kernels ``rp.kernels``, vanish, from one product call; a failing
    finding's witness is ("stab0*stabinf", i, j).  That nil squares to
    zero follows: nil lies in both kernels, so each product of two of its
    frame columns is a combination of these products.  Other finite
    alpha: x y = alpha y x for x in Stab(alpha), y in Stab(1/alpha).  A
    pencil of another dimension raises :class:`DimensionMismatch`.
    """
    if alpha.is_infinite:
        raise ValueError("corollaries are stated for finite alpha")
    _check_dim(alg, rp.nil.ambient_dim, "reduced pencil")
    tol = COROLLARY_TOL
    if alpha.value == 0:
        ker = rp.kernels
        res = np.linalg.norm(pairwise_products(alg, ker.left.frame, ker.right.frame), axis=-1)
        worst, at = _first_worst(res, tol)
        witness = at and ("stab0*stabinf",) + at
        return Finding(COROLLARY_3, worst < tol, worst, witness, res.size)
    xy, yx = _stab_products(alg, rp, alpha)
    worst, witness = _first_worst(np.linalg.norm(xy - alpha.value * yx, axis=-1), tol)
    theorem_id = COROLLARY_2 if alpha.value == 1 else COROLLARY_1
    return Finding(theorem_id, worst < tol, worst, witness, xy.shape[0] * xy.shape[1])


def negative_control_finding(alg: Algebra, rank_tol: float = DEFAULT_TOL) -> Finding:
    """Run the commutativity corollary at a deliberately non-minimizing
    functional (the unit-coordinate functional, whose pairing is symmetric on
    the reference algebras, making Stab(1) the whole algebra), reduced at
    ``rank_tol``.

    The returned finding reports the underlying check; the control *passes*
    exactly when that check fails, guarding against vacuously green suites.
    On a commutative algebra, whose structure constants are symmetric in
    their first two indices at the axiom tolerance
    (:func:`algscope.algebra._axiom_tol` of ``rank_tol``) of
    ``algscope verify``, no functional fails that check, so the control
    is noted "not applicable" instead of detected or not.  The asymmetry
    ``max |c[i, j, k] - c[j, i, k]|`` is taken over the nonzero entries
    (:attr:`Algebra.coordinates`): a position that is zero on both sides
    adds 0, and one that is zero on one side only is met from the other.
    """
    control = reduce_pencil(alg, Functional(alg.unit.copy()), rank_tol)
    inner = verify_corollaries(alg, control, ProjectivePoint.finite(1.0))
    notes = ("negative control: expected the commutativity check to fail",)
    i, j, k, values = alg.coordinates
    if np.max(np.abs(values - alg.structure[j, i, k]), initial=0.0) < _axiom_tol(rank_tol):
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
    """Run the selected suites, at least one (none, or a string in place
    of the sequence of names, raise :class:`ValueError`), over
    ``n_functionals`` >= 1 random functionals (fewer raise
    :class:`ValueError`); deterministic per seed.  A
    ``rank_tol`` or ``cluster_tol`` that is not a finite number > 0 raises
    :class:`ValueError`.

    Every suite reads one reduction per functional.  The drawn functionals
    are reduced and checked in consecutive chunks, each as one batch: at
    most ``_VALIDATE_BLOCK_BYTES`` over 16 N^3 functionals, the size of a
    product tensor of N columns, so all of them at N <= 16, and only the
    findings of a finished chunk are kept.  A chunk's pencils come from one
    reduction (:func:`algscope.functional._reduce_pencils`), and each
    equals, bit for bit, the one :func:`algscope.functional.reduce_pencil`
    gives its functional alone.  When ``alpha0``, ``v-mult`` or
    ``dim-symmetry`` is selected, those pencils are decomposed with
    ``seed`` (:func:`algscope.spectral._decompose_pencils`), and each
    decomposition equals, bit for bit, the one
    :func:`algscope.spectral.decompose` gives its functional alone; no
    suite reads its checks or its chi, so neither is formed.  The
    functionals come from one draw of the seed's stream, the one
    ``n_functionals`` calls of :func:`algscope.functional.random_functional`
    take.  Each per-functional suite then
    runs once over the chunk, written over its decompositions with stacked
    products, and each finding equals, bit for bit, the one its public
    single-decomposition function gives at the same threshold
    (``KERNEL_RELATIONS_TOL``, ``ALPHA0_TOL``, ``V_MULT_TOL``);
    ``v-mult`` checks both of its variants on one product tensor per
    decomposition, in one pass per shape group, and reads the residuals in
    quotient coordinates, so no suite reads ``Decomposition.filtrations``.
    ``kernel-relations`` reads the
    kernels each pencil keeps; there is no nil-ideal suite, since
    kernel-relations checks that property, and no multiplicative suite,
    since a drawn functional is multiplicative with probability 0
    (:func:`algscope.functional.is_multiplicative` classifies one).  Findings
    are sorted by theorem id, stably, so each theorem's findings follow the
    functionals' order.  ``corollary2`` and ``corollary3`` run once, on the
    first drawn functional: a complex-Gaussian functional misses, with
    probability 1, the algebraic set where a combination's kernel exceeds
    its generic dimension, so :func:`minimize_stab_dim` returns it itself.
    They read the pencil its chunk reduced; when no other suite is
    selected, only that functional is reduced."""
    if isinstance(suites, str):
        raise ValueError(
            f"suites must be a sequence of suite names, not the string {suites!r}; "
            f"pass ({suites!r},)"
        )
    unknown = [s for s in suites if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    if not suites:
        raise ValueError("suites must name at least one suite")
    if n_functionals < 1:
        raise ValueError("n_functionals must be >= 1")
    _check_tolerance("cluster_tol", cluster_tol)
    fs = _random_functionals(alg.dim, np.random.default_rng(seed), n_functionals)
    decomposing = {"alpha0", "v-mult", "dim-symmetry"}.intersection(suites)
    # the points of the selected corollaries, which read fs[0]'s pencil
    corollaries = {"corollary2": 1.0, "corollary3": 0.0}
    points = [ProjectivePoint.finite(x) for s, x in corollaries.items() if s in suites]
    chunks = _budget_parts(list(range(len(fs))), 16 * alg.dim**3)
    if set(suites) <= corollaries.keys():
        chunks = [[0]]
    findings: list[Finding] = []
    for chunk in chunks:
        rps = _reduce_pencils(alg, [fs[i] for i in chunk], rank_tol)
        if decomposing:
            decs = _decompose_pencils(rps, seed, cluster_tol)
        kers = [rp.kernels for rp in _raise_first(rps)]
        if chunk[0] == 0:
            findings += [verify_corollaries(alg, rps[0], p) for p in points]
        if "kernel-relations" in suites:
            findings += _kernel_relations(alg, kers)
        if "alpha0" in suites:
            findings += _alpha0_suite(decs, [seed + i for i in chunk])
        if "v-mult" in suites:
            findings += [f for pair in _v_mult(alg, decs) for f in pair]
        if "dim-symmetry" in suites:
            findings += [f for pair in _dim_symmetry(decs) for f in pair]
    findings.sort(key=lambda fi: fi.theorem_id)
    return findings
