"""Finite-dimensional associative unital algebras given by structure constants.

An algebra of dimension N is stored as the dense tensor ``c`` with
``e_i * e_j = sum_k c[i, j, k] e_k`` together with the coordinates of the
unit element.  Its coordinate form, :attr:`Algebra.coordinates` (the
nonzero entries and their indices, O(nnz)), is found on the first read and
held beside the tensor, so the tensor is scanned once per algebra.
Builders construct the reference algebras used throughout the test corpus:
full matrix algebras, upper-triangular matrices, dual numbers, group
algebras, direct sums, and the opposite algebra.

:func:`validate` checks the axioms exactly.  Its associativity check runs a
sparse kernel over the coordinate form when the nonzero structure constants
are few (the reference algebras: Mat_n has n^3 of n^6) and a blocked dense
kernel over the tensor otherwise (for example after a change of basis); the
nonzero counts choose, and both keep their memory within a fixed block
budget.  The unit check reads the coordinate form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidGroupTable,
    NonFinite,
    ShapeError,
    _check_tolerance,
)

__all__ = [
    "Algebra",
    "Element",
    "ValidationReport",
    "validate",
    "multiply",
    "pairwise_products",
    "mat_algebra",
    "dual_numbers",
    "upper_triangular",
    "group_algebra",
    "direct_sum",
    "opposite",
    "cyclic_table",
    "klein_table",
    "symmetric3_table",
]


@dataclass(frozen=True, eq=False)
class Algebra:
    """Structure-constant model of an associative unital algebra.

    The tensor and the unit are read-only; ``==`` is identity, since the
    fields hold arrays."""

    dim: int
    structure: np.ndarray
    unit: np.ndarray
    basis_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=complex)
        u = np.asarray(self.unit, dtype=complex)
        n = self.dim
        if c.shape != (n, n, n):
            raise ShapeError(f"structure tensor shape {c.shape} does not match dim {n}")
        if u.shape != (n,):
            raise ShapeError(f"unit vector shape {u.shape} does not match dim {n}")
        if c.size and not np.all(np.isfinite(c.real) & np.isfinite(c.imag)):
            raise NonFinite("structure tensor contains NaN or Inf")
        if u.size and not np.all(np.isfinite(u.real) & np.isfinite(u.imag)):
            raise NonFinite("unit vector contains NaN or Inf")
        if self.basis_labels is not None and len(self.basis_labels) != n:
            raise ShapeError("basis_labels length does not match dim")
        c.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "unit", u)

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, k, values)``: the indices of the nonzero ``c[i, j, k]`` in
        C order, as ``np.nonzero`` gives them, and the entries there, real
        when every one is real.  Found on the first read and held read-only;
        no dense copy is kept."""
        index = np.nonzero(self.structure)
        values = self.structure[index]
        if not values.imag.any():
            values = values.real.copy()
        for array in (*index, values):
            array.setflags(write=False)
        return (*index, values)

    def basis_element(self, i: int) -> "Element":
        coords = np.zeros(self.dim, dtype=complex)
        coords[i] = 1.0
        return Element(coords, self.dim)

    def label(self, i: int) -> str:
        if self.basis_labels is not None:
            return self.basis_labels[i]
        return f"e{i}"


@dataclass(frozen=True)
class Element:
    """Coordinate vector of an algebra element in the fixed basis."""

    coords: np.ndarray
    dim: int

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=complex)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"coords shape {v.shape} does not match dim {self.dim}")
        v.setflags(write=False)
        object.__setattr__(self, "coords", v)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    max_assoc_residual: float
    max_unit_residual: float
    witness: tuple[int, int, int] | None


#: bytes allowed per N^4-sized block operand of the dense kernel of
#: :func:`validate`, and for one block's keys and products in its sparse kernel
_VALIDATE_BLOCK_BYTES = 16 * 2**20

#: :func:`validate` runs the sparse kernel when the dense kernel's N^5
#: multiply-adds outnumber the sparse kernel's T products by more than this
#: factor.  Measured on one CPU (numpy 2.4, OpenBLAS on one thread): the dense
#: kernel is 50-250x faster on fully dense tensors (N^5 / T = 0.5), the two
#: break even between N^5 / T = 130 (T near 10^5) and 250 (T near 2 * 10^6),
#: and the sparse kernel is 20-30x faster on Mat_7 and tri_8 (N^5 / T above
#: 5 * 10^4).  Below N = 12 both take well under a millisecond.
_SPARSE_MIN_RATIO = 256


def _axiom_tol(tol: float) -> float:
    """The tolerance at which ``algscope`` checks the axioms of an input
    algebra read at the rank tolerance ``tol``: ``tol``, but never below
    1e-12, so that a tiny ``--tol`` does not fail exact axioms on the
    round-off of their sums.  The negative control decides commutativity
    at the same tolerance."""
    return max(tol, 1e-12)


def validate(alg: Algebra, axiom_tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check associativity and the two-sided unit axiom.

    The associativity residual compares the coordinates of ``(e_i e_j) e_k``
    and ``e_i (e_j e_k)`` for every basis triple; the witness is the first
    triple (in ``i, j, k`` order) with the worst residual when the check
    fails.  Two exact kernels compute it, in real arithmetic when the
    structure constants are real.  They differ only in the order of
    summation, so they give the same witness and residuals equal up to
    rounding.

    - The sparse kernel forms only the T nonzero products ``c[i, j, m]
      c[m, k, l]`` and ``c[j, k, m] c[i, m, l]`` and sums them per
      ``(i, j, k, l)``; a triple that no product touches has residual
      exactly 0, as in the dense kernel.  It works through blocks of pairs
      ``(i, j)`` whose keys and products take at most
      ``_VALIDATE_BLOCK_BYTES`` (16 MiB), about 40 MiB at peak with the sort
      whatever N is.  Only a single pair whose products (at most 2 N^3)
      exceed the budget makes a larger block.
    - The dense kernel forms both sides as matrix products over blocks of
      ``i`` sized to about 16 MiB per operand, so its peak memory stays
      below about 48 MiB up to N = 100 instead of growing like N^4 (about
      300 MiB at N = 49).

    The input chooses the kernel: sparse when ``T = sum_m nnz(c[:, :, m]) *
    (nnz(c[m, :, :]) + nnz(c[:, m, :]))`` is below ``N^5 /
    _SPARSE_MIN_RATIO``, dense otherwise.  The sparse kernel, the realness
    test and the unit residuals read :attr:`Algebra.coordinates`, so only
    the first call on an algebra scans its tensor, and only the dense kernel
    reads it again.  The unit residuals sum ``u[j] c[j, i, k]`` and ``u[j]
    c[i, j, k]`` over the nonzero entries in increasing ``j`` with the
    products as ``np.einsum`` forms them, in real arithmetic when both the
    structure constants and the unit are real, so they equal the residuals
    of the dense contractions bit for bit.  Both residuals are computed on
    every call; nothing of the result is cached.  An ``axiom_tol`` that is
    not a finite number > 0 raises :class:`ValueError`.
    """
    _check_tolerance("axiom_tol", axiom_tol)
    n = alg.dim
    first, second, third, values = alg.coordinates
    real = not np.iscomplexobj(values)
    u = alg.unit
    if real and not u.imag.any():
        # a complex unit would make the unit sums complex
        u = u.real
    if _sparse_pays(n, first, second, third):
        blocks = _assoc_sparse(n, alg.coordinates)
    else:
        blocks = _assoc_dense(np.ascontiguousarray(alg.structure.real) if real else alg.structure)
    max_assoc = 0.0
    witness_at = (0, 0, 0)
    for start, block_max, at in blocks:
        if start == 0 or block_max > max_assoc:
            max_assoc, witness_at = block_max, at

    max_unit = max(
        _unit_residual(n, second * n + third, u[first], values),
        _unit_residual(n, first * n + third, u[second], values),
    )

    passed = max_assoc < axiom_tol and max_unit < axiom_tol
    witness = witness_at if max_assoc >= axiom_tol else None
    return ValidationReport(passed, max_assoc, max_unit, witness)


def _unit_residual(n: int, keys: np.ndarray, u: np.ndarray, values: np.ndarray) -> float:
    """``max |s - I|`` for the N x N sums ``s`` of ``u * values`` at the flat
    ``keys``, each summed in the order of the entries.  A complex product
    takes einsum's form, ``(ac - bd) + (ad + bc) i``, with each part summed
    on its own."""
    if np.iscomplexobj(u):
        re = np.bincount(keys, u.real * values.real - u.imag * values.imag, n * n)
        im = np.bincount(keys, u.real * values.imag + u.imag * values.real, n * n)
        sums = re + 1j * im
    else:
        sums = np.bincount(keys, u * values, n * n)
    return float(np.abs(sums - np.eye(n).ravel()).max(initial=0.0))


def _sparse_pays(n: int, first: np.ndarray, second: np.ndarray, third: np.ndarray) -> bool:
    """Whether the sparse kernel's product count T, from the coordinates of
    the nonzero structure constants, is below N^5 / ``_SPARSE_MIN_RATIO``."""
    per_third = np.bincount(third, minlength=n)
    terms = int(per_third @ (np.bincount(first, minlength=n) + np.bincount(second, minlength=n)))
    return _SPARSE_MIN_RATIO * terms < n**5


def _assoc_dense(c: np.ndarray):
    """Yield ``(start, worst residual, first worst triple)`` per block of
    ``i``, both sides formed as dense matrix products."""
    n = c.shape[0]
    block = max(1, _VALIDATE_BLOCK_BYTES // max(1, c.itemsize * n**3))
    rows = c.reshape(n * n, n)
    cols = c.reshape(n, n * n)
    for start in range(0, n, block):
        blk = c[start : start + block]
        b = blk.shape[0]
        # left[i, j, k, l] = sum_m c[i, j, m] c[m, k, l]
        left = (blk.reshape(b * n, n) @ cols).reshape(b, n, n, n)
        # right[i, j, k, l] = sum_m c[j, k, m] c[i, m, l]
        right = (rows @ blk.transpose(1, 0, 2).reshape(n, b * n)).reshape(n, n, b, n)
        left -= right.transpose(2, 0, 1, 3)
        worst = np.abs(left).max(axis=3)
        i, j, k = np.unravel_index(int(np.argmax(worst)), worst.shape)
        yield start, float(worst.max()), (start + int(i), int(j), int(k))


def _assoc_sparse(n: int, coordinates: tuple[np.ndarray, ...]):
    """Yield ``(start, worst residual, first worst triple)`` per block of
    pairs ``(i, j)``, flattened to ``i * N + j``, from the nonzero products
    alone.

    ``coordinates`` are :attr:`Algebra.coordinates`: the indices of the
    nonzero ``c[i, j, m]`` in C order and their values.  On the left side
    each entry ``(i, j, m)`` meets every ``(m, k, l)``; on the right side
    each entry ``(i, m, l)`` meets every ``(j, k, m)`` whose ``(i, j)`` lies
    in the block.  The products are keyed
    by the flat index of ``(i, j, k, l)``, sorted and summed per key.  A block
    takes consecutive pairs up to ``_VALIDATE_BLOCK_BYTES`` of products, or a
    single pair (at most 2 N^3 products) that exceeds it alone.
    """
    first, second, third, vals = coordinates
    pair = first * n + second
    count_first = np.bincount(first, minlength=n)
    begin_first = np.cumsum(count_first) - count_first
    # the right side's partners (j, k, m), sorted by m and then by j
    by_third = np.argsort(third, kind="stable")
    third_first = (third * n + first)[by_third]
    # products per pair (i, j): each c[i, j, m] meets nnz(c[m, :, :]) entries
    # on the left, each c[i, m, l] meets nnz(c[j, :, m]) on the right
    left = np.bincount(pair, weights=count_first[third], minlength=n * n)
    per_im = np.bincount(pair, minlength=n * n).reshape(n, n).astype(float)
    per_jm = np.bincount(first * n + third, minlength=n * n).reshape(n, n).astype(float)
    done = np.concatenate(([0.0], np.cumsum(left + (per_im @ per_jm.T).ravel())))
    cap = _VALIDATE_BLOCK_BYTES // (8 + vals.itemsize)
    start = 0
    while start < n * n:
        stop = max(start + 1, int(np.searchsorted(done, done[start] + cap, side="right")) - 1)
        # left side: c[i, j, m] c[m, k, l]
        rows = np.arange(*np.searchsorted(pair, (start, stop)))
        a, b = _meet(rows, begin_first[third[rows]], count_first[third[rows]])
        keys = [(pair[a] * n + second[b]) * n + third[b]]
        products = [vals[a] * vals[b]]
        # right side: c[j, k, m] c[i, m, l], with j in the block's part of row i
        rows = np.arange(*np.searchsorted(first, (start // n, (stop - 1) // n + 1)))
        row_start = first[rows] * n
        lo = np.searchsorted(third_first, second[rows] * n + np.clip(start - row_start, 0, n))
        hi = np.searchsorted(third_first, second[rows] * n + np.clip(stop - row_start, 0, n))
        a, b = _meet(rows, lo, hi - lo)
        b = by_third[b]
        keys.append(((first[a] * n + first[b]) * n + second[b]) * n + third[a])
        products.append(-(vals[b] * vals[a]))
        # drop the index arrays before the sort, so that a block peaks near
        # twice its keys and products
        del a, b
        keys = np.concatenate(keys)
        products = np.concatenate(products)
        order = np.argsort(keys)
        keys = keys[order]
        products = products[order]
        del order
        heads = np.flatnonzero(np.diff(keys, prepend=-1))
        residual = np.abs(np.add.reduceat(products, heads))
        block_max = float(residual.max(initial=0.0))
        # the first key with the worst residual, else the block's first triple
        worst = int(keys[heads[int(np.argmax(residual))]]) // n if block_max > 0.0 else start * n
        yield start, block_max, tuple(int(x) for x in np.unravel_index(worst, (n,) * 3))
        start = stop


def _meet(rows: np.ndarray, begins: np.ndarray, counts: np.ndarray):
    """Pair each of ``rows`` with the ``counts`` positions from its ``begins``:
    the repeated rows and the positions, as two aligned index arrays."""
    owners = np.repeat(rows, counts)
    offsets = np.arange(owners.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owners, np.repeat(begins, counts) + offsets


def _coords(x) -> np.ndarray:
    if isinstance(x, Element):
        return x.coords
    return np.asarray(x, dtype=complex)


def multiply(alg: Algebra, x, y) -> Element:
    """Bilinear product ``x * y``; accepts Elements or coordinate arrays."""
    xv, yv = _coords(x), _coords(y)
    if xv.shape != (alg.dim,) or yv.shape != (alg.dim,):
        raise DimensionMismatch("factors do not match the algebra dimension")
    return Element(np.einsum("i,j,ijk->k", xv, yv, alg.structure), alg.dim)


def pairwise_products(alg: Algebra, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All products of columns of ``xs`` with columns of ``ys``.

    Returns an array of shape ``(xs.cols, ys.cols, dim)``.  Stacks of
    frames, ``(..., dim, cols)``, give ``(..., xs.cols, ys.cols, dim)``,
    each pair of frames multiplied by the calls a pair alone gets.
    """
    n = alg.dim
    xt = np.swapaxes(xs, -1, -2)
    left = (xt @ alg.structure.reshape(n, n * n)).reshape(*xt.shape[:-1], n, n)
    return np.swapaxes(ys, -1, -2)[..., None, :, :] @ left


# --------------------------------------------------------------------------
# builders


def mat_algebra(n: int) -> Algebra:
    """Full matrix algebra Mat_n, basis e_{ij} in row-major order."""
    if n < 1:
        raise ShapeError("matrix algebra needs n >= 1")
    dim = n * n
    c = np.zeros((dim, dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                # e_{ij} e_{jm} = e_{im}
                c[i * n + j, j * n + m, i * n + m] = 1.0
    unit = np.zeros(dim, dtype=complex)
    unit[[i * n + i for i in range(n)]] = 1.0
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    return Algebra(dim, c, unit, labels)


def dual_numbers() -> Algebra:
    """2-dimensional algebra with basis {1, eps} and eps^2 = 0."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 1.0
    return Algebra(2, c, np.array([1.0, 0.0]), ("1", "eps"))


def upper_triangular(n: int) -> Algebra:
    """Algebra of upper-triangular n x n matrices."""
    if n < 1:
        raise ShapeError("triangular algebra needs n >= 1")
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: q for q, p in enumerate(pairs)}
    dim = len(pairs)
    c = np.zeros((dim, dim, dim), dtype=complex)
    for p, (i, j) in enumerate(pairs):
        for q, (k, m) in enumerate(pairs):
            if j == k:
                c[p, q, pos[(i, m)]] = 1.0
    unit = np.zeros(dim, dtype=complex)
    for i in range(n):
        unit[pos[(i, i)]] = 1.0
    labels = tuple(f"E{i + 1}{j + 1}" for (i, j) in pairs)
    return Algebra(dim, c, unit, labels)


def _check_group_table(table: list[list[int]]) -> int:
    """The identity index of a Cayley table that is a Latin square."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise InvalidGroupTable("table must be square and non-empty")
    full = set(range(n))
    for i, row in enumerate(table):
        if set(row) != full:
            raise InvalidGroupTable(f"row {i} is not a permutation")
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            raise InvalidGroupTable(f"column {j} is not a permutation")
    identity = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise InvalidGroupTable("no identity element")
    return identity


def group_algebra(cayley_table, labels: tuple[str, ...] | None = None) -> Algebra:
    """Group algebra of a finite group given by its Cayley table.

    ``cayley_table[i][j]`` is the index of the product of the i-th and j-th
    group elements.  A table that is not a group's raises
    :class:`InvalidGroupTable`; :func:`validate` of the algebra names the
    first triple (i, j, k) with ``(g_i g_j) g_k != g_i (g_j g_k)``.
    """
    table = [list(map(int, row)) for row in cayley_table]
    identity = _check_group_table(table)
    n = len(table)
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i, j, table[i][j]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[identity] = 1.0
    alg = Algebra(n, c, unit, labels)
    witness = validate(alg).witness
    if witness is not None:
        raise InvalidGroupTable(f"not associative at {witness}")
    return alg


def cyclic_table(n: int) -> list[list[int]]:
    if n < 1:
        raise InvalidGroupTable("cyclic group needs n >= 1")
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table() -> list[list[int]]:
    """Cayley table of Z/2 x Z/2."""
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def symmetric3_table() -> list[list[int]]:
    """Cayley table of the symmetric group on three letters."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            composed = tuple(p[q[i]] for i in range(3))
            row.append(index[composed])
        table.append(row)
    return table


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product on the direct sum; unit is (1, 1)."""
    n = a.dim + b.dim
    c = np.zeros((n, n, n), dtype=complex)
    c[: a.dim, : a.dim, : a.dim] = a.structure
    c[a.dim :, a.dim :, a.dim :] = b.structure
    unit = np.concatenate([a.unit, b.unit])
    labels = None
    if a.basis_labels is not None and b.basis_labels is not None:
        labels = tuple(f"a.{s}" for s in a.basis_labels) + tuple(f"b.{s}" for s in b.basis_labels)
    return Algebra(n, c, unit, labels)


def opposite(alg: Algebra) -> Algebra:
    """Same space with the reversed product x * y := y x."""
    return Algebra(
        alg.dim, np.ascontiguousarray(alg.structure.transpose(1, 0, 2)), alg.unit, alg.basis_labels
    )
