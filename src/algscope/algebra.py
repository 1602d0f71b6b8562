"""Finite-dimensional associative unital algebras given by structure constants.

An algebra of dimension N is stored as the dense tensor ``c`` with
``e_i * e_j = sum_k c[i, j, k] e_k`` together with the coordinates of the
unit element.  Builders construct the reference algebras used throughout the
test corpus: full matrix algebras, upper-triangular matrices, dual numbers,
group algebras, direct sums, and the opposite algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidGroupTable, NonFinite, ShapeError

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


@dataclass(frozen=True)
class Algebra:
    """Structure-constant model of an associative unital algebra."""

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


#: bytes allowed per N^4-sized block operand in :func:`validate`
_VALIDATE_BLOCK_BYTES = 16 * 2**20


def validate(alg: Algebra, axiom_tol: float = 1e-9) -> ValidationReport:
    """Check associativity and the two-sided unit axiom.

    The associativity residual compares the coordinates of ``(e_i e_j) e_k``
    and ``e_i (e_j e_k)`` for every basis triple; the witness is the first
    triple (in ``i, j, k`` order) with the worst residual when the check
    fails.  Both sides are formed as matrix products over blocks of ``i``
    sized to about 16 MiB per operand, in real arithmetic when the structure
    constants are real.  Peak memory therefore stays below about 48 MiB up to
    N = 100 instead of growing like N^4 (about 300 MiB at N = 49).
    """
    c = alg.structure
    if not c.imag.any():
        c = np.ascontiguousarray(c.real)
    n = alg.dim
    block = max(1, _VALIDATE_BLOCK_BYTES // max(1, c.itemsize * n**3))
    rows = c.reshape(n * n, n)
    cols = c.reshape(n, n * n)
    max_assoc = 0.0
    witness_at = (0, 0, 0)
    for start in range(0, n, block):
        blk = c[start : start + block]
        b = blk.shape[0]
        # left[i, j, k, l] = sum_m c[i, j, m] c[m, k, l]
        left = (blk.reshape(b * n, n) @ cols).reshape(b, n, n, n)
        # right[i, j, k, l] = sum_m c[j, k, m] c[i, m, l]
        right = (rows @ blk.transpose(1, 0, 2).reshape(n, b * n)).reshape(n, n, b, n)
        left -= right.transpose(2, 0, 1, 3)
        worst = np.abs(left).max(axis=3)
        block_max = float(worst.max())
        if start == 0 or block_max > max_assoc:
            max_assoc = block_max
            i, j, k = np.unravel_index(int(np.argmax(worst)), worst.shape)
            witness_at = (start + int(i), int(j), int(k))

    u = alg.unit
    left_unit = np.einsum("j,jik->ik", u, c)
    right_unit = np.einsum("j,ijk->ik", u, c)
    eye = np.eye(n)
    max_unit = float(
        max(
            np.max(np.abs(left_unit - eye)) if left_unit.size else 0.0,
            np.max(np.abs(right_unit - eye)) if right_unit.size else 0.0,
        )
    )

    passed = max_assoc < axiom_tol and max_unit < axiom_tol
    witness = witness_at if max_assoc >= axiom_tol else None
    return ValidationReport(passed, max_assoc, max_unit, witness)


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

    Returns an array of shape ``(xs.cols, ys.cols, dim)``.
    """
    n = alg.dim
    left = (xs.T @ alg.structure.reshape(n, n * n)).reshape(xs.shape[1], n, n)
    return ys.T @ left


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
    """Validate a Cayley table and return the identity index."""
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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InvalidGroupTable(f"not associative at ({i}, {j}, {k})")
    return identity


def group_algebra(cayley_table, labels: tuple[str, ...] | None = None) -> Algebra:
    """Group algebra of a finite group given by its Cayley table.

    ``cayley_table[i][j]`` is the index of the product of the i-th and j-th
    group elements.
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
    return Algebra(n, c, unit, labels)


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
