import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algscope import (
    Algebra,
    InvalidGroupTable,
    cyclic_table,
    direct_sum,
    dual_numbers,
    group_algebra,
    klein_table,
    mat_algebra,
    multiply,
    opposite,
    pairwise_products,
    symmetric3_table,
    upper_triangular,
    validate,
)
from algscope import algebra as algebra_module

from oracles import validate_naive

ALL_BUILDERS = [
    mat_algebra(1),
    mat_algebra(2),
    mat_algebra(3),
    dual_numbers(),
    upper_triangular(2),
    upper_triangular(3),
    group_algebra(cyclic_table(2)),
    group_algebra(cyclic_table(5)),
    group_algebra(klein_table()),
    group_algebra(symmetric3_table()),
    direct_sum(mat_algebra(2), dual_numbers()),
    opposite(mat_algebra(2)),
    opposite(upper_triangular(3)),
]


@pytest.mark.parametrize("alg", ALL_BUILDERS, ids=lambda a: f"dim{a.dim}")
def test_every_builder_passes_validation(alg):
    report = validate(alg, 1e-12)
    assert report.passed, report


def test_equality_is_identity():
    # the generated field comparison would take the truth value of arrays
    first, second = mat_algebra(2), mat_algebra(2)
    assert first == first
    assert not first == second
    assert first != second


def test_mat_algebra_shape_and_unit():
    alg = mat_algebra(1)
    assert alg.dim == 1 and alg.structure[0, 0, 0] == 1.0
    alg = mat_algebra(2)
    assert alg.dim == 4
    np.testing.assert_array_equal(alg.unit, [1, 0, 0, 1])


def test_matrix_units_multiply_by_index_contraction():
    alg = mat_algebra(2)
    e12, e21 = alg.basis_element(1), alg.basis_element(2)
    np.testing.assert_allclose(multiply(alg, e12, e21).coords, alg.basis_element(0).coords)
    np.testing.assert_allclose(multiply(alg, e21, e12).coords, alg.basis_element(3).coords)


def test_unit_acts_as_identity():
    alg = mat_algebra(3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    np.testing.assert_allclose(multiply(alg, alg.unit, x).coords, x, atol=1e-14)
    np.testing.assert_allclose(multiply(alg, x, alg.unit).coords, x, atol=1e-14)


def test_dual_numbers_epsilon_squares_to_zero():
    alg = dual_numbers()
    eps = alg.basis_element(1)
    assert np.all(multiply(alg, eps, eps).coords == 0)


def test_upper_triangular_product_vanishes_against_order():
    alg = upper_triangular(2)  # basis (E11, E12, E22)
    e12, e11 = alg.basis_element(1), alg.basis_element(0)
    assert np.all(multiply(alg, e12, e11).coords == 0)
    np.testing.assert_allclose(multiply(alg, e11, e12).coords, e12.coords)


def test_perturbed_structure_fails_validation_with_witness():
    alg = mat_algebra(2)
    c = alg.structure.copy()
    c[0, 1, 3] += 1e-3  # breaks the (E11 E12) E22 chain
    bad = Algebra(alg.dim, c, alg.unit)
    report = validate(bad, 1e-9)
    assert not report.passed
    assert report.witness is not None
    assert report.max_assoc_residual >= 1e-3 / 2


@pytest.mark.parametrize("axiom_tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_validate_refuses_a_tolerance_that_is_not_finite_and_positive(axiom_tol):
    # Mat_2 with c[0, 1, 3] off by 1e-3 passed at axiom_tol = inf and failed
    # with no witness at nan; Mat_2 itself failed at nan, 0 and -1
    alg = mat_algebra(2)
    c = alg.structure.copy()
    c[0, 1, 3] += 1e-3
    for a in (alg, Algebra(alg.dim, c, alg.unit)):
        with pytest.raises(ValueError, match="^axiom_tol must be a finite number > 0$"):
            validate(a, axiom_tol)


def test_opposite_is_an_involution_exactly():
    alg = upper_triangular(3)
    np.testing.assert_array_equal(opposite(opposite(alg)).structure, alg.structure)


def test_opposite_of_commutative_algebra_is_identical():
    alg = group_algebra(cyclic_table(2))
    np.testing.assert_array_equal(opposite(alg).structure, alg.structure)


def test_opposite_reverses_matrix_unit_products():
    op = opposite(mat_algebra(2))
    e12, e21 = op.basis_element(1), op.basis_element(2)
    # in the reversed product e12 * e21 = e21 . e12 = E22
    np.testing.assert_allclose(multiply(op, e12, e21).coords, op.basis_element(3).coords)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**9))
def test_multiply_is_bilinear(seed):
    rng = np.random.default_rng(seed)
    alg = ALL_BUILDERS[int(rng.integers(0, len(ALL_BUILDERS)))]
    x, xp, y = (rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim) for _ in range(3))
    lam = complex(rng.standard_normal(), rng.standard_normal())
    left = multiply(alg, x + lam * xp, y).coords
    right = multiply(alg, x, y).coords + lam * multiply(alg, xp, y).coords
    np.testing.assert_allclose(left, right, atol=1e-12 * max(1.0, np.abs(left).max()))


def test_group_algebra_of_z2():
    alg = group_algebra(cyclic_table(2))
    assert alg.dim == 2
    g = alg.basis_element(1)
    np.testing.assert_allclose(multiply(alg, g, g).coords, alg.unit)


def test_abelian_table_gives_symmetric_structure():
    alg = group_algebra(klein_table())
    np.testing.assert_array_equal(alg.structure, alg.structure.transpose(1, 0, 2))


def test_symmetric3_is_not_abelian():
    alg = group_algebra(symmetric3_table())
    assert not np.array_equal(alg.structure, alg.structure.transpose(1, 0, 2))


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], [1, 1]],  # row not a permutation
        [[1, 2, 0], [0, 1, 2], [2, 0, 1]],  # Latin square without a two-sided identity
        [[0, 1, 2], [1, 2, 0]],  # not square
    ],
)
def test_invalid_group_tables_rejected(table):
    with pytest.raises(InvalidGroupTable):
        group_algebra(table)


def test_non_associative_loop_names_its_first_triple():
    # an order-5 loop: a Latin square with identity 0 that is not
    # associative; (g1 g1) g2 = g2 but g1 (g1 g2) = g4
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    first = next(
        (i, j, k)
        for i, j, k in itertools.product(range(5), repeat=3)
        if table[table[i][j]][k] != table[i][table[j][k]]
    )
    assert first == (1, 1, 2)
    with pytest.raises(InvalidGroupTable, match=r"^not associative at \(1, 1, 2\)$"):
        group_algebra(table)


def test_direct_sum_has_componentwise_product():
    a, b = mat_algebra(2), dual_numbers()
    s = direct_sum(a, b)
    assert s.dim == 6
    np.testing.assert_array_equal(s.unit, np.concatenate([a.unit, b.unit]))
    x = np.zeros(6, dtype=complex)
    x[1] = 1.0  # E12 in the first summand
    y = np.zeros(6, dtype=complex)
    y[5] = 1.0  # eps in the second summand
    assert np.all(multiply(s, x, y).coords == 0)


def perturbed(alg, entries, noise=0.0, seed=0):
    """Copy of ``alg`` with ``delta`` added at each ``(i, j, k)`` of
    ``entries`` and optional complex noise everywhere."""
    c = alg.structure.copy()
    for index, delta in entries.items():
        c[index] += delta
    if noise:
        rng = np.random.default_rng(seed)
        c += noise * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
    return Algebra(alg.dim, c, alg.unit)


def cyclic_group_algebra(n):
    """The group algebra of Z/n by index arithmetic, without the n^3 loop
    that checks a Cayley table."""
    c = np.zeros((n, n, n))
    i, j = np.divmod(np.arange(n * n), n)
    c[i, j, (i + j) % n] = 1.0
    return Algebra(n, c, np.eye(n)[0])


def in_unimodular_basis(alg, seed, gaussian=False):
    """``alg`` in the basis f_a = sum_i p[i, a] e_i for a random integer
    matrix ``p`` of determinant 1, or with ``gaussian`` one whose entries
    are Gaussian integers: most structure constants become nonzero, yet
    they stay (Gaussian) integers, so both residuals stay exactly 0."""
    rng = np.random.default_rng(seed)
    n = alg.dim

    def entries(triangle, k):
        draw = triangle(rng.integers(-1, 2, (n, n)), k)
        return draw + 1j * triangle(rng.integers(-1, 2, (n, n)), k) if gaussian else draw

    lower = entries(np.tril, -1) + np.eye(n, dtype=int)
    upper = entries(np.triu, 1) + np.eye(n, dtype=int)
    p = lower @ upper
    p_inv = np.linalg.inv(p)
    p_inv = np.rint(p_inv.real) + 1j * np.rint(p_inv.imag) if gaussian else np.rint(p_inv).astype(int)
    assert np.array_equal(p_inv @ p, np.eye(n))
    c = np.einsum("ia,jb,ijk,ck->abc", p, p, alg.structure, p_inv)
    return Algebra(n, c, p_inv @ alg.unit)


DENSE_VALID = [
    pytest.param(in_unimodular_basis(mat_algebra(2), 0), id="mat2-unimodular-basis"),
    pytest.param(in_unimodular_basis(mat_algebra(3), 0), id="mat3-unimodular-basis"),
    pytest.param(in_unimodular_basis(upper_triangular(3), 0), id="tri3-unimodular-basis"),
]

VALIDATE_CASES = [
    mat_algebra(3),
    upper_triangular(4),
    direct_sum(mat_algebra(2), group_algebra(symmetric3_table())),
    perturbed(mat_algebra(2), {(0, 1, 3): 1e-3}),
    perturbed(mat_algebra(3), {(4, 5, 7): 2e-3j}),
    perturbed(upper_triangular(3), {(1, 3, 4): -5e-4, (5, 5, 5): 1e-4}),
    perturbed(group_algebra(symmetric3_table()), {}, noise=1e-6, seed=3),
    perturbed(mat_algebra(3), {(2, 6, 0): 1e-2}, noise=1e-8, seed=4),
    *DENSE_VALID,
]

KERNELS = ("sparse", "dense")


def force_kernel(monkeypatch, kernel):
    monkeypatch.setattr(algebra_module, "_sparse_pays", lambda *coords: kernel == "sparse")


def assert_validate_matches_oracle(alg, tol, kernel):
    report = validate(alg, tol)
    passed, residual, witness = validate_naive(alg, tol)
    assert report.passed == (passed and report.max_unit_residual < tol), kernel
    assert report.max_assoc_residual == pytest.approx(residual, rel=1e-12, abs=1e-300), kernel
    assert report.witness == witness, kernel


@pytest.mark.parametrize("alg", VALIDATE_CASES, ids=lambda a: f"dim{a.dim}")
def test_validate_matches_naive_oracle(alg, monkeypatch):
    for kernel in KERNELS:
        force_kernel(monkeypatch, kernel)
        assert_validate_matches_oracle(alg, 1e-9, kernel)


@pytest.mark.parametrize("alg", VALIDATE_CASES, ids=lambda a: f"dim{a.dim}")
def test_validate_matches_naive_oracle_in_small_blocks(alg, monkeypatch):
    # two values of i per dense block, and a few pairs (i, j) per sparse
    # block (8 to 12 products, or one pair with more), so every case is
    # checked across block edges
    budgets = {"dense": 2 * alg.structure.itemsize * alg.dim**3, "sparse": 8 * (8 + 16)}
    for kernel in KERNELS:
        force_kernel(monkeypatch, kernel)
        monkeypatch.setattr(algebra_module, "_VALIDATE_BLOCK_BYTES", budgets[kernel])
        assert_validate_matches_oracle(alg, 1e-9, kernel)


@pytest.mark.parametrize(
    "alg, kernel",
    [
        *[pytest.param(p.values[0], "dense", id=p.id) for p in DENSE_VALID],
        # N^5 / T = 18: the dense kernel is faster at this size
        pytest.param(group_algebra(symmetric3_table()), "dense", id="s3"),
        pytest.param(mat_algebra(7), "sparse", id="mat7"),
        pytest.param(upper_triangular(8), "sparse", id="tri8"),
        pytest.param(cyclic_group_algebra(32), "sparse", id="z32"),
    ],
)
def test_validate_kernel_follows_the_nonzero_counts(alg, kernel):
    coords = np.nonzero(alg.structure)
    assert algebra_module._sparse_pays(alg.dim, *coords) == (kernel == "sparse")


def test_validate_witness_in_a_later_block(monkeypatch):
    # a small defect in the first summand, a larger one in the second
    alg = perturbed(direct_sum(mat_algebra(2), mat_algebra(2)), {(1, 2, 0): 1e-4, (5, 6, 4): 1e-3})
    budgets = {"dense": 2 * 16 * alg.dim**3, "sparse": 8 * (8 + 16)}
    _, _, witness = validate_naive(alg, 1e-9)
    assert witness[0] >= 2  # the worst triple lies outside the first block
    for kernel in KERNELS:
        force_kernel(monkeypatch, kernel)
        monkeypatch.setattr(algebra_module, "_VALIDATE_BLOCK_BYTES", budgets[kernel])
        report = validate(alg, 1e-9)
        assert not report.passed and report.witness == witness, kernel


def validate_peak(alg):
    tracemalloc.start()
    try:
        report = validate(alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_validate_memory_is_bounded():
    alg = mat_algebra(7)
    tracemalloc.start()
    try:
        report = validate(alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 64 * 2**20, f"validate peaked at {peak / 2**20:.1f} MiB on Mat_7"


@pytest.mark.parametrize(
    "build, kernel",
    [
        pytest.param(lambda: mat_algebra(7), "dense", id="mat7-dense"),
        # N = 144: the top of the scale ladder
        pytest.param(lambda: mat_algebra(12), "sparse", id="mat12"),
        # 4.2 million products, about 146 MiB in one block
        pytest.param(lambda: cyclic_group_algebra(128), "sparse", id="z128"),
    ],
)
def test_validate_memory_is_bounded_on_each_kernel(build, kernel, monkeypatch):
    alg = build()
    force_kernel(monkeypatch, kernel)
    report, peak = validate_peak(alg)
    assert report.passed
    assert peak < 64 * 2**20, f"validate peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("cols", [(0, 3), (2, 0), (3, 5)])
def test_pairwise_products_match_the_bilinear_product(cols):
    rng = np.random.default_rng(11)
    alg = direct_sum(upper_triangular(2), group_algebra(symmetric3_table()))
    xs, ys = (
        rng.standard_normal((alg.dim, m)) + 1j * rng.standard_normal((alg.dim, m)) for m in cols
    )
    prods = pairwise_products(alg, xs, ys)
    assert prods.shape == (cols[0], cols[1], alg.dim)
    for a in range(cols[0]):
        for b in range(cols[1]):
            expected = multiply(alg, xs[:, a], ys[:, b]).coords
            np.testing.assert_allclose(prods[a, b], expected, atol=1e-13)


def unit_residual_in_complex_arithmetic(alg):
    """The unit residual with the unit and the structure constants as complex
    arrays, whatever their values."""
    eye = np.eye(alg.dim)
    u, c = alg.unit.astype(complex), alg.structure.astype(complex)
    left = np.abs(np.einsum("j,jik->ik", u, c) - eye).max()
    right = np.abs(np.einsum("j,ijk->ik", u, c) - eye).max()
    return float(max(left, right))


def in_real_basis(alg, seed):
    """``alg`` in a random real basis near the original: real structure
    constants and unit whose products round."""
    rng = np.random.default_rng(seed)
    p = np.eye(alg.dim) + 0.3 * rng.standard_normal((alg.dim, alg.dim))
    p_inv = np.linalg.inv(p)
    c = np.einsum("ia,jb,ijk,ck->abc", p, p, alg.structure.real, p_inv, optimize=True)
    return Algebra(alg.dim, c, p_inv @ alg.unit.real)


COMPLEX_UNIT_CASES = [
    pytest.param(in_unimodular_basis(mat_algebra(3), 1, gaussian=True), id="mat3-gaussian-basis"),
    pytest.param(in_unimodular_basis(upper_triangular(3), 2, gaussian=True), id="tri3-gaussian-basis"),
    # real structure constants, a unit off by an imaginary 1e-3
    pytest.param(Algebra(4, mat_algebra(2).structure, mat_algebra(2).unit + 1e-3j), id="mat2-imaginary-unit"),
]


@pytest.mark.parametrize("alg", COMPLEX_UNIT_CASES)
def test_unit_check_keeps_a_complex_unit(alg):
    assert alg.unit.imag.any()
    report = validate(alg)
    assert report.max_unit_residual == unit_residual_in_complex_arithmetic(alg)
    assert report.passed == (report.max_unit_residual == 0.0)


@pytest.mark.parametrize(
    "alg",
    [
        *VALIDATE_CASES,
        *COMPLEX_UNIT_CASES,
        *[pytest.param(in_real_basis(mat_algebra(n), n), id=f"mat{n}-real-basis") for n in (2, 3, 4)],
    ],
)
def test_unit_residual_equals_the_complex_arithmetic_one(alg):
    assert validate(alg).max_unit_residual == unit_residual_in_complex_arithmetic(alg)


def complex_structure_algebra():
    """Mat_2 with two imaginary structure constants added: not an algebra,
    but well-formed data."""
    return perturbed(mat_algebra(2), {(0, 1, 3): 2e-3j, (3, 3, 0): -1e-3j})


def assert_coordinates_match_the_tensor(alg):
    index = np.nonzero(alg.structure)
    *coords, values = alg.coordinates
    for got, want in zip(coords, index):
        np.testing.assert_array_equal(got, want)
    expected = alg.structure[index]
    if expected.imag.any():
        assert values.dtype == complex
    else:
        assert values.dtype == float
        expected = expected.real
    np.testing.assert_array_equal(values, expected)
    assert not any(array.flags.writeable for array in alg.coordinates)


@pytest.mark.parametrize("alg", ALL_BUILDERS, ids=lambda a: f"dim{a.dim}")
def test_coordinates_are_the_nonzero_entries(alg):
    assert_coordinates_match_the_tensor(alg)


def test_coordinates_of_complex_structure_constants():
    alg = complex_structure_algebra()
    assert_coordinates_match_the_tensor(alg)
    assert alg.coordinates[3].dtype == complex


def test_coordinates_of_a_loaded_algebra(tmp_path):
    from algscope.report import load_algebra, save_algebra

    path = str(tmp_path / "sum.alg")
    save_algebra(direct_sum(upper_triangular(3), group_algebra(symmetric3_table())), path)
    assert_coordinates_match_the_tensor(load_algebra(path))


@pytest.mark.parametrize(
    "alg",
    [
        mat_algebra(3),
        pytest.param(in_unimodular_basis(mat_algebra(2), 0), id="dense"),
        pytest.param(complex_structure_algebra(), id="complex"),
    ],
    ids=lambda a: f"dim{a.dim}",
)
def test_a_second_validate_scans_no_tensor(alg, monkeypatch):
    first = validate(alg)
    scans = []
    real_nonzero = np.nonzero

    def spy(a):
        # the sparse kernel's np.flatnonzero finds its 1-D sums' heads here
        scans.extend([a.shape] if np.ndim(a) == 3 else [])
        return real_nonzero(a)

    monkeypatch.setattr(np, "nonzero", spy)
    validate(mat_algebra(2))
    assert scans == [(4, 4, 4)]
    scans.clear()
    second = validate(alg)
    assert scans == []
    assert second.passed == first.passed and second.witness == first.witness
    for name in ("max_assoc_residual", "max_unit_residual"):
        bits = [np.float64(getattr(report, name)).tobytes() for report in (first, second)]
        assert bits[0] == bits[1], name
