import numpy as np
import pytest

from algscope import (
    Functional,
    NonFinite,
    TheoremViolation,
    cyclic_table,
    direct_sum,
    dual_numbers,
    gram,
    group_algebra,
    klein_table,
    is_multiplicative,
    kernels,
    mat_algebra,
    matrix_trace_functional,
    opposite,
    random_functional,
    reduce_pencil,
    subspace_equal,
    symmetric3_table,
    upper_triangular,
)
from algscope.functional import (
    MULTIPLICATIVE,
    NOT_RANK_ONE,
    RANK_ONE_BUT_NOT_UNIT,
    ReducedPencil,
    _may_meet,
    _stack_kernels,
)
from algscope.linalg import (
    Subspace,
    complement,
    det_poly,
    projective_close,
    projector_distance,
    subspace_intersect,
)
from algscope.spectral import choose_alpha0, spectrum

from oracles import multiplicative_loop, pairing_matrix, raw_kernel

TOL = 1e-9


def eps_line():
    return Subspace(2, np.array([[0.0], [1.0]], dtype=complex), TOL)


class TestFunctional:
    @pytest.mark.parametrize(
        "coords",
        [[np.nan, 0.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0], [0.0, complex(1.0, -np.inf), 0.0, 0.0]],
        ids=["nan", "inf", "imag-inf"],
    )
    def test_refuses_coordinates_that_are_not_finite(self, coords):
        # they were accepted, and on Mat_2 decompose then blamed a matrix,
        # gram returned NaN and is_multiplicative a nan unit value
        with pytest.raises(NonFinite, match="^functional coordinates contain NaN or Inf$"):
            Functional(np.array(coords))

    def test_matrix_trace_functional_of_a_nan_weight_is_refused(self):
        with pytest.raises(NonFinite, match="^functional coordinates contain NaN or Inf$"):
            matrix_trace_functional(np.array([[1.0, np.nan], [0.0, 2.0]]))


class TestGram:
    def test_dual_numbers_rank_one_pairing(self):
        # F(1*1) = 1 and every product involving eps is annihilated
        g = gram(dual_numbers(), Functional(np.array([1.0, 0.0])))
        np.testing.assert_array_equal(g, [[1.0, 0.0], [0.0, 0.0]])
        assert not g.flags.writeable

    def test_zero_functional_gives_zero_pairing(self):
        g = gram(mat_algebra(2), Functional(np.zeros(4)))
        assert np.all(g == 0)

    def test_matrix_algebra_block_pattern(self):
        # with F = tr(diag(nu) .), F(e_ij e_km) = delta_jk delta_im nu_i
        nu = [1.0, 2.0, 5.0]
        alg = mat_algebra(3)
        g = gram(alg, matrix_trace_functional(np.diag(nu)))
        n = 3
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for m in range(n):
                        expected = nu[i] if (j == k and i == m) else 0.0
                        assert g[i * n + j, k * n + m] == expected

    def test_gram_of_opposite_is_transpose_exactly(self):
        alg = upper_triangular(3)
        f = random_functional(alg.dim, np.random.default_rng(1))
        np.testing.assert_array_equal(gram(opposite(alg), f), gram(alg, f).T)

    def test_recomputation_invariant(self):
        alg = mat_algebra(2)
        f = random_functional(4, np.random.default_rng(2))
        g = gram(alg, f)
        direct = np.array(
            [[sum(alg.structure[i, j, k] * f.coords[k] for k in range(4)) for j in range(4)] for i in range(4)]
        )
        np.testing.assert_allclose(g, direct, atol=1e-12)


def kernel_cases():
    """(label, algebra, functional) with nonzero kernels: random functionals
    on tri_3..tri_5, and functionals with nil != 0."""
    rng = np.random.default_rng(61)
    cases = [
        (f"tri_{n}", upper_triangular(n), random_functional(n * (n + 1) // 2, rng))
        for n in (3, 4, 5)
    ]
    cases.append(("dual", dual_numbers(), Functional(np.array([1.0, 0.0]))))
    # F vanishes on the eps of the dual block
    coords = np.zeros(6, dtype=complex)
    coords[:4] = matrix_trace_functional(np.diag([1.0, 3.0])).coords
    coords[4] = 1.0
    cases.append(("Mat_2+dual", direct_sum(mat_algebra(2), dual_numbers()), Functional(coords)))
    weights = matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))
    cases.append(("Mat_3 weights 1, 2, 0", mat_algebra(3), weights))
    return cases


class TestKernels:
    def test_zero_functional_everything_annihilates(self):
        ker = kernels(mat_algebra(2), Functional(np.zeros(4)), TOL)
        assert ker.left.dim == ker.right.dim == ker.nil.dim == 4

    def test_dual_numbers_kernels_are_the_eps_line(self):
        ker = kernels(dual_numbers(), Functional(np.array([1.0, 0.0])), TOL)
        for space in ker:
            assert subspace_equal(space, eps_line(), 1e-10)

    def test_generic_matrix_functional_has_trivial_kernels(self):
        ker = kernels(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])), TOL)
        assert ker.left.dim == ker.right.dim == ker.nil.dim == 0

    def test_left_and_right_kernels_have_equal_dimension(self):
        rng = np.random.default_rng(4)
        alg = upper_triangular(3)
        for _ in range(20):
            ker = kernels(alg, random_functional(alg.dim, rng), TOL)
            assert ker.left.dim == ker.right.dim

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_a_tolerance_that_is_not_finite_and_positive_is_refused(self, tol):
        alg = mat_algebra(3)
        f = random_functional(alg.dim, np.random.default_rng(0))
        for call in (kernels, reduce_pencil):
            with pytest.raises(ValueError, match="tol must be a finite number > 0"):
                call(alg, f, tol)

    @pytest.mark.parametrize("case", kernel_cases(), ids=lambda case: case[0])
    def test_equal_dimensions_are_equal_spaces(self, case):
        # nil lies in both kernels, and both kernels come from one SVD with
        # one dimension, so dim left == dim nil means left = right = nil
        _, alg, f = case
        ker = kernels(alg, f, TOL)
        by_distance = subspace_equal(ker.left, ker.nil, 100 * TOL) and subspace_equal(
            ker.right, ker.nil, 100 * TOL
        )
        assert (ker.left.dim == ker.nil.dim) == by_distance
        if by_distance and ker.nil.dim:
            assert projector_distance(ker.left, ker.nil) < 10 * TOL


class TestKernelsAgainstRawSVD:
    """Both kernels come from one SVD of the pairing; each matches the
    kernel of a raw SVD of the looped pairing matrix (the right kernel) or
    of its transpose (the left kernel)."""

    @pytest.mark.parametrize("case", kernel_cases(), ids=lambda case: case[0])
    def test_matches_the_raw_kernels(self, case):
        _, alg, f = case
        ker = kernels(alg, f, TOL)
        a = pairing_matrix(alg, f.coords)
        for got, matrix in ((ker.left, a.T), (ker.right, a)):
            want = Subspace(alg.dim, raw_kernel(matrix, 0.0), TOL)
            assert got.dim == want.dim > 0
            assert projector_distance(got, want) < 1e-10
        assert ker.left.dim == ker.right.dim

    def test_cases_include_nonzero_nil(self):
        nils = [kernels(alg, f, TOL).nil.dim for _, alg, f in kernel_cases()]
        assert sum(d > 0 for d in nils) >= 3


def pairing_with_kernels(theta, n=8, d=3, seed=0):
    """A pairing on C^n whose left and right kernels have dimension ``d``
    and a smallest principal angle ``theta``: R = span(u_0 .. u_{d-1}) and
    L = span(cos(theta) u_0 + sin(theta) u_d, u_{d+1} .. u_{2d-1}) for a
    random orthonormal basis u, whose other principal angles are pi / 2.
    ``a = X G Y^H`` with Y spanning R's complement, X that of conj(L), and
    G random, so a R = 0 and L^T a = 0."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    right = u[:, :d]
    tilted = np.cos(theta) * u[:, :1] + np.sin(theta) * u[:, d : d + 1]
    left = np.hstack([tilted, u[:, d + 1 : 2 * d]])
    y = complement(Subspace(n, right, TOL)).frame
    x = complement(Subspace(n, np.linalg.qr(left.conj())[0], TOL)).frame
    g = rng.standard_normal((n - d, n - d)) + 1j * rng.standard_normal((n - d, n - d))
    return x @ g @ y.conj().T


class TestPrincipalAngles:
    """The principal-angle test skips the intersection SVD only where that
    SVD finds nil = 0: the nil of ``_stack_kernels`` is, bit for bit,
    ``subspace_intersect`` of the two kernels."""

    @pytest.mark.parametrize("multiple", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_nil_is_the_intersection(self, multiple):
        a = pairing_with_kernels(multiple * TOL)
        (ker,) = _stack_kernels(a[None], TOL)
        assert ker.left.dim == ker.right.dim == 3
        want = subspace_intersect(ker.left, ker.right, TOL)
        assert ker.nil.frame.shape == want.frame.shape
        assert ker.nil.frame.tobytes() == want.frame.tobytes()
        off = ker.right.frame - ker.left.projector() @ ker.right.frame
        sines = np.linalg.svd(off, compute_uv=False)
        assert sines[-1] == pytest.approx(multiple * TOL, rel=1e-4, abs=1e-14)
        # up to tol the intersection SVD runs and finds a line, and at 2 tol,
        # at its cutoff, it runs and decides; at 4 tol the sine is at the
        # angle test's own cutoff, and at 8 tol above it, so no SVD runs
        meet = _may_meet([(ker.left, ker.right)], TOL)
        if multiple <= 1.0:
            assert meet == [0] and ker.nil.dim == 1
        elif multiple == 2.0:
            assert meet == [0]
        elif multiple == 8.0:
            assert meet == [] and ker.nil.dim == 0

    def test_a_stack_keeps_each_pairing_s_nil(self):
        # one stack of the six pairings and two of other kernel dimensions:
        # each nil has the bits of its pairing alone
        pairings = [pairing_with_kernels(m * TOL, seed=1) for m in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        pairings += [pairing_with_kernels(theta, d=2, seed=s) for theta, s in ((0.0, 2), (0.3, 3))]
        batch = _stack_kernels(np.stack(pairings), TOL)
        for a, ker in zip(pairings, batch):
            (alone,) = _stack_kernels(a[None], TOL)
            for got, want in zip(ker, alone):
                assert got.frame.tobytes() == want.frame.tobytes()
        nil_dims = [ker.nil.dim for ker in batch]
        assert nil_dims[0] == nil_dims[-2] == 1 and nil_dims[5] == nil_dims[-1] == 0


class TestReducedPencil:
    def test_zero_functional_gives_empty_pencil(self):
        rp = reduce_pencil(mat_algebra(2), Functional(np.zeros(4)), TOL)
        assert rp.K == 0 and rp.a_tilde.shape == (0, 0)

    def test_dual_numbers_compresses_to_scalar_one(self):
        rp = reduce_pencil(dual_numbers(), Functional(np.array([1.0, 0.0])), TOL)
        assert rp.K == 1
        np.testing.assert_allclose(rp.a_tilde, [[1.0]], atol=1e-12)

    def test_trivial_kernel_keeps_the_full_pairing(self):
        alg = mat_algebra(2)
        f = matrix_trace_functional(np.diag([1.0, 2.0]))
        rp = reduce_pencil(alg, f, TOL)
        assert rp.K == 4
        np.testing.assert_allclose(rp.a_tilde, gram(alg, f), atol=1e-12)

    @pytest.mark.parametrize(
        "alg",
        [
            mat_algebra(3),
            group_algebra(symmetric3_table()),
            direct_sum(mat_algebra(2), group_algebra(symmetric3_table())),
        ],
        ids=["Mat_3", "S3", "Mat_2+S3"],
    )
    def test_a_pairing_with_nil_zero_is_its_own_pencil(self, monkeypatch, alg):
        import algscope.functional as functional
        import algscope.linalg as linalg

        # the compression the general path makes, with Q = complement(0) = I
        rng = np.random.default_rng(17)
        fs = [random_functional(alg.dim, rng) for _ in range(5)]
        q = complement(Subspace.zero(alg.dim, TOL)).frame
        want = [q.T @ gram(alg, f) @ q for f in fs]
        calls = []
        monkeypatch.setattr(functional, "complement", lambda *a: calls.append("complement"))
        checks = linalg.Subspace.__post_init__
        monkeypatch.setattr(
            linalg.Subspace, "__post_init__", lambda self: calls.append("gram") or checks(self)
        )
        for f, a_tilde in zip(fs, want):
            rp = reduce_pencil(alg, f, TOL)
            assert rp.nil.dim == 0 and rp.K == alg.dim
            assert rp.quotient_frame.tobytes() == q.tobytes()
            # equal entry for entry: the product may write -0.0 where the
            # pairing holds 0.0
            assert np.array_equal(rp.a_tilde, a_tilde)
            assert np.array_equal(rp.at_tilde, a_tilde.T)
            assert not any(m.flags.writeable for m in (rp.quotient_frame, rp.a_tilde, rp.at_tilde))
        # no complement, and no Gram check of an exact frame
        assert calls == []

    def test_a_nonzero_nil_keeps_the_general_path(self, monkeypatch):
        import algscope.functional as functional

        # F = tr(diag(1, 2, 0) X) on Mat_3: nil is spanned by e_33
        alg = mat_algebra(3)
        f = matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))
        calls = []
        real = functional.complement
        monkeypatch.setattr(functional, "complement", lambda a: calls.append(a) or real(a))
        rp = reduce_pencil(alg, f, TOL)
        assert rp.nil.dim == 1 and rp.K == 8 and len(calls) == 1
        q = real(rp.nil).frame
        assert rp.quotient_frame.tobytes() == q.tobytes()
        assert rp.a_tilde.tobytes() == (q.T @ gram(alg, f) @ q).tobytes()

    def test_compression_annihilates_nil_rows_and_columns(self):
        alg = upper_triangular(3)
        rng = np.random.default_rng(7)
        # force a degenerate functional by zeroing a couple of coordinates
        coords = random_functional(alg.dim, rng).coords.copy()
        coords[0] = coords[3] = 0.0
        f = Functional(coords)
        rp = reduce_pencil(alg, f, TOL)
        g = gram(alg, f)
        if rp.nil.dim:
            assert np.max(np.abs(g @ rp.nil.frame)) < 1e-9
            assert np.max(np.abs(rp.nil.frame.T @ g)) < 1e-9
        np.testing.assert_allclose(rp.a_tilde, rp.quotient_frame.T @ g @ rp.quotient_frame)

    def test_keeps_the_kernels_it_reduced_by(self):
        alg = upper_triangular(3)
        coords = random_functional(alg.dim, np.random.default_rng(11)).coords.copy()
        coords[0] = 0.0
        f = Functional(coords)
        rp = reduce_pencil(alg, f, TOL)
        ker = kernels(alg, f, TOL)
        assert rp.nil is rp.kernels.nil
        for got, expected in zip(rp.kernels, ker):
            assert np.array_equal(got.frame, expected.frame)
        assert rp.pencil_scale() == float(np.linalg.norm(rp.a_tilde, "fro"))

    def test_spectra_do_not_depend_on_the_quotient_frame(self):
        alg = upper_triangular(3)
        f = random_functional(alg.dim, np.random.default_rng(8))
        rp = reduce_pencil(alg, f, TOL)
        rng = np.random.default_rng(9)
        mix = np.linalg.qr(
            rng.standard_normal((rp.K, rp.K)) + 1j * rng.standard_normal((rp.K, rp.K))
        )[0]
        # the pairing compressed to another orthonormal complement of nil
        q = rp.quotient_frame @ mix
        a_tilde = q.T @ gram(alg, f) @ q
        rp2 = ReducedPencil(rp.kernels, q, a_tilde)
        spans = (Subspace(alg.dim, x, TOL) for x in (q, rp.quotient_frame))
        assert projector_distance(*spans) < 1e-12
        assert not np.allclose(rp2.a_tilde, rp.a_tilde)
        # a~ becomes mix^T a~ mix, so chi gains the factor det(mix)^2, of
        # modulus 1
        chi_a = det_poly(rp.a_tilde, rp.at_tilde).coeffs
        chi_b = det_poly(rp2.a_tilde, rp2.at_tilde).coeffs
        unit = np.vdot(chi_a, chi_b) / np.vdot(chi_a, chi_a)
        assert abs(abs(unit) - 1.0) < 1e-10
        np.testing.assert_allclose(chi_b, unit * chi_a, rtol=0, atol=1e-10 * np.abs(chi_a).max())
        # and the spectrum, with its multiplicities, at one shift
        shift = choose_alpha0(rp)
        points_a, points_b = spectrum(rp, shift), spectrum(rp2, shift)
        assert [m for _, m, _ in points_a] == [m for _, m, _ in points_b]
        assert all(projective_close(x[0], y[0], 1e-8) for x, y in zip(points_a, points_b))


class TestMultiplicative:
    def test_dual_numbers_projection_is_multiplicative(self):
        alg, f = dual_numbers(), Functional(np.array([1.0, 0.0]))
        rep = is_multiplicative(alg, f, kernels(alg, f), TOL)
        assert rep.verdict == MULTIPLICATIVE
        assert rep.max_residual < 1e-12

    def test_generic_matrix_functional_is_not_rank_one(self):
        alg, f = mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0]))
        rep = is_multiplicative(alg, f, kernels(alg, f), TOL)
        assert rep.verdict == NOT_RANK_ONE and rep.rank == 4

    def test_scaled_projection_fails_the_unit_condition(self):
        alg, f = dual_numbers(), Functional(np.array([2.0, 0.0]))
        rep = is_multiplicative(alg, f, kernels(alg, f), TOL)
        assert rep.verdict == RANK_ONE_BUT_NOT_UNIT
        assert abs(rep.unit_value - 2.0) < 1e-14

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_refuses_a_tolerance_that_is_not_finite_and_positive(self, tol):
        # at tol = nan or inf, F = 2 x on the dual numbers (F(1) = 2) was
        # called Multiplicative with residual 2.0; at 0 and -1 it got a verdict
        alg, f = dual_numbers(), Functional(np.array([2.0, 0.0]))
        with pytest.raises(ValueError, match="^tol must be a finite number > 0$"):
            is_multiplicative(alg, f, kernels(alg, f), tol)

    def test_violation_is_raised_not_absorbed(self):
        # on a genuine unital algebra the rank-1 criterion cannot fail, so the
        # guard is exercised with a broken structure whose declared unit is
        # not a unit: every product is e1, making the pairing rank 1 with
        # F(1) = 1 but F(e_i e_j) != F(e_i) F(e_j)
        from algscope import Algebra

        c = np.zeros((2, 2, 2), dtype=complex)
        c[:, :, 0] = 1.0
        alg = Algebra(2, c, np.array([1.0, 0.0]))
        with pytest.raises(TheoremViolation):
            f = Functional(np.array([1.0, 0.0]))
            is_multiplicative(alg, f, kernels(alg, f), TOL)


def character(table, values):
    """The functional of the group algebra of ``table`` whose value on each
    group element is ``values[g]``."""
    return group_algebra(table), Functional(np.asarray(values, dtype=complex))


def multiplicative_cases():
    """(label, algebra, functional): the characters of Z_3 and of the Klein
    group, twice a character, and random functionals."""
    omega = np.exp(2j * np.pi / 3)
    cases = [
        (f"Z_3 chi_{k}", *character(cyclic_table(3), [omega ** (k * g) for g in range(3)]))
        for k in range(3)
    ]
    cases += [
        (f"Klein chi_{m}", *character(klein_table(), [(-1) ** bin(g & m).count("1") for g in range(4)]))
        for m in range(4)
    ]
    cases.append(("Z_3 2 chi_1", *character(cyclic_table(3), [2 * omega**g for g in range(3)])))
    cases.append(("Klein 2 chi_3", *character(klein_table(), [2, -2, -2, 2])))
    rng = np.random.default_rng(67)
    for alg in (group_algebra(cyclic_table(3)), group_algebra(klein_table()), mat_algebra(2)):
        cases.append((f"random on dim {alg.dim}", alg, random_functional(alg.dim, rng)))
    return cases


class TestMultiplicativeAgainstLoop:
    """``is_multiplicative`` reads the rank from the kernels and agrees with
    the raw-SVD rank of the looped pairing matrix."""

    @pytest.mark.parametrize("case", multiplicative_cases(), ids=lambda case: case[0])
    def test_matches_the_loop(self, case):
        _, alg, f = case
        rep = is_multiplicative(alg, f, kernels(alg, f, TOL), TOL)
        verdict, r, unit_value, residual = multiplicative_loop(alg, f.coords, TOL)
        assert (rep.verdict, rep.rank) == (verdict, r)
        assert abs(rep.unit_value - unit_value) < 1e-14
        if np.isnan(residual):
            assert np.isnan(rep.max_residual)
        else:
            assert abs(rep.max_residual - residual) < 1e-14

    def test_cases_cover_every_verdict(self):
        verdicts = [
            multiplicative_loop(alg, f.coords, TOL)[0] for _, alg, f in multiplicative_cases()
        ]
        assert set(verdicts) == {MULTIPLICATIVE, RANK_ONE_BUT_NOT_UNIT, NOT_RANK_ONE}
        assert verdicts.count(MULTIPLICATIVE) == 7

    def test_takes_no_svd(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        for _, alg, f in multiplicative_cases():
            ker = kernels(alg, f, TOL)
            monkeypatch.setattr(np.linalg, "svd", counted)
            is_multiplicative(alg, f, ker, TOL)
            monkeypatch.setattr(np.linalg, "svd", original)
        assert calls == []

