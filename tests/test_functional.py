import numpy as np
import pytest

from algscope import (
    Functional,
    TheoremViolation,
    dual_numbers,
    gram,
    is_multiplicative,
    kernels,
    mat_algebra,
    matrix_trace_functional,
    nil_ideal_check,
    opposite,
    random_functional,
    reduce_pencil,
    subspace_equal,
    upper_triangular,
)
from algscope.functional import MULTIPLICATIVE, NOT_RANK_ONE, RANK_ONE_BUT_NOT_UNIT
from algscope.linalg import Subspace, det_poly

from oracles import match_root_multisets

TOL = 1e-9


def eps_line():
    return Subspace(2, np.array([[0.0], [1.0]], dtype=complex), TOL)


class TestGram:
    def test_dual_numbers_rank_one_pairing(self):
        # F(1*1) = 1 and every product involving eps is annihilated
        g = gram(dual_numbers(), Functional(np.array([1.0, 0.0])))
        np.testing.assert_array_equal(g.a, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(g.at, g.a.T)

    def test_zero_functional_gives_zero_pairing(self):
        g = gram(mat_algebra(2), Functional(np.zeros(4)))
        assert np.all(g.a == 0)

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
                        assert g.a[i * n + j, k * n + m] == expected

    def test_gram_of_opposite_is_transpose_exactly(self):
        alg = upper_triangular(3)
        f = random_functional(alg.dim, np.random.default_rng(1))
        np.testing.assert_array_equal(gram(opposite(alg), f).a, gram(alg, f).a.T)

    def test_recomputation_invariant(self):
        alg = mat_algebra(2)
        f = random_functional(4, np.random.default_rng(2))
        g = gram(alg, f)
        direct = np.array(
            [[sum(alg.structure[i, j, k] * f.coords[k] for k in range(4)) for j in range(4)] for i in range(4)]
        )
        np.testing.assert_allclose(g.a, direct, atol=1e-12)


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
        np.testing.assert_allclose(rp.a_tilde, gram(alg, f).a, atol=1e-12)

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
            assert np.max(np.abs(g.a @ rp.nil.frame)) < 1e-9
            assert np.max(np.abs(rp.nil.frame.T @ g.a)) < 1e-9
        np.testing.assert_allclose(rp.a_tilde, rp.quotient_frame.T @ g.a @ rp.quotient_frame)

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
        rp2 = reduce_pencil(alg, f, TOL, quotient_frame=rp.quotient_frame @ mix)
        roots_a = det_poly(rp.a_tilde, rp.at_tilde).finite_root_multiset()
        roots_b = det_poly(rp2.a_tilde, rp2.at_tilde).finite_root_multiset()
        assert match_root_multisets(roots_a, roots_b, 1e-8) < 1e-7


class TestMultiplicative:
    def test_dual_numbers_projection_is_multiplicative(self):
        rep = is_multiplicative(dual_numbers(), Functional(np.array([1.0, 0.0])), TOL)
        assert rep.verdict == MULTIPLICATIVE
        assert rep.max_residual < 1e-12

    def test_generic_matrix_functional_is_not_rank_one(self):
        rep = is_multiplicative(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])), TOL)
        assert rep.verdict == NOT_RANK_ONE and rep.rank == 4

    def test_scaled_projection_fails_the_unit_condition(self):
        rep = is_multiplicative(dual_numbers(), Functional(np.array([2.0, 0.0])), TOL)
        assert rep.verdict == RANK_ONE_BUT_NOT_UNIT
        assert abs(rep.unit_value - 2.0) < 1e-14

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
            is_multiplicative(alg, Functional(np.array([1.0, 0.0])), TOL)


class TestNilIdeal:
    def test_dual_numbers_nil_is_an_ideal(self):
        alg = dual_numbers()
        rep = nil_ideal_check(alg, kernels(alg, Functional(np.array([1.0, 0.0]))), TOL)
        assert rep.premise_holds and rep.is_ideal and rep.max_residual < 1e-12

    def test_zero_functional_trivially_ideal(self):
        alg = mat_algebra(2)
        rep = nil_ideal_check(alg, kernels(alg, Functional(np.zeros(4))), TOL)
        assert rep.premise_holds and rep.is_ideal

    def test_trivial_nil_is_vacuously_ideal(self):
        alg = mat_algebra(2)
        rep = nil_ideal_check(alg, kernels(alg, matrix_trace_functional(np.diag([1.0, 2.0]))), TOL)
        assert rep.premise_holds and rep.is_ideal and rep.max_residual == 0.0
