import inspect
import re

import numpy as np
import pytest

from algscope import (
    Algebra,
    Decomposition,
    Functional,
    INFINITY,
    Kernels,
    NoRegularValue,
    DimensionMismatch,
    NonFinite,
    ProjectivePoint,
    ReducedPencil,
    char_poly,
    choose_alpha0,
    decompose,
    direct_sum,
    dual_numbers,
    group_algebra,
    cyclic_table,
    kernels,
    klein_table,
    mat_algebra,
    matrix_trace_functional,
    projector_distance,
    random_functional,
    reduce_pencil,
    SingularPencil,
    spectrum,
    stab,
    subspace_equal,
    symmetric3_table,
    upper_triangular,
    verify_alpha0_suite,
)
from algscope.linalg import Subspace, _shift_regularities, nullspace
from algscope.spectral import (
    DEFAULT_CLUSTER_TOL,
    decompose_all,
    _decomposition_checks,
    _filtration_reduced,
    _lift_frame,
    _pencil_stack,
    _slot_one_operator,
    _stab_residuals,
)
from algscope.verify import _chain_distance

from oracles import (
    PLANTED_JORDAN_BLOCKS,
    alpha0_independence_loop,
    conjugated_diagonal_functional,
    det_poly_exact,
    decompose_loop,
    decomposition_checks_loop,
    filtration_dims_fullspace,
    filtration_reduced_loop,
    jordan_dims_by_powers,
    kernel_level0,
    points_close,
    prescribed_pencil_algebra,
    split_point,
    stab_fullspace,
    v_split_pairwise_and_span,
    with_chain,
    zero_on,
)

TOL = 1e-9


def coordinate_span(ambient, indices):
    frame = np.zeros((ambient, len(indices)), dtype=complex)
    for col, idx in enumerate(indices):
        frame[idx, col] = 1.0
    return Subspace(ambient, frame, TOL)


def diag125():
    return matrix_trace_functional(np.diag([1.0, 2.0, 5.0]))


def find_point(dec, value):
    """The index of the point of ``dec`` at ``value``, None for infinity."""
    target = INFINITY if value is None else ProjectivePoint.finite(value)
    i = dec.point_at(target)
    assert i is not None, f"spectrum point {value} missing: {dec.points}"
    return i


def level0(rp, alpha):
    """The quotient frame of Stab(alpha): from the kernels at infinity and
    0, from one library nullspace elsewhere."""
    if alpha.is_infinite or alpha.value == 0:
        return kernel_level0(rp, alpha)
    m, scale = _slot_one_operator(rp, alpha)
    return nullspace(m, TOL, scale=scale).frame


def climb(rp, p, shift, stab_frame=None):
    """The filtration at the spectrum point ``p`` under ``shift``, climbed
    from ``stab_frame`` (by default :func:`level0`) up to its
    multiplicity."""
    w = level0(rp, p.alpha) if stab_frame is None else stab_frame
    return _filtration_reduced(rp, p.alpha, shift, w, p.algebraic_mult)


def shift_independence(dec, value, alpha0_a, alpha0_b):
    """The alpha0 suite's rule at the point ``value`` of ``dec``, with the
    chains climbed here from its level 0 under two given shifts: (level 0
    lies in Stab(alpha) and the levels above it agree, max residual)."""
    i = find_point(dec, value)
    p, w = dec.points[i], dec.quotient_filtrations[i][0]
    ((residual,),) = _stab_residuals([dec.pencil], [[p.alpha]], [[w]])
    dist = _chain_distance(climb(dec.pencil, p, alpha0_a, w), climb(dec.pencil, p, alpha0_b, w))
    return residual < TOL and dist < 1e-8, max(residual, dist)


def chi_at(p, lam, mu):
    """The homogeneous polynomial ``p`` at (lam, mu)."""
    d = np.arange(p.degree + 1)
    return complex(np.sum(p.coeffs * lam ** (p.degree - d) * mu**d))


class TestCharPoly:
    def test_empty_pencil_is_constant_one(self):
        rp = reduce_pencil(mat_algebra(2), Functional(np.zeros(4)), TOL)
        p = char_poly(rp)
        assert p.degree == 0 and p.coeffs[0] == 1.0

    def test_mat2_frozen_coefficients(self):
        rp = reduce_pencil(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])), TOL)
        p = char_poly(rp)
        np.testing.assert_allclose(p.coeffs, [-4, -18, -28, -18, -4], atol=1e-9)

    def test_mat3_vanishes_exactly_at_eigen_ratios(self):
        rp = reduce_pencil(mat_algebra(3), diag125(), TOL)
        p = char_poly(rp)
        assert p.degree == 9
        norm = np.linalg.norm(p.coeffs)
        for alpha in (1.0, 2.0, 5.0, 2.5, 0.5, 0.2, 0.4):
            assert abs(chi_at(p, 1.0, -alpha)) < 1e-6 * norm * max(1.0, alpha) ** 9
        # and is comfortably nonzero away from the ratios
        assert abs(chi_at(p, 1.0, -3.0)) > 1e-3 * norm


    @pytest.mark.parametrize(
        "alg",
        [mat_algebra(3), upper_triangular(5), mat_algebra(5), mat_algebra(7)],
        ids=["Mat_3", "tri_5", "Mat_5", "Mat_7"],
    )
    def test_decomposition_chi_is_the_interpolated_one(self, alg):
        # dec.chi from the spectrum's eigenvalues, char_poly from K + 1
        # determinants: measured at most 1.3e-14 of the coefficient norm
        rng = np.random.default_rng(76)
        for _ in range(2):
            dec = decompose(alg, random_functional(alg.dim, rng))
            want = char_poly(dec.pencil).coeffs
            assert dec.chi.degree == dec.quotient_dim
            assert np.max(np.abs(dec.chi.coeffs - want)) <= 1e-12 * np.linalg.norm(want)

    def test_decomposition_chi_matches_the_exact_determinant(self):
        # integer algebras at integer functionals with nil = 0, where the
        # reduced pencil is the integer pairing; measured at most 1.8e-14 of
        # the coefficient norm
        pytest.importorskip("sympy")
        algs = [
            mat_algebra(2),
            mat_algebra(3),
            upper_triangular(3),
            upper_triangular(4),
            group_algebra(symmetric3_table()),
            group_algebra(cyclic_table(3)),
        ]
        rng = np.random.default_rng(61)
        compared = 0
        for alg in algs:
            for _ in range(3):
                dec = decompose(alg, Functional(rng.integers(-3, 4, alg.dim).astype(float)))
                if dec.nil.dim:
                    continue
                a = dec.pencil.a_tilde
                exact = np.array([complex(c) for c in det_poly_exact(a, dec.pencil.at_tilde)])
                assert np.max(np.abs(dec.chi.coeffs - exact)) <= 1e-12 * np.linalg.norm(exact)
                compared += 1
        assert compared == 16


class TestChooseAlpha0:
    def test_deterministic_per_seed(self):
        rp = reduce_pencil(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])), TOL)
        assert choose_alpha0(rp, seed=5) == choose_alpha0(rp, seed=5)
        assert choose_alpha0(rp, seed=5) != choose_alpha0(rp, seed=6)

    def test_accepted_shift_is_regular_and_off_the_spectrum(self):
        rp = reduce_pencil(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])), TOL)
        for seed in range(10):
            a0 = choose_alpha0(rp, seed=seed)
            assert 0.5 <= abs(a0) <= 2.0
            assert _shift_regularities(*_pencil_stack([rp]), a0)[0] >= 1e-8
            # spectrum tests the shift by the same rule, and takes it
            assert sum(m for _, m, _ in spectrum(rp, a0)) == rp.K
            assert all(abs(a0 - root) > 1e-6 for root in (1.0, 2.0, 0.5))

    def test_scalar_pencil_accepts_anything_but_one(self):
        rp = reduce_pencil(dual_numbers(), Functional(np.array([1.0, 0.0])), TOL)
        a0 = choose_alpha0(rp, seed=0)
        assert abs(a0 - 1.0) > 1e-6

    def test_empty_pencil_has_no_shift(self):
        rp = reduce_pencil(mat_algebra(2), Functional(np.zeros(4)), TOL)
        with pytest.raises(NoRegularValue):
            choose_alpha0(rp, seed=0)

    def test_no_regular_value_reports_the_best_regularity(self):
        # a~ is a nilpotent shift: a~ and a~^T share no kernel, yet every
        # a~ - alpha0 a~^T is singular, so the pencil determinant is zero
        a = np.diag([1.0, 1.0], 1).astype(complex)
        zero = Subspace.zero(3)
        rp = ReducedPencil(Kernels(zero, zero, zero), np.eye(3), a)
        with pytest.raises(NoRegularValue) as info:
            choose_alpha0(rp, seed=3)
        message = str(info.value)
        best = re.search(r"best regularity .* was (\S+), below the floor 1\.0e-08$", message)
        assert "64 samples" in message and best and float(best.group(1)) < 1e-8


class TestSpectrum:
    def test_mat2_diag12(self):
        rp = reduce_pencil(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])), TOL)
        pts = spectrum(rp, choose_alpha0(rp))
        expected = {0.5: 1, 1.0: 2, 2.0: 1}
        assert len(pts) == 3
        for alpha, mult, _ in pts:
            match = min(expected, key=lambda v: abs(alpha.value - v))
            assert abs(alpha.value - match) < 1e-8 and expected[match] == mult

    def test_dual_numbers_single_point(self):
        rp = reduce_pencil(dual_numbers(), Functional(np.array([1.0, 0.0])), TOL)
        pts = spectrum(rp, choose_alpha0(rp))
        assert len(pts) == 1
        alpha, mult, _ = pts[0]
        assert mult == 1 and points_close(alpha, ProjectivePoint.finite(1.0), 1e-8)

    def test_mat3_seven_points(self):
        rp = reduce_pencil(mat_algebra(3), diag125(), TOL)
        pts = spectrum(rp, choose_alpha0(rp))
        expected = {1.0: 3, 2.0: 1, 5.0: 1, 2.5: 1, 0.5: 1, 0.2: 1, 0.4: 1}
        assert len(pts) == 7
        for alpha, mult, _ in pts:
            match = min(expected, key=lambda v: abs(alpha.value - v))
            assert abs(alpha.value - match) < 1e-8 and expected[match] == mult

    @pytest.mark.parametrize("cluster_tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_refuses_a_cluster_tolerance_that_is_not_finite_and_positive(self, cluster_tol):
        # Mat_3 at a random functional has 7 points, 1 of multiplicity 3; at
        # cluster_tol = inf or -1 it had one point of multiplicity 9, and at
        # nan or 0 nine simple points
        rp = reduce_pencil(mat_algebra(3), random_functional(9, np.random.default_rng(0)), TOL)
        alpha0 = choose_alpha0(rp)
        assert sorted(m for _, m, _ in spectrum(rp, alpha0)) == [1] * 6 + [3]
        with pytest.raises(ValueError, match="^cluster_tol must be a finite number > 0$"):
            spectrum(rp, alpha0, cluster_tol)


class TestStab:
    def test_unit_is_always_stabilized_at_one(self):
        rng = np.random.default_rng(0)
        for alg in (mat_algebra(2), upper_triangular(3), dual_numbers()):
            f = random_functional(alg.dim, rng)
            s = stab(reduce_pencil(alg, f, TOL), ProjectivePoint.finite(1.0))
            unit = alg.unit / np.linalg.norm(alg.unit)
            assert s.residual(unit.reshape(-1, 1))[0] < 1e-9

    def test_mat3_stab_at_one_is_the_diagonal(self):
        s = stab(reduce_pencil(mat_algebra(3), diag125(), TOL), ProjectivePoint.finite(1.0))
        assert subspace_equal(s, coordinate_span(9, [0, 4, 8]), 1e-8)

    def test_mat3_stab_at_two_is_the_e21_line(self):
        s = stab(reduce_pencil(mat_algebra(3), diag125(), TOL), ProjectivePoint.finite(2.0))
        assert subspace_equal(s, coordinate_span(9, [3]), 1e-8)

    def test_matches_the_fullspace_condition_oracle(self):
        rng = np.random.default_rng(31)
        for alg in (mat_algebra(2), upper_triangular(3)):
            f = random_functional(alg.dim, rng)
            dec = decompose(alg, f)
            for p in dec.points:
                value = None if p.alpha.is_infinite else p.alpha.value
                frame = stab_fullspace(alg, f.coords, value)
                oracle = Subspace(alg.dim, frame, TOL)
                got = stab(dec.pencil, p.alpha)
                assert got.dim == oracle.dim
                assert projector_distance(got, oracle) < 1e-8

    def test_decides_at_the_pencil_tolerance(self):
        # Mat_3 at a random functional, reduced at 1e-6: 1e-7 away from a
        # simple point, a~^T - alpha a~ is singular at the pencil's
        # tolerance, and at the default 1e-9 it is not
        alg = mat_algebra(3)
        f = random_functional(alg.dim, np.random.default_rng(0))
        rp = reduce_pencil(alg, f, 1e-6)
        simple = [
            p.alpha
            for p in decompose(alg, f, tol=1e-6).points
            if p.algebraic_mult == 1 and not p.alpha.is_infinite and p.alpha.value != 0
        ]
        assert len(simple) == 6
        for alpha in simple:
            near = ProjectivePoint.finite(alpha.value * (1 + 1e-7))
            got = stab(rp, near)
            assert got.dim == 1 and got.tol == 1e-6
            assert stab(reduce_pencil(alg, f), near).dim == 0

    @pytest.mark.parametrize("case", ["Mat_3", "levels3", "Mat_3 diag(1, 2, 0)"])
    def test_is_the_lifted_level_0_of_each_multiple_point(self, case):
        # one rule gives both, so they agree bit for bit: at a random F, at
        # a planted block that climbs, and with nil of dimension 1 and the
        # multiple points 0 and infinity, where stab returns the kernel
        if case == "levels3":
            alg, f = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["levels3"][0])
        elif case == "Mat_3":
            alg, f = mat_algebra(3), random_functional(9, np.random.default_rng(5))
        else:
            alg, f = mat_algebra(3), matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))
        dec = decompose(alg, f)
        rp = dec.pencil
        kernel_points = {INFINITY: rp.kernels.right, ProjectivePoint.finite(0.0): rp.kernels.left}
        compared = []
        for p, chain in zip(dec.points, dec.quotient_filtrations):
            got = stab(rp, p.alpha)
            if p.alpha in kernel_points:
                assert got is kernel_points[p.alpha]
            elif p.algebraic_mult > 1:
                assert got.frame.tobytes() == _lift_frame(rp, chain[0]).tobytes()
                compared.append(len(chain))
        assert compared
        assert (max(compared) > 1) is (case == "levels3")
        assert (dec.nil.dim, len(dec.points) - len(compared)) == {
            "Mat_3": (0, 6),
            "levels3": (0, 0),
            "Mat_3 diag(1, 2, 0)": (1, 4),
        }[case]

    @pytest.mark.parametrize(
        "alpha",
        [ProjectivePoint.finite(1.0), ProjectivePoint.finite(0.0), INFINITY],
        ids=["one", "zero", "infinity"],
    )
    def test_every_point_reads_the_pencil_tolerance(self, alpha):
        # tri_3 at a random functional has the double points 0, 1 and
        # infinity: Stab at 0 and infinity is a kernel of the pencil, at 1 a
        # nullspace, and each is decided at the tolerance of the reduction
        alg = upper_triangular(3)
        f = random_functional(alg.dim, np.random.default_rng(0))
        value = None if alpha.is_infinite else alpha.value
        for tol in (1e-9, 1e-6):
            rp = reduce_pencil(alg, f, tol)
            got = stab(rp, alpha)
            assert got.tol == rp.nil.tol == tol and got.dim == 2
            oracle = Subspace(alg.dim, stab_fullspace(alg, f.coords, value), tol)
            assert projector_distance(got, oracle) < 1e-8
            # the decomposition's level 0 at the point, lifted
            dec = decompose(alg, f, tol=tol)
            level = dec.filtrations[find_point(dec, value)][0]
            assert level.tol == tol and projector_distance(got, level) < 1e-8


class TestJordanFiltration:
    def test_semisimple_point_stabilizes_immediately(self):
        dec = decompose(mat_algebra(3), diag125())
        levels = dec.filtrations[find_point(dec, 2.0)]
        assert len(levels) == 1 and levels[0].dim == 1

    def test_dual_numbers_everything_at_one(self):
        dec = decompose(dual_numbers(), Functional(np.array([1.0, 0.0])))
        levels = dec.filtrations[find_point(dec, 1.0)]
        assert levels[0].dim == 2  # eps lies in nil, the unit spans the quotient part
        assert levels[-1].dim == 2

    def test_triangular2_hand_case(self):
        # pairing [[1,1,0],[0,0,1],[0,0,2]]: spectrum {0, 1, inf}, all simple
        alg = upper_triangular(2)
        f = Functional(np.array([1.0, 1.0, 2.0]))
        dec = decompose(alg, f)
        assert dec.nil.dim == 0
        assert len(dec.points) == 3
        assert [find_point(dec, value) for value in (0.0, 1.0, None)] == [0, 1, 2]
        for p in dec.points:
            assert p.algebraic_mult == 1
            assert p.filtration_dims == (1,)
        stab_one = dec.filtrations[find_point(dec, 1.0)][0]
        expected = Subspace(3, np.array([[1.0], [0.0], [1.0]]) / np.sqrt(2), TOL)
        assert subspace_equal(stab_one, expected, 1e-9)

    def test_matches_fullspace_recursion_oracle(self):
        rng = np.random.default_rng(23)
        for alg in (upper_triangular(2), upper_triangular(3), mat_algebra(2)):
            f = random_functional(alg.dim, rng)
            dec = decompose(alg, f)
            for p in dec.points:
                value = None if p.alpha.is_infinite else p.alpha.value
                oracle_dims = filtration_dims_fullspace(alg, f.coords, value, dec.alpha0_used)
                assert list(p.filtration_dims) == oracle_dims, (p.alpha, p.filtration_dims, oracle_dims)

    def test_matches_power_rank_oracle_in_the_quotient(self):
        rng = np.random.default_rng(29)
        alg = upper_triangular(3)
        f = random_functional(alg.dim, rng)
        rp = reduce_pencil(alg, f, TOL)
        a0 = choose_alpha0(rp)
        m = np.linalg.solve(rp.at_tilde - a0 * rp.a_tilde, rp.a_tilde)
        dec = decompose(alg, f)
        for p in dec.points:
            lam = 0.0 if p.alpha.is_infinite else 1.0 / (p.alpha.value - a0)
            dims = jordan_dims_by_powers(m, lam, rp.K)
            quotient_dims = [d - dec.nil.dim for d in p.filtration_dims]
            assert quotient_dims == dims, (p.alpha, quotient_dims, dims)

    def test_alternative_recursion_gives_the_same_spaces(self):
        # for finite alpha the chain can be climbed against the transposed
        # pairing alone instead of the shifted pencil; both recursions must
        # produce identical spaces level by level
        from algscope.linalg import nullspace, orthonormal_columns

        rng = np.random.default_rng(41)
        for alg in (upper_triangular(3), mat_algebra(2)):
            f = random_functional(alg.dim, rng)
            dec = decompose(alg, f)
            rp = reduce_pencil(alg, f, TOL)
            scale = float(np.linalg.norm(rp.a_tilde, "fro"))
            for p, expected in zip(dec.points, dec.filtrations):
                if p.alpha.is_infinite:
                    continue
                s_mat = rp.at_tilde - p.alpha.value * rp.a_tilde
                t_mat = rp.a_tilde
                s_scale = (1.0 + abs(p.alpha.value)) * scale
                levels = [nullspace(s_mat, TOL, scale=s_scale).frame]
                for _ in range(rp.K):
                    image = orthonormal_columns(t_mat @ levels[-1], TOL, scale=scale)
                    off = s_mat - image @ (image.conj().T @ s_mat)
                    nxt = nullspace(off, TOL, scale=s_scale).frame
                    if nxt.shape[1] <= levels[-1].shape[1]:
                        break
                    levels.append(nxt)
                assert len(levels) == len(expected)
                for frame, want in zip(levels, expected):
                    got = Subspace(rp.K, frame, TOL)
                    quotient_want = Subspace(
                        rp.K, rp.quotient_frame.conj().T @ want.frame[:, : frame.shape[1]], TOL
                    )
                    assert got.dim == want.dim - dec.nil.dim
                    assert projector_distance(got, quotient_want) < 1e-8


def batch_cases():
    """(name, reduced pencil, shifts, decomposition): the
    verify-small algebras at three random functionals each, and the
    defective pencil that grows a level; the shifts are the decomposition's
    own and two more draws."""
    algs = {
        "Mat_3": mat_algebra(3),
        "Mat_4": mat_algebra(4),
        "tri_5": upper_triangular(5),
        "S3": group_algebra(symmetric3_table()),
        "Klein": group_algebra(klein_table()),
        "Mat_2+S3": direct_sum(mat_algebra(2), group_algebra(symmetric3_table())),
    }
    rng = np.random.default_rng(61)
    pairs = [
        (name, alg, random_functional(alg.dim, rng)) for name, alg in algs.items() for _ in range(3)
    ]
    pairs.append(("defective",) + prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]])))
    cases = []
    for name, alg, f in pairs:
        dec = decompose(alg, f)
        shifts = [dec.alpha0_used] + [choose_alpha0(dec.pencil, seed=s) for s in (5, 6)]
        cases.append((name, dec.pencil, shifts, dec))
    return cases


BATCH_CASES = batch_cases()


class TestFiltrationClimb:
    """The filtration climbs each chain on its own and gives bitwise the
    frames of the oracle's loop."""

    @staticmethod
    def assert_frames_equal(climbed, looped):
        assert len(climbed) == len(looped)
        for got, want in zip(climbed, looped):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert not any(g.flags.writeable for g in got)

    @pytest.mark.parametrize("case", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
    def test_matches_the_per_point_loop(self, case):
        # the loop climbs until a level stops growing; the library climbs
        # to the multiplicity and ends at the same level
        _, rp, shifts, dec = case
        for shift in shifts:
            climbed = [climb(rp, p, shift) for p in dec.points]
            looped = [filtration_reduced_loop(rp, p.alpha, shift, TOL) for p in dec.points]
            self.assert_frames_equal(climbed, looped)
        # each chain from a given Stab(alpha), under the other shifts
        for p in dec.points:
            w = filtration_reduced_loop(rp, p.alpha, shifts[0], TOL)[0]
            # the climb hands a given level 0 back as it is
            w.setflags(write=False)
            climbed = [climb(rp, p, s, w) for s in shifts[1:]]
            looped = [filtration_reduced_loop(rp, p.alpha, s, TOL, w) for s in shifts[1:]]
            self.assert_frames_equal(climbed, looped)

    def test_defective_case_grows_a_level(self):
        _, rp, shifts, dec = BATCH_CASES[-1]
        assert max(len(climb(rp, p, shifts[0])) for p in dec.points) == 2

    @pytest.mark.parametrize("case", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
    def test_shift_independence_matches_the_loop(self, case):
        _, rp, shifts, dec = case
        for p in dec.points:
            w = filtration_reduced_loop(rp, p.alpha, shifts[0], TOL)[0]
            for stab_frame in (level0(rp, p.alpha), w):
                ((residual,),) = _stab_residuals([rp], [[p.alpha]], [[stab_frame]])
                dist = _chain_distance(*(climb(rp, p, s, stab_frame) for s in shifts[1:]))
                want = alpha0_independence_loop(rp, p.alpha, *shifts[1:], TOL, 1e-8, stab_frame)
                assert (residual < TOL and dist < 1e-8) == want[0] is True
                assert max(residual, dist) == pytest.approx(want[1], rel=1e-9, abs=1e-15)
                # the levels above 0, compared without the level-0 residual
                assert dist < 1e-8

    def test_nonfinite_operator_is_rejected(self):
        from algscope.errors import NonFinite

        _, rp, _, dec = BATCH_CASES[-1]
        p = next(p for p in dec.points if p.stab_dim < p.algebraic_mult)
        with pytest.raises(NonFinite):
            climb(rp, p, complex("nan"))


class TestChainEndsAtMultiplicity:
    """A chain ends at the first level whose dimension is the algebraic
    multiplicity that the spectrum counted."""

    @pytest.mark.parametrize("name", list(PLANTED_JORDAN_BLOCKS))
    def test_capped_chains_match_the_loop_where_a_point_climbs(self, name):
        beta, want_levels = PLANTED_JORDAN_BLOCKS[name]
        dec = decompose(*prescribed_pencil_algebra(beta))
        rp = dec.pencil
        assert max(len(levels) for levels in dec.quotient_filtrations) == want_levels
        for shift in [dec.alpha0_used] + [choose_alpha0(rp, seed=s) for s in (5, 6)]:
            capped = [climb(rp, p, shift) for p in dec.points]
            looped = [filtration_reduced_loop(rp, p.alpha, shift, TOL) for p in dec.points]
            TestFiltrationClimb.assert_frames_equal(capped, looped)
            assert [levels[-1].shape[1] for levels in capped] == [
                p.algebraic_mult for p in dec.points
            ]
            if shift == dec.alpha0_used:
                TestFiltrationClimb.assert_frames_equal(capped, dec.quotient_filtrations)

    @staticmethod
    def count_operators(monkeypatch):
        """Record the point of every later :func:`_slot_one_operator`."""
        import algscope.spectral as spectral

        built = []

        def counted(rp, alpha):
            built.append(alpha)
            return _slot_one_operator(rp, alpha)

        monkeypatch.setattr(spectral, "_slot_one_operator", counted)
        return built

    def test_a_complete_level_0_builds_no_operator(self, monkeypatch):
        # Mat_3 at a random functional: alpha = 1 has multiplicity 3 and a
        # Stab(1) of dimension 3; its level 0 takes the one operator
        alg = mat_algebra(3)
        f = random_functional(alg.dim, np.random.default_rng(0))
        built = self.count_operators(monkeypatch)
        dec = decompose(alg, f)
        multiple = [p for p in dec.points if p.algebraic_mult > 1]
        assert multiple and all(p.stab_dim == p.algebraic_mult for p in multiple)
        assert built == [p.alpha for p in multiple]
        built.clear()
        for p, levels in zip(dec.points, dec.quotient_filtrations):
            w = levels[0]
            chain = _filtration_reduced(dec.pencil, p.alpha, dec.alpha0_used, w, p.algebraic_mult)
            assert len(chain) == 1 and chain[0] is w
        assert built == []

    @pytest.mark.parametrize("name", list(PLANTED_JORDAN_BLOCKS))
    def test_a_short_level_0_still_climbs(self, monkeypatch, name):
        beta, want_levels = PLANTED_JORDAN_BLOCKS[name]
        dec = decompose(*prescribed_pencil_algebra(beta))
        built = self.count_operators(monkeypatch)
        short = [i for i, p in enumerate(dec.points) if p.stab_dim < p.algebraic_mult]
        assert short
        for i in short:
            p, w = dec.points[i], dec.quotient_filtrations[i][0]
            chain = _filtration_reduced(dec.pencil, p.alpha, dec.alpha0_used, w, p.algebraic_mult)
            assert [u.shape[1] for u in chain] == [d - dec.nil.dim for d in p.filtration_dims]
        # the operators at alpha and at the shift, once per climbing point
        shift = ProjectivePoint.finite(dec.alpha0_used)
        assert built == [x for i in short for x in (dec.points[i].alpha, shift)]
        assert max(len(dec.points[i].filtration_dims) for i in short) == want_levels

    def test_split_semisimple_point_fails_both_checks(self, monkeypatch):
        # Mat_4's alpha = 1 has multiplicity 4 and Stab(1) of dimension 4:
        # each half counts 2 but its level 0 already has dimension 4
        alg = mat_algebra(4)
        f = random_functional(alg.dim, np.random.default_rng(0))
        assert decompose(alg, f).ok
        split_point(monkeypatch, 1.0)
        dec = decompose(alg, f)
        assert [p.algebraic_mult for p in dec.points if p.algebraic_mult > 1] == [2, 2]
        assert check_named(dec.checks, "multiplicities_sum_to_quotient_dim").passed
        assert not check_named(dec.checks, "v_dim_equals_nil_plus_multiplicity").passed
        assert not check_named(dec.checks, "v_spaces_direct_sum").passed

    def test_split_climbing_point_fails_the_direct_sum(self, monkeypatch):
        # two 2 x 2 Jordan blocks at alpha = -1: each half counts 2, which
        # Stab(-1) already reaches, but both halves span the same space
        alg, f = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["two-blocks"][0])
        assert decompose(alg, f).ok
        split_point(monkeypatch, -1.0)
        dec = decompose(alg, f)
        assert [p.algebraic_mult for p in dec.points].count(2) == 3
        assert check_named(dec.checks, "multiplicities_sum_to_quotient_dim").passed
        check = check_named(dec.checks, "v_spaces_direct_sum")
        assert not check.passed and check.residual >= 2.0

    def test_split_checks_read_after_the_patch_is_undone(self, monkeypatch):
        # the checks run on first read, from the decomposition's own points
        # and frames, so a read after the doctored spectrum is gone fails
        # the same checks as a read under it
        alg = mat_algebra(4)
        f = random_functional(alg.dim, np.random.default_rng(0))
        split_point(monkeypatch, 1.0)
        dec, under = decompose(alg, f), decompose(alg, f)
        failed = {c.name for c in under.checks if not c.passed}
        monkeypatch.undo()
        assert failed == {"v_dim_equals_nil_plus_multiplicity", "v_spaces_direct_sum"}
        assert repr(dec.checks) == repr(under.checks)
        assert decompose(alg, f).ok


class TestDegeneratePencils:
    def test_nilpotent_pairing_has_no_regular_shift(self):
        # F = coefficient of E12 turns the pairing into a nilpotent Jordan
        # block: nil is trivial yet det(lam a + mu a^T) vanishes identically
        alg = upper_triangular(2)
        f = Functional(np.array([0.0, 1.0, 0.0]))
        ker = kernels(alg, f, TOL)
        assert ker.nil.dim == 0
        with pytest.raises(NoRegularValue):
            decompose(alg, f)

    def test_trace_balanced_functional_is_also_singular(self):
        # f11 + f22 = 0 with f12 != 0 kills every pencil combination
        with pytest.raises(NoRegularValue):
            decompose(upper_triangular(2), Functional(np.array([1.0, 1.0, -1.0])))

    @pytest.mark.parametrize(
        "alg, f, k",
        [
            # F(X) = tr(N X) with N the nilpotent shift
            pytest.param(
                mat_algebra(3), matrix_trace_functional(np.diag(np.ones(2), 1)), 8, id="mat3"
            ),
            pytest.param(
                mat_algebra(4), matrix_trace_functional(np.diag(np.ones(3), 1)), 15, id="mat4"
            ),
            pytest.param(upper_triangular(2), Functional(np.array([0.0, 1.0, 0.0])), 3, id="tri2"),
        ],
    )
    def test_singular_pencil_names_the_cause(self, alg, f, k):
        with pytest.raises(SingularPencil) as info:
            decompose(alg, f)
        message = str(info.value)
        assert message.startswith("the pencil is singular for every alpha; F is not generic")
        assert f"rank below {k} at tolerance 1.0e-09 at each of 64 distinct alpha" in message
        assert re.search(
            r"no regular shift found in 64 samples: .* was \S+, below the floor 1\.0e-08$", message
        )

    @pytest.mark.parametrize("tol, singular", [(1e-9, False), (8e-9, False), (1e-8, True)])
    def test_singular_pencil_is_decided_at_the_pencil_tol(self, tol, singular):
        # a~ = diag(1, 9e-9): every draw's regularity is 9e-9, below the
        # shift floor 1e-8.  The verdict compares it with the tolerance the
        # pencil's kernels were decided at: a pencil reduced at 1e-8 is
        # singular, one reduced at the default 1e-9, or at 8e-9, is not
        a = np.diag([1.0, 9e-9]).astype(complex)
        zero = Subspace.zero(2, tol)
        rp = ReducedPencil(Kernels(zero, zero, zero), np.eye(2), a)
        with pytest.raises(NoRegularValue) as info:
            choose_alpha0(rp, seed=0)
        assert isinstance(info.value, SingularPencil) is singular
        assert ("at tolerance 1.0e-08" in str(info.value)) is singular

    def test_no_shift_is_accepted_below_the_pencil_tol(self):
        # a~ = diag(1, 1e-7) reduced at 1e-6: every draw's regularity is
        # about 1e-7, above the shift floor 1e-8 but below the tolerance at
        # which the pencil's rank tests call a~^T - alpha a~ singular, so
        # no draw is a regular shift and the pencil is singular
        a = np.diag([1.0, 1e-7]).astype(complex)
        zero = Subspace.zero(2, 1e-6)
        rp = ReducedPencil(Kernels(zero, zero, zero), np.eye(2), a)
        with pytest.raises(SingularPencil) as info:
            choose_alpha0(rp, seed=0)
        message = str(info.value)
        assert "rank below 2 at tolerance 1.0e-06 at each of 64 distinct alpha" in message
        assert message.endswith("below the floor 1.0e-06")

    def test_singular_pencil_at_a_command_line_tol(self):
        # the reduction's tol reaches the verdict through the pencil
        f = matrix_trace_functional(np.diag(np.ones(2), 1))
        with pytest.raises(SingularPencil, match="rank below 8 at tolerance 1.0e-06 at each of 64"):
            decompose(mat_algebra(3), f, tol=1e-6)

    def test_singular_pencil_above_k_63_takes_k_plus_1_draws(self):
        # Mat_9 at F = tr(N X): K = 80, so the search takes 81 draws, more
        # than the K points at which a regular pencil can be singular
        f = matrix_trace_functional(np.diag(np.ones(8), 1))
        with pytest.raises(SingularPencil) as info:
            decompose(mat_algebra(9), f)
        message = str(info.value)
        assert "rank below 80 at tolerance 1.0e-09 at each of 81 distinct alpha" in message
        assert "no regular shift found in 81 samples" in message

    #: decompose's outcome at masked functionals (the random F of rng seed s
    #: with each coordinate zeroed with probability 1/2), s = 0..99: D a
    #: decomposition, S SingularPencil
    MASKED_OUTCOMES = {
        4: "DDDDDDDDDDDDDDSDDSSDDDDSDDDSDDDDDDDDDSDDDSDDDDDSDDDDDDDDSSDDD"
        "SSDDDDDDSDDDDDDSDSDDDDDDSDDSDDDDDDDDDDD",
        5: "DDSDDDSDDDDDSSSDSDDDDSSDSDDDSSDDSDDDDDDSDSDDDSDDDDDDDSDDDDDDS"
        "DDDDDDDSSDDDDDDDDDSSDSSSDSDDDDDDSSDDSDD",
    }

    @pytest.mark.parametrize("n", [4, 5])
    def test_masked_functionals_keep_their_outcomes(self, n):
        alg = upper_triangular(n)
        found = []
        for s in range(100):
            rng = np.random.default_rng(s)
            c = random_functional(alg.dim, rng).coords * (rng.random(alg.dim) < 0.5)
            try:
                decompose(alg, Functional(c))
            except SingularPencil:
                found.append("S")
            except NoRegularValue:
                found.append("N")
            else:
                found.append("D")
        assert "".join(found) == self.MASKED_OUTCOMES[n]

    def test_nearly_singular_regular_pencil_is_not_called_singular(self):
        # a~ = diag(1, 9e-9): every shift misses the 1e-8 regularity floor,
        # yet a~^T - alpha a~ keeps full rank at the rank cutoff 1e-9 unless
        # alpha lies near 1
        a = np.diag([1.0, 9e-9]).astype(complex)
        zero = Subspace.zero(2)
        rp = ReducedPencil(Kernels(zero, zero, zero), np.eye(2), a)
        with pytest.raises(NoRegularValue) as info:
            choose_alpha0(rp, seed=0)
        assert not isinstance(info.value, SingularPencil)
        assert str(info.value).startswith("no regular shift found in 64 samples")

    def test_defective_point_climbs_two_levels(self):
        # planted core [[1, 1], [-1, 0]]: chi = -(lam+mu)^2 (lam-mu)^2, the
        # point -1 has algebraic multiplicity 2 but a 1-dimensional stabilizer
        alg, f = prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]]))
        dec = decompose(alg, f)
        assert dec.ok and dec.nil.dim == 0
        plus, minus = (dec.points[find_point(dec, value)] for value in (1.0, -1.0))
        assert plus.algebraic_mult == 2 and plus.filtration_dims == (2,)
        assert minus.algebraic_mult == 2 and minus.stab_dim == 1
        assert minus.filtration_dims == (1, 2)
        oracle = filtration_dims_fullspace(alg, f.coords, -1.0, dec.alpha0_used)
        assert oracle == [1, 2]

    def test_defective_point_respects_shift_independence(self):
        dec = decompose(*prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]])))
        ok, dist = shift_independence(dec, -1.0, 0.4 + 0.7j, -1.2 + 0.3j)
        assert ok and dist < 1e-8


class TestAlpha0Independence:
    def test_mat2_two_explicit_shifts(self):
        dec = decompose(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])))
        ok, dist = shift_independence(dec, 1.0, 3.0 + 0.0j, -2.0j)
        assert ok and dist < 1e-8

    def test_dual_numbers_any_pair(self):
        dec = decompose(dual_numbers(), Functional(np.array([1.0, 0.0])))
        ok, dist = shift_independence(dec, 1.0, 0.7 + 0.2j, -1.3 + 0.4j)
        assert ok and dist < 1e-10


class TestDecompose:
    @pytest.mark.parametrize(
        "f", [random_functional(4, np.random.default_rng(1)), Functional(np.zeros(4))],
        ids=["random", "zero"],
    )
    def test_equality_is_identity(self, f):
        # the generated field comparison would take the truth value of arrays
        alg = mat_algebra(2)
        first, second = decompose(alg, f, seed=2), decompose(alg, f, seed=2)
        assert first == first
        assert not first == second
        assert first != second

    @pytest.mark.parametrize(
        "tols",
        [
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": 0.0},
            {"cluster_tol": -1.0},
            {"cluster_tol": float("nan")},
            {"cluster_tol": float("inf")},
        ],
        ids=["tol-nan", "tol-inf", "tol-0", "cluster-neg", "cluster-nan", "cluster-inf"],
    )
    def test_a_tolerance_that_is_not_finite_and_positive_is_refused(self, tols):
        # each of these used to return a decomposition that fails checks on
        # Mat_3: tol = nan four of five, tol = inf two, and cluster_tol = -1
        # merged all nine eigenvalues into one point and failed three
        alg = mat_algebra(3)
        f = random_functional(9, np.random.default_rng(0))
        (name,) = tols
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0$"):
            decompose(alg, f, **tols)
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0$"):
            decompose_all(alg, [f, f], **tols)
        # the tolerances are refused before any functional is read
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0$"):
            decompose_all(alg, [], **tols)

    def test_tol_is_the_pencil_tolerance(self):
        # the reduction decides the tolerance once; the decomposition keeps
        # no copy of it, and every lifted level carries it
        alg = upper_triangular(3)
        f = random_functional(alg.dim, np.random.default_rng(0))
        assert "tol" not in inspect.signature(Decomposition).parameters
        for tol in (1e-9, 1e-6):
            dec = decompose(alg, f, tol=tol)
            assert dec.tol == dec.pencil.nil.tol == tol
            assert {level.tol for levels in dec.filtrations for level in levels} == {tol}
            with pytest.raises(AttributeError):
                dec.tol = 1e-3

    def test_zero_functional(self):
        dec = decompose(mat_algebra(2), Functional(np.zeros(4)))
        assert dec.nil.dim == 4
        assert dec.points == ()
        assert dec.chi.degree == 0 and dec.chi.coeffs[0] == 1.0
        assert dec.ok

    @pytest.mark.parametrize("read", ["checks", "ok"])
    def test_checks_run_once_on_first_read(self, monkeypatch, read):
        import algscope.spectral as spectral

        calls = []
        real = spectral._decomposition_checks

        def counted(rp, *args):
            calls.append(rp)
            return real(rp, *args)

        monkeypatch.setattr(spectral, "_decomposition_checks", counted)
        alg = mat_algebra(3)
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(3)), seed=4)
        assert calls == [] and dec.seed == 4
        assert "checks" not in inspect.signature(Decomposition).parameters
        getattr(dec, read)
        assert len(calls) == 1 and calls[0] is dec.pencil
        for _ in range(3):
            assert dec.ok and dec.checks is dec.checks
        assert len(calls) == 1
        # the checks of the decomposition's own pencil, points and frames,
        # at its seed
        v_frames = [levels[-1] for levels in dec.quotient_filtrations]
        want = real(dec.pencil, dec.points, v_frames, 4)
        assert repr(dec.checks) == repr(tuple(want))
        # K = 0 runs the same five checks, on its own empty pencil
        empty = decompose(alg, Functional(np.zeros(alg.dim)))
        assert [c.name for c in empty.checks] == [c.name for c in dec.checks]
        assert empty.ok and len(calls) == 2 and calls[1] is empty.pencil

    def test_mat3_shape(self):
        dec = decompose(mat_algebra(3), diag125())
        assert dec.nil.dim == 0
        assert sorted(p.algebraic_mult for p in dec.points) == [1, 1, 1, 1, 1, 1, 3]
        assert dec.ok
        v1 = dec.v_spaces[find_point(dec, 1.0)]
        assert v1.dim == 3

    def test_commutative_algebra_collapses_to_one(self):
        alg = group_algebra(cyclic_table(2))
        dec = decompose(alg, Functional(np.array([1.0, 0.37 + 0.11j])))
        assert len(dec.points) == 1
        p = dec.points[0]
        assert points_close(p.alpha, ProjectivePoint.finite(1.0), 1e-8)
        assert p.algebraic_mult == 2 and dec.v_spaces[0].dim == 2

    def test_invariants_hold_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        for alg in (mat_algebra(2), upper_triangular(3), dual_numbers()):
            for _ in range(5):
                dec = decompose(alg, random_functional(alg.dim, rng))
                assert dec.ok, [c for c in dec.checks if not c.passed]

    def test_nil_inside_every_v_space(self):
        alg = upper_triangular(3)
        rng = np.random.default_rng(77)
        coords = random_functional(alg.dim, rng).coords.copy()
        coords[0] = 0.0
        dec = decompose(alg, Functional(coords))
        for v in dec.v_spaces:
            if dec.nil.dim:
                assert np.max(v.residual(dec.nil.frame)) < 1e-9

    def test_v_spaces_follow_the_filtrations(self):
        dec = decompose(mat_algebra(3), diag125())
        assert len(dec.v_spaces) == len(dec.filtrations) == len(dec.points)
        assert all(v is levels[-1] for v, levels in zip(dec.v_spaces, dec.filtrations))
        assert "filtrations" not in inspect.signature(Decomposition).parameters
        # the levels are stored once, as quotient frames: doctoring them
        # leaves no stale lifted level or V(alpha)
        doctored = with_chain(dec, 0, dec.quotient_filtrations[1])
        assert projector_distance(doctored.filtrations[0][0], dec.filtrations[1][0]) == 0
        assert doctored.v_spaces[0] is doctored.filtrations[0][-1]


def check_named(checks, name):
    found = [c for c in checks if c.name == name]
    assert len(found) == 1, [c.name for c in checks]
    return found[0]


def mat2_plus_s3():
    return direct_sum(mat_algebra(2), group_algebra(symmetric3_table()))


class TestDirectSumCheck:
    @pytest.mark.parametrize(
        "alg",
        [mat_algebra(3), mat_algebra(4), mat_algebra(5), upper_triangular(5), mat2_plus_s3()],
        ids=["mat3", "mat4", "mat5", "tri5", "mat2+s3"],
    )
    def test_agrees_with_pairwise_and_span_oracle(self, alg):
        rng = np.random.default_rng(alg.dim)
        functionals = [random_functional(alg.dim, rng) for _ in range(4)]
        # one functional blind to the last basis vectors, so nil is nonzero
        coords = functionals[0].coords.copy()
        coords[alg.dim // 2 :] = 0.0
        functionals.append(Functional(coords))
        for f in functionals:
            dec = decompose(alg, f)
            check = check_named(dec.checks, "v_spaces_direct_sum")
            frames = [v.frame for v in dec.v_spaces]
            pairwise, span = v_split_pairwise_and_span(frames, dec.nil.dim, alg.dim)
            assert check.passed == (pairwise and span)
            assert check.passed and check.residual == 0.0

    def test_replaces_the_pairwise_and_span_checks(self):
        dec = decompose(mat_algebra(3), diag125())
        assert [c.name for c in dec.checks] == [
            "multiplicities_sum_to_quotient_dim",
            "v_dim_equals_nil_plus_multiplicity",
            "simple_frames_in_stabilizer",
            "v_spaces_direct_sum",
            "log_det_matches_spectrum",
        ]

    @staticmethod
    def mat3_frames():
        """Mat_3 with diag(1, 2, 5): its reduced pencil, decomposition and the
        quotient frames of every V(alpha)."""
        alg = mat_algebra(3)
        dec = decompose(alg, diag125())
        rp = reduce_pencil(alg, diag125(), TOL)
        frames = [climb(rp, p, dec.alpha0_used)[-1] for p in dec.points]
        return alg, rp, dec, frames

    def test_repeated_column_fails_with_positive_residual(self):
        alg, rp, dec, frames = self.mat3_frames()
        i, j = [q for q, p in enumerate(dec.points) if p.algebraic_mult == 1][:2]
        frames[j] = frames[i].copy()  # V(alpha_j) doctored to repeat V(alpha_i)
        checks = _decomposition_checks(rp, dec.points, frames, 0)
        check = check_named(checks, "v_spaces_direct_sum")
        assert not check.passed and check.residual >= 1.0
        lifted = [np.hstack([rp.quotient_frame @ w, rp.nil.frame]) for w in frames]
        assert v_split_pairwise_and_span(lifted, rp.nil.dim, alg.dim) == (False, False)
        # the dimension checks cannot see the defect
        assert check_named(checks, "v_dim_equals_nil_plus_multiplicity").passed

    def test_extra_dependent_column_fails_even_at_full_rank(self):
        alg, rp, dec, frames = self.mat3_frames()
        frames[1] = np.hstack([frames[1], frames[0]])  # K + 1 columns of rank K
        checks = _decomposition_checks(rp, dec.points, frames, 0)
        check = check_named(checks, "v_spaces_direct_sum")
        assert not check.passed and check.residual == 1.0

    def test_empty_quotient_reports_the_direct_sum_check(self):
        # K = 0: the five checks of every decomposition, each passing with
        # residual 0 on an empty spectrum and an empty quotient
        dec = decompose(mat_algebra(2), Functional(np.zeros(4)))
        assert [(c.name, c.passed, c.residual) for c in dec.checks] == [
            ("multiplicities_sum_to_quotient_dim", True, 0.0),
            ("v_dim_equals_nil_plus_multiplicity", True, 0.0),
            ("simple_frames_in_stabilizer", True, 0.0),
            ("v_spaces_direct_sum", True, 0.0),
            ("log_det_matches_spectrum", True, 0.0),
        ]
        assert dec.checks[0].detail == "sum 0 vs K 0"
        assert dec.checks[3].detail == "rank 0 of 0 stacked V(alpha) columns vs K 0"


class TestLogDetCheck:
    """log|det(a~ - t a~^T)| - sum m log|t - alpha| over the finite points is
    constant in t exactly when the points and their multiplicities are
    those of the pencil; the check's threshold is K sqrt(tol)."""

    @staticmethod
    def log_det_check(dec, points):
        v_frames = [levels[-1] for levels in dec.quotient_filtrations]
        checks = _decomposition_checks(dec.pencil, points, v_frames, 0)
        return check_named(checks, "log_det_matches_spectrum")

    @classmethod
    def assert_fails(cls, dec, doctored):
        assert check_named(dec.checks, "log_det_matches_spectrum").passed
        check = cls.log_det_check(dec, list(dec.points))
        assert check.passed and check.residual < 1e-3 * dec.quotient_dim * TOL
        check = cls.log_det_check(dec, doctored)
        # doctored points leave a jump or a trend of order 1 in r
        assert not check.passed and check.residual > 0.1
        return check

    @staticmethod
    def cases():
        rng = np.random.default_rng(75)
        return {
            "Mat_3": decompose(mat_algebra(3), random_functional(9, rng)),
            "Mat_3 diag(1, 2, 5)": decompose(mat_algebra(3), diag125()),
            "tri_4": decompose(upper_triangular(4), random_functional(10, rng)),
            "Mat_3 diag(1, 2, 0)": decompose(
                mat_algebra(3), matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))
            ),
            "tri_2": decompose(upper_triangular(2), Functional(np.array([1.0, 1.0, 2.0]))),
            "Mat_2+S3": decompose(mat2_plus_s3(), random_functional(10, rng)),
        }

    def test_one_unit_of_multiplicity_moved_between_two_points_fails(self):
        for dec in self.cases().values():
            finite = [i for i, p in enumerate(dec.points) if not p.alpha.is_infinite]
            i, j = finite[0], finite[-1]
            doctored = list(dec.points)
            for q, step in ((i, 1), (j, -1)):
                mult = doctored[q].algebraic_mult + step
                doctored[q] = doctored[q]._replace(algebraic_mult=mult)
            self.assert_fails(dec, doctored)

    def test_finite_point_moved_to_infinity_fails(self):
        for dec in self.cases().values():
            finite = [i for i, p in enumerate(dec.points) if not p.alpha.is_infinite]
            for i in (finite[0], finite[-1]):
                doctored = list(dec.points)
                doctored[i] = doctored[i]._replace(alpha=INFINITY)
                self.assert_fails(dec, doctored)

    def test_infinite_point_moved_to_a_small_finite_one_fails(self):
        cases = self.cases()
        with_infinity = [dec for dec in cases.values() if dec.points[-1].alpha.is_infinite]
        assert len(with_infinity) == 3
        for dec in with_infinity:
            doctored = list(dec.points)
            doctored[-1] = doctored[-1]._replace(alpha=ProjectivePoint.finite(1e-3))
            self.assert_fails(dec, doctored)

    @pytest.mark.parametrize(
        "n, seed",
        [(8, 0), (8, 1), (8, 2), (8, 3), (4, 32), (5, 14), (5, 21), (6, 23), (8, 9)],
    )
    def test_exact_spectra_pass_every_check(self, n, seed):
        # F = tr(S diag(q) S^-1 X) with S integer unimodular: the spectrum is
        # exactly {q_i / q_j}.  On Mat_8, chi's end coefficients are 1e-15 to
        # 1e-14 of its largest one, so a coefficient threshold counts 10 to
        # 12 of them as vanishing at infinity, where none does.  The last
        # five cases have an ill-conditioned eigenbasis: their points are
        # off by up to 1.1e-7 and r moves by up to 1.5e-6, above K tol and
        # far below K sqrt(tol)
        q, f = conjugated_diagonal_functional(n, seed)
        dec = decompose(mat_algebra(n), f)
        assert [c.name for c in dec.checks if not c.passed] == []
        want: dict[float, int] = {}
        for ratio in (x / y for x in q for y in q):
            key = next((r for r in want if abs(r - ratio) < 1e-12 * abs(r)), ratio)
            want[key] = want.get(key, 0) + 1
        got = sorted((p.alpha.value.real, p.algebraic_mult) for p in dec.points)
        assert [m for _, m in got] == [want[r] for r in sorted(want)]
        for (value, _), ratio in zip(got, sorted(want)):
            assert abs(value - ratio) < 1e-6 * abs(ratio)
        assert max(abs(p.alpha.value.imag) for p in dec.points) < 1e-6

    @pytest.mark.parametrize("n, count", [(8, 4), (10, 2)])
    def test_random_functionals_on_large_matrix_algebras_pass(self, n, count):
        alg = mat_algebra(n)
        rng = np.random.default_rng(0)
        for _ in range(count):
            dec = decompose(alg, random_functional(alg.dim, rng))
            assert [c.name for c in dec.checks if not c.passed] == []
            check = check_named(dec.checks, "log_det_matches_spectrum")
            assert check.residual < 1e-3 * dec.quotient_dim * TOL


def random_unit(k, rng):
    v = rng.standard_normal((k, 1)) + 1j * rng.standard_normal((k, 1))
    return v / np.linalg.norm(v)


def simple_frame_cases():
    """(name, algebra, functional): Mat_5, Mat_4+tri_4, S3 and Mat_2+S3 at
    three random functionals each."""
    algs = {
        "Mat_5": mat_algebra(5),
        "Mat_4+tri_4": direct_sum(mat_algebra(4), upper_triangular(4)),
        "S3": group_algebra(symmetric3_table()),
        "Mat_2+S3": mat2_plus_s3(),
    }
    rng = np.random.default_rng(67)
    return [
        (name, alg, random_functional(alg.dim, rng)) for name, alg in algs.items() for _ in range(3)
    ]


SIMPLE_FRAME_CASES = simple_frame_cases()


class TestSimpleFrames:
    """A point of multiplicity 1 takes its one level from the eigenvector of
    the shifted pencil; only the multiple points climb."""

    @pytest.mark.parametrize("case", SIMPLE_FRAME_CASES, ids=lambda case: case[0])
    def test_match_the_climbed_frames(self, case):
        _, alg, f = case
        dec = decompose(alg, f)
        assert dec.ok, [c for c in dec.checks if not c.passed]
        simple = [i for i, p in enumerate(dec.points) if p.algebraic_mult == 1]
        multiple = [i for i, p in enumerate(dec.points) if p.algebraic_mult > 1]
        assert simple and multiple
        k = dec.quotient_dim
        for i in simple:
            p = dec.points[i]
            # the loop climbs until a level stops growing: one level here
            climbed = filtration_reduced_loop(dec.pencil, p.alpha, dec.alpha0_used, TOL)
            dims = [w.shape[1] + dec.nil.dim for w in climbed]
            assert dims == list(p.filtration_dims) == [1 + dec.nil.dim]
            eigenvector = dec.quotient_filtrations[i][0]
            dist = projector_distance(Subspace(k, climbed[0], TOL), Subspace(k, eigenvector, TOL))
            assert dist < 1e-10
        # the multiple points keep bitwise the frames of the climb
        for i in multiple:
            chain = climb(dec.pencil, dec.points[i], dec.alpha0_used)
            stored = dec.quotient_filtrations[i]
            assert len(chain) == len(stored)
            assert all(np.array_equal(w, v) for w, v in zip(chain, stored))

    @pytest.mark.parametrize("case", SIMPLE_FRAME_CASES, ids=lambda case: case[0])
    def test_stabilizer_residual_is_far_below_tol(self, case):
        _, alg, f = case
        check = check_named(decompose(alg, f).checks, "simple_frames_in_stabilizer")
        assert check.passed and 0.0 < check.residual < 1e-4 * TOL

    def test_random_frame_fails_the_stabilizer_check(self):
        alg = mat_algebra(3)
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(71)))
        frames = [levels[-1] for levels in dec.quotient_filtrations]
        i = next(q for q, p in enumerate(dec.points) if p.algebraic_mult == 1)
        frames[i] = random_unit(dec.quotient_dim, np.random.default_rng(72))
        checks = _decomposition_checks(dec.pencil, dec.points, frames, 0)
        check = check_named(checks, "simple_frames_in_stabilizer")
        assert not check.passed and check.residual > 1e-3
        # the dimension checks cannot see the defect
        assert check_named(checks, "v_dim_equals_nil_plus_multiplicity").passed

    def test_random_frame_at_infinity_fails_the_stabilizer_check(self):
        # spectrum {0, 1, infinity}, all simple
        dec = decompose(upper_triangular(2), Functional(np.array([1.0, 1.0, 2.0])))
        inf = dec.points[-1]
        assert inf.alpha.is_infinite and inf.algebraic_mult == 1
        frames = [levels[-1] for levels in dec.quotient_filtrations]
        frames[-1] = random_unit(dec.quotient_dim, np.random.default_rng(73))
        checks = _decomposition_checks(dec.pencil, dec.points, frames, 0)
        assert not check_named(checks, "simple_frames_in_stabilizer").passed

    def test_alpha0_suite_fails_on_a_doctored_simple_frame(self):
        alg = mat_algebra(3)
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(74)))
        assert verify_alpha0_suite(dec).passed
        i = next(i for i, p in enumerate(dec.points) if p.algebraic_mult == 1)
        frame = random_unit(dec.quotient_dim, np.random.default_rng(75))
        frame.setflags(write=False)
        finding = verify_alpha0_suite(with_chain(dec, i, (frame,)))
        assert not finding.passed and finding.max_residual > 1e-3
        assert finding.witness[0] == dec.points[i].alpha


class TestPointsAtZero:
    """Every value within ``cluster_tol`` of 0 joins one point 0, as every
    value beyond the infinity cutoff joins the one point infinity.  At
    ``cluster_tol`` 1e-5 these masked functionals split a block of size 3
    at 0 into three values about 6e-6 from 0, 120 degrees apart and
    pairwise more than 1e-5 apart; each used to become its own point 0, and
    the checks, which key the frames by the point, raised ``IndexError``
    or failed."""

    @pytest.mark.parametrize(
        "alg, seed, mults",
        [
            (upper_triangular(4), 289, [3, 1, 3]),
            (upper_triangular(4), 354, [3, 1, 3]),
            (direct_sum(dual_numbers(), upper_triangular(4)), 84, [3, 3, 3]),
        ],
        ids=["tri_4-289", "tri_4-354", "dual+tri_4-84"],
    )
    def test_masked_functional_has_one_point_0(self, alg, seed, mults):
        rng = np.random.default_rng(seed)
        c = random_functional(alg.dim, rng).coords * (rng.random(alg.dim) < 0.5)
        dec = decompose(alg, Functional(c), cluster_tol=1e-5)
        points = [p.alpha for p in dec.points]
        assert points[0].value == 0.0 and points[2].is_infinite
        assert points_close(points[1], ProjectivePoint(1.0), 1e-9)
        assert [p.algebraic_mult for p in dec.points] == mults
        assert dec.ok, [ch.name for ch in dec.checks if not ch.passed]


class TestRoundoffEntries:
    """numpy's ``eig`` balances its input, and entries of M = S^-1 a~ at
    roundoff level (down to 1e-33 here, where Q carries roundoff) break its
    backward stability: the spectrum sets every entry of M below
    eps ||M||_F to 0 before ``eig`` sees it."""

    @pytest.mark.parametrize("seed", [160, 177])
    def test_masked_functional_on_tri4_passes_every_check(self, seed):
        # F zero on about half the coordinates of tri_4: nil = 1 and the
        # points 0 and infinity of multiplicity 4 beside a simple 1
        rng = np.random.default_rng(seed)
        c = random_functional(10, rng).coords * (rng.random(10) < 0.5)
        dec = decompose(upper_triangular(4), Functional(c))
        assert dec.nil.dim == 1
        assert [p.algebraic_mult for p in dec.points] == [4, 1, 4]
        assert dec.ok, [ch for ch in dec.checks if not ch.passed]
        check = check_named(dec.checks, "simple_frames_in_stabilizer")
        assert check.residual < 1e-4 * TOL

    def test_planted_block_of_size_3_stays_one_point(self):
        # alpha = 1 of multiplicity 5 with levels (3, 4, 5) at the planted
        # F: with eig on M as it is, 9 of these 20 random functionals split
        # the point into simple points about 1e-5 apart
        alg, _ = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["levels3"][0])
        rng = np.random.default_rng(5)
        for _ in range(20):
            dec = decompose(alg, random_functional(alg.dim, rng), seed=5)
            assert dec.ok, [c.name for c in dec.checks if not c.passed]
            assert [p.algebraic_mult for p in dec.points] == [5]


def doctored_level0(dec, i, frame):
    """``dec`` with the chain of its point ``i`` replaced by the one level
    ``frame``."""
    frame.setflags(write=False)
    return with_chain(dec, i, (frame,))


def random_frame(k, width, rng):
    q, _ = np.linalg.qr(rng.standard_normal((k, width)) + 1j * rng.standard_normal((k, width)))
    return q


class TestAlpha0SuiteRule:
    """The alpha0 suite checks every point's level 0 against Stab(alpha)
    and climbs only the points below their multiplicity, under a new shift,
    from that level, comparing each chain with the reported one."""

    @staticmethod
    def loop(dec, seed=0):
        """The oracle at every point of ``dec``, under its own shift and the
        suite's new one, which differs from it at these seeds."""
        shift = choose_alpha0(dec.pencil, seed=seed + 1)
        return [
            alpha0_independence_loop(
                dec.pencil,
                p.alpha,
                dec.alpha0_used,
                shift,
                dec.tol,
                1e-8,
                levels[0],
                climb=p.algebraic_mult > 1,
            )
            for p, levels in zip(dec.points, dec.quotient_filtrations)
        ]

    @pytest.mark.parametrize("case", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
    def test_matches_the_loop(self, case):
        dec = case[-1]
        finding = verify_alpha0_suite(dec, seed=3)
        want = self.loop(dec, seed=3)
        assert finding.passed and all(equal for equal, _ in want)
        worst = max(residual for _, residual in want)
        assert finding.max_residual == pytest.approx(worst, rel=1e-9, abs=1e-15)
        assert finding.samples == len(dec.points) and finding.witness is None

    def test_fails_on_a_doctored_frame_at_a_one_level_multiple_point(self):
        # alpha = 1 has multiplicity 3 and a chain of one level: both
        # shifts climb from the level under test, and neither grows
        dec = decompose(mat_algebra(3), diag125())
        i = find_point(dec, 1.0)
        p = dec.points[i]
        assert p.algebraic_mult == 3 and len(dec.quotient_filtrations[i]) == 1
        doctored = doctored_level0(dec, i, random_frame(9, 3, np.random.default_rng(76)))
        finding = verify_alpha0_suite(doctored)
        assert not finding.passed and finding.max_residual > 1e-3
        assert finding.witness[0] == p.alpha
        # no point climbs, but the witness still names the suite's shift
        assert finding.witness[1:] == (dec.alpha0_used, choose_alpha0(dec.pencil, seed=1))
        want = self.loop(doctored)
        assert [equal for equal, _ in want].count(False) == 1
        worst = max(residual for _, residual in want)
        assert finding.max_residual == pytest.approx(worst, rel=1e-9)

    def test_witness_is_the_first_worst_failing_point(self):
        # alpha = 2 comes after alpha = 1 in the spectrum; its frame is
        # moved off Stab(2) by far less than alpha = 1's random frame
        dec = decompose(mat_algebra(3), diag125())
        one, two = find_point(dec, 1.0), find_point(dec, 2.0)
        rng = np.random.default_rng(77)
        doctored = doctored_level0(dec, one, random_frame(9, 3, rng))
        v = dec.quotient_filtrations[two][0] + 1e-4 * random_unit(9, rng)
        doctored = doctored_level0(doctored, two, v / np.linalg.norm(v))
        want = self.loop(doctored)
        residuals = {i: r for i, (equal, r) in enumerate(want) if not equal}
        assert list(residuals) == [one, two]
        assert 1e-9 < residuals[two] < 1e-3 < residuals[one]
        finding = verify_alpha0_suite(doctored)
        assert not finding.passed and finding.witness[0] == dec.points[one].alpha


def assert_bitwise_equal(got, want):
    """Two decompositions agree bit for bit: every array of the pencil, its
    kernels, the eigenvalues, chi and the levels, and every other field
    exactly."""

    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    for rp_got, rp_want in ((got.pencil, want.pencil),):
        for name in ("left", "right", "nil"):
            same(getattr(rp_got.kernels, name).frame, getattr(rp_want.kernels, name).frame)
        for name in ("quotient_frame", "a_tilde", "at_tilde"):
            same(getattr(rp_got, name), getattr(rp_want, name))
        assert rp_got.K == rp_want.K and rp_got.pencil_scale() == rp_want.pencil_scale()
    same(got.eigenvalues, want.eigenvalues)
    assert got.chi.degree == want.chi.degree
    same(got.chi.coeffs, want.chi.coeffs)
    assert got.points == want.points
    assert len(got.quotient_filtrations) == len(want.quotient_filtrations) == len(got.points)
    for levels, levels_want in zip(got.quotient_filtrations, want.quotient_filtrations):
        assert len(levels) == len(levels_want)
        for w_got, w_want in zip(levels, levels_want):
            same(w_got, w_want)
    assert (got.alpha0_used, got.tol, got.cluster_tol) == (
        want.alpha0_used,
        want.tol,
        want.cluster_tol,
    )
    assert repr(got.checks) == repr(want.checks)


def verify_small_inputs():
    small_sum = direct_sum(mat_algebra(2), group_algebra(symmetric3_table()))
    return {
        "Mat_3": mat_algebra(3),
        "Mat_4": mat_algebra(4),
        "tri_5": upper_triangular(5),
        "S3": group_algebra(symmetric3_table()),
        "Klein": group_algebra(klein_table()),
        "Mat_2+S3": small_sum,
    }


def nilpotent_shift_functional():
    """F(X) = tr(N X) on Mat_3, N the nilpotent shift: the reduced pencil is
    singular for every alpha."""
    return matrix_trace_functional(np.diag(np.ones(2), 1))


class TestDecomposeAll:
    """A batch is decomposed, bit for bit, as each functional is alone."""

    @pytest.mark.parametrize("name", list(verify_small_inputs()))
    def test_bitwise_equal_to_the_loop(self, name):
        alg = verify_small_inputs()[name]
        rng = np.random.default_rng(31)
        fs = [random_functional(alg.dim, rng) for _ in range(10)]
        decs = decompose_all(alg, fs, seed=9)
        assert len(decs) == len(fs) and all(dec.ok for dec in decs)
        for f, dec in zip(fs, decs):
            assert_bitwise_equal(dec, decompose_loop(alg, f, seed=9))
            assert_bitwise_equal(decompose(alg, f, seed=9), dec)

    def test_mixed_quotient_dimensions(self):
        # Mat_2 + S3 with one functional that vanishes on the S3 summand, so
        # its nil is that summand (K = 4 against 10), and one that vanishes
        # everywhere (K = 0)
        alg = verify_small_inputs()["Mat_2+S3"]
        rng = np.random.default_rng(32)
        on_mat2 = np.concatenate([random_functional(4, rng).coords, np.zeros(6)])
        fs = [random_functional(alg.dim, rng) for _ in range(3)]
        fs[1:1] = [Functional(on_mat2), Functional(np.zeros(alg.dim))]
        decs = decompose_all(alg, fs, seed=4)
        assert [dec.quotient_dim for dec in decs] == [10, 4, 0, 10, 10]
        assert [dec.nil.dim for dec in decs] == [0, 6, 10, 0, 0]
        for f, dec in zip(fs, decs):
            assert_bitwise_equal(dec, decompose_loop(alg, f, seed=4))

    def test_climbing_points_match_the_loop(self):
        alg, f = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["levels3"][0])
        rng = np.random.default_rng(33)
        fs = [f] + [random_functional(alg.dim, rng) for _ in range(3)]
        decs = decompose_all(alg, fs, seed=2)
        assert max(len(levels) for levels in decs[0].quotient_filtrations) == 3
        for f, dec in zip(fs, decs):
            assert_bitwise_equal(dec, decompose_loop(alg, f, seed=2))

    def test_chi_is_formed_on_first_read(self):
        # a batch member holds its eigenvalues and no chi until chi is
        # read; then its chi is, bit for bit, the one its functional gets
        # alone, K = 0 included, and a second read returns the same object
        alg = verify_small_inputs()["Mat_2+S3"]
        rng = np.random.default_rng(36)
        fs = [random_functional(alg.dim, rng) for _ in range(3)] + [Functional(np.zeros(alg.dim))]
        decs = decompose_all(alg, fs, seed=5)
        assert [dec.quotient_dim for dec in decs] == [10, 10, 10, 0]
        assert not any("chi" in vars(dec) for dec in decs)
        for f, dec in zip(fs, decs):
            alone = decompose(alg, f, seed=5).chi
            assert dec.chi.degree == alone.degree
            assert dec.chi.coeffs.tobytes() == alone.coeffs.tobytes()
            assert "chi" in vars(dec) and dec.chi is dec.chi

    def test_empty_batch(self):
        assert decompose_all(mat_algebra(2), []) == []

    def test_singular_functional_second_raises(self):
        alg = mat_algebra(3)
        good = random_functional(alg.dim, np.random.default_rng(34))
        singular = nilpotent_shift_functional()
        with pytest.raises(SingularPencil) as alone:
            decompose(alg, singular, seed=3)
        with pytest.raises(SingularPencil) as batch:
            decompose_all(alg, [good, singular, good], seed=3)
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("singular_first", [True, False])
    def test_singular_group_raises_in_either_order(self, singular_first):
        # a random F (K = 9) and the singular F (K = 8) form two groups, each
        # done in one pass; the singular one's error is raised whichever
        # group comes first
        alg = mat_algebra(3)
        good = random_functional(alg.dim, np.random.default_rng(34))
        singular = nilpotent_shift_functional()
        assert [reduce_pencil(alg, f).K for f in (good, singular)] == [9, 8]
        with pytest.raises(SingularPencil) as alone:
            decompose(alg, singular)
        with pytest.raises(SingularPencil) as batch:
            decompose_all(alg, [singular, good] if singular_first else [good, singular])
        assert str(batch.value) == str(alone.value)

    def test_first_failing_functional_in_input_order_raises(self):
        # a wrong dimension and a non-finite pairing fail at the reduction,
        # before the shift draw at which the singular functional fails.
        # Mat_3 in the basis 4 e_ij has structure constants 4, so finite
        # coordinates of 1e308 overflow in the pairing
        mat3 = mat_algebra(3)
        alg = Algebra(9, 4.0 * mat3.structure, mat3.unit / 4.0)
        good = random_functional(alg.dim, np.random.default_rng(35))
        singular = nilpotent_shift_functional()
        short = Functional(np.ones(4))
        huge = Functional(np.full(alg.dim, 1e308))
        with pytest.raises(SingularPencil):
            decompose_all(alg, [good, singular, short, huge])
        with pytest.raises(DimensionMismatch):
            decompose_all(alg, [good, short, singular])
        with pytest.raises(NonFinite, match="^functional: the pairing F\\(e_i e_j\\) is too large"):
            decompose_all(alg, [huge, singular, short])
        with pytest.raises(NoRegularValue, match="empty pencil") as empty:
            choose_alpha0(reduce_pencil(alg, Functional(np.zeros(alg.dim))))
        assert not isinstance(empty.value, SingularPencil)

    def test_one_pencil_stack_per_k_group(self, monkeypatch):
        # K = 10, 4 and 0 in one batch: one stack per K >= 1, read by every
        # stage of its group
        import algscope.spectral as spectral

        stacked = []

        def counted(rps):
            stacked.append([rp.K for rp in rps])
            return _pencil_stack(rps)

        monkeypatch.setattr(spectral, "_pencil_stack", counted)
        alg = mat2_plus_s3()
        rng = np.random.default_rng(42)
        on_mat2 = np.concatenate([random_functional(4, rng).coords, np.zeros(6)])
        fs = [random_functional(alg.dim, rng), Functional(on_mat2), Functional(np.zeros(10))]
        decs = decompose_all(alg, fs + [random_functional(alg.dim, rng)], seed=1)
        assert [dec.quotient_dim for dec in decs] == [10, 4, 0, 10]
        assert sorted(stacked) == [[4], [10, 10]]
        stacked.clear()
        decompose_all(mat_algebra(3), [random_functional(9, rng) for _ in range(10)])
        assert stacked == [[9] * 10]

    def test_pencils_of_two_tolerances_are_stacked_apart(self, monkeypatch):
        # one size K, two tolerances: each tolerance is its own group, so a
        # stacked nullspace never decides one pencil at another's tolerance
        import algscope.spectral as spectral
        from algscope.spectral import _decompose_pencils

        stacked = []

        def counted(rps):
            stacked.append([rp.nil.tol for rp in rps])
            return _pencil_stack(rps)

        monkeypatch.setattr(spectral, "_pencil_stack", counted)
        alg = upper_triangular(3)
        rng = np.random.default_rng(37)
        fs = [random_functional(alg.dim, rng) for _ in range(3)]
        tols = [1e-9, 1e-6, 1e-9]
        decs = _decompose_pencils(
            [reduce_pencil(alg, f, tol) for f, tol in zip(fs, tols)], 5, DEFAULT_CLUSTER_TOL
        )
        assert sorted(stacked) == [[1e-9, 1e-9], [1e-6]]
        assert [dec.tol for dec in decs] == tols
        for f, tol, dec in zip(fs, tols, decs):
            assert_bitwise_equal(dec, decompose(alg, f, tol=tol, seed=5))

    def test_batched_shift_draws_match_each_pencil_alone(self, monkeypatch):
        # K = 9 pencils accepted at different draws (at floor 0.05 the first
        # takes 7, the second 1) and one singular for every alpha, whose
        # K = 8 stack finds no shift; at floor 1 no pencil finds one
        import algscope.spectral as spectral
        from algscope.spectral import _choose_alpha0s

        rng = np.random.default_rng(36)
        stacks = [
            [reduce_pencil(mat_algebra(3), random_functional(9, rng)) for _ in range(3)],
            [reduce_pencil(mat_algebra(3), nilpotent_shift_functional())] * 2,
            [reduce_pencil(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])))],
        ]
        kinds = []
        for floor in (1e-8, 0.05, 0.075, 1.0):
            monkeypatch.setattr(spectral, "SHIFT_FLOOR", floor)
            for rps in stacks:
                batch = _choose_alpha0s(rps, _pencil_stack(rps), seed=7)
                for rp, got in zip(rps, batch):
                    kinds.append((floor, type(got).__name__))
                    try:
                        want = choose_alpha0(rp, seed=7)
                    except NoRegularValue as exc:
                        assert type(got) is type(exc) and str(got) == str(exc)
                    else:
                        assert got == want
        assert {kind for floor, kind in kinds if floor == 0.05} == {"complex", "SingularPencil"}
        assert {kind for floor, kind in kinds if floor == 1.0} == {
            "NoRegularValue",
            "SingularPencil",
        }


class TestDecompositionChecksOracle:
    """Each decomposition's checks agree with the per-pencil loop: every
    check keeps its name, verdict and detail, and its residual to 1e-15
    relative."""

    @staticmethod
    def assert_agree(checks, rp, points, v_frames, seed=0):
        want = decomposition_checks_loop(rp, list(points), v_frames, TOL, seed)
        assert [(c.name, c.passed, c.detail) for c in checks] == [
            (c.name, c.passed, c.detail) for c in want
        ]
        for got, ref in zip(checks, want):
            assert abs(got.residual - ref.residual) <= 1e-15 * abs(ref.residual), got.name
        return want

    @classmethod
    def assert_batch_agrees(cls, decs, seed=0):
        """Compare every decomposition, decomposed with ``seed``; return
        their checks."""
        found = []
        for dec in decs:
            v_frames = [levels[-1] for levels in dec.quotient_filtrations]
            found.append(cls.assert_agree(dec.checks, dec.pencil, dec.points, v_frames, seed))
        return found

    @pytest.mark.parametrize("name", list(verify_small_inputs()))
    def test_verify_small_batches(self, name):
        alg = verify_small_inputs()[name]
        rng = np.random.default_rng(41)
        decs = decompose_all(alg, [random_functional(alg.dim, rng) for _ in range(10)], seed=3)
        assert len(self.assert_batch_agrees(decs, seed=3)) == 10

    def test_mixed_and_empty_quotients(self, monkeypatch):
        # K = 10, 4 and 0 in one batch: no check runs until a decomposition's
        # checks are read, then once per decomposition, on its own pencil;
        # the empty quotient runs the same five checks
        import algscope.spectral as spectral

        ks = []
        real = spectral._decomposition_checks

        def counted(rp, *args):
            ks.append(rp.K)
            return real(rp, *args)

        monkeypatch.setattr(spectral, "_decomposition_checks", counted)
        alg = mat2_plus_s3()
        rng = np.random.default_rng(42)
        on_mat2 = np.concatenate([random_functional(4, rng).coords, np.zeros(6)])
        fs = [random_functional(alg.dim, rng), Functional(on_mat2), Functional(np.zeros(10))]
        decs = decompose_all(alg, fs + [random_functional(alg.dim, rng)], seed=1)
        assert [dec.quotient_dim for dec in decs] == [10, 4, 0, 10]
        assert ks == []
        assert len(self.assert_batch_agrees(decs, seed=1)) == 4
        assert sorted(ks) == [0, 4, 10, 10]
        assert [c.name for c in decs[2].checks] == [c.name for c in decs[0].checks]
        assert decs[2].ok and sorted(ks) == [0, 4, 10, 10]

    def test_infinite_points(self):
        decs = [
            decompose(upper_triangular(2), Functional(np.array([1.0, 1.0, 2.0]))),
            decompose(mat_algebra(3), matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))),
        ]
        assert all(any(p.alpha.is_infinite for p in dec.points) for dec in decs)
        self.assert_batch_agrees(decs)

    @pytest.mark.parametrize("name", list(PLANTED_JORDAN_BLOCKS))
    def test_planted_jordan_blocks(self, name):
        alg, f = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS[name][0])
        rng = np.random.default_rng(43)
        decs = decompose_all(alg, [f] + [random_functional(alg.dim, rng) for _ in range(3)])
        assert any(len(levels) > 1 for levels in decs[0].quotient_filtrations)
        self.assert_batch_agrees(decs)

    @pytest.mark.parametrize(
        "build, value, failing",
        [
            (
                lambda: (mat_algebra(4), random_functional(16, np.random.default_rng(0))),
                1.0,
                {"v_dim_equals_nil_plus_multiplicity", "v_spaces_direct_sum"},
            ),
            (
                lambda: prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["two-blocks"][0]),
                -1.0,
                {"v_spaces_direct_sum"},
            ),
        ],
        ids=["mat4", "two-blocks"],
    )
    def test_split_point_spectra_fail_the_same_checks(self, monkeypatch, build, value, failing):
        alg, f = build()
        fs = [f, random_functional(alg.dim, np.random.default_rng(44))]
        split_point(monkeypatch, value)
        decs = decompose_all(alg, fs)
        want, _ = self.assert_batch_agrees(decs)
        assert {c.name for c in want if not c.passed} == failing

    def test_doctored_frames(self):
        # one pencil with four sets of frames: its own, a repeated column, an
        # extra dependent column (K + 1 columns) and a random simple frame
        alg = mat_algebra(3)
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(45)))
        frames = [levels[-1] for levels in dec.quotient_filtrations]
        simple = [q for q, p in enumerate(dec.points) if p.algebraic_mult == 1]
        repeated, extra, randomized = list(frames), list(frames), list(frames)
        repeated[simple[1]] = frames[simple[0]].copy()
        extra[simple[1]] = np.hstack([frames[simple[1]], frames[simple[0]]])
        randomized[simple[0]] = random_unit(dec.quotient_dim, np.random.default_rng(46))
        found, failed = [], []
        for v_frames in [frames, repeated, extra, randomized]:
            found.append(_decomposition_checks(dec.pencil, dec.points, v_frames, 0))
            want = self.assert_agree(found[-1], dec.pencil, dec.points, v_frames)
            failed.append({c.name for c in want if not c.passed})
        # the decomposition's own frames give its own checks
        assert repr(tuple(found[0])) == repr(dec.checks)
        # a column of another point lies off Stab(alpha)
        off_stab = {"simple_frames_in_stabilizer", "v_spaces_direct_sum"}
        assert failed == [
            set(),
            off_stab,
            off_stab | {"v_dim_equals_nil_plus_multiplicity"},
            {"simple_frames_in_stabilizer"},
        ]


def kernel_stabilizer_cases():
    """(name, algebra, functional, dim nil): random functionals on tri_4 to
    tri_6, the dual numbers and Mat_2 + S3, and direct sums with F zero on
    one summand, so nil != 0."""
    tri5_mat2 = direct_sum(upper_triangular(5), mat_algebra(2))
    mat3_tri5 = direct_sum(mat_algebra(3), upper_triangular(5))
    tri4_dual = direct_sum(upper_triangular(4), dual_numbers())
    rng = np.random.default_rng(81)
    cases = [
        (f"tri_{n}", upper_triangular(n), random_functional(n * (n + 1) // 2, rng), 0)
        for n in (4, 5, 6)
    ]
    cases += [
        ("dual", dual_numbers(), random_functional(2, rng), 0),
        ("Mat_2+S3", mat2_plus_s3(), random_functional(10, rng), 0),
        ("Mat_2+S3 zero on S3", mat2_plus_s3(), zero_on(mat2_plus_s3(), 4, 10, 82), 6),
        # nil 4, with the points 0 and infinity in the quotient
        ("tri_5+Mat_2 zero on Mat_2", tri5_mat2, zero_on(tri5_mat2, 15, 19, 83), 4),
        ("Mat_3+tri_5 zero on tri_5", mat3_tri5, zero_on(mat3_tri5, 9, 24, 84), 15),
        ("tri_4+dual zero on dual", tri4_dual, zero_on(tri4_dual, 10, 12, 85), 2),
    ]
    return cases


class TestKernelStabilizers:
    """Stab(infinity) is the pairing's right kernel and Stab(0) its left
    kernel: ``stab`` returns the kernels the pencil holds, and the level 0
    of a multiple point at infinity or 0 is the kernel in quotient
    coordinates, Q^H kernel, of dimension dim kernel - dim nil."""

    @pytest.mark.parametrize(
        "case", kernel_stabilizer_cases(), ids=[c[0] for c in kernel_stabilizer_cases()]
    )
    def test_kernels_are_the_stabilizers(self, case):
        _, alg, f, nil_dim = case
        dec = decompose(alg, f)
        assert dec.ok, [c for c in dec.checks if not c.passed]
        rp, ker = dec.pencil, dec.pencil.kernels
        assert dec.nil.dim == nil_dim
        q = rp.quotient_frame
        for alpha, kernel in ((INFINITY, ker.right), (ProjectivePoint.finite(0.0), ker.left)):
            got = stab(rp, alpha)
            # the kernel itself, with no SVD
            assert got is kernel
            # the kernel spans the stabilizer of the defining conditions
            value = None if alpha.is_infinite else 0.0
            oracle = Subspace(alg.dim, stab_fullspace(alg, f.coords, value), TOL)
            assert got.dim == oracle.dim and projector_distance(got, oracle) < 1e-8
            i = dec.point_at(alpha)
            if i is None:
                # no point there: the kernel is nil
                assert kernel.dim == rp.nil.dim
                continue
            p, w = dec.points[i], dec.quotient_filtrations[i][0]
            assert p.stab_dim == w.shape[1] == kernel.dim - rp.nil.dim
            # the lifted columns lie in the kernel, and Q w is orthogonal to
            # nil, so w spans Q^H kernel
            assert np.max(kernel.residual(q @ w), initial=0.0) < 1e-12
            assert np.allclose(w.conj().T @ w, np.eye(w.shape[1]), atol=1e-12)

    def test_quotient_with_nil_holds_both_kernel_points(self):
        name, alg, f, _ = kernel_stabilizer_cases()[6]
        assert name == "tri_5+Mat_2 zero on Mat_2"
        dec = decompose(alg, f)
        assert dec.pencil.kernels.left.dim == dec.pencil.kernels.right.dim == 10
        ends = [dec.points[0], dec.points[-1]]
        assert [p.alpha for p in ends] == [ProjectivePoint.finite(0.0), INFINITY]
        assert [(p.algebraic_mult, p.stab_dim) for p in ends] == [(6, 6), (6, 6)]



class TestEqualValuedPoints:
    """Each point keeps its own chain, by position, even when two points
    have equal values: a layout keyed by the value would give both one
    chain."""

    def test_each_point_keeps_its_own_chain(self, monkeypatch):
        import algscope.linalg as linalg
        from algscope import run_suites

        stack_points = linalg._stack_points

        def merged(*args):
            # the second simple point takes the first one's value, and keeps
            # its own eigenvector
            out = stack_points(*args)
            for raw in out:
                first, second = [j for j, (_, mult, _) in enumerate(raw) if mult == 1][:2]
                raw[second] = (raw[first][0],) + raw[second][1:]
            return out

        # _shifted_eigens looks the name up in its module when it runs
        monkeypatch.setattr(linalg, "_stack_points", merged)
        alg = mat_algebra(3)
        dec = decompose(alg, random_functional(9, np.random.default_rng(1)))
        first, second = [j for j, p in enumerate(dec.points) if p.algebraic_mult == 1][:2]
        assert dec.points[first].alpha == dec.points[second].alpha
        assert len(dec.points) == 7
        checks = {c.name: c for c in dec.checks}
        assert len(checks) == 5
        # the frames are still the eigenvectors, one per point, so they
        # split the quotient at rank K
        direct = checks["v_spaces_direct_sum"]
        assert direct.passed and direct.detail == "rank 9 of 9 stacked V(alpha) columns vs K 9"
        # the second point's eigenvector lies off Stab of the value it took,
        # and no other frame does
        assert not checks["simple_frames_in_stabilizer"].passed
        alphas = [p.alpha for p in dec.points]
        (residuals,) = _stab_residuals(
            [dec.pencil], [alphas], [[levels[0] for levels in dec.quotient_filtrations]]
        )
        assert [j for j, r in enumerate(residuals) if r >= dec.tol] == [second]
        for levels in (dec.quotient_filtrations, dec.filtrations, dec.v_spaces):
            assert isinstance(levels, tuple) and len(levels) == len(dec.points)
        assert projector_distance(dec.v_spaces[first], dec.v_spaces[second]) > 0.5
        # every suite reads the decompositions by position too
        findings = run_suites(alg, n_functionals=3, seed=1)
        assert findings and all(f.theorem_id for f in findings)
