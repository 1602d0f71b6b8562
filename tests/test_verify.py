import collections
import dataclasses
import inspect

import numpy as np
import pytest

from algscope import (
    INFINITY,
    DimensionMismatch,
    Functional,
    Kernels,
    ProjectivePoint,
    SingularPencil,
    Subspace,
    choose_alpha0,
    cyclic_table,
    decompose,
    decompose_all,
    direct_sum,
    dual_numbers,
    gram,
    group_algebra,
    is_multiplicative,
    kernels,
    klein_table,
    mat_algebra,
    matrix_trace_functional,
    minimize_stab_dim,
    negative_control_finding,
    opposite,
    projector_distance,
    random_functional,
    reduce_pencil,
    run_suites,
    stab,
    symmetric3_table,
    upper_triangular,
    verify_alpha0_suite,
    verify_corollaries,
    verify_dim_symmetry,
    verify_kernel_relations,
    verify_regular_perturbation,
    verify_stab_transversality,
    verify_v_mult,
)
from algscope.algebra import pairwise_products
from algscope.verify import (
    COROLLARY_2,
    COROLLARY_3,
    COROLLARY_TOL,
    DEFAULT_SUITES,
    DIM_SYMMETRY_STAB,
    DIM_SYMMETRY_V,
    SUITE_NAMES,
    V_MULT_FINITE,
    V_MULT_NONZERO,
    _alphas,
    _chain_distance,
    _first_worst,
    _point_indices,
    _product_inclusions,
)

from oracles import (
    PLANTED_JORDAN_BLOCKS,
    alpha0_suite_loop,
    corollaries_loop,
    dim_symmetry_loop,
    dim_symmetry_scan,
    kernel_relations_loop,
    minimize_stab_dim_loop,
    perturbation_samples_loop,
    prescribed_pencil_algebra,
    product_inclusions_pairwise,
    regular_perturbation_loop,
    run_suites_loop,
    slot_one_kernel,
    stab_fullspace,
    stab_transversality_pairwise,
    target_indices_loop,
    v_mult_loop,
    with_chain,
    zero_on,
)


def full_dual(dim):
    return [Functional(row) for row in np.eye(dim, dtype=complex)]


def diag125():
    return matrix_trace_functional(np.diag([1.0, 2.0, 5.0]))


def _mat2_inputs():
    """A Mat_2 functional with its kernels and decomposition."""
    f = random_functional(4, np.random.default_rng(25))
    return f, kernels(mat_algebra(2), f), decompose(mat_algebra(2), f)


def _mat3_functional():
    return random_functional(9, np.random.default_rng(0))


#: the public entry points that read a functional or an analysis, each
#: called on Mat_3 with the Mat_2 inputs of :func:`_mat2_inputs`
_CROSS_ALGEBRA_CALLS = {
    "gram": lambda alg, f, ker, dec: gram(alg, f),
    "reduce_pencil": lambda alg, f, ker, dec: reduce_pencil(alg, f),
    "decompose_all": lambda alg, f, ker, dec: decompose_all(alg, [_mat3_functional(), f]),
    "minimize_stab_dim": lambda alg, f, ker, dec: minimize_stab_dim(alg, 1.0, -1.0, [], f),
    "minimize_stab_dim_direction": lambda alg, f, ker, dec: minimize_stab_dim(
        alg, 1.0, -1.0, [f], _mat3_functional()
    ),
    "verify_regular_perturbation_direction": lambda alg, f, ker, dec: verify_regular_perturbation(
        alg, reduce_pencil(alg, _mat3_functional()), 1.0, -1.0, [f]
    ),
    "verify_kernel_relations": lambda alg, f, ker, dec: verify_kernel_relations(alg, ker),
    "is_multiplicative": lambda alg, f, ker, dec: is_multiplicative(alg, f, ker),
    "is_multiplicative_kernels": lambda alg, f, ker, dec: is_multiplicative(
        alg, random_functional(alg.dim, np.random.default_rng(0)), ker
    ),
    "verify_v_mult": lambda alg, f, ker, dec: verify_v_mult(alg, dec),
    "verify_corollaries_1": lambda alg, f, ker, dec: verify_corollaries(
        alg, dec.pencil, ProjectivePoint.finite(1.0)
    ),
    "verify_corollaries_0": lambda alg, f, ker, dec: verify_corollaries(
        alg, dec.pencil, ProjectivePoint.finite(0.0)
    ),
    "verify_regular_perturbation": lambda alg, f, ker, dec: verify_regular_perturbation(
        alg, dec.pencil, 1.0, -1.0, []
    ),
}


def nil_ideal_inputs():
    """name -> (algebra, functional) whose left and right kernels equal a
    nonzero nil: the dual numbers at F(1) = 1, F(eps) = 0, and direct sums
    with F zero on one summand, whose nil is that summand."""
    mat3_tri5 = direct_sum(mat_algebra(3), upper_triangular(5))
    mat2_dual = direct_sum(mat_algebra(2), dual_numbers())
    return {
        "dual": (dual_numbers(), Functional(np.array([1.0, 0.0]))),
        "Mat_3+tri_5 zero on tri_5": (mat3_tri5, zero_on(mat3_tri5, 9, 24, 84)),
        "Mat_2+dual zero on dual": (mat2_dual, zero_on(mat2_dual, 4, 6, 85)),
    }


class TestAnotherAlgebra:
    """An analysis of one algebra handed to a suite of another raises
    :class:`DimensionMismatch` naming both dimensions."""

    @pytest.mark.parametrize("name", list(_CROSS_ALGEBRA_CALLS))
    def test_names_both_dimensions(self, name):
        with pytest.raises(DimensionMismatch) as err:
            _CROSS_ALGEBRA_CALLS[name](mat_algebra(3), *_mat2_inputs())
        assert "4" in str(err.value) and "9" in str(err.value)


class TestKernelRelations:
    def test_zero_functional_passes_trivially(self):
        alg = mat_algebra(2)
        finding = verify_kernel_relations(alg, kernels(alg, Functional(np.zeros(4))))
        assert finding.passed

    def test_dual_numbers_exact(self):
        alg = dual_numbers()
        finding = verify_kernel_relations(alg, kernels(alg, Functional(np.array([1.0, 0.0]))))
        assert finding.passed and finding.max_residual < 1e-14

    def test_random_triangular_sweep(self):
        alg = upper_triangular(3)
        rng = np.random.default_rng(42)
        for _ in range(20):
            finding = verify_kernel_relations(alg, kernels(alg, random_functional(alg.dim, rng)))
            assert finding.passed, finding

    def test_failure_carries_a_witness(self):
        # feed a deliberately broken "pairing" by corrupting the algebra: a
        # structure without associativity breaks the kernel relations
        from algscope import Algebra

        rng = np.random.default_rng(5)
        c = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        alg = Algebra(3, c, np.array([1.0, 0.0, 0.0]))
        f = Functional(np.array([0.0, 1.0, 0.0]))
        finding = verify_kernel_relations(alg, kernels(alg, f))
        if not finding.passed:
            assert finding.witness is not None

    @pytest.mark.parametrize("name", list(nil_ideal_inputs()))
    def test_nil_is_an_ideal_when_both_kernels_are_nil(self, name):
        # when left = right = nil, relations 6 and 7 (nil*algebra<=left,
        # algebra*nil<=right) say that nil is a two-sided ideal.  Every
        # relation is sampled: d N products for each of 1, 2, 6 and 7, d^2
        # for each of 3-5, at nil of dimension d
        alg, f = nil_ideal_inputs()[name]
        ker = kernels(alg, f)
        d, n = ker.nil.dim, alg.dim
        assert d and ker.left.dim == ker.right.dim == d
        finding = verify_kernel_relations(alg, ker)
        assert finding.passed and finding.max_residual == 0.0
        assert finding.samples == 4 * d * n + 3 * d * d

    def test_a_nil_that_is_no_ideal_fails(self):
        # x = span(E12) in Mat_2 planted as left, right and nil kernel:
        # E12 E21 = E11 lies off x, as does E21 E12 = E22
        alg = mat_algebra(2)
        x = Subspace(4, np.eye(4, dtype=complex)[:, [1]], 1e-9)
        finding = verify_kernel_relations(alg, Kernels(x, x, x))
        assert not finding.passed and finding.max_residual == 1.0
        assert finding.witness == ("left*algebra<=left", 0, 2)


class TestVMult:
    def test_mat3_products_between_lines(self):
        alg = mat_algebra(3)
        findings = verify_v_mult(alg, decompose(alg, diag125()))
        assert [f.theorem_id for f in findings] == [V_MULT_FINITE, V_MULT_NONZERO]
        assert all(f.passed for f in findings)

    def test_explicit_line_products(self):
        # V(2) . V(5/2) = E21 . E32 lands in V(5) = span(E31)... indices:
        # E21 E13 = E23 etc; check the underlying algebra relations feeding
        # the inclusion the finding asserts
        alg = mat_algebra(3)
        dec = decompose(alg, diag125())
        v2, v52, v5 = (dec.v_spaces[dec.point_at(ProjectivePoint.finite(x))] for x in (2, 2.5, 5))
        from algscope import multiply

        prod = multiply(alg, v2.frame[:, 0], v52.frame[:, 0]).coords
        # alpha*beta = 5 is in the spectrum and the product must lie in V(5)
        assert v5.residual(prod.reshape(-1, 1))[0] < 1e-10

    def test_product_at_non_spectrum_point_falls_into_nil(self):
        alg = mat_algebra(3)
        dec = decompose(alg, diag125())
        v2 = dec.v_spaces[dec.point_at(ProjectivePoint.finite(2.0))]
        from algscope import multiply

        prod = multiply(alg, v2.frame[:, 0], v2.frame[:, 0]).coords
        # alpha*beta = 4 is not a spectrum point; E21 E21 = 0 lies in nil = {0}
        assert np.linalg.norm(prod) < 1e-10

    def test_commutative_algebra_all_at_one(self):
        alg = group_algebra(klein_table())
        f = random_functional(4, np.random.default_rng(3))
        findings = verify_v_mult(alg, decompose(alg, f))
        assert all(f.passed for f in findings)

    def test_no_mirrored_decomposition_is_left(self):
        """Both variants read the decomposition of the algebra they are given;
        the mirror of it into the opposite algebra is gone from the package,
        its namespace and the README."""
        from pathlib import Path

        import algscope
        import algscope.spectral as spectral

        root = Path(__file__).resolve().parents[1]
        assert "opposite_decomposition" not in algscope.__all__
        assert not hasattr(spectral, "opposite_decomposition")
        for path in [*(root / "src" / "algscope").glob("*.py"), root / "README.md"]:
            assert "opposite_decomposition" not in path.read_text(encoding="utf-8"), path

    @pytest.mark.parametrize("n, bound", [(4, 1.6), (6, 16.0)])
    def test_memory_is_one_product_tensor(self, n, bound):
        # ten functionals of Mat_n in one shape group, whose product tensors
        # were all alive at once: the tracemalloc peak of a v-mult run was
        # 2.25 MiB on Mat_4 and 22.9 MiB on Mat_6; formed one decomposition
        # at a time it is 1.13 and 12.35 MiB, most of it the point lookup
        import tracemalloc

        alg = mat_algebra(n)
        # a first run keeps lazy imports and first-call set-up out of the peak
        run_suites(mat_algebra(2), ("v-mult",), 10, 1)
        tracemalloc.start()
        try:
            found = run_suites(alg, ("v-mult",), 10, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(f.passed for f in found)
        assert peak < bound * 2**20, f"v-mult peaked at {peak / 2**20:.2f} MiB on Mat_{n}"

    def test_defective_point_products_climb_levels(self):
        # the planted Jordan block at -1 exercises k + m > 0 targets
        alg, f = prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]]))
        findings = verify_v_mult(alg, decompose(alg, f))
        assert all(x.passed for x in findings)
        for x in verify_dim_symmetry(decompose(alg, f)):
            assert x.passed


class TestDimSymmetry:
    def test_mat3_mirror_pairs(self):
        findings = verify_dim_symmetry(decompose(mat_algebra(3), diag125()))
        assert [f.theorem_id for f in findings] == [DIM_SYMMETRY_V, DIM_SYMMETRY_STAB]
        assert all(f.passed for f in findings)

    def test_witness_is_the_first_worst_point(self):
        # alpha = 1 (multiplicity 3) and alpha = 2 (multiplicity 1) moved off
        # their mirrors: the largest mismatch, 3, is reached at alpha = 1
        # alone, before 2 and its mirror 1/2 lose their pairing
        dec = decompose(mat_algebra(3), diag125())
        one = dec.point_at(ProjectivePoint.finite(1.0))
        two = dec.point_at(ProjectivePoint.finite(2.0))
        moved = {one: 7.0, two: 11.0}
        points = tuple(
            dataclasses.replace(p, alpha=ProjectivePoint.finite(moved[i])) if i in moved else p
            for i, p in enumerate(dec.points)
        )
        v, stab_finding = verify_dim_symmetry(dataclasses.replace(dec, points=points))
        assert not v.passed and v.max_residual == 3.0
        assert v.witness == (ProjectivePoint.finite(7.0), "no mirror point")
        assert stab_finding.passed

    @staticmethod
    def mirror_cases():
        """Decompositions whose spectra have mirrors, lack them, hold 0 and
        infinity, or put two points within ``cluster_tol`` of one inverse."""
        rng = np.random.default_rng(23)
        algs = [mat_algebra(3), upper_triangular(4), group_algebra(symmetric3_table())]
        algs.append(direct_sum(mat_algebra(2), upper_triangular(3)))
        decs = [decompose(alg, random_functional(alg.dim, rng)) for alg in algs]
        decs += [decompose(*prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]])))]
        dec = decompose(mat_algebra(3), diag125())
        cases = list(decs) + [dec]
        # each point in turn moved off its mirror, onto a value with no
        # mirror, to 0 and to infinity
        for i, p in enumerate(dec.points):
            for alpha in (ProjectivePoint.finite(7.0), ProjectivePoint.finite(0.0), INFINITY):
                moved = dataclasses.replace(p, alpha=alpha)
                points = dec.points[:i] + (moved,) + dec.points[i + 1 :]
                cases.append(dataclasses.replace(dec, points=points))
        # a point within cluster_tol of another: both match one inverse
        near = ProjectivePoint.finite(dec.points[0].alpha.value * (1 + 1e-8))
        twin = dataclasses.replace(dec.points[0], alpha=near)
        cases.append(dataclasses.replace(dec, points=dec.points + (twin,)))
        return cases

    def test_mirrors_match_the_scan(self):
        cases = self.mirror_cases()
        assert any(not all(f.passed for f in verify_dim_symmetry(dec)) for dec in cases)
        for dec in cases:
            got = verify_dim_symmetry(dec)
            assert [(f.max_residual, f.witness) for f in got] == list(dim_symmetry_scan(dec))
            assert [f.samples for f in got] == [len(dec.points)] * 2

    def test_mirrors_take_no_scan(self, monkeypatch):
        from algscope.spectral import Decomposition

        dec = decompose(mat_algebra(3), diag125())
        monkeypatch.setattr(Decomposition, "point_at", None)
        assert all(f.passed for f in verify_dim_symmetry(dec))

    def test_empty_spectrum_passes_alone_and_in_a_batch(self):
        # F = 0: nil is the whole algebra and there is no point to mirror
        import algscope.verify as verify

        alg = mat_algebra(2)
        empty = decompose(alg, Functional(np.zeros(4)))
        assert empty.points == ()
        findings = verify_dim_symmetry(empty)
        assert [(f.passed, f.max_residual, f.witness, f.samples) for f in findings] == [
            (True, 0.0, None, 0)
        ] * 2
        other = decompose(alg, random_functional(4, np.random.default_rng(3)))
        assert verify._dim_symmetry([other, empty]) == [verify_dim_symmetry(other), findings]

    def test_triangular_spectrum_closed_under_inversion(self):
        alg = upper_triangular(3)
        rng = np.random.default_rng(17)
        for _ in range(10):
            findings = verify_dim_symmetry(decompose(alg, random_functional(alg.dim, rng)))
            assert all(f.passed for f in findings)


class TestAlpha0Suite:
    def test_runs_on_spectrum_points(self):
        dec = decompose(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])))
        finding = verify_alpha0_suite(dec)
        assert finding.passed and finding.samples == 3
        # the distances are round-off, so no point is named
        assert finding.max_residual < 1e-12 and finding.witness is None

    def test_fails_on_a_doctored_reported_chain(self):
        import algscope.verify as verify

        # planted block2: the point -1 has levels of widths (1, 2).  Its
        # reported level 1 is replaced by another width-2 frame that
        # contains level 0, so the chain other suites read is wrong while
        # any chain climbed from level 0 is right
        alg, _ = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["block2"][0])
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(0)))
        i = next(i for i, p in enumerate(dec.points) if abs(p.alpha.value + 1.0) < 1e-6)
        p = dec.points[i]
        w0, w1 = dec.quotient_filtrations[i]
        assert (w0.shape[1], w1.shape[1]) == (1, 2)
        # a direction orthogonal to the whole of the reported level 1
        u = np.linalg.svd(w1, full_matrices=True)[0][:, 2:3]
        level1 = np.hstack([w0, u])
        level1.setflags(write=False)
        doctored = with_chain(dec, i, (w0, level1))
        assert verify_alpha0_suite(dec).passed
        finding = verify_alpha0_suite(doctored)
        assert not finding.passed and finding.max_residual > 0.5
        assert finding.witness == (p.alpha, dec.alpha0_used, choose_alpha0(dec.pencil, seed=1))
        batched = verify._alpha0_suite([doctored, dec], [0, 0])
        assert_same_findings(batched, [finding, verify_alpha0_suite(dec)])

    def test_chain_distance_compares_the_levels_above_0(self):
        # level 0 is shared, so a different level 0 is not read; levels
        # above it give their projector distance, and a width that differs
        # gives inf
        e = np.eye(3, dtype=complex)
        w0, w1 = e[:, :1], e[:, :2]
        assert _chain_distance([w0], [e[:, 1:2]]) == 0.0
        assert _chain_distance([w0, w1], [w0, w1[:, ::-1] * 1j]) < 1e-15
        turned = np.hstack([w0, (e[:, 1:2] + e[:, 2:3]) / np.sqrt(2)])
        assert _chain_distance([w0, w1], [w0, turned]) == pytest.approx(np.sqrt(0.5))
        assert _chain_distance([w0, w1, e], [w0, turned, e]) == pytest.approx(np.sqrt(0.5))
        assert _chain_distance([w0, w1], [w0, e]) == float("inf")
        assert _chain_distance([w0, w1], [w0]) == float("inf")

    def test_a_new_shift_replaces_the_decomposition_own(self, monkeypatch):
        import algscope.verify as verify

        # the decomposition drew its shift with seed 1, the suite's first
        # draw at seed 0: that draw is the decomposition's own shift, so the
        # suite draws again with seed 2
        alg, _ = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["block2"][0])
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(0)), seed=1)
        draws = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "choose_alpha0")
        climbs = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_filtration_reduced")
        assert verify_alpha0_suite(dec, seed=0).passed
        assert [kwargs["seed"] for _, kwargs in draws] == [1, 2]
        assert [args[2] for args, _ in climbs] == [choose_alpha0(dec.pencil, seed=2)]

    #: the alpha0 suite's verdict at each seed s, pinned from the rule that
    #: compared two chains climbed under two new shifts: P passed, F failed,
    #: - no decomposition (SingularPencil).  The planted blocks take the
    #: random functional of rng seed s, tri_4 and tri_5 the masked one (each
    #: coordinate zeroed with probability 1/2); the decomposition and the
    #: suite both take seed s.  No input fails, so no witness is pinned
    PINNED_VERDICTS = {
        "block2": "PPPPPPPPPP",
        "levels3": "PPPPPPPPPP",
        "two-blocks": "PPPPPPPPPP",
        "tri_4": "PPPPPPPPPPPPPP-PP--PPPP-PPP-PPPPPPPPP-PPP-PPPPP-PP",
        "tri_5": "PP-PPP-PPPPP---P-PPPP--P-PPP--PP-PPPPPP-P-PPP-PPPP",
    }

    @pytest.mark.parametrize("name", list(PINNED_VERDICTS))
    def test_verdicts_match_the_two_shift_rule(self, name):
        if name in PLANTED_JORDAN_BLOCKS:
            alg, _ = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS[name][0])
        else:
            alg = upper_triangular(int(name[-1]))
        found = []
        for s in range(len(self.PINNED_VERDICTS[name])):
            rng = np.random.default_rng(s)
            coords = random_functional(alg.dim, rng).coords
            if name not in PLANTED_JORDAN_BLOCKS:
                coords = coords * (rng.random(alg.dim) < 0.5)
            try:
                dec = decompose(alg, Functional(coords), seed=s)
            except SingularPencil:
                found.append("-")
                continue
            finding = verify_alpha0_suite(dec, s)
            found.append("P" if finding.passed else "F")
            assert (finding.witness is None) == finding.passed
        assert "".join(found) == self.PINNED_VERDICTS[name]

    def test_the_one_failing_masked_tri_4_keeps_its_witness_point(self):
        # the eighth masked functional of rng seed 17 on tri_4: the level 0
        # of the point 1 fails, as it did under the two-shift rule
        alg = upper_triangular(4)
        rng = np.random.default_rng(17)
        for _ in range(9):
            coords = random_functional(alg.dim, rng).coords * (rng.random(alg.dim) < 0.5)
        finding = verify_alpha0_suite(decompose(alg, Functional(coords), seed=17), 17 + 8)
        assert not finding.passed
        assert abs(finding.witness[0].value - 1.0) < 1e-9


class TestMinimize:
    def test_empty_perturbation_space_returns_start(self):
        alg = mat_algebra(2)
        f0 = matrix_trace_functional(np.diag([1.0, 2.0]))
        f_min, dim = minimize_stab_dim(alg, 1.0, -1.0, [], f0, samples=8, seed=0)
        assert f_min is f0 and dim == 2

    def test_mat2_minimal_stabilizer_is_the_commutant(self):
        alg = mat_algebra(2)
        rng = np.random.default_rng(11)
        _, dim = minimize_stab_dim(alg, 1.0, -1.0, full_dual(4), random_functional(4, rng), seed=1)
        assert dim == 2

    def test_dual_numbers_commutative_floor(self):
        alg = dual_numbers()
        _, dim = minimize_stab_dim(
            alg, 1.0, -1.0, full_dual(2), Functional(np.array([1.0, 0.3])), seed=2
        )
        assert dim == 2

    def test_rejects_the_zero_combination(self):
        # 0 a^T + 0 a is no point of the pencil: every kernel is the whole
        # algebra, which says nothing about a minimizer
        alg = mat_algebra(2)
        f0 = matrix_trace_functional(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="lambda0 and mu0"):
            minimize_stab_dim(alg, 0, 0, full_dual(4), f0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_refuses_a_tolerance_that_is_not_finite_and_positive(self, tol):
        # on Mat_3 the minimal kernel dimension is 3; at tol = nan every
        # rank came out 0, a kernel of dimension 9
        alg = mat_algebra(3)
        f0 = random_functional(9, np.random.default_rng(0))
        assert minimize_stab_dim(alg, 1.0, -1.0, full_dual(9), f0)[1] == 3
        with pytest.raises(ValueError, match="^tol must be a finite number > 0$"):
            minimize_stab_dim(alg, 1.0, -1.0, full_dual(9), f0, tol=tol)

    def test_monotone_in_sample_count(self):
        alg = upper_triangular(3)
        rng = np.random.default_rng(8)
        f0 = Functional(np.zeros(6, dtype=complex))  # worst possible start
        dims = []
        for samples in (1, 2, 4, 8, 16):
            _, dim = minimize_stab_dim(alg, 1.0, -1.0, full_dual(6), f0, samples=samples, seed=9)
            dims.append(dim)
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_draws_the_same_samples_as_the_loop(self, n):
        # all eps come from one uniform call, in the order the per-direction
        # loop drew its radii and phases, so the candidates are bitwise the
        # loop's and so is the minimizer
        from algscope.verify import _perturbed_coords

        alg = mat_algebra(n)
        rng = np.random.default_rng(100 + n)
        starts = [Functional(np.zeros(alg.dim, dtype=complex)), random_functional(alg.dim, rng)]
        for seed, f0 in enumerate(starts):
            candidates = _perturbed_coords(f0, full_dual(alg.dim), 32, seed)
            looped = perturbation_samples_loop(f0, full_dual(alg.dim), 32, seed)
            assert candidates.shape == (33, alg.dim)
            assert candidates.tobytes() == np.array(looped).tobytes()
            for lambda0, mu0 in ((1.0, -1.0), (1.0, 0.0)):
                args = (alg, lambda0, mu0, full_dual(alg.dim), f0)
                f_min, dim = minimize_stab_dim(*args, samples=32, seed=seed)
                f_ref, dim_ref = minimize_stab_dim_loop(*args, samples=32, seed=seed)
                assert dim == dim_ref
                assert f_min.coords.tobytes() == f_ref.coords.tobytes()

    def test_regular_suites_draw_and_contract_no_samples(self, monkeypatch):
        # the regular-functional suites read the first functional's pencil,
        # so no minimizer sample is drawn, contracted or ranked
        import algscope.verify as verify

        draws = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_perturbed_coords")
        pairings = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_pairings")
        findings = run_suites(mat_algebra(3), ("corollary2", "corollary3"), 2, seed=1)
        assert len(findings) == 2 and all(f.passed for f in findings)
        assert draws == [] and pairings == []

    def test_a_functional_of_another_dimension_is_named(self):
        # every functional is checked against the algebra's dimension once,
        # with the error reduce_pencil, gram and kernels raise
        alg = mat_algebra(2)
        f0 = random_functional(4, np.random.default_rng(0))
        short = Functional(np.ones(3))
        with pytest.raises(DimensionMismatch, match="algebra dimension"):
            minimize_stab_dim(alg, 1.0, -1.0, full_dual(4), short)
        with pytest.raises(DimensionMismatch, match="algebra dimension"):
            minimize_stab_dim(alg, 1.0, -1.0, full_dual(4) + [short], f0)
        with pytest.raises(DimensionMismatch, match="algebra dimension"):
            verify_regular_perturbation(alg, reduce_pencil(alg, f0), 1.0, -1.0, [short])

    def test_a_prefix_of_the_samples_is_the_shorter_stream(self):
        from algscope.verify import _perturbed_coords

        f0 = random_functional(6, np.random.default_rng(3))
        long = _perturbed_coords(f0, full_dual(6), 32, 4)
        assert np.array_equal(_perturbed_coords(f0, full_dual(6), 5, 4), long[:6])

    def test_stacked_ranks_give_the_loop_minimizer(self):
        alg = upper_triangular(3)
        rng = np.random.default_rng(7)
        starts = [Functional(np.zeros(alg.dim, dtype=complex)), random_functional(alg.dim, rng)]
        for seed, f0 in enumerate(starts):
            for lambda0, mu0 in ((1.0, -1.0), (1.0, 0.0)):
                args = (alg, lambda0, mu0, full_dual(alg.dim), f0)
                f_min, dim = minimize_stab_dim(*args, samples=32, seed=seed)
                f_ref, dim_ref = minimize_stab_dim_loop(*args, samples=32, seed=seed)
                assert dim == dim_ref
                assert f_min.coords.tobytes() == f_ref.coords.tobytes()


class TestRegularFunctionals:
    @pytest.mark.parametrize("n", [2, 3])
    def test_commutativity_at_the_minimizer(self, n):
        alg = mat_algebra(n)
        rng = np.random.default_rng(21)
        f_min, _ = minimize_stab_dim(
            alg, 1.0, -1.0, full_dual(alg.dim), random_functional(alg.dim, rng), seed=4
        )
        finding = verify_corollaries(alg, reduce_pencil(alg, f_min), ProjectivePoint.finite(1.0))
        assert finding.theorem_id == COROLLARY_2
        assert finding.passed and finding.max_residual < 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_perturbation_theorem_full_dual(self, n):
        alg = mat_algebra(n)
        rng = np.random.default_rng(22)
        f_min, _ = minimize_stab_dim(
            alg, 1.0, -1.0, full_dual(alg.dim), random_functional(alg.dim, rng), seed=5
        )
        rp = reduce_pencil(alg, f_min)
        finding = verify_regular_perturbation(alg, rp, 1.0, -1.0, full_dual(alg.dim))
        assert finding.passed and finding.max_residual < 1e-6

    def test_perturbation_theorem_restricted_direction(self):
        # scaling the functional preserves Stab(2) = span(E21) on Mat2, so the
        # diagonal functional is minimal along its own ray and the theorem
        # gives F(x y - 2 y x) = 0 there
        alg = mat_algebra(2)
        f = matrix_trace_functional(np.diag([1.0, 2.0]))
        finding = verify_regular_perturbation(alg, reduce_pencil(alg, f), 1.0, -2.0, [f])
        assert finding.passed and finding.samples == 1

    def test_corollary3_on_triangular(self):
        alg = upper_triangular(2)
        f0 = Functional(np.array([1.0, 1.0, 2.0]))
        f_min, dim = minimize_stab_dim(alg, 1.0, 0.0, full_dual(3), f0, seed=6)
        assert dim == 1
        finding = verify_corollaries(alg, reduce_pencil(alg, f_min), ProjectivePoint.finite(0.0))
        assert finding.theorem_id == COROLLARY_3
        assert finding.passed and finding.max_residual < 1e-10

    def test_negative_control_is_detected(self):
        finding = negative_control_finding(mat_algebra(2))
        assert not finding.passed
        assert finding.max_residual > 0.1
        assert any("control detected" in n for n in finding.notes)

    def test_negative_control_is_not_applicable_on_a_commutative_algebra(self):
        # every functional of a commutative algebra passes the commutativity
        # check, so the control cannot be detected there
        for alg in (group_algebra(cyclic_table(3)), group_algebra(klein_table()), dual_numbers()):
            finding = negative_control_finding(alg)
            assert finding.passed
            assert finding.notes[1:] == ("not applicable: the algebra is commutative",)

    def test_negative_control_verdict_follows_the_dense_asymmetry(self):
        # the verdict reads only the nonzero structure constants; it equals
        # the rule on the dense max |c - c^T| on every builder, and on Z3
        # given one asymmetric entry about the threshold 1e-9: one-sided
        # (c[0, 1, 2] set, c[1, 0, 2] = 0) or two-sided (c[0, 1, 1] moved
        # off c[1, 0, 1] = 1), and on the opposite of each
        from algscope import Algebra

        def dense_commutative(alg):
            c = alg.structure
            return np.max(np.abs(c - c.transpose(1, 0, 2))) < 1e-9

        z3 = group_algebra(cyclic_table(3))
        algs = [
            mat_algebra(2),
            mat_algebra(3),
            upper_triangular(3),
            dual_numbers(),
            z3,
            group_algebra(klein_table()),
            group_algebra(symmetric3_table()),
            direct_sum(mat_algebra(2), dual_numbers()),
            opposite(upper_triangular(3)),
        ]
        assert z3.structure[0, 1, 2] == 0 == z3.structure[1, 0, 2]
        for entry in ((0, 1, 2), (0, 1, 1)):
            for size in (1e-3, 2e-9, 1e-9, 5e-10):
                c = z3.structure.copy()
                c[entry] += size
                one = Algebra(z3.dim, c, z3.unit)
                algs += [one, opposite(one)]
        verdicts = []
        for alg in algs:
            verdict = negative_control_finding(alg).notes[-1]
            verdicts.append(verdict)
            commutative = verdict == "not applicable: the algebra is commutative"
            assert commutative == dense_commutative(alg)
        # a tiny asymmetry may leave the control undetected
        assert {"control detected", "not applicable: the algebra is commutative"} <= set(verdicts)

    def test_identities_may_fail_away_from_the_minimizer(self):
        # direct check at the non-minimal functional: Stab(1) is all of Mat2
        alg = mat_algebra(2)
        unit = reduce_pencil(alg, Functional(alg.unit.copy()))
        finding = verify_corollaries(alg, unit, ProjectivePoint.finite(1.0))
        assert not finding.passed


def _regular_cases():
    """(label, algebra, functional, alpha) for the element identities: the
    minimizers run_suites uses, diagonal functionals with spectral points
    beside 1, and the unit functional, the negative control, which fails
    wherever the algebra is not commutative."""
    rng = np.random.default_rng(57)
    algs = [
        ("Mat_2", mat_algebra(2)),
        ("Mat_3", mat_algebra(3)),
        ("tri_3", upper_triangular(3)),
        ("S3", group_algebra(symmetric3_table())),
        ("Klein", group_algebra(klein_table())),
        ("dual", dual_numbers()),
        ("Mat_2+S3", direct_sum(mat_algebra(2), group_algebra(symmetric3_table()))),
    ]
    cases = []
    for name, alg in algs:
        f_start = random_functional(alg.dim, rng)
        for lambda0, mu0, alpha in ((1.0, -1.0, 1.0), (1.0, 0.0, 0.0)):
            f_min, _ = minimize_stab_dim(alg, lambda0, mu0, full_dual(alg.dim), f_start, seed=3)
            cases.append((f"{name} minimizer alpha={alpha:g}", alg, f_min, alpha))
        cases.append((f"{name} unit", alg, Functional(alg.unit.copy()), 1.0))
        cases.append((f"{name} unit alpha=0", alg, Functional(alg.unit.copy()), 0.0))
    for alpha in (2.0, 5.0, 0.0):
        cases.append((f"Mat_3 diag 1, 2, 5 alpha={alpha:g}", mat_algebra(3), diag125(), alpha))
    weights = matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))
    cases.append(("Mat_3 weights 1, 2, 0 alpha=0", mat_algebra(3), weights, 0.0))
    return cases


REGULAR_CASES = _regular_cases()


def perturbation_pairs(alpha):
    """(lambda0, mu0) pencil combinations for a case at ``alpha``, and the
    swapped pairs: each names Stab(-mu0 / lambda0), infinity at lambda0 = 0,
    and its swap the inverse point."""
    pairs = [(1.0, -1.0), (1.0, -alpha), (1.0, 0.0), (0.0, 1.0), (2.0, -3.0)]
    return pairs + [(mu0, lambda0) for lambda0, mu0 in pairs]


def perturbation_point(lambda0, mu0):
    return INFINITY if lambda0 == 0 else ProjectivePoint.finite(-mu0 / lambda0)


class TestStabilizerRoute:
    """The regular-functional suites read Stab(alpha) and Stab(1/alpha) with
    ``stab`` on the minimizer's reduced pencil; that route agrees with the
    defining conditions assembled from the structure constants."""

    @pytest.mark.parametrize("case", REGULAR_CASES, ids=lambda case: case[0])
    def test_stab_matches_the_fullspace_oracles(self, case):
        _, alg, f, alpha = case
        rp = reduce_pencil(alg, f)
        for lambda0, mu0 in perturbation_pairs(alpha):
            point = perturbation_point(lambda0, mu0)
            got = stab(rp, point)
            value = None if point.is_infinite else point.value
            for frame in (
                stab_fullspace(alg, f.coords, value),
                slot_one_kernel(alg, f.coords, lambda0, mu0),
            ):
                oracle = Subspace(alg.dim, frame, 1e-9)
                assert got.dim == oracle.dim, (lambda0, mu0)
                assert projector_distance(got, oracle) < 1e-8, (lambda0, mu0)

    def test_zero_combination_is_rejected(self):
        alg = mat_algebra(2)
        rp = reduce_pencil(alg, matrix_trace_functional(np.diag([1.0, 2.0])))
        with pytest.raises(ValueError, match="both be 0"):
            verify_regular_perturbation(alg, rp, 0.0, 0.0, full_dual(4))

    def test_self_inverse_point_takes_one_nullspace(self, monkeypatch):
        import algscope.verify as verify

        calls = []
        real = verify.stab

        def counted(rp, alpha):
            calls.append(alpha)
            return real(rp, alpha)

        monkeypatch.setattr(verify, "stab", counted)
        alg = mat_algebra(3)
        rp = reduce_pencil(alg, diag125())
        verify_corollaries(alg, rp, ProjectivePoint.finite(1.0))
        verify_regular_perturbation(alg, rp, 1.0, 1.0, full_dual(9))
        verify_regular_perturbation(alg, rp, 1.0, -2.0, full_dual(9))
        assert calls == [
            ProjectivePoint.finite(1.0),
            ProjectivePoint.finite(-1.0),
            ProjectivePoint.finite(2.0),
            ProjectivePoint.finite(0.5),
        ]


class TestLoopReferences:
    """The vectorised element identities match the pair-by-pair loops they
    replaced: the same verdict and samples, residuals within 1e-14, and on a
    failing case the same witness."""

    @staticmethod
    def assert_agree(finding, reference):
        worst, witness, samples = reference
        assert (finding.passed, finding.samples) == (worst < 1e-6, samples)
        assert abs(finding.max_residual - worst) <= 1e-14
        assert finding.witness == (None if finding.passed else witness)
        return finding

    @pytest.mark.parametrize("case", REGULAR_CASES, ids=lambda case: case[0])
    def test_corollaries(self, case):
        _, alg, f, alpha = case
        point = ProjectivePoint.finite(alpha)
        finding = verify_corollaries(alg, reduce_pencil(alg, f), point)
        self.assert_agree(finding, corollaries_loop(alg, f, point))

    @pytest.mark.parametrize("case", REGULAR_CASES, ids=lambda case: case[0])
    def test_regular_perturbation(self, case):
        _, alg, f, alpha = case
        rp = reduce_pencil(alg, f)
        for lambda0, mu0 in perturbation_pairs(alpha):
            args = (alg, f, lambda0, mu0, full_dual(alg.dim))
            finding = verify_regular_perturbation(alg, rp, *args[2:])
            # the residual and the witness depend on the frames: the loop
            # over the stabilizers the suite reads gives both
            point = perturbation_point(lambda0, mu0)
            frames = (stab(rp, point).frame, stab(rp, point.inverse()).frame)
            self.assert_agree(finding, regular_perturbation_loop(*args, frames=frames))
            # the loop over the oracle's own kernels gives the verdict
            worst, _, samples = regular_perturbation_loop(*args)
            assert (finding.passed, finding.samples) == (worst < 1e-6, samples)

    def test_restricted_direction(self):
        alg = mat_algebra(2)
        f = matrix_trace_functional(np.diag([1.0, 2.0]))
        args = (alg, f, 1.0, -2.0, [f])
        reference = regular_perturbation_loop(*args)
        finding = verify_regular_perturbation(alg, reduce_pencil(alg, f), 1.0, -2.0, [f])
        assert self.assert_agree(finding, reference).samples == 1

    def test_cases_cover_failures_and_empty_kernels(self):
        findings = [
            verify_corollaries(alg, reduce_pencil(alg, f), ProjectivePoint.finite(alpha))
            for _, alg, f, alpha in REGULAR_CASES
        ]
        assert sum(not f.passed for f in findings) >= 3
        assert any(f.samples == 0 for f in findings)
        assert any(f.theorem_id == COROLLARY_3 and not f.passed for f in findings)
        alg = mat_algebra(2)
        unit = reduce_pencil(alg, Functional(alg.unit.copy()))
        perturbation = verify_regular_perturbation(alg, unit, 1.0, -1.0, full_dual(4))
        assert not perturbation.passed and perturbation.witness is not None

    def test_negative_control(self):
        for alg in (mat_algebra(2), mat_algebra(3), group_algebra(symmetric3_table())):
            finding = negative_control_finding(alg)
            unit = Functional(alg.unit.copy())
            reference = corollaries_loop(alg, unit, ProjectivePoint.finite(1.0))
            assert not self.assert_agree(finding, reference).passed


def _oracle_cases():
    rng = np.random.default_rng(53)
    algs = [
        ("Mat_3", mat_algebra(3)),
        ("Mat_4", mat_algebra(4)),
        ("tri_5", upper_triangular(5)),
        ("Mat_2+S3", direct_sum(mat_algebra(2), group_algebra(symmetric3_table()))),
    ]
    cases = [(name, alg, random_functional(alg.dim, rng)) for name, alg in algs for _ in range(3)]
    # rank-deficient weights: nil is nonzero and the spectrum holds 0 and infinity
    weights = matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))
    cases.append(("Mat_3 weights 1, 2, 0", mat_algebra(3), weights))
    return cases


class TestProductInclusionsOracle:
    """The one-tensor product inclusions against the block-by-block loop, for
    both variants: the pairs of finite points and the pairs of nonzero
    points."""

    @staticmethod
    def assert_agree(alg, dec):
        """(worst, witness) of the finite variant, then of the nonzero one.
        A variant whose worst residual reaches ``V_MULT_TOL`` names the
        loop's witness, and one below it names none."""
        import algscope.verify as verify

        tol = verify.V_MULT_TOL
        found = []
        for variant, (worst, witness, samples) in zip(
            ("finite", "nonzero"), _product_inclusions(alg, [dec])[0]
        ):
            worst_ref, witness_ref, samples_ref = product_inclusions_pairwise(alg, dec, variant)
            assert abs(worst - worst_ref) <= 1e-12, variant
            assert samples == samples_ref, variant
            assert witness == (witness_ref if worst_ref >= tol else None), variant
            found.append((worst, witness))
        return found

    def test_passing_variants_name_no_witness(self, monkeypatch):
        import algscope.verify as verify

        alg = mat_algebra(3)
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(79)))
        findings = verify_v_mult(alg, dec)
        assert all(f.passed and 0.0 < f.max_residual < 1e-12 for f in findings)
        assert [f.witness for f in findings] == [None, None]
        # at a threshold below the round-off its argmax is named
        monkeypatch.setattr(verify, "V_MULT_TOL", 1e-300)
        for worst, witness, _ in _product_inclusions(alg, [dec])[0]:
            assert worst > 0.0 and witness is not None

    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda case: case[0])
    def test_matches_the_pairwise_loop(self, case):
        _, alg, f = case
        for a in (alg, opposite(alg)):
            self.assert_agree(a, decompose(a, f))

    def test_cases_cover_nil_zero_and_infinity(self):
        decs = [decompose(alg, f) for _, alg, f in _oracle_cases()]
        assert any(dec.nil.dim for dec in decs)
        assert any(
            any(p.alpha.is_infinite for p in dec.points)
            and any((not p.alpha.is_infinite) and p.alpha.value == 0 for p in dec.points)
            for dec in decs
        )

    @pytest.mark.parametrize("weights", [(1.0, 2.0, 5.0), (1.0, 2.0, 0.0)])
    @pytest.mark.parametrize("cluster_tol", [None, 0.6])
    def test_target_points_match_point_at(self, cluster_tol, weights):
        # weights (1, 2, 0) put 0 and infinity in the spectrum
        dec = decompose(mat_algebra(3), matrix_trace_functional(np.diag(weights)))
        if cluster_tol is not None:
            # wide clusters make several points match; the first one wins
            dec = dataclasses.replace(dec, cluster_tol=cluster_tol)
        values, _ = _alphas([dec])
        grid = np.concatenate([np.outer(values, values).ravel(), [4.0, 1.0 + 1e-9, 0.0, 30.0]])
        # every value once as a finite query and once marked infinite
        queries = np.concatenate([grid, grid]), np.repeat([False, True], grid.size)
        (found,) = _point_indices([dec], _alphas([dec]), (queries[0][None], queries[1][None]))
        assert np.array_equal(found[: grid.size], target_indices_loop(dec, grid))
        for value, infinite, index in zip(*queries, found):
            at = dec.point_at(INFINITY if infinite else ProjectivePoint.finite(value))
            assert index == (-1 if at is None else at)
        assert any(p.alpha.is_infinite for p in dec.points) is (weights[-1] == 0.0)

    def test_defective_point_matches(self):
        alg, f = prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]]))
        dec = decompose(alg, f)
        assert any(len(levels) > 1 for levels in dec.filtrations)
        self.assert_agree(alg, dec)

    @pytest.mark.parametrize("name", list(PLANTED_JORDAN_BLOCKS))
    @pytest.mark.parametrize("with_nil", [False, True])
    def test_planted_jordan_blocks_match(self, name, with_nil):
        # levels of several columns, and products whose targets climb the
        # levels of a chain; their columns outnumber N, so the projection
        # runs in chunks.  Beside the dual numbers, on which F vanishes, nil
        # is the dual numbers and each level holds it
        beta, n_levels = PLANTED_JORDAN_BLOCKS[name]
        alg, f = prescribed_pencil_algebra(beta)
        if with_nil:
            alg = direct_sum(alg, dual_numbers())
            f = Functional(np.concatenate([f.coords, np.zeros(2)]))
        for a in (alg, opposite(alg)):
            dec = decompose(a, f)
            assert dec.nil.dim == (2 if with_nil else 0)
            levels = dec.quotient_filtrations
            assert max(len(chain) for chain in levels) == n_levels
            assert max(w.shape[1] for chain in levels for w in chain) > 1
            assert [f.passed for f in verify_v_mult(a, dec)] == [True, True]
            self.assert_agree(a, dec)

    def test_builds_no_subspace(self, monkeypatch):
        # the levels stay quotient frames; only the decomposition built one
        import algscope.linalg as linalg

        alg = upper_triangular(4)
        dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(80)))
        built = []
        real = linalg.Subspace.__post_init__

        def counted(self):
            built.append(self.dim)
            real(self)

        monkeypatch.setattr(linalg.Subspace, "__post_init__", counted)
        assert [f.passed for f in verify_v_mult(alg, dec)] == [True, True]
        assert built == []

    def test_doctored_level_with_nil(self):
        # nil is one line; V(1), which holds the unit, put in place of V(2)
        # sends V(2) V(2) off its target 4, a non-spectral value, so off nil
        alg = mat_algebra(3)
        dec = decompose(alg, matrix_trace_functional(np.diag([1.0, 2.0, 0.0])))
        assert dec.nil.dim == 1
        one = dec.point_at(ProjectivePoint.finite(1.0))
        two = dec.point_at(ProjectivePoint.finite(2.0))
        assert dec.point_at(ProjectivePoint.finite(4.0)) is None
        doctored = with_chain(dec, two, dec.quotient_filtrations[one])
        for worst, witness in self.assert_agree(alg, doctored):
            assert worst > 0.1 and witness is not None
        assert not any(f.passed for f in verify_v_mult(alg, doctored))

    def test_empty_levels_give_no_samples(self):
        alg = mat_algebra(2)
        dec = decompose(alg, matrix_trace_functional(np.diag([1.0, 2.0])))
        assert dec.nil.dim == 0
        empty = tuple((np.zeros((dec.quotient_dim, 0)),) for _ in dec.quotient_filtrations)
        doctored = dataclasses.replace(dec, quotient_filtrations=empty)
        assert self.assert_agree(alg, doctored) == [(0.0, None)] * 2

    def test_doctored_infinity_fails_only_the_nonzero_variant(self):
        alg = mat_algebra(3)
        dec = decompose(alg, matrix_trace_functional(np.diag([1.0, 2.0, 0.0])))
        inf = dec.points[-1].alpha
        one = dec.point_at(ProjectivePoint.finite(1.0))
        assert inf.is_infinite
        # V(1) holds the unit, so V(1) V(2) misses V(1) put in place of V(inf)
        doctored = with_chain(dec, -1, dec.quotient_filtrations[one])
        (worst, _), (worst_nonzero, witness) = self.assert_agree(alg, doctored)
        assert worst < 1e-12 and worst_nonzero > 0.1
        # the witness names V^k(a) V^m(b) in the decomposition's own points
        assert inf in witness[:2]
        finite, nonzero = verify_v_mult(alg, doctored)
        assert finite.passed and not nonzero.passed and nonzero.witness == witness

    def test_a_doctored_copy_derives_its_own_layout(self):
        # every suite reads the original first, which derives its points
        # and levels; a copy made with dataclasses.replace derives its own
        alg = mat_algebra(3)
        dec = decompose(alg, matrix_trace_functional(np.diag([1.0, 2.0, 0.0])))
        assert all(f.passed for f in verify_v_mult(alg, dec) + verify_dim_symmetry(dec))
        assert verify_alpha0_suite(dec).passed
        assert dec.points[-1].alpha.is_infinite
        one = dec.point_at(ProjectivePoint.finite(1.0))
        doctored = with_chain(dec, -1, dec.quotient_filtrations[one])
        assert [f.passed for f in verify_v_mult(alg, doctored)] == [True, False]
        assert not verify_alpha0_suite(doctored).passed
        seven = ProjectivePoint.finite(7.0)
        moved = [
            dataclasses.replace(p, alpha=seven) if i == one else p for i, p in enumerate(dec.points)
        ]
        v, _ = verify_dim_symmetry(dataclasses.replace(dec, points=tuple(moved)))
        assert not v.passed and v.witness == (seven, "no mirror point")

    @pytest.mark.parametrize(
        "alg, f",
        [
            (mat_algebra(3), diag125()),
            (mat_algebra(3), matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))),
            # a Jordan block at -1 beside a second direction at 1: residual
            # 1.0 is reached in several blocks, so the witness order decides
            prescribed_pencil_algebra(np.array([[1, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)),
        ],
    )
    def test_swapped_level_fails_with_the_same_witness(self, alg, f):
        dec = decompose(alg, f)
        # V(1) holds the unit, whose square then misses its new target
        first = dec.point_at(ProjectivePoint.finite(1.0))
        second = next(i for i in range(len(dec.points)) if i != first)
        levels = dec.quotient_filtrations
        doctored = with_chain(with_chain(dec, first, levels[second]), second, levels[first])
        for worst, witness in self.assert_agree(alg, doctored):
            assert worst > 0.1 and witness is not None
        findings = verify_v_mult(alg, doctored)
        assert [f.theorem_id for f in findings] == [V_MULT_FINITE, V_MULT_NONZERO]
        assert not any(f.passed for f in findings)


class TestLinearAlgebraCounts:
    """Only the points whose level 0 is below their multiplicity climb,
    each chain on its own up to the multiplicity, a level's vectors are
    computed only when its chain grows, the alpha0 suite runs no
    eigendecomposition, draws no shift when nothing climbs and one when a
    point climbs, and v-mult
    forms one product tensor per group of decompositions."""

    @staticmethod
    def count_svd(monkeypatch):
        """Record each ``np.linalg.svd`` call as (shape, kind), kind one of
        "values", "thin" and "full"."""
        calls = []
        original = np.linalg.svd

        def counted(a, *args, **kwargs):
            if not kwargs.get("compute_uv", True):
                kind = "values"
            else:
                kind = "full" if kwargs.get("full_matrices", True) else "thin"
            calls.append((a.shape, kind))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        """Record the (args, kwargs) of each call of ``owner.name``."""
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_svd_calls_do_not_grow_with_the_points(self, monkeypatch):
        calls = self.count_svd(monkeypatch)
        counts = []
        for n, seed in ((3, 59), (4, 60)):
            alg = mat_algebra(n)
            calls.clear()
            dec = decompose(alg, random_functional(alg.dim, np.random.default_rng(seed)))
            assert len(dec.points) == n * (n - 1) + 1
            assert all(len(levels) == 1 for levels in dec.quotient_filtrations)
            counts.append(len(calls))
        # 7 points on Mat_3 and 13 on Mat_4, but the same number of SVDs
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("defective", [False, True])
    def test_svd_calls_per_chain(self, monkeypatch, defective):
        import algscope.spectral as spectral
        import algscope.verify as verify

        if defective:
            alg, f = prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]]))
        else:
            alg, f = mat_algebra(3), random_functional(9, np.random.default_rng(59))
        dec = decompose(alg, f)
        k = dec.quotient_dim
        multiple, chains = zip(
            *((p, c) for p, c in zip(dec.points, dec.quotient_filtrations) if p.algebraic_mult > 1)
        )
        # alpha = 1 has a level 0 of full dimension on both inputs; the
        # planted Jordan block's alpha = -1 climbs one level
        assert [len(levels) for levels in chains] == ([1, 2] if defective else [1])
        assert all(levels[-1].shape[1] == p.algebraic_mult for p, levels in zip(multiple, chains))

        def chain_calls(levels):
            # from a given Stab(alpha), per level below the multiplicity the
            # image's thin SVD and the next level's full SVD, which decides
            # its growth; nothing at the level that reaches it.  A nullspace
            # is the SVD of a stack of one
            calls = []
            for w in levels[:-1]:
                calls += [((k, w.shape[1]), "thin"), ((1, k, k), "full")]
            return calls

        calls = self.count_svd(monkeypatch)
        frames = [
            spectral._filtration_reduced(
                dec.pencil, p.alpha, dec.alpha0_used, levels[0], p.algebraic_mult
            )
            for p, levels in zip(multiple, chains)
        ]
        assert [[w.shape for w in levels] for levels in frames] == [
            [w.shape for w in levels] for levels in chains
        ]
        # a full-dimension level 0 takes no SVD
        assert calls == [c for levels in chains for c in chain_calls(levels)]
        calls.clear()
        eigs = self.count_calls(monkeypatch, np.linalg, "eig")
        norms = self.count_calls(monkeypatch, np.linalg, "norm")
        draws = self.count_calls(monkeypatch, verify, "choose_alpha0")
        assert verify_alpha0_suite(dec).passed
        assert eigs == []
        # the shift is drawn only when a point climbs: one regularity SVD
        # (of a stack of one), accepted at its first draw, then one chain of
        # each climbing point from its level 0, under the new shift, and one
        # values-only SVD, the projector distance to the reported chain, per
        # level above 0
        climbing = [levels for levels in chains if len(levels) > 1]
        assert len(draws) == (1 if climbing else 0)
        climbs = [
            c
            for levels in climbing
            for c in chain_calls(levels) + [((k, k), "values")] * (len(levels) - 1)
        ]
        assert calls == [((1, k, k), "values")] * len(draws) + climbs
        # no spectral norm takes an SVD that np.linalg.svd does not count
        assert [args for args, kwargs in norms if args[1:] == (2,) or kwargs.get("ord") == 2] == []

    def test_lapack_calls_of_an_all_suite_run(self, monkeypatch):
        # Mat_3 with 10 random functionals: K = 9 and nil = 0 for each, and
        # alpha = 1 is the one multiple point, with Stab(1) of dimension 3.
        # Each rank is decided once: no SVD of a transposed pairing, and
        # none in the multiplicative suite
        calls = self.count_svd(monkeypatch)
        eigs = self.count_calls(monkeypatch, np.linalg, "eig")
        solves = self.count_calls(monkeypatch, np.linalg, "solve")
        dets = self.count_calls(monkeypatch, np.linalg, "det")
        slogdets = self.count_calls(monkeypatch, np.linalg, "slogdet")
        findings = run_suites(mat_algebra(3), SUITE_NAMES, 10, seed=0)
        assert all(f.passed for f in findings)
        # the spectrum: one solve and one eig over the batch; no suite
        # reads chi or the invariant checks, so no det and no
        # log-determinant runs
        assert (len(eigs), len(solves), len(dets), len(slogdets)) == (1, 1, 0, 0)
        assert collections.Counter(calls) == {
            # both kernels of the batch, then the level 0 of its multiple
            # points; both kernels are 0, so the intersections and the
            # complements take no SVD
            ((10, 9, 9), "full"): 2,
            # every pencil accepts the first shift drawn; the direct-sum
            # check, which no suite reads, takes none
            ((10, 9, 9), "values"): 1,
            # the regular-functional suites read the first functional's
            # pencil, which the batch reduced: corollary2 its Stab(1),
            # which is its own inverse, and corollary3 its kernels
            ((1, 9, 9), "full"): 1,
        }
        assert len(calls) == 4

    def test_svd_calls_of_an_all_suite_run_on_tri5(self, monkeypatch):
        # tri_5 with 10 random functionals: the left and right kernels, of
        # dimension 6, are nonzero but meet in 0, so K = 15, and each
        # pencil has three multiple points, 0, 1 and infinity
        calls = self.count_svd(monkeypatch)
        findings = run_suites(upper_triangular(5), SUITE_NAMES, 10, seed=0)
        assert all(f.passed for f in findings)
        assert collections.Counter(calls) == {
            # both kernels of the batch, then the level 0 of its 10
            # multiple points at alpha = 1; at 0 and infinity the kernels
            # are level 0, with no SVD
            ((10, 15, 15), "full"): 2,
            # the principal angles between the left and the right kernels,
            # one stack of the batch; no sine is small, so no intersection
            # SVD runs
            ((10, 15, 6), "values"): 1,
            # the first shift drawn; no direct-sum check, which no suite reads
            ((10, 15, 15), "values"): 1,
            # Stab(1) of corollary2, in the first functional's pencil,
            # which the batch reduced
            ((1, 15, 15), "full"): 1,
        }
        assert len(calls) == 5

    def test_kernels_of_a_run_without_decompositions_take_one_svd(self, monkeypatch):
        # no suite decomposes: the kernels of the ten pairings come from one
        # stacked SVD, and the principal angles between their left and
        # right kernels from one values-only SVD, which rules out an
        # intersection with no intersection SVD
        calls = self.count_svd(monkeypatch)
        alg = upper_triangular(5)
        suites = ("kernel-relations", "multiplicative")
        findings = run_suites(alg, suites, 10, seed=0)
        assert collections.Counter(calls) == {
            ((10, 15, 15), "full"): 1,
            ((10, 15, 6), "values"): 1,
        }
        assert len(findings) == 20 and all(f.passed for f in findings)

    def test_svd_calls_of_a_kernel_and_corollary_run(self, monkeypatch):
        # tri_5 with 10 random functionals, nil = 0: one reduction of the
        # batch gives the kernels and the first functional's pencil, which
        # the corollaries read, so no functional is reduced twice
        calls = self.count_svd(monkeypatch)
        suites = ("kernel-relations", "corollary2", "corollary3")
        findings = run_suites(upper_triangular(5), suites, 10, seed=0)
        assert collections.Counter(calls) == {
            # both kernels of the batch, and the principal angles between
            # them, which rule out an intersection
            ((10, 15, 15), "full"): 1,
            ((10, 15, 6), "values"): 1,
            # Stab(1) of corollary2; corollary3 reads the kernels
            ((1, 15, 15), "full"): 1,
        }
        assert len(findings) == 12 and all(f.passed for f in findings)

    def test_svd_calls_of_decompose_on_tri8(self, monkeypatch):
        # tri_8 at a random functional: kernels of dimension 16 that meet in
        # 0, so K = 36, and the points 0 and infinity of multiplicity 16
        # beside alpha = 1 of multiplicity 4, each complete at level 0
        import algscope.spectral as spectral

        alg = upper_triangular(8)
        f = random_functional(alg.dim, np.random.default_rng(0))
        calls = self.count_svd(monkeypatch)
        built = self.count_calls(monkeypatch, spectral, "_slot_one_operator")
        dec = decompose(alg, f)
        assert [(p.algebraic_mult, p.stab_dim) for p in dec.points] == [(16, 16), (4, 4), (16, 16)]
        assert dec.nil.dim == 0
        assert collections.Counter(calls) == {
            # the kernels, then the level 0 of alpha = 1 alone: at 0 and
            # infinity the kernels are level 0
            ((1, 36, 36), "full"): 2,
            # the principal angles between the kernels, which rule out an
            # intersection, so the (72, 36) intersection SVD does not run
            ((1, 36, 16), "values"): 1,
            # the first shift drawn
            ((1, 36, 36), "values"): 1,
        }
        assert [args[1] for args, _ in built] == [dec.points[1].alpha]

    def test_pairwise_products_once_per_group(self, monkeypatch):
        import sys

        import algscope.algebra as algebra
        import algscope.verify as verify

        callers = []
        original = verify.pairwise_products

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        opposites = []
        original_opposite = algebra.opposite

        def counted_opposite(alg):
            opposites.append(alg.dim)
            return original_opposite(alg)

        monkeypatch.setattr(verify, "pairwise_products", counted)
        monkeypatch.setattr(algebra, "opposite", counted_opposite)
        # v-mult reads the algebra it is given, never the opposite algebra
        assert not hasattr(verify, "opposite")
        n = 10
        groups = []
        for alg in (mat_algebra(3), upper_triangular(5)):
            callers.clear()
            run_suites(alg, SUITE_NAMES, n_functionals=n, seed=4)
            rng = np.random.default_rng(4)
            decs = decompose_all(alg, [random_functional(alg.dim, rng) for _ in range(n)], seed=4)
            # v-mult: one product call per decomposition, each member of a
            # shape group formed alone, so that no group holds more than one
            # member's product tensor
            groups.append(len({dec._shape for dec in decs}))
            assert callers.count("_group_inclusions") == sum(bool(dec.points) for dec in decs) == n
            assert opposites == []
            # kernel relations: per group of equal kernel dimensions, one
            # product per relation between two nonzero kernels
            kernel_dims = {tuple(x.dim for x in dec.pencil.kernels) for dec in decs}
            assert callers.count("_kernel_relations") <= 3 * len(kernel_dims)
            # Corollary2 forms x y and y x of Stab(1) with one product, and
            # Corollary3 stab0 stabinf and nil nil with two
            assert callers.count("_stab_products") == 1
            assert callers.count("verify_corollaries") == 2
            known = ("_group_inclusions", "_kernel_relations", "verify_corollaries")
            known += ("_stab_products",)
            assert len(callers) == sum(callers.count(c) for c in known)
        # all ten decompositions of Mat_3 share one shape group
        assert groups[0] == 1
        # on tri_5 the left and right kernels are nonzero, so their products count too
        assert callers.count("_kernel_relations") > 0

    def test_corollary2_forms_the_stab1_products_once(self, monkeypatch):
        # Stab(1) is its own Stab(1/alpha), so y x is x y with its indices
        # swapped: one product call gives the finding that x y and y x, each
        # from its own call, give, bit for bit
        import algscope.verify as verify

        alg = mat_algebra(3)
        rp = reduce_pencil(alg, random_functional(alg.dim, np.random.default_rng(1)))
        one = ProjectivePoint.finite(1.0)
        x = stab(rp, one).frame
        assert x.shape[1] > 0
        xy = pairwise_products(alg, x, x)
        yx = pairwise_products(alg, x, x).transpose(1, 0, 2)
        worst, witness = _first_worst(np.linalg.norm(xy - yx, axis=-1), COROLLARY_TOL)
        calls = self.count_calls(monkeypatch, verify, "pairwise_products")
        finding = verify_corollaries(alg, rp, one)
        assert len(calls) == 1
        assert finding.theorem_id == COROLLARY_2 and finding.samples == x.shape[1] ** 2
        assert finding.max_residual.hex() == worst.hex() and finding.witness == witness
        assert finding.passed == (worst < COROLLARY_TOL)


class TestTransversality:
    def test_mat3_pairwise_trivial(self):
        finding = verify_stab_transversality(decompose(mat_algebra(3), diag125()))
        assert finding.passed and finding.samples == 21

    def test_single_point_is_vacuous(self):
        alg = dual_numbers()
        finding = verify_stab_transversality(decompose(alg, Functional(np.array([1.0, 0.0]))))
        assert finding.passed and finding.samples == 0

    def test_klein_random_sweep(self):
        alg = group_algebra(klein_table())
        rng = np.random.default_rng(31)
        for _ in range(10):
            finding = verify_stab_transversality(decompose(alg, random_functional(4, rng)))
            assert finding.passed

    def test_rank_test_matches_the_pairwise_oracle(self):
        rng = np.random.default_rng(37)
        algs = [
            mat_algebra(3),
            mat_algebra(4),
            upper_triangular(5),
            group_algebra(klein_table()),
            direct_sum(mat_algebra(2), group_algebra(symmetric3_table())),
        ]
        decs = [decompose(alg, random_functional(alg.dim, rng)) for alg in algs for _ in range(4)]
        # rank-deficient weights give a nonzero nil
        for weights in ([1.0, 2.0, 0.0], [1.0, 3.0, 0.0, 0.0]):
            w = np.diag(weights)
            decs.append(decompose(mat_algebra(len(weights)), matrix_trace_functional(w)))
        assert any(dec.nil.dim for dec in decs)
        for dec in decs:
            finding = verify_stab_transversality(dec)
            passed, worst, pairs = stab_transversality_pairwise(dec)
            assert (finding.passed, finding.samples) == (passed, pairs)
            assert finding.max_residual == float(worst) == 0.0 and finding.witness is None

    @pytest.mark.parametrize(
        "alg, f",
        [
            (mat_algebra(3), diag125()),
            (
                direct_sum(mat_algebra(2), dual_numbers()),
                Functional(np.array([1.0, 0.0, 0.0, 2.0, 1.0, 0.0])),
            ),
        ],
    )
    def test_repeated_stab_frame_fails(self, alg, f):
        dec = decompose(alg, f)
        doctored = with_chain(dec, 1, dec.quotient_filtrations[0])
        finding = verify_stab_transversality(doctored)
        passed, worst, pairs = stab_transversality_pairwise(doctored)
        assert not passed and worst >= 1
        assert not finding.passed and finding.max_residual >= 1
        assert finding.witness == (dec.points[1].alpha,) and finding.samples == pairs


    def test_every_failure_fails_the_direct_sum_check(self):
        # Stab(alpha) <= V(alpha), so stabilizers that are no direct sum over
        # nil make the V(alpha) none either: the decomposition's own
        # v_spaces_direct_sum check, recomputed on the doctored frames, fails
        # wherever this suite does.  Doctored: one point's chain put in
        # place of another's, for every ordered pair of points
        rng = np.random.default_rng(41)
        jordan, _ = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["levels3"][0])
        algs = [
            mat_algebra(3),
            upper_triangular(4),
            group_algebra(klein_table()),
            direct_sum(mat_algebra(2), dual_numbers()),
            jordan,
        ]
        decs = [decompose(alg, random_functional(alg.dim, rng)) for alg in algs for _ in range(2)]
        decs.append(decompose(mat_algebra(3), matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))))
        failures = 0
        for dec in decs:
            doctored = [
                with_chain(dec, i, dec.quotient_filtrations[j])
                for i in range(len(dec.points))
                for j in range(len(dec.points))
                if i != j
            ]
            for d in [dec] + doctored:
                if not verify_stab_transversality(d).passed:
                    failures += 1
                    check = next(c for c in d.checks if c.name == "v_spaces_direct_sum")
                    assert not check.passed
        assert failures > 100


def test_doctored_quotient_frames_reach_every_reader():
    """The quotient frames are the one stored form of the levels: a
    decomposition doctored in them alone is seen doctored by its lifted
    levels, its V(alpha), both v-mult variants and the transversality
    suite."""
    alg = mat_algebra(3)
    dec = decompose(alg, diag125())
    one = dec.point_at(ProjectivePoint.finite(1.0))
    two = dec.point_at(ProjectivePoint.finite(2.0))
    doctored = with_chain(dec, two, dec.quotient_filtrations[one])
    assert projector_distance(doctored.filtrations[two][0], dec.filtrations[one][0]) == 0
    assert projector_distance(doctored.v_spaces[two], dec.v_spaces[one]) == 0
    assert all(f.passed for f in verify_v_mult(alg, dec))
    # V(1) holds the unit, whose square misses V(4) = nil
    assert not any(f.passed for f in verify_v_mult(alg, doctored))
    assert verify_stab_transversality(dec).passed
    finding = verify_stab_transversality(doctored)
    # 2 follows 1 in spectrum order
    assert not finding.passed and finding.witness == (dec.points[two].alpha,)


class TestRunSuites:
    def test_deterministic_and_sorted(self):
        alg = mat_algebra(2)
        a = run_suites(alg, n_functionals=3, seed=5)
        b = run_suites(alg, n_functionals=3, seed=5)
        assert a == b
        assert [f.theorem_id for f in a] == sorted(f.theorem_id for f in a)

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suites(mat_algebra(2), suites=("nope",), n_functionals=1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_no_functionals(self, n):
        # a run over no functionals would check nothing and pass
        with pytest.raises(ValueError, match="n_functionals"):
            run_suites(mat_algebra(2), n_functionals=n)

    def test_rejects_no_suites(self):
        # a run of no suite would check nothing and pass
        with pytest.raises(ValueError, match="at least one suite"):
            run_suites(mat_algebra(2), suites=(), n_functionals=1)

    def test_rejects_a_string_of_one_suite_name(self):
        # a string was iterated as its characters, and the error named them
        # as unknown suites: ['v', '-', 'm', 'u', 'l', 't']
        with pytest.raises(ValueError, match=r"not the string 'v-mult'; pass \('v-mult',\)$"):
            run_suites(mat_algebra(2), "v-mult", n_functionals=1)

    @pytest.mark.parametrize(
        "tols",
        [{"rank_tol": float("nan")}, {"rank_tol": -1.0}, {"cluster_tol": float("inf")}],
        ids=["rank-nan", "rank-neg", "cluster-inf"],
    )
    @pytest.mark.parametrize(
        "suites", [SUITE_NAMES, ("kernel-relations",), ("corollary2",)], ids=["all", "kernel", "cor"]
    )
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tols, suites):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            run_suites(mat_algebra(2), suites, 2, 0, **tols)

    def test_the_public_suite_functions_take_no_threshold(self):
        # each reads its module constant, as run_suites does, so a batched
        # finding equals the one the public function gives; at tol = nan
        # verify_v_mult and verify_kernel_relations failed passing inputs
        from algscope import Decomposition

        for function in (
            verify_kernel_relations,
            verify_alpha0_suite,
            verify_v_mult,
            verify_corollaries,
            negative_control_finding,
            verify_regular_perturbation,
            Decomposition.point_at,
        ):
            assert "tol" not in inspect.signature(function).parameters, function.__name__

    def test_corollary1_suite_is_gone(self):
        with pytest.raises(ValueError):
            run_suites(mat_algebra(2), suites=("corollary1",), n_functionals=1)

    def test_nil_ideal_suite_is_gone(self, tmp_path, monkeypatch, capsys):
        # kernel-relations checks nil*algebra<=left and algebra*nil<=right,
        # the same products against the same spaces
        from algscope.cli import main

        with pytest.raises(ValueError):
            run_suites(mat_algebra(2), suites=("nil-ideal",), n_functionals=1)
        monkeypatch.chdir(tmp_path)
        assert main(["builders", "dual", "--out", "d.alg"]) == 0
        capsys.readouterr()
        assert main(["verify", "d.alg", "--suite", "nil-ideal"]) == 1
        assert "unknown suite names: nil-ideal" in capsys.readouterr().err

    @pytest.mark.parametrize("with_v_mult", [True, False])
    def test_one_batched_decomposition_per_call(self, monkeypatch, with_v_mult):
        import algscope.functional
        import algscope.spectral
        import algscope.verify

        real_decompose = algscope.verify._decompose_pencils
        real_reduce = algscope.functional._reduce_pencils
        batches = []
        reductions = []

        def counting_decompose(*args, **kwargs):
            bound = inspect.signature(real_decompose).bind(*args, **kwargs)
            bound.apply_defaults()
            batches.append((len(bound.arguments["rps"]), bound.arguments["seed"]))
            return real_decompose(*args, **kwargs)

        def counting_reduce(alg, fs, *args, **kwargs):
            reductions.append(len(fs))
            return real_reduce(alg, fs, *args, **kwargs)

        def single(*args, **kwargs):
            raise AssertionError("run_suites decomposes its functionals as one batch")

        monkeypatch.setattr(algscope.verify, "_decompose_pencils", counting_decompose)
        # every module that bound the names at import time
        for module in (algscope.functional, algscope.spectral, algscope.verify):
            monkeypatch.setattr(module, "_reduce_pencils", counting_reduce)
        for module in (algscope.functional, algscope.verify):
            monkeypatch.setattr(module, "reduce_pencil", single)
        monkeypatch.setattr(algscope.spectral, "decompose", single)
        suites = tuple(s for s in DEFAULT_SUITES if with_v_mult or s != "v-mult")
        n = 3
        run_suites(mat_algebra(3), suites, n, seed=7)
        assert batches == [(n, 7)]
        assert reductions == [n]

    def test_an_all_suite_run_reduces_no_pencil_of_its_own(self, monkeypatch):
        # the regular-functional suites read the pencil the batch reduced
        # for the first drawn functional
        import algscope.verify as verify

        cases = [(SUITE_INPUTS[name], seed) for name in ("Mat_3", "tri_5", "S3") for seed in (0, 1)]
        expected = [run_suites_loop(alg, SUITE_NAMES, 10, seed) for alg, seed in cases]
        calls = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "reduce_pencil")
        for (alg, seed), want in zip(cases, expected):
            assert_same_findings(run_suites(alg, SUITE_NAMES, 10, seed), want)
        assert calls == []

    def test_an_all_suite_run_computes_no_invariant_check(self, monkeypatch):
        # no suite reads a decomposition's checks, so none run, and the
        # findings are those of a run that computes every check
        import algscope.spectral as spectral
        import algscope.verify as verify

        algs = [SUITE_INPUTS[name] for name in ("Mat_3", "tri_5", "Mat_2+S3")]
        calls = TestLinearAlgebraCounts.count_calls(monkeypatch, spectral, "_decomposition_checks")
        lazy = verify._decompose_pencils

        def eager(*args, **kwargs):
            decs = lazy(*args, **kwargs)
            assert all(dec.ok for dec in decs)
            return decs

        with monkeypatch.context() as patched:
            patched.setattr(verify, "_decompose_pencils", eager)
            expected = [run_suites(alg, SUITE_NAMES, 10, seed=0) for alg in algs]
        assert len(calls) == 30
        calls.clear()
        for alg, want in zip(algs, expected):
            assert_same_findings(run_suites(alg, SUITE_NAMES, 10, seed=0), want)
        assert calls == []

    def test_no_level_is_lifted(self, monkeypatch):
        # every suite reads the levels as quotient frames, so no level is
        # lifted to a subspace of the full algebra
        import algscope.spectral as spectral

        lifts = TestLinearAlgebraCounts.count_calls(monkeypatch, spectral, "_lift")
        jordan, _ = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS["levels3"][0])
        for alg in (mat_algebra(3), upper_triangular(4), jordan):
            findings = run_suites(alg, SUITE_NAMES, 3, seed=2)
            assert {V_MULT_FINITE, V_MULT_NONZERO} <= {f.theorem_id for f in findings}
        assert lifts == []

    def test_passing_findings_name_no_witness(self):
        # a passing finding's residuals are round-off, whose argmax any
        # reordering of the arithmetic moves, so every suite names a witness
        # only when it fails
        findings = run_suites(upper_triangular(5), SUITE_NAMES, 3, seed=1)
        assert {f.theorem_id for f in findings} >= {
            "KernelRelations",
            COROLLARY_2,
            COROLLARY_3,
        }
        assert all(f.passed for f in findings)
        assert [f for f in findings if f.witness is not None] == []

    def test_corollary_suites_run(self):
        findings = run_suites(
            mat_algebra(2),
            suites=("corollary2", "corollary3"),
            n_functionals=2,
            seed=0,
        )
        ids = {f.theorem_id for f in findings}
        assert {"Corollary2", "Corollary3"} <= ids
        assert all(f.passed for f in findings)


def assert_same_findings(found, expected):
    """Finding by finding: theorem, verdict, the bits of the residual,
    witness, samples and notes."""
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert (a.theorem_id, a.passed, a.witness, a.samples, a.notes) == (
            b.theorem_id,
            b.passed,
            b.witness,
            b.samples,
            b.notes,
        )
        assert type(a.max_residual) is type(b.max_residual) is float, a.theorem_id
        assert a.max_residual.hex() == b.max_residual.hex(), a.theorem_id


def _suite_inputs():
    s3 = group_algebra(symmetric3_table())
    inputs = {
        # the six verify-small inputs
        "Mat_3": mat_algebra(3),
        "Mat_4": mat_algebra(4),
        "tri_5": upper_triangular(5),
        "S3": s3,
        "Klein": group_algebra(klein_table()),
        "Mat_2+S3": direct_sum(mat_algebra(2), s3),
        # nonzero kernels, the dual numbers, a direct sum of both kinds
        "tri_4": upper_triangular(4),
        "dual": dual_numbers(),
        "Mat_3+tri_3": direct_sum(mat_algebra(3), upper_triangular(3)),
    }
    # points below their multiplicity, which climb
    for name, (beta, _) in PLANTED_JORDAN_BLOCKS.items():
        inputs[name] = prescribed_pencil_algebra(beta)[0]
    return inputs


SUITE_INPUTS = _suite_inputs()


def stacked_suites(alg, decs, seeds):
    """The four per-decomposition suites of ``algscope.verify`` over the
    batch ``decs``, suite by suite."""
    import algscope.verify as verify

    return [
        verify._kernel_relations(alg, [dec.pencil.kernels for dec in decs]),
        verify._alpha0_suite(decs, seeds),
        [f for pair in verify._v_mult(alg, decs) for f in pair],
        [f for pair in verify._dim_symmetry(decs) for f in pair],
    ]


def looped_suites(alg, decs, seeds):
    """The same four suites from the per-decomposition loop bodies."""
    return [
        [kernel_relations_loop(alg, dec.pencil.kernels) for dec in decs],
        [alpha0_suite_loop(dec, seed) for dec, seed in zip(decs, seeds)],
        [f for dec in decs for f in v_mult_loop(alg, dec)],
        [f for dec in decs for f in dim_symmetry_loop(dec)],
    ]


class TestRunSuitesOracle:
    """Each suite runs once over a chunk of the batch; every finding equals,
    bit for bit, the one the per-functional loop over the suites' old
    bodies gives (``tests/oracles.py:run_suites_loop``)."""

    @pytest.mark.parametrize("name", list(SUITE_INPUTS))
    def test_all_suites_match_the_loop(self, name):
        alg = SUITE_INPUTS[name]
        for seed in range(4):
            expected = run_suites_loop(alg, SUITE_NAMES, 10, seed)
            assert_same_findings(run_suites(alg, SUITE_NAMES, 10, seed), expected)

    @pytest.mark.parametrize("name", list(SUITE_INPUTS))
    def test_a_random_start_is_its_own_minimizer(self, name):
        # a complex-Gaussian functional misses the algebraic set where a
        # combination's kernel exceeds its generic dimension, so no sample
        # beats it: run_suites' first functional is the minimizer it skips
        alg = SUITE_INPUTS[name]
        for seed in range(5):
            f_start = random_functional(alg.dim, np.random.default_rng(seed))
            for lambda0, mu0 in ((1.0, -1.0), (1.0, 0.0)):
                found = minimize_stab_dim(alg, lambda0, mu0, full_dual(alg.dim), f_start, seed=seed)
                assert found[0] is f_start

    @pytest.mark.parametrize("name", ["tri_5", "Mat_3+tri_3", "Mat_3"])
    def test_kernel_suites_without_decompositions_match_the_loop(self, name):
        alg = SUITE_INPUTS[name]
        suites = ("kernel-relations", "multiplicative")
        for seed in range(2):
            expected = run_suites_loop(alg, suites, 10, seed)
            assert_same_findings(run_suites(alg, suites, 10, seed), expected)

    @staticmethod
    def doctored_batch():
        """Mat_3 decompositions of several column counts: random
        functionals (K = 9), F = tr(diag(1, 2, 0) X) (nil of dimension 1,
        K = 8, points 0 and infinity), and three doctored ones, V(1) put in
        place of V(2) or of V(infinity) and every level emptied."""
        alg = mat_algebra(3)
        rng = np.random.default_rng(11)
        randoms = decompose_all(alg, [random_functional(9, rng) for _ in range(3)])
        with_nil = decompose(alg, matrix_trace_functional(np.diag([1.0, 2.0, 0.0])))
        plain = decompose(alg, diag125())
        one, two = (plain.point_at(ProjectivePoint.finite(x)) for x in (1.0, 2.0))
        levels = plain.quotient_filtrations
        swapped = with_chain(plain, two, levels[one])
        assert with_nil.points[-1].alpha.is_infinite
        one0 = with_nil.point_at(ProjectivePoint.finite(1.0))
        at_inf = with_chain(with_nil, -1, with_nil.quotient_filtrations[one0])
        empty = tuple((np.zeros((plain.quotient_dim, 0)),) for _ in levels)
        emptied = dataclasses.replace(plain, quotient_filtrations=empty)
        batch = [randoms[0], with_nil, swapped, randoms[1], plain, at_inf, emptied, randoms[2]]
        return alg, batch, [swapped, at_inf, emptied]

    def test_mixed_and_doctored_batch_matches_the_loop(self):
        alg, batch, doctored = self.doctored_batch()
        seeds = list(range(len(batch)))
        assert {dec.quotient_dim for dec in batch} == {8, 9}
        stacked = stacked_suites(alg, batch, seeds)
        for found, expected in zip(stacked, looped_suites(alg, batch, seeds)):
            assert_same_findings(found, expected)
        # a doctored decomposition fails the same suites in the batch as alone
        for dec in doctored:
            i = next(i for i, member in enumerate(batch) if member is dec)
            alone = stacked_suites(alg, [dec], [i])
            for found, single, per in zip(stacked, alone, (1, 1, 2, 2)):
                assert_same_findings(found[per * i : per * (i + 1)], single)
        failed = [f for suite in stacked for f in suite if not f.passed]
        assert {f.theorem_id for f in failed} >= {V_MULT_FINITE, V_MULT_NONZERO}

    def test_shapes_of_one_column_count_match_alone(self, monkeypatch):
        # Mat_3 at F = tr(diag(q) X): q = (1, 2, 5) and random functionals
        # give seven one-level points, 1 of multiplicity 3 fourth; q = (1,
        # -1, 2) gives six, 1 of multiplicity 3 third and -1 of multiplicity
        # 2 fourth.  Both have K = 9 and nine columns, but two shapes
        import algscope.verify as verify

        alg = mat_algebra(3)
        rng = np.random.default_rng(7)
        fs = [diag125(), matrix_trace_functional(np.diag([1.0, -1.0, 2.0]))]
        batch = decompose_all(alg, fs + [random_functional(9, rng) for _ in range(2)])
        shapes = [dec._shape for dec in batch]
        assert shapes[0] == shapes[2] == shapes[3] != shapes[1]
        assert {(k, sum(map(sum, chains))) for k, chains in shapes} == {(9, 9)}
        products = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_group_inclusions")
        residuals = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_stab_residuals")
        seeds = list(range(len(batch)))
        stacked = stacked_suites(alg, batch, seeds)
        # one call per shape, in order of first appearance
        assert [len(args[1]) for args, _ in products] == [3, 1]
        assert [len(args[0]) for args, _ in residuals] == [3, 1]
        for found, expected in zip(stacked, looped_suites(alg, batch, seeds)):
            assert_same_findings(found, expected)
        for i, dec in enumerate(batch):
            alone = stacked_suites(alg, [dec], [i])
            for found, single, per in zip(stacked, alone, (1, 1, 2, 2)):
                assert_same_findings(found[per * i : per * (i + 1)], single)

    def test_groups_split_at_the_budget(self, monkeypatch):
        # a budget below one member's operands: every group runs in parts
        # of one, with the findings of the whole batch
        import algscope.verify as verify

        alg, batch, _ = self.doctored_batch()
        seeds = list(range(len(batch)))
        whole = stacked_suites(alg, batch, seeds)
        parts = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_group_inclusions")
        monkeypatch.setattr(verify, "_VALIDATE_BLOCK_BYTES", 1)
        for found, expected in zip(stacked_suites(alg, batch, seeds), whole):
            assert_same_findings(found, expected)
        assert [len(args[1]) for args, _ in parts] == [1] * len(batch)

    @pytest.mark.parametrize("name", list(PLANTED_JORDAN_BLOCKS))
    def test_planted_blocks_with_nil_match_the_loop(self, name):
        # chains of several levels, in projection chunks of several levels,
        # beside the dual numbers, which make nil nonzero, in both the
        # algebra and its opposite
        beta, _ = PLANTED_JORDAN_BLOCKS[name]
        alg, f = prescribed_pencil_algebra(beta)
        alg = direct_sum(alg, dual_numbers())
        f = Functional(np.concatenate([f.coords, np.zeros(2)]))
        rng = np.random.default_rng(12)
        for a in (alg, opposite(alg)):
            decs = decompose_all(a, [f] + [random_functional(a.dim, rng) for _ in range(3)])
            assert decs[0].nil.dim == 2
            seeds = [3, 4, 5, 6]
            looped = looped_suites(a, decs, seeds)
            for found, expected in zip(stacked_suites(a, decs, seeds), looped):
                assert_same_findings(found, expected)

    def test_chunked_batch_matches_the_loop(self, monkeypatch):
        # a budget of three Mat_3 functionals splits ten into chunks of 3,
        # 3, 3 and 1, and each chunk's v-mult group is one part; tri_5's
        # kernel-only run takes ten chunks of one
        import algscope.verify as verify

        alg = mat_algebra(3)
        batches = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_decompose_pencils")
        parts = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_group_inclusions")
        monkeypatch.setattr(verify, "_VALIDATE_BLOCK_BYTES", 3 * 16 * alg.dim**3)
        for seed in (0, 1):
            expected = run_suites_loop(alg, SUITE_NAMES, 10, seed)
            assert_same_findings(run_suites(alg, SUITE_NAMES, 10, seed), expected)
        assert [len(args[0]) for args, _ in batches] == [3, 3, 3, 1] * 2
        assert [len(args[1]) for args, _ in parts] == [3, 3, 3, 1] * 2
        tri = SUITE_INPUTS["tri_5"]
        suites = ("kernel-relations", "multiplicative")
        assert_same_findings(run_suites(tri, suites, 10, 2), run_suites_loop(tri, suites, 10, 2))

    def test_small_inputs_take_one_chunk(self, monkeypatch):
        import algscope.verify as verify

        batches = TestLinearAlgebraCounts.count_calls(monkeypatch, verify, "_decompose_pencils")
        run_suites(mat_algebra(4), SUITE_NAMES, 10, 0)
        assert [len(args[0]) for args, _ in batches] == [10]
