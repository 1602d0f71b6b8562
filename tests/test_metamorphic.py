"""Metamorphic relations of the decomposition.

The opposite algebra pairs through a^T, so for the same functional its
spectrum is the original one under alpha -> 1/alpha (0 and infinity
swapped), with the same multiplicities and the same filtration levels, and
its left and right kernels are the original right and left kernels.  Here
two independent decompositions, of an algebra and of its opposite, are
compared.  Products in the opposite algebra run in reverse order, so the
v-mult variant over pairs of finite points of one decomposition covers the
products of the variant over pairs of nonzero points of the other.

The direct sum A + B with the functional (F1, F2) pairs block-diagonally,
so its spectrum is the union of those of (A, F1) and (B, F2): at a point of
both, multiplicities and stabilizer dimensions add, and nil is nil_A + nil_B.

F -> s F scales the pencil by s, which changes neither its spectrum nor
its filtrations, only chi, by s^K.
"""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from algscope import (
    Functional,
    ProjectivePoint,
    decompose,
    direct_sum,
    dual_numbers,
    group_algebra,
    klein_table,
    mat_algebra,
    matrix_trace_functional,
    opposite,
    projector_distance,
    random_functional,
    symmetric3_table,
    upper_triangular,
    verify_v_mult,
)

from oracles import prescribed_pencil_algebra


def _cases():
    rng = np.random.default_rng(71)
    algebras = [
        ("Mat_3", mat_algebra(3)),
        ("Mat_4", mat_algebra(4)),
        ("tri_5", upper_triangular(5)),
        ("S3", group_algebra(symmetric3_table())),
        ("Klein", group_algebra(klein_table())),
        ("Mat_2+S3", direct_sum(mat_algebra(2), group_algebra(symmetric3_table()))),
    ]
    cases = [
        (f"{name} #{i}", alg, random_functional(alg.dim, rng))
        for name, alg in algebras
        for i in range(2)
    ]
    # rank-deficient weights: nil is nonzero and the spectrum holds 0 and infinity
    weights = matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))
    cases.append(("Mat_3 weights 1, 2, 0", mat_algebra(3), weights))
    # a planted Jordan block at -1: a defective point with two levels
    alg, f = prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]]))
    cases.append(("defective point", alg, f))
    return cases


CASES = _cases()


class TestOppositeMirror:
    @staticmethod
    def decompose_both(case):
        _, alg, f = case
        op = opposite(alg)
        return alg, decompose(alg, f), op, decompose(op, f)

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case[0])
    def test_matches_an_independent_decomposition(self, case):
        _, dec, op, dec_op = self.decompose_both(case)
        assert dec.ok and dec_op.ok
        assert dec_op.nil.dim == dec.nil.dim
        assert len(dec_op.points) == len(dec.points)
        matched = []
        for p in dec.points:
            q = dec_op.point_at(p.alpha.inverse())
            assert q is not None, p.alpha
            assert (p.algebraic_mult, p.stab_dim, p.filtration_dims) == (
                q.algebraic_mult,
                q.stab_dim,
                q.filtration_dims,
            )
            for level, level_op in zip(dec.filtrations[p.alpha], dec_op.filtrations[q.alpha]):
                assert projector_distance(level, level_op) < 1e-8
            matched.append(q.alpha)
        assert len(set(matched)) == len(matched)
        # the products of the opposite algebra obey the inclusions too
        assert all(finding.passed for finding in verify_v_mult(op, dec_op))

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case[0])
    def test_is_an_involution(self, case):
        """alpha -> 1/alpha taken from the opposite decomposition back to the
        original returns every point to itself, and the v-mult variants,
        which the relation swaps, are swapped back: each variant of one
        algebra has as many products as the other variant of its opposite."""
        alg, dec, op, dec_op = self.decompose_both(case)
        for p in dec.points:
            q = dec_op.point_at(p.alpha.inverse())
            assert dec.point_at(q.alpha.inverse()) is p
        finite, nonzero = verify_v_mult(alg, dec)
        finite_op, nonzero_op = verify_v_mult(op, dec_op)
        assert (finite.samples, nonzero.samples) == (nonzero_op.samples, finite_op.samples)
        assert finite.notes == finite_op.notes
        assert all(x.passed for x in (finite, nonzero, finite_op, nonzero_op))

    def test_cases_cover_nil_zero_infinity_and_a_defective_point(self):
        decs = [decompose(alg, f) for _, alg, f in CASES]
        assert any(dec.nil.dim for dec in decs)
        assert any(
            any(p.alpha.is_infinite for p in dec.points)
            and any((not p.alpha.is_infinite) and p.alpha.value == 0 for p in dec.points)
            for dec in decs
        )
        assert any(len(levels) > 1 for dec in decs for levels in dec.filtrations.values())

    def test_points_are_inverted_and_sorted(self):
        case = next(case for case in CASES if case[0] == "Mat_3 weights 1, 2, 0")
        _, dec, _, dec_op = self.decompose_both(case)
        for p in dec_op.points:
            q = dec.point_at(p.alpha.inverse())
            assert q is not None and q.filtration_dims == p.filtration_dims
        # 0 and infinity trade places, and the points keep spectrum order
        assert dec.points[0].alpha.value == 0 and dec.points[-1].alpha.is_infinite
        assert dec_op.points[0].alpha.value == 0 and dec_op.points[-1].alpha.is_infinite
        assert dec_op.points[0].filtration_dims == dec.points[-1].filtration_dims
        finite = [abs(p.alpha.value) for p in dec_op.points if not p.alpha.is_infinite]
        assert finite == sorted(finite)
        left, right, nil = dec.pencil.kernels
        left_op, right_op, nil_op = dec_op.pencil.kernels
        assert left.dim and right.dim
        for space, space_op in ((left, right_op), (right, left_op), (nil, nil_op)):
            assert space.dim == space_op.dim and projector_distance(space, space_op) < 1e-8


def _direct_sum_cases():
    rng = np.random.default_rng(73)
    algebras = [
        ("Mat_2", mat_algebra(2)),
        ("Mat_3", mat_algebra(3)),
        ("tri_3", upper_triangular(3)),
        ("S3", group_algebra(symmetric3_table())),
        ("Klein", group_algebra(klein_table())),
        ("dual", dual_numbers()),
    ]
    return [
        (
            f"{name_a}+{name_b}",
            (alg_a, random_functional(alg_a.dim, rng)),
            (alg_b, random_functional(alg_b.dim, rng)),
        )
        for (name_a, alg_a), (name_b, alg_b) in combinations_with_replacement(algebras, 2)
    ]


class TestDirectSum:
    @pytest.mark.parametrize("case", _direct_sum_cases(), ids=lambda case: case[0])
    def test_spectrum_is_the_union(self, case):
        _, (alg_a, f_a), (alg_b, f_b) = case
        parts = [decompose(alg_a, f_a), decompose(alg_b, f_b)]
        f = Functional(np.concatenate([f_a.coords, f_b.coords]))
        dec = decompose(direct_sum(alg_a, alg_b), f)
        assert dec.ok and all(part.ok for part in parts)
        assert dec.nil.dim == sum(part.nil.dim for part in parts)
        for p in dec.points:
            found = [part.point_at(p.alpha) for part in parts]
            assert any(found), p.alpha
            assert p.algebraic_mult == sum(q.algebraic_mult for q in found if q)
            assert p.stab_dim == sum(q.stab_dim for q in found if q)
            # V(alpha) of the sum is V(alpha) of each part that has alpha,
            # plus nil of each part that has not
            v_dims = [q.filtration_dims[-1] if q else part.nil.dim for q, part in zip(found, parts)]
            assert p.filtration_dims[-1] == sum(v_dims)
        for part in parts:
            assert all(dec.point_at(q.alpha) for q in part.points)
        # the unit lies in Stab(1), so alpha = 1 is a point of both parts
        assert all(part.point_at(ProjectivePoint.finite(1.0)) for part in parts)


class TestScaling:
    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8])
    def test_scaled_functional_passes_every_check(self, scale):
        # a decision read from chi's coefficients, whose ends scale by s^K
        # (1e-200 to 1e200 here), fails at 1e-8 and 1e8; the spectrum and
        # the checks do not depend on s
        alg = mat_algebra(5)
        rng = np.random.default_rng(74)
        for _ in range(3):
            f = random_functional(alg.dim, rng)
            dec = decompose(alg, f)
            scaled = decompose(alg, Functional(scale * f.coords))
            assert [c.name for c in scaled.checks if not c.passed] == []
            assert [(p.algebraic_mult, p.filtration_dims) for p in scaled.points] == [
                (p.algebraic_mult, p.filtration_dims) for p in dec.points
            ]
            for p, q in zip(dec.points, scaled.points):
                assert abs(p.alpha.value - q.alpha.value) < 1e-9 * max(1.0, abs(p.alpha.value))
