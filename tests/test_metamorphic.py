"""Metamorphic relations of the decomposition.

The opposite algebra pairs through a^T, so its spectrum is the original one
under alpha -> 1/alpha, with the same spaces.  ``opposite_decomposition``
builds that mirror without computing anything; here it is compared with an
independent decomposition of the opposite algebra, which also keeps the
pipeline itself exercised on opposite algebras.
"""

import numpy as np
import pytest

from algscope import (
    decompose,
    direct_sum,
    group_algebra,
    klein_table,
    mat_algebra,
    matrix_trace_functional,
    opposite,
    opposite_decomposition,
    projective_close,
    projector_distance,
    random_functional,
    symmetric3_table,
    upper_triangular,
)
from algscope.verify import _product_inclusions

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
    @pytest.mark.parametrize("case", CASES, ids=lambda case: case[0])
    def test_matches_an_independent_decomposition(self, case):
        _, alg, f = case
        mirrored = opposite_decomposition(decompose(alg, f))
        independent = decompose(opposite(alg), f)
        assert independent.ok
        assert mirrored.nil.dim == independent.nil.dim
        assert len(mirrored.points) == len(independent.points)
        matched = []
        for p in mirrored.points:
            q = independent.point_at(p.alpha)
            assert q is not None, p.alpha
            assert projective_close(p.alpha, q.alpha, independent.cluster_tol)
            assert (p.algebraic_mult, p.stab_dim, p.filtration_dims) == (
                q.algebraic_mult,
                q.stab_dim,
                q.filtration_dims,
            )
            levels = zip(mirrored.filtrations[p.alpha], independent.filtrations[q.alpha])
            for level, level_ref in levels:
                assert projector_distance(level, level_ref) < 1e-8
            v, v_ref = mirrored.v_spaces[p.alpha], independent.v_spaces[q.alpha]
            assert projector_distance(v, v_ref) < 1e-8
            matched.append(q.alpha)
        assert len(set(matched)) == len(matched)
        # the products of the independent decomposition obey the inclusions too
        worst, _, _ = _product_inclusions(opposite(alg), independent, 1e-7)
        assert worst < 1e-7

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
        dec = decompose(mat_algebra(3), matrix_trace_functional(np.diag([1.0, 2.0, 0.0])))
        mirrored = opposite_decomposition(dec)
        for p in mirrored.points:
            q = dec.point_at(p.alpha.inverse())
            assert q is not None and q.filtration_dims == p.filtration_dims
        finite = [abs(p.alpha.value) for p in mirrored.points if not p.alpha.is_infinite]
        assert finite == sorted(finite) and mirrored.points[-1].alpha.is_infinite
        assert mirrored.alpha0_used == 1.0 / dec.alpha0_used
        assert mirrored.chi is dec.chi and mirrored.checks is dec.checks
        left, right, nil = dec.pencil.kernels
        assert all(a is b for a, b in zip(mirrored.pencil.kernels, (right, left, nil)))
        assert mirrored.pencil.a_tilde is dec.pencil.at_tilde
        assert mirrored.pencil.at_tilde is dec.pencil.a_tilde

    def test_makes_no_svd(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for _, alg, f in CASES:
            calls.clear()
            dec = decompose(alg, f)
            assert calls  # the counter sees the library's SVDs
            calls.clear()
            opposite_decomposition(dec)
            assert calls == []

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case[0])
    def test_is_an_involution(self, case):
        _, alg, f = case
        dec = decompose(alg, f)
        twice = opposite_decomposition(opposite_decomposition(dec))
        assert len(twice.points) == len(dec.points)
        for p, q in zip(dec.points, twice.points):
            # 1 / (1 / alpha) may round in the last bit
            assert projective_close(p.alpha, q.alpha, 1e-15)
            assert (p.algebraic_mult, p.stab_dim, p.filtration_dims) == (
                q.algebraic_mult,
                q.stab_dim,
                q.filtration_dims,
            )
            assert twice.v_spaces[q.alpha] is dec.v_spaces[p.alpha]
            assert twice.filtrations[q.alpha] is dec.filtrations[p.alpha]
            assert twice.quotient_filtrations[q.alpha] is dec.quotient_filtrations[p.alpha]
        assert all(a is b for a, b in zip(twice.pencil.kernels, dec.pencil.kernels))
        assert twice.pencil.a_tilde is dec.pencil.a_tilde
        assert twice.pencil.quotient_frame is dec.pencil.quotient_frame
