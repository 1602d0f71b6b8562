"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import json
from contextlib import contextmanager

import numpy as np

from algscope import (
    Functional,
    ProjectivePoint,
    decompose,
    direct_sum,
    dual_numbers,
    group_algebra,
    kernels,
    klein_table,
    mat_algebra,
    matrix_trace_functional,
    minimize_stab_dim,
    negative_control_finding,
    projector_distance,
    random_functional,
    reduce_pencil,
    upper_triangular,
    verify_corollaries,
    verify_dim_symmetry,
    verify_kernel_relations,
    verify_v_mult,
)
from algscope.cli import main
from algscope.functional import MULTIPLICATIVE, NOT_RANK_ONE, is_multiplicative
from algscope.linalg import Subspace
from algscope.report import save_algebra, save_functional
from algscope.spectral import _filtration_reduced, _stab_residuals, char_poly, choose_alpha0
from algscope.verify import _chain_distance

from oracles import prescribed_pencil_algebra


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} ({title}): PASS")


def corpus():
    return [
        ("mat2", mat_algebra(2)),
        ("mat3", mat_algebra(3)),
        ("tri3", upper_triangular(3)),
        ("dual", dual_numbers()),
        ("klein", group_algebra(klein_table())),
        ("mat2+dual", direct_sum(mat_algebra(2), dual_numbers())),
    ]


def coordinate_line(ambient, index):
    frame = np.zeros((ambient, 1), dtype=complex)
    frame[index, 0] = 1.0
    return Subspace(ambient, frame, 1e-9)


def test_criterion_1_matrix_algebra_oracle():
    with criterion(1, "matrix-algebra oracle"):
        alg = mat_algebra(3)
        dec = decompose(alg, matrix_trace_functional(np.diag([1.0, 2.0, 5.0])))
        assert dec.nil.dim == 0
        expected = {1.0: 3, 2.0: 1, 5.0: 1, 2.5: 1, 0.5: 1, 0.2: 1, 0.4: 1}
        assert len(dec.points) == 7
        located = {}
        for i, p in enumerate(dec.points):
            match = min(expected, key=lambda v: abs(p.alpha.value - v))
            assert abs(p.alpha.value - match) < 1e-6
            assert p.algebraic_mult == expected[match]
            located[match] = i
        stab_one = dec.filtrations[located[1.0]][0]
        assert stab_one.dim - dec.nil.dim == 3
        diag_span = Subspace(9, np.eye(9, dtype=complex)[:, [0, 4, 8]], 1e-9)
        assert projector_distance(stab_one, diag_span) < 1e-8
        # each simple point: V = Stab = the matching matrix-unit line
        n = 3
        lines = {
            2.0: 1 * n + 0,  # E21
            5.0: 2 * n + 0,  # E31
            2.5: 2 * n + 1,  # E32
            0.5: 0 * n + 1,  # E12
            0.2: 0 * n + 2,  # E13
            0.4: 1 * n + 2,  # E23
        }
        for value, basis_index in lines.items():
            levels = dec.filtrations[located[value]]
            assert len(levels) == 1  # V = Stab
            assert projector_distance(levels[0], coordinate_line(9, basis_index)) < 1e-8


def test_criterion_2_characteristic_polynomial_oracle():
    with criterion(2, "characteristic polynomial oracle"):
        rp = reduce_pencil(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])), 1e-9)
        # the coefficients of -2 (l+m)^2 (l+2m) (2l+m), lam^4 first
        reference = np.array([-2.0])
        for factor in ([1.0, 1.0], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0]):
            reference = np.convolve(reference, factor)
        np.testing.assert_allclose(char_poly(rp).coeffs, reference, rtol=0, atol=1e-9)


def test_criterion_3_kernel_relations_suite():
    with criterion(3, "kernel-relations suite"):
        rng = np.random.default_rng(1001)
        for name, alg in corpus():
            for _ in range(50):
                f = random_functional(alg.dim, rng)
                finding = verify_kernel_relations(alg, kernels(alg, f))
                assert finding.passed, (name, finding)


def test_criterion_4_shift_independence_suite():
    with criterion(4, "shift-independence suite"):
        rng = np.random.default_rng(2002)

        def compared(name, dec, i):
            """Whether the point ``i`` of ``dec`` was compared under two
            drawn shifts (not when they coincide)."""
            rp, p = dec.pencil, dec.points[i]
            shift_a = choose_alpha0(rp, seed=int(rng.integers(0, 2**31)))
            shift_b = choose_alpha0(rp, seed=int(rng.integers(0, 2**31)))
            if abs(shift_a - shift_b) < 1e-9:
                return False
            # the alpha0 suite's rule: level 0 lies in Stab(alpha), and the
            # levels above it, climbed to the multiplicity, agree
            w = dec.quotient_filtrations[i][0]
            ((residual,),) = _stab_residuals([rp], [[p.alpha]], [[w]])
            a, b = (
                _filtration_reduced(rp, p.alpha, s, w, p.algebraic_mult) for s in (shift_a, shift_b)
            )
            dist = _chain_distance(a, b)
            assert residual < 1e-9 and dist < 1e-8, (name, p.alpha, shift_a, shift_b)
            return True

        algs = corpus()
        done = 0
        while done < 10:
            name, alg = algs[int(rng.integers(0, len(algs)))]
            dec = decompose(alg, random_functional(alg.dim, rng))
            if dec.points:
                done += compared(name, dec, int(rng.integers(0, len(dec.points))))
        # a planted Jordan block, whose alpha = -1 climbs one level above
        # Stab(-1): random functionals on the corpus leave every level 0
        # complete, so without it no level above 0 would be compared
        planted = decompose(*prescribed_pencil_algebra(np.array([[1.0, 1.0], [-1.0, 0.0]])))
        climbed = [p for p in planted.points if p.stab_dim < p.algebraic_mult]
        assert len(climbed) == 1 and abs(climbed[0].alpha.value + 1.0) < 1e-9
        assert all(compared("planted", planted, i) for i in range(len(planted.points)))


def test_criterion_5_product_inclusion_suite():
    with criterion(5, "product-inclusion suite"):
        rng = np.random.default_rng(3003)
        for name, alg in corpus():
            for _ in range(50):
                f = random_functional(alg.dim, rng)
                for finding in verify_v_mult(alg, decompose(alg, f)):
                    assert finding.passed, (name, finding)


def test_criterion_6_dimension_symmetry_suite():
    with criterion(6, "dimension-symmetry suite"):
        rng = np.random.default_rng(4004)
        for name, alg in corpus():
            for _ in range(50):
                f = random_functional(alg.dim, rng)
                for finding in verify_dim_symmetry(decompose(alg, f)):
                    assert finding.passed and finding.max_residual == 0.0, (name, finding)


def test_criterion_7_rank_one_multiplicative():
    with criterion(7, "rank-1 multiplicative"):
        alg, f = dual_numbers(), Functional(np.array([1.0, 0.0]))
        rep = is_multiplicative(alg, f, kernels(alg, f), 1e-9)
        assert rep.verdict == MULTIPLICATIVE and rep.max_residual < 1e-12
        # C^n as a direct sum of n copies of Mat_1, with coordinate functionals
        n = 4
        diag_alg = mat_algebra(1)
        for _ in range(n - 1):
            diag_alg = direct_sum(diag_alg, mat_algebra(1))
        for k in range(n):
            coords = np.zeros(n, dtype=complex)
            coords[k] = 1.0
            f = Functional(coords)
            rep = is_multiplicative(diag_alg, f, kernels(diag_alg, f), 1e-9)
            assert rep.verdict == MULTIPLICATIVE and rep.max_residual < 1e-12
        alg, f = mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0]))
        rep = is_multiplicative(alg, f, kernels(alg, f), 1e-9)
        assert rep.verdict == NOT_RANK_ONE and rep.rank == 4


def test_criterion_8_regular_functionals():
    with criterion(8, "regular functionals"):
        rng = np.random.default_rng(5005)
        for n in (2, 3):
            alg = mat_algebra(n)
            full_dual = [Functional(row) for row in np.eye(alg.dim, dtype=complex)]
            f_min, dim = minimize_stab_dim(
                alg, 1.0, -1.0, full_dual, random_functional(alg.dim, rng), samples=32, seed=8
            )
            assert dim == n  # the commutant of a generic matrix
            rp = reduce_pencil(alg, f_min)
            cor2 = verify_corollaries(alg, rp, ProjectivePoint.finite(1.0))
            assert cor2.passed and cor2.max_residual < 1e-6
            # corollary 1 at alpha = 1 is the same element identity ||xy - yx||
            cor1 = verify_corollaries(alg, rp, ProjectivePoint.finite(1.0))
            assert cor1.max_residual < 1e-6
        control = negative_control_finding(mat_algebra(2))
        assert not control.passed  # Stab(1) = all of Mat2 is not commutative


def test_criterion_9_degenerate_inputs(tmp_path, monkeypatch, capsys):
    with criterion(9, "degenerate inputs"):
        monkeypatch.chdir(tmp_path)
        save_algebra(dual_numbers(), "dual.alg")
        save_functional(Functional(np.zeros(2, dtype=complex)), "zero.fn")
        assert main(["analyze", "dual.alg", "zero.fn"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nil_dim"] == 2
        assert doc.get("spectrum", []) == []
        np.testing.assert_allclose(doc["chi"], [[1.0, 0.0]])
        # the splitting identity holds on every corpus run
        rng = np.random.default_rng(6006)
        for name, alg in corpus():
            for _ in range(10):
                dec = decompose(alg, random_functional(alg.dim, rng))
                k = alg.dim - dec.nil.dim
                assert sum(p.algebraic_mult for p in dec.points) == k, name
                assert sum(v.dim - dec.nil.dim for v in dec.v_spaces) == k, name


def test_criterion_10_determinism(tmp_path, monkeypatch, capsys):
    with criterion(10, "determinism"):
        monkeypatch.chdir(tmp_path)
        save_algebra(mat_algebra(3), "mat3.alg")
        save_functional(matrix_trace_functional(np.diag([1.0, 2.0, 5.0])), "d125.fn")
        assert main(["analyze", "mat3.alg", "d125.fn", "--seed", "11", "--out", "a.json"]) == 0
        assert main(["analyze", "mat3.alg", "d125.fn", "--seed", "11", "--out", "b.json"]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert main(["analyze", "mat3.alg", "d125.fn", "--seed", "12", "--out", "c.json"]) == 0
        with open("a.json") as fa, open("c.json") as fc:
            doc_a, doc_c = json.load(fa), json.load(fc)
        assert doc_a["alpha0"] != doc_c["alpha0"]
        rows_a = [(r["algebraic_mult"], r["stab_dim"], r["filtration_dims"]) for r in doc_a["spectrum"]]
        rows_c = [(r["algebraic_mult"], r["stab_dim"], r["filtration_dims"]) for r in doc_c["spectrum"]]
        assert rows_a == rows_c
        for ra, rc in zip(doc_a["spectrum"], doc_c["spectrum"]):
            za = complex(*ra["alpha"]) if ra["alpha"] != "inf" else None
            zc = complex(*rc["alpha"]) if rc["alpha"] != "inf" else None
            assert (za is None) == (zc is None)
            if za is not None:
                assert abs(za - zc) < 1e-9
