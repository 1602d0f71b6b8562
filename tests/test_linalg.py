import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algscope import (
    INFINITY,
    NonFinite,
    ProjectivePoint,
    ShapeError,
    SingularShift,
    Subspace,
    complement,
    decompose,
    det_poly,
    mat_algebra,
    nullspace,
    pencil_eigen,
    projective_close,
    projector_distance,
    random_functional,
    subspace_equal,
    subspace_intersect,
    subspace_sum,
)
from algscope.linalg import (
    _nullspaces,
    _shifted_eigens,
    _stack_points,
    orthonormal_columns,
    rank,
    stack_ranks,
)

from oracles import cluster_values_loop, det_poly_exact

TOL = 1e-10


def line(ambient, index):
    frame = np.zeros((ambient, 1), dtype=complex)
    frame[index, 0] = 1.0
    return Subspace(ambient, frame, TOL)


class TestNullspace:
    def test_zero_matrix_gives_full_space(self):
        assert nullspace(np.zeros((3, 3)), TOL).dim == 3

    def test_identity_gives_trivial_space(self):
        assert nullspace(np.eye(4), TOL).dim == 0

    def test_explicit_kernel_direction(self):
        ns = nullspace(np.diag([1.0, 0.0]), TOL)
        assert ns.dim == 1
        assert subspace_equal(ns, line(2, 1), 1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            nullspace(np.array([[np.nan, 0.0], [0.0, 1.0]]), TOL)

    def test_kernel_vectors_annihilate(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        ns = nullspace(m, TOL)
        assert ns.dim == 2
        assert np.max(np.abs(m @ ns.frame)) < 1e-12

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**9), st.integers(1, 7), st.integers(1, 7))
    def test_rank_plus_nullity(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(0, min(rows, cols) + 1))
        m = (
            rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))
        ) @ (rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols)))
        if r == 0:
            m = np.zeros((rows, cols), dtype=complex)
        assert rank(m, TOL) + nullspace(m, TOL).dim == cols
        assert rank(m, TOL) == r


#: a rank primitive called at a tolerance on the 3 x 3 identity
_RANK_PRIMITIVES = {
    "nullspace": lambda tol: nullspace(np.eye(3), tol),
    "rank": lambda tol: rank(np.eye(3), tol),
    "orthonormal_columns": lambda tol: orthonormal_columns(np.eye(3), tol),
    "stack_ranks": lambda tol: stack_ranks([np.eye(3)], tol, [None]),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", list(_RANK_PRIMITIVES))
def test_rank_primitives_refuse_a_tolerance_that_is_not_finite_and_positive(name, tol):
    # at tol = nan nullspace gave the whole space and the others rank 0
    with pytest.raises(ValueError, match="^tol must be a finite number > 0$"):
        _RANK_PRIMITIVES[name](tol)


#: a Subspace constructor called at a tolerance
_SUBSPACE_CONSTRUCTORS = {
    "Subspace": lambda tol: Subspace(2, np.array([[2.0], [0.0]]), tol),
    "zero": lambda tol: Subspace.zero(3, tol),
    "full": lambda tol: Subspace.full(3, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", list(_SUBSPACE_CONSTRUCTORS))
def test_subspace_constructors_refuse_a_tolerance_that_is_not_finite_and_positive(name, tol):
    # at tol = nan or inf the orthonormality check passed, so the frame of
    # norm 2 built a dim-1 "subspace"; zero and full checked nothing
    with pytest.raises(ValueError, match="^tol must be a finite number > 0$"):
        _SUBSPACE_CONSTRUCTORS[name](tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_subspace_equal_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # at tol = inf span(e1) equalled span(e2); at nan, 0 or -1 a line was
    # not equal to itself
    assert subspace_equal(line(2, 0), line(2, 0), TOL)
    assert not subspace_equal(line(2, 0), line(2, 1), TOL)
    with pytest.raises(ValueError, match="^tol must be a finite number > 0$"):
        subspace_equal(line(2, 0), line(2, 1), tol)


@pytest.mark.parametrize("cluster_tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_pencil_eigen_refuses_a_cluster_tolerance_that_is_not_finite_and_positive(cluster_tol):
    # the eigenvalues 1, 1 and 2 make two points; at cluster_tol = inf or -1
    # they merged into one, and at nan or 0 they made three
    a, b = np.diag([1.0, 1.0, 2.0]), np.eye(3)
    assert [m for _, m, _ in pencil_eigen(a, b, 0.5)] == [2, 1]
    with pytest.raises(ValueError, match="^cluster_tol must be a finite number > 0$"):
        pencil_eigen(a, b, 0.5, cluster_tol=cluster_tol)


class TestSubspaceLattice:
    def test_sum_of_coordinate_lines(self):
        s = subspace_sum(line(3, 0), line(3, 1))
        assert s.dim == 2

    def test_sum_idempotent(self):
        a = line(3, 0)
        assert subspace_equal(subspace_sum(a, a), a, 1e-12)

    def test_sum_of_skew_lines(self):
        # Gram-Schmidt by hand: {e1, e1 + e2} spans the same plane as {e1, e2}
        skew = Subspace(3, np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2), TOL)
        s = subspace_sum(line(3, 0), skew)
        assert s.dim == 2
        assert subspace_equal(s, subspace_sum(line(3, 0), line(3, 1)), 1e-12)

    def test_intersect_with_full_space(self):
        b = line(3, 2)
        got = subspace_intersect(Subspace.full(3, TOL), b, TOL)
        assert subspace_equal(got, b, 1e-10)

    def test_intersect_orthogonal_lines(self):
        assert subspace_intersect(line(2, 0), line(2, 1), TOL).dim == 0

    @pytest.mark.parametrize("dims", [(0, 0), (0, 2), (3, 0)])
    def test_intersect_with_zero_takes_no_svd(self, monkeypatch, dims):
        rng = np.random.default_rng(sum(dims))
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        a, b = (Subspace(4, q[:, :d], TOL) for d in dims)
        eye = np.eye(4)
        # the SVD path: the nullspace of the stacked projector complements
        want = nullspace(np.vstack([eye - a.projector(), eye - b.projector()]), TOL, scale=1.0)
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args))
        got = subspace_intersect(a, b, TOL)
        assert calls == []
        assert (got.ambient_dim, got.tol, got.dim) == (want.ambient_dim, want.tol, 0)
        assert got.frame.shape == want.frame.shape and got.frame.dtype == want.frame.dtype

    @pytest.mark.parametrize("ambient", [0, 1, 5])
    def test_distance_of_zero_subspaces_takes_no_svd(self, monkeypatch, ambient):
        import numpy.linalg._linalg as numpy_linalg

        a, b = Subspace.zero(ambient, TOL), Subspace.zero(ambient, 1e-6)
        # the SVD path: the spectral norm of the zero projector difference
        want = float(np.linalg.norm(a.projector() - b.projector(), 2)) if ambient else 0.0
        calls = []
        # np.linalg.norm(x, 2) calls the module's own svd
        for owner in (np.linalg, numpy_linalg):
            monkeypatch.setattr(owner, "svd", lambda *args, **kwargs: calls.append(args))
        got = projector_distance(a, b)
        assert calls == []
        assert type(got) is float and got == want == 0.0
        assert subspace_equal(a, b, 1e-300)

    def test_distance_is_one_values_only_svd(self, monkeypatch):
        # the spectral norm is the largest singular value, taken through
        # np.linalg.svd itself, so every SVD of the program is counted there
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((2, 5, 2)) + 1j * rng.standard_normal((2, 5, 2))
        a, b = (Subspace(5, np.linalg.qr(x)[0], TOL) for x in frames)
        want = float(np.linalg.norm(a.projector() - b.projector(), 2))
        calls = []
        original = np.linalg.svd

        def counted(x, *args, **kwargs):
            calls.append((x.shape, kwargs.get("compute_uv", True)))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        got = projector_distance(a, b)
        assert calls == [((5, 5), False)]
        assert type(got) is float and got.hex() == want.hex() and got > 0

    def test_intersect_planes_in_common_line(self):
        plane_a = subspace_sum(line(3, 0), line(3, 1))
        plane_b = subspace_sum(line(3, 1), line(3, 2))
        got = subspace_intersect(plane_a, plane_b, TOL)
        assert subspace_equal(got, line(3, 1), 1e-9)

    def test_equality_basics(self):
        a = line(3, 0)
        assert subspace_equal(a, a, 1e-12)
        assert not subspace_equal(line(3, 0), line(3, 1), 1e-8)
        rescaled = Subspace(3, np.array([[1.0000000001], [0.0], [0.0]]) / 1.0000000001, 1e-8)
        assert subspace_equal(a, rescaled, 1e-8)

    def test_complement_dimensions(self):
        a = subspace_sum(line(4, 0), line(4, 2))
        c = complement(a)
        assert c.dim == 2
        assert np.max(np.abs(a.frame.conj().T @ c.frame)) < 1e-12

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**9))
    def test_dimension_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        da, db = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
        qa = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        qb = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        a = Subspace(n, qa[:, :da], TOL)
        b = Subspace(n, qb[:, :db], TOL)
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b, TOL)
        assert a.dim + b.dim == s.dim + i.dim


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 2), (3, 3))])
@pytest.mark.parametrize("name", ["pencil_eigen", "det_poly"])
def test_pencil_shape_check_names_its_caller(name, shapes):
    # one check of both: a non-square pencil, and square matrices of two sizes
    call = {"pencil_eigen": lambda a, b: pencil_eigen(a, b, 0.0), "det_poly": det_poly}[name]
    a, b = (np.ones(shape) for shape in shapes)
    message = f"{name} needs equal square matrices, got {shapes[0]} and {shapes[1]}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call(a, b)


class TestPencilEigen:
    def test_equal_matrices_single_point(self):
        pts = pencil_eigen(np.eye(2), np.eye(2), 0.0)
        assert len(pts) == 1
        alpha, mult, vector = pts[0]
        assert mult == 2 and projective_close(alpha, ProjectivePoint.finite(1.0), 1e-9)
        assert vector is None

    def test_zero_second_matrix_gives_infinity(self):
        pts = pencil_eigen(np.eye(2), np.zeros((2, 2)), 0.0)
        assert pts == [(INFINITY, 2, None)]

    def test_diagonal_pencil(self):
        # ker(a - alpha*b) is nontrivial exactly at alpha in {1, 2}
        pts = pencil_eigen(np.diag([1.0, 2.0]), np.eye(2), 0.0)
        assert [m for _, m, _ in pts] == [1, 1]
        values = sorted(abs(p.value) for p, _, _ in pts)
        assert abs(values[0] - 1.0) < 1e-9 and abs(values[1] - 2.0) < 1e-9

    def test_simple_points_carry_their_eigenvectors(self):
        # a - alpha b with a = diag(1, 2, 3, 4), b = diag(1, 1, 0, 1) and a
        # random change of basis: simple points 1 and 4, a double point 2
        # and a simple point at infinity
        rng = np.random.default_rng(17)
        p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = p @ np.diag([1.0, 2.0, 2.0, 4.0]) @ q
        b = p @ np.diag([1.0, 1.0, 1.0, 0.0]) @ q
        pts = pencil_eigen(a, b, 0.3 + 0.1j)
        assert [(None if x.is_infinite else round(x.value.real, 6), m) for x, m, _ in pts] == [
            (1.0, 1),
            (2.0, 2),
            (None, 1),
        ]
        scale = np.linalg.norm(a, 2) + np.linalg.norm(b, 2)
        for alpha, mult, vector in pts:
            if mult > 1:
                assert vector is None
                continue
            assert vector.shape == (4, 1) and not vector.flags.writeable
            assert abs(np.linalg.norm(vector) - 1.0) < 1e-14
            op = b if alpha.is_infinite else a - alpha.value * b
            assert np.linalg.norm(op @ vector) < 1e-12 * (1.0 + abs(alpha.value or 0.0)) * scale

    def test_clusters_match_the_pairwise_loop(self):
        # a stack of pencils whose eigenvalues map to near-duplicates within
        # and just outside the tolerance, a chain that links through a
        # middle value, large moduli, four values within the tolerance of 0
        # of which only two lie within it of each other, a point of 10
        # members and, in every other pencil, an infinite eigenvalue (L = 0)
        rng = np.random.default_rng(19)
        tol = 1e-6
        lams, alpha0s = [], []
        for c in range(6):
            base = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            base *= 10.0 ** rng.integers(-2, 5, size=9)
            step = tol * np.maximum(1.0, np.abs(base))
            chain = [base[0] + 0.6 * step[0], base[0] + 1.2 * step[0], base[1] + 1.5 * step[1]]
            crowd = base[2] + 1e-9 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
            turn = np.exp(2j * np.pi * rng.random())
            ring = tol * turn * np.append(0.95 * np.exp(2j * np.pi * np.arange(3) / 3), 0.6)
            values = np.concatenate([base, chain, crowd, ring])
            alpha0 = complex(rng.standard_normal(), rng.standard_normal())
            lam = 1.0 / (values - alpha0)
            if c % 2:
                lam[3] = 0.0
            lams.append(rng.permutation(lam))
            alpha0s.append(alpha0)
        lams = np.array(lams)
        k = lams.shape[1]
        vectors = np.broadcast_to(np.eye(k, dtype=complex), (len(lams), k, k))
        got = _stack_points(lams, vectors, alpha0s, tol)
        largest = 0
        for lam, alpha0, points in zip(lams, alpha0s, got):
            finite = np.flatnonzero(lam != 0)
            alphas = alpha0 + 1.0 / lam[finite]
            want = []
            for members in cluster_values_loop(alphas, tol):
                z = alphas[members].sum() / len(members)
                z = 0.0 if abs(z) <= tol else complex(z)
                first = int(finite[members[0]]) if len(members) == 1 else None
                want.append((ProjectivePoint(z), len(members), first))
                largest = max(largest, len(members))
            if len(finite) < k:
                want.append((INFINITY, k - len(finite), int(np.flatnonzero(lam == 0)[0])))
            want.sort(key=lambda w: (1, 0.0, 0.0) if w[0].is_infinite else
                      (0, abs(w[0].value), float(np.angle(w[0].value))))
            assert [
                (point, mult, None if v is None else int(np.argmax(np.abs(v[:, 0]))))
                for point, mult, v in points
            ] == want
            assert [p.value for p, _, _ in points if not p.is_infinite][0] == 0.0
        assert largest == 10

    @pytest.mark.parametrize("alpha0", [0.5, -0.3 + 0.4j])
    def test_values_near_0_form_one_point(self, alpha0):
        # three values 0.6 cluster_tol from 0, 120 degrees apart: each pair
        # lies about 1.04 cluster_tol apart, yet all three join one point
        # at exactly 0, as the values beyond the infinity cutoff join one
        # point at infinity
        tol = 1e-5
        ring = 0.6 * tol * np.exp(2j * np.pi * np.arange(3) / 3)
        assert min(abs(ring[i] - ring[i - 1]) for i in range(3)) > tol
        a = np.diag(np.concatenate([ring, [1.0, 1.0]]))
        b = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).astype(complex)
        pts = pencil_eigen(a, b, alpha0, cluster_tol=tol)
        assert [m for _, m, _ in pts] == [3, 1, 1]
        assert pts[0][0].value == 0.0 and pts[2][0].is_infinite
        assert projective_close(pts[1][0], ProjectivePoint(1.0), 1e-12)

    def test_singular_shift_raises(self):
        with pytest.raises(SingularShift):
            pencil_eigen(np.eye(2), np.eye(2), 1.0)

    def test_multiplicities_sum_to_size(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            pts = pencil_eigen(a, b, 0.1 + 0.2j)
            assert sum(m for _, m, _ in pts) == k


# pairing of Mat2 with the functional dual to diag(1, 2); the expected
# coefficient vector was frozen from an independent symbolic determinant
MAT2_PAIRING = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 2.0],
    ],
    dtype=complex,
)
MAT2_CHI = np.array([-4.0, -18.0, -28.0, -18.0, -4.0], dtype=complex)


def random_stack(rng, n, rows, cols, rank_of=None):
    """``n`` complex matrices, the i-th of rank ``rank_of[i]`` when given."""
    mats = []
    for i in range(n):
        r = min(rows, cols) if rank_of is None else rank_of[i]
        left = rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))
        right = rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
        mats.append(left @ right)
    return mats


class TestStackedPrimitives:
    """Each stacked primitive gives the answers of the single-matrix calls,
    bit for bit."""

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_match_the_single_matrix_calls(self, k):
        rng = np.random.default_rng(k)
        ranks = [int(r) for r in rng.integers(0, k + 1, size=7)]
        mats = random_stack(rng, 7, k, k, ranks)
        scales = rng.uniform(0.5, 2.0, size=7)
        assert stack_ranks(mats, TOL, scales).tolist() == [
            rank(m, TOL, scale=sc) for m, sc in zip(mats, scales)
        ] == ranks
        # rank is stack_ranks of one matrix: on empty matrices, and on an
        # all-roundoff one, whose rank the scale floor decides
        roundoff = np.full((k, k), 1e-20, dtype=complex)
        edges = [(np.zeros((0, k)), None, 0), (np.zeros((k, 0)), None, 0)]
        edges += [(roundoff, 1.0, 0), (roundoff, None, 1)]
        for m, scale, want in edges:
            assert rank(m, TOL, scale=scale) == stack_ranks([m], TOL, [scale])[0] == want
        # behind the 2-d check of as_matrix, and the finiteness check of both
        with pytest.raises(ShapeError, match=rf"^expected a 2-d array, got shape \({k},\)$"):
            rank(np.ones(k), TOL)
        bad = np.eye(k, dtype=complex)
        bad[-1, 0] = np.nan
        for check in (lambda: rank(bad, TOL), lambda: stack_ranks([bad], TOL, [None])):
            with pytest.raises(NonFinite):
                check()

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_stacked_nullspaces_are_the_single_calls(self, k):
        rng = np.random.default_rng(10 + k)
        ranks = [int(r) for r in rng.integers(0, k + 1, size=7)]
        mats = np.stack(random_stack(rng, 7, k, k, ranks))
        scales = [None, *rng.uniform(0.5, 2.0, size=6)]
        for (left, got), m, sc in zip(_nullspaces(mats, TOL, scales, left=True), mats, scales):
            want = nullspace(m, TOL, scale=sc)
            assert got.frame.shape == want.frame.shape == (k, k - rank(m, TOL, scale=sc))
            assert got.frame.tobytes() == want.frame.tobytes()
            # the left null space from the same SVD, at the same rank
            assert left.dim == got.dim
            assert subspace_equal(left, nullspace(m.T, TOL, scale=sc), 1e-10)
            if left.dim:
                assert np.max(np.abs(left.frame.T @ m)) < 1e-12 * max(1.0, np.abs(m).max())

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_stacked_eigens_are_the_single_calls(self, k):
        rng = np.random.default_rng(30 + k)
        a = rng.standard_normal((5, k, k)) + 1j * rng.standard_normal((5, k, k))
        b = rng.standard_normal((5, k, k)) + 1j * rng.standard_normal((5, k, k))
        # a repeated eigenvalue and an infinite one in the last pencil
        b[-1] = np.diag(np.r_[np.zeros(k // 2), np.ones(k - k // 2)])
        alpha0s = [complex(z) for z in rng.standard_normal(5) + 1j * rng.standard_normal(5)]
        shifted = a - np.array(alpha0s)[:, None, None] * b
        _, batch = _shifted_eigens(shifted, b, alpha0s, 1e-6)
        for got, x, y, alpha0 in zip(batch, a, b, alpha0s):
            want = pencil_eigen(x, y, alpha0)
            assert [(p, m) for p, m, _ in got] == [(p, m) for p, m, _ in want]
            for (_, _, v), (_, _, w) in zip(got, want):
                assert (v is None) == (w is None)
                assert v is None or v.tobytes() == w.tobytes()

    def test_roundoff_entries_are_dropped_per_matrix(self):
        # with shifted = I, M = b: upper triangular matrices plus one entry
        # 1e-30 below the diagonal, at scales 1, 1e-40 and 1e40.  Each
        # matrix drops the entry below eps ||M||_F of its own, so its
        # eigenvalues are its diagonal, bit for bit, and a threshold shared
        # by the stack would have zeroed all of the second matrix
        rng = np.random.default_rng(41)
        k = 6
        m = np.triu(rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k)))
        m[:, -1, 0] = 1e-30
        m *= np.array([1.0, 1e-40, 1e40])[:, None, None]
        eye = np.broadcast_to(np.eye(k, dtype=complex), m.shape).copy()
        lams, batch = _shifted_eigens(eye, m, [0.5] * 3, 1e-6)
        for i in range(3):
            alone, (points,) = _shifted_eigens(eye[i : i + 1], m[i : i + 1], [0.5], 1e-6)
            assert lams[i].tobytes() == alone[0].tobytes()
            assert [(p, n) for p, n, _ in batch[i]] == [(p, n) for p, n, _ in points]
            assert sorted(lams[i].tolist(), key=abs) == sorted(np.diag(m[i]).tolist(), key=abs)
            # eig of the matrix as it is does not return its diagonal
            raw = np.linalg.eigvals(m[i]).tolist()
            assert sorted(raw, key=abs) != sorted(np.diag(m[i]).tolist(), key=abs)

    def test_nonfinite_entry_is_rejected(self):
        mats = [np.eye(3, dtype=complex), np.eye(3, dtype=complex)]
        mats[1][2, 0] = np.inf
        with pytest.raises(NonFinite):
            stack_ranks(mats, TOL, [1.0, 1.0])

    def test_stacked_frames_are_checked_subspace_frames(self):
        rng = np.random.default_rng(4)
        mats = np.stack(random_stack(rng, 5, 6, 6, [2, 3, 6, 3, 0]))
        for pair in _nullspaces(mats, TOL, [None] * 5, left=True):
            for space in pair:
                assert not space.frame.flags.writeable
                again = Subspace(space.ambient_dim, space.frame, TOL)
                assert again.frame.tobytes() == space.frame.tobytes()

    def test_orthonormality_guard_of_stacked_frames(self, monkeypatch):
        # V^H with its trailing row, which every nonzero null space keeps,
        # off unit length by 1e-6: the check over the stack raises, as the
        # Subspace constructor does
        svd = np.linalg.svd

        def skewed(a, *args, **kwargs):
            found = svd(a, *args, **kwargs)
            if not kwargs.get("compute_uv", True):
                return found
            u, s, vh = found
            vh = vh.copy()
            vh[..., -1, :] *= 1.0 + 1e-6
            return u, s, vh

        rng = np.random.default_rng(5)
        alg = mat_algebra(2)
        f = random_functional(alg.dim, rng)
        assert decompose(alg, f).ok
        monkeypatch.setattr(np.linalg, "svd", skewed)
        with pytest.raises(ShapeError):
            nullspace(random_stack(rng, 1, 6, 6, [3])[0], TOL)
        # Mat_2's alpha = 1 is a double point, whose Stab(1) takes a nullspace
        with pytest.raises(ShapeError):
            decompose(alg, f)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_zero_and_full_frames_are_exact_and_read_only(self, n):
        for space, frame in ((Subspace.zero(n), np.zeros((n, 0))), (Subspace.full(n), np.eye(n))):
            assert space.ambient_dim == n and space.tol == 1e-9
            assert space.frame.dtype == complex
            assert space.frame.tobytes() == frame.astype(complex).tobytes()
            assert not space.frame.flags.writeable
        # the constructor still checks the frames it is given
        skewed = np.eye(n, dtype=complex)
        if n:
            skewed[0, 0] = 1.0 + 1e-6
            with pytest.raises(ShapeError, match="not orthonormal"):
                Subspace(n, skewed, TOL)

    def test_orthonormality_is_checked_like_a_subspace(self):
        # a cutoff above every singular value keeps all of vh, whose
        # roundoff exceeds 10 * tol at this tol
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError):
            nullspace(random_stack(rng, 1, 6, 6)[0], 1e-18, scale=1e20)


class TestDetPoly:
    def test_matches_exact_rational_interpolation(self):
        # integer pencils with K <= 6, exact coefficients from the oracle;
        # interpolation at unit-circle nodes is perfectly conditioned, so
        # each coefficient is off by a few eps times the coefficient norm
        # (at most 1.2e-15 of it over 120 such pencils); 1e-13 leaves room
        pytest.importorskip("sympy")
        rng = np.random.default_rng(17)
        for k in range(1, 7):
            for kind in ("random", "singular b", "transpose"):
                a = rng.integers(-3, 4, (k, k)).astype(float)
                b = rng.integers(-3, 4, (k, k)).astype(float)
                if kind == "singular b":
                    b[:, 0] = 0.0  # det b = 0: the last coefficient vanishes
                elif kind == "transpose":
                    b = a.T.copy()
                exact = np.array([complex(c) for c in det_poly_exact(a, b)])
                if kind == "singular b":
                    assert exact[-1] == 0
                got = det_poly(a, b).coeffs
                assert np.max(np.abs(got - exact)) <= 1e-13 * np.linalg.norm(exact), (k, kind)

    def test_empty_determinant_convention(self):
        p = det_poly(np.zeros((0, 0)), np.zeros((0, 0)))
        assert p.degree == 0 and p.coeffs[0] == 1.0

    def test_one_by_one(self):
        p = det_poly(np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(p.coeffs, [1.0, 1.0], atol=1e-12)

    def test_mat2_pairing_coefficients(self):
        p = det_poly(MAT2_PAIRING, MAT2_PAIRING.T)
        np.testing.assert_allclose(p.coeffs, MAT2_CHI, atol=1e-9)

    def test_mat2_pairing_against_symbolic_determinant(self):
        sympy = pytest.importorskip("sympy")
        lam, mu = sympy.symbols("lam mu")
        a = sympy.Matrix(MAT2_PAIRING.real.astype(int).tolist())
        chi = sympy.expand(sympy.det(lam * a + mu * a.T))
        coeffs = [
            complex(sympy.Poly(chi, lam, mu).coeff_monomial(lam ** (4 - d) * mu**d))
            for d in range(5)
        ]
        np.testing.assert_allclose(coeffs, MAT2_CHI, atol=0)
        p = det_poly(MAT2_PAIRING, MAT2_PAIRING.T)
        np.testing.assert_allclose(p.coeffs, coeffs, atol=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**9))
    def test_transpose_reversal_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        pa = det_poly(a, b).coeffs
        pb = det_poly(b, a).coeffs
        scale = max(np.abs(pa).max(), 1.0)
        np.testing.assert_allclose(pa, pb[::-1], atol=1e-9 * scale)

    def test_vanishes_at_pencil_points(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            chi = det_poly(a, b)
            norm = np.linalg.norm(chi.coeffs)
            d = np.arange(k + 1)
            for alpha, _, _ in pencil_eigen(a, b, 0.3 + 0.1j):
                # the terms of chi(1, -alpha), or of chi(0, 1) at infinity
                lam, mu = (0.0, 1.0) if alpha.is_infinite else (1.0, -alpha.value)
                terms = chi.coeffs * lam ** (k - d) * mu**d
                assert abs(np.sum(terms)) <= 1e-6 * max(np.sum(np.abs(terms)), norm)


class TestProjectivePoint:
    def test_infinity_is_a_tag(self):
        assert INFINITY.is_infinite
        assert INFINITY.inverse().value == 0.0
        assert ProjectivePoint.finite(0.0).inverse().is_infinite

    def test_inverse_of_finite(self):
        p = ProjectivePoint.finite(2.0)
        assert abs(p.inverse().value - 0.5) < 1e-15

    def test_close_is_relative_for_large_values(self):
        a = ProjectivePoint.finite(1e9)
        b = ProjectivePoint.finite(1e9 + 1.0)
        assert projective_close(a, b, 1e-6)
        assert not projective_close(a, INFINITY, 1e-6)

    def test_subspace_frame_validation(self):
        with pytest.raises(ShapeError):
            Subspace(2, np.array([[1.0], [1.0]]), 1e-10)  # not normalized


class TestOneClosenessTest:
    """Clustering (``_stack_points``), the suites' point lookup
    (``verify._point_indices``) and ``projective_close`` all decide with
    ``_close``, ``|a - b| <= tol * max(1, |a|, |b|)``: they agree at, just
    inside and just outside that radius, at moduli below 1 and far above."""

    TOL = 1e-6

    @staticmethod
    def partner(a, factor, phase, tol):
        """b = a + r e^(i phase) with r = factor * tol * max(1, |a|, |b|),
        solved by fixed-point steps, each of which shrinks the error by
        about ``factor * tol``."""
        u = np.exp(1j * phase)
        r = factor * tol * max(1.0, abs(a))
        for _ in range(4):
            r = factor * tol * max(1.0, abs(a), abs(a + r * u))
        return a + r * u

    @pytest.mark.parametrize(
        "a", [0.3, -0.8j, 1.0, 7.5 * np.exp(0.4j), 1e3, 4e4 * np.exp(2.1j), -2e5]
    )
    def test_every_user_agrees_around_the_radius(self, a):
        from types import SimpleNamespace

        from algscope.linalg import _close
        from algscope.verify import _point_indices

        tol = self.TOL
        verdicts = set()
        for factor in (0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0):
            for phase in (0.0, 1.3, np.pi, 4.4):
                # the values the clustering sees at shift 0 are 1 / lam
                lams = 1.0 / np.array([[a, self.partner(a, factor, phase, tol)]], dtype=complex)
                x, y = (1.0 / lams)[0]
                close = bool(_close(x, y, tol))
                verdicts.add((factor, close))
                if factor != 1.0:
                    assert close is (factor < 1.0)
                    assert close is bool(abs(x - y) <= tol * max(1.0, abs(x), abs(y)))
                assert bool(_close(y, x, tol)) is close
                p, q = ProjectivePoint.finite(x), ProjectivePoint.finite(y)
                assert projective_close(p, q, tol) is close
                assert projective_close(q, p, tol) is close
                vectors = np.eye(2, dtype=complex)[None]
                (points,) = _stack_points(lams, vectors, [0j], tol)
                assert len(points) == (1 if close else 2)
                decs = [SimpleNamespace(cluster_tol=tol)]
                for u, v in ((x, y), (y, x)):
                    alphas = (np.array([[u]]), np.array([[False]]))
                    (found,) = _point_indices(decs, alphas, (np.array([[v]]), alphas[1]))
                    assert found.tolist() == [0 if close else -1]
        # both sides of the radius were reached
        assert {(0.5, True), (2.0, False)} <= verdicts
