"""Independent brute-force oracles used to check the library's answers.

Everything here is assembled from the structure constants by explicit loops
and raw SVD calls, deliberately avoiding the library's pairing-matrix and
quotient machinery, so that agreement is evidence and not circularity.
"""

import numpy as np


def points_close(p, q, tol):
    """Whether the projective points p and q lie within ``tol`` of each
    other, relative above modulus 1: two infinite points do, and an infinite
    point lies close to no finite one."""
    if p.is_infinite or q.is_infinite:
        return p.is_infinite and q.is_infinite
    return abs(p.value - q.value) <= tol * max(1.0, abs(p.value), abs(q.value))


def pairing_entry(alg, f_coords, p, q):
    """F(e_p e_q) computed entrywise from the structure tensor."""
    total = 0.0 + 0.0j
    for k in range(alg.dim):
        total += alg.structure[p, q, k] * f_coords[k]
    return total


def pairing_matrix(alg, f_coords):
    """The pairing a[p, q] = F(e_p e_q), entry by entry."""
    n = alg.dim
    a = np.zeros((n, n), dtype=complex)
    for p in range(n):
        for q in range(n):
            a[p, q] = pairing_entry(alg, f_coords, p, q)
    return a


def slot_one_combination(alg, f_coords, lambda0, mu0):
    """The matrix of x -> lambda0 F(x e_q) + mu0 F(e_q x), row q by row q,
    and its pre-cancellation scale (|lambda0| + |mu0|) |a|_F."""
    a = pairing_matrix(alg, f_coords)
    scale = (abs(lambda0) + abs(mu0)) * max(float(np.linalg.norm(a)), 1e-300)
    return lambda0 * a.T + mu0 * a, scale


def slot_one_kernel(alg, f_coords, lambda0, mu0):
    """Orthonormal frame of {x : lambda0 F(x z) + mu0 F(z x) = 0 for all z}."""
    return raw_kernel(*slot_one_combination(alg, f_coords, lambda0, mu0))


def _raw_rank_of(s, tol, floor_scale):
    """How many of the descending singular values ``s`` reach ``tol`` times
    the largest of them (1 when all are 0), floored by ``floor_scale``."""
    top = float(s[0]) if s.size else 0.0
    return int(np.sum(s >= tol * max(top if top > 0.0 else 1.0, floor_scale)))


def raw_kernel(matrix, floor_scale, tol=1e-9):
    """Orthonormal kernel basis with an absolute singular-value floor."""
    u, s, vh = np.linalg.svd(matrix)
    return vh[_raw_rank_of(s, tol, floor_scale) :].conj().T


def raw_kernels(a, tol=1e-9):
    """Left kernel {x : x^T a = 0} and right kernel {x : a x = 0} of the
    square matrix ``a`` from one raw SVD a = U S V^H, at the rank its
    singular values give with no floor: the trailing columns of conj(U) and
    the trailing rows of V^H, conjugated."""
    u, s, vh = np.linalg.svd(a)
    r = _raw_rank_of(s, tol, 0.0)
    return u[:, r:].conj(), vh[r:].conj().T


def multiplicative_loop(alg, f_coords, tol=1e-9):
    """The rank-1 classification from the looped pairing matrix: (verdict,
    rank, F(1), residual), the rank from its raw singular values, and the
    residual, max |F(e_p e_q) - F(e_p) F(e_q)| pair by pair, only for a
    rank-1 F with F(1) = 1 (NaN otherwise)."""
    a = pairing_matrix(alg, f_coords)
    r = _raw_rank_of(np.linalg.svd(a, compute_uv=False), tol, 0.0)
    unit_value = complex(sum(u * c for u, c in zip(alg.unit, f_coords)))
    if r != 1:
        return "NotRankOne", r, unit_value, float("nan")
    if abs(unit_value - 1.0) >= tol:
        return "RankOneButNotUnit", r, unit_value, float("nan")
    residual = 0.0
    for p in range(alg.dim):
        for q in range(alg.dim):
            residual = max(residual, abs(a[p, q] - f_coords[p] * f_coords[q]))
    return "Multiplicative", r, unit_value, float(residual)


def raw_intersection(x, y, tol=1e-9):
    """Orthonormal frame of the intersection of the column spans of the
    orthonormal frames ``x`` and ``y``: the kernel of the stacked projector
    complements, at unit scale; no columns when either is zero."""
    n = x.shape[0]
    if x.shape[1] == 0 or y.shape[1] == 0:
        return np.zeros((n, 0), dtype=complex)
    eye = np.eye(n)
    return raw_kernel(np.vstack([eye - x @ x.conj().T, eye - y @ y.conj().T]), 1.0, tol)


def raw_slot_one_operator(a_tilde, alpha):
    """The matrix whose kernel is Stab(alpha) in the quotient coordinates of
    the reduced pairing ``a_tilde`` (``a_tilde`` itself at infinity, alpha
    None), with its pre-cancellation scale."""
    k = a_tilde.shape[0]
    scale = 1.0 if k == 0 else max(float(np.linalg.norm(a_tilde, "fro")), 1e-300)
    if alpha is None:
        return a_tilde, scale
    return a_tilde.T.copy() - alpha * a_tilde, (1.0 + abs(alpha)) * scale


def stab_fullspace(alg, f_coords, alpha):
    """Stabilizer at alpha straight from the defining linear conditions
    F(x e_q) - alpha F(e_q x) = 0 (or F(e_q x) = 0 at infinity), assembled
    row by row over the basis."""
    n = alg.dim
    rows = np.zeros((n, n), dtype=complex)
    for q in range(n):
        for p in range(n):
            if alpha is None:  # infinity
                rows[q, p] = pairing_entry(alg, f_coords, q, p)
            else:
                rows[q, p] = pairing_entry(alg, f_coords, p, q) - alpha * pairing_entry(
                    alg, f_coords, q, p
                )
    scale = float(np.abs(rows).max()) if rows.size else 1.0
    floor = max(scale, float(np.abs(f_coords).max()) * (1.0 + (abs(alpha) if alpha else 1.0)))
    return raw_kernel(rows, floor)


def filtration_dims_fullspace(alg, f_coords, alpha, alpha0, max_steps=None):
    """Dimensions of the filtration levels, solving the defining systems over
    the whole algebra: x is at level k+1 when the alpha-condition row vector
    of x lies in the column span of the alpha0-condition matrix applied to
    level k."""
    n = alg.dim
    a = pairing_matrix(alg, f_coords)
    if alpha is None:
        cond_alpha = a  # rows q: F(e_q x)
    else:
        cond_alpha = a.T - alpha * a  # rows q: F(x e_q) - alpha F(e_q x)
    cond_shift = a.T - alpha0 * a
    floor = max(float(np.abs(a).max()), 1e-300) * (1.0 + abs(alpha or 1.0) + abs(alpha0))

    w = raw_kernel(cond_alpha, floor)
    dims = [w.shape[1]]
    steps = max_steps if max_steps is not None else n
    for _ in range(steps):
        image = cond_shift @ w
        u, s, _ = np.linalg.svd(image, full_matrices=False) if image.size else (
            np.zeros((n, 0)),
            np.zeros(0),
            None,
        )
        cutoff = 1e-9 * max(float(s[0]) if s.size else 0.0, floor)
        basis = u[:, : int(np.sum(s >= cutoff))]
        off = cond_alpha - basis @ (basis.conj().T @ cond_alpha)
        w_next = raw_kernel(off, floor)
        if w_next.shape[1] <= dims[-1]:
            break
        dims.append(w_next.shape[1])
        w = w_next
    return dims


def jordan_dims_by_powers(m, lam, quotient_dim):
    """Generalized-eigenspace dimensions from the rank sequence of powers of
    the shifted operator."""
    shifted = m - lam * np.eye(m.shape[0])
    scale = max(float(np.linalg.norm(shifted, 2)), 1e-300)
    shifted = shifted / scale
    dims = []
    power = np.eye(m.shape[0], dtype=complex)
    for _ in range(quotient_dim):
        power = power @ shifted
        s = np.linalg.svd(power, compute_uv=False)
        cutoff = 1e-9 * max(float(s[0]) if s.size else 0.0, 1.0)
        dims.append(m.shape[0] - int(np.sum(s >= cutoff)))
        if len(dims) > 1 and dims[-1] == dims[-2]:
            return dims[:-1]
    return dims


def prescribed_pencil_algebra(beta):
    """Associative unital algebra C1 + V + Cz with u v = beta(u, v) z and z
    annihilating V + Cz; the coefficient-of-z functional then has the pairing

        [[0, 0, 1], [0, beta, 0], [1, 0, 0]]

    so any bilinear form can be planted as the core of the pencil.  Used to
    manufacture defective spectral points, which never arise generically.
    """
    import algscope

    beta = np.asarray(beta, dtype=complex)
    k = beta.shape[0]
    dim = k + 2
    c = np.zeros((dim, dim, dim), dtype=complex)
    c[0, :, :] = np.eye(dim)
    c[:, 0, :] = np.eye(dim)
    c[0, 0, :] = 0.0
    c[0, 0, 0] = 1.0
    for i in range(k):
        for j in range(k):
            c[1 + i, 1 + j, dim - 1] = beta[i, j]
    unit = np.zeros(dim, dtype=complex)
    unit[0] = 1.0
    alg = algscope.Algebra(dim, c, unit)
    coords = np.zeros(dim, dtype=complex)
    coords[dim - 1] = 1.0
    return alg, algscope.Functional(coords)


def zero_on(alg, start, stop, seed):
    """A random functional on ``alg`` with the coordinates start..stop - 1
    set to 0."""
    from algscope.functional import Functional, random_functional

    coords = random_functional(alg.dim, np.random.default_rng(seed)).coords.copy()
    coords[start:stop] = 0.0
    return Functional(coords)


def conjugated_diagonal_functional(n, seed):
    """F = tr(Q X) on Mat_n with Q = S diag(q) S^-1 exactly integer: q holds
    n distinct nonzero integers in -9..9, and S is unimodular, 3n row
    operations with multipliers in -2..2.  The pencil's spectrum is then
    exactly the ratios q_i / q_j, each with the number of pairs (i, j) that
    give it as its multiplicity.  Returns (q, F)."""
    import algscope

    rng = np.random.default_rng(seed)
    q = rng.choice([v for v in range(-9, 10) if v], size=n, replace=False).astype(float)
    s = np.eye(n)
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        s[i] += rng.integers(-2, 3) * s[j]
    s_inv = np.round(np.linalg.inv(s))
    if not np.array_equal(s @ s_inv, np.eye(n)):
        raise ValueError("the integer inverse is not exact")
    return q, algscope.matrix_trace_functional(s @ np.diag(q) @ s_inv)


#: planted pencil cores (see ``prescribed_pencil_algebra``), each with the
#: number of levels of its longest chain
PLANTED_JORDAN_BLOCKS = {
    # a 2 x 2 block at alpha = -1: a chain of levels (1, 2)
    "block2": (np.array([[1.0, 1.0], [-1.0, 0.0]]), 2),
    # alpha = 1 of multiplicity 5 with levels (3, 4, 5)
    "levels3": (np.array([[0.0, 0.0, 1.0], [0.0, -1.0, -1.0], [1.0, 1.0, 0.0]]), 3),
    # two 2 x 2 blocks at alpha = -1: levels (2, 4)
    "two-blocks": (np.kron(np.eye(2), np.array([[1.0, 1.0], [-1.0, 0.0]])), 2),
}


def validate_naive(alg, axiom_tol):
    """Associativity check over full N^4 tensors: (passed, max residual,
    first worst triple or None).  Unit axioms are not part of this oracle."""
    c = alg.structure
    diff = np.abs(np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c))
    worst = diff.max(axis=3)
    max_assoc = float(worst.max())
    witness = None
    if max_assoc >= axiom_tol:
        witness = tuple(int(x) for x in np.unravel_index(int(np.argmax(worst)), worst.shape))
    return max_assoc < axiom_tol, max_assoc, witness


def _raw_rank(m, tol=1e-9):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s >= tol * max(float(s[0]) if s.size else 0.0, 1.0)))


def v_split_pairwise_and_span(v_frames, nil_dim, ambient):
    """The splitting test by pairwise intersections and a joint span, on
    orthonormal full-algebra frames of the V(alpha): (every pairwise
    intersection is exactly nil, the V(alpha) span the algebra)."""
    eye = np.eye(ambient)
    pairwise = True
    for i in range(len(v_frames)):
        for j in range(i + 1, len(v_frames)):
            a, b = v_frames[i], v_frames[j]
            stacked = np.vstack([eye - a @ a.conj().T, eye - b @ b.conj().T])
            pairwise &= ambient - _raw_rank(stacked) == nil_dim
    span = _raw_rank(np.hstack(v_frames)) == ambient if v_frames else nil_dim == ambient
    return pairwise, span


def algebra_doc_by_loops(alg):
    """Sparse structure rows of an algebra file, visited by explicit loops in
    (i, j, k) order."""
    rows = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                z = alg.structure[i, j, k]
                if z != 0:
                    rows.append([i, j, k, z.real, z.imag])
    return rows


def stab_transversality_pairwise(dec, tol=1e-9):
    """The stabilizer transversality test pair by pair: (every pairwise
    intersection of the Stab(alpha) is exactly nil, worst excess dimension,
    number of pairs)."""
    from algscope.linalg import subspace_intersect

    stabs = [levels[0] for levels in dec.filtrations]
    worst = 0
    pairs = 0
    for i in range(len(stabs)):
        for j in range(i + 1, len(stabs)):
            inter = subspace_intersect(stabs[i], stabs[j], tol)
            worst = max(worst, inter.dim - dec.nil.dim)
            pairs += 1
    return worst == 0, worst, pairs


def dim_symmetry_scan(dec):
    """The dimension symmetry findings' (mismatch, witness) pairs, V then
    Stab, with each mirror found by a scan of every point
    (``dec.point_at``), O(P^2) per decomposition."""
    v_mismatch = stab_mismatch = 0
    v_witness = stab_witness = None
    for p in dec.points:
        at = dec.point_at(p.alpha.inverse())
        mirror = None if at is None else dec.points[at]
        if mirror is None:
            if p.algebraic_mult > v_mismatch:
                v_mismatch, v_witness = p.algebraic_mult, (p.alpha, "no mirror point")
            continue
        dv = abs(p.algebraic_mult - mirror.algebraic_mult) + abs(
            p.filtration_dims[-1] - mirror.filtration_dims[-1]
        )
        if dv > v_mismatch:
            v_mismatch, v_witness = dv, (p.alpha, mirror.alpha)
        ds = abs(p.stab_dim - mirror.stab_dim)
        if ds > stab_mismatch:
            stab_mismatch, stab_witness = ds, (p.alpha, mirror.alpha)
    return (float(v_mismatch), v_witness), (float(stab_mismatch), stab_witness)


def product_inclusions_pairwise(alg, dec, variant):
    """The product inclusions V^k(a) V^m(b) <= V^{k+m}(a b) checked block by
    block: one product tensor and one residual per (a, b, k, m), visited in
    that order over the points of ``variant``, either the finite points of
    ``dec`` or its nonzero points, infinity included.  Infinity times a
    point is infinity.  Returns (worst residual, first (a, b, k, m) reaching
    it or None, number of products)."""
    from algscope.linalg import INFINITY, ProjectivePoint

    worst = 0.0
    witness = None
    samples = 0
    if variant == "finite":
        points = [i for i, p in enumerate(dec.points) if not p.alpha.is_infinite]
    else:
        points = [
            i for i, p in enumerate(dec.points) if p.alpha.is_infinite or p.alpha.value != 0
        ]
    for i in points:
        for j in points:
            p, q = dec.points[i], dec.points[j]
            if p.alpha.is_infinite or q.alpha.is_infinite:
                target_point = dec.point_at(INFINITY)
            else:
                target_point = dec.point_at(ProjectivePoint.finite(p.alpha.value * q.alpha.value))
            filt_p = dec.filtrations[i]
            filt_q = dec.filtrations[j]
            for k in range(len(filt_p)):
                for m in range(len(filt_q)):
                    if target_point is None:
                        target = dec.nil
                    else:
                        levels = dec.filtrations[target_point]
                        target = levels[min(k + m, len(levels) - 1)]
                    prods = np.einsum(
                        "ia,jb,ijk->abk", filt_p[k].frame, filt_q[m].frame, alg.structure
                    )
                    res = target.residual(prods.reshape(-1, alg.dim).T)
                    samples += res.size
                    local = float(res.max()) if res.size else 0.0
                    if local > worst:
                        worst = local
                        witness = (p.alpha, q.alpha, k, m)
    return worst, witness, samples


def perturbation_samples_loop(f_start, s_basis, samples=32, seed=0):
    """The coordinates of ``f_start`` and of each sample of the
    kernel-dimension minimizer, drawn one direction at a time: per sample,
    a radius then a phase for each member of ``s_basis`` in order, added to
    the start one scaled vector at a time.  Returns a list of arrays."""
    rng = np.random.default_rng(seed)
    candidates = [f_start.coords]
    for _ in range(samples):
        coords = f_start.coords.copy()
        for g in s_basis:
            radius = rng.uniform(0.0, 0.1)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            coords = coords + radius * np.exp(1j * phase) * g.coords
        candidates.append(coords)
    return candidates


def minimize_stab_dim_loop(alg, lambda0, mu0, s_basis, f_start, samples=32, seed=0, tol=1e-9):
    """The kernel-dimension minimizer over the samples of
    :func:`perturbation_samples_loop`, each candidate's rank taken by its
    own SVD.  Returns (first sample reaching the minimal dimension, that
    dimension)."""
    from algscope import Functional
    from algscope.linalg import rank

    def kernel_dim(f):
        m, scale = slot_one_combination(alg, f.coords, lambda0, mu0)
        return alg.dim - rank(m, tol, scale=scale)

    best_f = f_start
    best_dim = kernel_dim(f_start)
    for coords in perturbation_samples_loop(f_start, s_basis, samples, seed)[1:]:
        candidate = Functional(coords)
        d = kernel_dim(candidate)
        if d < best_dim:
            best_dim = d
            best_f = candidate
    return best_f, best_dim


def filtration_reduced_loop(rp, alpha, alpha0, tol, stab_frame=None):
    """The quotient-coordinate filtration of one point, from raw SVDs of the
    pencil's matrices: Stab(alpha) (at infinity and 0 from the kernels,
    :func:`kernel_level0`), then per level the image's orthonormal columns
    and the next level's kernel, until a level does not grow.  Returns the
    list of level frames."""
    s_mat, s_scale = raw_slot_one_operator(rp.a_tilde, None if alpha.is_infinite else alpha.value)
    t_mat, t_scale = raw_slot_one_operator(rp.a_tilde, alpha0)
    if stab_frame is None and (alpha.is_infinite or alpha.value == 0):
        stab_frame = kernel_level0(rp, alpha)
    elif stab_frame is None:
        stab_frame = raw_kernel(s_mat, s_scale, tol)
    levels = [stab_frame]
    for _ in range(rp.K):
        u, s, _ = np.linalg.svd(t_mat @ levels[-1], full_matrices=False)
        image = u[:, : _raw_rank_of(s, tol, t_scale)]
        off_image = s_mat - image @ (image.conj().T @ s_mat)
        nxt = raw_kernel(off_image, s_scale, tol)
        if nxt.shape[1] <= levels[-1].shape[1]:
            break
        levels.append(nxt)
    return levels


def alpha0_independence_loop(
    rp, alpha, alpha0_a, alpha0_b, tol, compare_tol, stab_frame=None, climb=True
):
    """Shift independence at one point: (independent, max residual).  Level
    0, ``stab_frame`` or the kernel of the slot-one operator, must lie in
    Stab(alpha), each column's |S w| / scale taken on its own below ``tol``.
    With ``climb``, two looped filtrations from that level, one per shift,
    must then agree above level 0, one projector distance per level below
    ``compare_tol``, stopping at the first level that differs."""
    s_mat, s_scale = raw_slot_one_operator(rp.a_tilde, None if alpha.is_infinite else alpha.value)
    if stab_frame is None:
        stab_frame = raw_kernel(s_mat, s_scale, tol)
    worst = 0.0
    for j in range(stab_frame.shape[1]):
        worst = max(worst, float(np.linalg.norm(s_mat @ stab_frame[:, j])) / s_scale)
    equal = worst < tol
    if not climb:
        return equal, worst
    lev_a = filtration_reduced_loop(rp, alpha, alpha0_a, tol, stab_frame)
    lev_b = filtration_reduced_loop(rp, alpha, alpha0_b, tol, stab_frame)
    if [w.shape[1] for w in lev_a] != [w.shape[1] for w in lev_b]:
        return False, float("inf")
    for wa, wb in zip(lev_a[1:], lev_b[1:]):
        dist = float(np.linalg.norm(wa @ wa.conj().T - wb @ wb.conj().T, 2))
        worst = max(worst, dist)
        if not dist < compare_tol:
            return False, worst
    return equal, worst


def det_poly_exact(a, b):
    """Coefficients of det(lam a + mu b) for integer matrices ``a`` and
    ``b``, exactly: Bareiss determinants of a + t b at the integer nodes
    t = 0..K, interpolated over the rationals with sympy.  Returns K + 1
    sympy Rationals, entry d the coefficient of lam^(K-d) mu^d."""
    import sympy

    if not (np.array_equal(a, np.round(a.real)) and np.array_equal(b, np.round(b.real))):
        raise ValueError("the exact oracle takes integer matrices")
    k = a.shape[0]
    ma = sympy.Matrix(np.round(a.real).astype(int).tolist())
    mb = sympy.Matrix(np.round(b.real).astype(int).tolist())
    t = sympy.Symbol("t")
    nodes = [(node, (ma + node * mb).det(method="bareiss")) for node in range(k + 1)]
    ascending = sympy.Poly(sympy.interpolate(nodes, t), t).all_coeffs()[::-1]
    return [sympy.Rational(c) for c in ascending] + [sympy.Rational(0)] * (k + 1 - len(ascending))


def regular_perturbation_loop(alg, f_min, lambda0, mu0, s_basis, frames=None):
    """The regular perturbation identity pair by pair: for every column x of
    the kernel of ``lambda0 a + mu0 a^T``, every column y of the swapped
    kernel and every direction G, in that order, one product at a time.
    The kernels are :func:`slot_one_kernel`'s, or the pair of frames
    ``frames`` spanning them, since the residual and the witness depend on
    the frames.  Returns (worst |G(lambda0 x y + mu0 y x)| / (1 + |G|),
    first (i, j, g) reaching it or None, number of samples)."""
    from algscope import multiply

    if frames is None:
        frames = (
            slot_one_kernel(alg, f_min.coords, lambda0, mu0),
            slot_one_kernel(alg, f_min.coords, mu0, lambda0),
        )
    xs, ys = frames
    worst = 0.0
    witness = None
    samples = 0
    for i in range(xs.shape[1]):
        for j in range(ys.shape[1]):
            x = xs[:, i]
            y = ys[:, j]
            w = lambda0 * multiply(alg, x, y).coords + mu0 * multiply(alg, y, x).coords
            for gi, g in enumerate(s_basis):
                r = abs(complex(w @ g.coords)) / (1.0 + float(np.linalg.norm(g.coords)))
                samples += 1
                if r > worst:
                    worst = r
                    witness = (i, j, gi)
    return worst, witness, samples


def corollaries_loop(alg, f_min, alpha, rank_tol=1e-9):
    """The corollary identities pair by pair, one product at a time: at
    alpha = 0 the products of the left with the right kernel; at other
    finite alpha x y - alpha y x for x in Stab(alpha) and y in
    Stab(1/alpha).  The frames come from raw SVDs of the looped pairing
    matrix: both kernels from one SVD, and at alpha != 0 nil as their
    intersection and each stabilizer as a kernel of the pairing compressed
    to the orthogonal complement of nil, lifted back with all of nil.
    Returns (worst norm, first witness reaching it or None, number of
    samples)."""
    from algscope import multiply

    a = pairing_matrix(alg, f_min.coords)
    left, right = raw_kernels(a, rank_tol)
    if alpha.value == 0:
        pairs = [("stab0*stabinf", left, right, 0.0)]
    else:
        nil = raw_intersection(left, right, rank_tol)
        if nil.shape[1] == 0:
            q = np.eye(alg.dim, dtype=complex)
        else:
            q = raw_kernel(nil.conj().T, 1.0, rank_tol)
        a_tilde = q.T @ a @ q

        def stab(value):
            m, scale = raw_slot_one_operator(a_tilde, value)
            return np.hstack([q @ raw_kernel(m, scale, rank_tol), nil])

        pairs = [(None, stab(alpha.value), stab(1.0 / alpha.value), alpha.value)]
    worst = 0.0
    witness = None
    samples = 0
    for label, xs, ys, value in pairs:
        for i in range(xs.shape[1]):
            for j in range(ys.shape[1]):
                x = xs[:, i]
                y = ys[:, j]
                d = multiply(alg, x, y).coords - value * multiply(alg, y, x).coords
                r = float(np.linalg.norm(d))
                samples += 1
                if r > worst:
                    worst = r
                    witness = (i, j) if label is None else (label, i, j)
    return worst, witness, samples


def cluster_values_loop(values, cluster_tol):
    """Single-linkage clusters of complex values from a test of every pair
    (i < j) in turn, closeness relative for large moduli, with every two
    values of modulus at most ``cluster_tol`` linked: the member indices of
    each cluster, the clusters in the order of their first members."""
    n = len(values)
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            u, v = values[i], values[j]
            small = max(abs(u), abs(v)) <= cluster_tol
            if small or abs(u - v) <= cluster_tol * max(1.0, abs(u), abs(v)):
                old, new = label[i], label[j]
                label = [new if x == old else x for x in label]
    groups = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(i)
    return list(groups.values())


def decomposition_checks_loop(rp, points, v_frames, tol, seed=0):
    """The invariant checks of one decomposition, as the library ran them
    per pencil before it ran them over a stack: the simple points' columns
    in one product with the pencil, one rank of the stacked V(alpha)
    frames, and one ``slogdet`` per node of the log-determinant test with
    ``seed``.  Returns the checks in the library's order, as
    ``InvariantCheck`` records."""
    from algscope.spectral import LOG_DET_NODES, InvariantCheck

    k = rp.K
    checks = []
    total = sum(p.algebraic_mult for p in points)
    checks.append(
        InvariantCheck(
            "multiplicities_sum_to_quotient_dim",
            total == k,
            float(abs(total - k)),
            f"sum {total} vs K {k}",
        )
    )
    worst = 0
    for p, frame in zip(points, v_frames):
        worst = max(worst, abs(frame.shape[1] - p.algebraic_mult))
    checks.append(
        InvariantCheck(
            "v_dim_equals_nil_plus_multiplicity",
            worst == 0,
            float(worst),
            "dim V(alpha) - dim nil vs algebraic multiplicity",
        )
    )
    # every simple column, its point's value and whether that is infinity
    simple = [(p.alpha, w) for p, w in zip(points, v_frames) if p.algebraic_mult == 1]
    widths = [w.shape[1] for _, w in simple]
    infinite = np.repeat([alpha.is_infinite for alpha, _ in simple], widths).astype(bool)
    values = np.repeat([0j if a.is_infinite else a.value for a, _ in simple], widths)
    stacked = np.hstack([w for _, w in simple] + [np.zeros((k, 0))])
    a_frames = rp.a_tilde @ stacked
    images = np.where(infinite, a_frames, rp.at_tilde @ stacked - values * a_frames)
    scales = np.where(infinite, 1.0, 1.0 + np.abs(values)) * rp.pencil_scale()
    res = np.linalg.norm(images, axis=0) / scales
    off = float(res.max()) if res.size else 0.0
    checks.append(
        InvariantCheck(
            "simple_frames_in_stabilizer",
            off < tol,
            off,
            "max |(a~^T - alpha a~) v| / ((1 + |alpha|) scale) over simple points, "
            "|a~ v| / scale at infinity",
        )
    )
    stacked = np.hstack(v_frames) if v_frames else np.zeros((k, 0), dtype=complex)
    cols = stacked.shape[1]
    r = _raw_rank(stacked, tol) if cols else 0
    checks.append(
        InvariantCheck(
            "v_spaces_direct_sum",
            r == cols == k,
            float(max(cols - r, k - r)),
            f"rank {r} of {cols} stacked V(alpha) columns vs K {k}",
        )
    )
    # the log-determinant test, one node at a time: log|t| uniform over
    # the nonzero finite points' log moduli widened by 1, a random phase
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    u = rng.uniform(size=LOG_DET_NODES)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=LOG_DET_NODES)
    finite = [p for p in points if not p.alpha.is_infinite]
    moduli = [abs(p.alpha.value) for p in finite if p.alpha.value != 0]
    lo, hi = (np.log(min(moduli)) - 1.0, np.log(max(moduli)) + 1.0) if moduli else (-1.0, 1.0)
    alphas = np.array([p.alpha.value for p in finite], dtype=complex)
    mults = np.array([p.algebraic_mult for p in finite], dtype=float)
    r = []
    for t in np.exp(lo + u * (hi - lo) + 1j * phase):
        _, log_det = np.linalg.slogdet(rp.a_tilde - t * rp.at_tilde)
        r.append(log_det - np.sum(mults * np.log(np.abs(t - alphas))))
    drift = float(max(r) - min(r))
    checks.append(
        InvariantCheck(
            "log_det_matches_spectrum",
            drift <= k * tol**0.5,
            drift,
            f"max - min over {LOG_DET_NODES} nodes t of log|det(a~ - t a~^T)| "
            "- sum m log|t - alpha|, vs K sqrt(tol)",
        )
    )
    return checks


def shifted_eigenvalues(rp, alpha0):
    """The eigenvalues L of S^-1 a~ of one pencil, S = a~^T - alpha0 a~,
    its entries below eps ||S^-1 a~||_F set to 0."""
    m = np.linalg.solve(rp.at_tilde - alpha0 * rp.a_tilde, rp.a_tilde)
    # the entries at roundoff level, below eps ||M||_F, dropped first
    m[np.abs(m) < np.finfo(float).eps * np.linalg.norm(m)] = 0.0
    return np.linalg.eig(m)[0]


def eigen_char_poly(rp, alpha0):
    """chi = det(lam a~ + mu a~^T) of one pencil from the eigenvalues L of
    :func:`shifted_eigenvalues`, one interpolation node at a time:
    chi(1, w) = det(S) prod_i (w + (1 + alpha0 w) L_i) at the K + 1
    unit-circle nodes, then their inverse DFT."""
    from algscope.linalg import HomogeneousPoly

    k = rp.K
    lams = shifted_eigenvalues(rp, alpha0)
    det_s = np.linalg.det(rp.at_tilde - alpha0 * rp.a_tilde)
    nodes = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
    # the complex products as array operations: a product of two scalars
    # can round differently from numpy's array loop
    weights = 1.0 + alpha0 * nodes
    values = det_s * np.array([np.prod(w + c * lams) for w, c in zip(nodes, weights)])
    return HomogeneousPoly(k, np.fft.fft(values) / (k + 1))


def kernel_level0(rp, alpha):
    """The quotient frame of Stab(alpha) at alpha = infinity or 0, from the
    right or the left kernel that ``rp`` holds: the kernel's frame at
    nil = 0, where Q = I, and otherwise the leading dim kernel - dim nil
    left singular vectors of Q^H kernel."""
    kernel = rp.kernels.right if alpha.is_infinite else rp.kernels.left
    if rp.nil.dim == 0:
        return kernel.frame
    u, _, _ = np.linalg.svd(rp.quotient_frame.conj().T @ kernel.frame, full_matrices=False)
    return u[:, : kernel.dim - rp.nil.dim]


def decompose_loop(alg, f, seed=0, tol=1e-9, cluster_tol=1e-6):
    """One functional's decomposition from the public single-pencil steps,
    in the order of the pipeline: ``reduce_pencil``, ``choose_alpha0``,
    the shifted pencil's eigenvalues (:func:`shifted_eigenvalues`),
    ``spectrum`` (with its singular-shift test), one chain per multiple
    point up to its multiplicity from its level 0 (:func:`kernel_level0` at
    infinity and 0, its own nullspace elsewhere), and the
    library's invariant checks of the one pencil, points and frames, which
    the returned decomposition's lazily computed ``checks`` must equal bit
    for bit; at K = 0 they must equal :func:`decomposition_checks_loop`'s
    five, all passing.  The decomposition keeps those eigenvalues, and the
    chi it forms from them on first read must equal :func:`eigen_char_poly`
    bit for bit (1 at K = 0)."""
    from algscope.linalg import nullspace
    from algscope.functional import reduce_pencil
    from algscope.spectral import (
        Decomposition,
        SpectrumPoint,
        _decomposition_checks,
        _filtration_reduced,
        _slot_one_operator,
        choose_alpha0,
        spectrum,
    )

    rp = reduce_pencil(alg, f, tol)
    if rp.K == 0:
        # the five checks of an empty spectrum against an empty quotient
        checks = decomposition_checks_loop(rp, [], [], tol, seed)
        assert all(c.passed and c.residual == 0.0 for c in checks)
        dec = Decomposition(rp, np.empty(0, dtype=complex), (), (), None, cluster_tol, seed)
        assert repr(dec.checks) == repr(tuple(checks))
        assert dec.chi.degree == 0 and dec.chi.coeffs.tobytes() == np.array([1.0 + 0.0j]).tobytes()
        return dec
    alpha0 = choose_alpha0(rp, seed)
    points, levels = [], []
    for alpha, mult, vector in spectrum(rp, alpha0, cluster_tol):
        if vector is None and (alpha.is_infinite or alpha.value == 0):
            stab_frame = kernel_level0(rp, alpha)
            frames = _filtration_reduced(rp, alpha, alpha0, stab_frame, mult)
        elif vector is None:
            m, scale = _slot_one_operator(rp, alpha)
            stab_frame = nullspace(m, tol, scale=scale).frame
            frames = _filtration_reduced(rp, alpha, alpha0, stab_frame, mult)
        else:
            frames = [vector]
        dims = tuple(w.shape[1] + rp.nil.dim for w in frames)
        points.append(SpectrumPoint(alpha, mult, frames[0].shape[1], dims))
        levels.append(tuple(frames))
    v_frames = [chain[-1] for chain in levels]
    checks = _decomposition_checks(rp, points, v_frames, seed)
    lams = shifted_eigenvalues(rp, alpha0)
    dec = Decomposition(rp, lams, tuple(points), tuple(levels), alpha0, cluster_tol, seed)
    assert repr(dec.checks) == repr(tuple(checks))
    chi = eigen_char_poly(rp, alpha0)
    assert dec.chi.degree == chi.degree and dec.chi.coeffs.tobytes() == chi.coeffs.tobytes()
    return dec


def with_chain(dec, i, chain):
    """``dec`` with the chain of its point ``i`` replaced by ``chain``."""
    import dataclasses

    chains = list(dec.quotient_filtrations)
    chains[i] = tuple(chain)
    return dataclasses.replace(dec, quotient_filtrations=tuple(chains))


def split_point(monkeypatch, value):
    """Doctor the spectrum of every later ``decompose``: the multiple point
    at ``value`` becomes two, at its value and 1e-12 above it, with half its
    multiplicity each.  The multiplicities still sum to K."""
    import algscope.spectral as spectral
    from algscope.linalg import ProjectivePoint

    original = spectral._shifted_eigens

    def split(raw):
        points = []
        for alpha, mult, vector in raw:
            if vector is None and not alpha.is_infinite and abs(alpha.value - value) < 1e-6:
                copy = ProjectivePoint.finite(alpha.value + 1e-12)
                points += [(alpha, mult // 2, None), (copy, mult - mult // 2, None)]
            else:
                points.append((alpha, mult, vector))
        return points

    def doctored(*args):
        lams, spectra = original(*args)
        return lams, [split(r) for r in spectra]

    # the points of a batch's eigenvalues, which decompose takes with a
    # batch of one; chi still reads the eigenvalues themselves
    monkeypatch.setattr(spectral, "_shifted_eigens", doctored)


# --------------------------------------------------------------------------
# per-functional suite bodies: the suites as they ran one decomposition at a
# time, before they ran over a batch, kept as loop references for the
# stacked suites of ``algscope.verify``


def kernel_relations_loop(alg, ker, tol=1e-8):
    """The kernel product relations of one set of kernels: per relation one
    ``pairwise_products`` call, the whole algebra as the identity frame."""
    from algscope.algebra import pairwise_products
    from algscope.linalg import Subspace
    from algscope.verify import KERNEL_RELATIONS, Finding, _first_worst

    full = Subspace.full(alg.dim, ker.nil.tol)
    relations = [
        ("left*algebra<=left", ker.left, full, ker.left),
        ("algebra*right<=right", full, ker.right, ker.right),
        ("left*right<=nil", ker.left, ker.right, ker.nil),
    ]
    worst = 0.0
    witness = None
    samples = 0
    for name, xs, ys, target in relations:
        if xs.dim == 0 or ys.dim == 0:
            continue
        prods = pairwise_products(alg, xs.frame, ys.frame)
        res = target.residual(prods.reshape(-1, alg.dim).T).reshape(xs.dim, ys.dim)
        samples += res.size
        local, at = _first_worst(res, tol)
        if local > worst:
            worst, witness = local, at and (name,) + at
    return Finding(KERNEL_RELATIONS, worst < tol, worst, witness, samples)


def alpha0_suite_loop(dec, seed=0, tol=1e-8):
    """The alpha0 suite on one decomposition: its level-0 residuals from a
    stack of one, then, for each point below its multiplicity, one chain
    climbed under the shift drawn with seed ``seed + 1`` (``seed + 2`` when
    that is the decomposition's own shift), compared level by level above
    0 with the chain the decomposition reports."""
    from algscope.spectral import _filtration_reduced, _stab_residuals, choose_alpha0
    from algscope.verify import ALPHA0_INDEPENDENCE, Finding

    def new_shift():
        shift = choose_alpha0(dec.pencil, seed=seed + 1)
        if shift == dec.alpha0_used:
            shift = choose_alpha0(dec.pencil, seed=seed + 2)
        return shift

    if not dec.points:
        return Finding(ALPHA0_INDEPENDENCE, True, 0.0, None, 0, ("empty spectrum",))
    shift = None
    alphas = [p.alpha for p in dec.points]
    frames = [levels[0] for levels in dec.quotient_filtrations]
    results = []
    (residuals,) = _stab_residuals([dec.pencil], [alphas], [frames])
    for p, reported, residual in zip(dec.points, dec.quotient_filtrations, residuals):
        w = reported[0]
        worst = residual
        passed = residual < dec.tol
        if w.shape[1] < p.algebraic_mult:
            if shift is None:
                shift = new_shift()
            climbed = _filtration_reduced(dec.pencil, p.alpha, shift, w, p.algebraic_mult)
            if [v.shape[1] for v in reported] != [v.shape[1] for v in climbed]:
                passed, worst = False, float("inf")
            else:
                for wa, wb in zip(reported[1:], climbed[1:]):
                    dist = float(np.linalg.norm(wa @ wa.conj().T - wb @ wb.conj().T, 2))
                    passed &= dist < tol
                    worst = max(worst, dist)
        results.append((passed, worst))
    worst = max(residual for _, residual in results)
    failing = [i for i, (passed, _) in enumerate(results) if not passed]
    witness = None
    if failing:
        at = max(failing, key=lambda i: results[i][1])
        witness = (alphas[at], dec.alpha0_used, new_shift() if shift is None else shift)
    return Finding(ALPHA0_INDEPENDENCE, not failing, worst, witness, len(results))


def target_indices_loop(dec, values):
    """Index into ``dec.points`` of the point each finite value falls at, or
    -1, for one decomposition: ``dec.point_at`` applied elementwise."""
    finite = np.array([not p.alpha.is_infinite for p in dec.points], dtype=bool)
    alphas = np.array([0j if p.alpha.is_infinite else p.alpha.value for p in dec.points])
    v = values[..., None]
    scale = np.maximum(np.maximum(1.0, np.abs(v)), np.abs(alphas))
    close = (np.abs(v - alphas) <= dec.cluster_tol * scale) & finite
    return np.where(close.any(axis=-1), close.argmax(axis=-1), -1)


def product_inclusions_loop(alg, dec, tol):
    """Both v-mult variants of one decomposition, (worst, witness, samples)
    each: its lifted levels stacked into one matrix, one product tensor,
    and the projection onto each product's target level in chunks of whole
    levels of at most N columns."""
    from algscope.algebra import pairwise_products
    from algscope.spectral import _lift_frame
    from algscope.verify import _chunks

    if not dec.points:
        return (0.0, None, 0), (0.0, None, 0)
    rp = dec.pencil
    all_levels = [w for chain in dec.quotient_filtrations for w in chain]
    n_levels = np.array([len(chain) for chain in dec.quotient_filtrations])
    widths = [w.shape[1] + rp.nil.dim for w in all_levels]
    point_of = np.repeat(np.repeat(np.arange(len(dec.points)), n_levels), widths)
    level_of = np.repeat(np.concatenate([np.arange(n) for n in n_levels]), widths)
    stacked = np.hstack([_lift_frame(rp, w) for w in all_levels])
    prods = pairwise_products(alg, stacked, stacked).reshape(-1, alg.dim)

    infinite = np.array([p.alpha.is_infinite for p in dec.points], dtype=bool)
    values = np.array([0j if p.alpha.is_infinite else p.alpha.value for p in dec.points])
    finite_col = ~infinite[point_of]
    nonzero_col = (infinite | (values != 0))[point_of]
    at = target_indices_loop(dec, np.multiply.outer(values, values))
    at[infinite[:, None] | infinite[None, :]] = np.argmax(infinite)
    target_point = at[point_of[:, None], point_of[None, :]]
    first_level = np.cumsum(n_levels) - n_levels
    level = np.minimum(level_of[:, None] + level_of[None, :], n_levels[target_point] - 1)
    target = np.where(target_point >= 0, first_level[target_point] + level, -1).ravel()

    in_variant = [np.outer(cols, cols).ravel() for cols in (finite_col, nonzero_col)]
    coords = prods @ rp.quotient_frame.conj()
    projected = np.zeros_like(coords)
    for chunk in _chunks([w.shape[1] for w in all_levels], alg.dim):
        cols = np.hstack([all_levels[t] for t in chunk])
        level_of_col = np.repeat(chunk, [all_levels[t].shape[1] for t in chunk])
        onto = coords @ cols.conj()
        onto[target[:, None] != level_of_col] = 0.0
        projected += onto @ cols.T
    off = np.linalg.norm(coords - projected, axis=1)
    res = off / np.maximum(1.0, np.linalg.norm(prods, axis=1))

    def worst_of(members):
        samples = int(members.sum())
        worst = float(res[members].max()) if samples else 0.0
        if worst < tol:
            return worst, None, samples
        rows, cols = np.divmod(np.flatnonzero(members & (res == worst)), len(point_of))
        r, c = min(
            zip(rows, cols),
            key=lambda rc: (point_of[rc[0]], point_of[rc[1]], level_of[rc[0]], level_of[rc[1]]),
        )
        a, b = dec.points[point_of[r]].alpha, dec.points[point_of[c]].alpha
        return worst, (a, b, int(level_of[r]), int(level_of[c])), samples

    return worst_of(in_variant[0]), worst_of(in_variant[1])


def v_mult_loop(alg, dec, tol=1e-7):
    """Both v-mult findings of one decomposition, from
    :func:`product_inclusions_loop`."""
    from algscope.verify import V_MULT_FINITE, V_MULT_NONZERO, Finding

    finite, nonzero = product_inclusions_loop(alg, dec, tol)
    notes = ()
    has_zero = any((not p.alpha.is_infinite) and p.alpha.value == 0 for p in dec.points)
    has_inf = any(p.alpha.is_infinite for p in dec.points)
    if has_zero and has_inf:
        notes = ("mixed pair (0, infinity) not covered by either variant; skipped",)
    return [
        Finding(V_MULT_FINITE, finite[0] < tol, *finite, notes),
        Finding(V_MULT_NONZERO, nonzero[0] < tol, *nonzero, notes),
    ]


def dim_symmetry_loop(dec):
    """Both dimension-symmetry findings of one decomposition, its mirrors
    looked up at once by :func:`target_indices_loop`."""
    from algscope.verify import DIM_SYMMETRY_STAB, DIM_SYMMETRY_V, Finding

    inverses = [p.alpha.inverse() for p in dec.points]
    found = target_indices_loop(
        dec, np.array([0j if q.is_infinite else q.value for q in inverses])
    )
    at_infinity = next((i for i, p in enumerate(dec.points) if p.alpha.is_infinite), -1)
    mirrors = [at_infinity if q.is_infinite else int(i) for q, i in zip(inverses, found)]
    v_mismatch = 0
    stab_mismatch = 0
    v_witness = None
    stab_witness = None
    for p, m in zip(dec.points, mirrors):
        mirror = dec.points[m] if m >= 0 else None
        if mirror is None:
            if p.algebraic_mult > v_mismatch:
                v_mismatch = p.algebraic_mult
                v_witness = (p.alpha, "no mirror point")
            continue
        dv = abs(p.algebraic_mult - mirror.algebraic_mult) + abs(
            p.filtration_dims[-1] - mirror.filtration_dims[-1]
        )
        if dv > v_mismatch:
            v_mismatch = dv
            v_witness = (p.alpha, mirror.alpha)
        ds = abs(p.stab_dim - mirror.stab_dim)
        if ds > stab_mismatch:
            stab_mismatch = ds
            stab_witness = (p.alpha, mirror.alpha)
    n = len(dec.points)
    return [
        Finding(DIM_SYMMETRY_V, v_mismatch == 0, float(v_mismatch), v_witness, n),
        Finding(DIM_SYMMETRY_STAB, stab_mismatch == 0, float(stab_mismatch), stab_witness, n),
    ]


def run_suites_loop(alg, suites, n_functionals=10, seed=0, rank_tol=1e-9, cluster_tol=1e-6):
    """``run_suites`` as a loop over the functionals: the batch's
    decompositions from one ``decompose_all``, each functional's kernels
    from its own ``kernels`` call when no suite decomposes, and the
    per-decomposition suite bodies above, one functional at a time.  The
    regular-functional suites read the pencil of the first functional's
    sampled minimizer, each reduced on its own."""
    from algscope.functional import Functional, kernels, random_functional, reduce_pencil
    from algscope.linalg import ProjectivePoint
    from algscope.spectral import decompose_all
    from algscope.verify import minimize_stab_dim, verify_corollaries

    rng = np.random.default_rng(seed)
    fs = [random_functional(alg.dim, rng) for _ in range(n_functionals)]
    analysed = {"alpha0", "v-mult", "dim-symmetry"}.intersection(suites)
    if analysed:
        decs = decompose_all(alg, fs, seed=seed, tol=rank_tol, cluster_tol=cluster_tol)
    findings = []
    for index, f in enumerate(fs):
        if analysed:
            dec = decs[index]
        if "kernel-relations" in suites:
            ker = dec.pencil.kernels if analysed else kernels(alg, f, rank_tol)
            findings.append(kernel_relations_loop(alg, ker))
        if "alpha0" in suites:
            findings.append(alpha0_suite_loop(dec, seed=seed + index))
        if "v-mult" in suites:
            findings.extend(v_mult_loop(alg, dec))
        if "dim-symmetry" in suites:
            findings.extend(dim_symmetry_loop(dec))
    full_dual = [Functional(row) for row in np.eye(alg.dim, dtype=complex)]
    f_start = fs[0] if fs else random_functional(alg.dim, rng)
    if "corollary2" in suites:
        f_min, _ = minimize_stab_dim(alg, 1.0, -1.0, full_dual, f_start, seed=seed, tol=rank_tol)
        rp = reduce_pencil(alg, f_min, rank_tol)
        findings.append(verify_corollaries(alg, rp, ProjectivePoint.finite(1.0)))
    if "corollary3" in suites:
        f_min0, _ = minimize_stab_dim(alg, 1.0, 0.0, full_dual, f_start, seed=seed, tol=rank_tol)
        rp0 = reduce_pencil(alg, f_min0, rank_tol)
        findings.append(verify_corollaries(alg, rp0, ProjectivePoint.finite(0.0)))
    findings.sort(key=lambda fi: fi.theorem_id)
    return findings
