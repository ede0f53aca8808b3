"""Deterministic inner solvers: lattices, exact and multistart ball
minimization, hull geometry.

Everything here is seedless.  Start points and probe directions come from
fixed lattices so repeated runs produce identical bytes.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
import warnings

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import SolverBudgetExceeded


# SLSQP iteration budget and tolerance of every epigraph solve (Nelder-Mead
# gets 40 times the budget) and multistart lattice points per axis.
MAX_ITERS = 500
FTOL = 1e-14
STARTS_PER_AXIS = 3


def cube_lattice(dim, radius, per_axis):
    """Regular lattice on [-radius, radius]^dim, row-major order."""
    if dim == 0:
        return np.zeros((1, 0))
    axis = np.linspace(-radius, radius, per_axis) if per_axis > 1 else np.array([0.0])
    pts = np.array(list(product(axis, repeat=dim)))
    return pts


def ball_lattice(dim, radius, per_axis):
    """Cube lattice filtered to the closed ball, always containing the origin."""
    pts = cube_lattice(dim, radius, per_axis)
    keep = np.linalg.norm(pts, axis=1) <= radius + 1e-15
    pts = pts[keep]
    if not any(np.linalg.norm(p) < 1e-15 for p in pts):
        pts = np.vstack([np.zeros(dim), pts])
    return pts


def sphere_directions(dim, count):
    """Deterministic unit directions: signs in 1-D, uniform angles in 2-D,
    a normalized offset lattice in higher dimensions."""
    if dim == 0:
        return np.zeros((0, 0))
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    pts = cube_lattice(dim, 1.0, 3)
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-12]
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    return np.unique(np.round(pts, 12), axis=0)


@lru_cache(maxsize=None)
def _offset_lattice(dim):
    """Origin, axis steps and two-axis diagonals; the search offsets of
    subjets' rank-1 support refinement.  Cached per dimension, so the array
    is read-only."""
    offs = [np.zeros(dim)]
    eye = np.eye(dim)
    for i in range(dim):
        offs.extend([eye[i], -eye[i]])
    for i in range(dim):
        for j in range(i + 1, dim):
            for si, sj in product((1.0, -1.0), repeat=2):
                v = si * eye[i] + sj * eye[j]
                offs.append(v / np.sqrt(2.0))
    offs = np.array(offs)
    offs.setflags(write=False)
    return offs


def _epigraph_solve(max_pieces, sum_pieces, center, radius, x0):
    """min  sum_pieces(x) + max(max_pieces)(x)  over ||x - center|| <= radius.

    Solved as the smooth epigraph program in (x, t) with SLSQP.
    """
    dim = len(center)

    def sum_val(x):
        return float(sum(p.value(x) for p in sum_pieces))

    def sum_grad(x):
        g = np.zeros(dim)
        for p in sum_pieces:
            g += p.gradient(x)
        return g

    if not max_pieces:
        def obj(x):
            return sum_val(x)

        def jac(x):
            return sum_grad(x)

        cons = [{
            "type": "ineq",
            "fun": lambda x: radius**2 - np.sum((x - center) ** 2),
            "jac": lambda x: -2.0 * (x - center),
        }]
        res = minimize(obj, x0, jac=jac, method="SLSQP", constraints=cons,
                       options={"maxiter": MAX_ITERS, "ftol": FTOL})
        return np.asarray(res.x, dtype=float), res.status in (0,) or res.success, res.nit

    def obj(y):
        return sum_val(y[:dim]) + y[dim]

    def jac(y):
        return np.append(sum_grad(y[:dim]), 1.0)

    cons = []
    for p in max_pieces:
        cons.append({
            "type": "ineq",
            "fun": (lambda y, p=p: y[dim] - p.value(y[:dim])),
            "jac": (lambda y, p=p: np.append(-p.gradient(y[:dim]), 1.0)),
        })
    cons.append({
        "type": "ineq",
        "fun": lambda y: radius**2 - np.sum((y[:dim] - center) ** 2),
        "jac": lambda y: np.append(-2.0 * (y[:dim] - center), 0.0),
    })
    t0 = max(p.value(x0) for p in max_pieces)
    y0 = np.append(x0, t0 + 1e-6)
    res = minimize(obj, y0, jac=jac, method="SLSQP", constraints=cons,
                   options={"maxiter": MAX_ITERS, "ftol": FTOL})
    return np.asarray(res.x[:dim], dtype=float), res.success, res.nit


def _nelder_mead(fun, x0, center, radius):
    """Unstructured fallback: Nelder-Mead on the batched `fun`, one row at a
    time, valued at points outside the ball projected onto it.  The point
    returned may lie outside; minimize_branches projects it."""
    def project(x):
        r = np.linalg.norm(x - center)
        return center + (x - center) * (radius / r) if r > radius else x

    res = minimize(lambda x: fun(project(x)[None, :])[0], x0,
                   method="Nelder-Mead",
                   options={"maxiter": 40 * MAX_ITERS, "xatol": 1e-12,
                            "fatol": 1e-14})
    return np.asarray(res.x, dtype=float)


@dataclass
class BallMinimizeResult:
    points: np.ndarray       # candidate minimizers, one per row
    values: np.ndarray
    approximate: bool = False


def minimize_branches(branches, objective, center, radius):
    """Multistart minimization of a piecewise-smooth objective over a closed ball.

    `branches` is a list of (max_pieces, sum_pieces) descriptions covering the
    objective (the global min is the min over branches).  Each start of the
    lattice records the SLSQP epigraph point of every branch, or without
    branches the Nelder-Mead point of the batched `objective`, which maps an
    (m, dim) array of points to their m values.  SLSQP may stop slightly
    outside the ball, so every point is projected onto it before the
    objective values them all.  A solve that hits its iteration budget marks
    the result approximate.
    """
    dim = len(center)
    if dim == 0:
        z = np.zeros((1, 0))
        return BallMinimizeResult(points=z, values=objective(z))
    pts = []
    approximate = False
    for x0 in center + ball_lattice(dim, 0.9 * radius, STARTS_PER_AXIS):
        if not branches:
            pts.append(_nelder_mead(objective, x0, center, radius))
            continue
        for max_pieces, sum_pieces in branches:
            x, ok, nit = _epigraph_solve(max_pieces, sum_pieces, center,
                                         radius, x0)
            if not ok and nit >= MAX_ITERS:
                approximate = True
                warnings.warn("inner solver hit its iteration budget",
                              SolverBudgetExceeded)
            pts.append(x)
    P = np.array(pts)
    D = P - center
    r = np.sqrt(np.vecdot(D, D))
    out = r > radius
    P[out] = center + D[out] * (radius / r[out])[:, None]
    return BallMinimizeResult(points=P, values=objective(P),
                              approximate=approximate)


def _line_coefficients(piece):
    """(a, b, c) of a 1-D quadratic or affine piece a t^2 / 2 + b t + c."""
    if piece.kind == "quadratic":
        return float(piece.A[0, 0]), float(piece.b[0]), piece.c
    return 0.0, float(piece.a[0]), piece.b


def _ratio_within(num, den, radius):
    """[num / den] when it lies in [-radius, radius], else []; the test
    comes first, so a tiny or zero den cannot overflow."""
    if den != 0.0 and abs(num) <= radius * abs(den):
        return [num / den]
    return []


def _roots_within(a, b, c, radius):
    """Real roots in [-radius, radius] of a t^2 + b t + c = 0 (a line when
    a = 0), from the numerically stable form that never cancels b against
    the root of the discriminant."""
    if a == 0.0:
        return _ratio_within(-c, b, radius)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    return _ratio_within(q, a, radius) + _ratio_within(c, q, radius)


def line_minimize(branches, objective, radius):
    """Exact minimization over [-radius, radius] of a 1-D objective covered
    by quadratic and affine branches (max_pieces, sum_pieces).

    On the interval each branch is piecewise quadratic, with breaks only
    where two max-pieces cross, so its minimizer is an interval end, a
    stationary point of the sum plus one max-piece (or of the sum alone),
    or a crossing.  Every such candidate, and t = 0 for the smallest-norm
    tie rule on flat regions, is valued by the batched `objective`."""
    cands = [-radius, 0.0, radius]
    for max_pieces, sum_pieces in branches:
        coef = [_line_coefficients(p) for p in max_pieces]
        sums = [_line_coefficients(p) for p in sum_pieces]
        a_s = sum(a for a, _, _ in sums)
        b_s = sum(b for _, b, _ in sums)
        for a, b, _ in coef or [(0.0, 0.0, 0.0)]:
            if a_s + a > 0.0:
                cands += _ratio_within(-(b_s + b), a_s + a, radius)
        for i, (ai, bi, ci) in enumerate(coef):
            for aj, bj, cj in coef[i + 1:]:
                cands += _roots_within(0.5 * (ai - aj), bi - bj, ci - cj,
                                       radius)
    T = np.array(cands)[:, None]
    return BallMinimizeResult(points=T, values=objective(T))


def _quadratic_coefficients(pieces, dim):
    """(A, b) of the sum of quadratic and affine pieces, up to its constant,
    with A symmetrized (eigh reads one triangle)."""
    A, b = np.zeros((dim, dim)), np.zeros(dim)
    for p in pieces:
        if p.kind == "quadratic":
            A, b = A + p.A, b + p.b
        else:
            b = b + p.a
    return 0.5 * (A + A.T), b


def _eigen_weights(g, d, s):
    """-g / (d + s), with a (positive) zero where g is zero.

    With A = Q diag(lam) Q^T and g = Q^T b, Q w is the step of
    (A + mu I) x = -b: d = lam and s = 0 give -A^-1 b, and d = lam - lam_min
    with s = mu + lam_min give every mu, written so that d + s does not
    cancel near the hard case."""
    return np.divide(-g, d + s, out=np.zeros_like(g), where=g != 0.0)


# Steps of each phase of the boundary root.  A bisection step halves the
# bracket, and no bracket of doubles survives this many halvings, so the
# bisection always ends first on two adjacent doubles; the Newton phase
# before it stops at this cap at the latest and hands on a valid bracket.
ROOT_MAX_STEPS = 2100


def _boundary_root(Q, g, d, s_min, radius):
    """The step of the boundary root mu of ||(A + mu I)^-1 b|| = radius,
    found as a shift s = mu + lam_min > s_min, or None when the step at
    s_min already lies in the ball.

    Both phases keep a bracket with ||x(lo)|| > radius >= ||x(hi)||.
    Newton on the secular equation phi(s) = 1/||x(s)|| - 1/radius, concave
    and increasing (linear when d = 0), first shrinks it to 8 ulps.  Each
    Newton point is clipped 4 ulps inside, so a point on the root double
    still moves the other side.  The midpoint replaces a Newton point below
    the bracket, and the one after a clipped point that stayed on its side,
    where phi is flat to rounding.  Bisection then ends on adjacent doubles
    and returns x(hi).  In round-to-nearest, d + s, the masked division,
    the squares, the fixed-order vecdot and sqrt are each monotone in s, so
    ||x(s)|| crosses radius between exactly one pair of adjacent doubles,
    and the bisection ends on it from any bracket."""
    def step(s):
        w = _eigen_weights(g, d, s)
        return w, np.sqrt(np.vecdot(w, w))

    if not np.any((g != 0.0) & (d + s_min == 0.0)) and \
            step(s_min)[1] <= radius:
        return None
    # ||x(s)|| <= ||g|| / s, so the root lies below ||g|| / radius
    lo, hi = s_min, 2.0 * float(np.sqrt(np.vecdot(g, g))) / radius
    s = hi
    w, norm = step(s)
    w_hi, stalled = w, False
    for _ in range(ROOT_MAX_STEPS):
        ulp = np.spacing(hi)
        if hi - lo <= 8.0 * ulp:
            break
        # phi'(s) = sum g^2 / (d + s)^3 / ||x||^3, masked as in _eigen_weights
        slope = np.vecdot(w, np.divide(w, d + s, out=np.zeros_like(w),
                                       where=w != 0.0))
        # the Newton point; none when every weight underflowed or after a
        # stall
        s = s + (norm - radius) * norm * norm / (radius * slope) \
            if slope > 0.0 and not stalled else -np.inf
        lo_in, hi_in = lo + 4.0 * ulp, hi - 4.0 * ulp
        s = 0.5 * (lo + hi) if s < lo else min(max(s, lo_in), hi_in)
        w, norm = step(s)
        if norm > radius:
            lo = s
        else:
            hi, w_hi = s, w
        # a clipped point that stayed on its side
        stalled = lo == lo_in or hi == hi_in
    for _ in range(ROOT_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        w, norm = step(mid)
        if norm > radius:
            lo = mid
        else:
            hi, w_hi = mid, w
    return Q @ w_hi


def _trust_region_candidates(A, b, radius):
    """The More-Sorensen candidates of 1/2 v^T A v + b^T v over
    ||v|| <= radius, from A = Q diag(lam) Q^T: -A^-1 b when lam_min > 0 and
    it lies in the ball; the boundary root mu > max(0, -lam_min); and in
    the hard case, where lam_min <= 0, b has no component on its
    eigenvectors and the pseudo-inverse step x lies in the ball, x +- tau q
    on the sphere for each such eigenvector q."""
    cands = []
    lam, Q = np.linalg.eigh(A)
    g = Q.T @ b
    if lam[0] > 0.0:
        x = Q @ _eigen_weights(g, lam, 0.0)
        if np.linalg.norm(x) <= radius:
            cands.append(x)
    d = lam - lam[0]
    x = _boundary_root(Q, g, d, max(lam[0], 0.0), radius)
    if x is not None:
        cands.append(x)
    # the eigenvalues within rounding of lam_min, and whether b is within
    # rounding of orthogonal to their eigenvectors
    tie = 1e-12 * (1.0 + float(np.max(np.abs(lam))))
    low = d <= tie
    flat = np.abs(g[low]) <= 1e-12 * (1.0 + np.linalg.norm(b))
    if lam[0] <= tie and flat.all():
        x = Q @ _eigen_weights(np.where(low, 0.0, g), d, 0.0)
        tau2 = radius * radius - float(np.vecdot(x, x))
        if tau2 >= 0.0:
            tau = np.sqrt(tau2)
            for q in Q[:, low].T:
                cands += [x + tau * q, x - tau * q]
    return cands


def _affine_part(piece):
    """(g, c) of the linear and constant terms of a quadratic or affine
    piece."""
    if piece.kind == "quadratic":
        return piece.b, piece.c
    return piece.a, piece.b


def _flat(rows, rhs, dim):
    """(p, N) of the flat {v : rows v = rhs}, p its min-norm point and N an
    orthonormal basis of its directions (p = 0 and N = I without rows), or
    None when the rows are not linearly independent."""
    if not len(rows):
        return np.zeros(dim), np.eye(dim)
    U, s, Vt = np.linalg.svd(np.array(rows))
    if s[-1] <= 1e-12 * s[0]:
        return None
    k = len(s)
    return Vt[:k].T @ ((U.T @ np.array(rhs)) / s), Vt[k:].T


def _flat_candidates(pieces, A, b, radius):
    """The candidates of 1/2 v^T A v + b^T v over ||v|| <= radius on the
    flat p + N w where the affine parts of `pieces` tie: the trust-region
    candidates of w over the ball of radius rho = sqrt(radius^2 - ||p||^2),
    or p alone when rho = 0 or the flat is a point.  No candidate when the
    linear parts are not affinely independent or p lies outside the ball by
    more than rounding."""
    (g0, c0), *rest = [_affine_part(p) for p in pieces]
    flat = _flat([g - g0 for g, _ in rest], [c0 - c for _, c in rest],
                 len(g0))
    if flat is None:
        return []
    p, N = flat
    rho2 = radius * radius - float(np.vecdot(p, p))
    if rho2 < -1e-12 * radius * radius:
        return []
    if rho2 <= 0.0 or N.shape[1] == 0:
        return [p]
    return [p + N @ w for w in _trust_region_candidates(
        N.T @ A @ N, N.T @ (A @ p + b), np.sqrt(rho2))]


def _sphere_minimizers(m, R2, N, c, tol):
    """The minimizers of c.v on the sphere m + N w, ||w||^2 = R2: m alone
    when |R2| <= tol, none when R2 < -tol or N is empty; both points of a
    0-dimensional sphere, and m +- sqrt(R2) along every column of N when
    N^T c is within rounding of 0, so that a set-valued argmin shows."""
    if abs(R2) <= tol:
        return [m]
    if R2 < 0.0 or N.shape[1] == 0:
        return []
    R = np.sqrt(R2)
    h = N.T @ c
    nh = float(np.sqrt(np.vecdot(h, h)))
    if N.shape[1] > 1 and nh > 1e-12 * (1.0 + np.linalg.norm(c)):
        return [m - (R / nh) * (N @ h)]
    return [m + R * n for n in N.T] + [m - R * n for n in N.T]


def _sphere_candidates(pieces, curv, A, b, radius):
    """The candidates of the branch over ||v|| <= radius on the set where
    the isotropic `pieces` (Hessians curv_i I, not all equal) tie, with
    (A, b) the Hessian (c_0 + c_s) I and the linear term g_0 + g_s of the
    first piece plus the sum.

    The tie of piece 0 with the piece j of most different curvature reads
    ||v||^2 = alpha + beta.v.  With it every other tie is linear, so the
    tie set is a sphere inside the flat F of those linear ties, and on it
    the branch is c.v plus a constant, c = 1/2 (c_0 + c_s) beta + g_0 + g_s.
    The candidates are the minimizers of c.v on that sphere that lie in the
    ball (to 1e-12 relative rounding) and those on its points of norm
    radius, again a sphere, inside F and beta.v = radius^2 - alpha.  No
    candidate when the linear ties are not independent."""
    (g0, e0), *rest = [_affine_part(p) for p in pieces]
    d = curv[0] - np.asarray(curv, dtype=float)
    j = int(np.argmax(np.abs(d)))
    gj, ej = rest[j - 1]
    alpha = -2.0 * (e0 - ej) / d[j]
    beta = -2.0 * (g0 - gj) / d[j]
    rows, rhs = [], []
    for i, (g, e) in enumerate(rest, 1):
        if i != j:
            rows.append(g0 - g + 0.5 * d[i] * beta)
            rhs.append(e - e0 - 0.5 * d[i] * alpha)
    flat = _flat(rows, rhs, len(g0))
    if flat is None:
        return []
    p, N = flat
    c = 0.5 * float(np.trace(A)) / len(g0) * beta + b
    bN = N.T @ beta
    bp, pp = float(beta @ p), float(np.vecdot(p, p))
    bb = 0.25 * float(np.vecdot(bN, bN))
    cands = [v for v in _sphere_minimizers(
        p + 0.5 * (N @ bN), alpha + bp - pp + bb, N, c,
        1e-12 * (abs(alpha) + abs(bp) + pp + bb))
        if np.vecdot(v, v) <= radius * radius * (1.0 + 1e-12)]
    edge = _flat(rows + [beta], rhs + [radius * radius - alpha], len(g0))
    if edge is not None:
        p, N = edge
        cands += _sphere_minimizers(p, radius * radius - np.vecdot(p, p), N,
                                    c, 1e-12 * radius * radius)
    return cands


def _curvature(A):
    """c when the symmetric A is c I to 1e-12 relative rounding, else
    None."""
    c = float(np.trace(A)) / len(A)
    if np.max(np.abs(A - c * np.eye(len(A)))) <= 1e-12 * (1.0 + abs(c)):
        return c
    return None


def _tie_curvatures(max_pieces, dim):
    """None when the max-pieces share one Hessian, so every set where they
    tie is a flat; else the curvature c_i of each (None where its Hessian
    is not c_i I)."""
    H = [_quadratic_coefficients([p], dim)[0] for p in max_pieces]
    if all(np.array_equal(H[0], h) for h in H[1:]):
        return None
    return [_curvature(h) for h in H]


def exact_ties(max_pieces, sum_pieces, dim):
    """Whether quadratic_ball_minimize is exact on the branch, which is then
    convex: at most one max-piece; max-pieces that differ by affine terms
    (one shared Hessian) with a positive semidefinite total Hessian, so
    their ties are flats; or else isotropic pieces, every max-piece Hessian
    c_i I and the sum's c_s I with every c_i + c_s >= 0, so their ties are
    spheres or flats.  The isotropic test runs only where the shared
    Hessian test fails."""
    if len(max_pieces) <= 1:
        return True
    curv = _tie_curvatures(max_pieces, dim)
    if curv is None:
        lam = np.linalg.eigvalsh(
            _quadratic_coefficients(max_pieces[:1] + sum_pieces, dim)[0])
        return bool(lam[0] >= -1e-12 * (1.0 + float(np.max(np.abs(lam)))))
    c_s = _curvature(_quadratic_coefficients(sum_pieces, dim)[0])
    if c_s is None or None in curv:
        return False
    return min(curv) + c_s >= -1e-12 * (1.0 + max(map(abs, curv + [c_s])))


def _live_pieces(max_pieces, radius):
    """The max-pieces that can be the max somewhere on ||v|| <= radius.  On
    the ball |q_i(v) - e_i| <= ||g_i|| radius + 1/2 ||A_i||_2 radius^2, so a
    piece whose upper bound lies below the largest lower bound (by more than
    rounding) never is."""
    if len(max_pieces) <= 1:
        return max_pieces
    bounds = []
    for p in max_pieces:
        g, e = _affine_part(p)
        a = float(np.linalg.norm(p.A, 2)) if p.kind == "quadratic" else 0.0
        spread = radius * (float(np.sqrt(np.vecdot(g, g))) + 0.5 * radius * a)
        bounds.append((e - spread, e + spread))
    low = max(lo for lo, _ in bounds)
    return [p for p, (_, hi) in zip(max_pieces, bounds)
            if hi >= low - 1e-12 * (1.0 + abs(low))]


def quadratic_ball_minimize(branches, objective, dim, radius):
    """Exact minimization over ||v|| <= radius of an objective covered by
    branches (max_pieces, sum_pieces) of quadratic and affine pieces on
    which `exact_ties` holds.

    Max-pieces that cannot be the max anywhere on the ball
    (`_live_pieces`) are dropped first.  For each subset S of at most
    dim + 1 of the rest whose curvatures are equal (all of them when the
    max-pieces share one Hessian), the set where they tie is a flat p + N w,
    on which the branch is one quadratic of w over the ball of radius
    rho = sqrt(radius^2 - ||p||^2); one max-piece is S = {i} with p = 0 and
    N = I.  The global minimizers of a quadratic over a ball are the
    v = -(A + mu I)^-1 b with mu >= 0, A + mu I psd and
    mu (radius - ||v||) = 0 (More & Sorensen 1983), and
    `_trust_region_candidates` lists them; when rho = 0 or N is empty the
    only candidate is p.  `_flat_candidates` skips S when its linear parts
    are not affinely independent or p lies outside the ball.  For S with
    isotropic pieces of unequal curvatures the tie set is a sphere inside a
    flat, on which the branch is linear, and `_sphere_candidates` lists its
    minimizers on the sphere and on the sphere's points of norm radius.

    A global minimizer v* of a convex branch, with active set S and
    multipliers lambda_i and mu, minimizes the convex Lagrangian
    sum lambda_i q_i + s + mu/2 (||v||^2 - radius^2); on the tie set of S
    that is q_0 + s plus the mu term, which is <= 0 on the ball and 0 at
    v*, so v* minimizes q_0 + s over the tie set within the ball, and some
    subset lists it (by Caratheodory S can be taken affinely independent,
    so of at most dim + 1 pieces).  v = 0 is a candidate too, for the
    smallest-norm tie rule.  Candidates a rounding error outside the ball
    are projected onto it, and the batched `objective` values them all, so
    a set-valued argmin shows as several points."""
    cands = [np.zeros(dim)]
    for max_pieces, sum_pieces in branches:
        max_pieces = _live_pieces(max_pieces, radius)
        curv = _tie_curvatures(max_pieces, dim)
        subsets = [S for n in range(1, min(len(max_pieces), dim + 1) + 1)
                   for S in combinations(range(len(max_pieces)), n)] or [()]
        for S in subsets:
            pieces = [max_pieces[i] for i in S]
            A, b = _quadratic_coefficients(pieces[:1] + sum_pieces, dim)
            c = None if curv is None else [curv[i] for i in S]
            if len(S) <= 1:
                cands += _trust_region_candidates(A, b, radius)
            elif c is None or max(c) - min(c) <= 1e-12 * (
                    1.0 + max(map(abs, curv))):
                cands += _flat_candidates(pieces, A, b, radius)
            else:
                cands += _sphere_candidates(pieces, c, A, b, radius)
    V = np.array(cands)
    r = np.sqrt(np.vecdot(V, V))
    out = r > radius
    V[out] = V[out] * (radius / r[out])[:, None]
    return BallMinimizeResult(points=V, values=objective(V))


def cluster_minimizers(points, values, cluster_tol, sep_tol):
    """Keep near-optimal points and merge numerical twins.

    Returns (representatives, best_value); representatives are pairwise at
    least sep_tol apart, ordered by norm and then lexicographically, both
    rounded to 12 digits, so ties break deterministically with the
    smallest-norm point first and norms a few ulps apart count as tied.
    """
    best = float(np.min(values))
    keep = [p for p, v in zip(points, values) if v <= best + cluster_tol]
    keep.sort(key=lambda p: (round(float(np.linalg.norm(p)), 12), tuple(np.round(p, 12))))
    reps = []
    for p in keep:
        if all(np.linalg.norm(p - q) >= sep_tol for q in reps):
            reps.append(p)
    return np.array(reps), best


def pair_differences(X, Y):
    """(x_i - x_j, y_i - y_j) for the row pairs i < j of X and Y, one block
    of rows per i, so memory stays linear in the row count."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    for i in range(len(X) - 1):
        yield X[i] - X[i + 1:], Y[i] - Y[i + 1:]


def max_difference_quotient(X, Y):
    """max ||y_i - y_j|| / ||x_i - x_j|| over the row pairs with
    ||x_i - x_j|| >= 1e-14 (the Lipschitz estimate of x_i -> y_i); 0.0 if
    there are none."""
    best = 0.0
    for dx, dy in pair_differences(X, Y):
        nx = np.sqrt(np.vecdot(dx, dx))
        keep = nx >= 1e-14
        ny = np.sqrt(np.vecdot(dy[keep], dy[keep]))
        best = max(best, float(np.max(ny / nx[keep], initial=0.0)))
    return best


def hull_point_candidates(generators):
    """Deterministic points in co(generators): vertices, centroid, and a few
    edge/midpoint combinations."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    cands = [g for g in G]
    cands.append(np.mean(G, axis=0))
    if len(G) == 2:
        for w in (0.25, 0.75):
            cands.append(w * G[0] + (1 - w) * G[1])
    else:
        c = np.mean(G, axis=0)
        for g in G:
            cands.append(0.5 * (g + c))
    out = []
    for z in cands:
        if all(np.linalg.norm(z - q) > 1e-12 for q in out):
            out.append(z)
    return out


def hull_distance(generators, point):
    """Euclidean distance from `point` to co(generators), via the simplex QP
    min ||G^T lam - point||^2 over the probability simplex (SLSQP, small m)."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    p = np.asarray(point, dtype=float)
    m = G.shape[0]
    if m == 1:
        return float(np.linalg.norm(G[0] - p))

    def obj(lam):
        r = G.T @ lam - p
        return float(r @ r)

    def jac(lam):
        return 2.0 * (G @ (G.T @ lam - p))

    cons = [{"type": "eq", "fun": lambda lam: np.sum(lam) - 1.0,
             "jac": lambda lam: np.ones(m)}]
    lam0 = np.full(m, 1.0 / m)
    res = minimize(obj, lam0, jac=jac, method="SLSQP", bounds=[(0.0, 1.0)] * m,
                   constraints=cons, options={"maxiter": 200, "ftol": 1e-16})
    return float(np.sqrt(max(res.fun, 0.0)))


def in_hull(generators, point, tol=1e-8):
    """Feasibility of point in co(generators) by LP (exact at LP tolerance)."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    p = np.asarray(point, dtype=float)
    m, n = G.shape
    A_eq = np.vstack([G.T, np.ones((1, m))])
    b_eq = np.append(p, 1.0)
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * m,
                  method="highs")
    if res.status == 0:
        return True
    return hull_distance(G, p) <= tol
