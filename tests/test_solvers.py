import time
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.optimize
from scipy.optimize import nnls

from vulab import cli, envelope, oracle, solvers, tilt, ulagrangian, vu
from vulab.errors import SolverBudgetExceeded

from conftest import CROSSING3_BASE, CROSSING3_PROBLEM


def tilted(model, z):
    """The batched tilt objective X -> f(X) - <z, X>."""
    def batched(X):
        return oracle.evaluate_many(model, X) - np.vecdot(z, X)
    return batched


def assert_bits_equal(got, expect):
    got = np.asarray(got, dtype=float)
    expect = np.asarray(expect, dtype=float)
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


_coef = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def test_minimize_branches_records_values(crossing):
    """The recorded values are the objective at the recorded points, bit for
    bit, without a second evaluation."""
    batched = tilted(crossing, np.zeros(2))
    center = crossing.meta["default_base_point"]
    res = solvers.minimize_branches(crossing.solver_branches(), batched,
                                    center, 0.3)
    assert not res.approximate
    assert_bits_equal(res.values, batched(res.points))


def test_minimize_branches_nelder_mead_fallback(four_quadrant):
    """A model without branches goes through Nelder-Mead on single rows."""
    opaque = oracle.FunctionModel(dim=2, kind="custom",
                                  value_fn=four_quadrant.value_fn)
    batched = tilted(opaque, np.zeros(2))
    res = solvers.minimize_branches(None, batched, np.zeros(2), 1.0)
    assert np.all(np.linalg.norm(res.points, axis=1) <= 1.0 + 1e-12)
    assert float(res.values.min()) == 0.0


@st.composite
def line_problems(draw):
    """One 1-D branch: 1-4 max-pieces and 0-2 sum pieces, each quadratic with
    curvature in [-2, 2] (concave included) or affine, and a radius."""
    def piece():
        b, c = draw(_coef), draw(_coef)
        if draw(st.booleans()):
            a = draw(st.floats(-2.0, 2.0))
            return oracle.QuadraticPiece([[a]], [b], c)
        return oracle.AffinePiece([b], c)
    max_pieces = [piece() for _ in range(draw(st.integers(1, 4)))]
    sum_pieces = [piece() for _ in range(draw(st.integers(0, 2)))]
    return max_pieces, sum_pieces, draw(st.floats(0.01, 2.0))


def branch_objective(max_pieces, sum_pieces):
    """Batched sum + max of the pieces."""
    def objective(T):
        out = np.max([p.values(T) for p in max_pieces], axis=0)
        for p in sum_pieces:
            out = out + p.values(T)
        return out
    return objective


@settings(max_examples=300, deadline=None)
@given(line_problems())
# max(1 - 0.75 t^2, 0) on [-2, 2]: its crossings come out as
# -1.1547005383792517 and 1.1547005383792515, both within cluster_tol
@example(([oracle.QuadraticPiece([[-1.5]], [0.0], 1.0),
           oracle.AffinePiece([0.0], 0.0)], [], 2.0))
def test_line_minimize_beats_a_fine_grid(problem):
    """The closed-form candidates contain a global minimizer on the
    interval, and the cluster rule then puts first the candidate within
    cluster_tol of smallest norm rounded to 12 digits, ties broken by the
    smaller coordinate rounded the same way: of two crossings a few ulps
    apart in norm, the negative one."""
    max_pieces, sum_pieces, radius = problem
    objective = branch_objective(max_pieces, sum_pieces)
    res = solvers.line_minimize([(max_pieces, sum_pieces)], objective, radius)
    assert not res.approximate
    assert np.all(np.abs(res.points) <= radius)
    assert_bits_equal(res.values, objective(res.points))
    grid = np.linspace(-radius, radius, 20001)[:, None]
    grid_min = float(objective(grid).min())
    cluster_tol = 1e-9 * (1.0 + abs(float(res.values.min())))
    reps, best = solvers.cluster_minimizers(res.points, res.values,
                                            cluster_tol, 1e-6 * radius)
    assert best <= grid_min + 1e-12 * (1.0 + abs(grid_min))
    near = res.points[res.values <= best + cluster_tol, 0]
    norms = [round(abs(float(t)), 12) for t in near]
    tied = [t for t, n in zip(near, norms) if n == min(norms)]
    assert round(abs(float(reps[0][0])), 12) == min(norms)
    assert np.round(reps[0][0], 12) == np.round(tied, 12).min()


def test_line_minimize_sum_alone_and_roots():
    """Without max-pieces the stationary point of the sum is a candidate;
    the stable root formula keeps both crossings of nearly equal pieces."""
    sq = oracle.QuadraticPiece([[2.0]], [-0.6])           # (t - 0.3)^2 - 0.09
    res = solvers.line_minimize([([], [sq])], branch_objective(
        [oracle.AffinePiece([0.0])], [sq]), 1.0)
    assert 0.3 in res.points[:, 0]
    assert solvers._roots_within(1.0, -1e8, 1.0, 1e9) == [1e8, 1e-8]
    assert solvers._roots_within(1.0, -1e8, 1.0, 1.0) == [1e-8]
    assert solvers._roots_within(0.0, 2.0, -1.0, 1.0) == [0.5]
    assert solvers._roots_within(1.0, 0.0, 1.0, 1.0) == []
    assert solvers._roots_within(1e-320, 1.0, 0.5, 1.0) == [-0.5]


@st.composite
def ball_quadratics(draw):
    """One quadratic 1/2 v^T A v + b^T v in R^2 or R^3 with A = Q diag(lam)
    Q^T, lam on the quarter grid of [-2, 2] (repeated and zero eigenvalues
    come often), Q a product of plane rotations (the identity included), b
    = Q c with c on the eighth grid of [-2, 2] (b = 0 and b orthogonal to
    an eigenspace included), and a radius.  b is the linear term of the
    quadratic piece or a separate affine sum piece."""
    dim = draw(st.integers(2, 3))
    grid = st.sampled_from(np.arange(-8, 9) / 4.0)
    lam = np.array(draw(st.lists(grid, min_size=dim, max_size=dim)))
    Q = np.eye(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            t = draw(st.sampled_from([0.0, 0.3, 1.0, np.pi / 4, 2.5]))
            R = np.eye(dim)
            R[[i, i, j, j], [i, j, i, j]] = [np.cos(t), -np.sin(t),
                                             np.sin(t), np.cos(t)]
            Q = Q @ R
    A = Q @ np.diag(lam) @ Q.T
    A = 0.5 * (A + A.T)
    c = np.array(draw(st.lists(st.sampled_from(np.arange(-16, 17) / 8.0),
                               min_size=dim, max_size=dim)))
    b = Q @ c
    radius = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    if draw(st.booleans()):
        return [oracle.QuadraticPiece(A, b)], [], A, b, radius
    return ([oracle.QuadraticPiece(A)], [oracle.AffinePiece(b)], A, b,
            radius)


@settings(max_examples=60, deadline=None)
@given(ball_quadratics())
def test_quadratic_ball_minimize_meets_more_sorensen(problem):
    """Every point of the clustered argmin is a global minimizer by the
    More-Sorensen conditions: (A + mu I) v = -b with mu >= 0, A + mu I psd
    and mu (radius - ||v||) = 0, each to 1e-10.  The best value is never
    worse than that of the SLSQP multistart."""
    max_pieces, sum_pieces, A, b, radius = problem
    dim = len(b)
    objective = branch_objective(max_pieces, sum_pieces)
    res = solvers.quadratic_ball_minimize([(max_pieces, sum_pieces)],
                                          objective, dim, radius)
    assert not res.approximate
    assert_bits_equal(res.values, objective(res.points))
    cluster_tol = 1e-9 * (1.0 + abs(float(res.values.min())))
    reps, best = solvers.cluster_minimizers(res.points, res.values,
                                            cluster_tol, 1e-6 * radius)
    lam_min = float(np.linalg.eigvalsh(A)[0])
    for v in reps:
        norm = float(np.linalg.norm(v))
        assert norm <= radius * (1.0 + 1e-12)
        r = A @ v + b
        mu = 0.0 if norm < radius * (1.0 - 1e-10) else -float(v @ r) / norm ** 2
        assert mu >= -1e-10
        assert lam_min + mu >= -1e-10
        assert np.linalg.norm(r + mu * v) <= 1e-10
        assert abs(mu * (radius - norm)) <= 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        multi = solvers.minimize_branches([(max_pieces, sum_pieces)],
                                          objective, np.zeros(dim), radius)
    multi_best = float(multi.values.min())
    assert best <= multi_best + 1e-12 * (1.0 + abs(best))


@st.composite
def affine_max_branches(draw):
    """One convex branch in R^2 or R^3: 2-4 affine max-pieces a.v + c with
    a on the half grid of [-2, 2] and c on the quarter grid of [-1, 1] (so
    parallel, repeated and dependent pieces come often), a psd or zero
    quadratic sum 1/2 v^T B B^T v + b.v with B on the half grid of [-1, 1]
    and rank 0 to dim, b on the quarter grid of [-1, 1], and a radius.
    B B^T is dyadic, so exactly symmetric and psd.  b is the linear term of
    the quadratic piece or a separate affine sum piece."""
    dim = draw(st.integers(2, 3))
    half = st.sampled_from(np.arange(-4, 5) / 2.0)
    quarter = st.sampled_from(np.arange(-4, 5) / 4.0)
    max_pieces = [oracle.AffinePiece(draw(st.lists(half, min_size=dim,
                                                    max_size=dim)),
                                     draw(quarter))
                  for _ in range(draw(st.integers(2, 4)))]
    rank = draw(st.integers(0, dim))
    B = np.array(draw(st.lists(st.sampled_from(np.arange(-2, 3) / 2.0),
                               min_size=dim * rank, max_size=dim * rank)))
    A = B.reshape(dim, rank) @ B.reshape(dim, rank).T
    b = np.array(draw(st.lists(quarter, min_size=dim, max_size=dim)))
    radius = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    if draw(st.booleans()):
        sum_pieces = [oracle.QuadraticPiece(A, b)]
    else:
        sum_pieces = [oracle.QuadraticPiece(A), oracle.AffinePiece(b)]
    return max_pieces, sum_pieces, A, b, radius


def fermat_residual(max_pieces, A, b, v, radius):
    """An upper bound on the distance of 0 to the active max-piece gradients
    (affine or quadratic) plus A v + b + mu v, the Fermat rule of the branch
    over the ball at v: the
    norm of one convex combination of them.  mu = 0 inside the ball, mu >= 0
    on the sphere.  The weights and mu come from nonnegative least squares
    with a sum-to-one row; the weights are then rescaled onto the simplex.
    (hull_distance cannot take mu, whose normal cone v R+ is unbounded.)"""
    vals = np.array([p.value(v) for p in max_pieces])
    top = float(vals.max())
    active = vals >= top - 1e-9 * (1.0 + abs(top))
    G = np.array([p.gradient(v) for p, on in zip(max_pieces, active)
                  if on]) + (A @ v + b)
    on_sphere = np.linalg.norm(v) >= radius * (1.0 - 1e-9)
    M = np.vstack([G.T, np.ones(len(G))])
    if on_sphere:
        M = np.column_stack([M, np.append(v, 0.0)])
    weights, _ = nnls(M, np.append(np.zeros(len(v)), 1.0))
    lam = weights[:len(G)] / np.sum(weights[:len(G)])
    mu = weights[-1] if on_sphere else 0.0
    return float(np.linalg.norm((G + mu * v).T @ lam))


def assert_exact_and_optimal(max_pieces, sum_pieces, A, b, radius):
    """quadratic_ball_minimize on one branch with exact_ties, warnings as
    errors: values bit-equal to the objective, points in the ball, every
    point of the clustered argmin meets the Fermat rule to 1e-9, and the
    best value is never above that of the SLSQP multistart."""
    dim = len(b)
    assert solvers.exact_ties(max_pieces, sum_pieces, dim)
    objective = branch_objective(max_pieces, sum_pieces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solvers.quadratic_ball_minimize([(max_pieces, sum_pieces)],
                                              objective, dim, radius)
    assert_bits_equal(res.values, objective(res.points))
    eps = np.finfo(float).eps
    assert np.all(np.linalg.norm(res.points, axis=1) <= radius * (1 + 4 * eps))
    cluster_tol = 1e-9 * (1.0 + abs(float(res.values.min())))
    reps, best = solvers.cluster_minimizers(res.points, res.values,
                                            cluster_tol, 1e-6 * radius)
    for v in reps:
        assert fermat_residual(max_pieces, A, b, v, radius) <= 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        multi = solvers.minimize_branches([(max_pieces, sum_pieces)],
                                          objective, np.zeros(dim), radius)
    assert best <= float(multi.values.min()) + 1e-12 * (1.0 + abs(best))


@settings(max_examples=40, deadline=None)
@given(affine_max_branches())
def test_quadratic_ball_minimize_on_tie_flats_meets_fermat(problem):
    """A convex branch whose max-pieces are affine is solved exactly on the
    flats where they tie: every point of the clustered argmin lies in the
    ball and meets the Fermat rule 0 in grad + N_ball to 1e-9, with mu >= 0
    and mu (radius - ||v||) = 0, and the best value is never above that of
    the SLSQP multistart."""
    assert_exact_and_optimal(*problem)


@st.composite
def isotropic_max_branches(draw):
    """One convex branch in R^2 or R^3 of isotropic pieces: 2-4 max-pieces
    1/2 c_i ||v||^2 + g_i.v + e_i, affine when c_i = 0 (half of them on
    average), with g_i on the half grid of [-2, 2] and e_i on the quarter
    grid of [-1, 1]; a sum 1/2 c_s ||v||^2 + b.v with c_s in {0, 1/2, 1, 2}
    and b on the quarter grid of [-1, 1]; c_i on the half grid of
    [-c_s, 2], so every c_i + c_s >= 0; and a radius."""
    dim = draw(st.integers(2, 3))
    half = st.sampled_from(np.arange(-4, 5) / 2.0)
    quarter = st.sampled_from(np.arange(-4, 5) / 4.0)
    c_s = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    curvature = st.one_of(st.just(0.0), st.sampled_from(
        [c for c in np.arange(-4, 5) / 2.0 if c + c_s >= 0.0]))
    max_pieces = []
    for _ in range(draw(st.integers(2, 4))):
        c = draw(curvature)
        g = draw(st.lists(half, min_size=dim, max_size=dim))
        e = draw(quarter)
        max_pieces.append(oracle.AffinePiece(g, e) if c == 0.0 else
                          oracle.QuadraticPiece(c * np.eye(dim), g, e))
    A = c_s * np.eye(dim)
    b = np.array(draw(st.lists(quarter, min_size=dim, max_size=dim)))
    radius = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    if c_s == 0.0:
        sum_pieces = [oracle.AffinePiece(b)]
    elif draw(st.booleans()):
        sum_pieces = [oracle.QuadraticPiece(A, b)]
    else:
        sum_pieces = [oracle.QuadraticPiece(A), oracle.AffinePiece(b)]
    return max_pieces, sum_pieces, A, b, radius


@settings(max_examples=60, deadline=None)
@given(isotropic_max_branches())
def test_quadratic_ball_minimize_on_tie_spheres_meets_fermat(problem):
    """A convex branch of isotropic pieces with different curvatures is
    solved exactly on the spheres (and flats) where they tie: every point
    of the clustered argmin meets the Fermat rule to 1e-9, and the best
    value is never above that of the SLSQP multistart."""
    assert_exact_and_optimal(*problem)


@pytest.mark.parametrize("pieces, sum_pieces, expect", [
    # different anisotropic Hessians
    ([oracle.QuadraticPiece(np.diag([1.0, 2.0])),
      oracle.AffinePiece([0.0, 1.0])], [], False),
    # affine max-pieces over a concave sum
    ([oracle.AffinePiece([1.0, 0.0]), oracle.AffinePiece([-1.0, 0.0])],
     [oracle.QuadraticPiece(-np.eye(2))], False),
    # one shared Hessian, convex
    ([oracle.QuadraticPiece(2.0 * np.eye(2)),
      oracle.QuadraticPiece(2.0 * np.eye(2), [1.0, -1.0])], [], True),
    # one max-piece: the single trust-region solve, convex or not
    ([oracle.QuadraticPiece(-np.eye(2))], [], True),
    # crossing_max's pieces: isotropic Hessians 2 I and 0, a sphere tie
    ([oracle.QuadraticPiece(2.0 * np.eye(2), [0.0, -2.0], 1.0),
      oracle.AffinePiece([0.0, 1.0])], [], True),
    # isotropic, but c_i + c_s = 0 - 1 < 0 for the affine piece
    ([oracle.QuadraticPiece(2.0 * np.eye(2)), oracle.AffinePiece([0.0, 1.0])],
     [oracle.QuadraticPiece(-np.eye(2))], False)])
def test_affine_ties_predicate(pieces, sum_pieces, expect):
    assert solvers.exact_ties(pieces, sum_pieces, 2) is expect


def test_flat_argmin_in_three_dimensions_is_set_valued(monkeypatch):
    """max(v1, -v1) in R^3 at z = 0: the argmin over the unit ball is the
    disk v1 = 0.  The exact solve lists points of it from the flat where
    both pieces tie, so the tilt map is set-valued, without a multistart."""
    def forbidden(*args, **kwargs):
        raise AssertionError("multistart called")
    monkeypatch.setattr(ulagrangian, "minimize_branches", forbidden)
    model = oracle.FunctionModel(dim=3, kind="max_of_smooth",
                                 pieces=[oracle.AffinePiece([1.0, 0.0, 0.0]),
                                         oracle.AffinePiece([-1.0, 0.0, 0.0])])
    res = tilt.tilt_map(model, np.zeros(3), 1.0, np.zeros(3))
    assert not res.single_valued and not res.approximate
    assert res.value == 0.0
    assert np.all(res.minimizers[:, 0] == 0.0)
    assert np.max(np.linalg.norm(res.minimizers, axis=1)) == 1.0


def test_tie_flat_tangent_to_the_sphere():
    """|v1 - 1| = max(v1 - 1, 1 - v1) on the unit disk: the pieces tie on the
    line v1 = 1, which touches the ball only at p = (1, 0) (rho = 0).  That
    flat contributes p alone and the solve raises no warning, a division by
    zero included; the argmin is exactly p."""
    pieces = [oracle.AffinePiece([1.0, 0.0], -1.0),
              oracle.AffinePiece([-1.0, 0.0], 1.0)]
    objective = branch_objective(pieces, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solvers.quadratic_ball_minimize([(pieces, [])], objective, 2,
                                              1.0)
    assert repr(res.points[-1].tolist()) == repr([1.0, 0.0])
    reps, best = solvers.cluster_minimizers(res.points, res.values, 1e-9,
                                            1e-6)
    assert repr(reps.tolist()) == repr([[1.0, 0.0]]) and best == 0.0


def test_minimize_branches_stays_in_its_ball():
    """On 1/2 v^T A v + b^T v with A = diag(-2, -2, 1) and b = (-2, -2, -2)
    SLSQP stops about 1e-13 outside the 0.1-ball.  The recorded points are
    projected onto it, so none lies outside by more than rounding and the
    best value does not undercut the exact trust-region minimum."""
    eps = np.finfo(float).eps
    pieces = [oracle.QuadraticPiece(np.diag([-2.0, -2.0, 1.0]),
                                    np.full(3, -2.0))]
    objective = branch_objective(pieces, [])
    multi = solvers.minimize_branches([(pieces, [])], objective, np.zeros(3),
                                      0.1)
    assert np.all(np.linalg.norm(multi.points, axis=1) <= 0.1 * (1 + 4 * eps))
    assert_bits_equal(multi.values, objective(multi.points))
    exact = solvers.quadratic_ball_minimize([(pieces, [])], objective, 3, 0.1)
    best = float(exact.values.min())
    assert float(multi.values.min()) >= best - 4 * eps * (1.0 + abs(best))


def test_quadratic_ball_minimize_hard_case():
    """quadratic(diag(-1, 1)) at z = 0: b = 0 is orthogonal to the
    eigenvector e1 of lam_min = -1, and the argmin over the eps-ball is
    exactly the two points +-eps e1."""
    model = oracle.builtin("quadratic(diag(-1,1))")
    res = tilt.tilt_map(model, np.zeros(2), 0.5, np.zeros(2))
    assert repr(res.minimizers.tolist()) == repr([[-0.5, 0.0], [0.5, 0.0]])
    assert repr(res.value) == repr(-0.125)
    assert not res.single_valued and not res.approximate


def bisection_boundary_root(Q, g, d, s_min, radius):
    """The boundary root by bisection alone, from [s_min, 2 ||g|| / radius]
    down to adjacent doubles: the reference of solvers._boundary_root."""
    def step_norm(s):
        w = solvers._eigen_weights(g, d, s)
        return np.sqrt(np.vecdot(w, w))

    if not np.any((g != 0.0) & (d + s_min == 0.0)) and \
            step_norm(s_min) <= radius:
        return None
    lo, hi = s_min, 2.0 * float(np.sqrt(np.vecdot(g, g))) / radius
    for _ in range(solvers.ROOT_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if step_norm(mid) > radius:
            lo = mid
        else:
            hi = mid
    return Q @ solvers._eigen_weights(g, d, hi)


@st.composite
def secular_problems(draw):
    """(A, b, radius) in R^1 to R^4: A = 0, A = c I, A = U diag(lam) U^T
    indefinite or not with a random rotation U, or diagonal on the quarter
    grid (exact eigenvectors); b = U c with |b| from 1e-6 to 1e3, c often
    zero on the eigenvectors of lam_min (the hard case, up to the rounding
    of U); radius from 1e-3 to 3."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["zero", "isotropic", "rotated", "dyadic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.eye(dim)
    if kind == "zero":
        lam = np.zeros(dim)
    elif kind == "isotropic":
        lam = np.full(dim, rng.uniform(-3.0, 3.0))
    elif kind == "rotated":
        U = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        lam = rng.uniform(-3.0, 3.0, dim)
    else:
        lam = rng.integers(-8, 9, dim) / 4.0
    c = rng.standard_normal(dim)
    if draw(st.booleans()):
        c[lam == lam.min()] = 0.0
    if draw(st.booleans()):
        c[draw(st.integers(0, dim - 1))] = 0.0
    scale = draw(st.floats(-6.0, 3.0))
    if np.any(c):
        c *= 10.0 ** scale / np.linalg.norm(c)
    A = U @ np.diag(lam) @ U.T
    return 0.5 * (A + A.T), U @ c, 10.0 ** draw(st.floats(-3.0, np.log10(3.0)))


@settings(max_examples=400, deadline=None)
@given(secular_problems())
def test_boundary_root_matches_bisection_bit_for_bit(problem):
    """The Newton bracket followed by the bisection ends on the same double
    as bisection alone, so the boundary step is equal bit for bit (or None
    on both sides), with no floating-point warning."""
    A, b, radius = problem
    lam, Q = np.linalg.eigh(A)
    g = Q.T @ b
    args = (Q, g, lam - lam[0], max(lam[0], 0.0), radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers._boundary_root(*args)
    expect = bisection_boundary_root(*args)
    assert (got is None) == (expect is None)
    if got is not None:
        assert_bits_equal(got, expect)


def test_in_ball_tests_do_not_overflow():
    """A = a I, b = (b), radius 1, with (a, b) = (1.4e-297, 1) or
    (1e-300, 1e10): the interior step -A^-1 b and the step at s_min = a
    are about 7e296 long, or 1e310, beyond the largest double.  Both
    in-ball tests reject them before the division or a sum of squares can
    overflow, with no floating-point warning, and the only candidate is
    the boundary root -1, as before the entry tests."""
    for a, b in [(1.4e-297, 1.0), (1e-300, 1e10)]:
        A, b = np.array([[a]]), np.array([b])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cands = solvers._trust_region_candidates(A, b, 1.0)
            root = solvers._boundary_root(np.eye(1), b, np.zeros(1), a, 1.0)
        assert_bits_equal(cands, [[-1.0]])
        assert_bits_equal(root, [-1.0])


def count_step_evaluations(monkeypatch):
    """Count the calls of solvers._eigen_weights, one per step evaluation
    of the boundary root, in the one-item list returned."""
    calls = [0]
    eigen_weights = solvers._eigen_weights

    def counted(*args):
        calls[0] += 1
        return eigen_weights(*args)
    monkeypatch.setattr(solvers, "_eigen_weights", counted)
    return calls


@pytest.mark.parametrize("g0", [1e-16, 1e-15])
def test_boundary_root_near_the_hard_case(g0, monkeypatch):
    """lam = (0, 3.43) with b almost orthogonal to e1: the root is near
    s = 1.5e-14, where ||x(s)|| equals radius to the last bit over a run of
    doubles and Newton stalls.  The root still equals bisection's bit for
    bit, with no more step evaluations (about 75 against 100; creeping 4
    ulps at a time would take about 145)."""
    calls = count_step_evaluations(monkeypatch)
    args = (np.eye(2), np.array([g0, 2.62535467]), np.array([0.0, 3.42647428]),
            0.0, 0.7665777293331387)
    got = solvers._boundary_root(*args)
    newton_calls, calls[0] = calls[0], 0
    assert_bits_equal(got, bisection_boundary_root(*args))
    assert newton_calls <= calls[0]


@pytest.mark.parametrize("problem", ["abs_diff", "crossing_max",
                                     "quadratic(-I)"])
def test_boundary_root_takes_few_step_evaluations(problem, tmp_path,
                                                  monkeypatch):
    """On the tilt probes of abs_diff, crossing_max and quadratic(-I) each
    boundary root evaluates the step at most 8 times (bisection alone takes
    about 55): on their ties and single pieces d = 0, so the secular
    equation is linear and one Newton step lands on the root."""
    calls, per_root = count_step_evaluations(monkeypatch), []
    boundary_root = solvers._boundary_root

    def root(*args):
        before = calls[0]
        out = boundary_root(*args)
        per_root.append(calls[0] - before)
        return out
    monkeypatch.setattr(solvers, "_boundary_root", root)
    config = cli.ExperimentConfig(problem=problem, campaign=["tilt-test"],
                                  output_dir=str(tmp_path))
    _, code = cli.Runner(config).run()
    assert code == 0 and len(per_root) >= 81
    assert max(per_root) <= 8


def forbid_multistart(monkeypatch):
    """Make the SLSQP epigraph solve and the multistart raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("multistart called")
    monkeypatch.setattr(ulagrangian, "minimize_branches", forbidden)
    monkeypatch.setattr(solvers, "_epigraph_solve", forbidden)


def test_crossing3_probe_at_zero_tilt_returns_the_base_point(monkeypatch):
    """The 3-D crossing max{||x||^2 - 2 x3 + 1, x3} at its base point
    (0, 0, (3 - sqrt 5)/2): the pieces tie on a sphere, and the tilt probe
    at z = 0 returns exactly the base point, without a multistart."""
    forbid_multistart(monkeypatch)
    model = oracle.model_from_dict(CROSSING3_PROBLEM)
    base = np.array(CROSSING3_BASE)
    res = tilt.tilt_map(model, base, 0.3, np.zeros(3))
    assert repr(res.minimizers.tolist()) == repr([base.tolist()])
    assert not res.approximate


def test_sphere_tie_with_constant_branch_is_set_valued(monkeypatch):
    """max(||v||^2, 1/4) on the unit disk: the pieces tie on the circle
    ||v|| = 1/2, where c = 0, so its points along +-e1 and +-e2 are listed
    next to v = 0, and the argmin, the disk ||v|| <= 1/2, is set-valued."""
    forbid_multistart(monkeypatch)
    model = oracle.FunctionModel(
        dim=2, kind="max_of_smooth",
        pieces=[oracle.QuadraticPiece(2.0 * np.eye(2)),
                oracle.AffinePiece([0.0, 0.0], 0.25)])
    res = tilt.tilt_map(model, np.zeros(2), 1.0, np.zeros(2))
    assert len(res.minimizers) >= 2 and res.value == 0.25
    assert np.all(np.linalg.norm(res.minimizers, axis=1) <= 0.5)
    assert [0.5, 0.0] in res.minimizers.tolist()


def seventeen_piece_max():
    """max_i g_i.x + e_i in R^3 over the 17 sign vectors g_i in {-1, 0, 1}^3
    with at least two nonzero entries (the 8 corners, with e_i = 0, so near
    0 the max is the l1 norm), seven face diagonals at e_i = -1/2, and the
    two axis vectors +-e1 at e_i = -1/4."""
    signs = [np.array(s) for s in product((-1.0, 0.0, 1.0), repeat=3)]
    corners = [s for s in signs if np.count_nonzero(s) == 3]
    faces = [s for s in signs if np.count_nonzero(s) == 2]
    axes = [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])]
    pieces = ([oracle.AffinePiece(g) for g in corners]
              + [oracle.AffinePiece(g, -0.5) for g in faces[:7]]
              + [oracle.AffinePiece(g, -0.25) for g in axes])
    assert len(pieces) == 17
    return oracle.FunctionModel(dim=3, kind="max_of_smooth", pieces=pieces)


def test_dead_pieces_are_dropped_before_the_subsets(monkeypatch):
    """On a 17-piece 3-D affine max the pieces that cannot be the max on the
    ball are dropped before the tie subsets are enumerated (all 9 of them
    at radius 0.05, the face diagonals at 0.1, none at 0.2).  The best
    value and the single-valuedness are those of the unpruned enumeration,
    and so is the minimizer where it is unique; a set-valued argmin may be
    sampled by fewer points.  One probe at radius 0.05 stays under 0.1 s
    (0.03 s on a 2-core x86-64 machine, 0.11 s unpruned)."""
    model = seventeen_piece_max()
    tilts = [np.zeros(3), np.array([0.5, -0.25, 0.125]),
             np.array([1.0, 1.0, 0.0]), np.array([0.25, 0.5, -1.0])]
    for radius, live in ((0.05, 8), (0.1, 10), (0.2, 17)):
        assert len(solvers._live_pieces(model.pieces, radius)) == live
        for z in tilts:
            branches = [(model.pieces, [oracle.AffinePiece(-z)])]
            objective = tilted(model, z)
            res = solvers.quadratic_ball_minimize(branches, objective, 3,
                                                  radius)
            with monkeypatch.context() as m:
                m.setattr(solvers, "_live_pieces", lambda p, r: p)
                full = solvers.quadratic_ball_minimize(branches, objective, 3,
                                                       radius)
            tol = 1e-9 * (1.0 + abs(float(full.values.min())))
            reps, best = solvers.cluster_minimizers(res.points, res.values,
                                                    tol, 1e-6 * radius)
            ref, ref_best = solvers.cluster_minimizers(
                full.points, full.values, tol, 1e-6 * radius)
            assert best == ref_best and (len(reps) == 1) == (len(ref) == 1)
            if len(ref) == 1:
                assert repr(reps.tolist()) == repr(ref.tolist())
    forbid_multistart(monkeypatch)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        tilt.tilt_map(model, np.zeros(3), 0.05, tilts[1])
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.1


def face_enumeration_distance(G, p):
    """Distance from p to co(G) by enumerating faces: the least norm of the
    min-norm point of the affine hull of an affinely independent subset of
    the rows of G - p whose weights, from the (k+1) x (k+1) KKT system,
    are nonnegative."""
    P = np.asarray(G, dtype=float) - p
    best = np.inf
    for k in range(1, len(P) + 1):
        for S in combinations(range(len(P)), k):
            Q = P[list(S)]
            if np.linalg.matrix_rank(Q[1:] - Q[0]) < k - 1:
                continue
            K = np.ones((k + 1, k + 1))
            K[:k, :k], K[k, k] = Q @ Q.T, 0.0
            a = np.linalg.solve(K, np.append(np.zeros(k), 1.0))[:k]
            if a.min() >= -1e-14:
                best = min(best, float(np.linalg.norm(a @ Q)))
    return best


@st.composite
def dyadic_hulls(draw):
    """2-6 generators in R^1 to R^4 on the quarter grid of [-1, 1], a point
    on the eighth grid of [-1.5, 1.5], and integer weights in 0..4 that are
    not all 0."""
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(2, 6))
    quarter = st.sampled_from(np.arange(-4, 5) / 4.0)
    G = np.array(draw(st.lists(st.lists(quarter, min_size=dim, max_size=dim),
                               min_size=m, max_size=m)))
    p = np.array(draw(st.lists(st.sampled_from(np.arange(-12, 13) / 8.0),
                               min_size=dim, max_size=dim)))
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=m,
                                     max_size=m)), dtype=float)
    if not weights.any():
        weights[0] = 1.0
    return G, p, weights


@settings(max_examples=300, deadline=None)
@given(dyadic_hulls())
def test_hull_distance_matches_face_enumeration(problem):
    G, p, _ = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = solvers.hull_distance(G, p)
    assert abs(d - face_enumeration_distance(G, p)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(dyadic_hulls())
def test_convex_combinations_lie_in_the_hull(problem):
    G, _, weights = problem
    p = weights @ G / np.sum(weights)
    assert solvers.hull_distance(G, p) <= 1e-13
    assert solvers.in_hull(G, p)


FOUR_QUADRANT_POLYTOPE = [[0.0, 0.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, 1.0],
                          [1.0, -1.0]]


@pytest.mark.parametrize("G, p, expect", [
    ([[1.0, 2.0]], [4.0, 6.0], 5.0),
    ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.0, 0.0],
     np.sqrt(0.5)),
    ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.5, 0.5], 0.0),
    ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [2.0, 0.0],
     np.sqrt(2.0)),
    ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [4.0, 4.0],
     np.sqrt(2.0)),
    ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.5, 1.5], 0.0),
    (FOUR_QUADRANT_POLYTOPE, [0.0, 0.0], 0.0),
    (FOUR_QUADRANT_POLYTOPE, [0.5, 0.25], 0.0),
    (FOUR_QUADRANT_POLYTOPE, [2.0, 0.5], 1.0),
    (FOUR_QUADRANT_POLYTOPE, [3.0, 3.0], np.sqrt(8.0)),
])
def test_hull_distance_on_dependent_generators(G, p, expect):
    """One generator, duplicates, collinear points and the four_quadrant_max
    polytope (its centre is a generator) read the exact distance."""
    assert abs(solvers.hull_distance(G, p) - expect) <= 1e-15
    assert solvers.in_hull(G, p) == (expect == 0.0)


# A tetrahedron in R^3 and a point inside it with weights (4, 2, 4, 1) / 11.
TETRAHEDRON = np.array([[0.25, 0.0, -0.25], [-0.25, -0.75, -0.5],
                        [0.5, 0.75, 0.5], [-0.25, -0.5, -1.0]])


@pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)])
def test_hull_distance_certifies_an_interior_point(order):
    """The convex combination (4 G_0 + 2 G_1 + 4 G_2 + G_3) / 11 reads
    below 1e-13 with the generators in either order (with them reversed,
    the SLSQP simplex QP read 7.0e-9)."""
    p = np.array([4.0, 2.0, 4.0, 1.0]) @ TETRAHEDRON / 11.0
    assert solvers.hull_distance(TETRAHEDRON[order], p) <= 1e-13


@st.composite
def flat_hulls(draw):
    """A dyadic hull (see dyadic_hulls) squashed along one axis by 2^-k,
    k in 10..40, and a convex combination of its generators."""
    G, _, weights = draw(dyadic_hulls())
    k = draw(st.integers(10, 40))
    G[:, draw(st.integers(0, G.shape[1] - 1))] *= 2.0 ** -k
    return G, weights @ G / np.sum(weights), k


# 0 = 0.7 G_0 + 0.1 G_1 + 0.2 G_2 inside a triangle 2.5e-7 thick: the
# segment from G_0 to G_2 passes 1.25e-8 from 0, and G_1's gap to it,
# 1.6e-15, is below a stop test quadratic in the scale of P.
THIN_TRIANGLE = np.array([[-1.0, -5e-8], [1.0, -5e-8], [3.0, 2e-7]])
# Read 6.6e-9 before the residual solve of _affine_min_norm.
FLAT_SIMPLEX = np.array([[-0.75, 0.0, -0.25, 0.0], [0.25, 0.25, 0.75, -1.0],
                         [-0.75, 0.0, 0.0, -0.25], [-0.25, 0.5, -0.5, -1.0],
                         [-0.25, 0.25, 0.0, 0.75]]) * [2.0 ** -23, 1, 1, 1]


@settings(max_examples=300, deadline=None)
@given(flat_hulls())
@example((THIN_TRIANGLE, np.zeros(2), 22))
@example((FLAT_SIMPLEX, [0, 0, 2, 1, 3] @ FLAT_SIMPLEX / 6.0, 23))
def test_convex_combinations_lie_in_a_flat_hull(problem):
    """Points inside a flat polytope read at most 1e-13 while it is at least
    2^-26 thick.  Flatter, the weights the corrals need fall below rounding
    and the reading is bounded by the thickness, below in_hull's 1e-8."""
    G, p, k = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = solvers.hull_distance(G, p)
    assert d <= (1e-13 if k <= 26 else 2.0 ** -k)
    assert solvers.in_hull(G, p)


def test_hull_distance_stops_when_a_corral_repeats():
    """Inside this hull, 2^-40 thick, the iterate reaches 4e-29, where
    rounding takes the method from corral {1, 2, 3, 5} to {1, 2, 3, 4, 5}
    and back; it stops at the repeat instead of cycling to the budget."""
    G = np.array([[-3.0, -0.5, 0.0, 0.0], [-3.0, 0.5, -1.0, 0.75],
                  [4.0, 0.5, 0.5, 0.75], [4.0, 0.25, 0.0, -0.75],
                  [0.0, 0.5, 0.5, -0.5], [-1.0, -0.25, 0.25, 0.5]])
    G[:, 0] *= 2.0 ** -40
    p = np.array([0.0, 4.0, 1.0, 2.0, 0.0, 1.0]) @ G / 8.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solvers.hull_distance(G, p) <= 1e-13


def test_hull_distance_budget_returns_an_upper_bound(monkeypatch):
    """With one major step allowed the solver warns SolverBudgetExceeded and
    returns the norm of its iterate, a point of the hull, so no less than
    the distance; on these two points, one inside and one outside, it is
    still short of the corral that attains it."""
    monkeypatch.setattr(solvers, "HULL_MAX_STEPS", 1)
    for p in ([4.0, 2.0, 4.0, 1.0] @ TETRAHEDRON / 11.0, [-0.5, 0.0, 0.0]):
        with pytest.warns(SolverBudgetExceeded):
            d = solvers.hull_distance(TETRAHEDRON, p)
        assert d > face_enumeration_distance(TETRAHEDRON, p) + 1e-3


def test_hull_questions_run_no_scipy(monkeypatch, abs_diff, four_quadrant):
    """hull_distance, in_hull and vu.rel_interior_contains answer with
    solvers.minimize and solvers.linprog patched to raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy solver called")
    monkeypatch.setattr(solvers, "minimize", forbidden)
    monkeypatch.setattr(solvers, "linprog", forbidden)
    assert solvers.hull_distance(TETRAHEDRON, np.ones(3)) > 0.0
    assert solvers.in_hull(TETRAHEDRON, np.mean(TETRAHEDRON, axis=0))
    for model in (abs_diff, four_quadrant):
        poly = oracle.subdifferential_polytope(model, np.zeros(2))
        assert vu.rel_interior_contains(poly, np.zeros(2))
        assert not vu.rel_interior_contains(poly, poly.generators[-1])


def test_envelope_lps_go_through_the_solvers_forwarder():
    """envelope takes linprog from solvers, so one patch of solvers.linprog
    (a stub, or the benchmark tracer's wrapper) covers every HiGHS LP."""
    assert envelope.linprog is solvers.linprog


def test_forwarders_pass_arguments_and_results_through():
    """solvers.minimize and solvers.linprog give what a direct
    scipy.optimize call with the same arguments gives: one SLSQP epigraph
    solve and one tiny LP."""
    def fun(y):
        return (y[0] - 1.0) ** 2 + (y[1] - 2.5) ** 2
    slsqp = ((fun, np.array([2.0, 0.0])),
             {"method": "SLSQP", "options": {"maxiter": 100, "ftol": 1e-14},
              "constraints": [{"type": "ineq",
                               "fun": lambda y: y[0] - 2.0 * y[1] + 2.0}]})
    got = solvers.minimize(*slsqp[0], **slsqp[1])
    expect = scipy.optimize.minimize(*slsqp[0], **slsqp[1])
    assert type(got) is type(expect)
    assert (got.status, got.nit, got.nfev, got.message) == \
        (expect.status, expect.nit, expect.nfev, expect.message)
    assert_bits_equal(got.x, expect.x)
    assert_bits_equal(got.fun, expect.fun)
    lp = ([1.0, 2.0, 0.5],)
    lp_kwargs = {"A_eq": [[1.0, 1.0, 1.0]], "b_eq": [1.0],
                 "bounds": (0.0, None), "method": "highs"}
    got = solvers.linprog(*lp, **lp_kwargs)
    expect = scipy.optimize.linprog(*lp, **lp_kwargs)
    assert (got.status, got.message) == (expect.status, expect.message)
    assert_bits_equal(got.x, expect.x)
    assert_bits_equal(got.fun, expect.fun)
    assert_bits_equal(got.eqlin.marginals, expect.eqlin.marginals)
