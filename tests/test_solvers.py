import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import nnls

from vulab import oracle, solvers, tilt, ulagrangian
from vulab.errors import SolverBudgetExceeded


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
    """An upper bound on the distance of 0 to the active gradients plus
    A v + b + mu v, the Fermat rule of the branch over the ball at v: the
    norm of one convex combination of them.  mu = 0 inside the ball, mu >= 0
    on the sphere.  The weights and mu come from nonnegative least squares
    with a sum-to-one row; the weights are then rescaled onto the simplex.
    (hull_distance's SLSQP stops about 2e-9 from 0 on some points whose
    optimality system solves to 1e-16, so it cannot certify 1e-9.)"""
    vals = np.array([p.value(v) for p in max_pieces])
    top = float(vals.max())
    active = vals >= top - 1e-9 * (1.0 + abs(top))
    G = np.array([p.a for p, on in zip(max_pieces, active) if on]) + (A @ v + b)
    on_sphere = np.linalg.norm(v) >= radius * (1.0 - 1e-9)
    M = np.vstack([G.T, np.ones(len(G))])
    if on_sphere:
        M = np.column_stack([M, np.append(v, 0.0)])
    weights, _ = nnls(M, np.append(np.zeros(len(v)), 1.0))
    lam = weights[:len(G)] / np.sum(weights[:len(G)])
    mu = weights[-1] if on_sphere else 0.0
    return float(np.linalg.norm((G + mu * v).T @ lam))


@settings(max_examples=40, deadline=None)
@given(affine_max_branches())
def test_quadratic_ball_minimize_on_tie_flats_meets_fermat(problem):
    """A convex branch whose max-pieces are affine is solved exactly on the
    flats where they tie: every point of the clustered argmin lies in the
    ball and meets the Fermat rule 0 in grad + N_ball to 1e-9, with mu >= 0
    and mu (radius - ||v||) = 0, and the best value is never above that of
    the SLSQP multistart."""
    max_pieces, sum_pieces, A, b, radius = problem
    dim = len(b)
    assert solvers.affine_ties(max_pieces, sum_pieces, dim)
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


@pytest.mark.parametrize("pieces, sum_pieces, expect", [
    # crossing_max's pieces: different Hessians
    ([oracle.QuadraticPiece(2.0 * np.eye(2), [0.0, -2.0], 1.0),
      oracle.AffinePiece([0.0, 1.0])], [], False),
    # affine max-pieces over a concave sum
    ([oracle.AffinePiece([1.0, 0.0]), oracle.AffinePiece([-1.0, 0.0])],
     [oracle.QuadraticPiece(-np.eye(2))], False),
    # one shared Hessian, convex
    ([oracle.QuadraticPiece(2.0 * np.eye(2)),
      oracle.QuadraticPiece(2.0 * np.eye(2), [1.0, -1.0])], [], True),
    # one max-piece: today's trust-region solve, convex or not
    ([oracle.QuadraticPiece(-np.eye(2))], [], True)])
def test_affine_ties_predicate(pieces, sum_pieces, expect):
    assert solvers.affine_ties(pieces, sum_pieces, 2) is expect


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
