import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulab import oracle, solvers
from vulab.errors import SolverBudgetExceeded


def scalar_polish(fun, x0, center, radius, step, floor):
    """Reference: the one-candidate-at-a-time compass scan that
    solvers.pattern_polish batches, with the same move cap."""
    offs = solvers._offset_lattice(len(x0))[1:]
    x = np.array(x0, dtype=float)
    fx = fun(x)
    s = step
    moves = 0
    while s > floor:
        improved = False
        for d in offs:
            cand = x + s * d
            r = np.linalg.norm(cand - center)
            if r > radius:
                cand = center + (cand - center) * (radius / r)
            fc = fun(cand)
            if fc < fx - 1e-18:
                x, fx = cand, fc
                improved = True
                moves += 1
                if moves >= solvers.POLISH_MAX_MOVES:
                    return x, fx, True
        if not improved:
            s *= 0.25
    return x, fx, False


def tilted(model, z):
    """The tilt objective in its batched and its scalar form."""
    def batched(X):
        return oracle.evaluate_many(model, X) - np.vecdot(z, X)

    def scalar(x):
        return oracle.evaluate(model, x) - float(z @ x)
    return batched, scalar


def assert_bits_equal(got, expect):
    got = np.asarray(got, dtype=float)
    expect = np.asarray(expect, dtype=float)
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


_coef = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def polish_problems(draw):
    """A max of quadratic and affine pieces in R^n (n = 1..3), a tilt, a
    ball, and a start on the ball's edge, so candidates leave the ball and
    are projected back."""
    n = draw(st.integers(1, 3))
    vec = st.lists(_coef, min_size=n, max_size=n).map(np.array)
    pieces = []
    for kind in draw(st.lists(st.sampled_from(["quadratic", "affine"]),
                              min_size=1, max_size=3)):
        if kind == "quadratic":
            B = np.array(draw(st.lists(vec, min_size=n, max_size=n)))
            pieces.append(oracle.QuadraticPiece(B @ B.T, draw(vec),
                                                draw(_coef)))
        else:
            pieces.append(oracle.AffinePiece(draw(vec), draw(_coef)))
    model = oracle.FunctionModel(dim=n, kind="max_of_smooth", pieces=pieces)
    center = draw(vec)
    radius = draw(st.floats(0.05, 2.0))
    d = draw(vec.filter(lambda v: np.linalg.norm(v) > 1e-3))
    x0 = center + radius * d / np.linalg.norm(d)
    return model, draw(vec) * 0.1, center, radius, x0


@settings(max_examples=120, deadline=None)
@given(polish_problems(), st.sampled_from([(1e-6, 1e-15), (1e-2, 1e-9)]))
def test_batched_polish_matches_scalar_scan(problem, steps):
    model, z, center, radius, x0 = problem
    batched, scalar = tilted(model, z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        x, fx, capped = solvers.pattern_polish(batched, x0, center, radius,
                                               *steps)
    rx, rfx, rcapped = scalar_polish(scalar, x0, center, radius, *steps)
    assert_bits_equal(x, rx)
    assert_bits_equal(fx, rfx)
    assert capped == rcapped


@pytest.mark.parametrize("name", ["crossing_max", "abs_plus_quad",
                                  "quadratic(I3)"])
def test_batched_polish_on_builtins(name):
    model = oracle.builtin(name)
    n = model.dim
    center = model.meta["default_base_point"]
    batched, scalar = tilted(model, np.full(n, 0.03))
    for k in range(n):
        x0 = center.copy()
        x0[k] += 0.5                       # on the edge of the 0.5-ball
        got = solvers.pattern_polish(batched, x0, center, 0.5, 1e-2, 1e-15)
        ref = scalar_polish(scalar, x0, center, 0.5, 1e-2, 1e-15)
        assert_bits_equal(got[0], ref[0])
        assert_bits_equal(got[1], ref[1])
        assert not got[2]


def test_polish_move_cap():
    """A concave objective sends the polish crawling towards the sphere in
    steps of 1e-6: it stops at the cap, warns and flags the result."""
    model = oracle.builtin("quadratic(-I)")
    batched, _ = tilted(model, np.zeros(2))
    x0 = np.array([0.1, 0.0])
    with pytest.warns(SolverBudgetExceeded):
        x, fx, capped = solvers.pattern_polish(batched, x0, np.zeros(2), 1.0,
                                               1e-6, 1e-15)
    assert capped
    assert fx < oracle.evaluate(model, x0)
    assert np.linalg.norm(x) < 0.2


def test_minimize_branches_records_polish_values(crossing):
    """The recorded values are the objective at the recorded points, bit for
    bit, without a second evaluation."""
    batched, _ = tilted(crossing, np.zeros(2))
    center = crossing.meta["default_base_point"]
    res = solvers.minimize_branches(crossing.solver_branches(), batched,
                                    center, 0.3)
    assert not res.approximate
    assert_bits_equal(res.values, batched(res.points))
    unpolished = solvers.minimize_branches(
        crossing.solver_branches(), batched, center, 0.3,
        solvers.SolverConfig(polish=False))
    assert_bits_equal(unpolished.values, batched(unpolished.points))


def test_minimize_branches_nelder_mead_fallback(four_quadrant):
    """A model without branches goes through Nelder-Mead on single rows."""
    opaque = oracle.FunctionModel(dim=2, kind="custom",
                                  value_fn=four_quadrant.value_fn)
    batched, _ = tilted(opaque, np.zeros(2))
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
def test_line_minimize_beats_a_fine_grid(problem):
    """The closed-form candidates contain a global minimizer on the
    interval, and the cluster rule then picks the smallest-norm candidate
    within cluster_tol."""
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
    near = np.abs(res.points[res.values <= best + cluster_tol, 0])
    assert abs(reps[0][0]) == near.min()


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
