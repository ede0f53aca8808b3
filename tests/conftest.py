"""Shared fixtures: models, frames and the expensive traces/profiles reused
across test modules (session scoped so the suite stays under its time box)."""

import warnings

import numpy as np
import pytest

from vulab import manifold, oracle, subjets, ulagrangian, vu

SQRT5 = np.sqrt(5.0)


def golden_min(fun, lo, hi, tol=1e-10):
    """Golden-section minimizer for unimodal 1-D functions (test oracle)."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


# The 3-D crossing f = max{||x||^2 - 2 x3 + 1, x3} as problem JSON, and its
# base point (0, 0, (3 - sqrt 5)/2), where the two pieces tie.
CROSSING3_PROBLEM = {"dim": 3, "kind": "max_of_smooth", "name": "crossing_max3",
                     "pieces": [{"type": "quadratic",
                                 "A": (2.0 * np.eye(3)).tolist(),
                                 "b": [0.0, 0.0, -2.0], "c": 1.0},
                                {"type": "affine", "a": [0.0, 0.0, 1.0]}]}
CROSSING3_BASE = [0.0, 0.0, (3.0 - SQRT5) / 2.0]


def crossing_selection(u):
    """Closed-form selection for the quadratic/affine crossing model."""
    return (SQRT5 - np.sqrt(5.0 - 4.0 * u**2)) / 2.0


def frame_context(model, frame, uprime_basis=None, eps_v=None):
    """ULagContext on the frame's own U basis and eps unless given."""
    return ulagrangian.ULagContext(
        model=model, frame=frame,
        uprime_basis=frame.u_basis if uprime_basis is None else uprime_basis,
        eps_v=frame.eps if eps_v is None else eps_v)


def neg_norm_squared():
    """Custom concave model f(x) = -||x||^2 with its exact minorant."""
    return oracle.FunctionModel(
        dim=2, kind="max_of_smooth",
        pieces=[oracle.QuadraticPiece(-2.0 * np.eye(2))],
        flags=oracle.Flags(convex=False, quadratic_minorant=(0.0, 2.0)),
        name="neg_norm_squared")


@pytest.fixture(scope="session")
def abs_diff():
    return oracle.builtin("abs_diff")


@pytest.fixture(scope="session")
def crossing():
    return oracle.builtin("crossing_max")


@pytest.fixture(scope="session")
def abs_plus_quad():
    return oracle.builtin("abs_plus_quad")


@pytest.fixture(scope="session")
def four_quadrant():
    return oracle.builtin("four_quadrant_max")


def _zero_anchor_frame(model, eps):
    base = model.meta["default_base_point"]
    poly = oracle.subdifferential_polytope(model, base)
    return vu.decompose(poly, np.zeros(model.dim), eps=eps)


@pytest.fixture(scope="session")
def crossing_ctx(crossing):
    frame = _zero_anchor_frame(crossing, eps=0.3)
    return frame_context(model=crossing, frame=frame)


@pytest.fixture(scope="session")
def apq_ctx(abs_plus_quad):
    frame = _zero_anchor_frame(abs_plus_quad, eps=1.0)
    return frame_context(model=abs_plus_quad, frame=frame)


@pytest.fixture(scope="session")
def crossing_trace(crossing_ctx):
    return manifold.trace(crossing_ctx, 0.15, 31)


@pytest.fixture(scope="session")
def crossing_trace_fine(crossing_ctx):
    return manifold.trace(crossing_ctx, 0.15, 61)


@pytest.fixture(scope="session")
def apq_trace(apq_ctx):
    return manifold.trace(apq_ctx, 0.3, 31)


@pytest.fixture(scope="session")
def apq_trace_fine(apq_ctx):
    return manifold.trace(apq_ctx, 0.3, 61)


@pytest.fixture(scope="session")
def abs_diff_component(abs_diff):
    return subjets.second_order_component(abs_diff, np.zeros(2), np.zeros(2))


@pytest.fixture(scope="session")
def four_quadrant_component(four_quadrant):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return subjets.second_order_component(four_quadrant, np.zeros(2),
                                              np.zeros(2))


@pytest.fixture(scope="session")
def apq_component(abs_plus_quad):
    return subjets.second_order_component(abs_plus_quad, np.zeros(2),
                                          np.zeros(2))
