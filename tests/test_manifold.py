import json
import warnings

import numpy as np
import pytest

from vulab import manifold as mf
from vulab import oracle, tilt, ulagrangian as ug, vu

from conftest import crossing_selection


def test_trace_abs_plus_quad(apq_trace):
    assert np.max(np.abs(apq_trace.v_values)) <= 1e-10
    expect = apq_trace.u_nodes[:, 0] ** 2
    assert np.max(np.abs(apq_trace.f_values - expect)) <= 1e-10
    assert not apq_trace.boundary_flags.any()


def test_trace_crossing_matches_closed_form(crossing_trace):
    for u, v in zip(crossing_trace.u_nodes[:, 0], crossing_trace.v_values[:, 0]):
        assert abs(v - crossing_selection(u)) <= 1e-6


def test_trace_rejects_large_delta(apq_ctx):
    with pytest.raises(ValueError):
        mf.trace(apq_ctx, 5.0, 11)


def test_trace_requires_stability_when_supplied(abs_diff):
    poly = oracle.subdifferential_polytope(abs_diff, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2), eps=1.0)
    ctx = ug.ULagContext(model=abs_diff, frame=frame)
    verdict = tilt.tilt_stability_test(abs_diff, np.zeros(2), 1.0,
                                       grid_size=3)
    with pytest.raises(ValueError):
        mf.trace(ctx, 0.2, 7, stability=verdict)


def test_c11_check(apq_trace, apq_trace_fine, crossing_trace,
                   crossing_trace_fine):
    lip = mf.c11_check(apq_trace)
    assert abs(lip - 2.0) <= 1e-6  # z_U(u) = 2u
    lip_f = mf.c11_check(apq_trace_fine)
    assert abs(lip_f - lip) / lip <= 0.25
    lc = mf.c11_check(crossing_trace)
    # closed form sup |d/du (2u/sqrt(5-4u^2))| = 10/(5-4*0.15^2)^1.5 at the edge
    expect = 10.0 / (5.0 - 4.0 * 0.15**2) ** 1.5
    assert abs(lc - expect) <= 0.01
    lcf = mf.c11_check(crossing_trace_fine)
    assert abs(lcf - lc) / lc <= 0.25


def test_c11_full_space_quadratic():
    q = oracle.builtin("quadratic(diag(1,10))")
    poly = oracle.subdifferential_polytope(q, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2), eps=1.0)
    ctx = ug.ULagContext(model=q, frame=frame)
    tr = mf.trace(ctx, 0.2, 5)
    assert abs(mf.c11_check(tr) - 10.0) <= 1e-6


def test_grad_chain_check(apq_trace, crossing_trace):
    assert mf.grad_chain_check(apq_trace) <= 1e-8
    assert mf.grad_chain_check(crossing_trace) <= 1e-5


def test_grad_chain_mechanism_pointwise(crossing_trace):
    """Both generators pair with the tangent to the same value: the closed
    form 2u/sqrt(5-4u^2) (single-valued projected pairing)."""
    ctx = crossing_trace.ctx
    idx = int(np.argmin(np.abs(crossing_trace.u_nodes[:, 0] - 0.1)))
    u = crossing_trace.u_nodes[idx, 0]
    expect = 2 * abs(u) / np.sqrt(5 - 4 * u**2)
    point = ctx.point(crossing_trace.u_nodes[idx], crossing_trace.v_values[idx])
    gens = oracle.subdifferential_polytope(ctx.model, point).generators
    assert len(gens) == 2
    tangent = ctx.uprime_basis[:, 0] + ctx.vprime_basis @ \
        crossing_trace.dv_values[idx, :, 0]
    for s in gens:
        assert abs(abs(float(tangent @ s)) - expect) <= 1e-6


def test_taylor_lower(apq_trace, crossing_trace):
    assert mf.taylor_lower_check(apq_trace) >= -1e-9
    assert mf.taylor_lower_check(crossing_trace) >= -1e-9
    # inflating Q beyond the true curvature must produce a violation
    assert mf.taylor_lower_check(apq_trace, inflate=1.0) < -1e-9
    assert mf.taylor_lower_check(crossing_trace, inflate=1.0) < -1e-9


def test_dv_continuity(apq_trace, crossing_trace, crossing_trace_fine):
    assert mf.dv_continuity_check(apq_trace) <= 1e-10
    j = mf.dv_continuity_check(crossing_trace)
    j_fine = mf.dv_continuity_check(crossing_trace_fine)
    assert j > 0
    assert abs(j_fine / j - 0.5) <= 0.3 * 0.5  # refinement halves within 30%


def test_g_l_consistency(apq_trace, crossing_trace):
    assert mf.g_l_consistency(apq_trace) <= 1e-10
    assert mf.g_l_consistency(crossing_trace) <= 1e-10


def test_degenerate_trace(four_quadrant, four_quadrant_component):
    u2, _ = four_quadrant_component
    poly = oracle.subdifferential_polytope(four_quadrant, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2), eps=1.0)
    ctx = ug.ULagContext(model=four_quadrant, frame=frame, uprime_basis=u2)
    tr = mf.trace(ctx, 0.25, 31)
    assert len(tr.u_nodes) == 1
    assert np.linalg.norm(tr.v_values) <= 1e-8
    assert tr.f_values[0] == pytest.approx(0.0, abs=1e-12)
    # every check passes vacuously on the single node
    assert mf.c11_check(tr) == 0.0
    assert mf.grad_chain_check(tr) == 0.0
    assert mf.taylor_lower_check(tr) >= -1e-9
    assert mf.dv_continuity_check(tr) == 0.0
    assert mf.g_l_consistency(tr) <= 1e-12


def test_boundary_shrink_and_retry(crossing):
    poly = oracle.subdifferential_polytope(crossing,
                                           crossing.meta["default_base_point"])
    frame = vu.decompose(poly, np.zeros(2), eps=0.3)
    ctx = ug.ULagContext(model=crossing, frame=frame, eps_v=0.002)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tr = mf.trace(ctx, 0.15, 9)
    # v(0.15) ~ 0.0101 > eps_v forces at least one halving of delta
    assert tr.delta < 0.15
    assert not tr.boundary_flags.any()


def test_envelope_agreement_on_trace(crossing_trace):
    from vulab import envelope
    ctx = crossing_trace.ctx
    resid, spacing = envelope.envelope_agreement_check(
        ctx.model, ctx.frame, crossing_trace.frame_coordinates()[::6],
        resolution=61)
    slope_scale = 1.0 + 2.5  # max subgradient norm near the crossing
    assert resid <= 2.0 * spacing * slope_scale


@pytest.fixture(scope="module")
def crossing3_ctx(tmp_path_factory):
    """The 3-D crossing model f = max{x1^2 + x2^2 + (x3 - 1)^2, x3} at
    (0, 0, (3 - sqrt 5)/2), loaded from JSON: dim U = 2 and dim V' = 1 with
    v(u) = (sqrt 5 - sqrt(5 - 4|u|^2))/2."""
    problem = {"dim": 3, "kind": "max_of_smooth", "name": "crossing_max3",
               "pieces": [{"type": "quadratic", "A": (2.0 * np.eye(3)).tolist(),
                           "b": [0.0, 0.0, -2.0], "c": 1.0},
                          {"type": "affine", "a": [0.0, 0.0, 1.0]}]}
    path = tmp_path_factory.mktemp("problems") / "crossing_max3.json"
    path.write_text(json.dumps(problem))
    model = oracle.load_problem(str(path))
    base = np.array([0.0, 0.0, (3.0 - np.sqrt(5.0)) / 2.0])
    poly = oracle.subdifferential_polytope(model, base)
    ctx = ug.ULagContext(model=model,
                         frame=vu.decompose(poly, np.zeros(3), eps=0.3))
    assert (ctx.dim_uprime, ctx.dim_vprime) == (2, 1)
    return ctx


def test_dv_on_a_two_dimensional_component(crossing3_ctx):
    """The trace's dv matches grad v = 2u / sqrt(5 - 4|u|^2) at every
    lattice node, so the chain rule holds (nearest-neighbour quotients of v
    read 0.021 here)."""
    ctx = crossing3_ctx
    tr = mf.trace(ctx, 0.075, 5)
    assert len(tr.u_nodes) == 13
    U, e3 = ctx.uprime_basis[:2], ctx.vprime_basis[2, 0]
    for u, v, dv in zip(tr.u_nodes, tr.v_values, tr.dv_values):
        x = U @ u
        r = np.sqrt(5.0 - 4.0 * float(x @ x))
        assert abs(e3 * v[0] - (np.sqrt(5.0) - r) / 2.0) <= 1e-14
        assert np.max(np.abs(dv[0] - e3 * (U.T @ (2.0 * x / r)))) <= 1e-8
    assert mf.grad_chain_check(tr) <= 1e-5


def test_selection_jacobian_one_sided_at_the_ball_edge(crossing_ctx):
    """Where u + h leaves the U'-ball the difference turns one-sided and
    keeps O(h^2) accuracy."""
    for u in (0.3, -0.3, 0.2):
        dv = mf._selection_jacobian(crossing_ctx, np.array([u]))
        expect = 2.0 * u / np.sqrt(5.0 - 4.0 * u * u)
        assert abs(abs(dv[0, 0]) - abs(expect)) <= 1e-8


def test_dv_continuity_on_a_two_dimensional_component(crossing3_ctx):
    """The dv jump between lattice neighbours is positive on the curved
    3-D crossing selection and halves when the spacing does."""
    jump = mf.dv_continuity_check(mf.trace(crossing3_ctx, 0.075, 7))
    jump_fine = mf.dv_continuity_check(mf.trace(crossing3_ctx, 0.075, 13))
    assert jump > 1e-3
    assert abs(jump_fine / jump - 0.5) <= 0.3 * 0.5
