import warnings

import numpy as np
import pytest

from vulab import (envelope, manifold, oracle, solvers, subjets, tilt,
                   ulagrangian, vu)
from vulab.errors import SolverBudgetExceeded

from conftest import neg_norm_squared


def brute_tilt_argmin(model, base, eps, z, per_axis=161):
    """Dense-grid oracle for the tilted argmin over the ball."""
    axes = np.linspace(-eps, eps, per_axis)
    best, pts = np.inf, []
    for a in axes:
        for b in axes:
            x = base + np.array([a, b])
            if np.linalg.norm(x - base) > eps:
                continue
            val = oracle.evaluate(model, x) - float(z @ x)
            if val < best - 1e-12:
                best, pts = val, [x]
            elif val <= best + 1e-9:
                pts.append(x)
    return best, np.array(pts)


def test_tilt_map_quadratic():
    m = oracle.builtin("quadratic(I2)")
    res = tilt.tilt_map(m, np.zeros(2), 1.0, np.array([0.1, 0.2]))
    assert res.single_valued
    assert np.allclose(res.minimizer, [0.1, 0.2], atol=1e-9)


def reference_tilt_map(model, base_point, eps, z):
    """Reference: the tilt map in absolute coordinates, with the model's own
    branch cover plus the tilt piece and the objective f(X) - z.X, centred at
    base_point."""
    tilt_piece = oracle.AffinePiece(-z)
    branches = model.solver_branches()
    if branches is not None:
        branches = [(mp, sp + [tilt_piece]) for mp, sp in branches]

    def objective(X):
        return oracle.evaluate_many(model, X) - np.vecdot(z, X)

    res = solvers.minimize_branches(branches, objective, base_point, eps)
    reps, best = solvers.cluster_minimizers(
        res.points, res.values, 1e-9 * (1.0 + abs(float(res.values.min()))),
        1e-6 * eps)
    return reps, best, res.approximate


@pytest.mark.filterwarnings("ignore::vulab.errors.SolverBudgetExceeded")
def test_tilt_map_matches_absolute_reference(abs_diff, abs_plus_quad,
                                             four_quadrant, crossing):
    """The ball solve in coordinates relative to the base point reproduces
    the absolute-coordinate tilt map bit for bit where the base point is the
    origin, and within 1e-8 on crossing_max, whose base point is not.  The
    tilted four_quadrant_max probes hit the polish move cap on both sides,
    so their approximate flags are compared too."""
    tilts = [np.zeros(2), np.array([0.03, -0.02]), np.array([-0.05, 0.05])]
    for model in (abs_diff, abs_plus_quad, oracle.builtin("quadratic(I)"),
                  four_quadrant):
        for z in tilts:
            res = tilt.tilt_map(model, np.zeros(2), 1.0, z)
            reps, best, approximate = reference_tilt_map(model, np.zeros(2),
                                                         1.0, z)
            assert repr(res.minimizers.tolist()) == repr(reps.tolist())
            assert repr(res.value) == repr(best)
            assert res.approximate == approximate
    base = crossing.meta["default_base_point"]
    for z in tilts:
        res = tilt.tilt_map(crossing, base, 0.3, 0.1 * z)
        reps, best, approximate = reference_tilt_map(crossing, base, 0.3,
                                                     0.1 * z)
        assert res.minimizers.shape == reps.shape
        assert np.max(np.abs(res.minimizers - reps)) <= 1e-8
        assert abs(res.value - best) <= 1e-8
        assert res.approximate == approximate


def test_tilt_map_abs_diff_flat(abs_diff):
    res = tilt.tilt_map(abs_diff, np.zeros(2), 1.0, np.zeros(2))
    assert not res.single_valued
    # every reported minimizer lies on the diagonal kernel and attains 0
    for p in res.minimizers:
        assert abs(p[0] - p[1]) <= 1e-8
    assert abs(res.value) <= 1e-12
    # brute-force grid confirms a flat argmin set along x = y
    best, pts = brute_tilt_argmin(abs_diff, np.zeros(2), 1.0, np.zeros(2),
                                  per_axis=81)
    assert abs(best) <= 1e-12
    assert len(pts) > 10 and np.all(np.abs(pts[:, 0] - pts[:, 1]) < 1e-9)


def test_tilt_map_abs_plus_quad(abs_plus_quad):
    # closed form: u* = z_U/2 in the smooth direction, soft-threshold kills z_V
    res = tilt.tilt_map(abs_plus_quad, np.zeros(2), 1.0, np.array([0.1, 0.1]))
    assert res.single_valued
    assert np.allclose(res.minimizer, [0.05, 0.05], atol=1e-8)
    best, pts = brute_tilt_argmin(abs_plus_quad, np.zeros(2), 1.0,
                                  np.array([0.1, 0.1]), per_axis=81)
    assert np.linalg.norm(pts.mean(axis=0) - [0.05, 0.05]) <= 0.03


def test_probe_result_invariants(abs_diff):
    res = tilt.tilt_map(abs_diff, np.zeros(2), 1.0, np.zeros(2))
    cluster_tol = 1e-9 * (1.0 + abs(res.value))
    for p in res.minimizers:
        assert oracle.evaluate(abs_diff, p) - 0.0 <= res.value + cluster_tol
    for i in range(len(res.minimizers)):
        for j in range(i + 1, len(res.minimizers)):
            assert np.linalg.norm(res.minimizers[i]
                                  - res.minimizers[j]) >= 1e-6 * 1.0
    # smallest-norm representative first (deterministic tie-break)
    norms = [np.linalg.norm(p) for p in res.minimizers]
    assert norms[0] == min(norms)


def test_stability_verdicts(abs_plus_quad, abs_diff):
    v = tilt.tilt_stability_test(abs_plus_quad, np.zeros(2), 1.0)
    assert v.stable and v.status == "stable"
    assert v.lipschitz_estimate <= 0.5 + 1e-3
    v2 = tilt.tilt_stability_test(abs_diff, np.zeros(2), 1.0)
    assert not v2.stable and v2.status == "unstable"
    assert np.allclose(v2.witness, 0.0)
    v3 = tilt.tilt_stability_test(oracle.builtin("quadratic(diag(1,10))"),
                                  np.zeros(2), 1.0)
    assert v3.stable
    assert abs(v3.lipschitz_estimate - 1.0) <= 1e-6


def test_stability_center_anchored(abs_plus_quad, crossing):
    for model in (abs_plus_quad, crossing):
        base = model.meta["default_base_point"]
        eps = model.meta["default_radius"]
        v = tilt.tilt_stability_test(model, base, eps)
        assert v.stable
        zero_probe = next(p for p in v.probes if np.linalg.norm(p.z) < 1e-14)
        assert np.linalg.norm(zero_probe.minimizer - base) <= 1e-8


def pair_loop_quotient(X, Y):
    """Reference: the nested pair loop that solvers.max_difference_quotient
    replaces by an array form."""
    best = 0.0
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            dx = np.linalg.norm(X[i] - X[j])
            if dx < 1e-14:
                continue
            best = max(best, np.linalg.norm(Y[i] - Y[j]) / dx)
    return best


def pairwise_statistics(probes):
    """Reference: the nested pair loops that lipschitz_estimate and
    monotonicity_margin replace by array forms."""
    mono = np.inf
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            p, q = probes[i], probes[j]
            mono = min(mono, float((p.minimizer - q.minimizer) @ (p.z - q.z)))
    lip = pair_loop_quotient([p.z for p in probes],
                             [p.minimizer for p in probes])
    return lip, mono


def test_tilt_map_statistics_match_pair_loops(abs_plus_quad, crossing,
                                              apq_trace, crossing_trace,
                                              crossing_ctx):
    for model in (abs_plus_quad, crossing):
        v = tilt.tilt_stability_test(model, model.meta["default_base_point"],
                                     model.meta["default_radius"])
        lip, mono = pairwise_statistics(v.probes)
        assert repr(v.lipschitz_estimate) == repr(float(lip))
        assert repr(tilt.monotonicity_margin(v.probes)) == repr(mono)
    # repeated tilts are skipped by the quotient but not by the margin
    rng = np.random.default_rng(5)
    z = np.round(rng.uniform(-0.1, 0.1, size=(40, 3)), 2)
    z[20:] = z[:20]
    probes = [tilt.TiltProbeResult(z=zi, minimizers=rng.normal(size=(1, 3)),
                                   value=0.0, single_valued=True) for zi in z]
    lip, mono = pairwise_statistics(probes)
    assert repr(tilt.lipschitz_estimate(probes)) == repr(float(lip))
    assert repr(tilt.monotonicity_margin(probes)) == repr(mono)
    assert tilt.lipschitz_estimate(probes[:1]) == 0.0
    assert tilt.monotonicity_margin(probes[:1]) == np.inf
    # c11_check and lipschitz_gradient_bound share the quotient kernel, on
    # 1-D traces and on a 2-D one
    q = oracle.builtin("quadratic(diag(1,10))")
    poly = oracle.subdifferential_polytope(q, np.zeros(2))
    ctx2 = ulagrangian.ULagContext(
        model=q, frame=vu.decompose(poly, np.zeros(2), eps=1.0))
    for tr in (apq_trace, crossing_trace, manifold.trace(ctx2, 0.2, 5)):
        expect = pair_loop_quotient(tr.u_nodes, tr.z_u_values)
        assert repr(manifold.c11_check(tr)) == repr(float(expect))
    grid = [np.array([t]) for t in np.linspace(-0.1, 0.1, 9)]
    grads = [ulagrangian.grad_l(crossing_ctx, u, validate=False) for u in grid]
    assert (repr(ulagrangian.lipschitz_gradient_bound(crossing_ctx, grid))
            == repr(float(pair_loop_quotient(grid, grads))))


def test_tilt_map_capped_polish_is_approximate():
    """On quadratic(-I) the polish crawls towards the sphere; it stops at its
    move cap and the probe is approximate rather than a wrong answer."""
    with pytest.warns(SolverBudgetExceeded):
        res = tilt.tilt_map(oracle.builtin("quadratic(-I)"), np.zeros(2), 1.0,
                            np.zeros(2))
    assert res.approximate


def test_tilt_map_monotone_for_convex(abs_plus_quad):
    v = tilt.tilt_stability_test(abs_plus_quad, np.zeros(2), 1.0,
                                 tilt_radius=0.1, grid_size=5)
    for i, p in enumerate(v.probes):
        for q in v.probes[i + 1:]:
            assert float((p.minimizer - q.minimizer) @ (p.z - q.z)) >= -1e-10


def test_convexification_consistency(abs_plus_quad):
    """argmin of co h - <., z> over the grid equals m_f(z) - base within the
    grid resolution (the hidden convexification at work)."""
    from vulab import vu
    poly = oracle.subdifferential_polytope(abs_plus_quad, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2), eps=1.0)
    gf = envelope.anchored_grid(abs_plus_quad, frame, resolution=81)
    ce = envelope.convex_envelope(gf)
    z = np.array([0.1, 0.1])
    z_coords = np.concatenate([frame.u_basis.T @ z, frame.v_basis.T @ z])
    nodes = ce.nodes()
    scores = ce.values.ravel() - nodes @ z_coords
    w = nodes[int(np.argmin(scores))]
    world = frame.u_basis @ w[:1] + frame.v_basis @ w[1:]
    m = tilt.tilt_map(abs_plus_quad, np.zeros(2), 1.0, z).minimizer
    assert np.linalg.norm(world - m) <= float(np.max(gf.spacing())) + 1e-12


def test_prox_regularity(abs_plus_quad, abs_diff, crossing):
    assert tilt.prox_regularity_test(abs_diff, np.zeros(2), np.zeros(2),
                                     0.5) == 0.0
    assert tilt.prox_regularity_test(abs_plus_quad, np.zeros(2), np.zeros(2),
                                     0.5) == 0.0
    base = crossing.meta["default_base_point"]
    assert tilt.prox_regularity_test(crossing, base, np.zeros(2), 0.3) == 0.0
    # f(x) = -||x||^2 satisfies the inequality exactly at r = 2
    neg = neg_norm_squared()
    assert tilt.prox_regularity_test(neg, np.zeros(2), np.zeros(2),
                                     0.5) == 2.0


def test_quadratic_minorant(abs_diff):
    assert tilt.quadratic_minorant_test(abs_diff, np.zeros(2)) == (0.0, 0.0)
    assert tilt.quadratic_minorant_test(oracle.builtin("quadratic(I2)"),
                                        np.zeros(2)) == (0.0, 0.0)
    neg = neg_norm_squared()
    alpha, r_hat = tilt.quadratic_minorant_test(neg, np.zeros(2))
    assert alpha == 0.0 and r_hat == 2.0


def test_quadratic_minorant_one_dimensional():
    ab = oracle.builtin("huber_source_abs")
    out = tilt.quadratic_minorant_test(ab, np.zeros(1))
    assert out == (0.0, 0.0)


def test_strict_order2(abs_plus_quad, abs_diff):
    grid = np.round(np.arange(0.0, 1.51, 0.05), 10)
    # 0.5||x||^2 >= beta ||x||^2 iff beta <= 0.5
    assert tilt.strict_order2_test(oracle.builtin("quadratic(I2)"),
                                   np.zeros(2), np.zeros(2), 0.5, grid) == 0.5
    b = tilt.strict_order2_test(abs_plus_quad, np.zeros(2), np.zeros(2), 0.5,
                                grid)
    assert b >= 1.0 - 1e-9
    assert tilt.strict_order2_test(abs_diff, np.zeros(2), np.zeros(2), 0.5,
                                   grid[grid > 0]) is None


def test_hessian_criterion_matches_order2(abs_plus_quad):
    """Sampled-Hessian criterion on the envelope vs the strict order-2 beta
    under the quadratic identification lambda_min = 2 beta (within 20%)."""
    env = subjets.moreau_model(abs_plus_quad, 1.0)
    bundle = subjets.limiting_hessians(env, np.zeros(2), np.zeros(2),
                                       radii=(0.1, 0.05), n_dirs=8)
    lam_min = subjets.tilt_criterion_c11(bundle)
    beta = tilt.strict_order2_test(env, np.zeros(2), np.zeros(2), 0.3,
                                   np.round(np.arange(0, 1.01, 0.01), 10))
    assert abs(lam_min - 2.0 * beta) <= 0.2 * lam_min


def test_solver_budget_flagged(abs_plus_quad, monkeypatch):
    monkeypatch.setattr(solvers, "MAX_ITERS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        with pytest.warns(SolverBudgetExceeded):
            res = tilt.tilt_map(abs_plus_quad, np.zeros(2), 1.0,
                                np.array([0.3, -0.2]))
    assert res.approximate
    assert res.minimizers.shape[0] >= 1


def test_stability_requires_critical_base(abs_plus_quad):
    with pytest.raises(ValueError):
        tilt.tilt_stability_test(abs_plus_quad, np.array([2.0, 2.0]), 0.5)
