import json
import warnings

import numpy as np
import pytest

from vulab import (cli, envelope, manifold, oracle, solvers, subjets, tilt,
                   ulagrangian, vu)
from vulab.errors import SolverBudgetExceeded

from conftest import (CROSSING3_BASE, CROSSING3_PROBLEM, frame_context,
                      neg_norm_squared)


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


@pytest.mark.filterwarnings("error::vulab.errors.SolverBudgetExceeded")
def test_tilt_map_matches_absolute_reference(abs_diff, abs_plus_quad,
                                             four_quadrant, crossing):
    """The ball solve in coordinates relative to the base point reproduces
    the absolute-coordinate multistart tilt map bit for bit on
    four_quadrant_max, whose base point is the origin.  crossing_max,
    whose base point is not, is solved exactly on the sphere where its
    isotropic pieces tie, within 1e-8 of the multistart.  The approximate
    flags are compared too.  quadratic(I) is one quadratic, solved exactly: x(z) = z
    with value -1/2 ||z||^2.  abs_diff and abs_plus_quad are convex with
    max-pieces that differ by affine terms, solved exactly on the flats
    where they tie: the best value is never above the multistart's, and
    both agree on whether the argmin is single-valued."""
    tilts = [np.zeros(2), np.array([0.03, -0.02]), np.array([-0.05, 0.05])]
    for z in tilts:
        res = tilt.tilt_map(oracle.builtin("quadratic(I)"), np.zeros(2), 1.0,
                            z)
        assert repr(res.minimizers.tolist()) == repr([z.tolist()])
        assert repr(res.value) == repr(0.0 - 0.5 * float(z @ z))
        assert not res.approximate
    for z in tilts:
        res = tilt.tilt_map(four_quadrant, np.zeros(2), 1.0, z)
        reps, best, approximate = reference_tilt_map(four_quadrant,
                                                     np.zeros(2), 1.0, z)
        assert repr(res.minimizers.tolist()) == repr(reps.tolist())
        assert repr(res.value) == repr(best)
        assert res.approximate == approximate
    for model in (abs_diff, abs_plus_quad):
        for z in tilts:
            res = tilt.tilt_map(model, np.zeros(2), 1.0, z)
            reps, best, approximate = reference_tilt_map(model, np.zeros(2),
                                                         1.0, z)
            assert res.value <= best + 1e-12 * (1.0 + abs(res.value))
            assert res.single_valued == (len(reps) == 1)
            assert not res.approximate and not approximate
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
    v = tilt.tilt_stability_test(abs_plus_quad, np.zeros(2), 1.0, 0.1)
    assert v.stable and v.status == "stable"
    assert v.lipschitz_estimate <= 0.5 + 1e-3
    v2 = tilt.tilt_stability_test(abs_diff, np.zeros(2), 1.0, 0.1)
    assert not v2.stable and v2.status == "unstable"
    assert np.allclose(v2.witness, 0.0)
    v3 = tilt.tilt_stability_test(oracle.builtin("quadratic(diag(1,10))"),
                                  np.zeros(2), 1.0, 0.1)
    assert v3.stable
    assert abs(v3.lipschitz_estimate - 1.0) <= 1e-6


def test_stability_center_anchored(abs_plus_quad, crossing):
    for model in (abs_plus_quad, crossing):
        base = model.meta["default_base_point"]
        eps = model.meta["default_radius"]
        v = tilt.tilt_stability_test(model, base, eps, eps / 10.0)
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
        eps = model.meta["default_radius"]
        v = tilt.tilt_stability_test(model, model.meta["default_base_point"],
                                     eps, eps / 10.0)
        lip, mono = pairwise_statistics(v.probes)
        assert repr(v.lipschitz_estimate) == repr(float(lip))
        assert repr(tilt.monotonicity_margin(v.probes)) == repr(mono)
    # repeated tilts are skipped by the quotient but not by the margin
    rng = np.random.default_rng(5)
    z = np.round(rng.uniform(-0.1, 0.1, size=(40, 3)), 2)
    z[20:] = z[:20]
    probes = [tilt.TiltProbeResult(z=zi, minimizers=rng.normal(size=(1, 3)),
                                   value=0.0) for zi in z]
    lip, mono = pairwise_statistics(probes)
    assert repr(tilt.lipschitz_estimate(probes)) == repr(float(lip))
    assert repr(tilt.monotonicity_margin(probes)) == repr(mono)
    assert tilt.lipschitz_estimate(probes[:1]) == 0.0
    assert tilt.monotonicity_margin(probes[:1]) == np.inf
    # c11_check and lipschitz_gradient_bound share the quotient kernel, on
    # 1-D traces and on a 2-D one
    q = oracle.builtin("quadratic(diag(1,10))")
    poly = oracle.subdifferential_polytope(q, np.zeros(2))
    ctx2 = frame_context(
        model=q, frame=vu.decompose(poly, np.zeros(2), eps=1.0))
    for tr in (apq_trace, crossing_trace, manifold.trace(ctx2, 0.2, 5)):
        expect = pair_loop_quotient(tr.u_nodes, tr.z_u_values)
        assert repr(manifold.c11_check(tr)) == repr(float(expect))
    grid = [np.array([t]) for t in np.linspace(-0.1, 0.1, 9)]
    grads = [ulagrangian.grad_l(crossing_ctx, u, validate=False) for u in grid]
    assert (repr(ulagrangian.lipschitz_gradient_bound(crossing_ctx, grid))
            == repr(float(pair_loop_quotient(grid, grads))))


def test_tilt_map_monotone_for_convex(abs_plus_quad, monkeypatch):
    monkeypatch.setattr(tilt, "TILTS_PER_AXIS", 5)
    v = tilt.tilt_stability_test(abs_plus_quad, np.zeros(2), 1.0, 0.1)
    for i, p in enumerate(v.probes):
        for q in v.probes[i + 1:]:
            assert float((p.minimizer - q.minimizer) @ (p.z - q.z)) >= -1e-10


def test_convexification_consistency(abs_plus_quad):
    """The grid argmin w of h - <., z> is where co h touches h, so it also
    minimizes co h - <., z>, and w equals m_f(z) - base within the grid
    resolution (the hidden convexification at work)."""
    from vulab import vu
    poly = oracle.subdifferential_polytope(abs_plus_quad, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2), eps=1.0)
    gf = envelope.anchored_grid(abs_plus_quad, frame, resolution=81)
    z = np.array([0.1, 0.1])
    z_coords = np.concatenate([frame.u_basis.T @ z, frame.v_basis.T @ z])
    nodes = gf.nodes()
    scores = gf.values.ravel() - nodes @ z_coords
    best = int(np.argmin(scores))
    w = nodes[best]
    assert abs(envelope.envelope_at(gf, w) - gf.values.ravel()[best]) <= 1e-12
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


def test_solver_budget_flagged(monkeypatch):
    """max{1/2 x1^2 + x2^2, x2} has max-pieces with different, anisotropic
    Hessians, so its tilt probe runs the SLSQP multistart, and a budget of
    one iteration flags it."""
    model = oracle.FunctionModel(
        dim=2, kind="max_of_smooth",
        pieces=[oracle.QuadraticPiece(np.diag([1.0, 2.0])),
                oracle.AffinePiece([0.0, 1.0])])
    monkeypatch.setattr(solvers, "MAX_ITERS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        with pytest.warns(SolverBudgetExceeded):
            res = tilt.tilt_map(model, np.zeros(2), 0.3,
                                np.array([0.03, -0.02]))
    assert res.approximate
    assert res.minimizers.shape[0] >= 1


def test_stability_requires_critical_base(abs_plus_quad):
    with pytest.raises(ValueError):
        tilt.tilt_stability_test(abs_plus_quad, np.array([2.0, 2.0]), 0.5,
                                 0.05)


BUILTINS = ["abs_diff", "four_quadrant_max", "crossing_max", "abs_plus_quad",
            "huber_source_abs", "quadratic(I)", "quadratic(I3)",
            "quadratic(-I)", "quadratic(diag(1,10))"]


def scalar_prox_worst(model, base_point, anchor_z, eps):
    """Reference: the per-point loop of prox_regularity_test, one evaluate
    call per sample point."""
    f_base = oracle.evaluate(model, base_point)
    pts = base_point + solvers.ball_lattice(model.dim, eps,
                                            tilt.PROX_SAMPLE_PER_AXIS)
    triples = []
    for x in pts:
        fx = oracle.evaluate(model, x)
        if abs(fx - f_base) > eps:
            continue
        gens = oracle.subdifferential_polytope(model, x).generators
        for z in solvers.hull_point_candidates(gens):
            if np.linalg.norm(z - anchor_z) <= eps:
                triples.append((x, fx, z))
    if not triples:
        return None
    worst = -np.inf
    for xp in pts:
        fxp = oracle.evaluate(model, xp)
        for x, fx, z in triples:
            d2 = float(np.sum((xp - x) ** 2))
            if d2 >= 1e-20:
                worst = max(worst, 2.0 * (fx + float(z @ (xp - x)) - fxp) / d2)
    return worst


def scalar_minorant_worst(model, base_point):
    """Reference: the per-point loop of quadratic_minorant_test."""
    alpha = oracle.evaluate(model, base_point)
    axes = [np.linspace(base_point[i] - tilt.MINORANT_BOX_HALF,
                        base_point[i] + tilt.MINORANT_BOX_HALF,
                        tilt.MINORANT_SAMPLE_PER_AXIS)
            for i in range(model.dim)]
    pts = np.column_stack([g.ravel()
                           for g in np.meshgrid(*axes, indexing="ij")])
    worst = 0.0
    for x in pts:
        d2 = float(np.sum((x - base_point) ** 2))
        if d2 >= 1e-20:
            worst = max(worst,
                        2.0 * (alpha - oracle.evaluate(model, x)) / d2)
    return alpha, worst


@pytest.mark.parametrize("name", BUILTINS)
def test_grid_tests_match_scalar_loops(name):
    """The batched grid tests value their samples with evaluate_many and
    d^2 row-wise, and reproduce the scalar loops' worst need bit for bit."""
    model = oracle.builtin(name)
    base = model.meta["default_base_point"]
    eps = min(model.meta["default_radius"], 0.5)
    anchor = np.zeros(model.dim)
    assert (repr(tilt._prox_worst(model, base, anchor, eps))
            == repr(scalar_prox_worst(model, base, anchor, eps)))
    assert (repr(tilt._minorant_worst(model, base))
            == repr(scalar_minorant_worst(model, base)))


def tilt_test_without_multistart(problem, tmp_path, monkeypatch,
                                 base_point=None):
    """Run the tilt-test campaign on `problem` (at `base_point`, if given)
    with minimize_branches, the SLSQP epigraph solve and SLSQP replaced by
    failing stubs and warnings as errors; returns the manifest checks by
    name and the tilt-test summary."""
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return record
    monkeypatch.setattr(ulagrangian, "minimize_branches",
                        forbidden("minimize_branches"))
    monkeypatch.setattr(solvers, "_epigraph_solve",
                        forbidden("_epigraph_solve"))
    monkeypatch.setattr(solvers, "minimize", forbidden("minimize"))
    config = cli.ExperimentConfig(problem=problem, base_point=base_point,
                                  campaign=["tilt-test"],
                                  output_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest, code = cli.Runner(config).run()
    assert calls == [] and code == 0
    checks = {c["name"]: c for c in manifest["campaigns"]["tilt-test"]["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    return checks, json.loads((tmp_path / "tilt-test.json").read_text())


def test_quadratic_tilt_test_runs_no_multistart(tmp_path, monkeypatch):
    """Every tilt probe of quadratic(I3) is one exact trust-region solve: no
    minimize_branches or SLSQP call and no warning."""
    _, summary = tilt_test_without_multistart("quadratic(I3)", tmp_path,
                                              monkeypatch)
    assert summary["status"] == "stable"
    assert summary["lipschitz_estimate"] == 1.0


def test_polyhedral_tilt_test_runs_no_multistart(tmp_path, monkeypatch):
    """abs_diff's and abs_plus_quad's max-pieces differ by affine terms over
    a psd sum, so every tilt probe is exact on the flats where they tie: no
    minimize_branches or SLSQP call and no warning.  abs_diff is unstable
    with witness z = 0, and its tilt map is monotone with margin exactly 0;
    abs_plus_quad is stable with Lipschitz estimate 1/2 to rounding."""
    checks, summary = tilt_test_without_multistart(
        "abs_diff", tmp_path / "abs_diff", monkeypatch)
    assert summary["status"] == "unstable"
    assert summary["witness"] == [0.0, 0.0]
    assert checks["tilt_map_monotone"]["value"] == 0.0
    _, summary = tilt_test_without_multistart(
        "abs_plus_quad", tmp_path / "abs_plus_quad", monkeypatch)
    assert summary["status"] == "stable"
    assert abs(summary["lipschitz_estimate"] - 0.5) <= 1e-14


def test_crossing_tilt_tests_run_no_slsqp(tmp_path, monkeypatch):
    """The max-pieces of crossing_max and of the 3-D crossing
    max{||x||^2 - 2 x3 + 1, x3} are isotropic (Hessians 2 I and 0), so
    every tilt probe is exact on the spheres where they tie: no
    _epigraph_solve, minimize_branches or SLSQP call and no warning.  Both
    are stable; crossing_max's Lipschitz estimate is within 1e-8 of the
    multistart's 1.1455103934981794."""
    _, summary = tilt_test_without_multistart(
        "crossing_max", tmp_path / "crossing_max", monkeypatch)
    assert summary["status"] == "stable"
    assert abs(summary["lipschitz_estimate"] - 1.1455103934981794) <= 1e-8
    problem = tmp_path / "crossing_max3.json"
    problem.write_text(json.dumps(CROSSING3_PROBLEM))
    _, summary = tilt_test_without_multistart(
        str(problem), tmp_path / "crossing_max3", monkeypatch,
        base_point=CROSSING3_BASE)
    assert summary["status"] == "stable"
