import numpy as np
import pytest

from vulab import cli, oracle, solvers, tilt, ulagrangian as ug, vu
from vulab.errors import BoundaryActive, InconsistentGradient

from conftest import SQRT5, crossing_selection, frame_context, golden_min


def inner_objective(ctx, u):
    """The 1-D inner problem as a plain callable (used by the golden oracle)."""
    def phi(v):
        point = ctx.point(np.atleast_1d(u), np.array([v]))
        return oracle.evaluate(ctx.model, point) - ctx.anchor_vprime[0] * v
    return phi


def test_v_of_u_examples(apq_ctx, crossing_ctx):
    # separable sqrt(2)|v| + v^2 is minimized at 0
    v = ug.v_of_u(apq_ctx, np.array([0.3]))
    assert abs(v[0]) <= 1e-10
    oracle_grid = min(np.linspace(-1, 1, 4001),
                      key=inner_objective(apq_ctx, 0.3))
    assert abs(oracle_grid) <= 5e-4
    # crossing model matches the golden-section oracle and the closed form
    u = 0.1
    v = ug.v_of_u(crossing_ctx, np.array([u]))
    gold = golden_min(inner_objective(crossing_ctx, u), -0.3, 0.3, tol=1e-12)
    assert abs(abs(v[0]) - abs(gold)) <= 1e-8
    assert abs(v[0] - crossing_selection(u)) <= 1e-8
    # stable minimum with zero anchor has v(0) = 0
    for ctx in (apq_ctx, crossing_ctx):
        assert np.linalg.norm(ug.v_of_u(ctx, np.zeros(1))) <= 1e-9


def test_l_value_examples(apq_ctx, crossing_ctx, crossing):
    assert ug.l_value(apq_ctx, np.array([0.3])) == pytest.approx(0.09,
                                                                 abs=1e-10)
    base_val = oracle.evaluate(crossing, crossing.meta["default_base_point"])
    assert ug.l_value(crossing_ctx, np.zeros(1)) == pytest.approx(base_val,
                                                                  abs=1e-10)
    assert ug.l_value(apq_ctx, np.array([5.0])) == np.inf


def test_grad_l_examples(apq_ctx, crossing_ctx):
    assert ug.grad_l(apq_ctx, np.array([0.3]))[0] == pytest.approx(0.6,
                                                                   abs=1e-8)
    assert abs(ug.grad_l(apq_ctx, np.zeros(1))[0]) <= 1e-8
    u = 0.1
    expect = 2 * u / np.sqrt(5 - 4 * u**2)  # chain rule on the closed form
    g = ug.grad_l(crossing_ctx, np.array([u]))[0]
    assert abs(abs(g) - expect) <= 1e-6
    # independent second oracle: central differences of the golden values
    h = 1e-5
    lp = golden_values(crossing_ctx, u + h)
    lm = golden_values(crossing_ctx, u - h)
    assert abs(abs(g) - abs((lp - lm) / (2 * h))) <= 1e-6


def golden_values(ctx, u):
    phi = inner_objective(ctx, u)
    vstar = golden_min(phi, -0.3, 0.3, tol=1e-12)
    return phi(vstar)


def test_convexity_check(apq_ctx, crossing_ctx):
    grids = {
        "apq": (apq_ctx, np.linspace(-0.25, 0.25, 21)),
        "crossing": (crossing_ctx, np.linspace(-0.07, 0.07, 29)),
    }
    for ctx, grid in grids.values():
        viol = ug.convexity_check(ctx, [np.array([t]) for t in grid])
        scale = 1.0 + max(abs(ug.l_value(ctx, np.array([t]))) for t in grid)
        assert viol <= 1e-9 * scale
    qi = oracle.builtin("quadratic(I2)")
    poly = oracle.subdifferential_polytope(qi, np.zeros(2))
    ctx = frame_context(model=qi, frame=vu.decompose(poly, np.zeros(2),
                                                     eps=1.0))
    from vulab.solvers import cube_lattice
    viol = ug.convexity_check(ctx, list(cube_lattice(2, 0.4, 5)))
    assert viol <= 1e-9


def test_little_oh(apq_ctx, crossing_ctx):
    ratios = ug.little_oh_check(apq_ctx, [1e-1, 1e-2, 1e-3])
    assert all(r <= 1e-10 for _, r in ratios)
    ratios = ug.little_oh_check(crossing_ctx, [1e-1, 1e-3])
    # v(u) ~ u^2/sqrt(5), so the ratio is ~ u/sqrt(5)
    assert ratios[1][1] == pytest.approx(1e-3 / SQRT5, rel=1e-3)
    assert ratios[0][1] == pytest.approx(0.1 / np.sqrt(5 - 0.04), rel=1e-2)
    assert ratios[1][1] < ratios[0][1]


def test_subgradient_inequality(crossing_ctx):
    grid = np.linspace(-0.1, 0.1, 15)
    vals = {t: ug.l_value(crossing_ctx, np.array([t])) for t in grid}
    for t in grid[2:-2]:
        z = ug.grad_l(crossing_ctx, np.array([t]))[0]
        for s in grid:
            assert vals[s] - vals[t] - z * (s - t) >= -1e-8


def test_selection_consistency_with_tilt_map(apq_ctx, crossing_ctx):
    """u is recovered as the U-projection of the tilt map at (z_U(u), z_V)."""
    for ctx, us in ((apq_ctx, [0.2, -0.35]), (crossing_ctx, [0.05, -0.1])):
        for u in us:
            zu = ug.grad_l(ctx, np.array([u]))
            world_z = (ctx.uprime_basis @ zu
                       + ctx.vprime_basis @ ctx.anchor_vprime)
            res = tilt.tilt_map(ctx.model, ctx.frame.base_point,
                                ctx.frame.eps, world_z)
            recovered = ctx.uprime_basis.T @ (res.minimizer
                                              - ctx.frame.base_point)
            assert abs(recovered[0] - u) <= 1e-6


def test_lipschitz_gradient_bound(crossing_ctx):
    grid = [np.array([t]) for t in np.linspace(-0.1, 0.1, 9)]
    bound = ug.lipschitz_gradient_bound(crossing_ctx, grid)
    assert np.isfinite(bound)
    # closed form d/du [2u/sqrt(5-4u^2)] = 10/(5-4u^2)^{3/2} <= 0.93 on the grid
    assert bound <= 1.0


def test_common_selection(crossing_ctx):
    grid = [np.array([t]) for t in (-0.1, 0.02, 0.09)]
    dev = ug.common_selection_check(crossing_ctx, grid,
                                    tilt_mags=(-0.05, 0.0, 0.05))
    assert dev <= 1e-6


def test_boundary_active_warning(crossing):
    poly = oracle.subdifferential_polytope(crossing,
                                           crossing.meta["default_base_point"])
    frame = vu.decompose(poly, np.zeros(2), eps=0.3)
    ctx = frame_context(model=crossing, frame=frame, eps_v=0.005)
    with pytest.warns(BoundaryActive):
        ug.v_of_u(ctx, np.array([0.15]))


def test_u_outside_ball_rejected(apq_ctx):
    with pytest.raises(ValueError):
        ug.v_of_u(apq_ctx, np.array([2.0]))


def test_inconsistent_gradient_detected():
    lying = oracle.FunctionModel(
        dim=2, kind="custom",
        value_fn=lambda x: 0.5 * float(x @ x),
        subdiff_fn=lambda x: np.array([[5.0, 5.0]]),
        flags=oracle.Flags(convex=True),
        name="lying")
    frame = vu.VUFrame(base_point=np.zeros(2), anchor=np.zeros(2),
                       u_basis=np.eye(2), v_basis=np.zeros((2, 0)), eps=1.0)
    ctx = frame_context(model=lying, frame=frame)
    with pytest.raises(InconsistentGradient):
        ug.grad_l(ctx, np.array([0.5, 0.0]))


def test_little_oh_noise_floor(apq_ctx, crossing_ctx):
    """Ratios at the rounding floor of an exact selection v = 0 count as
    zero; ratios above it must still decrease."""
    eps = np.finfo(float).eps
    noise = [(r, 6.5 * eps / r) for r in (1e-1, 1e-2, 1e-3)]   # an exact v = 0
    assert ug.little_oh_holds(noise, 0.05)
    growing = [(1e-1, 1e-6), (1e-2, 1e-5), (1e-3, 1e-4)]
    assert not ug.little_oh_holds(growing, 0.05)
    above_floor = [(1e-1, 0.0), (1e-2, 0.0), (1e-3, 100.0 * eps / 1e-3)]
    assert not ug.little_oh_holds(above_floor, 0.05)
    assert not ug.little_oh_holds([(1e-1, 0.2), (1e-2, 0.1)], 0.05)
    for ctx in (apq_ctx, crossing_ctx):
        assert ug.little_oh_holds(
            ug.little_oh_check(ctx, [1e-1, 1e-2, 1e-3]), 0.05)


def slanted_model():
    """A 4-D max of four affine pieces and a quadratic: dim V' = 3 at 0."""
    affine = [[1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0],
              [0.0, -1.0, 0.0, 1.0], [0.0, 0.0, -1.0, -1.0]]
    return oracle.FunctionModel(
        dim=4, kind="max_of_smooth",
        pieces=[oracle.AffinePiece(a) for a in affine]
        + [oracle.QuadraticPiece(np.diag([1.0, 2.0, 3.0, 4.0]))])


def zero_anchor_ctx(model, eps):
    poly = oracle.subdifferential_polytope(model, np.zeros(model.dim))
    return frame_context(model=model, frame=vu.decompose(
        poly, np.zeros(model.dim), eps=eps))


def recording(solves, solve):
    def wrapped(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]
    return wrapped


def test_cached_value_is_the_solve_value(apq_ctx, crossing_ctx, monkeypatch):
    """The value cached for u is the value the inner solve recorded for the
    selected v, bit for bit: both come from the same batched objective.  (The
    selection is the smallest-norm near-optimal point, so this value can sit
    a few ulps above the solve's best.)  Checked on the exact line path
    (dim V' = 1) and on the multistart (dim V' = 3)."""
    solves = []
    monkeypatch.setattr(ug, "minimize_branches",
                        recording(solves, ug.minimize_branches))
    monkeypatch.setattr(ug, "line_minimize", recording(solves, ug.line_minimize))
    slanted = zero_anchor_ctx(slanted_model(), 0.5)
    assert slanted.dim_vprime == 3
    for shared in (apq_ctx, crossing_ctx, slanted):
        ctx = frame_context(model=shared.model, frame=shared.frame)
        for t in (-0.1, -0.02, 0.0, 0.05, 0.1):
            u = np.array([t])
            count = len(solves)
            v, cached, _ = ug.solve(ctx, u)
            assert len(solves) == count + 1
            res = solves[-1]
            row = [i for i, p in enumerate(res.points) if np.array_equal(p, v)]
            assert row
            assert repr(float(cached)) == repr(float(res.values[row[0]]))
            _, best, _ = ug._inner_solve(ctx, u)
            assert best <= cached <= best + 1e-9 * (1.0 + abs(best))


def test_exact_selection_matches_closed_form(tmp_path):
    """At the 21 nodes of the crossing_max lagrangian campaign, the exact
    line solve reproduces v(u) = (sqrt 5 - sqrt(5 - 4u^2))/2 to 1e-14."""
    runner = cli.Runner(cli.ExperimentConfig(
        problem="crossing_max", campaign=["lagrangian"],
        output_dir=str(tmp_path)))
    ctx = frame_context(model=runner.model, frame=runner.frame,
                        eps_v=runner.radii["eps_v"])
    delta = runner.radii["delta"]
    nodes = np.linspace(-delta, delta, runner.resolution)
    assert len(nodes) == 21
    for u in nodes:
        v = ctx.vprime_basis @ ug.v_of_u(ctx, np.array([u]))
        assert abs(v[1] - crossing_selection(u)) <= 1e-14


def test_line_path_makes_no_multistart(apq_ctx, crossing_ctx, four_quadrant,
                                       monkeypatch):
    """For dim V' = 1 with quadratic and affine pieces the inner solve, and
    the 1-D tilt map of huber_source_abs, call neither minimize_branches
    nor SLSQP; four_quadrant_max (dim V' = 2, custom branch covers) still
    takes the multistart."""
    multistarts, slsqp = [], []
    monkeypatch.setattr(ug, "minimize_branches",
                        recording(multistarts, ug.minimize_branches))
    monkeypatch.setattr(solvers, "minimize", recording(slsqp, solvers.minimize))
    huber = zero_anchor_ctx(oracle.builtin("huber_source_abs"), 1.0)
    for shared in (apq_ctx, crossing_ctx, huber):
        ctx = frame_context(model=shared.model, frame=shared.frame)
        assert ctx.dim_vprime == 1
        for t in np.linspace(-0.1, 0.1, 5):
            ug.l_value(ctx, np.array([t] * ctx.dim_uprime))
    for z in (-0.1, 0.0, 0.05):
        res = tilt.tilt_map(huber.model, np.zeros(1), 1.0, np.array([z]))
        assert res.minimizers.tolist() == [[0.0]]
    assert not (multistarts or slsqp)
    ctx = zero_anchor_ctx(four_quadrant, 1.0)
    assert ctx.dim_vprime == 2
    ug._inner_solve(ctx, np.zeros(0))
    assert len(multistarts) == 1 and slsqp


def test_ball_objective_matches_scalar_form(four_quadrant):
    """The stacked matmul of the batched objective rounds like M @ v, so
    values equal the scalar form bit for bit, also for oblique 2-D and 3-D
    V' bases."""
    slanted = slanted_model()
    rng = np.random.default_rng(11)
    for model, k in ((four_quadrant, 2), (slanted, 3)):
        ctx = zero_anchor_ctx(model, 0.5)
        assert ctx.dim_vprime == k
        anchor = rng.normal(size=k)
        for _ in range(20):
            u = rng.uniform(-0.3, 0.3, size=ctx.dim_uprime)
            V = rng.uniform(-0.5, 0.5, size=(64, k))
            base = ctx.frame.base_point + ctx.uprime_basis @ u
            objective = ug.ball_objective(model, base, ctx.vprime_basis,
                                          oracle.AffinePiece(-anchor))
            scalar = [oracle.evaluate(model, base + ctx.vprime_basis @ v)
                      - float(anchor @ v) for v in V]
            assert [repr(float(a)) for a in objective(V)] == \
                [repr(a) for a in scalar]
