import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from vulab import envelope as env
from vulab import oracle, ulagrangian, vu

from conftest import frame_context


def double_well():
    return env.grid_from_batches(lambda X: (X[:, 0] ** 2 - 1.0) ** 2,
                                 [[-2.0, 2.0]], 401)


def full_lp_envelope(gf, x):
    """Reference: the defining epigraph LP over every finite grid node at
    once, with no column generation."""
    nodes = gf.nodes()
    vals = gf.values.ravel()
    finite = np.isfinite(vals)
    if not finite.any():
        return np.inf
    nodes, vals = nodes[finite], vals[finite]
    x = np.asarray(x, dtype=float)
    A_eq = np.vstack([nodes.T, np.ones((1, len(vals)))])
    b_eq = np.append(x, 1.0)
    res = linprog(vals, A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * len(vals),
                  method="highs")
    if res.status != 0:
        return np.inf
    return float(res.fun)


def assert_matches_full_lp(gf, x):
    got, ref = env.envelope_at(gf, x), full_lp_envelope(gf, x)
    if np.isinf(ref):
        assert got == ref
    else:
        assert abs(got - ref) <= env.ENVELOPE_TOL, (x, got, ref)
    return got


def brute_envelope_1d(gf, i):
    """Defining oracle in 1-D: min over two-point convex combinations."""
    xs = gf.nodes()[:, 0]
    vals = gf.values.ravel()
    best = vals[i]
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            if xs[a] <= xs[i] <= xs[b]:
                lam = (xs[b] - xs[i]) / (xs[b] - xs[a])
                best = min(best, lam * vals[a] + (1 - lam) * vals[b])
    return best


@pytest.fixture(scope="module")
def double_well_envelope():
    """The double well and envelope_at at each of its 401 nodes."""
    gf = double_well()
    return gf, np.array([env.envelope_at(gf, [x]) for x in gf.axes()[0]])


def test_envelope_double_well(double_well_envelope):
    gf, ce = double_well_envelope
    xs = gf.axes()[0]
    inner = np.abs(xs) <= 1.0
    assert np.max(np.abs(ce[inner])) == 0.0
    # the LP sums lam_i f_i, so outside the well it meets f up to rounding
    assert np.max(np.abs(ce[~inner] - gf.values[~inner])) <= 1e-12
    for i in (57, 123, 200, 266, 399):  # brute-force two-point oracle
        assert ce[i] == pytest.approx(brute_envelope_1d(gf, i), abs=1e-12)


def test_envelope_convex_identity(abs_plus_quad):
    gf = env.grid_from_batches(lambda X: oracle.evaluate_many(abs_plus_quad, X),
                               [[-1, 1], [-1, 1]], (61, 61))
    nodes, vals = gf.nodes(), gf.values.ravel()
    for i in range(0, len(nodes), 31):
        assert abs(env.envelope_at(gf, nodes[i]) - vals[i]) <= 1e-9


def test_envelope_single_finite_node():
    vals = np.full(21, np.inf)
    vals[10] = 1.5
    gf = env.GridFunction([[-1, 1]], (21,), vals)
    xs = gf.axes()[0]
    assert env.envelope_at(gf, [xs[10]]) == 1.5
    assert np.isinf(env.envelope_at(gf, [xs[0]]))


def test_envelope_idempotent_and_below(double_well_envelope):
    gf, ce = double_well_envelope
    assert np.all(ce <= gf.values + 1e-12)
    argmin = int(np.argmin(gf.values))
    assert ce[argmin] == gf.values[argmin]
    again = env.GridFunction(gf.box, gf.resolution, ce)
    xs = gf.axes()[0]
    for i in range(0, 401, 8):
        assert abs(env.envelope_at(again, [xs[i]]) - ce[i]) <= 1e-12


def test_envelope_discrete_convexity(double_well_envelope):
    v = double_well_envelope[1]
    mids = v[1:-1] - 0.5 * (v[:-2] + v[2:])
    assert np.max(mids) <= 1e-12


def test_envelope_saddle_matches_full_lp():
    """Column generation against the full LP on a nonconvex 2-D grid, at
    nodes and between them."""
    g2 = env.grid_from_batches(
        lambda X: (X[:, 0] ** 2 - 0.5) ** 2 + X[:, 1] ** 2,
        [[-1, 1], [-1, 1]], (41, 41))
    nodes = g2.nodes()
    for idx in (420, 840, 861):
        assert_matches_full_lp(g2, nodes[idx])
    for x in ([0.01, -0.33], [0.5123, 0.25], [-0.7071, 0.0]):
        assert_matches_full_lp(g2, x)


@st.composite
def dyadic_envelope_cases(draw):
    """Small grids on [-1, 1]^d with dyadic nodes and values (bowls, random
    nonconvex tables, +inf holes) and query points on cell faces, box
    corners, box edges or outside the box."""
    d = draw(st.integers(1, 3))
    res = tuple(draw(st.sampled_from((2, 3, 5, 9) if d < 3 else (2, 3, 5)))
                for _ in range(d))
    n = int(np.prod(res))
    gf = env.GridFunction(np.tile([-1.0, 1.0], (d, 1)), res, np.zeros(n))
    if draw(st.booleans()):
        vals = np.sum(gf.nodes() ** 2, axis=1)
    else:
        vals = np.array(draw(st.lists(st.integers(-32, 32), min_size=n,
                                      max_size=n))) / 8.0
    vals[draw(st.lists(st.integers(0, n - 1), max_size=3))] = np.inf
    gf.values = vals.reshape(res)
    where = draw(st.sampled_from(("face", "corner", "edge", "outside")))
    free = st.integers(-16, 16).map(lambda k: k / 16.0)
    x = np.array([draw(free) for _ in range(d)])
    if where == "face":
        x[0] = draw(st.sampled_from(list(gf.axes()[0])))
    elif where in ("corner", "edge"):
        signs = [draw(st.sampled_from((-1.0, 1.0))) for _ in range(d)]
        first = 1 if where == "edge" else 0
        x[first:] = signs[first:]
    else:
        x[draw(st.integers(0, d - 1))] = draw(st.sampled_from(
            (-1.5, 1.25, 3.0)))
    return gf, x, where == "outside"


@settings(max_examples=200, deadline=None)
@given(case=dyadic_envelope_cases(), batch=st.sampled_from((1, 2, 64)))
def test_envelope_at_matches_full_lp_on_dyadic_grids(case, batch):
    gf, x, outside = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(env, "ENVELOPE_BATCH", batch)
        got = assert_matches_full_lp(gf, x)
    if outside:
        assert np.isinf(got)


@pytest.mark.parametrize("problem", ["quadratic(-I)", "four_quadrant_max"])
def test_envelope_at_on_nonconvex_anchored_grids(problem):
    from vulab import cli
    runner = cli.Runner(cli.ExperimentConfig(problem=problem))
    frame = runner.frame
    gf = env.anchored_grid(runner.model, frame, resolution=41)
    e = frame.eps
    points = ([0.0, 0.0], [0.3 * e, -0.2 * e], [e, e], [-e, 0.45 * e],
              [0.05 * e, 0.0], [0.61 * e, -0.87 * e])
    for x in points:
        assert np.isfinite(assert_matches_full_lp(gf, x))
    assert np.isinf(assert_matches_full_lp(gf, [1.5 * e, 0.0]))


def test_envelope_agreement_solves_small_lps(monkeypatch, crossing_trace):
    """Column generation keeps every LP of the envelope check to a few
    hundred columns, where the full LP over the 101^2 grid has 10,201."""
    columns = []
    real = env.linprog

    def counting(c, **kwargs):
        columns.append(len(c))
        return real(c, **kwargs)

    monkeypatch.setattr(env, "linprog", counting)
    ctx = crossing_trace.ctx
    env.envelope_agreement_check(ctx.model, ctx.frame,
                                 crossing_trace.frame_coordinates()[::6],
                                 resolution=101)
    assert columns and max(columns) <= 300


def test_envelope_queries_share_the_grid_nodes(monkeypatch, crossing_trace):
    """The node array is built on the first nodes() call and shared,
    read-only, after it: the envelope check builds the anchored grid's
    nodes once, however many points it queries."""
    builds = []
    real = env.np.meshgrid

    def counting(*args, **kwargs):
        builds.append(len(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(env.np, "meshgrid", counting)
    ctx = crossing_trace.ctx
    points = crossing_trace.frame_coordinates()[::6]
    assert len(points) > 1
    env.envelope_agreement_check(ctx.model, ctx.frame, points, resolution=41)
    assert builds == [2]
    gf = env.anchored_grid(ctx.model, ctx.frame, resolution=5)
    assert gf.nodes() is gf.nodes() and not gf.nodes().flags.writeable


def test_legendre_examples():
    g = env.grid_from_batches(lambda X: 0.5 * X[:, 0] ** 2, [[-2, 2]], 401)
    assert env.conjugate_at(g, [[1.0]])[0] == pytest.approx(0.5, abs=1e-9)
    gabs = env.grid_from_batches(lambda X: np.abs(X[:, 0]), [[-2, 2]], 401)
    out = env.conjugate_at(gabs, [[0.5], [1.5]])
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    # box-truncated conjugate of |u|: sup over [-2,2] of 1.5u - |u| = 1.0
    assert out[1] == pytest.approx(1.0, abs=1e-12)
    vals = np.full(401, np.inf)
    vals[200] = 0.0
    gind = env.GridFunction([[-2, 2]], (401,), vals)
    assert np.allclose(env.conjugate_at(gind, [[0.7], [-1.3]]), 0.0)


def test_conjugacy_identity(abs_plus_quad, crossing):
    poly = oracle.subdifferential_polytope(abs_plus_quad, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2), eps=1.0)
    ctx = frame_context(model=abs_plus_quad, frame=frame)
    zs = np.linspace(-0.5, 0.5, 11)
    resid = env.conjugacy_identity_check(ctx, zs, resolution=201)
    assert resid <= 1e-3
    # both sides equal z^2/4 on |z| <= 0.5 (L(u) = u^2)
    ku = np.linspace(-1, 1, 201)
    left = np.max(0.5 * ku - ku ** 2)
    assert left == pytest.approx(0.5 ** 2 / 4.0, abs=1e-4)
    # z = 0 gives -min L = 0
    resid0 = env.conjugacy_identity_check(ctx, [0.0], resolution=201)
    assert resid0 <= 1e-6


def per_z_conjugacy(ctx, z_u_grid, resolution):
    """Reference: conjugacy_identity_check with one conjugate_at call, and
    one node array, per dual point."""
    frame = ctx.frame
    ku = np.linspace(-frame.eps, frame.eps, resolution)
    lvals = np.array([ulagrangian.l_value(ctx, np.array([u])) for u in ku])
    h_grid = env.anchored_grid(ctx.model, frame, resolution=resolution)
    worst = 0.0
    for zu in np.atleast_1d(z_u_grid):
        left = float(np.max(zu * ku - lvals))
        z_coords = np.concatenate([[zu], frame.anchor_v])
        right = float(env.conjugate_at(h_grid, z_coords[None, :])[0])
        worst = max(worst, abs(left - right))
    return worst


def test_conjugacy_identity_batches_its_dual_points(monkeypatch, apq_ctx,
                                                    crossing_ctx):
    calls = []
    real = env.conjugate_at

    def counting(gf, zs):
        calls.append(len(zs))
        return real(gf, zs)

    for ctx, zs in ((apq_ctx, np.linspace(-0.5, 0.5, 11)),
                    (crossing_ctx, np.linspace(-0.05, 0.05, 5))):
        expect = per_z_conjugacy(ctx, zs, 201)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(env, "conjugate_at", counting)
            got = env.conjugacy_identity_check(ctx, zs, resolution=201)
        assert calls == [len(zs)]
        assert repr(got) == repr(expect)


def test_envelope_agreement(abs_plus_quad, apq_trace):
    frame = apq_trace.ctx.frame
    resid, spacing = env.envelope_agreement_check(
        abs_plus_quad, frame, apq_trace.frame_coordinates()[::6],
        resolution=61)
    assert resid <= 2.0 * spacing * (1.0 + 4.0)  # slope scale ~ 4 on the box


def test_envelope_touches_at_argmin():
    gf = double_well()
    assert env.envelope_at(gf, [1.0]) == pytest.approx(0.0, abs=1e-12)


# |x1 - x2 + x3/2| + ||x||^2 in R^3: U is a plane that the SVD spans by two
# oblique vectors, so each node sums two rounded basis products
TILTED_ABS_3D = {
    "dim": 3, "kind": "sum_of_smooth_and_polyhedral",
    "pieces": [{"type": "quadratic", "A": np.diag([2.0, 2.0, 2.0]).tolist()}],
    "polyhedral_part": [{"type": "affine", "a": [1.0, -1.0, 0.5]},
                        {"type": "affine", "a": [-1.0, 1.0, -0.5]}]}


def _model_and_frame(problem):
    from vulab import cli
    if problem.startswith("tilted_abs_3d"):
        model = oracle.model_from_dict(TILTED_ABS_3D)
        poly = oracle.subdifferential_polytope(model, np.zeros(3))
        frame = vu.decompose(poly, np.zeros(3), eps=0.5)
        if problem.endswith("json"):    # row-major bases round differently
            frame = dataclasses.replace(
                frame, u_basis=np.ascontiguousarray(frame.u_basis),
                v_basis=np.ascontiguousarray(frame.v_basis))
        return model, frame
    runner = cli.Runner(cli.ExperimentConfig(problem=problem))
    return runner.model, runner.frame


@pytest.mark.parametrize("problem", ["crossing_max", "abs_plus_quad",
                                     "quadratic(I3)", "tilted_abs_3d",
                                     "tilted_abs_3d_json"])
def test_anchored_grid_matches_scalar_build(problem):
    """The batched anchored grid equals a per-node scalar build bit for bit
    (quadratic(I3) and tilted_abs_3d have U basis products of dimension 3
    and 2)."""
    model, frame = _model_and_frame(problem)

    def h(coords):
        w = np.zeros(frame.dim)
        if frame.dim_u:
            w += frame.u_basis @ coords[:frame.dim_u]
        if frame.dim_v:
            w += frame.v_basis @ coords[frame.dim_u:]
        return oracle.evaluate(model, frame.base_point + w)

    box = np.tile([-frame.eps, frame.eps], (frame.dim, 1))
    expect = env.grid_from_batches(lambda C: [h(c) for c in C], box,
                                   (41,) * frame.dim)
    got = env.anchored_grid(model, frame, resolution=41)
    assert got.resolution == expect.resolution
    np.testing.assert_array_equal(got.values.view(np.uint64),
                                  expect.values.view(np.uint64))


def test_grid_from_batches_blocks():
    """Grids larger than one block are filled in GRID_BLOCK-node batches."""
    sizes = []

    def fun_many(X):
        sizes.append(len(X))
        return X[:, 0] - 2.0 * X[:, 1]

    res = (101, 91)
    gf = env.grid_from_batches(fun_many, [[-1.0, 1.0], [0.0, 3.0]], res)
    ref = [x[0] - 2.0 * x[1] for x in gf.nodes()]
    np.testing.assert_array_equal(gf.values.ravel(), ref)
    assert max(sizes) == env.GRID_BLOCK and sum(sizes) == 101 * 91
