import dataclasses

import numpy as np
import pytest

from vulab import envelope as env
from vulab import oracle, ulagrangian, vu
from vulab.errors import DimensionTooLarge

from conftest import frame_context


def double_well():
    return env.grid_from_batches(lambda X: (X[:, 0] ** 2 - 1.0) ** 2,
                                 [[-2.0, 2.0]], 401)


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


def test_envelope_double_well():
    gf = double_well()
    ce = env.convex_envelope(gf)
    xs = gf.axes()[0]
    inner = np.abs(xs) <= 1.0
    assert np.max(np.abs(ce.values[inner])) == 0.0
    assert np.max(np.abs(ce.values[~inner] - gf.values[~inner])) == 0.0
    for i in (57, 123, 200, 266, 399):  # brute-force two-point oracle
        assert ce.values[i] == pytest.approx(brute_envelope_1d(gf, i),
                                             abs=1e-12)


def test_envelope_convex_identity(abs_plus_quad):
    gf = env.grid_from_batches(lambda X: oracle.evaluate_many(abs_plus_quad, X),
                               [[-1, 1], [-1, 1]], (61, 61))
    ce = env.convex_envelope(gf)
    assert np.max(np.abs(ce.values - gf.values)) <= 1e-9


def test_envelope_single_finite_node():
    vals = np.full(21, np.inf)
    vals[10] = 1.5
    gf = env.GridFunction([[-1, 1]], (21,), vals)
    ce = env.convex_envelope(gf)
    assert ce.values[10] == 1.5 and np.isinf(ce.values[0])


def test_envelope_idempotent_and_below():
    gf = double_well()
    ce = env.convex_envelope(gf)
    ce2 = env.convex_envelope(ce)
    assert np.max(np.abs(ce2.values - ce.values)) <= 1e-12
    assert np.all(ce.values <= gf.values + 1e-12)
    argmin = int(np.argmin(gf.values))
    assert ce.values[argmin] == gf.values[argmin]


def test_envelope_discrete_convexity():
    ce = env.convex_envelope(double_well())
    v = ce.values
    mids = v[1:-1] - 0.5 * (v[:-2] + v[2:])
    assert np.max(mids) <= 1e-12


def test_envelope_dimension_guard():
    gf = env.GridFunction(np.tile([-1, 1], (4, 1)), (3, 3, 3, 3),
                          np.zeros(81))
    with pytest.raises(DimensionTooLarge):
        env.convex_envelope(gf)


def test_envelope_lp_matches_hull():
    """Pointwise epigraph LP (the definition) against the hull route."""
    gf = double_well()
    ce = env.convex_envelope(gf)
    xs = gf.axes()[0]
    for i in (60, 200, 340):
        assert env.envelope_at(gf, [xs[i]]) == pytest.approx(ce.values[i],
                                                             abs=1e-9)
    # 2-D spot check on a nonconvex saddle-like grid
    g2 = env.grid_from_batches(
        lambda X: (X[:, 0] ** 2 - 0.5) ** 2 + X[:, 1] ** 2,
        [[-1, 1], [-1, 1]], (41, 41))
    c2 = env.convex_envelope(g2)
    nodes = g2.nodes()
    for idx in (420, 840, 861):
        assert env.envelope_at(g2, nodes[idx]) == pytest.approx(
            c2.values.ravel()[idx], abs=1e-8)


def test_legendre_examples():
    g = env.grid_from_batches(lambda X: 0.5 * X[:, 0] ** 2, [[-2, 2]], 401)
    lg = env.legendre(g, [[-1.5, 1.5]], 31)
    zs = lg.axes()[0]
    assert lg.values[np.argmin(np.abs(zs - 1.0))] == pytest.approx(0.5,
                                                                   abs=1e-9)
    gabs = env.grid_from_batches(lambda X: np.abs(X[:, 0]), [[-2, 2]], 401)
    out = env.conjugate_at(gabs, [[0.5], [1.5]])
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    # box-truncated conjugate of |u|: sup over [-2,2] of 1.5u - |u| = 1.0
    assert out[1] == pytest.approx(1.0, abs=1e-12)
    vals = np.full(401, np.inf)
    vals[200] = 0.0
    gind = env.GridFunction([[-2, 2]], (401,), vals)
    assert np.allclose(env.conjugate_at(gind, [[0.7], [-1.3]]), 0.0)


def test_biconjugate_reproduces_envelope():
    gf = double_well()
    ce = env.convex_envelope(gf)
    bic = env.legendre(env.legendre(gf, [[-40, 40]], 801), [[-2, 2]], 401)
    # grid-scale Fenchel-Moreau: dual spacing 0.1 over curvature ~ 1/2
    grid_error = (80.0 / 800) ** 2 / 8.0 * 46.0
    assert np.max(np.abs(bic.values[1:-1] - ce.values[1:-1])) <= 3 * grid_error


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
