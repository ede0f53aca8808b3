"""Grid functions, lower convex envelopes and discrete Legendre transforms.

The full-grid envelope goes through the lower convex hull of the lifted node
cloud (exact at the nodes); single-point envelope queries solve the defining
linear program over the epigraph points.  Conjugates are exact discrete
suprema, computed separably per axis.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from .errors import DimensionTooLarge


@dataclass
class GridFunction:
    box: np.ndarray          # (d, 2) axis bounds
    resolution: tuple        # points per axis
    values: np.ndarray       # shape == resolution, +inf allowed

    def __post_init__(self):
        self.box = np.atleast_2d(np.asarray(self.box, dtype=float))
        self.resolution = tuple(int(r) for r in np.atleast_1d(self.resolution))
        self.values = np.asarray(self.values, dtype=float).reshape(self.resolution)

    @property
    def dim(self):
        return self.box.shape[0]

    def axes(self):
        return [np.linspace(self.box[i, 0], self.box[i, 1], self.resolution[i])
                for i in range(self.dim)]

    def nodes(self):
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def spacing(self):
        return np.array([(self.box[i, 1] - self.box[i, 0]) / (self.resolution[i] - 1)
                         for i in range(self.dim)])


# Nodes per batch of grid_from_batches: large enough to amortize the Python
# overhead, small enough that the batch temporaries of a 401^2 grid stay
# below the size of its node array.
GRID_BLOCK = 8192


def grid_from_batches(fun_many, box, resolution):
    """Grid of fun_many's values at the nodes: fun_many maps a block of node
    rows to their values, GRID_BLOCK nodes at a time."""
    gf = GridFunction(box=box, resolution=resolution,
                      values=np.zeros(tuple(np.atleast_1d(resolution))))
    nodes = gf.nodes()
    vals = np.empty(len(nodes))
    for s in range(0, len(nodes), GRID_BLOCK):
        vals[s:s + GRID_BLOCK] = fun_many(nodes[s:s + GRID_BLOCK])
    gf.values = vals.reshape(gf.resolution)
    return gf


def _lower_hull_1d(x, y):
    """Lower convex hull by monotone chain; returns hull vertex indices."""
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (x[i2] - x[i1]) * (y[i] - y[i1]) - (x[i] - x[i1]) * (y[i2] - y[i1])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def convex_envelope(gf):
    """Pointwise lower convex envelope of the grid values at the grid nodes.

    Result <= gf, equality at every hull vertex (in particular at every grid
    argmin), and the output is discretely convex.
    """
    if gf.dim > 3:
        raise DimensionTooLarge("convex envelope supported up to dimension 3")
    finite = np.isfinite(gf.values.ravel())
    nodes = gf.nodes()
    vals = gf.values.ravel().copy()
    if finite.sum() <= 1:
        return GridFunction(gf.box, gf.resolution, vals)
    if gf.dim == 1:
        xf = nodes[finite, 0]
        yf = vals[finite]
        hull = _lower_hull_1d(xf, yf)
        env = np.interp(nodes[:, 0], xf[hull], yf[hull], left=np.inf, right=np.inf)
        out = np.where(finite | (env < np.inf), env, np.inf)
        # nodes outside the finite span stay +inf
        lo, hi = xf.min(), xf.max()
        out[(nodes[:, 0] < lo - 1e-15) | (nodes[:, 0] > hi + 1e-15)] = np.inf
        return GridFunction(gf.box, gf.resolution, out)

    pts = np.column_stack([nodes[finite], vals[finite]])
    try:
        hull = ConvexHull(pts)
    except Exception:
        # degenerate lifted cloud over a full grid => f is affine, hence convex
        return GridFunction(gf.box, gf.resolution, vals)
    lower = hull.equations[hull.equations[:, -2] < -1e-12]  # facets facing down
    # plane: a.x + b*f + c = 0 with b < 0  ->  f = (a.x + c) / (-b)
    a = lower[:, :-2]
    b = lower[:, -2]
    c = lower[:, -1]
    vertex_mask = np.zeros(int(finite.sum()), dtype=bool)
    low_facets = np.where(hull.equations[:, -2] < -1e-12)[0]
    for fi in low_facets:
        vertex_mask[hull.simplices[fi]] = True
    env = np.full(nodes.shape[0], np.inf)
    fin_idx = np.where(finite)[0]
    env[fin_idx[vertex_mask]] = vals[fin_idx[vertex_mask]]
    todo = np.where(np.isinf(env))[0]
    if len(todo):
        X = nodes[todo]
        chunk = max(1, int(4e6 // max(len(lower), 1)))
        best = np.full(len(todo), -np.inf)
        for s in range(0, len(todo), chunk):
            blk = X[s:s + chunk]
            planes = (blk @ a.T + c) / (-b)
            best[s:s + chunk] = planes.max(axis=1)
        env[todo] = best
    if (~finite).any():
        # nodes outside co(dom) keep +inf
        from scipy.spatial import Delaunay
        tri = Delaunay(nodes[finite])
        outside = tri.find_simplex(nodes) < 0
        env[outside] = np.inf
    return GridFunction(gf.box, gf.resolution, env)


def envelope_at(gf, x):
    """co(grid values) at a single point: min sum(lam_i f_i) over convex
    combinations of grid nodes hitting x (the defining epigraph LP)."""
    nodes = gf.nodes()
    vals = gf.values.ravel()
    finite = np.isfinite(vals)
    nodes, vals = nodes[finite], vals[finite]
    x = np.asarray(x, dtype=float)
    A_eq = np.vstack([nodes.T, np.ones((1, len(vals)))])
    b_eq = np.append(x, 1.0)
    res = linprog(vals, A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * len(vals),
                  method="highs")
    if res.status != 0:
        return np.inf
    return float(res.fun)


def _axis_conjugate(cur, x, z, axis):
    """Replace grid axis `axis` (points x) by dual points z via
    out[..., j, ...] = max_i (z_j * x_i + cur[..., i, ...]); chunked in z."""
    moved = np.moveaxis(cur, axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    out = np.full((flat.shape[0], len(z)), -np.inf)
    chunk = max(1, int(2e6 // max(flat.size, 1)))
    for s in range(0, len(z), chunk):
        zz = z[s:s + chunk]
        scores = flat[:, None, :] + zz[None, :, None] * x[None, None, :]
        out[:, s:s + chunk] = scores.max(axis=-1)
    out = out.reshape(moved.shape[:-1] + (len(z),))
    return np.moveaxis(out, -1, axis)


def legendre(gf, dual_box, dual_resolution):
    """Discrete convex conjugate on a dual grid (separable exact max)."""
    dual_box = np.atleast_2d(np.asarray(dual_box, dtype=float))
    dual_res = tuple(int(r) for r in np.atleast_1d(dual_resolution))
    cur = -np.where(np.isfinite(gf.values), gf.values, np.inf)
    axes = gf.axes()
    for axis in range(gf.dim):
        z = np.linspace(dual_box[axis, 0], dual_box[axis, 1], dual_res[axis])
        cur = _axis_conjugate(cur, axes[axis], z, axis)
    return GridFunction(dual_box, dual_res, cur)


def conjugate_at(gf, zs):
    """Exact discrete conjugate values at arbitrary dual points."""
    nodes = gf.nodes()
    vals = gf.values.ravel()
    finite = np.isfinite(vals)
    nodes, vals = nodes[finite], vals[finite]
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    out = np.empty(len(zs))
    for i, z in enumerate(zs):
        out[i] = float(np.max(nodes @ z - vals))
    return out


# ---------------------------------------------------------------------------
# model-facing checks

def anchored_grid(model, frame, resolution=201):
    """h(w) = f(base + w) on the product frame.eps-ball, as a grid in frame
    coordinates."""
    from .oracle import evaluate_many
    d = frame.dim
    box = np.tile([-frame.eps, frame.eps], (d, 1))
    k = frame.dim_u

    def h_many(coords):
        # w = U c_U + V c_V row by row; the stacked matmuls round exactly
        # like the per-point products U @ c_U and V @ c_V
        w = np.zeros(coords.shape)
        if k:
            w += np.matmul(frame.u_basis, coords[:, :k, None])[:, :, 0]
        if frame.dim_v:
            w += np.matmul(frame.v_basis, coords[:, k:, None])[:, :, 0]
        return evaluate_many(model, frame.base_point + w)

    return grid_from_batches(h_many, box, (resolution,) * d)


def envelope_agreement_check(model, frame, trace_points, resolution=101):
    """max over trace points (u, v(u)) of h(w) - co h(w) at w = u + v(u).

    Uses the pointwise epigraph LP on the anchored grid; returns
    (max_residual, grid_spacing) so the residual can be read against the
    grid scale.
    """
    from .oracle import evaluate
    from .vu import assemble
    gf = anchored_grid(model, frame, resolution=resolution)
    worst = 0.0
    for coords in trace_points:
        coords = np.asarray(coords, dtype=float)
        w = assemble(frame, coords[:frame.dim_u], coords[frame.dim_u:])
        h_val = evaluate(model, frame.base_point + w)
        env = envelope_at(gf, coords)
        worst = max(worst, abs(h_val - env))
    return worst, float(np.max(gf.spacing()))


def conjugacy_identity_check(ctx, z_u_grid, resolution=401):
    """max over z_U of |L*(z_U) - h*(z_U + anchor_V)| for the U-Lagrangian
    of the ULagContext ctx.

    The left side conjugates the partially-minimized function on a U grid;
    the right side conjugates the anchored function over the full product
    ball.  Both are exact discrete transforms of independent data.
    """
    from . import ulagrangian
    frame = ctx.frame
    ku = np.linspace(-frame.eps, frame.eps, resolution)
    if ctx.dim_uprime != 1:
        raise ValueError("conjugacy check implemented for 1-dimensional U'")
    lvals = np.array([ulagrangian.l_value(ctx, np.array([u])) for u in ku])
    worst = 0.0
    h_grid = anchored_grid(ctx.model, frame, resolution=resolution)
    for zu in np.atleast_1d(z_u_grid):
        left = float(np.max(zu * ku - lvals))
        # dual point in frame coordinates: (z_U, anchor_V)
        z_coords = np.concatenate([[zu], frame.anchor_v])
        right = float(conjugate_at(h_grid, z_coords[None, :])[0])
        worst = max(worst, abs(left - right))
    return worst
