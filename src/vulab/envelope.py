"""Grid functions, pointwise lower convex envelopes and discrete conjugates.

An envelope query solves the defining linear program over the epigraph
points of the grid by column generation: the restricted LP starts from the
grid cell that contains the query point, and its duals price every node in
one product.  Conjugates are exact discrete suprema over the nodes.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .solvers import linprog


@dataclass
class GridFunction:
    box: np.ndarray          # (d, 2) axis bounds
    resolution: tuple        # points per axis
    values: np.ndarray       # shape == resolution, +inf allowed

    def __post_init__(self):
        self.box = np.atleast_2d(np.asarray(self.box, dtype=float))
        self.resolution = tuple(int(r) for r in np.atleast_1d(self.resolution))
        self.values = np.asarray(self.values, dtype=float).reshape(self.resolution)
        self._nodes = None

    @property
    def dim(self):
        return self.box.shape[0]

    def axes(self):
        return [np.linspace(self.box[i, 0], self.box[i, 1], self.resolution[i])
                for i in range(self.dim)]

    def nodes(self):
        """Every node as a row, in the row-major order of values.ravel();
        built on the first call and shared, read-only, after it."""
        if self._nodes is None:
            grids = np.meshgrid(*self.axes(), indexing="ij")
            self._nodes = np.column_stack([g.ravel() for g in grids])
            self._nodes.setflags(write=False)
        return self._nodes

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


# Column generation in envelope_at: a round adds at most ENVELOPE_BATCH
# nodes, the most negatively priced first, and the loop stops when no node
# outside the restricted LP prices below -ENVELOPE_TOL.  The convex weights
# sum to 1, so the full LP's optimum is then at most ENVELOPE_TOL below the
# restricted one.
ENVELOPE_BATCH = 64
ENVELOPE_TOL = 1e-12


def _cell_corners(gf, x):
    """Flat node indices of the 2^d corners of the grid cell that contains x,
    with the cell index clipped to the box."""
    corners = []
    for axis, xi in zip(gf.axes(), x):
        j = min(max(int(np.searchsorted(axis, xi, side="right")) - 1, 0),
                len(axis) - 2)
        corners.append((j, j + 1))
    return np.ravel_multi_index(np.array(list(itertools.product(*corners))).T,
                                gf.resolution)


def envelope_at(gf, x):
    """co(grid values) at a single point: min sum(lam_i f_i) over convex
    combinations of grid nodes hitting x (the defining epigraph LP).

    Column generation: each round solves the LP over a node subset, reads
    its equality duals (a, b) and prices every node as f_i - a.x_i - b.  It
    starts from the corners of x's grid cell, or from every finite node when
    a corner is +inf; +inf when the LP is infeasible (x outside the box or
    outside the hull of the finite nodes).  The node array is the grid's
    own, built once, so a loop of queries on one grid does not rebuild it.
    """
    x = np.asarray(x, dtype=float)
    nodes = gf.nodes()
    vals = gf.values.ravel()
    cols = _cell_corners(gf, x)
    if not np.isfinite(vals[cols]).all():
        cols = np.flatnonzero(np.isfinite(vals))
        if not len(cols):
            return np.inf
    b_eq = np.append(x, 1.0)
    while True:
        A_eq = np.vstack([nodes[cols].T, np.ones((1, len(cols)))])
        res = linprog(vals[cols], A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None),
                      method="highs")
        if res.status != 0:
            return np.inf
        duals = res.eqlin.marginals
        priced = vals - nodes @ duals[:-1] - duals[-1]
        priced[cols] = np.inf
        new = np.flatnonzero(priced < -ENVELOPE_TOL)
        if not len(new):
            return float(res.fun)
        if len(new) > ENVELOPE_BATCH:
            cheapest = np.argpartition(priced[new], ENVELOPE_BATCH)
            new = new[cheapest[:ENVELOPE_BATCH]]
        cols = np.union1d(cols, new)


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
    h_grid = anchored_grid(ctx.model, frame, resolution=resolution)
    z_u = np.atleast_1d(z_u_grid)
    # dual points in frame coordinates: (z_U, anchor_V), one conjugate call
    rights = conjugate_at(h_grid, np.column_stack(
        [z_u, np.tile(frame.anchor_v, (len(z_u), 1))]))
    worst = 0.0
    for zu, right in zip(z_u, rights):
        left = float(np.max(zu * ku - lvals))
        worst = max(worst, abs(left - float(right)))
    return worst
