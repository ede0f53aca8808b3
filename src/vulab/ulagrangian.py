"""Localized U-Lagrangian: the selection v(u), partial minimization values,
finite-difference gradients with membership cross-validation, and the
convexity / little-oh diagnostics.

All per-u work routes through one cached inner solve so value, selection and
gradient queries are consistent with each other.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryActive, InconsistentGradient, VULabError
from .oracle import (AffinePiece, evaluate, evaluate_many,
                     subdifferential_polytope)
from .solvers import (cluster_minimizers, exact_ties, hull_distance,
                      line_minimize, max_difference_quotient,
                      minimize_branches, quadratic_ball_minimize,
                      sphere_directions)
from .vu import principal_angle


def _complement(basis, dim):
    """Orthonormal basis of the orthogonal complement of span(basis)."""
    b = np.atleast_2d(basis)
    if b.shape[1] == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(b.T, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:].T


@dataclass
class ULagContext:
    """Frozen setup for one localized U'-Lagrangian study."""

    model: object
    frame: object
    uprime_basis: np.ndarray          # a subspace of the frame's U
    eps_v: float                      # inner V'-ball radius
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.uprime_basis = np.atleast_2d(np.asarray(self.uprime_basis, float))
        if (self.uprime_basis.size and self.frame.dim_u
                and principal_angle(self.uprime_basis, self.frame.u_basis) > 1e-10
                and not self._contained_in_u()):
            raise VULabError("U' basis is not contained in the U-space of the frame")
        self.vprime_basis = _complement(self.uprime_basis, self.frame.dim)
        self.anchor_vprime = self.vprime_basis.T @ self.frame.anchor

    def _contained_in_u(self):
        u = self.frame.u_basis
        resid = self.uprime_basis - u @ (u.T @ self.uprime_basis)
        return float(np.max(np.abs(resid), initial=0.0)) <= 1e-10

    @property
    def dim_uprime(self):
        return self.uprime_basis.shape[1]

    @property
    def dim_vprime(self):
        return self.vprime_basis.shape[1]

    def point(self, u, v):
        out = self.frame.base_point.copy()
        if self.dim_uprime:
            out = out + self.uprime_basis @ np.asarray(u, float)
        if self.dim_vprime:
            out = out + self.vprime_basis @ np.asarray(v, float)
        return out


def ball_objective(model, base, M, piece):
    """The batched objective V -> f(base + M v) + piece(v) over the rows v of
    V.  The stacked matmul rounds each M v like the matrix-vector product, and
    every ball solve and value query goes through this one float path."""
    def objective(V):
        X = base + np.matmul(M, V[:, :, None])[:, :, 0]
        return evaluate_many(model, X) + piece.values(V)
    return objective


def argmin_on_ball(model, base, M, piece, radius):
    """Minimizers of v -> f(base + M v) + piece(v) over ||v|| <= radius.

    The model's branch cover is restricted to the slice base + span(M) and
    `piece` is added to every branch.  A structured model whose pieces are
    all quadratic or affine is solved exactly: by solvers.line_minimize
    when M has one column, and by solvers.quadratic_ball_minimize when
    every branch with two or more max-pieces is convex with max-pieces
    that differ by affine terms or are all isotropic (solvers.exact_ties),
    so its minimizers lie on the flats or spheres where max-pieces tie.
    Custom branch covers only describe their model's value oracle, so they
    and all other problems, nonconvex multi-piece branches included, take
    the SLSQP multistart of solvers.minimize_branches.

    Returns (points, best, approximate): the near-optimal points, pairwise
    1e-6 * radius apart, smallest norm first; the best value; and whether a
    solver hit its budget.
    """
    objective = ball_objective(model, base, M, piece)
    branches = model.solver_branches()
    if branches is not None:
        branches = [([p.restrict(base, M) for p in mp],
                     [p.restrict(base, M) for p in sp] + [piece])
                    for mp, sp in branches]
    structured = model.kind != "custom" and all(
        p.kind in ("quadratic", "affine") for mp, sp in branches
        for p in mp + sp)
    if structured and M.shape[1] == 1:
        res = line_minimize(branches, objective, radius)
    elif structured and all(exact_ties(mp, sp, M.shape[1])
                            for mp, sp in branches):
        res = quadratic_ball_minimize(branches, objective, M.shape[1], radius)
    else:
        res = minimize_branches(branches, objective, np.zeros(M.shape[1]),
                                radius)
    cluster_tol = 1e-9 * (1.0 + abs(float(res.values.min())))
    points, best = cluster_minimizers(res.points, res.values, cluster_tol,
                                      1e-6 * radius)
    return points, best, res.approximate


def _slice_base(ctx, u):
    """x_bar + U' u, the point the V'-ball of the inner problem sits on."""
    u = np.asarray(u, dtype=float)
    return ctx.frame.base_point + (ctx.uprime_basis @ u if ctx.dim_uprime else 0.0)


def _inner_solve(ctx, u, anchor_v=None):
    """Minimize v -> f(base + u + v) - <anchor_V', v> over the V'-ball by
    argmin_on_ball.  Returns (v, value, boundary_active); v tie-broken by
    smallest norm then lexicographic order.
    """
    anchor_v = ctx.anchor_vprime if anchor_v is None else np.asarray(anchor_v, float)
    base = _slice_base(ctx, u)
    if ctx.dim_vprime == 0:
        return np.zeros(0), evaluate(ctx.model, base), False
    reps, best, _ = argmin_on_ball(ctx.model, base, ctx.vprime_basis,
                                   AffinePiece(-anchor_v), ctx.eps_v)
    v = reps[0]
    boundary = bool(np.linalg.norm(v) >= ctx.eps_v * (1.0 - 1e-9))
    return v, best, boundary


def _anchored_value(ctx, u, v):
    """f(base + u + v) - <anchor_V', v> through the objective of the inner
    solve, so every value query is bit-identical to the solve."""
    base = _slice_base(ctx, u)
    if ctx.dim_vprime == 0:
        return evaluate(ctx.model, base)
    objective = ball_objective(ctx.model, base, ctx.vprime_basis,
                               AffinePiece(-ctx.anchor_vprime))
    return float(objective(np.asarray(v, dtype=float)[None, :])[0])


def solve(ctx, u):
    """(v(u), L(u), boundary_active) from the inner solve at u, cached per
    context; v_of_u, l_value and grad_l all read this one solve."""
    key = tuple(np.round(np.asarray(u, float), 14))
    if key not in ctx._cache:
        v, _, boundary = _inner_solve(ctx, u)
        ctx._cache[key] = (v, _anchored_value(ctx, u, v), boundary)
    return ctx._cache[key]


def v_of_u(ctx, u):
    """Selection v(u): minimizer of the anchored inner problem over the
    V'-ball.  Warns BoundaryActive when the minimizer sits on the ball."""
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) > ctx.frame.eps + 1e-12:
        raise ValueError("u outside the U'-ball")
    v, _, boundary = solve(ctx, u)
    if boundary:
        warnings.warn("selection v(u) is active on the V'-ball boundary",
                      BoundaryActive, stacklevel=2)
    return v


def l_value(ctx, u):
    """Localized Lagrangian: f(base+u+v(u)) - <anchor_V', v(u)>, +inf outside
    the U'-ball."""
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) > ctx.frame.eps + 1e-12:
        return np.inf
    v, val, boundary = solve(ctx, u)
    if boundary:
        warnings.warn("selection v(u) is active on the V'-ball boundary",
                      BoundaryActive, stacklevel=2)
    return float(val)


# grad_l: relative difference step, and the hull distance it accepts.
FD_STEP = 1e-5
MEMBERSHIP_TOL = 1e-5


def grad_l(ctx, u, validate=True):
    """Central finite-difference gradient of the Lagrangian, cross-validated
    by membership of (z_U(u), anchor_V') in the subdifferential hull at the
    selected point."""
    u = np.asarray(u, dtype=float)
    step = FD_STEP * (1.0 + np.linalg.norm(u))
    g = np.zeros(ctx.dim_uprime)
    for i in range(ctx.dim_uprime):
        e = np.zeros(ctx.dim_uprime)
        e[i] = step
        g[i] = (l_value(ctx, u + e) - l_value(ctx, u - e)) / (2.0 * step)
    if validate:
        v, _, _ = solve(ctx, u)
        point = ctx.point(u, v)
        world = np.zeros(ctx.frame.dim)
        if ctx.dim_uprime:
            world += ctx.uprime_basis @ g
        if ctx.dim_vprime:
            world += ctx.vprime_basis @ ctx.anchor_vprime
        poly = subdifferential_polytope(ctx.model, point)
        dist = hull_distance(poly.generators, world)
        if dist > MEMBERSHIP_TOL:
            raise InconsistentGradient(
                f"finite-difference gradient {g} lies {dist:.2e} from the hull")
    return g


def convexity_check(ctx, u_grid):
    """Worst midpoint violation max L((a+b)/2) - (L(a)+L(b))/2 over grid
    pairs whose midpoint is itself a grid point."""
    nodes = [np.atleast_1d(np.asarray(u, float)) for u in u_grid]
    vals = [l_value(ctx, u) for u in nodes]
    index = {tuple(np.round(n, 12)): i for i, n in enumerate(nodes)}
    worst = -np.inf
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            mid = 0.5 * (nodes[i] + nodes[j])
            k = index.get(tuple(np.round(mid, 12)))
            if k is None:
                continue
            worst = max(worst, vals[k] - 0.5 * (vals[i] + vals[j]))
    return float(worst)


def little_oh_check(ctx, radii):
    """Per radius, the max over U' directions of ||v(u)||/||u||; decreasing
    ratios evidence v(u) = o(||u||)."""
    dirs = sphere_directions(ctx.dim_uprime, 16)
    out = []
    for r in radii:
        worst = 0.0
        for d in dirs:
            v, _, _ = solve(ctx, r * d)
            worst = max(worst, float(np.linalg.norm(v)) / r)
        out.append((float(r), worst))
    return out


# A selection norm ||v(u)|| of at most this many machine epsilons is rounding
# noise.  The exact line solve reads the selection v = 0 of abs_diff as 0.0
# (t = 0 is one of its candidates), but the SLSQP multistart for dim V' >= 2
# can stop a few eps from an exact zero, so the floor stays.
LITTLE_OH_NOISE_EPS = 64.0


def little_oh_holds(ratios, tol):
    """Verdict on little_oh_check ratios: nonincreasing in r and at most tol
    at the last radius.  A ratio at or below the noise floor
    LITTLE_OH_NOISE_EPS * eps / r counts as zero, so an exact zero selection
    is not failed for ratios that grow like eps / r."""
    floor = LITTLE_OH_NOISE_EPS * np.finfo(float).eps
    q = [0.0 if ratio <= floor / r else ratio for r, ratio in ratios]
    decreasing = all(q[i + 1] <= q[i] + 1e-12 for i in range(len(q) - 1))
    return decreasing and q[-1] <= tol


def common_selection_check(ctx, u_grid, tilt_mags=(-0.05, 0.0, 0.05)):
    """Max deviation of v(u) when the V'-tilt moves around the anchor; small
    deviations certify the common-selection hypothesis numerically."""
    worst = 0.0
    for u in u_grid:
        u = np.atleast_1d(np.asarray(u, float))
        base = None
        for mag in tilt_mags:
            for col in range(max(ctx.dim_vprime, 1)):
                tilt = ctx.anchor_vprime.copy()
                if ctx.dim_vprime:
                    tilt[col] += mag
                v, _, _ = _inner_solve(ctx, u, anchor_v=tilt)
                if base is None:
                    base = v
                else:
                    worst = max(worst, float(np.linalg.norm(v - base)))
    return worst


def lipschitz_gradient_bound(ctx, u_grid):
    """Max pairwise difference quotient of grad_l over the grid (finite for
    C^{1,1} Lagrangians); reported, not asserted."""
    nodes = [np.atleast_1d(np.asarray(u, float)) for u in u_grid]
    grads = [grad_l(ctx, u, validate=False) for u in nodes]
    return max_difference_quotient(nodes, grads)
