"""Manifold traces (u, v(u)) and the smoothness / lower-Taylor diagnostics.

A trace is a single chart: the graph of the selection v over a ball in the
second-order component.  Zero-dimensional components degenerate to the single
node u = 0 and every check passes vacuously rather than being skipped.
"""

from dataclasses import dataclass, field

import numpy as np

from .oracle import evaluate, subdifferential_polytope
from .solvers import (ball_lattice, cube_lattice, max_difference_quotient,
                      pair_differences)
from . import subjets, ulagrangian


@dataclass
class ManifoldTrace:
    ctx: object
    delta: float
    u_nodes: np.ndarray        # (m, k)
    v_values: np.ndarray       # (m, n_v)
    f_values: np.ndarray       # (m,)
    l_values: np.ndarray       # (m,)
    z_u_values: np.ndarray     # (m, k)
    dv_values: np.ndarray      # (m, n_v, k)
    boundary_flags: np.ndarray # (m,) bool
    resolution: int
    meta: dict = field(default_factory=dict)

    @property
    def dim_u(self):
        return self.u_nodes.shape[1]

    def points(self):
        """World-space trace points base + u + v(u)."""
        return np.array([self.ctx.point(u, v)
                         for u, v in zip(self.u_nodes, self.v_values)])

    def frame_coordinates(self):
        """(u, v) coordinate rows, U' block first (for envelope grids)."""
        return np.column_stack([self.u_nodes, self.v_values])


MAX_SHRINK = 3


def trace(ctx, delta, resolution=31, stability=None):
    """Populate the trace over the U'-grid in B_delta(0): the cube lattice
    with `resolution` nodes per axis filtered to the closed ball, which is
    the single node u = 0 when dim U' = 0.

    Preconditions: delta <= frame.eps; a stable verdict when one is supplied
    and the component is nontrivial.  BoundaryActive nodes are flagged (and
    delta is halved up to MAX_SHRINK times when any appear)."""
    if delta > ctx.frame.eps + 1e-12:
        raise ValueError("delta exceeds the frame radius")
    if stability is not None and ctx.dim_uprime > 0 and not stability.stable:
        raise ValueError("trace requires a tilt-stable base point")
    k = ctx.dim_uprime
    for attempt in range(MAX_SHRINK + 1):
        nodes = ball_lattice(k, delta, resolution)
        solves = [ulagrangian.solve(ctx, u) for u in nodes]
        flags = np.array([boundary for _, _, boundary in solves])
        if not flags.any() or attempt == MAX_SHRINK:
            break
        delta *= 0.5
    m = len(nodes)
    v_vals = np.array([v for v, _, _ in solves]).reshape(m, ctx.dim_vprime)
    # a clamped selection shifts the optimality condition by the ball's
    # normal cone, so membership validation only applies to interior nodes
    z_vals = np.array([ulagrangian.grad_l(ctx, u, validate=not flag)
                       for u, flag in zip(nodes, flags)]).reshape(m, k)
    dv = np.array([_selection_jacobian(ctx, u)
                   for u in nodes]).reshape(m, ctx.dim_vprime, k)
    f_vals = np.array([evaluate(ctx.model, ctx.point(u, v))
                       for u, v in zip(nodes, v_vals)])
    l_vals = np.array([lv for _, lv, _ in solves])
    return ManifoldTrace(ctx=ctx, delta=delta, u_nodes=nodes, v_values=v_vals,
                         f_values=f_vals, l_values=l_vals, z_u_values=z_vals,
                         dv_values=dv, boundary_flags=flags,
                         resolution=resolution)


def _selection_jacobian(ctx, u):
    """dv/du at u from central differences of the selection, with the step
    of grad_l, so the points are the ones grad_l has just solved.  Where
    u + h or u - h leaves the U'-ball, the one-sided three-point pair on the
    inside is used, which is O(h^2) like the central one."""
    k = ctx.dim_uprime
    h = ulagrangian.FD_STEP * (1.0 + np.linalg.norm(u))
    jac = np.zeros((ctx.dim_vprime, k))

    def inside(w):
        return np.linalg.norm(w) <= ctx.frame.eps + 1e-12

    def v(w):
        return ulagrangian.solve(ctx, w)[0]

    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        if inside(u + e) and inside(u - e):
            jac[:, i] = (v(u + e) - v(u - e)) / (2.0 * h)
        else:
            s = 1.0 if inside(u + 2 * e) else -1.0
            jac[:, i] = s * (-3.0 * v(u) + 4.0 * v(u + s * e)
                             - v(u + 2 * s * e)) / (2.0 * h)
    return jac


def c11_check(tr):
    """Max pairwise difference quotient of u -> z_U(u); the Lipschitz
    estimate Theorem-style smoothness is judged by."""
    return max_difference_quotient(tr.u_nodes, tr.z_u_values)


def grad_chain_check(tr):
    """Max over nodes and subdifferential generators of the chain-rule
    residual |(e_U, grad v)^T s - z_U|: the projected pairing must be single
    valued even where the subdifferential is not."""
    ctx = tr.ctx
    worst = 0.0
    for idx, (u, v) in enumerate(zip(tr.u_nodes, tr.v_values)):
        point = ctx.point(u, v)
        poly = subdifferential_polytope(ctx.model, point)
        for s in poly.generators:
            for i in range(tr.dim_u):
                tangent = ctx.uprime_basis[:, i].copy()
                if ctx.dim_vprime:
                    tangent = tangent + ctx.vprime_basis @ tr.dv_values[idx, :, i]
                worst = max(worst, abs(float(tangent @ s) - tr.z_u_values[idx, i]))
    return worst


# taylor_lower_check: the curvature back-off, and the cube lattice (half-width,
# nodes per axis) sampled in U' and in V' around every node.
Q_MARGIN = 0.1
SAMPLE_RADIUS = 0.05
SAMPLES_PER_AXIS = 5


def taylor_lower_check(tr, inflate=0.0):
    """Worst margin of the local lower Taylor estimate around each node.

    Q is a curvature matrix for the Lagrangian at (u, z_U(u)), backed off by
    Q_MARGIN and certified through subjet membership, with the slack
    subjets.ETA_COEFF sqrt(||du||) ||du||^2; inflate > 0 skips certification
    (the sharpness probe)."""
    ctx = tr.ctx
    k = tr.dim_u
    worst = np.inf
    u_offsets = cube_lattice(k, SAMPLE_RADIUS, SAMPLES_PER_AXIS)
    v_offsets = cube_lattice(ctx.dim_vprime, SAMPLE_RADIUS, SAMPLES_PER_AXIS)
    for idx, (u, v) in enumerate(zip(tr.u_nodes, tr.v_values)):
        if k:
            Q = _certified_curvature(tr, idx, inflate == 0.0)
            Q = Q + inflate * np.eye(k)
        else:
            Q = np.zeros((0, 0))
        f_node = tr.f_values[idx]
        w_z = np.zeros(ctx.frame.dim)
        if k:
            w_z += ctx.uprime_basis @ tr.z_u_values[idx]
        if ctx.dim_vprime:
            w_z += ctx.vprime_basis @ ctx.anchor_vprime
        for du in u_offsets:
            for dvv in v_offsets:
                up = u + du
                vp = v + dvv
                point = ctx.point(up, vp)
                delta_w = point - ctx.point(u, v)
                quad = 0.5 * float(du @ Q @ du) if k else 0.0
                eta = subjets.ETA_COEFF * np.linalg.norm(du) ** 0.5
                margin = (evaluate(ctx.model, point) - f_node
                          - float(w_z @ delta_w) - quad
                          + eta * float(du @ du))
                worst = min(worst, margin)
    return float(worst)


def _certified_curvature(tr, idx, certify):
    """Second difference estimate of the Lagrangian curvature at a node,
    backed off by Q_MARGIN and membership-certified on the Lagrangian."""
    ctx = tr.ctx
    k = tr.dim_u
    u = tr.u_nodes[idx]
    step = 1e-3 * (1.0 + np.linalg.norm(u))
    H = subjets.fd_hessian(lambda w: ulagrangian.l_value(ctx, w), u, step)
    Q = 0.5 * (H + H.T) - Q_MARGIN * np.eye(k)
    if not certify:
        return Q
    from .oracle import FunctionModel, Flags
    l_model = FunctionModel(dim=k, kind="custom",
                            value_fn=lambda w: ulagrangian.l_value(ctx, w),
                            flags=Flags(locally_lipschitz=True),
                            name="lagrangian")
    radii = tuple(0.04 * 0.5**j for j in range(6))
    for extra in (0.0, Q_MARGIN, 3 * Q_MARGIN):
        cand = subjets.JetCandidate(x=u, z=tr.z_u_values[idx],
                                    Q=Q - extra * np.eye(k))
        if subjets.subjet_membership(l_model, cand, radii=radii,
                                     n_dirs=16).status == "member":
            return Q - extra * np.eye(k)
    return Q - 3 * Q_MARGIN * np.eye(k)


def dv_continuity_check(tr):
    """Max jump of dv between lattice neighbours, the node pairs one grid
    spacing apart; refinement should shrink it for continuously
    differentiable selections."""
    if tr.resolution < 2:
        return 0.0
    spacing = 2.0 * tr.delta / (tr.resolution - 1)
    dv = tr.dv_values.reshape(len(tr.u_nodes), -1)
    jump = 0.0
    for du, ddv in pair_differences(tr.u_nodes, dv):
        near = np.sqrt(np.vecdot(du, du)) <= spacing * (1.0 + 1e-9)
        jumps = np.sqrt(np.vecdot(ddv[near], ddv[near]))
        jump = max(jump, float(np.max(jumps, initial=0.0)))
    return jump


def g_l_consistency(tr):
    """Max |f(base+u+v(u)) - (L(u) + <anchor_V', v(u)>)| over the trace."""
    ctx = tr.ctx
    worst = 0.0
    for idx in range(len(tr.u_nodes)):
        lhs = tr.f_values[idx]
        rhs = tr.l_values[idx] + float(ctx.anchor_vprime @ tr.v_values[idx])
        worst = max(worst, abs(lhs - rhs))
    return worst
