"""Manifold traces (u, v(u)) and the smoothness / lower-Taylor diagnostics.

A trace is a single chart: the graph of the selection v over a ball in the
second-order component.  Zero-dimensional components degenerate to the single
node u = 0 and every check passes vacuously rather than being skipped.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryActive
from .oracle import evaluate, subdifferential_polytope
from .solvers import cube_lattice
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


def _stencil_derivative(values, h):
    """d/du along axis 0 of a 1-D node array of vectors: five-point central
    stencils inside, five-point one-sided at the edges (both O(h^4))."""
    m = len(values)
    out = np.zeros_like(values, dtype=float)
    for i in range(m):
        if 2 <= i <= m - 3:
            out[i] = (values[i - 2] - 8 * values[i - 1] + 8 * values[i + 1]
                      - values[i + 2]) / (12.0 * h)
        elif i == 0:
            out[i] = (-25 * values[0] + 48 * values[1] - 36 * values[2]
                      + 16 * values[3] - 3 * values[4]) / (12.0 * h)
        elif i == 1:
            out[i] = (-3 * values[0] - 10 * values[1] + 18 * values[2]
                      - 6 * values[3] + values[4]) / (12.0 * h)
        elif i == m - 2:
            out[i] = (3 * values[m - 1] + 10 * values[m - 2] - 18 * values[m - 3]
                      + 6 * values[m - 4] - values[m - 5]) / (12.0 * h)
        else:
            out[i] = (25 * values[m - 1] - 48 * values[m - 2] + 36 * values[m - 3]
                      - 16 * values[m - 4] + 3 * values[m - 5]) / (12.0 * h)
    return out


def trace(ctx, delta, resolution=31, stability=None, max_shrink=3):
    """Populate the trace over the U'-grid in B_delta(0).

    Preconditions: delta <= frame.eps; a stable verdict when one is supplied
    and the component is nontrivial.  BoundaryActive nodes are flagged (and
    delta is halved up to max_shrink times when any appear)."""
    if delta > ctx.frame.eps + 1e-12:
        raise ValueError("delta exceeds the frame radius")
    if stability is not None and ctx.dim_uprime > 0 and not stability.stable:
        raise ValueError("trace requires a tilt-stable base point")
    k = ctx.dim_uprime
    for attempt in range(max_shrink + 1):
        if k == 0:
            nodes = np.zeros((1, 0))
        elif k == 1:
            nodes = np.linspace(-delta, delta, resolution)[:, None]
        else:
            nodes = cube_lattice(k, delta, resolution)
            nodes = nodes[np.linalg.norm(nodes, axis=1) <= delta + 1e-12]
        v_vals, l_vals, f_vals, z_vals, dv_vals, flags = [], [], [], [], [], []
        for u in nodes:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", BoundaryActive)
                v = ulagrangian.v_of_u(ctx, u)
                lv = ulagrangian.l_value(ctx, u)
                flag = any(issubclass(w.category, BoundaryActive)
                           for w in caught)
                # a clamped selection shifts the optimality condition by the
                # ball's normal cone, so membership validation only applies
                # to interior nodes
                zu = (ulagrangian.grad_l(ctx, u, validate=not flag)
                      if k else np.zeros(0))
                if k >= 2:
                    dv_vals.append(_selection_jacobian(ctx, u))
            flags.append(flag)
            v_vals.append(v)
            l_vals.append(lv)
            f_vals.append(evaluate(ctx.model, ctx.point(u, v)))
            z_vals.append(zu)
        flags = np.array(flags)
        if not flags.any() or attempt == max_shrink:
            break
        delta *= 0.5
    v_vals = np.array(v_vals).reshape(len(nodes), ctx.dim_vprime)
    z_vals = np.array(z_vals).reshape(len(nodes), k)
    if k == 1 and len(nodes) >= 5:
        h = float(nodes[1, 0] - nodes[0, 0])
        dv = _stencil_derivative(v_vals, h)[:, :, None]
    elif k >= 2:
        dv = np.array(dv_vals).reshape(len(nodes), ctx.dim_vprime, k)
    else:
        dv = np.zeros((len(nodes), ctx.dim_vprime, k))
    return ManifoldTrace(ctx=ctx, delta=delta, u_nodes=nodes, v_values=v_vals,
                         f_values=np.array(f_vals), l_values=np.array(l_vals),
                         z_u_values=z_vals, dv_values=dv,
                         boundary_flags=flags, resolution=resolution)


def _selection_jacobian(ctx, u):
    """dv/du at u from central differences of v_of_u, with the step of
    grad_l, so the points are the ones grad_l has just solved.  Where u + h
    or u - h leaves the U'-ball, the one-sided three-point pair on the
    inside is used, which is O(h^2) like the central one."""
    k = ctx.dim_uprime
    h = 1e-5 * (1.0 + np.linalg.norm(u))
    jac = np.zeros((ctx.dim_vprime, k))

    def inside(w):
        return np.linalg.norm(w) <= ctx.frame.eps + 1e-12

    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        if inside(u + e) and inside(u - e):
            jac[:, i] = (ulagrangian.v_of_u(ctx, u + e)
                         - ulagrangian.v_of_u(ctx, u - e)) / (2.0 * h)
        else:
            s = 1.0 if inside(u + 2 * e) else -1.0
            jac[:, i] = s * (-3.0 * ulagrangian.v_of_u(ctx, u)
                             + 4.0 * ulagrangian.v_of_u(ctx, u + s * e)
                             - ulagrangian.v_of_u(ctx, u + 2 * s * e)) / (2.0 * h)
    return jac


def c11_check(tr):
    """Max pairwise difference quotient of u -> z_U(u); the Lipschitz
    estimate Theorem-style smoothness is judged by."""
    L = 0.0
    for i in range(len(tr.u_nodes)):
        for j in range(i + 1, len(tr.u_nodes)):
            du = np.linalg.norm(tr.u_nodes[i] - tr.u_nodes[j])
            if du < 1e-14:
                continue
            L = max(L, float(np.linalg.norm(tr.z_u_values[i] - tr.z_u_values[j])) / du)
    return L


def grad_chain_check(tr, tau=1e-9):
    """Max over nodes and subdifferential generators of the chain-rule
    residual |(e_U, grad v)^T s - z_U|: the projected pairing must be single
    valued even where the subdifferential is not."""
    ctx = tr.ctx
    worst = 0.0
    for idx, (u, v) in enumerate(zip(tr.u_nodes, tr.v_values)):
        point = ctx.point(u, v)
        poly = subdifferential_polytope(ctx.model, point, tau)
        for s in poly.generators:
            for i in range(tr.dim_u):
                tangent = ctx.uprime_basis[:, i].copy()
                if ctx.dim_vprime:
                    tangent = tangent + ctx.vprime_basis @ tr.dv_values[idx, :, i]
                worst = max(worst, abs(float(tangent @ s) - tr.z_u_values[idx, i]))
    return worst


def taylor_lower_check(tr, q_margin=0.1, inflate=0.0, sample_radius=0.05,
                       samples_per_axis=5, eta_coeff=0.01, certify=True):
    """Worst margin of the local lower Taylor estimate around each node.

    Q is a curvature matrix for the Lagrangian at (u, z_U(u)), backed off by
    q_margin and certified through subjet membership; inflate > 0 skips
    certification (the sharpness probe)."""
    ctx = tr.ctx
    k = tr.dim_u
    worst = np.inf
    u_offsets = cube_lattice(k, sample_radius, samples_per_axis)
    v_offsets = cube_lattice(ctx.dim_vprime, sample_radius, samples_per_axis)
    for idx, (u, v) in enumerate(zip(tr.u_nodes, tr.v_values)):
        if k:
            Q = _certified_curvature(tr, idx, q_margin, certify and inflate == 0.0)
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
                eta = eta_coeff * np.linalg.norm(du) ** 0.5
                margin = (evaluate(ctx.model, point) - f_node
                          - float(w_z @ delta_w) - quad
                          + eta * float(du @ du))
                worst = min(worst, margin)
    return float(worst)


def _certified_curvature(tr, idx, q_margin, certify):
    """Second difference estimate of the Lagrangian curvature at a node,
    backed off by q_margin and membership-certified on the Lagrangian."""
    ctx = tr.ctx
    k = tr.dim_u
    u = tr.u_nodes[idx]
    step = 1e-3 * (1.0 + np.linalg.norm(u))
    H = subjets.fd_hessian(lambda w: ulagrangian.l_value(ctx, w), u, step)
    Q = 0.5 * (H + H.T) - q_margin * np.eye(k)
    if not certify:
        return Q
    from .oracle import FunctionModel, Flags
    l_model = FunctionModel(dim=k, kind="custom",
                            value_fn=lambda w: ulagrangian.l_value(ctx, w),
                            flags=Flags(locally_lipschitz=True),
                            name="lagrangian")
    cfg = subjets.MembershipConfig(radii=tuple(0.04 * 0.5**j for j in range(6)),
                                   n_dirs=16 if k >= 2 else 2)
    for extra in (0.0, q_margin, 3 * q_margin):
        cand = subjets.JetCandidate(x=u, z=tr.z_u_values[idx],
                                    Q=Q - extra * np.eye(k))
        if subjets.subjet_membership(l_model, cand, cfg).status == "member":
            return Q - extra * np.eye(k)
    return Q - 3 * q_margin * np.eye(k)


def dv_continuity_check(tr):
    """Max jump of grad v between adjacent nodes (1-D grids); refinement
    should shrink it for continuously differentiable selections."""
    if tr.dim_u != 1 or len(tr.u_nodes) < 2:
        return 0.0
    jumps = np.linalg.norm(np.diff(tr.dv_values[:, :, 0], axis=0), axis=1)
    return float(np.max(jumps, initial=0.0))


def g_l_consistency(tr):
    """Max |f(base+u+v(u)) - (L(u) + <anchor_V', v(u)>)| over the trace."""
    ctx = tr.ctx
    worst = 0.0
    for idx in range(len(tr.u_nodes)):
        lhs = tr.f_values[idx]
        rhs = tr.l_values[idx] + float(ctx.anchor_vprime @ tr.v_values[idx])
        worst = max(worst, abs(lhs - rhs))
    return worst
