"""Second-order machinery: difference quotients, Dini derivatives, subjet
membership, rank-1 supports and the second-order component, limiting
Hessians, Moreau envelopes, coderivative checks and conjugate-Hessian duality.

The rank-1 support of the limiting subhessian is approximated variationally:
it is the sup over f-attentive nearby (x', z') in the subdifferential graph of
the symmetric Dini quotient at (x', z'), with direction balls that scale with
the probe distance.  Quotients at the base point alone miss curvature carried
by neighbouring kinks (they see only the non-limiting subjet).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (CapabilityMissing, EmptyBundle, LambdaTooLarge,
                     NotASubspace, SingularHessian)
from .oracle import (DEFAULT_ACTIVE_TOL, QuadraticPiece, FunctionModel, Flags,
                     active_set, evaluate, evaluate_many,
                     subdifferential_polytope)
from .solvers import (cluster_minimizers, minimize_branches,
                      sphere_directions, _offset_lattice)
from . import vu


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient(fun, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = step
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return g


def fd_hessian(fun, x, step=1e-4):
    """Central second differences, fully symmetrized."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    f0 = fun(x)
    E = step * np.eye(n)
    for i in range(n):
        H[i, i] = (fun(x + 2 * E[i]) - 2 * f0 + fun(x - 2 * E[i])) / (4 * step**2)
        for j in range(i + 1, n):
            pij = (fun(x + E[i] + E[j]) - fun(x + E[i] - E[j])
                   - fun(x - E[i] + E[j]) + fun(x - E[i] - E[j])) / (4 * step**2)
            H[i, j] = H[j, i] = pij
    return 0.5 * (H + H.T)


def fd_hessian_from_gradient(grad, x, step=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        H[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * step)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# quotients and shell traces

def delta2(model, x, z, t, u, fx=None):
    """Second-order difference quotient 2[f(x+tu) - f(x) - t<z,u>]/t^2;
    fx, when given, is f(x) and saves its evaluation.

    The campaigns compute this quotient in batch (_shell_minima); this scalar
    form is the reference the tests compare that batch against."""
    if t == 0.0:
        raise ValueError("t must be nonzero")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    fxt = evaluate(model, x + t * u)
    if not np.isfinite(fxt):
        return np.inf
    if fx is None:
        fx = evaluate(model, x)
    return 2.0 * (fxt - fx - t * float(np.dot(z, u))) / t**2


# Dini shells t at the base point, 0.1 halved down to 1e-4 (exact halvings),
# each searched over the ball of radius DIR_BALL * t around h with REFINE
# refinements; a shell trace diverges past DIVERGENCE_THRESHOLD.
SHELL_TS = 0.1 * 0.5 ** np.arange(10)
DIR_BALL = 0.1
REFINE = 2
DIVERGENCE_THRESHOLD = 1e3


@dataclass
class ShellTrace:
    ts: np.ndarray
    values: np.ndarray

    @property
    def estimate(self):
        tail = self.values[-3:] if len(self.values) >= 3 else self.values
        return float(np.min(tail))

    @property
    def divergent(self):
        v = self.values
        increasing = len(v) < 3 or v[-3] < v[-2] < v[-1]
        return bool(v[-1] > DIVERGENCE_THRESHOLD and increasing)


def _shell_minima(model, X, Z, H, T, R, FX):
    """min of Delta2 over directions u near h with ||u|| = ||h||, for every
    row (x, z, h, t, radius, f(x)) of the stacked arrays at once.

    Each row is one deterministic search: the offset lattice around the best
    direction so far, then shrinking pattern refinement.  All rows step
    through the offsets in lockstep with one evaluate_many per offset, and
    each row follows the path of a one-point search bit for bit.

    Candidates are projected back to the sphere: the liminf lets the radial
    component of u -> h vanish, and keeping it would bias smooth quotients by
    O(ball radius)."""
    scale = np.sqrt(np.vecdot(H, H))
    # the scalar power t ** 2 of a one-point search: the array form (t * t)
    # rounds differently for some t
    T2 = np.array([t ** 2 for t in T])

    def quotients(U):
        F = evaluate_many(model, X + T[:, None] * U)
        Q = 2.0 * (F - FX - T * np.vecdot(Z, U)) / T2
        return np.where(np.isfinite(F), Q, np.inf)

    def project(U):
        G = U - H
        norm = np.sqrt(np.vecdot(G, G))
        out = norm > R
        U[out] = H[out] + G[out] * (R[out] / norm[out])[:, None]
        nu = np.sqrt(np.vecdot(U, U))
        on = nu >= 1e-15
        U[on] = U[on] * (scale[on] / nu[on])[:, None]
        return U

    rad = R
    best_u = H
    best = quotients(H)
    for _ in range(REFINE + 1):
        for o in _offset_lattice(H.shape[1])[1:]:
            U = project(best_u + rad[:, None] * o)
            V = quotients(U)
            better = V < best
            best = np.where(better, V, best)
            best_u = np.where(better[:, None], U, best_u)
        rad = rad * 0.3
    return best


def _shell_traces(model, sites, specs):
    """The ShellTrace of every spec (site, h, ts, radii): per shell t the
    lower second-order Dini quotient minimized over the ball of that radius
    around h, all shells of all specs searched in one _shell_minima batch.

    sites lists the points (x, z); a spec names its site by index and gives
    one ball radius per shell t."""
    X = np.array([x for x, _ in sites], dtype=float)
    Z = np.array([z for _, z in sites], dtype=float)
    FX = evaluate_many(model, X)
    lengths = [len(ts) for _, _, ts, _ in specs]
    idx = np.repeat([s for s, _, _, _ in specs], lengths)
    H = np.repeat(np.array([h for _, h, _, _ in specs], dtype=float),
                  lengths, axis=0)
    T = np.concatenate([ts for _, _, ts, _ in specs])
    R = np.concatenate([radii for _, _, _, radii in specs])
    best = _shell_minima(model, X[idx], Z[idx], H, T, R, FX[idx])
    parts = np.split(best, np.cumsum(lengths)[:-1])
    return [ShellTrace(ts=np.array(ts), values=v)
            for (_, _, ts, _), v in zip(specs, parts)]


# ---------------------------------------------------------------------------
# rank-1 support of the limiting subhessian

@dataclass
class RankOneResult:
    value: float | None          # None when divergent
    shells: list  # per-probe (trace_plus, trace_minus)

    @property
    def divergent(self):
        return self.value is None


from .solvers import hull_point_candidates as _z_candidates

# Probe sites at distance rho in PROBE_RADII along PROBE_DIRS directions,
# f- and z-attentive within PROBE_F_RADIUS and PROBE_Z_RADIUS (relative);
# each searches the shells PROBE_T_FRACS * rho, balls PROBE_BALL_SCALE * rho.
PROBE_RADII = (0.03, 0.01)
PROBE_DIRS = 8
PROBE_F_RADIUS = 0.5
PROBE_Z_RADIUS = 0.5
PROBE_T_FRACS = (0.1, 0.05, 0.025, 0.0125)
PROBE_BALL_SCALE = 2.0


def attentive_probes(model, x, z):
    """Nearby (x', z', rho) in the subdifferential graph: kink points x'
    within the f-attentive radius whose hull holds subgradients z' near z."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    fx = evaluate(model, x)
    probes = []
    seen = set()
    dirs = sphere_directions(model.dim, PROBE_DIRS)
    for rho in PROBE_RADII:
        for d in dirs:
            xp = x + rho * d
            if abs(evaluate(model, xp) - fx) > PROBE_F_RADIUS * (1.0 + abs(fx)):
                continue
            try:
                poly = subdifferential_polytope(model, xp)
            except CapabilityMissing:
                continue
            if len(poly.generators) < 2:
                continue
            for zp in _z_candidates(poly.generators):
                if np.linalg.norm(zp - z) > PROBE_Z_RADIUS * (1.0 + np.linalg.norm(z)):
                    continue
                key = (tuple(np.round(xp, 12)), tuple(np.round(zp, 12)))
                if key in seen:
                    continue
                seen.add(key)
                probes.append((xp, zp, rho))
    return probes


def _symmetric_estimate(tp, tm):
    """min over +-h of the per-probe Dini estimates; divergent needs both."""
    vals = [t.estimate for t in (tp, tm) if not t.divergent]
    if not vals:
        return True, None, (tp, tm)
    return False, float(min(vals)), (tp, tm)


def rank1_supports(model, x, z, H, probes=None):
    """Rank-1 support q of the limiting subhessian along every unit
    direction in the rows of H, with the Dini searches of all directions,
    sites and shells run in one batch.

    Value = sup over the base point and attentive probes of the symmetric
    Dini estimate; divergent as soon as one probe diverges in both +-h.
    probes, when given, is attentive_probes(model, x, z), so that callers
    querying many directions at one (x, z) compute it once.
    """
    H = np.asarray(H, dtype=float).reshape(-1, len(x))
    if len(H) == 0:
        return []
    if probes is None:
        probes = attentive_probes(model, x, z)
    sites = [(np.asarray(x, float), np.asarray(z, float))]
    shells = [(SHELL_TS, DIR_BALL * SHELL_TS)]
    for xp, zp, rho in probes:
        pts = rho * np.asarray(PROBE_T_FRACS)
        sites.append((xp, zp))
        shells.append((pts, np.full(len(pts), PROBE_BALL_SCALE * rho)))
    specs = [(s, sign * h, t, r) for h in H for s, (t, r) in enumerate(shells)
             for sign in (1.0, -1.0)]
    traces = _shell_traces(model, sites, specs)
    out = []
    for k in range(len(H)):
        first = 2 * len(sites) * k
        results = [_symmetric_estimate(traces[first + 2 * s],
                                       traces[first + 2 * s + 1])
                   for s in range(len(sites))]
        divergent = any(r[0] for r in results)
        out.append(RankOneResult(
            value=None if divergent else max(r[1] for r in results),
            shells=[r[2] for r in results]))
    return out


GRID_TOL = 1e-10


@dataclass
class RankOneProfile:
    directions: np.ndarray
    values: list                 # float per direction, None when divergent
    support: object              # callable H -> RankOneResult per row of H
    u2_in_u_residual: float      # largest distance of a U^2 basis vector to U

    def finite_directions(self):
        return self.directions[[v is not None for v in self.values]]


# 2-D profile directions, and the midpoints checked for closure.
PROFILE_DIRS = 64
MIDPOINT_CHECKS = 6


def second_order_component(model, x, z):
    """Second-order component: span of the directions with finite rank-1
    support, verified to be subspace-like and contained in U.

    Returns (u2_basis, RankOneProfile).  Raises NotASubspace when the finite
    set fails closure under midpoints.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    poly = subdifferential_polytope(model, x)
    if not vu.rel_interior_contains(poly, z):
        warnings.warn("anchor is not in the relative interior of the hull; "
                      "the second-order component may degenerate", stacklevel=2)
    dir_grid = sphere_directions(model.dim, PROFILE_DIRS)
    probes = attentive_probes(model, x, z)

    # antipodes share one search; the grid alone decides which
    owner = list(range(len(dir_grid)))
    searched = []
    for i, h in enumerate(dir_grid):
        if owner[i] != i:
            continue
        searched.append(i)
        for j in range(i + 1, len(dir_grid)):
            if owner[j] == j and np.linalg.norm(dir_grid[j] + h) <= 1e-12:
                owner[j] = i
    results = dict(zip(searched, rank1_supports(model, x, z, dir_grid[searched],
                                                probes)))
    values = [results[i].value for i in owner]

    finite = dir_grid[[v is not None for v in values]]
    if len(finite) == 0:
        u2 = np.zeros((model.dim, 0))
    else:
        _, s, vt = np.linalg.svd(finite, full_matrices=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        u2 = vt[:rank].T
        # closure: midpoints of finite directions stay finite; pairs are
        # drawn at several index separations so cone-shaped finite sets
        # (closed only near each ray) cannot slip through
        m_dirs = len(finite)
        pairs = []
        for step in sorted({1, 2, max(1, m_dirs // 5), max(1, m_dirs // 3),
                            max(1, m_dirs // 2)}, reverse=True):
            for i in range(0, m_dirs - step, max(1, m_dirs // 4)):
                pairs.append((i, i + step))
        mids = []
        for i, j in pairs:
            if len(mids) >= MIDPOINT_CHECKS:
                break
            m = finite[i] + finite[j]
            nm = np.linalg.norm(m)
            if nm >= 1e-8:
                mids.append(m / nm)
        if any(res.divergent
               for res in rank1_supports(model, x, z, mids, probes)):
            raise NotASubspace(
                "finite-direction set is not closed under midpoints")
    frame = vu.decompose(poly, z)
    angle = 0.0
    if u2.shape[1]:
        resid = u2 - frame.u_basis @ (frame.u_basis.T @ u2)
        angle = float(np.max(np.linalg.norm(resid, axis=0)))
        if angle > 1e-8:
            warnings.warn("second-order component is not contained in U",
                          stacklevel=2)
    return u2, RankOneProfile(
        directions=dir_grid, values=values,
        support=lambda H: rank1_supports(model, x, z, H, probes),
        u2_in_u_residual=angle)


# ---------------------------------------------------------------------------
# subjet membership

@dataclass
class JetCandidate:
    x: np.ndarray
    z: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-12:
            raise ValueError("Q must be symmetric")


@dataclass
class MembershipResult:
    status: str                 # member | rejected | inconclusive
    witness: np.ndarray | None
    min_margin: float


# c in the small-order slack eta(r) = c sqrt(r) of subjets and Taylor bounds.
ETA_COEFF = 0.01
MEMBERSHIP_RADII = tuple(0.2 * 0.5**k for k in range(8))


def subjet_membership(model, cand, *, radii=MEMBERSHIP_RADII, n_dirs=64):
    """Test f(x+d) >= f(x) + <z,d> + 0.5 d^T Q d - eta(||d||) ||d||^2 over
    n_dirs directions on shells of the given shrinking radii, with
    eta = ETA_COEFF sqrt(r) (the vanishing slack the small-order term
    allows)."""
    fx = evaluate(model, cand.x)
    dirs = sphere_directions(len(cand.x), n_dirs)
    margins = np.empty((len(radii), len(dirs)))
    for si, r in enumerate(radii):
        eta = ETA_COEFF * np.sqrt(r)
        S = r * dirs
        # the stacked matmul runs the vector-matrix kernel of step @ Q per row
        SQ = np.matmul(S[:, None, :], cand.Q)[:, 0, :]
        raw = (evaluate_many(model, cand.x + S) - fx - np.vecdot(cand.z, S)
               - 0.5 * np.vecdot(SQ, S))
        margins[si] = raw + eta * r**2
    min_margin = float(margins.min())
    if min_margin >= 0.0:
        return MembershipResult("member", None, min_margin)
    persistent = np.all(margins[-3:] < 0.0, axis=0)
    if persistent.any():
        worst = int(np.argmin(margins[-1] + np.where(persistent, 0.0, np.inf)))
        return MembershipResult("rejected", dirs[worst], min_margin)
    return MembershipResult("inconclusive", None, min_margin)


# ---------------------------------------------------------------------------
# limiting Hessians and coderivative criteria

@dataclass
class HessianBundle:
    samples: list               # (point, hessian) pairs
    source: str                 # analytic | finite_difference | moreau

    def matrices(self):
        return [H for _, H in self.samples]


def limiting_hessians(model, x, z, radii=(0.1, 0.05, 0.02, 0.01),
                      n_dirs=16, gradient_tol=0.5, fd_step=None,
                      include_center=False):
    """Hessian samples at nearby twice-differentiable points whose gradients
    pass the z-filter, symmetrized; raises EmptyBundle when none qualify."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    dirs = sphere_directions(model.dim, n_dirs)
    pts = [x] if include_center else []
    for rho in radii:
        pts.extend(x + rho * d for d in dirs)
    samples = []
    source = "finite_difference"
    for p in pts:
        step = fd_step if fd_step is not None else 1e-4 * (1.0 + np.linalg.norm(p))
        if model.kind in ("max_of_smooth", "sum_of_smooth_and_polyhedral"):
            try:
                act = active_set(model, p, DEFAULT_ACTIVE_TOL)
            except CapabilityMissing:
                act = None
            if act is not None and len(act) != 1:
                continue  # kink point, no classical Hessian
            if model.kind == "max_of_smooth":
                i = next(iter(act))
                grad = model.pieces[i].gradient(p)
                H = model.pieces[i].hessian(p)
                source = "analytic"
            else:
                grad = sum(pc.gradient(p) for pc in model.pieces)
                H = sum(pc.hessian(p) for pc in model.pieces)
                if act is not None:
                    i = next(iter(act))
                    grad = grad + model.polyhedral_part[i].gradient(p)
                source = "analytic"
        elif model.gradient_fn is not None:
            grad = np.asarray(model.gradient_fn(p), dtype=float)
            H = fd_hessian_from_gradient(
                lambda q: np.asarray(model.gradient_fn(q), float), p, step)
            source = model.meta.get("source", "finite_difference")
        else:
            grad = fd_gradient(lambda q: evaluate(model, q), p, 1e-6)
            H = fd_hessian(lambda q: evaluate(model, q), p, step)
        if np.linalg.norm(grad - z) > gradient_tol:
            continue
        H = 0.5 * (np.atleast_2d(H) + np.atleast_2d(H).T)
        samples.append((p, H))
    if not samples:
        raise EmptyBundle("no admissible twice-differentiable sample points")
    return HessianBundle(samples=samples, source=source)


def coderivative_c11(bundle, h):
    """Images {Q h} of the bundle and the hull support value max h^T Q h."""
    if not bundle.samples:
        raise EmptyBundle("bundle is empty")
    h = np.asarray(h, dtype=float)
    images = [H @ h for H in bundle.matrices()]
    support = max(float(h @ H @ h) for H in bundle.matrices())
    return images, support


def tilt_criterion_c11(bundle, dir_grid=None):
    """beta_hat = min over unit directions and samples of h^T Q h; positive
    beta certifies the tilt-stability criterion at sample scale."""
    if not bundle.samples:
        raise EmptyBundle("bundle is empty")
    n = bundle.samples[0][1].shape[0]
    if dir_grid is None:
        dir_grid = sphere_directions(n, 64 if n >= 2 else 2)
    beta = np.inf
    for h in np.atleast_2d(dir_grid):
        for H in bundle.matrices():
            beta = min(beta, float(h @ H @ h))
    return float(beta)


# ---------------------------------------------------------------------------
# Moreau envelope

def lambda_too_large(model, lam):
    """Whether the declared quadratic minorant (alpha, R) of the model rules
    out the Moreau parameter lam: the envelope needs R < 1/lam."""
    qm = model.flags.quadratic_minorant
    return qm is not None and qm[1] > 0.0 and qm[1] >= 1.0 / lam - 1e-12


def prox_points(model, lam, x):
    """Envelope value, the prox points at x and whether a solver hit its
    budget (the points are then approximate, and SolverBudgetExceeded is
    warned).  The prox points are every minimizer that cluster_minimizers
    keeps, nearest to x first; more than one point means the prox is
    set-valued at x.

    Requires lam > 0 and, when a quadratic minorant (alpha, R) is declared,
    R < 1/lam; the value is the objective at the first prox point.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    if lambda_too_large(model, lam):
        R = model.flags.quadratic_minorant[1]
        raise LambdaTooLarge(f"quadratic minorant R={R} requires lam < {1/R}")
    radius = 4.0 * (1.0 + np.linalg.norm(x) + lam)
    prox_piece = QuadraticPiece(np.eye(model.dim) / lam, -x / lam,
                                float(x @ x) / (2.0 * lam))
    branches = model.solver_branches()
    if branches is not None:
        branches = [(mp, sp + [prox_piece]) for mp, sp in branches]

    def objective(U):
        return (evaluate_many(model, U)
                + np.sum((x - U) ** 2, axis=1) / (2.0 * lam))

    for attempt in range(3):
        # an attempt on the search-ball boundary is discarded, and so are
        # its solver warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = minimize_branches(branches, objective, x, radius)
        reps, best = cluster_minimizers(res.points, res.values,
                                        1e-9 * (1 + abs(res.values.min())), 1e-9)
        reps = np.array(sorted(reps, key=lambda p: (np.linalg.norm(p - x),
                                                    tuple(p))), dtype=float)
        if np.linalg.norm(reps[0] - x) < radius * (1.0 - 1e-6):
            for w in caught:
                warnings.warn(w.message, stacklevel=2)
            return float(objective(reps[:1])[0]), reps, res.approximate
        radius *= 4.0
    raise LambdaTooLarge("prox search kept hitting the search-ball boundary")


def moreau_envelope(model, lam, x):
    """Infimal convolution value and prox point at x (the prox point nearest
    x when the prox is set-valued), and whether the prox solve hit its
    budget; the gradient of the envelope is (x - prox)/lam."""
    val, reps, approximate = prox_points(model, lam, x)
    return val, reps[0], approximate


def moreau_model(model, lam):
    """The envelope as a first-class model (C^{1,1} by construction)."""
    def value_fn(x):
        return moreau_envelope(model, lam, x)[0]

    def gradient_fn(x):
        _, prox, _ = moreau_envelope(model, lam, x)
        return (np.asarray(x, dtype=float) - prox) / lam

    out = FunctionModel(
        dim=model.dim, kind="custom", value_fn=value_fn, gradient_fn=gradient_fn,
        flags=Flags(convex=model.flags.convex),
        name=f"moreau({model.name},{lam})")
    out.meta = {"source": "moreau",
                "default_base_point": model.meta.get("default_base_point",
                                                     np.zeros(model.dim))}
    return out


# ---------------------------------------------------------------------------
# appendix checks

# para_convexity_check points t d: t in PARA_TS, d among at most
# PARA_MAX_DIRS finite directions (a cap on the quadratic pair growth).
PARA_TS = (0.5, 1.0)
PARA_MAX_DIRS = 8


def para_convexity_check(profile, r):
    """Worst midpoint-convexity violation of h -> q(h) + r||h||^2 over points
    built from the finite directions, after degree-2 homogeneous extension
    q(h) = q(h/||h||) ||h||^2.

    q at a unit direction is the value of the first profile direction within
    GRID_TOL of it (inf when divergent).  Directions off the profile grid are
    evaluated by one batched call of the profile's support callable, once
    per direction rounded to 12 digits, so the check stays exact rather than
    interpolated."""
    finite = profile.finite_directions()
    if len(finite) == 0:
        return 0.0
    if len(finite) > PARA_MAX_DIRS:
        stride = int(np.ceil(len(finite) / PARA_MAX_DIRS))
        finite = finite[::stride]
    pts = [t * d for d in finite for t in PARA_TS]
    # (midpoint, end, end) triples, flattened
    points = [w for i in range(len(pts)) for j in range(i, len(pts))
              for w in (0.5 * (pts[i] + pts[j]), pts[i], pts[j])]
    norms = [np.linalg.norm(h) for h in points]
    q = []          # per point: q at its unit direction, or its off-grid key
    off_grid = {}
    for h, n in zip(points, norms):
        if n < 1e-15:
            q.append(0.0)
            continue
        d = h / n
        D = profile.directions - d
        hits = np.flatnonzero(np.sqrt(np.vecdot(D, D)) <= GRID_TOL)
        if hits.size:
            v = profile.values[hits[0]]
            q.append(np.inf if v is None else v)
        else:
            key = tuple(np.round(d, 12))
            off_grid.setdefault(key, d)
            q.append(key)
    if off_grid:
        results = profile.support(np.array(list(off_grid.values())))
        fetched = {key: np.inf if res.divergent else res.value
                   for key, res in zip(off_grid, results)}
        q = [fetched[v] if isinstance(v, tuple) else v for v in q]
    g = [v * n ** 2 + r * float(np.dot(h, h))
         for v, n, h in zip(q, norms, points)]
    worst = -np.inf
    for gm, ga, gb in zip(g[0::3], g[1::3], g[2::3]):
        if not np.isfinite(gm):
            gm = np.inf
        worst = max(worst, gm - 0.5 * (ga + gb))
    return float(worst)


def _quadratic_fit_hessian(zs, vals, center):
    """Least-squares quadratic fit around center; returns the Hessian."""
    Z = np.atleast_2d(zs) - center
    d = Z.shape[1]
    cols = [np.ones(len(Z))]
    cols.extend(Z[:, i] for i in range(d))
    quad_index = []
    for i in range(d):
        for j in range(i, d):
            cols.append(Z[:, i] * Z[:, j])
            quad_index.append((i, j))
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    H = np.zeros((d, d))
    for k, (i, j) in enumerate(quad_index):
        c = coef[1 + d + k]
        if i == j:
            H[i, i] = 2.0 * c
        else:
            H[i, j] = H[j, i] = c
    return H


# hessian_duality_check: the fd step at x, the primal grid (half-width and
# nodes per axis) and the dual stencil (spacing and half-width in steps).
DUALITY_FD_STEP = 1e-5
DUALITY_BOX_HALF = 2.0
DUALITY_RESOLUTION = 401
DUALITY_STEP = 0.1
DUALITY_STENCIL_HALF = 2


def hessian_duality_check(model, x):
    """Residual ||grad^2 f*(z) - Q^{-1}||_F with Q the finite-difference
    Hessian at x, z the gradient, and f* sampled from the discrete conjugate
    over a primal grid (dual Hessian by local quadratic fit)."""
    from .envelope import conjugate_at, grid_from_batches
    x = np.asarray(x, dtype=float)
    fun = lambda p: evaluate(model, p)
    Q = fd_hessian(fun, x, DUALITY_FD_STEP)
    z = fd_gradient(fun, x, DUALITY_FD_STEP)
    eig = np.linalg.eigvalsh(Q)
    if eig.min() <= 1e-8 * max(eig.max(), 1.0):
        raise SingularHessian("finite-difference Hessian is not positive definite")
    d = model.dim
    box = np.column_stack([x - DUALITY_BOX_HALF, x + DUALITY_BOX_HALF])
    gf = grid_from_batches(lambda P: evaluate_many(model, P), box,
                           (DUALITY_RESOLUTION,) * d)
    stencil = np.arange(-DUALITY_STENCIL_HALF, DUALITY_STENCIL_HALF + 1)
    offsets = DUALITY_STEP * np.array(
        np.meshgrid(*([stencil] * d), indexing="ij")).reshape(d, -1).T
    zs = z + offsets
    vals = conjugate_at(gf, zs)
    H_star = _quadratic_fit_hessian(zs, vals, z)
    return float(np.linalg.norm(H_star - np.linalg.inv(Q), ord="fro"))


def uniform_bound_check(model, x, z, u2_basis):
    """M_hat = max over U^2 directions (base point and attentive probes) of
    the finite-shell quotient estimates; finiteness is the assertion."""
    u2 = np.atleast_2d(u2_basis)
    k = u2.shape[1]
    if k == 0:
        return 0.0
    H = [u2 @ w / np.linalg.norm(u2 @ w)
         for w in sphere_directions(k, 16)]
    m_hat = -np.inf
    for res in rank1_supports(model, x, z, H):
        if res.divergent:
            return np.inf
        m_hat = max(m_hat, res.value)
    return float(m_hat)
