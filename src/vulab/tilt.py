"""Tilt map probing, tilt stability, prox-regularity and strict order-2 minima.

Verdicts are sampling-based evidence on deterministic lattices, not certified
global statements; every probe is reproducible bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .oracle import (AffinePiece, evaluate, evaluate_many,
                     subdifferential_polytope)
from .solvers import (DEFAULT_SOLVER, ball_lattice, cluster_minimizers,
                      hull_point_candidates, in_hull, max_difference_quotient,
                      minimize_branches, pair_differences)


@dataclass
class TiltProbeResult:
    z: np.ndarray
    minimizers: np.ndarray   # distinct near-optimal points, smallest norm first
    value: float
    single_valued: bool
    approximate: bool = False

    @property
    def minimizer(self):
        return self.minimizers[0]


@dataclass
class StabilityVerdict:
    stable: bool
    lipschitz_estimate: float
    witness: np.ndarray | None
    grid_radius: float
    status: str = "stable"   # stable | unstable | inconclusive
    probes: list = field(default_factory=list)


def _tilted_branches(model, z):
    branches = model.solver_branches()
    if branches is None:
        return None
    tilt_piece = AffinePiece(-np.asarray(z, dtype=float))
    return [(max_pieces, sum_pieces + [tilt_piece])
            for max_pieces, sum_pieces in branches]


def tilt_map(model, base_point, eps, z, solver_cfg=None):
    """argmin of f(x) - <x, z> over the closed eps-ball around base_point.

    Deterministic multistart + polish; all reported minimizers attain the best
    value within cluster_tol and are pairwise sep_tol apart.
    """
    base_point = np.asarray(base_point, dtype=float)
    z = np.asarray(z, dtype=float)
    cfg = solver_cfg or DEFAULT_SOLVER

    def objective(X):
        return evaluate_many(model, X) - np.vecdot(z, X)

    res = minimize_branches(_tilted_branches(model, z), objective, base_point,
                            eps, cfg)
    cluster_tol = 1e-9 * (1.0 + abs(float(np.min(res.values))))
    sep_tol = 1e-6 * eps
    reps, best = cluster_minimizers(res.points, res.values, cluster_tol, sep_tol)
    return TiltProbeResult(z=z, minimizers=reps, value=best,
                           single_valued=len(reps) == 1,
                           approximate=res.approximate)


def tilt_stability_test(model, base_point, eps, tilt_radius=None, grid_size=11,
                        solver_cfg=None):
    """Probe the tilt map on a deterministic grid of tilts around zero.

    Requires 0 in the subdifferential hull at base_point.  The Lipschitz
    estimate is the max pairwise difference quotient of the tilt map.
    """
    base_point = np.asarray(base_point, dtype=float)
    tilt_radius = tilt_radius if tilt_radius is not None else eps / 10.0
    poly = subdifferential_polytope(model, base_point)
    if not in_hull(poly.generators, np.zeros(model.dim)):
        raise ValueError("0 is not in the subdifferential hull at the base point")
    tilts = ball_lattice(model.dim, tilt_radius, grid_size)
    probes = [tilt_map(model, base_point, eps, z, solver_cfg) for z in tilts]
    approximate = any(p.approximate for p in probes)

    failing = [p.z for p in probes if not p.single_valued]
    witness = None
    if failing:
        witness = min(failing,
                      key=lambda z: (round(float(np.linalg.norm(z)), 12),
                                     tuple(np.round(z, 12))))
    center_ok = True
    for p in probes:
        if np.linalg.norm(p.z) < 1e-15:
            center_ok = float(np.linalg.norm(p.minimizer - base_point)) <= 1e-8
    lip = lipschitz_estimate(probes)
    stable = witness is None and center_ok
    status = "inconclusive" if approximate else ("stable" if stable else "unstable")
    return StabilityVerdict(stable=stable and not approximate,
                            lipschitz_estimate=lip, witness=witness,
                            grid_radius=tilt_radius, status=status, probes=probes)


def lipschitz_estimate(probes):
    """Max difference quotient ||x(z) - x(z')|| / ||z - z'|| of the tilt map
    over all probe pairs with distinct tilts; 0.0 if there are none."""
    return max_difference_quotient([p.z for p in probes],
                                   [p.minimizer for p in probes])


def monotonicity_margin(probes):
    """min <x(z) - x(z'), z - z'> over all probe pairs; nonnegative for the
    tilt map of a convex function, +inf if there are no pairs."""
    return min((float(np.min(np.vecdot(dx, dz)))
                for dz, dx in pair_differences([p.z for p in probes],
                                               [p.minimizer for p in probes])),
               default=np.inf)


def prox_regularity_test(model, base_point, anchor_z, eps, r_grid,
                         sample_per_axis=5, tau=1e-9):
    """Smallest r in r_grid making the proximal inequality hold on a
    deterministic sample of f-attentive triples (x, x', z); None if all fail.

    f(x') >= f(x) + <z, x'-x> - r/2 ||x'-x||^2 for z among the subgradient
    generators at x with ||z - anchor_z|| <= eps.
    """
    base_point = np.asarray(base_point, dtype=float)
    anchor_z = np.asarray(anchor_z, dtype=float)
    f_base = evaluate(model, base_point)
    pts = base_point + ball_lattice(model.dim, eps, sample_per_axis)
    triples = []
    for x in pts:
        fx = evaluate(model, x)
        if abs(fx - f_base) > eps:
            continue
        gens = subdifferential_polytope(model, x, tau).generators
        for z in hull_point_candidates(gens):
            if np.linalg.norm(z - anchor_z) > eps:
                continue
            triples.append((x, fx, z))
    if not triples:
        return None
    worst = -np.inf
    for xp in pts:
        fxp = evaluate(model, xp)
        for x, fx, z in triples:
            d2 = float(np.sum((xp - x) ** 2))
            if d2 < 1e-20:
                continue
            # smallest r validating this triple: 2*(f(x)+<z,x'-x>-f(x'))/||x'-x||^2
            need = 2.0 * (fx + float(z @ (xp - x)) - fxp) / d2
            worst = max(worst, need)
    slack = 1e-10
    for r in sorted(r_grid):
        if worst <= r + slack:
            return float(r)
    return None


def quadratic_minorant_test(model, base_point, r_grid, box, sample_per_axis=21):
    """Smallest R in r_grid with f >= f(base) - R/2 ||x-base||^2 on a dense
    box sample; returns (alpha, R_hat) or None."""
    base_point = np.asarray(base_point, dtype=float)
    alpha = evaluate(model, base_point)
    box = np.asarray(box, dtype=float).reshape(2, model.dim)
    lo, hi = box
    axes = [np.linspace(lo[i], hi[i], sample_per_axis) for i in range(model.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    worst = 0.0
    for x in pts:
        d2 = float(np.sum((x - base_point) ** 2))
        if d2 < 1e-20:
            continue
        need = 2.0 * (alpha - evaluate(model, x)) / d2
        worst = max(worst, need)
    for r in sorted(r_grid):
        if worst <= r + 1e-10:
            return alpha, float(r)
    return None


def strict_order2_test(model, x, z, gamma, beta_grid, sample_per_axis=9):
    """Largest beta in beta_grid with
    f(x') - <z,x'> >= f(x) - <z,x> + beta ||x-x'||^2 on sampled x' in the
    gamma-ball; None if even the smallest beta fails."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    fx = evaluate(model, x)
    qmin = np.inf
    for xp in x + ball_lattice(model.dim, gamma, sample_per_axis):
        d2 = float(np.sum((xp - x) ** 2))
        if d2 < 1e-20:
            continue
        qmin = min(qmin, (evaluate(model, xp) - fx - float(z @ (xp - x))) / d2)
    best = None
    for b in sorted(beta_grid):
        if b <= qmin + 1e-12:
            best = float(b)
    return best
