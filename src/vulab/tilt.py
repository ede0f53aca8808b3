"""Tilt map probing, tilt stability, prox-regularity and strict order-2 minima.

Verdicts are sampling-based evidence on deterministic lattices, not certified
global statements; every probe is reproducible bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .oracle import (AffinePiece, evaluate, evaluate_many,
                     subdifferential_polytope)
from .solvers import (ball_lattice, hull_point_candidates, in_hull,
                      max_difference_quotient, pair_differences)
from .ulagrangian import argmin_on_ball


@dataclass
class TiltProbeResult:
    z: np.ndarray
    minimizers: np.ndarray   # distinct near-optimal points, smallest norm first
    value: float
    approximate: bool = False

    @property
    def minimizer(self):
        return self.minimizers[0]

    @property
    def single_valued(self):
        return len(self.minimizers) == 1


@dataclass
class StabilityVerdict:
    lipschitz_estimate: float
    witness: np.ndarray | None
    grid_radius: float
    status: str              # stable | unstable | inconclusive
    probes: list = field(default_factory=list)

    @property
    def stable(self):
        return self.status == "stable"


def tilt_map(model, base_point, eps, z):
    """argmin of f(x) - <x, z> over the closed eps-ball around base_point.

    Solved by ulagrangian.argmin_on_ball in coordinates v = x - base_point;
    all reported minimizers attain the best value within cluster_tol and are
    pairwise sep_tol apart.
    """
    base_point = np.asarray(base_point, dtype=float)
    z = np.asarray(z, dtype=float)
    V, best, approximate = argmin_on_ball(model, base_point, np.eye(model.dim),
                                          AffinePiece(-z), eps)
    return TiltProbeResult(z=z, minimizers=base_point + V,
                           value=best - float(z @ base_point),
                           approximate=approximate)


# Tilts per axis of the lattice in the tilt_radius-ball that
# tilt_stability_test probes.
TILTS_PER_AXIS = 11


def tilt_stability_test(model, base_point, eps, tilt_radius):
    """Probe the tilt map on a deterministic lattice of tilts in the
    tilt_radius-ball around zero.

    Requires 0 in the subdifferential hull at base_point.  The Lipschitz
    estimate is the max pairwise difference quotient of the tilt map.
    """
    base_point = np.asarray(base_point, dtype=float)
    poly = subdifferential_polytope(model, base_point)
    if not in_hull(poly.generators, np.zeros(model.dim)):
        raise ValueError("0 is not in the subdifferential hull at the base point")
    tilts = ball_lattice(model.dim, tilt_radius, TILTS_PER_AXIS)
    probes = [tilt_map(model, base_point, eps, z) for z in tilts]
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
    return StabilityVerdict(lipschitz_estimate=lip, witness=witness,
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


# The candidate moduli of prox_regularity_test and quadratic_minorant_test,
# and their lattices: nodes per axis, and the box half-width of the latter.
R_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
PROX_SAMPLE_PER_AXIS = 5
MINORANT_BOX_HALF = 2.0
MINORANT_SAMPLE_PER_AXIS = 21


def prox_regularity_test(model, base_point, anchor_z, eps):
    """Smallest r in R_GRID making the proximal inequality hold on a
    deterministic sample of f-attentive triples (x, x', z); None if all fail.

    f(x') >= f(x) + <z, x'-x> - r/2 ||x'-x||^2 for z among the subgradient
    generators at x with ||z - anchor_z|| <= eps.
    """
    worst = _prox_worst(model, base_point, anchor_z, eps)
    if worst is None:
        return None
    slack = 1e-10
    for r in R_GRID:
        if worst <= r + slack:
            return float(r)
    return None


def _prox_worst(model, base_point, anchor_z, eps):
    """Largest r the proximal inequality needs over the sampled triples, or
    None without an f-attentive triple.  The sample is valued by one
    evaluate_many call."""
    base_point = np.asarray(base_point, dtype=float)
    anchor_z = np.asarray(anchor_z, dtype=float)
    f_base = evaluate(model, base_point)
    pts = base_point + ball_lattice(model.dim, eps, PROX_SAMPLE_PER_AXIS)
    F = evaluate_many(model, pts)
    triples = []
    for x, fx in zip(pts, F):
        if abs(fx - f_base) > eps:
            continue
        gens = subdifferential_polytope(model, x).generators
        for z in hull_point_candidates(gens):
            if np.linalg.norm(z - anchor_z) > eps:
                continue
            triples.append((x, fx, z))
    if not triples:
        return None
    worst = -np.inf
    for x, fx, z in triples:
        D = pts - x
        d2 = np.sum(D ** 2, axis=1)
        keep = d2 >= 1e-20
        # smallest r validating this triple: 2*(f(x)+<z,x'-x>-f(x'))/||x'-x||^2
        need = 2.0 * (fx + np.vecdot(D[keep], z) - F[keep]) / d2[keep]
        worst = max(worst, float(np.max(need, initial=-np.inf)))
    return worst


def quadratic_minorant_test(model, base_point):
    """Smallest R in R_GRID with f >= f(base) - R/2 ||x-base||^2 on a dense
    box sample; returns (alpha, R_hat) or None."""
    alpha, worst = _minorant_worst(model, base_point)
    for r in R_GRID:
        if worst <= r + 1e-10:
            return alpha, float(r)
    return None


def _minorant_worst(model, base_point):
    """(f(base), the largest R the minorant needs over the box sample, at
    least 0), with the sample valued by one evaluate_many call."""
    base_point = np.asarray(base_point, dtype=float)
    alpha = evaluate(model, base_point)
    lo = base_point - MINORANT_BOX_HALF
    hi = base_point + MINORANT_BOX_HALF
    axes = [np.linspace(lo[i], hi[i], MINORANT_SAMPLE_PER_AXIS)
            for i in range(model.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    d2 = np.sum((pts - base_point) ** 2, axis=1)
    keep = d2 >= 1e-20
    need = 2.0 * (alpha - evaluate_many(model, pts[keep])) / d2[keep]
    return alpha, max(0.0, float(np.max(need, initial=0.0)))


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
