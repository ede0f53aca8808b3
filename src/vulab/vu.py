"""VU decomposition: frames, projections and the decomposition identities.

V is the span of the subdifferential polytope shifted by an anchor in its
relative interior; U is the orthogonal complement.  Frames are immutable and
safe for concurrent reads.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import AnchorNotInHull
from .oracle import subdifferential_polytope
from .solvers import hull_distance, in_hull, sphere_directions

HULL_FEAS_TOL = 1e-8
RANK_TOL = 1e-8


@dataclass
class VUFrame:
    """Base point, anchor and orthonormal bases of the U/V pair."""

    base_point: np.ndarray
    anchor: np.ndarray
    u_basis: np.ndarray  # (n, k)
    v_basis: np.ndarray  # (n, n-k)
    eps: float

    def __post_init__(self):
        self.base_point = np.asarray(self.base_point, dtype=float)
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.u_basis = np.atleast_2d(np.asarray(self.u_basis, dtype=float))
        self.v_basis = np.atleast_2d(np.asarray(self.v_basis, dtype=float))

    @property
    def dim(self):
        return len(self.base_point)

    @property
    def dim_u(self):
        return self.u_basis.shape[1]

    @property
    def dim_v(self):
        return self.v_basis.shape[1]

    @property
    def anchor_u(self):
        return self.u_basis.T @ self.anchor

    @property
    def anchor_v(self):
        return self.v_basis.T @ self.anchor

    def validate(self, poly=None):
        """Orthogonality, V-span coverage of the generators, anchor feasibility."""
        if self.dim_u and self.dim_v:
            assert np.max(np.abs(self.u_basis.T @ self.v_basis)) <= 1e-12
        if poly is not None:
            shifted = poly.generators - self.anchor
            if self.dim_u:
                assert np.max(np.abs(shifted @ self.u_basis), initial=0.0) <= 1e-10
            assert hull_distance(poly.generators, self.anchor) <= HULL_FEAS_TOL


def relative_interior_point(poly):
    """Centroid of the deduplicated generators; in rel-int when they are vertices."""
    return np.mean(poly.generators, axis=0)


def decompose(poly, anchor, eps=1.0):
    """Build the VU frame from a polytope and an anchor inside its hull.

    V spans the shifted generators; singular values below RANK_TOL * sigma_max
    are treated as zero; U completes the orthonormal frame.
    """
    anchor = np.asarray(anchor, dtype=float)
    if not in_hull(poly.generators, anchor, HULL_FEAS_TOL):
        raise AnchorNotInHull(
            f"anchor {anchor} is farther than {HULL_FEAS_TOL} from the hull")
    shifted = poly.generators - anchor
    n = shifted.shape[1]
    u, s, vt = np.linalg.svd(shifted, full_matrices=True)
    if s.size and s[0] > 0.0:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    else:
        rank = 0
    v_basis = vt[:rank].T
    u_basis = vt[rank:].T
    return VUFrame(base_point=poly.point, anchor=anchor,
                   u_basis=u_basis, v_basis=v_basis, eps=eps)


def project(frame, x):
    """Coordinates (x_U, x_V) of x in the frame bases (a linear isometry)."""
    x = np.asarray(x, dtype=float)
    return frame.u_basis.T @ x, frame.v_basis.T @ x


def assemble(frame, x_u, x_v):
    """Inverse of project."""
    out = np.zeros(frame.dim)
    if frame.dim_u:
        out += frame.u_basis @ np.asarray(x_u, dtype=float)
    if frame.dim_v:
        out += frame.v_basis @ np.asarray(x_v, dtype=float)
    return out


def principal_angle(basis_a, basis_b):
    """Largest principal angle (radians) between two subspaces given by
    orthonormal column bases, via the sine residual (accurate near zero).
    Dimension mismatch returns pi/2; two empty bases are the same trivial
    subspace."""
    a = np.atleast_2d(basis_a)
    b = np.atleast_2d(basis_b)
    if a.shape[1] != b.shape[1]:
        return np.pi / 2.0
    if a.shape[1] == 0:
        return 0.0
    resid = a - b @ (b.T @ a)
    sin_t = np.linalg.svd(resid, compute_uv=False).max()
    return float(np.arcsin(np.clip(sin_t, 0.0, 1.0)))


@dataclass
class DecompositionReport:
    max_u_support_asymmetry: float      # max over U dirs of delta*(u) + delta*(-u)
    max_generator_u_misfit: float       # max over generators of ||P_U g - anchor_U||
    witnesses: list                     # sampled u not in U with positive asymmetry


# Directions of U sampled by check_decomposition.
SUPPORT_SAMPLES = 100


def check_decomposition(model, frame):
    """Numerical check of the two decomposition identities.

    (a) the polytope support function is linear (odd) along U directions,
    (b) every generator has the same U-projection (the anchor's), i.e. the
        projected subdifferential is the singleton {anchor_U},
    (c) witnesses: sampled directions outside U where the support is
        genuinely sublinear.
    """
    poly = subdifferential_polytope(model, frame.base_point)
    asym = 0.0
    if frame.dim_u:
        for w in sphere_directions(frame.dim_u, SUPPORT_SAMPLES):
            u = frame.u_basis @ w
            asym = max(asym, abs(poly.support(u) + poly.support(-u)))
    misfit = 0.0
    for g in poly.generators:
        misfit = max(misfit, float(np.linalg.norm(
            frame.u_basis.T @ g - frame.anchor_u)))
    witnesses = []
    for w in sphere_directions(frame.dim, 32):
        gap = poly.support(w) + poly.support(-w)
        in_u = frame.dim_u and np.linalg.norm(
            frame.u_basis @ (frame.u_basis.T @ w) - w) <= 1e-10
        if gap > 1e-8 and not in_u:
            witnesses.append((w, gap))
    return DecompositionReport(max_u_support_asymmetry=asym,
                               max_generator_u_misfit=misfit,
                               witnesses=witnesses)


# The relative wiggle of rel_interior_contains along the affine hull.
REL_INTERIOR_STEP = 1e-6


def rel_interior_contains(poly, point):
    """point in rel-int co(generators): feasible, with wiggle room along the
    affine hull directions."""
    gens = poly.generators
    if not in_hull(gens, point, HULL_FEAS_TOL):
        return False
    centroid = np.mean(gens, axis=0)
    shifted = gens - centroid
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    if s.size == 0 or s[0] <= 1e-14:
        return True  # singleton hull
    span = vt[s > 1e-10 * s[0]]
    scale = REL_INTERIOR_STEP * (1.0 + float(np.max(np.abs(gens))))
    for d in span:
        for sign in (1.0, -1.0):
            if (hull_distance(gens, point + sign * scale * d)
                    > HULL_FEAS_TOL + scale * 1e-3):
                return False
    return True


def frame_to_json(frame):
    return json.dumps({
        "base_point": frame.base_point.tolist(),
        "anchor": frame.anchor.tolist(),
        "u_basis": frame.u_basis.tolist(),
        "v_basis": frame.v_basis.tolist(),
        "eps": frame.eps,
    }, sort_keys=True)
