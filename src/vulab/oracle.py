"""Structured nonsmooth function oracles and the builtin test corpus.

A model exposes piecewise-smooth structure (values, gradients, Hessians and
active sets) so downstream modules can form exact subdifferential polytopes
instead of sampling subgradients.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityMissing, InvalidPoint, UnknownBuiltin

SQRT5 = np.sqrt(5.0)
DEFAULT_ACTIVE_TOL = 1e-9


class QuadraticPiece:
    """Smooth piece 0.5 x^T A x + b.x + c."""

    kind = "quadratic"

    def __init__(self, A, b=None, c=0.0):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        n = self.A.shape[0]
        self.b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
        self.c = float(c)

    def value(self, x):
        return float(0.5 * x @ self.A @ x + self.b @ x + self.c)

    def values(self, X):
        """value() of every row of X, bit for bit: the stacked matmul runs the
        same vector-matrix kernel per row as the scalar form (X @ A and
        einsum round differently)."""
        Y = np.matmul((0.5 * X)[:, None, :], self.A)[:, 0, :]
        return np.vecdot(Y, X) + np.vecdot(self.b, X) + self.c

    def gradient(self, x):
        return self.A @ x + self.b

    def hessian(self, x):
        return self.A

    def restrict(self, p, M):
        """Piece of t for x = p + M t (exact algebra)."""
        A = M.T @ self.A @ M
        b = M.T @ (self.A @ p + self.b)
        c = 0.5 * p @ self.A @ p + self.b @ p + self.c
        return QuadraticPiece(A, b, c)


class AffinePiece:
    """Smooth piece a.x + b."""

    kind = "affine"

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)

    def value(self, x):
        return float(self.a @ x + self.b)

    def values(self, X):
        """value() of every row of X, bit for bit."""
        return np.vecdot(self.a, X) + self.b

    def gradient(self, x):
        return self.a

    def hessian(self, x):
        return np.zeros((len(self.a), len(self.a)))

    def restrict(self, p, M):
        return AffinePiece(M.T @ self.a, self.a @ p + self.b)


class CallablePiece:
    """Smooth piece given by callables; gradient/hessian may be absent."""

    kind = "generic"

    def __init__(self, value, gradient=None, hessian=None):
        self._value = value
        self._gradient = gradient
        self._hessian = hessian

    def value(self, x):
        return float(self._value(x))

    def values(self, X):
        return np.array([self.value(x) for x in X], dtype=float)

    def gradient(self, x):
        if self._gradient is None:
            raise CapabilityMissing("piece has no gradient oracle")
        return np.asarray(self._gradient(x), dtype=float)

    def hessian(self, x):
        if self._hessian is None:
            raise CapabilityMissing("piece has no Hessian oracle")
        return np.atleast_2d(np.asarray(self._hessian(x), dtype=float))

    def restrict(self, p, M):
        g = None if self._gradient is None else (lambda t: M.T @ self._gradient(p + M @ t))
        h = None if self._hessian is None else (lambda t: M.T @ self._hessian(p + M @ t) @ M)
        return CallablePiece(lambda t: self._value(p + M @ t), g, h)


@dataclass
class Flags:
    convex: bool = False
    quadratic_minorant: tuple | None = None  # (alpha, R): alpha - R/2 ||x - xbar||^2 <= f


@dataclass
class SubdifferentialPolytope:
    """Finite generator representation of co(subdifferential) at a point."""

    generators: np.ndarray  # (m, n)
    point: np.ndarray

    def __post_init__(self):
        self.generators = _dedupe(np.atleast_2d(np.asarray(self.generators, float)))
        self.point = np.asarray(self.point, dtype=float)

    def support(self, d):
        return float(np.max(self.generators @ np.asarray(d, dtype=float)))


def _dedupe(rows, tol=1e-12):
    out = []
    for r in rows:
        if all(np.linalg.norm(r - q) > tol for q in out):
            out.append(r)
    return np.array(out)


@dataclass
class FunctionModel:
    """A nonsmooth function with structured oracles and declared flags.

    kind is one of max_of_smooth, sum_of_smooth_and_polyhedral, custom; for
    custom models value_fn is required and subdiff_fn / gradient_fn /
    branches are optional capabilities.  flags declares what the oracles
    cannot show: convexity and a quadratic minorant.
    """

    dim: int
    kind: str
    pieces: list = field(default_factory=list)
    polyhedral_part: list | None = None
    flags: Flags = field(default_factory=Flags)
    name: str = "custom"
    value_fn: object = None
    gradient_fn: object = None
    subdiff_fn: object = None
    branches: list | None = None
    meta: dict = field(default_factory=dict)

    def solver_branches(self):
        """Piecewise-smooth branch covers for the ball solver; None if opaque."""
        if self.kind == "max_of_smooth":
            return [(list(self.pieces), [])]
        if self.kind == "sum_of_smooth_and_polyhedral":
            return [(list(self.polyhedral_part or []), list(self.pieces))]
        return self.branches


def _check_point(model, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise InvalidPoint(f"expected point in R^{model.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidPoint("evaluation point contains NaN or inf")
    return x


def evaluate(model, x):
    """f(x); +inf is allowed for custom models with restricted domain."""
    x = _check_point(model, x)
    if model.kind == "max_of_smooth":
        return max(p.value(x) for p in model.pieces)
    if model.kind == "sum_of_smooth_and_polyhedral":
        # plain left-to-right sum, as in evaluate_many (the builtin sum()
        # compensates its rounding from Python 3.12 on)
        v = 0.0
        for p in model.pieces:
            v += p.value(x)
        if model.polyhedral_part:
            v += max(p.value(x) for p in model.polyhedral_part)
        return float(v)
    if model.value_fn is None:
        raise CapabilityMissing("custom model has no value oracle")
    return float(model.value_fn(x))


def _check_points(model, X):
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise InvalidPoint(f"expected points in R^{model.dim} as rows, "
                           f"got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidPoint("evaluation points contain NaN or inf")
    return X


def _max_rows(columns):
    """Row-wise max() of per-piece value arrays: like the builtin, a later
    piece replaces the running max only when strictly greater."""
    out = columns[0]
    for col in columns[1:]:
        out = np.where(col > out, col, out)
    return out


def evaluate_many(model, X):
    """f at every row of the (m, n) array X, equal bit for bit to
    [evaluate(model, x) for x in X].

    The point checks run once per batch.  Quadratic and affine pieces are
    evaluated for all rows at once; callable pieces and custom models fall
    back to one call per row."""
    X = _check_points(model, X)
    if model.kind == "max_of_smooth":
        return _max_rows([p.values(X) for p in model.pieces])
    if model.kind == "sum_of_smooth_and_polyhedral":
        v = np.zeros(len(X))
        for p in model.pieces:
            v = v + p.values(X)
        if model.polyhedral_part:
            v = v + _max_rows([p.values(X) for p in model.polyhedral_part])
        return v
    if model.value_fn is None:
        raise CapabilityMissing("custom model has no value oracle")
    return np.array([float(model.value_fn(x)) for x in X], dtype=float)


def active_set(model, x, tau):
    """The frozenset of indices i with f(x) - f_i(x) <= tau * (1 + |f(x)|),
    where f_i is the full selection (for the sum kind: smooth part plus
    affine piece i)."""
    x = _check_point(model, x)
    fx = evaluate(model, x)
    thresh = tau * (1.0 + abs(fx))
    if model.kind == "max_of_smooth":
        gaps = [fx - p.value(x) for p in model.pieces]
    elif model.polyhedral_part:
        vals = [p.value(x) for p in model.polyhedral_part]
        top = max(vals)
        gaps = [top - v for v in vals]
    else:
        raise CapabilityMissing("active sets need a max-of-pieces structure")
    return frozenset(i for i, g in enumerate(gaps) if g <= thresh)


def subdifferential_polytope(model, x):
    """Generators of co(subdifferential f)(x) for structured models, with
    the pieces active to DEFAULT_ACTIVE_TOL."""
    x = _check_point(model, x)
    if model.kind == "max_of_smooth":
        act = active_set(model, x, DEFAULT_ACTIVE_TOL)
        gens = [model.pieces[i].gradient(x) for i in sorted(act)]
        return SubdifferentialPolytope(np.array(gens), x)
    if model.kind == "sum_of_smooth_and_polyhedral":
        smooth = np.zeros(model.dim)
        for p in model.pieces:
            smooth = smooth + p.gradient(x)
        if model.polyhedral_part:
            act = active_set(model, x, DEFAULT_ACTIVE_TOL)
            gens = [smooth + model.polyhedral_part[i].gradient(x)
                    for i in sorted(act)]
        else:
            gens = [smooth]
        return SubdifferentialPolytope(np.array(gens), x)
    if model.subdiff_fn is not None:
        return SubdifferentialPolytope(np.atleast_2d(model.subdiff_fn(x)), x)
    if model.gradient_fn is not None:
        return SubdifferentialPolytope(np.atleast_2d(model.gradient_fn(x)), x)
    raise CapabilityMissing("custom model has no subgradient oracle")


# ---------------------------------------------------------------------------
# builtins

def _abs_diff():
    pieces = [AffinePiece([1.0, -1.0]), AffinePiece([-1.0, 1.0])]
    m = FunctionModel(
        dim=2, kind="max_of_smooth", pieces=pieces,
        flags=Flags(convex=True, quadratic_minorant=(0.0, 0.0)),
        name="abs_diff")
    m.meta = {
        "default_base_point": np.zeros(2),
        "default_radius": 1.0,
        "known_u": np.array([[1.0], [1.0]]) / np.sqrt(2.0),
    }
    return m


def _crossing_max():
    # pieces x1^2 + (x2-1)^2 and x2; they cross on (x2-1)^2 + x1^2 = x2
    pieces = [QuadraticPiece(2.0 * np.eye(2), [0.0, -2.0], 1.0),
              AffinePiece([0.0, 1.0])]
    base = np.array([0.0, (3.0 - SQRT5) / 2.0])
    m = FunctionModel(
        dim=2, kind="max_of_smooth", pieces=pieces,
        flags=Flags(convex=True, quadratic_minorant=(0.0, 0.0)),
        name="crossing_max")
    m.meta = {
        "default_base_point": base,
        "default_radius": 0.3,
        "known_u": np.array([[1.0], [0.0]]),
        "selection_closed_form": lambda u: (SQRT5 - np.sqrt(5.0 - 4.0 * u**2)) / 2.0,
        "note": (
            "base_point: the pieces x1^2+(x2-1)^2 and x2 are equal only on the curve "
            "x2 = (3 - sqrt(9 - 4(1+x1^2)))/2; at x1 = 0 this gives x2 = (3-sqrt(5))/2 "
            "~= 0.381966, not 0. The V-ball selection then satisfies "
            "v(u) = (sqrt(5) - sqrt(5-4u^2))/2 (discriminant 5-4u^2). The often-quoted "
            "closed form v(u) = 3/2 - sqrt(9-4u^2)/2 with base point at the origin is "
            "inconsistent with these equations (at the origin only the quadratic piece "
            "is active); this model anchors at the true crossing and the discrepancy is "
            "recorded here rather than silently resolved."),
    }
    return m


def _abs_plus_quad():
    # |x-y| + x^2 + y^2: smooth quadratic plus a two-piece polyhedral part
    m = FunctionModel(
        dim=2, kind="sum_of_smooth_and_polyhedral",
        pieces=[QuadraticPiece(2.0 * np.eye(2))],
        polyhedral_part=[AffinePiece([1.0, -1.0]), AffinePiece([-1.0, 1.0])],
        flags=Flags(convex=True, quadratic_minorant=(0.0, 0.0)),
        name="abs_plus_quad")
    m.meta = {
        "default_base_point": np.zeros(2),
        "default_radius": 1.0,
        "known_u": np.array([[1.0], [1.0]]) / np.sqrt(2.0),
    }
    return m


def _four_quadrant_value(x):
    # quadrant table max{0, +-x +- y}; equals max(0, |y| - |x|)
    return float(max(0.0, abs(x[1]) - abs(x[0])))


def _four_quadrant_subdiff(x):
    tol = 1e-12
    sx = [1.0, -1.0] if abs(x[0]) <= tol else [np.sign(x[0])]
    sy = [1.0, -1.0] if abs(x[1]) <= tol else [np.sign(x[1])]
    ramp = abs(x[1]) - abs(x[0])
    gens = []
    if ramp <= tol:          # zero piece active
        gens.append(np.zeros(2))
    if ramp >= -tol:         # ramp piece active
        for a in sx:
            for b in sy:
                gens.append(np.array([-a, b]))
    return np.array(gens)


def _four_quadrant():
    branches = []
    for sx in (1.0, -1.0):
        branches.append(([AffinePiece([0.0, 0.0]),
                          AffinePiece([-sx, 1.0]),
                          AffinePiece([-sx, -1.0])], []))
    m = FunctionModel(
        dim=2, kind="custom", value_fn=_four_quadrant_value,
        subdiff_fn=_four_quadrant_subdiff, branches=branches,
        flags=Flags(convex=False, quadratic_minorant=(0.0, 0.0)),
        name="four_quadrant_max")
    m.meta = {
        "default_base_point": np.zeros(2),
        "default_radius": 1.0,
        "known_u": np.zeros((2, 0)),
    }
    return m


def _huber_source_abs():
    pieces = [AffinePiece([1.0]), AffinePiece([-1.0])]
    m = FunctionModel(
        dim=1, kind="max_of_smooth", pieces=pieces,
        flags=Flags(convex=True, quadratic_minorant=(0.0, 0.0)),
        name="huber_source_abs")
    m.meta = {
        "default_base_point": np.zeros(1),
        "default_radius": 1.0,
        "known_u": np.zeros((1, 0)),
    }
    return m


def _quadratic(A, name):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    convex = bool(eig.min() >= -1e-12)
    minorant = (0.0, max(0.0, -2.0 * eig.min()))
    m = FunctionModel(
        dim=n, kind="max_of_smooth", pieces=[QuadraticPiece(A)],
        flags=Flags(convex=convex, quadratic_minorant=minorant),
        name=name)
    m.meta = {
        "default_base_point": np.zeros(n),
        "default_radius": 1.0,
        "known_u": np.eye(n),
        "matrix": A,
    }
    return m


_QUAD_RE = re.compile(r"^quadratic\((.*)\)$")


def builtin(name):
    """Fully populated builtin model by name.

    Names: abs_diff, four_quadrant_max, crossing_max, abs_plus_quad,
    huber_source_abs, quadratic(I), quadratic(I3), quadratic(diag(a,b,...)),
    quadratic(-I).
    """
    simple = {
        "abs_diff": _abs_diff,
        "four_quadrant_max": _four_quadrant,
        "crossing_max": _crossing_max,
        "abs_plus_quad": _abs_plus_quad,
        "huber_source_abs": _huber_source_abs,
    }
    if name in simple:
        return simple[name]()
    match = _QUAD_RE.match(name.replace(" ", ""))
    if match:
        spec = match.group(1)
        if spec in ("I", "I2"):
            return _quadratic(np.eye(2), name)
        if spec == "-I":
            return _quadratic(-np.eye(2), name)
        dims = re.match(r"^I(\d+)$", spec)
        if dims:
            return _quadratic(np.eye(int(dims.group(1))), name)
        diag = re.match(r"^diag\((.*)\)$", spec)
        if diag:
            entries = [float(s) for s in diag.group(1).split(",")]
            return _quadratic(np.diag(entries), name)
    raise UnknownBuiltin(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# JSON problem files

def model_from_dict(data):
    """Build a model from {dim, kind, name, pieces: [...], polyhedral_part:
    [...], flags: {...}}.

    Raises ValueError for a missing required key, an unknown key at the top
    level, in flags or in a piece, an unknown piece type or a quadratic
    piece whose A is not exactly symmetric."""
    try:
        return _model_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"problem is missing required key {exc.args[0]!r}") \
            from None


# The keys a problem may use: at the top level, in flags and per piece type
# (polyhedral_part holds affine pieces).
_PROBLEM_KEYS = ("dim", "kind", "name", "pieces", "polyhedral_part", "flags")
_FLAG_KEYS = ("convex", "quadratic_minorant")
_PIECE_KEYS = {"quadratic": ("type", "A", "b", "c"),
               "affine": ("type", "a", "b")}


def _reject_unknown(where, table, known):
    unknown = sorted(set(table) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}; "
                         f"expected one of {list(known)}")


def _model_from_dict(data):
    _reject_unknown("problem", data, _PROBLEM_KEYS)
    pieces = []
    for i, p in enumerate(data.get("pieces", [])):
        if p["type"] not in _PIECE_KEYS:
            raise ValueError(f"unknown piece type {p['type']!r}")
        _reject_unknown(f"pieces[{i}]", p, _PIECE_KEYS[p["type"]])
        if p["type"] == "quadratic":
            piece = QuadraticPiece(p["A"], p.get("b"), p.get("c", 0.0))
            # gradient() returns A x + b, which is the gradient only for a
            # symmetric A
            if not np.array_equal(piece.A, piece.A.T):
                raise ValueError(f"pieces[{i}]: quadratic A is not symmetric")
            pieces.append(piece)
        else:
            pieces.append(AffinePiece(p["a"], p.get("b", 0.0)))
    poly = None
    if "polyhedral_part" in data:
        poly = []
        for i, p in enumerate(data["polyhedral_part"]):
            _reject_unknown(f"polyhedral_part[{i}]", p, _PIECE_KEYS["affine"])
            poly.append(AffinePiece(p["a"], p.get("b", 0.0)))
    fl = data.get("flags", {})
    _reject_unknown("flags", fl, _FLAG_KEYS)
    qm = fl.get("quadratic_minorant")
    flags = Flags(convex=fl.get("convex", False),
                  quadratic_minorant=tuple(qm) if qm is not None else None)
    return FunctionModel(dim=int(data["dim"]), kind=data["kind"], pieces=pieces,
                         polyhedral_part=poly, flags=flags,
                         name=data.get("name", "custom"))


def load_problem(path):
    """Load a model from a builtin name or a JSON problem file."""
    try:
        return builtin(path)
    except UnknownBuiltin:
        pass
    with open(path) as fh:
        return model_from_dict(json.load(fh))
