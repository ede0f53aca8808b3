import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vulab import oracle
from vulab.errors import CapabilityMissing, InvalidPoint, UnknownBuiltin

SQRT5 = np.sqrt(5.0)


def quadrant_table(x, y):
    """Literal piecewise table for the four-quadrant model (test oracle)."""
    if x <= 0 and y >= 0:
        return max(0.0, x + y)
    if x >= 0 and y >= 0:
        return max(0.0, -x + y)
    if x <= 0 and y <= 0:
        return max(0.0, x - y)
    return max(0.0, -x - y)


def test_eval_examples(abs_diff, crossing, abs_plus_quad, four_quadrant):
    assert oracle.evaluate(abs_diff, [1.0, 0.0]) == 1.0
    for t in (-0.7, 0.0, 1.3):
        assert oracle.evaluate(abs_diff, [t, t]) == 0.0
    # direct evaluation max{0^2 + (0-1)^2, 0} = max{1, 0}
    assert oracle.evaluate(crossing, [0.0, 0.0]) == 1.0
    assert oracle.evaluate(abs_plus_quad, [1.0, 1.0]) == 2.0
    assert oracle.evaluate(oracle.builtin("quadratic(I2)"), [3.0, 4.0]) == 12.5
    assert oracle.evaluate(four_quadrant, [1.0, 1.0]) == 0.0


def test_four_quadrant_matches_table(four_quadrant):
    xs = np.linspace(-2, 2, 23)
    for x in xs:
        for y in xs:
            assert oracle.evaluate(four_quadrant, [x, y]) == pytest.approx(
                quadrant_table(x, y), abs=0.0)


def test_max_of_smooth_eval_is_max_of_pieces(crossing, abs_diff, abs_plus_quad):
    rng = np.random.default_rng(0)
    for model in (crossing, abs_diff):
        for x in rng.uniform(-1, 1, size=(50, 2)):
            expect = max(p.value(x) for p in model.pieces)
            assert oracle.evaluate(model, x) == expect
    for x in rng.uniform(-1, 1, size=(50, 2)):
        expect = (abs_plus_quad.pieces[0].value(x)
                  + max(p.value(x) for p in abs_plus_quad.polyhedral_part))
        assert oracle.evaluate(abs_plus_quad, x) == expect


def test_active_set_examples(crossing, abs_diff):
    base = crossing.meta["default_base_point"]
    assert oracle.active_set(crossing, [0.0, 0.0], 1e-9) == {0}
    assert oracle.active_set(crossing, base, 1e-9) == {0, 1}
    assert oracle.active_set(abs_diff, [0.0, 0.0], 1e-9) == {0, 1}
    # crossing point solves (v-1)^2 = v
    v = base[1]
    assert (v - 1.0) ** 2 == pytest.approx(v, abs=1e-14)


def test_active_set_invariant(crossing):
    tau = 1e-9
    for x in ([0.0, 0.0], [0.3, 0.5], crossing.meta["default_base_point"]):
        x = np.asarray(x, float)
        act = oracle.active_set(crossing, x, tau)
        fx = oracle.evaluate(crossing, x)
        for i, p in enumerate(crossing.pieces):
            in_set = fx - p.value(x) <= tau * (1.0 + abs(fx))
            assert (i in act) == in_set


def test_polytope_examples(abs_diff, four_quadrant, crossing):
    gens = oracle.subdifferential_polytope(abs_diff, [0.0, 0.0]).generators
    assert sorted(map(tuple, gens)) == [(-1.0, 1.0), (1.0, -1.0)]
    fq = oracle.subdifferential_polytope(four_quadrant, [0.0, 0.0]).generators
    expected = {(0.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)}
    assert expected <= set(map(tuple, np.round(fq, 12)))
    base = crossing.meta["default_base_point"]
    seg = oracle.subdifferential_polytope(crossing, base).generators
    expect = np.array([[0.0, 1.0 - SQRT5], [0.0, 1.0]])
    assert np.allclose(sorted(map(tuple, seg)), sorted(map(tuple, expect)))


def test_polytope_single_active_piece(crossing):
    poly = oracle.subdifferential_polytope(crossing, [0.0, 0.0])
    assert poly.generators.shape == (1, 2)
    assert np.allclose(poly.generators[0], crossing.pieces[0].gradient(
        np.zeros(2)))


def test_generators_match_finite_differences(crossing, abs_plus_quad):
    """Every generator is the gradient of an active selection (FD check)."""
    h = 1e-6

    def fd(fun, x):
        return np.array([(fun(x + h * e) - fun(x - h * e)) / (2 * h)
                         for e in np.eye(len(x))])

    for model, x in ((crossing, np.array([0.2, 0.1])),
                     (abs_plus_quad, np.array([0.4, 0.1]))):
        act = oracle.active_set(model, x, 1e-9)
        gens = oracle.subdifferential_polytope(model, x).generators
        cands = []
        for i in act:
            if model.kind == "max_of_smooth":
                cands.append(fd(model.pieces[i].value, x))
            else:
                fun = lambda y, i=i: (sum(p.value(y) for p in model.pieces)
                                      + model.polyhedral_part[i].value(y))
                cands.append(fd(fun, x))
        for g in gens:
            err = min(np.linalg.norm(g - f) / (1.0 + np.linalg.norm(g))
                      for f in cands)
            assert err <= 1e-5


def test_convexity_flags_by_midpoint_sampling():
    rng = np.random.default_rng(7)
    for name in ("abs_diff", "abs_plus_quad", "quadratic(I2)", "crossing_max",
                 "huber_source_abs"):
        model = oracle.builtin(name)
        assert model.flags.convex
        n = model.dim
        xs = rng.uniform(-2, 2, size=(10_000, n))
        ys = rng.uniform(-2, 2, size=(10_000, n))
        for x, y in zip(xs[:10_000], ys):
            fx = oracle.evaluate(model, x)
            fy = oracle.evaluate(model, y)
            mid = oracle.evaluate(model, (x + y) / 2)
            assert mid <= (fx + fy) / 2 + 1e-12 * (1 + abs(fx) + abs(fy))


def test_abs_plus_quad_identity(abs_plus_quad):
    """The polyhedral part separates exactly: eval(x) - (x1^2 + x2^2) equals
    |x1 - x2| with no model error, only the rounding of the outer sum (a few
    ulps of the value; the dot product may fuse multiply-adds)."""
    rng = np.random.default_rng(3)
    for x in rng.uniform(-3, 3, size=(200, 2)):
        fx = oracle.evaluate(abs_plus_quad, x)
        diff = fx - (x[0] ** 2 + x[1] ** 2)
        assert abs(diff - abs(x[0] - x[1])) <= 4 * np.spacing(fx)


def test_lipschitz_flag_by_difference_quotients():
    """Sampled difference quotients on a compact box stay bounded for every
    locally Lipschitz builtin."""
    rng = np.random.default_rng(21)
    for name in ("abs_diff", "abs_plus_quad", "crossing_max",
                 "four_quadrant_max", "quadratic(diag(1,10))"):
        model = oracle.builtin(name)
        pts = rng.uniform(-2, 2, size=(300, model.dim))
        worst = 0.0
        for i in range(0, len(pts) - 1, 2):
            x, y = pts[i], pts[i + 1]
            gap = np.linalg.norm(x - y)
            if gap < 1e-12:
                continue
            worst = max(worst, abs(oracle.evaluate(model, x)
                                   - oracle.evaluate(model, y)) / gap)
        assert worst <= 50.0


def test_builtin_flags(four_quadrant):
    assert not four_quadrant.flags.convex
    assert oracle.builtin("quadratic(-I)").flags.convex is False


def test_quadratic_parser():
    assert oracle.builtin("quadratic(I3)").dim == 3
    m = oracle.builtin("quadratic(diag(2,5))")
    assert np.allclose(m.meta["matrix"], np.diag([2.0, 5.0]))
    with pytest.raises(UnknownBuiltin):
        oracle.builtin("quadratic(hilbert)")
    with pytest.raises(UnknownBuiltin):
        oracle.builtin("nope")


def test_eval_errors(abs_diff):
    with pytest.raises(InvalidPoint):
        oracle.evaluate(abs_diff, [np.nan, 0.0])
    with pytest.raises(InvalidPoint):
        oracle.evaluate(abs_diff, [1.0, 2.0, 3.0])
    bare = oracle.FunctionModel(dim=1, kind="custom",
                                value_fn=lambda x: float(abs(x[0])))
    with pytest.raises(CapabilityMissing):
        oracle.subdifferential_polytope(bare, [0.3])


def test_json_problem_round_trip(tmp_path):
    data = {
        "dim": 2, "kind": "sum_of_smooth_and_polyhedral", "name": "toy",
        "pieces": [{"type": "quadratic", "A": [[2.0, 0.0], [0.0, 2.0]],
                    "b": [0.0, 0.0], "c": 0.0}],
        "polyhedral_part": [{"type": "affine", "a": [1.0, -1.0], "b": 0.0},
                            {"type": "affine", "a": [-1.0, 1.0], "b": 0.0}],
        "flags": {"convex": True, "quadratic_minorant": [0.0, 0.0]},
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(data))
    model = oracle.load_problem(str(path))
    # this JSON encodes |x-y| + ||x||^2
    x = np.array([0.7, -0.2])
    assert oracle.evaluate(model, x) == pytest.approx(
        abs(x[0] - x[1]) + x @ x, abs=1e-14)
    gens = oracle.subdifferential_polytope(model, np.zeros(2)).generators
    assert sorted(map(tuple, gens)) == [(-1.0, 1.0), (1.0, -1.0)]


def test_json_rejects_nonsymmetric_quadratic(tmp_path):
    """gradient() is A x + b, the gradient only for a symmetric A, so a
    nonsymmetric A is refused on load instead of giving wrong polytopes."""
    data = {"dim": 2, "kind": "max_of_smooth",
            "pieces": [{"type": "affine", "a": [1.0, 0.0]},
                       {"type": "quadratic", "A": [[0.0, 2.0], [0.0, 0.0]]}]}
    with pytest.raises(ValueError, match=r"pieces\[1\]"):
        oracle.model_from_dict(data)
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="not symmetric"):
        oracle.load_problem(str(path))
    data["pieces"][1]["A"] = [[0.0, 1.0], [1.0, 0.0]]
    path.write_text(json.dumps(data))
    model = oracle.load_problem(str(path))
    x = np.array([1.0, 3.0])
    assert oracle.evaluate(model, x) == 3.0
    np.testing.assert_array_equal(model.pieces[1].gradient(x), [3.0, 1.0])


def test_load_problem_builtin_shortcut():
    assert oracle.load_problem("abs_diff").name == "abs_diff"


# ---------------------------------------------------------------------------
# evaluate_many: the batched oracle equals the scalar one bit for bit

BUILTINS = ("abs_diff", "four_quadrant_max", "crossing_max", "abs_plus_quad",
            "huber_source_abs", "quadratic(I)", "quadratic(I3)",
            "quadratic(-I)", "quadratic(diag(2,5))")


def assert_bits_equal(got, expect):
    got = np.asarray(got, dtype=float)
    expect = np.asarray(expect, dtype=float)
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


def scalar_values(model, X):
    return [oracle.evaluate(model, x) for x in X]


@pytest.mark.parametrize("name", BUILTINS)
def test_evaluate_many_builtins(name):
    model = oracle.builtin(name)
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, size=(500, model.dim))
    X[:50] = 0.0                 # kinks and exact ties of the pieces
    if model.dim > 1:
        X[50:100, 1] = X[50:100, 0]
    assert_bits_equal(oracle.evaluate_many(model, X), scalar_values(model, X))


_coef = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def json_models_and_points(draw):
    n = draw(st.integers(1, 4))
    vec = st.lists(_coef, min_size=n, max_size=n)

    def piece(kind):
        if kind == "affine":
            return {"type": "affine", "a": draw(vec), "b": draw(_coef)}
        # model_from_dict accepts only a symmetric A: mirror the upper triangle
        rows = draw(st.lists(vec, min_size=n, max_size=n))
        A = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        return {"type": "quadratic", "A": A, "b": draw(vec), "c": draw(_coef)}

    kinds = st.sampled_from(["quadratic", "affine"])
    data = {"dim": n, "kind": draw(st.sampled_from(
        ["max_of_smooth", "sum_of_smooth_and_polyhedral"]))}
    data["pieces"] = [piece(k) for k in draw(st.lists(kinds, min_size=1,
                                                       max_size=4))]
    if data["kind"] == "sum_of_smooth_and_polyhedral":
        data["polyhedral_part"] = [piece("affine") for _ in
                                   range(draw(st.integers(0, 3)))]
    X = draw(hnp.arrays(float, (draw(st.integers(1, 12)), n),
                        elements=st.floats(-1e3, 1e3, allow_nan=False,
                                           allow_infinity=False)))
    return data, X


@settings(max_examples=150, deadline=None)
@given(json_models_and_points())
@example((  # sum kind with several smooth pieces and a polyhedral part
    {"dim": 3, "kind": "sum_of_smooth_and_polyhedral",
     "pieces": [{"type": "quadratic", "A": [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1],
                                           [0.0, 0.1, 4.0]],
                 "b": [0.1, -0.2, 0.3], "c": 0.7},
                {"type": "quadratic", "A": [[1.0, -0.5, 0.2], [-0.5, 3.0, 0.0],
                                           [0.2, 0.0, 0.5]],
                 "b": [1.0, 0.0, -1.0], "c": -0.3},
                {"type": "affine", "a": [0.3, 0.3, -0.7], "b": 0.1}],
     "polyhedral_part": [{"type": "affine", "a": [1.0, -1.0, 0.0], "b": 0.0},
                         {"type": "affine", "a": [-1.0, 1.0, 0.5], "b": 0.2}]},
    np.random.default_rng(3).uniform(-5.0, 5.0, size=(64, 3))))
def test_evaluate_many_json_models(model_and_points):
    data, X = model_and_points
    model = oracle.model_from_dict(data)
    assert_bits_equal(oracle.evaluate_many(model, X), scalar_values(model, X))


def test_evaluate_many_rejects_bad_batches(crossing):
    X = np.zeros((4, 2))
    X[2, 1] = np.nan
    with pytest.raises(InvalidPoint):
        oracle.evaluate_many(crossing, X)
    X[2, 1] = np.inf
    with pytest.raises(InvalidPoint):
        oracle.evaluate_many(crossing, X)
    for shape in ((4, 3), (2,), (2, 2, 2)):
        with pytest.raises(InvalidPoint):
            oracle.evaluate_many(crossing, np.zeros(shape))


def test_evaluate_many_custom_fallback(four_quadrant):
    xs = np.linspace(-2.0, 2.0, 23)
    X = np.array([[x, y] for x in xs for y in xs])
    got = oracle.evaluate_many(four_quadrant, X)
    assert_bits_equal(got, scalar_values(four_quadrant, X))
    assert_bits_equal(got, [quadrant_table(x, y) for x, y in X])
    opaque = oracle.FunctionModel(dim=2, kind="custom")
    with pytest.raises(CapabilityMissing):
        oracle.evaluate_many(opaque, X)
