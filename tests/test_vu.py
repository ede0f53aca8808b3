import numpy as np
import pytest

from vulab import oracle, vu
from vulab.errors import AnchorNotInHull

SQRT5 = np.sqrt(5.0)


def test_relative_interior_point_examples():
    poly = oracle.SubdifferentialPolytope(
        np.array([[0.0, 1.0 - SQRT5], [0.0, 1.0]]), np.zeros(2))
    assert np.allclose(vu.relative_interior_point(poly),
                       [0.0, (2.0 - SQRT5) / 2.0])
    single = oracle.SubdifferentialPolytope(np.array([[3.0, -1.0]]), np.zeros(2))
    assert np.allclose(vu.relative_interior_point(single), [3.0, -1.0])
    pair = oracle.SubdifferentialPolytope(
        np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2))
    assert np.allclose(vu.relative_interior_point(pair), [0.0, 0.0])


def test_decompose_crossing(crossing):
    base = crossing.meta["default_base_point"]
    poly = oracle.subdifferential_polytope(crossing, base)
    frame = vu.decompose(poly, vu.relative_interior_point(poly), eps=0.3)
    assert vu.principal_angle(frame.u_basis, [[1.0], [0.0]]) <= 1e-8
    assert vu.principal_angle(frame.v_basis, [[0.0], [1.0]]) <= 1e-8
    frame.validate(poly)


def test_decompose_four_quadrant(four_quadrant):
    poly = oracle.subdifferential_polytope(four_quadrant, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2))
    assert frame.dim_u == 0
    assert frame.dim_v == 2


def test_decompose_abs_diff(abs_diff):
    poly = oracle.subdifferential_polytope(abs_diff, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2))
    s2 = np.sqrt(2.0)
    assert vu.principal_angle(frame.v_basis, [[1 / s2], [-1 / s2]]) <= 1e-10
    assert vu.principal_angle(frame.u_basis, [[1 / s2], [1 / s2]]) <= 1e-10


def test_project_examples(abs_diff, crossing):
    poly = oracle.subdifferential_polytope(abs_diff, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2))
    x_u, x_v = vu.project(frame, [1.0, 1.0])
    assert abs(abs(x_u[0]) - np.sqrt(2.0)) <= 1e-12
    assert abs(x_v[0]) <= 1e-12
    base = crossing.meta["default_base_point"]
    fc = vu.decompose(oracle.subdifferential_polytope(crossing, base),
                      np.zeros(2))
    x_u, x_v = vu.project(fc, [0.3, 0.7])
    assert abs(abs(x_u[0]) - 0.3) <= 1e-12 and abs(abs(x_v[0]) - 0.7) <= 1e-12
    zu, zv = vu.project(fc, np.zeros(2))
    assert np.all(zu == 0) and np.all(zv == 0)


def test_project_isometry(abs_plus_quad):
    poly = oracle.subdifferential_polytope(abs_plus_quad, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2))
    rng = np.random.default_rng(11)
    xs = rng.uniform(-5, 5, size=(10_000, 2))
    for x in xs:
        x_u, x_v = vu.project(frame, x)
        back = vu.assemble(frame, x_u, x_v)
        assert np.linalg.norm(back - x) <= 1e-12
        assert abs(x @ x - (x_u @ x_u + x_v @ x_v)) <= 1e-12 * (1 + x @ x)


def test_decompose_invariances(crossing):
    """U is invariant to generator order and to moving the anchor inside the
    relative interior of the hull."""
    base = crossing.meta["default_base_point"]
    poly = oracle.subdifferential_polytope(crossing, base)
    f1 = vu.decompose(poly, vu.relative_interior_point(poly))
    flipped = oracle.SubdifferentialPolytope(poly.generators[::-1], base)
    f2 = vu.decompose(flipped, vu.relative_interior_point(flipped))
    assert vu.principal_angle(f1.u_basis, f2.u_basis) <= 1e-8
    g0, g1 = poly.generators
    for w in (0.1, 0.5, 0.9):
        anchor = w * g0 + (1 - w) * g1
        fw = vu.decompose(poly, anchor)
        assert vu.principal_angle(f1.u_basis, fw.u_basis) <= 1e-8


def test_known_u_for_all_builtins():
    for name in ("abs_diff", "abs_plus_quad", "crossing_max",
                 "four_quadrant_max", "quadratic(diag(1,10))"):
        model = oracle.builtin(name)
        base = model.meta["default_base_point"]
        poly = oracle.subdifferential_polytope(model, base)
        frame = vu.decompose(poly, vu.relative_interior_point(poly))
        assert vu.principal_angle(frame.u_basis,
                                  model.meta["known_u"]) <= 1e-8


def test_check_decomposition(abs_diff, crossing, four_quadrant):
    poly = oracle.subdifferential_polytope(abs_diff, np.zeros(2))
    frame = vu.decompose(poly, np.zeros(2))
    rep = vu.check_decomposition(abs_diff, frame)
    assert rep.max_u_support_asymmetry <= 1e-12
    assert rep.max_generator_u_misfit <= 1e-12
    assert rep.witnesses  # V directions have genuinely sublinear support

    base = crossing.meta["default_base_point"]
    fc = vu.decompose(oracle.subdifferential_polytope(crossing, base),
                      np.zeros(2))
    repc = vu.check_decomposition(crossing, fc)
    assert repc.max_generator_u_misfit <= 1e-12

    fq = vu.decompose(oracle.subdifferential_polytope(four_quadrant,
                                                      np.zeros(2)),
                      np.zeros(2))
    repq = vu.check_decomposition(four_quadrant, fq)
    assert repq.max_u_support_asymmetry == 0.0  # U = {0}, vacuous


def test_anchor_not_in_hull(abs_diff):
    poly = oracle.subdifferential_polytope(abs_diff, np.zeros(2))
    with pytest.raises(AnchorNotInHull):
        vu.decompose(poly, np.array([1.0, 1.0]))


def test_rel_interior_contains(crossing):
    base = crossing.meta["default_base_point"]
    poly = oracle.subdifferential_polytope(crossing, base)
    assert vu.rel_interior_contains(poly, np.zeros(2))
    assert not vu.rel_interior_contains(poly, poly.generators[0])  # endpoint
