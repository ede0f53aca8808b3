import warnings

import numpy as np
import pytest

from vulab import oracle, subjets as sj, vu
from vulab.errors import (EmptyBundle, LambdaTooLarge, NotASubspace,
                          SingularHessian)

from conftest import neg_norm_squared

DIAG = np.array([1.0, 1.0]) / np.sqrt(2.0)
ANTI = np.array([1.0, -1.0]) / np.sqrt(2.0)


def huber(x, lam):
    return x * x / (2 * lam) if abs(x) <= lam else abs(x) - lam / 2


def test_delta2_examples(abs_diff):
    qi = oracle.builtin("quadratic(I2)")
    for t in (0.3, 0.01, 1e-4):
        assert sj.delta2(qi, np.zeros(2), np.zeros(2), t,
                         np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert sj.delta2(abs_diff, np.zeros(2), np.zeros(2), 0.1,
                     np.array([1.0, 1.0])) == 0.0
    # 2*|0.1*2|/0.01 = 40 along (1,-1)
    assert sj.delta2(abs_diff, np.zeros(2), np.zeros(2), 0.1,
                     np.array([1.0, -1.0])) == pytest.approx(40.0)


def test_delta2_homogeneity():
    """Quotients at t*h scale by t^2 (degree-2 homogeneity) for smooth models."""
    q = oracle.builtin("quadratic(diag(1,10))")
    h = np.array([0.6, 0.8])
    base = sj.delta2(q, np.zeros(2), np.zeros(2), 0.05, h)
    for t in (0.5, 2.0):
        scaled = sj.delta2(q, np.zeros(2), np.zeros(2), 0.05, t * h)
        assert abs(scaled - t**2 * base) <= 0.05 * abs(scaled)


def test_dini_second(abs_diff):
    qi = oracle.builtin("quadratic(I2)")
    tr = sj.dini_second(qi, np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
    assert tr.estimate == pytest.approx(1.0, abs=1e-9)
    tr = sj.dini_second(abs_diff, np.zeros(2), np.zeros(2), DIAG)
    assert tr.estimate == pytest.approx(0.0, abs=1e-9)
    tr = sj.dini_second(abs_diff, np.zeros(2), np.zeros(2),
                        np.array([1.0, 0.0]))
    assert tr.divergent(1e3)
    assert np.all(np.diff(tr.values[-4:]) > 0)  # trace grows without bound


def test_rank1_support_examples(abs_diff, four_quadrant):
    cfg = sj.RankOneConfig()
    res = sj.rank1_support(abs_diff, np.zeros(2), np.zeros(2), DIAG, cfg)
    assert not res.divergent and res.value == pytest.approx(0.0, abs=1e-9)
    res = sj.rank1_support(abs_diff, np.zeros(2), np.zeros(2), ANTI, cfg)
    assert res.divergent
    cfg2 = sj.RankOneConfig()
    for k in range(8):
        ang = 2 * np.pi * k / 8
        h = np.array([np.cos(ang), np.sin(ang)])
        res = sj.rank1_support(four_quadrant, np.zeros(2), np.zeros(2), h, cfg2)
        assert res.divergent


def test_rank1_symmetry(abs_diff_component):
    _, profile = abs_diff_component
    for d, v in zip(profile.directions, profile.values):
        for d2, v2 in zip(profile.directions, profile.values):
            if np.linalg.norm(d + d2) <= 1e-12:
                assert v == v2  # antipodes share the same computation


def test_membership_examples(abs_diff):
    res = sj.subjet_membership(abs_diff, sj.JetCandidate(
        np.zeros(2), np.zeros(2), np.diag([1.0, -1.0])))
    assert res.status == "member"
    res = sj.subjet_membership(abs_diff, sj.JetCandidate(
        np.zeros(2), np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]])))
    assert res.status == "rejected"
    assert abs(abs(res.witness @ DIAG) - 1.0) <= 1e-12  # witness on diagonal
    res = sj.subjet_membership(abs_diff, sj.JetCandidate(
        np.zeros(2), np.zeros(2), -40.0 * np.eye(2)))
    assert res.status == "member"


def test_membership_downward_closed(abs_diff):
    """(z, Q) member implies (z, Q - P) member for PSD P."""
    rng = np.random.default_rng(5)
    base = np.diag([1.0, -1.0])
    for _ in range(10):
        b = rng.normal(size=(2, 2))
        p = b @ b.T
        res = sj.subjet_membership(abs_diff, sj.JetCandidate(
            np.zeros(2), np.zeros(2), base - p))
        assert res.status == "member"


def test_candidate_symmetry_guard():
    with pytest.raises(ValueError):
        sj.JetCandidate(np.zeros(2), np.zeros(2),
                        np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_second_order_components(abs_diff_component, four_quadrant_component,
                                 apq_component, abs_diff):
    u2, profile = abs_diff_component
    assert u2.shape[1] == 1
    assert vu.principal_angle(u2, abs_diff.meta["known_u"]) <= 1e-6
    assert profile.meta["u2_in_u_residual"] <= 1e-8
    u2q, _ = four_quadrant_component
    assert u2q.shape[1] == 0
    u2a, _ = apq_component
    assert u2a.shape[1] == 1
    assert vu.principal_angle(u2a, np.array([[1.0], [1.0]]) / np.sqrt(2)) <= 1e-6


def test_crossing_fast_track(crossing):
    base = crossing.meta["default_base_point"]
    u2, profile = sj.second_order_component(crossing, base, np.zeros(2))
    assert u2.shape[1] == 1
    assert vu.principal_angle(u2, np.array([[1.0], [0.0]])) <= 1e-8


def test_not_a_subspace_without_attentive_probes(four_quadrant):
    """Base-point quotients alone see the fat finite cone |h2| <= |h1| of
    max(0, |y|-|x|); the closure check must flag it."""
    cfg = sj.RankOneConfig(attentive=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NotASubspace):
            sj.second_order_component(four_quadrant, np.zeros(2), np.zeros(2),
                                      cfg=cfg)


def test_limiting_hessians(abs_diff, crossing):
    q = oracle.builtin("quadratic(diag(1,10))")
    b = sj.limiting_hessians(q, np.zeros(2), np.zeros(2))
    assert b.source == "analytic"
    for H in b.matrices():
        assert np.allclose(H, np.diag([1.0, 10.0]))
    # Huber: second derivative is 1/lam inside, 0 outside
    env = sj.moreau_model(oracle.builtin("huber_source_abs"), 0.5)
    bh = sj.limiting_hessians(env, np.zeros(1), np.zeros(1),
                              radii=(0.8, 0.4, 0.2, 0.1), gradient_tol=1.5)
    for H in bh.matrices():
        assert min(abs(H[0, 0] - 0.0), abs(H[0, 0] - 2.0)) <= 1e-4
    assert any(abs(H[0, 0] - 2.0) <= 1e-4 for H in bh.matrices())
    assert any(abs(H[0, 0]) <= 1e-4 for H in bh.matrices())
    # crossing approached from the quadratic side: Hessians are 2I
    base = crossing.meta["default_base_point"]
    z1 = crossing.pieces[0].gradient(base)
    bc = sj.limiting_hessians(crossing, base, z1, radii=(0.05, 0.02))
    assert len(bc.samples) > 0
    for H in bc.matrices():
        assert np.allclose(H, 2.0 * np.eye(2))
    with pytest.raises(EmptyBundle):
        sj.limiting_hessians(abs_diff, np.zeros(2), np.zeros(2),
                             radii=(1e-3,), gradient_tol=0.5)


def test_coderivative_c11():
    A = np.diag([1.0, 10.0])
    bundle = sj.HessianBundle(samples=[(np.zeros(2), A)], source="analytic")
    h = np.array([0.3, -0.2])
    images, support = sj.coderivative_c11(bundle, h)
    assert np.allclose(images[0], A @ h)
    assert support == pytest.approx(h @ A @ h)
    hb = sj.HessianBundle(samples=[(np.zeros(1), np.array([[0.0]])),
                                   (np.zeros(1), np.array([[2.0]]))],
                          source="moreau")
    images, support = sj.coderivative_c11(hb, np.array([1.0]))
    assert sorted(float(i[0]) for i in images) == [0.0, 2.0]
    assert support == 2.0
    images, _ = sj.coderivative_c11(bundle, np.array([1.0, 0.0]))
    assert np.allclose(images[0], [1.0, 0.0])


def test_tilt_criterion(abs_plus_quad, abs_diff):
    q = oracle.builtin("quadratic(diag(1,10))")
    b = sj.limiting_hessians(q, np.zeros(2), np.zeros(2))
    assert sj.tilt_criterion_c11(b) == pytest.approx(1.0, abs=1e-9)
    env = sj.moreau_model(abs_plus_quad, 1.0)
    be = sj.limiting_hessians(env, np.zeros(2), np.zeros(2),
                              radii=(0.1, 0.05), n_dirs=8)
    assert sj.tilt_criterion_c11(be) > 0.1
    envd = sj.moreau_model(abs_diff, 1.0)
    bd = sj.limiting_hessians(envd, np.zeros(2), np.zeros(2),
                              radii=(0.1, 0.05), n_dirs=8)
    assert abs(sj.tilt_criterion_c11(bd)) <= 1e-6


def test_moreau_envelope(abs_plus_quad):
    ab = oracle.builtin("huber_source_abs")
    val, prox = sj.moreau_envelope(ab, 0.5, np.array([0.2]))
    assert val == pytest.approx(0.04, abs=1e-10)
    assert abs(prox[0]) <= 1e-8
    val, prox = sj.moreau_envelope(ab, 0.5, np.array([2.0]))
    assert val == pytest.approx(1.75, abs=1e-10)
    assert prox[0] == pytest.approx(1.5, abs=1e-8)
    qi = oracle.builtin("quadratic(I2)")
    x = np.array([0.6, -0.4])
    val, _ = sj.moreau_envelope(qi, 1.0, x)
    assert val == pytest.approx(float(x @ x) / 4.0, abs=1e-10)
    with pytest.raises(LambdaTooLarge):
        sj.moreau_envelope(neg_norm_squared(), 1.0, np.zeros(2))


def test_moreau_gradient_consistency(abs_plus_quad):
    env = sj.moreau_model(abs_plus_quad, 0.7)
    for x in (np.array([0.3, -0.1]), np.array([-0.4, 0.6])):
        g = env.gradient_fn(x)
        g_fd = sj.fd_gradient(env.value_fn, x, 1e-5)
        assert np.max(np.abs(g - g_fd)) <= 1e-5


def test_para_convexity(abs_diff_component):
    _, profile = abs_diff_component
    assert sj.para_convexity_check(profile, 0.0) <= 1e-9
    q = oracle.builtin("quadratic(diag(1,10))")
    _, pq = sj.second_order_component(q, np.zeros(2), np.zeros(2))
    assert sj.para_convexity_check(pq, 0.0) <= 1e-9
    neg = neg_norm_squared()
    _, pn = sj.second_order_component(neg, np.zeros(2), np.zeros(2))
    # q(h) = -2||h||^2, so q + 2||h||^2 vanishes identically
    assert sj.para_convexity_check(pn, 2.0) <= 1e-9


def test_para_concave_hessians_are_subjet_members():
    """Limiting Hessians of a para-concave model drop into the subjet after
    an epsilon shave (the equality direction of the envelope proposition)."""
    neg = neg_norm_squared()
    bundle = sj.limiting_hessians(neg, np.zeros(2), np.zeros(2),
                                  radii=(0.05, 0.02), gradient_tol=0.5)
    for _, H in bundle.samples:
        res = sj.subjet_membership(neg, sj.JetCandidate(
            np.zeros(2), np.zeros(2), H - 1e-4 * np.eye(2)))
        assert res.status == "member"


def test_hessian_duality():
    r = sj.hessian_duality_check(oracle.builtin("quadratic(diag(2,5))"),
                                 np.zeros(2))
    assert r <= 1e-3
    r = sj.hessian_duality_check(oracle.builtin("quadratic(I2)"), np.zeros(2))
    assert r <= 1e-6
    quart = oracle.FunctionModel(
        dim=1, kind="max_of_smooth",
        pieces=[oracle.CallablePiece(lambda x: x[0] ** 4 + 0.5 * x[0] ** 2,
                                     lambda x: np.array([4 * x[0] ** 3 + x[0]]),
                                     lambda x: np.array([[12 * x[0] ** 2 + 1]]))],
        flags=oracle.Flags(convex=True), name="quartic")
    assert sj.hessian_duality_check(quart, np.array([0.5])) <= 1e-2
    with pytest.raises(SingularHessian):
        sj.hessian_duality_check(oracle.builtin("quadratic(diag(1,0))"),
                                 np.zeros(2))


def test_uniform_bound(abs_diff_component, apq_component, abs_diff,
                       abs_plus_quad):
    u2, _ = abs_diff_component
    assert sj.uniform_bound_check(abs_diff, np.zeros(2), np.zeros(2),
                                  u2) <= 1e-6
    u2a, _ = apq_component
    m = sj.uniform_bound_check(abs_plus_quad, np.zeros(2), np.zeros(2), u2a)
    assert m == pytest.approx(2.0, abs=1e-6)
    q = oracle.builtin("quadratic(diag(1,10))")
    u2q, _ = sj.second_order_component(q, np.zeros(2), np.zeros(2))
    mq = sj.uniform_bound_check(q, np.zeros(2), np.zeros(2), u2q)
    assert mq == pytest.approx(10.0, abs=1e-6)


def test_dini_second_evaluates_f_x_once(abs_plus_quad, monkeypatch):
    """dini_second passes one f(x) into every delta2 instead of letting each
    quotient evaluate it again."""
    x = np.array([0.2, -0.1])
    z = oracle.subdifferential_polytope(abs_plus_quad, x).generators[0]
    ts = sj.default_t_grid()
    expect = sj.dini_second(abs_plus_quad, x, z, DIAG, t_grid=ts)
    evaluate, delta2 = sj.evaluate, sj.delta2
    counts = {"evaluate": 0, "delta2": 0}

    def counted_evaluate(model, p):
        counts["evaluate"] += 1
        return evaluate(model, p)

    def counted_delta2(*args, **kwargs):
        counts["delta2"] += 1
        return delta2(*args, **kwargs)

    monkeypatch.setattr(sj, "evaluate", counted_evaluate)
    monkeypatch.setattr(sj, "delta2", counted_delta2)
    got = sj.dini_second(abs_plus_quad, x, z, DIAG, t_grid=ts)
    assert counts["delta2"] > len(ts)
    assert counts["evaluate"] == counts["delta2"] + 1
    np.testing.assert_array_equal(got.values, expect.values)
    fx = oracle.evaluate(abs_plus_quad, x)
    for t in ts:
        assert (sj.delta2(abs_plus_quad, x, z, t, ANTI, fx)
                == sj.delta2(abs_plus_quad, x, z, t, ANTI))


def test_rank1_config_reused_at_two_base_points(abs_plus_quad):
    """A config reused at another (x, z) probes near that point, not near the
    first one: off the kink, abs_plus_quad is smooth with Hessian 2I."""
    cfg = sj.RankOneConfig()
    at_kink = sj.rank1_support(abs_plus_quad, np.zeros(2), np.zeros(2), ANTI,
                               cfg)
    assert at_kink.divergent
    x = np.array([0.5, -0.5])
    z = oracle.subdifferential_polytope(abs_plus_quad, x).generators[0]
    reused = sj.rank1_support(abs_plus_quad, x, z, ANTI, cfg)
    fresh = sj.rank1_support(abs_plus_quad, x, z, ANTI, sj.RankOneConfig())
    assert not reused.divergent
    assert reused.value == fresh.value == pytest.approx(2.0, abs=1e-6)
    assert len(reused.shells) == len(fresh.shells)
