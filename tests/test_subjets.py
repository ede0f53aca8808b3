import warnings

import numpy as np
import pytest

from vulab import oracle, subjets as sj, vu
from vulab.errors import (EmptyBundle, LambdaTooLarge, NotASubspace,
                          SingularHessian, SolverBudgetExceeded)
from vulab.solvers import _offset_lattice, sphere_directions

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


def base_shell_trace(model, h):
    """The ShellTrace along +h at the origin: the first shell pair of a
    rank-1 query without probe sites."""
    res, = sj.rank1_supports(model, np.zeros(2), np.zeros(2), [h], probes=[])
    return res.shells[0][0]


def test_dini_second(abs_diff):
    qi = oracle.builtin("quadratic(I2)")
    tr = base_shell_trace(qi, np.array([1.0, 0.0]))
    assert tr.estimate == pytest.approx(1.0, abs=1e-9)
    tr = base_shell_trace(abs_diff, DIAG)
    assert tr.estimate == pytest.approx(0.0, abs=1e-9)
    tr = base_shell_trace(abs_diff, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(tr.ts, sj.SHELL_TS)
    assert tr.divergent
    assert np.all(np.diff(tr.values[-4:]) > 0)  # trace grows without bound


def test_rank1_support_examples(abs_diff, four_quadrant):
    diag, anti = sj.rank1_supports(abs_diff, np.zeros(2), np.zeros(2),
                                   [DIAG, ANTI])
    assert not diag.divergent and diag.value == pytest.approx(0.0, abs=1e-9)
    assert anti.divergent
    ang = 2 * np.pi * np.arange(8) / 8
    H = np.column_stack([np.cos(ang), np.sin(ang)])
    for res in sj.rank1_supports(four_quadrant, np.zeros(2), np.zeros(2), H):
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


def test_not_a_subspace_without_attentive_probes(four_quadrant, monkeypatch):
    """Base-point quotients alone see the fat finite cone |h2| <= |h1| of
    max(0, |y|-|x|); the closure check must flag it."""
    monkeypatch.setattr(sj, "attentive_probes", lambda model, x, z: [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NotASubspace):
            sj.second_order_component(four_quadrant, np.zeros(2), np.zeros(2))


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
    val, prox, approximate = sj.moreau_envelope(ab, 0.5, np.array([0.2]))
    assert val == pytest.approx(0.04, abs=1e-10)
    assert abs(prox[0]) <= 1e-8 and not approximate
    val, prox, _ = sj.moreau_envelope(ab, 0.5, np.array([2.0]))
    assert val == pytest.approx(1.75, abs=1e-10)
    assert prox[0] == pytest.approx(1.5, abs=1e-8)
    qi = oracle.builtin("quadratic(I2)")
    x = np.array([0.6, -0.4])
    val, _, _ = sj.moreau_envelope(qi, 1.0, x)
    assert val == pytest.approx(float(x @ x) / 4.0, abs=1e-10)
    with pytest.raises(LambdaTooLarge):
        sj.moreau_envelope(neg_norm_squared(), 1.0, np.zeros(2))


def test_prox_points_carry_the_budget_flag(four_quadrant):
    """A prox solve whose polish hits its move cap (on the x1 axis of
    four_quadrant_max) says so with its points; an exact one does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        _, _, capped = sj.prox_points(four_quadrant, 0.5, np.array([0.3, 0.0]))
    assert capped
    _, _, capped = sj.prox_points(oracle.builtin("huber_source_abs"), 0.5,
                                  np.array([0.3]))
    assert not capped


@pytest.mark.parametrize("name", ["huber_source_abs", "abs_plus_quad",
                                  "four_quadrant_max", "quadratic(I3)"])
def test_moreau_value_matches_scalar_form(name):
    """The returned envelope value comes from the batched objective of the
    prox solve and equals the scalar form f(p) + ||x - p||^2 / (2 lam) bit
    for bit."""
    model = oracle.builtin(name)
    lam = 0.5
    for s in (0.3, -0.2):
        x = model.meta["default_base_point"] + s * np.arange(1, model.dim + 1)
        val, prox, _ = sj.moreau_envelope(model, lam, x)
        scalar = (oracle.evaluate(model, prox)
                  + float(np.sum((x - prox) ** 2)) / (2.0 * lam))
        assert repr(val) == repr(scalar)


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


# Scalar reference: the one-point Dini search and the per-direction loops
# that the batched second-order layer replaced, kept to pin it bit for bit.

def _ref_min_over_direction_ball(model, x, z, h, t, radius, refine, fx):
    h = np.asarray(h, dtype=float)
    scale = np.linalg.norm(h)
    offs = _offset_lattice(len(h))

    def project(u):
        gap = u - h
        norm = np.linalg.norm(gap)
        if norm > radius:
            u = h + gap * (radius / norm)
        nu = np.linalg.norm(u)
        return u if nu < 1e-15 else u * (scale / nu)

    rad = radius
    best_u = h
    best = sj.delta2(model, x, z, t, h, fx)
    for _ in range(refine + 1):
        for o in offs[1:]:
            u = project(best_u + rad * o)
            val = sj.delta2(model, x, z, t, u, fx)
            if val < best:
                best, best_u = val, u
        rad *= 0.3
    return best


def _ref_dini_second(model, x, z, h, ts, ball_radius):
    fx = oracle.evaluate(model, x)
    vals = np.empty(len(ts))
    for i, t in enumerate(ts):
        r = ball_radius if ball_radius is not None else sj.DIR_BALL * t
        vals[i] = _ref_min_over_direction_ball(model, x, z, h, t, r,
                                               sj.REFINE, fx)
    return sj.ShellTrace(ts=np.array(ts), values=vals)


def _ref_rank1_support(model, x, z, h, probes):
    ts = sj.SHELL_TS
    sites = [(x, z, ts, None)] + [
        (xp, zp, rho * np.asarray(sj.PROBE_T_FRACS), sj.PROBE_BALL_SCALE * rho)
        for xp, zp, rho in probes]
    results = []
    for xs, zs, t, ball in sites:
        tp = _ref_dini_second(model, xs, zs, h, t, ball)
        tm = _ref_dini_second(model, xs, zs, -h, t, ball)
        results.append(sj._symmetric_estimate(tp, tm))
    if any(r[0] for r in results):
        return None, [r[2] for r in results]
    return max(r[1] for r in results), [r[2] for r in results]


def _ref_min_margin(model, cand):
    fx = oracle.evaluate(model, cand.x)
    dirs = sphere_directions(len(cand.x), 64)
    margins = np.empty((len(sj.MEMBERSHIP_RADII), len(dirs)))
    for si, r in enumerate(sj.MEMBERSHIP_RADII):
        eta = sj.ETA_COEFF * np.sqrt(r)
        for di, d in enumerate(dirs):
            step = r * d
            raw = (oracle.evaluate(model, cand.x + step) - fx
                   - float(cand.z @ step) - 0.5 * float(step @ cand.Q @ step))
            margins[si, di] = raw + eta * r**2
    return float(margins.min())


@pytest.mark.parametrize("name", ["abs_diff", "four_quadrant_max",
                                  "crossing_max", "abs_plus_quad",
                                  "huber_source_abs", "quadratic(I3)"])
def test_second_order_layer_matches_scalar_reference(name):
    """The lockstep Dini searches reproduce the one-point search bit for
    bit: every rank-1 value of second_order_component, every ShellTrace, and
    the subjet membership margins."""
    model = oracle.builtin(name)
    x = model.meta["default_base_point"]
    z = np.zeros(model.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, profile = sj.second_order_component(model, x, z)
    probes = sj.attentive_probes(model, x, z)
    grid = profile.directions
    searched = [i for i in range(len(grid))
                if not any(np.linalg.norm(grid[j] + grid[i]) <= 1e-12
                           for j in range(i))]
    batched = sj.rank1_supports(model, x, z, grid[searched], probes)
    for i, res in zip(searched, batched):
        value, shells = _ref_rank1_support(model, x, z, grid[i], probes)
        assert profile.values[i] == value
        assert (None if res.divergent else res.value) == value
        assert len(res.shells) == len(shells)
        for got, ref in zip(res.shells, shells):
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g.ts, r.ts)
                np.testing.assert_array_equal(g.values, r.values)
    for Q in (-10.0 * np.eye(model.dim), np.eye(model.dim)):
        cand = sj.JetCandidate(x=x, z=z, Q=Q)
        got = sj.subjet_membership(model, cand).min_margin
        assert repr(got) == repr(_ref_min_margin(model, cand))


@pytest.mark.parametrize("name", ["abs_diff", "quadratic(I2)"])
def test_second_order_component_batches_its_searches(name, monkeypatch):
    """One 2-D second_order_component makes at most two batched search
    calls (the profile directions, then the closure midpoints), each with
    one evaluate_many for f at the sites, one for the start directions and
    one per offset of each of the three refinement rounds."""
    model = oracle.builtin(name)
    evaluate_many = sj.evaluate_many
    calls = []

    def counted(model, X):
        calls.append(len(X))
        return evaluate_many(model, X)

    monkeypatch.setattr(sj, "evaluate_many", counted)
    sj.second_order_component(model, np.zeros(2), np.zeros(2))
    assert 0 < len(calls) <= 2 * (2 + 3 * 8)


@pytest.mark.parametrize("name,batches", [("quadratic(diag(1,10))", 1),
                                          ("abs_plus_quad", 0)])
def test_appendix_checks_batch_their_support_calls(name, batches):
    """para_convexity_check fills the profile cache with one batched support
    call (none when every midpoint lies on the profile grid, as on the
    finite line of abs_plus_quad) and uniform_bound_check makes one; both
    equal the values of one direction at a time."""
    model = oracle.builtin(name)
    x, z = np.zeros(2), np.zeros(2)
    u2, profile = sj.second_order_component(model, x, z)
    _, single = sj.second_order_component(model, x, z)
    support = profile.support
    calls = []

    def counted(H):
        calls.append(len(H))
        return support(H)

    profile.support = counted
    single.support = lambda H: [support(h[None, :])[0] for h in H]
    assert (repr(sj.para_convexity_check(profile, 0.0))
            == repr(sj.para_convexity_check(single, 0.0)))
    assert len(calls) == batches and all(c > 1 for c in calls)
    ref = max(sj.rank1_supports(model, x, z, h / np.linalg.norm(h))[0].value
              for h in (u2 @ w for w in sphere_directions(u2.shape[1], 16)))
    assert repr(sj.uniform_bound_check(model, x, z, u2)) == repr(ref)


def test_dini_second_keeps_shell_radii(abs_plus_quad):
    """A fixed ball radius (a probe site's) and the shrinking DIR_BALL * t
    radius (the base point's) both give the one-point search path, and a
    given f(x) does not change a quotient."""
    x = np.array([0.2, -0.1])
    z = oracle.subdifferential_polytope(abs_plus_quad, x).generators[0]
    ts = sj.SHELL_TS
    for ball in (None, 0.05):
        radii = sj.DIR_BALL * ts if ball is None else np.full(len(ts), ball)
        got, = sj._shell_traces(abs_plus_quad, [(x, z)],
                                [(0, ANTI, ts, radii)])
        ref = _ref_dini_second(abs_plus_quad, x, z, ANTI, ts, ball)
        np.testing.assert_array_equal(got.values, ref.values)
    fx = oracle.evaluate(abs_plus_quad, x)
    for t in ts:
        assert (sj.delta2(abs_plus_quad, x, z, t, ANTI, fx)
                == sj.delta2(abs_plus_quad, x, z, t, ANTI))


def test_rank1_probes_follow_the_base_point(abs_plus_quad):
    """A query at a second (x, z) after one at the kink probes near the
    second point, not near the first: off the kink, abs_plus_quad is smooth
    with Hessian 2I, and its probe sites are those of attentive_probes at
    that point."""
    at_kink, = sj.rank1_supports(abs_plus_quad, np.zeros(2), np.zeros(2),
                                 ANTI)
    assert at_kink.divergent
    x = np.array([0.5, -0.5])
    z = oracle.subdifferential_polytope(abs_plus_quad, x).generators[0]
    later, = sj.rank1_supports(abs_plus_quad, x, z, ANTI)
    given, = sj.rank1_supports(abs_plus_quad, x, z, ANTI,
                               sj.attentive_probes(abs_plus_quad, x, z))
    assert not later.divergent
    assert later.value == given.value == pytest.approx(2.0, abs=1e-6)
    assert len(later.shells) == len(given.shells)
