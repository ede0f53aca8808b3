"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; every expected value below comes from a closed form or an
independent brute-force oracle, never from the code path under test.
"""

import json

import numpy as np

from vulab import cli, envelope, manifold, oracle, subjets, tilt, vu
from vulab import ulagrangian as ug

from conftest import golden_min, neg_norm_squared


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {description}: {status} {detail}")
    assert ok, f"criterion {num}: {description} {detail}"


def test_criterion_01_subjet_closed_form(abs_diff):
    agree, total = cli.abs_diff_rule_agreement(abs_diff)
    report(1, "subjet membership matches the sign rule",
           agree == total == 200, f"({agree}/{total})")


def test_criterion_02_barrier_cone(abs_diff, abs_diff_component):
    u2, profile = abs_diff_component
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ok = True
    for d, v in zip(profile.directions, profile.values):
        line_angle = np.degrees(np.arccos(np.clip(abs(d @ diag), 0.0, 1.0)))
        if (line_angle <= 1.0) != (v is not None):
            ok = False
    angle = vu.principal_angle(u2, np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    report(2, "64-direction barrier cone classification and U2 span",
           ok and angle <= 1e-6, f"(angle={angle:.2e})")


def test_criterion_03_degenerate_vu(tmp_path):
    config = cli.ExperimentConfig(problem="four_quadrant_max",
                                  campaign=["decompose", "manifold"],
                                  output_dir=str(tmp_path))
    manifest, code = cli.run(config)
    dec = json.loads((tmp_path / "decompose.json").read_text())
    man = json.loads((tmp_path / "manifold.json").read_text())
    ok = (dec["dim_u"] == 0 and man["dim_u2"] == 0 and man["degenerate"]
          and man["nodes"] == 1 and manifest["overall"] == "pass"
          and code == 0)
    report(3, "four-quadrant model degenerates to a passing single-node trace",
           ok)


def test_criterion_04_vu_subspaces(tmp_path):
    manifest, code = cli.run(cli.ExperimentConfig(
        problem="crossing_max", campaign=["decompose"],
        output_dir=str(tmp_path)))
    summary = json.loads((tmp_path / "decompose.json").read_text())
    u_angle = vu.principal_angle(np.array(summary["u_basis"]),
                                 np.array([[1.0], [0.0]]))
    v_angle = vu.principal_angle(np.array(summary["v_basis"]),
                                 np.array([[0.0], [1.0]]))
    note_present = any("(3-sqrt(5))/2" in n for n in summary.get("notes", []))
    report(4, "crossing-model U, V subspaces and base-point discrepancy note",
           u_angle <= 1e-8 and v_angle <= 1e-8 and note_present and code == 0,
           f"(u={u_angle:.1e}, v={v_angle:.1e}, note={note_present})")


def test_criterion_05_selection_little_oh(crossing_ctx):
    worst = 0.0
    for u in np.linspace(-0.14, 0.14, 20):
        v = ug.v_of_u(crossing_ctx, np.array([u]))[0]

        def phi(w, u=u):
            point = crossing_ctx.point(np.array([u]), np.array([w]))
            return oracle.evaluate(crossing_ctx.model, point)

        gold = golden_min(phi, -0.25, 0.25, tol=1e-12)
        worst = max(worst, abs(v - gold))
    ratios = dict(ug.little_oh_check(crossing_ctx, [1e-3]))
    ratio = ratios[1e-3]
    report(5, "selection matches golden-section oracle and is o(||u||)",
           worst <= 1e-6 and ratio <= 1e-3,
           f"(sel err={worst:.1e}, ratio={ratio:.1e})")


def test_criterion_06_lagrangian_convexity(apq_ctx, crossing_ctx):
    qi = oracle.builtin("quadratic(I2)")
    poly = oracle.subdifferential_polytope(qi, np.zeros(2))
    qi_ctx = ug.ULagContext(model=qi, frame=vu.decompose(poly, np.zeros(2),
                                                         eps=1.0))
    from vulab.solvers import cube_lattice
    cases = [
        (apq_ctx, [np.array([t]) for t in np.linspace(-0.25, 0.25, 41)]),
        (crossing_ctx, [np.array([t]) for t in np.linspace(-0.07, 0.07, 41)]),
        (qi_ctx, list(cube_lattice(2, 0.4, 9))),
    ]
    worst_rel = -np.inf
    for ctx, grid in cases:
        viol = ug.convexity_check(ctx, grid)
        scale = 1.0 + max(abs(ug.l_value(ctx, u)) for u in grid)
        worst_rel = max(worst_rel, viol / scale)
    report(6, "Lagrangian midpoint convexity on three builtin grids",
           worst_rel <= 1e-9, f"(worst={worst_rel:.1e})")


def test_criterion_07_conjugacy_identity(abs_plus_quad, crossing,
                                         apq_ctx, crossing_ctx):
    r1 = envelope.conjugacy_identity_check(
        apq_ctx, np.linspace(-0.5, 0.5, 11), resolution=401)
    r2 = envelope.conjugacy_identity_check(
        crossing_ctx, np.linspace(-0.05, 0.05, 5), resolution=401)
    report(7, "conjugate of L equals the anchored conjugate (401 grids)",
           r1 <= 1e-3 and r2 <= 1e-3, f"(residuals {r1:.1e}, {r2:.1e})")


def test_criterion_08_gradient_lipschitz(apq_trace, apq_trace_fine,
                                         crossing_trace, crossing_trace_fine):
    la, laf = manifold.c11_check(apq_trace), manifold.c11_check(apq_trace_fine)
    lc, lcf = (manifold.c11_check(crossing_trace),
               manifold.c11_check(crossing_trace_fine))
    ok = (np.isfinite([la, laf, lc, lcf]).all()
          and abs(laf - la) / la <= 0.25
          and abs(lcf - lc) / lc <= 0.25
          and abs(la - 2.0) <= 1e-4)
    report(8, "composite gradient is Lipschitz, stable under refinement",
           ok, f"(apq {la:.8f}, crossing {lc:.4f}->{lcf:.4f})")


def test_criterion_09_chain_formula(crossing_trace):
    resid = manifold.grad_chain_check(crossing_trace)
    report(9, "projected chain pairing single-valued across generators",
           resid <= 1e-5, f"(residual={resid:.1e})")


def test_criterion_10_lower_taylor(apq_trace, crossing_trace):
    margins = [manifold.taylor_lower_check(apq_trace),
               manifold.taylor_lower_check(crossing_trace)]
    probes = [manifold.taylor_lower_check(apq_trace, inflate=1.0),
              manifold.taylor_lower_check(crossing_trace, inflate=1.0)]
    ok = all(m >= -1e-9 for m in margins) and all(p < -1e-9 for p in probes)
    report(10, "lower Taylor margins certified and sharpness probe detected",
           ok, f"(margins={margins}, probes={probes})")


def test_criterion_11_tilt_chain(abs_plus_quad, abs_diff):
    va = tilt.tilt_stability_test(abs_plus_quad, np.zeros(2), 1.0)
    env_a = subjets.moreau_model(abs_plus_quad, 1.0)
    beta_a = subjets.tilt_criterion_c11(subjets.limiting_hessians(
        env_a, np.zeros(2), np.zeros(2), radii=(0.1, 0.05), n_dirs=8))
    vd = tilt.tilt_stability_test(abs_diff, np.zeros(2), 1.0)
    env_d = subjets.moreau_model(abs_diff, 1.0)
    beta_d = subjets.tilt_criterion_c11(subjets.limiting_hessians(
        env_d, np.zeros(2), np.zeros(2), radii=(0.1, 0.05), n_dirs=8))
    ok = (va.stable and va.lipschitz_estimate <= 0.5 + 1e-3 and beta_a > 0
          and not vd.stable and np.allclose(vd.witness, 0.0)
          and abs(beta_d) <= 1e-6)
    report(11, "tilt criteria chain across stability, witness and envelopes",
           ok, f"(L={va.lipschitz_estimate:.4f}, beta={beta_a:.3f}, "
               f"beta_flat={beta_d:.1e})")


def test_criterion_12_appendix(abs_diff_component):
    _, profile = abs_diff_component
    viol1 = subjets.para_convexity_check(profile, 0.0)
    q = oracle.builtin("quadratic(diag(1,10))")
    _, pq = subjets.second_order_component(q, np.zeros(2), np.zeros(2))
    viol2 = subjets.para_convexity_check(pq, 0.0)
    neg = neg_norm_squared()
    _, pn = subjets.second_order_component(neg, np.zeros(2), np.zeros(2))
    viol3 = subjets.para_convexity_check(pn, 2.0)

    ab = oracle.builtin("huber_source_abs")
    lam = 0.5
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 100):
        val, _, _ = subjets.moreau_envelope(ab, lam, np.array([x]))
        closed = x * x / (2 * lam) if abs(x) <= lam else abs(x) - lam / 2
        worst = max(worst, abs(val - closed))

    r1 = subjets.hessian_duality_check(oracle.builtin("quadratic(diag(2,5))"),
                                       np.zeros(2))
    quart = oracle.FunctionModel(
        dim=1, kind="max_of_smooth",
        pieces=[oracle.CallablePiece(lambda x: x[0] ** 4 + 0.5 * x[0] ** 2,
                                     lambda x: np.array([4 * x[0] ** 3 + x[0]]),
                                     lambda x: np.array([[12 * x[0] ** 2 + 1]]))],
        flags=oracle.Flags(convex=True), name="quartic")
    r2 = subjets.hessian_duality_check(quart, np.array([0.5]))
    r3 = subjets.hessian_duality_check(oracle.builtin("quadratic(I2)"),
                                       np.zeros(2))
    ok = (max(viol1, viol2, viol3) <= 1e-9 and worst <= 1e-6
          and r1 <= 1e-3 and r2 <= 1e-2 and r3 <= 1e-6)
    report(12, "para-convexity, Huber closed form and conjugate duality",
           ok, f"(viol={max(viol1, viol2, viol3):.1e}, huber={worst:.1e}, "
               f"duality=({r1:.1e},{r2:.1e},{r3:.1e}))")
