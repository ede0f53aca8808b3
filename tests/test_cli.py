import collections
import functools
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from vulab import cli, solvers, subjets, ulagrangian
from vulab.errors import BoundaryActive, SolverBudgetExceeded

from conftest import crossing_selection, frame_context


def run_campaign(problem, campaign, out, **kwargs):
    config = cli.ExperimentConfig(problem=problem, campaign=[campaign],
                                  output_dir=str(out), **kwargs)
    return cli.run(config)


def test_decompose_crossing_report(tmp_path):
    manifest, code = run_campaign("crossing_max", "decompose", tmp_path)
    assert code == 0 and manifest["overall"] == "pass"
    assert manifest["schema_version"] == "1"
    summary = json.loads((tmp_path / "decompose.json").read_text())
    assert summary["schema_version"] == "1"
    u = np.array(summary["u_basis"])
    angle = min(np.linalg.norm(u.ravel() - [1, 0]),
                np.linalg.norm(u.ravel() + [1, 0]))
    assert angle <= 1e-8
    # the base-point discrepancy note must appear in the report
    assert any("(3-sqrt(5))/2" in note for note in summary["notes"])
    checks = {c["name"]: c for c in
              manifest["campaigns"]["decompose"]["checks"]}
    assert checks["u_matches_closed_form"]["status"] == "pass"


def test_subjet_abs_diff_report(tmp_path):
    manifest, code = run_campaign("abs_diff", "subjet", tmp_path)
    assert code == 0
    checks = {c["name"]: c for c in manifest["campaigns"]["subjet"]["checks"]}
    assert checks["closed_form_rule_agreement"]["value"] == "200/200"
    profile = (tmp_path / "rank1_profile.csv").read_text().splitlines()
    assert profile[0] == "direction,classification,finest_value"
    assert sum(";finite;" in line for line in profile) == 2


def test_manifold_abs_plus_quad_pass(tmp_path):
    manifest, code = run_campaign("abs_plus_quad", "manifold", tmp_path,
                                  grids={"resolution": 21})
    assert code == 0 and manifest["overall"] == "pass"
    summary = json.loads((tmp_path / "manifold.json").read_text())
    assert abs(summary["lipschitz_estimate"] - 2.0) <= 1e-6
    trace_csv = (tmp_path / "manifold_trace.csv").read_text()
    assert trace_csv.startswith("u,v,f,l,z_u,dv,boundary")


def test_manifold_skipped_for_unstable_base(tmp_path):
    """abs_diff is genuinely not tilt stable: the manifold campaign must
    record the precondition as skipped instead of failing or crashing."""
    manifest, code = run_campaign("abs_diff", "manifold", tmp_path)
    assert code == 0 and manifest["overall"] == "pass"
    checks = {c["name"]: c for c in
              manifest["campaigns"]["manifold"]["checks"]}
    assert checks["tilt_stable_base"]["status"] == "skipped"
    assert "reason" in checks["tilt_stable_base"]["detail"]


def test_manifold_four_quadrant_degenerate(tmp_path):
    manifest, code = run_campaign("four_quadrant_max", "manifold", tmp_path)
    assert code == 0 and manifest["overall"] == "pass"
    summary = json.loads((tmp_path / "manifold.json").read_text())
    assert summary["degenerate"] and summary["dim_u2"] == 0
    checks = {c["name"]: c for c in
              manifest["campaigns"]["manifold"]["checks"]}
    assert checks["degenerate_single_node_trace"]["status"] == "pass"


def test_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_campaign("abs_diff", "decompose", a)
    run_campaign("abs_diff", "decompose", b)
    for name in ("manifest.json", "decompose.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # wall-clock metadata is quarantined in its own file
    meta = json.loads((a / "metadata.json").read_text())
    assert "timestamp" in meta
    manifest = json.loads((a / "manifest.json").read_text())
    assert "timestamp" not in json.dumps(manifest)


def test_config_round_trip(tmp_path):
    config = cli.ExperimentConfig(problem="abs_diff", campaign=["decompose"],
                                  radii={"eps": 0.5}, output_dir="x")
    again = cli.ExperimentConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = cli.ExperimentConfig.from_json(str(path))
    assert loaded.to_dict() == config.to_dict()


def test_config_validation():
    with pytest.raises(ValueError):
        cli.ExperimentConfig(problem="abs_diff", campaign=[]).validate()
    with pytest.raises(ValueError):
        cli.ExperimentConfig(problem="abs_diff",
                             campaign=["nope"]).validate()
    with pytest.raises(ValueError):
        cli.ExperimentConfig(problem="abs_diff", campaign=["decompose"],
                             radii={"eps": -1.0}).validate()


def test_main_usage_error(capsys):
    assert cli.main(["decompose"]) == 3
    assert "usage error" in capsys.readouterr().err
    assert cli.main(["decompose", "--config", "/nonexistent.json"]) == 3


def test_main_pass_exit_code(tmp_path, capsys):
    code = cli.main(["decompose", "--problem", "abs_diff",
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "[PASS" in out


def test_exit_code_on_hard_failure(tmp_path):
    """A problem whose declared structure contradicts the measurements must
    exit 1: here the Lagrangian of -||u||^2 fails midpoint convexity."""
    problem = {"dim": 1, "kind": "max_of_smooth", "name": "concave",
               "pieces": [{"type": "quadratic", "A": [[-2.0]], "b": [0.0],
                           "c": 0.0}],
               "flags": {"convex": False, "quadratic_minorant": [0.0, 2.0]}}
    ppath = tmp_path / "concave.json"
    ppath.write_text(json.dumps(problem))
    config = cli.ExperimentConfig(problem=str(ppath), campaign=["lagrangian"],
                                  output_dir=str(tmp_path / "out"))
    manifest, code = cli.run(config)
    assert code == 1 and manifest["overall"] == "fail"
    checks = {c["name"]: c for c in
              manifest["campaigns"]["lagrangian"]["checks"]}
    assert checks["lagrangian_midpoint_convexity"]["status"] == "fail"


def test_manifest_completeness(tmp_path):
    manifest, _ = run_campaign("abs_diff", "tilt-test", tmp_path)
    names = [c["name"] for c in manifest["campaigns"]["tilt-test"]["checks"]]
    assert len(names) == len(set(names))
    for check in manifest["campaigns"]["tilt-test"]["checks"]:
        assert check["status"] in ("pass", "fail", "inconclusive", "skipped")


def test_exit_status_taxonomy():
    assert cli.aggregate_statuses(["pass", "pass"]) == ("pass", 0)
    assert cli.aggregate_statuses(["pass", "skipped"]) == ("pass", 0)
    assert cli.aggregate_statuses(["pass", "inconclusive"]) == \
        ("inconclusive", 2)
    assert cli.aggregate_statuses(["fail", "inconclusive"]) == ("fail", 1)


def test_appendix_skips_duality_for_nonsmooth(tmp_path):
    manifest, code = run_campaign("abs_diff", "appendix", tmp_path)
    assert code == 0
    checks = {c["name"]: c for c in
              manifest["campaigns"]["appendix"]["checks"]}
    dual = checks["conjugate_hessian_duality"]
    assert dual["status"] == "skipped" and "detail" in dual


@pytest.mark.parametrize("problem", ["abs_diff", "crossing_max",
                                     "abs_plus_quad"])
def test_lagrangian_selection_little_oh(tmp_path, problem):
    """abs_diff's exact selection v = 0 passes despite its float-noise
    ratios; the other two pass as before."""
    manifest, code = run_campaign(problem, "lagrangian", tmp_path)
    statuses = {c["name"]: c["status"]
                for c in manifest["campaigns"]["lagrangian"]["checks"]}
    assert code == 0
    assert set(statuses.values()) == {"pass"}
    assert "selection_little_oh" in statuses


def test_tilt_test_four_quadrant_max_is_decisively_unstable(tmp_path):
    """four_quadrant_max = max(0, |x2| - |x1|) has a flat argmin at z = 0,
    so its tilt verdict is unstable with witness 0, decided without a
    solver budget warning."""
    config = cli.ExperimentConfig(problem="four_quadrant_max",
                                  campaign=["tilt-test"],
                                  output_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest, code = cli.Runner(config).run()
    assert code == 0 and manifest["overall"] == "pass"
    checks = manifest["campaigns"]["tilt-test"]["checks"]
    assert all(c["status"] == "pass" for c in checks)
    summary = json.loads((tmp_path / "tilt-test.json").read_text())
    assert summary["status"] == "unstable"
    assert summary["witness"] == [0.0, 0.0]


# max{1/2 x1^2 + x2^2 + x2, -x2}: convex max-pieces with different,
# anisotropic Hessians, so its tilt probes and prox solves keep the SLSQP
# multistart; 0 lies in the relative interior of its subdifferential at 0.
ANISOTROPIC_MAX = {"dim": 2, "kind": "max_of_smooth",
                   "name": "anisotropic_max",
                   "pieces": [{"type": "quadratic",
                               "A": [[1.0, 0.0], [0.0, 2.0]],
                               "b": [0.0, 1.0]},
                              {"type": "affine", "a": [0.0, -1.0]}]}


@pytest.mark.parametrize("problem", ["four_quadrant_max", "anisotropic_max"])
def test_solver_budget_makes_verdicts_inconclusive(tmp_path, monkeypatch,
                                                   problem):
    """With an SLSQP budget of one iteration every multistart solve is
    capped: the tilt verdict and the Moreau check read inconclusive rather
    than a verdict from unconverged points, and each run exits 2.  The tilt
    probes and prox solves of abs_diff and crossing_max are exact ball
    solves, so ANISOTROPIC_MAX, whose max-pieces have different anisotropic
    Hessians, takes the place of the structured models on both halves."""
    if problem == "anisotropic_max":
        problem = tmp_path / "anisotropic_max.json"
        problem.write_text(json.dumps(ANISOTROPIC_MAX))
        problem = str(problem)
    monkeypatch.setattr(solvers, "MAX_ITERS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        manifest, code = run_campaign(problem, "tilt-test",
                                      tmp_path / "tilt")
    assert code == 2 and manifest["overall"] == "inconclusive"
    checks = {c["name"]: c for c in manifest["campaigns"]["tilt-test"]["checks"]}
    assert checks["tilt_verdict_decisive"]["status"] == "inconclusive"
    assert all(c["status"] == "pass" for name, c in checks.items()
               if name != "tilt_verdict_decisive")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverBudgetExceeded)
        manifest, code = run_campaign(problem, "appendix", tmp_path / "app")
    assert code == 2 and manifest["overall"] == "inconclusive"
    checks = {c["name"]: c for c in manifest["campaigns"]["appendix"]["checks"]}
    moreau = checks["moreau_gradient_consistency"]
    assert moreau["status"] == "inconclusive"
    assert "budget" in moreau["detail"]["approximate"]


def test_manifold_inconclusive_tilt_verdict_exits_inconclusive(tmp_path,
                                                               monkeypatch):
    """A tilt verdict left inconclusive by a solver budget leaves the
    manifold precondition inconclusive, not skipped, and the run exits 2."""
    from vulab import tilt
    verdict = tilt.StabilityVerdict(lipschitz_estimate=1.0, witness=None,
                                    grid_radius=0.1, status="inconclusive")
    monkeypatch.setattr(tilt, "tilt_stability_test",
                        lambda *args: verdict)
    config = cli.ExperimentConfig(problem="abs_plus_quad",
                                  campaign=["manifold"],
                                  output_dir=str(tmp_path))
    manifest, code = cli.Runner(config).run()
    assert code == 2 and manifest["overall"] == "inconclusive"
    check, = manifest["campaigns"]["manifold"]["checks"]
    assert check["name"] == "tilt_stable_base"
    assert check["status"] == "inconclusive"
    assert check["value"] == "inconclusive"
    assert "inconclusive" in check["detail"]["reason"]


def test_tilt_test_concave_quadratic_is_decisively_unstable(tmp_path):
    """quadratic(-I) is one quadratic, so its tilt probes are exact: at
    z = 0 the argmin is the whole unit circle, the verdict is unstable with
    witness 0, and the manifold precondition is skipped, not inconclusive.
    Both campaigns exit 0 and no solver budget is hit."""
    config = cli.ExperimentConfig(problem="quadratic(-I)",
                                  campaign=["tilt-test", "manifold"],
                                  output_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", SolverBudgetExceeded)
        manifest, code = cli.Runner(config).run()
    assert code == 0 and manifest["overall"] == "pass"
    checks = {c["name"]: c for c in manifest["campaigns"]["tilt-test"]["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    detail = checks["tilt_verdict_decisive"]["detail"]
    assert detail["status"] == "unstable" and detail["witness"] == [0.0, 0.0]
    check, = manifest["campaigns"]["manifold"]["checks"]
    assert check["name"] == "tilt_stable_base"
    assert check["status"] == "skipped" and check["value"] == "unstable"
    assert check["detail"]["witness"] == [0.0, 0.0]


QUADRATIC = {"dim": 2, "kind": "max_of_smooth",
             "pieces": [{"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]]}]}
SKEW = dict(QUADRATIC, pieces=[{"type": "quadratic",
                                "A": [[0.0, 2.0], [0.0, 0.0]]}])
NO_DIM = {k: v for k, v in QUADRATIC.items() if k != "dim"}


@pytest.mark.parametrize("flag, content, needle", [
    pytest.param("--problem", SKEW, "not symmetric", id="nonsymmetric_A"),
    pytest.param("--problem", NO_DIM, "'dim'", id="missing_dim"),
    pytest.param("--problem", dict(QUADRATIC, polyhedral_parts=[]),
                 "problem key 'polyhedral_parts'", id="unknown_problem_key"),
    pytest.param("--problem", dict(QUADRATIC, flags={"convx": True}),
                 "flags key 'convx'", id="unknown_flags_key"),
    pytest.param("--problem", dict(QUADRATIC,
                                   flags={"locally_lipschitz": True}),
                 "flags key 'locally_lipschitz'", id="removed_flags_key"),
    pytest.param("--problem", dict(QUADRATIC, pieces=[
        {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "a": [0.0]}]),
                 "pieces[0] key 'a'", id="unknown_piece_key"),
    pytest.param("--problem", dict(QUADRATIC, polyhedral_part=[
        {"type": "affine", "a": [1.0, 0.0], "c": 0.0}]),
                 "polyhedral_part[0] key 'c'", id="unknown_polyhedral_key"),
    pytest.param("--problem", None, "no_such_model", id="unknown_builtin"),
    pytest.param("--config", {"problem": "abs_diff", "workerz": 2}, "workerz",
                 id="unknown_config_key"),
    pytest.param("--config", {"problem": "abs_diff", "workers": None},
                 "workers", id="removed_config_key"),
    pytest.param("--config", {"campaign": ["decompose"]}, "'problem'",
                 id="config_without_problem"),
    pytest.param("--config", {"problem": "abs_diff",
                              "radii": {"eps": 0.2, "delta": 0.3}},
                 "radii.delta", id="delta_beyond_eps"),
    pytest.param("--config", {"problem": "abs_diff",
                              "radii": {"epsilon": 0.2}},
                 "'epsilon'", id="unknown_radii_key"),
    pytest.param("--config", {"problem": "abs_diff",
                              "grids": {"resolutoin": 11}},
                 "'resolutoin'", id="unknown_grids_key"),
    pytest.param("--config", {"problem": "abs_diff", "anchor": "middle"},
                 "'middle'", id="unknown_anchor"),
    pytest.param("--config", {"problem": "abs_diff", "radii": {"eps": "x"}},
                 "radii.eps", id="nonnumeric_radius"),
    pytest.param("--config", {"problem": "huber_source_abs",
                              "base_point": [0.0, 0.0]},
                 "base_point", id="base_point_dimension"),
])
def test_main_bad_input_exits_usage_error(tmp_path, monkeypatch, capsys, flag,
                                          content, needle):
    """Malformed problems and configs are usage errors (exit 3) that name
    the fault, not tracebacks."""
    monkeypatch.chdir(tmp_path)
    path = "no_such_model"
    if content is not None:
        path = "input.json"
        (tmp_path / path).write_text(json.dumps(content))
    assert cli.main(["decompose", flag, path, "--out", "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error") and needle in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grids, needle", [
    ({"resolution": 2.5}, "grids.resolution"),
    ({"resolution": 2}, "grids.resolution"),
    ({"resolution": 1}, "grids.resolution"),
    ({"conjugate_resolution": 400.5}, "grids.conjugate_resolution"),
    ({"conjugate_resolution": 1}, "grids.conjugate_resolution"),
    ({"envelope_resolution": 1}, "grids.envelope_resolution"),
    ({"envelope_resolution": 60.2}, "grids.envelope_resolution"),
    ({"resolution": 3, "conjugate_resolution": 2, "envelope_resolution": 2.0,
      "moreau_lambda": 0.25}, None),
])
def test_grid_sizes_are_whole_node_counts(tmp_path, monkeypatch, capsys,
                                          grids, needle):
    """A fractional grid size, or one too small for its check (a midpoint
    for the lagrangian grid, a spacing for the others), is a usage error
    instead of a truncated or vacuous grid."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(
        {"problem": "abs_plus_quad", "grids": grids}))
    code = cli.main(["decompose", "--config", "config.json", "--out", "out"])
    err = capsys.readouterr().err
    if needle is None:
        assert code == 0 and err == ""
    else:
        assert code == 3
        assert err.startswith("usage error") and needle in err


# -||x||^2 without a declared quadratic minorant: no lambda guard applies,
# and the prox search runs into its search ball at every radius
UNBOUNDED_PROX = {"dim": 2, "kind": "max_of_smooth", "name": "neg_norm",
                  "pieces": [{"type": "quadratic",
                              "A": [[-2.0, 0.0], [0.0, -2.0]]}]}


def test_campaign_error_keeps_other_campaigns(tmp_path):
    """An appendix whose prox search raises LambdaTooLarge; the run still
    records decompose, reports the error as a failed check and writes the
    manifest."""
    problem = tmp_path / "neg_norm.json"
    problem.write_text(json.dumps(UNBOUNDED_PROX))
    out = tmp_path / "out"
    manifest, code = cli.run(cli.ExperimentConfig(
        problem=str(problem), campaign=["decompose", "appendix"],
        output_dir=str(out)))
    assert code == 1 and manifest["overall"] == "fail"
    written = json.loads((out / "manifest.json").read_text())
    assert written["campaigns"].keys() == {"decompose", "appendix"}
    assert {c["status"] for c in
            written["campaigns"]["decompose"]["checks"]} == {"pass"}
    check, = written["campaigns"]["appendix"]["checks"]
    assert check["name"] == "campaign_completed" and check["status"] == "fail"
    assert check["detail"]["error"] == "LambdaTooLarge"
    assert "search-ball" in check["detail"]["message"]
    assert (out / "decompose.json").exists()
    assert (out / "appendix.json").exists()


def tilted_abs_problem():
    """f = |a.x| with a = (-sin 0.01 deg, cos 0.01 deg): U is the line a-perp,
    which the second-order component misses by a residual of about 1.7e-4."""
    angle = np.deg2rad(0.01)
    a = [-float(np.sin(angle)), float(np.cos(angle))]
    return {"dim": 2, "kind": "max_of_smooth", "name": "tilted_abs",
            "pieces": [{"type": "affine", "a": a},
                       {"type": "affine", "a": [-a[0], -a[1]]}],
            "flags": {"convex": True, "quadratic_minorant": [0.0, 0.0]}}


def test_uprime_outside_u_fails_the_campaign(tmp_path):
    """A U' basis that is not contained in U raises a VULabError, so the
    manifold campaign fails on campaign_completed, the subjet campaign keeps
    its report and the run exits 1 instead of crashing."""
    problem = tmp_path / "tilted_abs.json"
    problem.write_text(json.dumps(tilted_abs_problem()))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manifest, code = cli.run(cli.ExperimentConfig(
            problem=str(problem), campaign=["subjet", "manifold"],
            output_dir=str(out)))
    assert code == 1 and manifest["overall"] == "fail"
    check, = manifest["campaigns"]["manifold"]["checks"]
    assert check["name"] == "campaign_completed" and check["status"] == "fail"
    assert check["detail"]["error"] == "VULabError"
    for name in ("manifest.json", "subjet.json", "manifold.json"):
        assert (out / name).exists()


def test_appendix_skips_moreau_check_when_lambda_exceeds_minorant(tmp_path):
    """quadratic(-I) declares the minorant R = 2, so lambda = 0.5 has no
    Moreau envelope: that check is skipped with R and lambda, and the other
    appendix checks still run."""
    manifest, code = run_campaign("quadratic(-I)", "appendix", tmp_path)
    assert code == 0 and manifest["overall"] == "pass"
    checks = {c["name"]: c for c in
              manifest["campaigns"]["appendix"]["checks"]}
    moreau = checks["moreau_gradient_consistency"]
    assert moreau["status"] == "skipped"
    assert (moreau["detail"]["R"], moreau["detail"]["lambda"]) == (2.0, 0.5)
    assert checks["rank1_support_para_convex"]["status"] == "pass"
    assert checks["conjugate_hessian_duality"]["status"] == "skipped"
    # a single smooth piece: the missing hypothesis is convexity
    assert checks["conjugate_hessian_duality"]["detail"] == \
        "smooth model is not convex"


def test_appendix_skips_moreau_points_with_set_valued_prox(tmp_path):
    """four_quadrant_max = max(0, |x2| - |x1|) is not prox-regular on the x2
    axis: at (0, 0.3) and (0, -0.2) the prox holds (+-0.15, 0.15) and
    (+-0.1, -0.1), so e_lambda has a ridge there.  Those two points are
    named with their prox points; the other two still count, every prox
    solve ends within its budget, so the check passes and the run exits
    0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", SolverBudgetExceeded)
        manifest, code = run_campaign("four_quadrant_max", "appendix",
                                      tmp_path)
    assert code == 0 and manifest["overall"] == "pass"
    checks = {c["name"]: c for c in
              manifest["campaigns"]["appendix"]["checks"]}
    moreau = checks["moreau_gradient_consistency"]
    assert moreau["status"] == "pass" and moreau["value"] <= 1e-5
    assert "approximate" not in moreau["detail"]
    witness = moreau["detail"]["set_valued"]
    assert [w["x"] for w in witness] == [[0.0, 0.3], [0.0, -0.2]]
    for w, (a, b) in zip(witness, [(0.15, 0.15), (0.1, -0.1)]):
        prox = sorted(w["prox"])
        np.testing.assert_allclose(prox, [[-a, b], [a, b]], atol=1e-8)


def test_appendix_prox_is_set_valued_exactly_when_it_has_two_points(
        tmp_path, monkeypatch):
    """argmin_on_ball already merges numerical twins, so the Moreau check
    names x as set-valued exactly when prox_points returns more than one
    point, however close they lie.  Here the first point's prox gains a
    second point 1e-9 away: that x is named with both points, and the
    other three still count."""
    exact = subjets.prox_points
    twinned = []

    def with_twin(model, lam, x):
        value, prox, approximate = exact(model, lam, x)
        if not twinned or np.array_equal(x, twinned[0]):
            twinned.append(np.array(x))
            prox = np.vstack([prox, prox[0] + 1e-9])
        return value, prox, approximate
    monkeypatch.setattr(subjets, "prox_points", with_twin)
    manifest, code = run_campaign("crossing_max", "appendix", tmp_path)
    assert code == 0
    checks = {c["name"]: c for c in
              manifest["campaigns"]["appendix"]["checks"]}
    moreau = checks["moreau_gradient_consistency"]
    assert moreau["status"] == "pass"
    witness = moreau["detail"]["set_valued"]
    assert [w["x"] for w in witness] == [twinned[0].tolist()]
    assert len(witness[0]["prox"]) == 2


def test_appendix_of_the_3d_crossing_passes(tmp_path):
    """The 3-D crossing model max{||x||^2 - 2 x3 + 1, x3} at
    (0, 0, (3 - sqrt 5)/2), loaded from JSON: every prox solve of its
    Moreau check ends within its budget, so the check passes and the run
    exits 0."""
    problem = tmp_path / "crossing_max3.json"
    problem.write_text(json.dumps(
        {"dim": 3, "kind": "max_of_smooth", "name": "crossing_max3",
         "pieces": [{"type": "quadratic", "A": (2.0 * np.eye(3)).tolist(),
                     "b": [0.0, 0.0, -2.0], "c": 1.0},
                    {"type": "affine", "a": [0.0, 0.0, 1.0]}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", SolverBudgetExceeded)
        manifest, code = run_campaign(
            str(problem), "appendix", tmp_path / "out",
            base_point=[0.0, 0.0, (3.0 - np.sqrt(5.0)) / 2.0])
    assert code == 0 and manifest["overall"] == "pass"
    checks = {c["name"]: c for c in
              manifest["campaigns"]["appendix"]["checks"]}
    assert checks["moreau_gradient_consistency"]["status"] == "pass"


def test_appendix_moreau_bytes_without_set_valued_prox(tmp_path):
    """crossing_max's prox is one point, solved exactly on the sphere where
    its isotropic pieces tie: every point counts, no detail is written, and
    the envelope gradient (x - p)/lam meets its finite differences to
    1e-9."""
    manifest, code = run_campaign("crossing_max", "appendix", tmp_path)
    assert code == 0
    checks = {c["name"]: c for c in
              manifest["campaigns"]["appendix"]["checks"]}
    assert "detail" not in checks["moreau_gradient_consistency"]
    assert checks["moreau_gradient_consistency"]["value"] <= 1e-9


@pytest.mark.parametrize("problem", ["abs_diff", "abs_plus_quad",
                                     "crossing_max", "quadratic(I)",
                                     "huber_source_abs"])
def test_structured_appendix_runs_no_multistart(tmp_path, monkeypatch,
                                                problem):
    """Every prox solve of a structured builtin's Moreau check is exact
    (line_minimize in 1-D, quadratic_ball_minimize in 2-D), and so are the
    hull distances of the second-order component: the appendix makes no
    minimize_branches call and no SLSQP solve, it warns nothing, and every
    check passes or is skipped, the Moreau check passing."""
    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call
    monkeypatch.setattr(ulagrangian, "minimize_branches",
                        forbidden("minimize_branches"))
    monkeypatch.setattr(solvers, "minimize", forbidden("minimize"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest, code = run_campaign(problem, "appendix", tmp_path)
    assert calls == [] and code == 0
    checks = manifest["campaigns"]["appendix"]["checks"]
    assert all(c["status"] in ("pass", "skipped") for c in checks)
    assert any(c["name"] == "moreau_gradient_consistency"
               and c["status"] == "pass" for c in checks)


def test_lagrangian_boundary_column_reads_the_node_solve(tmp_path):
    """boundary_active is the flag of the solve at the row's own u.  With
    the V'-ball just wider than |v(0.075)|, the grid ends u = +-0.075 are
    interior although the outer neighbours of grad_l's difference are
    clamped to the ball."""
    eps_v = crossing_selection(0.075) * (1.0 + 1e-6)
    config = cli.ExperimentConfig(problem="crossing_max",
                                  campaign=["lagrangian"],
                                  radii={"eps": 0.3, "eps_v": eps_v},
                                  output_dir=str(tmp_path))
    runner = cli.Runner(config)
    with pytest.warns(BoundaryActive):
        runner.run()
    ctx = frame_context(model=runner.model, frame=runner.frame, eps_v=eps_v)
    rows = (tmp_path / "lagrangian.csv").read_text().splitlines()[1:]
    flags = {float(r.split(";")[0]): r.split(";")[-1] for r in rows}
    assert len(flags) == 21
    for u, flag in flags.items():
        assert flag == str(ulagrangian.solve(ctx, [u])[2])
    assert flags[-0.075] == flags[0.075] == "False"
    h = 1e-5 * (1.0 + 0.075)
    assert ulagrangian.solve(ctx, [0.075 + h])[2]
    assert ulagrangian.solve(ctx, [-0.075 - h])[2]


def test_all_computes_each_study_ingredient_once(tmp_path, monkeypatch):
    """One `all` run computes the polytope, anchor, frame, second-order
    component and tilt verdict once each; no campaign calls the three study
    functions itself."""
    counts = collections.Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in ((cli.oracle, "subdifferential_polytope"),
                         (cli.subjets, "second_order_component"),
                         (cli.tilt, "tilt_stability_test")):
        binding = types.SimpleNamespace(**vars(module))
        setattr(binding, name, count(name, getattr(module, name)))
        monkeypatch.setattr(cli, module.__name__.rpartition(".")[2], binding)
    for name in ("anchor", "frame"):
        prop = functools.cached_property(
            count(name, cli.Runner.__dict__[name].func))
        prop.__set_name__(cli.Runner, name)
        monkeypatch.setattr(cli.Runner, name, prop)
    config = cli.ExperimentConfig(problem="huber_source_abs",
                                  output_dir=str(tmp_path))
    manifest, code = cli.Runner(config).run()
    assert code == 0 and list(manifest["campaigns"]) == list(cli.CAMPAIGNS)
    assert counts == {"subdifferential_polytope": 1,
                      "second_order_component": 1, "tilt_stability_test": 1,
                      "anchor": 1, "frame": 1}


def test_shared_study_keeps_campaign_bytes(tmp_path):
    """Each campaign writes the same files inside one `all` run as alone."""
    grids = {"resolution": 5, "conjugate_resolution": 41,
             "envelope_resolution": 11}
    both = cli.ExperimentConfig(problem="quadratic(I)", grids=grids,
                                output_dir=str(tmp_path / "all"))
    _, code = cli.Runner(both).run()
    assert code == 0
    for item in cli.CAMPAIGNS:
        out = tmp_path / item
        _, code = cli.Runner(cli.ExperimentConfig(
            problem="quadratic(I)", grids=grids, campaign=[item],
            output_dir=str(out))).run()
        assert code == 0
        names = {p.name for p in out.iterdir()} - {"manifest.json",
                                                    "metadata.json"}
        assert f"{item}.json" in names
        for name in names:
            assert (out / name).read_bytes() == \
                (tmp_path / "all" / name).read_bytes(), (item, name)
        alone = json.loads((out / "manifest.json").read_text())
        together = json.loads((tmp_path / "all" / "manifest.json").read_text())
        assert alone["campaigns"][item] == together["campaigns"][item]


def fresh_python(*args):
    """Run a fresh interpreter with this checkout's src/ first on
    PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_cli_once(tmp_path):
    """`python -m vulab.cli` runs the module once: the package imports cli
    lazily, so runpy does not warn that it found it in sys.modules."""
    done = fresh_python("-m", "vulab.cli", "decompose", "--problem",
                        "huber_source_abs", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert "found in sys.modules" not in done.stderr


def test_importing_the_cli_loads_no_scipy():
    """scipy.optimize is imported on the first SLSQP or HiGHS call, not
    with vulab: a fresh `import vulab.cli` leaves scipy unloaded, and the
    first solvers.linprog call loads scipy.optimize."""
    done = fresh_python("-c", "\n".join([
        "import sys, vulab.cli",
        "from vulab import solvers",
        "print([m for m in ('scipy', 'scipy.optimize') if m in sys.modules])",
        "solvers.linprog([1.0], bounds=[(0.0, 1.0)])",
        "print('scipy.optimize' in sys.modules)"]))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "True"]


def test_exact_campaigns_never_import_scipy_optimize(tmp_path):
    """Campaigns whose every solve is exact (ball solves, hull distances,
    grid transforms) run in a fresh process, exit 0 and never import
    scipy.optimize."""
    runs = [["crossing_max", c] for c in ("tilt-test", "lagrangian",
                                          "subjet", "appendix")]
    runs.append(["abs_diff", "all"])
    done = fresh_python("-c", "\n".join([
        "import contextlib, io, json, sys",
        "from vulab import cli",
        "seen = []",
        "for problem, campaign, out in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = cli.main([campaign, '--problem', problem, '--out', out])",
        "    seen.append([problem, campaign, code,",
        "                 'scipy.optimize' in sys.modules])",
        "print(json.dumps(seen))"]),
        json.dumps([[p, c, str(tmp_path / f"{p}_{c}")] for p, c in runs]))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[p, c, 0, False] for p, c in runs]


def test_package_exposes_cli_lazily():
    import vulab
    assert vulab.cli.Runner is cli.Runner
    with pytest.raises(AttributeError):
        vulab.no_such_module
