import json

import numpy as np
import pytest

from vulab import cli


def run_campaign(problem, campaign, out, **kwargs):
    config = cli.ExperimentConfig(problem=problem, campaign=[campaign],
                                  output_dir=str(out), **kwargs)
    return cli.run(config)


def test_schema_version():
    assert cli.report_schema_version() == "1"


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
                                  radii={"eps": 0.5}, output_dir="x",
                                  tolerances={"chain": 1e-5})
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
               "flags": {"locally_lipschitz": True, "convex": False,
                         "quadratic_minorant": [0.0, 2.0]}}
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


def test_workers_env_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VULAB_THREADS", "2")
    code = cli.main(["decompose", "--problem", "abs_diff",
                     "--out", str(tmp_path)])
    assert code == 0


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
