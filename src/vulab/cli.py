"""Experiment runner: wires the modules into named verification campaigns,
persists JSON/CSV reports and a machine-readable pass/fail manifest.

Exit status taxonomy: 0 all checks pass, 1 at least one hard invariant
failed, 2 inconclusive only (solver budget), 3 usage error.  Two runs of the
same config produce byte-identical payloads; wall-clock metadata goes to a
separate metadata file.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import envelope, manifold, oracle, subjets, tilt, ulagrangian, vu
from .errors import VULabError

SCHEMA_VERSION = "1"
CAMPAIGNS = ("decompose", "tilt-test", "lagrangian", "subjet", "manifold",
             "appendix")


def report_schema_version():
    return SCHEMA_VERSION


@dataclass
class ExperimentConfig:
    problem: str
    base_point: list | None = None
    anchor: str = "auto"            # auto | zero | centroid
    radii: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    campaign: list = field(default_factory=lambda: list(CAMPAIGNS))
    output_dir: str = "vulab_out"
    deterministic: bool = True
    workers: int | None = None

    def validate(self):
        if not self.campaign:
            raise ValueError("campaign must be nonempty")
        for item in self.campaign:
            if item not in CAMPAIGNS:
                raise ValueError(f"unknown campaign item {item!r}")
        for key, val in self.radii.items():
            if val <= 0:
                raise ValueError(f"radii.{key} must be positive")

    def to_dict(self):
        return {"problem": self.problem, "base_point": self.base_point,
                "anchor": self.anchor, "radii": dict(self.radii),
                "grids": dict(self.grids), "tolerances": dict(self.tolerances),
                "campaign": list(self.campaign), "output_dir": self.output_dir,
                "deterministic": self.deterministic, "workers": self.workers}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def aggregate_statuses(statuses):
    """Overall verdict and exit code: fail beats inconclusive beats pass."""
    if any(s == "fail" for s in statuses):
        return "fail", 1
    if any(s == "inconclusive" for s in statuses):
        return "inconclusive", 2
    return "pass", 0


def _check(name, ok, value=None, tolerance=None, status=None, detail=None):
    entry = {"name": name,
             "status": status or ("pass" if ok else "fail"),
             "value": _jsonable(value)}
    if tolerance is not None:
        entry["tolerance"] = _jsonable(tolerance)
    if detail is not None:
        entry["detail"] = _jsonable(detail)
    return entry


class Runner:
    def __init__(self, config):
        config.validate()
        self.config = config
        self.model = oracle.load_problem(config.problem)
        meta = self.model.meta
        self.base_point = np.asarray(
            config.base_point if config.base_point is not None
            else meta.get("default_base_point", np.zeros(self.model.dim)), float)
        eps = config.radii.get("eps", meta.get("default_radius", 1.0))
        self.radii = {"eps": eps,
                      "eps_v": config.radii.get("eps_v", eps),
                      "delta": config.radii.get("delta", eps / 4.0),
                      "tilt_radius": config.radii.get("tilt_radius", eps / 10.0)}
        self.resolution = int(config.grids.get("resolution", 21))
        self.files = {}

    # -- shared ingredients -------------------------------------------------
    def _polytope(self):
        return oracle.subdifferential_polytope(self.model, self.base_point)

    def _anchor(self, poly):
        mode = self.config.anchor
        zero = np.zeros(self.model.dim)
        if mode == "zero":
            return zero
        if mode == "centroid":
            return vu.relative_interior_point(poly)
        from .solvers import in_hull
        return zero if in_hull(poly.generators, zero) else \
            vu.relative_interior_point(poly)

    def _frame(self, poly=None, anchor=None):
        poly = poly or self._polytope()
        anchor = anchor if anchor is not None else self._anchor(poly)
        return vu.decompose(poly, anchor, eps=self.radii["eps"])

    # -- campaigns ----------------------------------------------------------
    def run_decompose(self):
        poly = self._polytope()
        centroid = vu.relative_interior_point(poly)
        frame = vu.decompose(poly, centroid, eps=self.radii["eps"])
        report = vu.check_decomposition(self.model, frame)
        checks = [
            _check("support_odd_on_u", report.max_u_support_asymmetry <= 1e-10,
                   report.max_u_support_asymmetry, 1e-10),
            _check("projected_subdifferential_singleton",
                   report.max_generator_u_misfit <= 1e-10,
                   report.max_generator_u_misfit, 1e-10),
        ]
        summary = {"generators": poly.generators, "anchor": centroid,
                   "u_basis": frame.u_basis, "v_basis": frame.v_basis,
                   "dim_u": frame.dim_u, "dim_v": frame.dim_v,
                   "witnesses_outside_u": len(report.witnesses)}
        known_u = self.model.meta.get("known_u")
        if known_u is not None:
            angle = vu.principal_angle(frame.u_basis, np.atleast_2d(known_u))
            checks.append(_check("u_matches_closed_form", angle <= 1e-8,
                                 angle, 1e-8))
        note = self.model.meta.get("note")
        if note:
            summary["notes"] = [note]
        summary["frame_json"] = vu.frame_to_json(frame)
        return checks, summary

    def run_tilt_test(self):
        verdict = tilt.tilt_stability_test(
            self.model, self.base_point, self.radii["eps"],
            self.radii["tilt_radius"])
        status = ("inconclusive" if verdict.status == "inconclusive" else "pass")
        checks = [_check("tilt_verdict_decisive", True, verdict.stable,
                         status=status,
                         detail={"status": verdict.status,
                                 "lipschitz_estimate": verdict.lipschitz_estimate,
                                 "witness": verdict.witness})]
        if self.model.flags.convex:
            mono = tilt.monotonicity_margin(verdict.probes)
            checks.append(_check("tilt_map_monotone", mono >= -1e-10, mono,
                                 -1e-10))
        r_hat = tilt.prox_regularity_test(
            self.model, self.base_point, self._anchor(self._polytope()),
            min(self.radii["eps"], 0.5), r_grid=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
        checks.append(_check("prox_regularity_grid", r_hat is not None, r_hat))
        qm = tilt.quadratic_minorant_test(
            self.model, self.base_point, [0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
            np.stack([self.base_point - 2.0, self.base_point + 2.0]))
        checks.append(_check("quadratic_minorant_grid", qm is not None, qm))
        summary = {"stable": verdict.stable, "status": verdict.status,
                   "lipschitz_estimate": verdict.lipschitz_estimate,
                   "witness": verdict.witness, "grid_radius": verdict.grid_radius,
                   "prox_regularity_r": r_hat, "quadratic_minorant": qm}
        return checks, summary

    def run_lagrangian(self):
        frame = self._frame()
        ctx = ulagrangian.ULagContext(model=self.model, frame=frame,
                                      eps_v=self.radii["eps_v"])
        delta = self.radii["delta"]
        k = ctx.dim_uprime
        if k == 1:
            grid = [np.array([t]) for t in np.linspace(-delta, delta,
                                                       self.resolution)]
        elif k == 0:
            grid = [np.zeros(0)]
        else:
            from .solvers import ball_lattice
            grid = list(ball_lattice(k, delta, min(self.resolution, 7)))
        import warnings as _warnings
        from .errors import BoundaryActive
        rows = []
        for u in grid:
            with _warnings.catch_warnings(record=True) as caught:
                _warnings.simplefilter("always", BoundaryActive)
                v = ulagrangian.v_of_u(ctx, u)
                lv = ulagrangian.l_value(ctx, u)
                zu = (ulagrangian.grad_l(ctx, u, validate=False)
                      if k else np.zeros(0))
            boundary = any(issubclass(w.category, BoundaryActive)
                           for w in caught)
            rows.append((u, v, lv, zu, boundary))
        csv_lines = ["u,v,l_value,z_u,boundary_active"]
        for u, v, lv, zu, boundary in rows:
            csv_lines.append(";".join([
                ",".join(repr(float(x)) for x in u),
                ",".join(repr(float(x)) for x in v),
                repr(float(lv)),
                ",".join(repr(float(x)) for x in zu),
                str(boundary)]))
        self.files["lagrangian.csv"] = "\n".join(csv_lines) + "\n"
        checks = []
        scale = 1.0 + max(abs(r[2]) for r in rows)
        viol = ulagrangian.convexity_check(ctx, grid)
        checks.append(_check("lagrangian_midpoint_convexity",
                             viol <= 1e-9 * scale, viol, 1e-9 * scale))
        if k:
            ratios = ulagrangian.little_oh_check(ctx, [1e-1, 1e-2, 1e-3])
            checks.append(_check("selection_little_oh",
                                 ulagrangian.little_oh_holds(ratios, 0.05),
                                 ratios, 0.05))
            bound = ulagrangian.lipschitz_gradient_bound(ctx, grid)
            checks.append(_check("gradient_lipschitz_bound_finite",
                                 np.isfinite(bound), bound))
        if k == 1:
            z_grid = np.linspace(-0.05, 0.05, 5)
            resid = envelope.conjugacy_identity_check(
                self.model, frame, z_grid,
                resolution=int(self.config.grids.get("conjugate_resolution", 401)),
                ulag_ctx=ctx)
            checks.append(_check("conjugacy_identity", resid <= 1e-3, resid, 1e-3))
        summary = {"dim_uprime": k, "anchor": frame.anchor,
                   "convexity_violation": viol, "rows": len(rows)}
        return checks, summary

    def run_subjet(self):
        poly = self._polytope()
        anchor = self._anchor(poly)
        u2, profile = subjets.second_order_component(self.model,
                                                     self.base_point, anchor)
        lines = ["direction,classification,finest_value"]
        for d, val in zip(profile.directions, profile.values):
            cls = "finite" if val is not None else "divergent"
            lines.append(",".join(repr(x) for x in d) + f";{cls};"
                         + (repr(val) if val is not None else "inf"))
        self.files["rank1_profile.csv"] = "\n".join(lines) + "\n"
        checks = [_check("u2_is_subspace", True, u2.shape[1]),
                  _check("u2_within_u",
                         profile.meta.get("u2_in_u_residual", 0.0) <= 1e-8,
                         profile.meta.get("u2_in_u_residual", 0.0), 1e-8)]
        if self.model.name == "abs_diff":
            agree, total = abs_diff_rule_agreement(self.model)
            checks.append(_check("closed_form_rule_agreement", agree == total,
                                 f"{agree}/{total}"))
        cand = subjets.JetCandidate(x=self.base_point, z=anchor,
                                    Q=-10.0 * np.eye(self.model.dim))
        res = subjets.subjet_membership(self.model, cand)
        checks.append(_check("proximal_membership", res.status == "member",
                             res.status))
        summary = {"dim_u2": u2.shape[1], "u2_basis": u2,
                   "finite_directions": int(sum(v is not None
                                                for v in profile.values)),
                   "directions": len(profile.values)}
        return checks, summary

    def run_manifold(self):
        poly = self._polytope()
        anchor = self._anchor(poly)
        frame = vu.decompose(poly, anchor, eps=self.radii["eps"])
        u2, profile = subjets.second_order_component(self.model,
                                                     self.base_point, anchor)
        ctx = ulagrangian.ULagContext(model=self.model, frame=frame,
                                      uprime_basis=u2,
                                      eps_v=self.radii["eps_v"])
        checks = []
        degenerate = u2.shape[1] == 0
        stability = None
        if not degenerate:
            stability = tilt.tilt_stability_test(
                self.model, self.base_point, self.radii["eps"],
                self.radii["tilt_radius"])
            if not stability.stable:
                # precondition unmet: the trace theorems need tilt stability,
                # so the campaign is recorded as skipped, not failed
                checks.append(_check(
                    "tilt_stable_base", True, stability.status,
                    status="skipped",
                    detail={"reason": "base point is not a tilt-stable "
                                      "local minimum; manifold trace not "
                                      "applicable",
                            "witness": stability.witness}))
                return checks, {"degenerate": False, "skipped": True,
                                "dim_u2": u2.shape[1],
                                "stability": stability.status}
            checks.append(_check("tilt_stable_base", stability.stable,
                                 stability.status))
        resolution = (self.resolution if ctx.dim_uprime <= 1
                      else min(self.resolution, 7))
        tr = manifold.trace(ctx, self.radii["delta"], resolution,
                            stability=stability)
        lines = ["u,v,f,l,z_u,dv,boundary"]
        for i in range(len(tr.u_nodes)):
            lines.append(";".join([
                ",".join(repr(float(x)) for x in tr.u_nodes[i]),
                ",".join(repr(float(x)) for x in tr.v_values[i]),
                repr(float(tr.f_values[i])), repr(float(tr.l_values[i])),
                ",".join(repr(float(x)) for x in tr.z_u_values[i]),
                ",".join(repr(float(x)) for x in tr.dv_values[i].ravel()),
                str(bool(tr.boundary_flags[i]))]))
        self.files["manifold_trace.csv"] = "\n".join(lines) + "\n"
        gl = manifold.g_l_consistency(tr)
        checks.append(_check("composite_value_consistency", gl <= 1e-10, gl,
                             1e-10))
        if degenerate:
            checks.append(_check("degenerate_single_node_trace",
                                 len(tr.u_nodes) == 1, len(tr.u_nodes)))
            taylor = manifold.taylor_lower_check(tr)
            checks.append(_check("taylor_lower_estimate", taylor >= -1e-9,
                                 taylor, -1e-9))
            summary = {"degenerate": True, "nodes": len(tr.u_nodes),
                       "dim_u2": 0}
            return checks, summary
        lip = manifold.c11_check(tr)
        tr2 = manifold.trace(ctx, self.radii["delta"],
                             2 * resolution - 1, stability=stability)
        lip2 = manifold.c11_check(tr2)
        ratio = abs(lip2 - lip) / max(lip, 1e-12)
        checks.append(_check("gradient_lipschitz_refinement_stable",
                             np.isfinite(lip) and ratio <= 0.25,
                             {"coarse": lip, "fine": lip2}, 0.25))
        chain = manifold.grad_chain_check(tr)
        checks.append(_check("gradient_chain_rule", chain <= 1e-5, chain, 1e-5))
        taylor = manifold.taylor_lower_check(tr)
        checks.append(_check("taylor_lower_estimate", taylor >= -1e-9, taylor,
                             -1e-9))
        probe = manifold.taylor_lower_check(tr, inflate=1.0, certify=False)
        checks.append(_check("taylor_sharpness_probe", probe < -1e-9, probe))
        jump = manifold.dv_continuity_check(tr)
        jump2 = manifold.dv_continuity_check(tr2)
        refine_ok = jump <= 1e-12 or jump2 <= 0.5 * jump * 1.3
        checks.append(_check("dv_jump_shrinks_under_refinement", refine_ok,
                             {"coarse": jump, "fine": jump2}))
        resid, spacing = envelope.envelope_agreement_check(
            self.model, frame, tr.frame_coordinates(),
            resolution=int(self.config.grids.get("envelope_resolution", 61)))
        grid_error = spacing * (2.0 + 2.0 * abs(float(np.max(tr.f_values))))
        checks.append(_check("envelope_agreement", resid <= 2 * grid_error,
                             resid, 2 * grid_error,
                             detail={"grid_spacing": spacing}))
        summary = {"degenerate": False, "nodes": len(tr.u_nodes),
                   "dim_u2": u2.shape[1], "lipschitz_estimate": lip,
                   "chain_residual": chain, "taylor_worst_margin": taylor}
        return checks, summary

    def run_appendix(self):
        checks = []
        lam = float(self.config.grids.get("moreau_lambda", 0.5))
        env_model = subjets.moreau_model(self.model, lam)
        worst = 0.0
        for d in np.eye(self.model.dim):
            for s in (0.3, -0.2):
                x = self.base_point + s * d
                g = env_model.gradient_fn(x)
                g_fd = subjets.fd_gradient(env_model.value_fn, x, 1e-5)
                worst = max(worst, float(np.max(np.abs(g - g_fd))))
        checks.append(_check("moreau_gradient_consistency", worst <= 1e-5,
                             worst, 1e-5))
        anchor = self._anchor(self._polytope())
        u2, profile = subjets.second_order_component(self.model,
                                                     self.base_point, anchor)
        viol = subjets.para_convexity_check(profile, r=0.0
                                            if self.model.flags.convex else 2.0)
        checks.append(_check("rank1_support_para_convex", viol <= 1e-9, viol,
                             1e-9))
        smooth_quadratic = (self.model.kind == "max_of_smooth"
                            and len(self.model.pieces) == 1
                            and self.model.flags.convex)
        if smooth_quadratic:
            try:
                resid = subjets.hessian_duality_check(self.model,
                                                      self.base_point)
                checks.append(_check("conjugate_hessian_duality",
                                     resid <= 1e-3, resid, 1e-3))
            except VULabError as exc:
                checks.append(_check("conjugate_hessian_duality", True,
                                     status="skipped",
                                     detail=f"not applicable: {exc}"))
        else:
            checks.append(_check(
                "conjugate_hessian_duality", True, status="skipped",
                detail="model is not twice differentiable at the base point"))
        summary = {"moreau_lambda": lam, "gradient_residual": worst,
                   "para_convexity_violation": viol}
        return checks, summary

    # -- driver -------------------------------------------------------------
    def run(self):
        handlers = {"decompose": self.run_decompose,
                    "tilt-test": self.run_tilt_test,
                    "lagrangian": self.run_lagrangian,
                    "subjet": self.run_subjet,
                    "manifold": self.run_manifold,
                    "appendix": self.run_appendix}
        manifest = {"schema_version": SCHEMA_VERSION,
                    "problem": self.config.problem,
                    "campaigns": {}}
        summaries = {}
        started = time.time()
        for item in self.config.campaign:
            checks, summary = handlers[item]()
            summary["schema_version"] = SCHEMA_VERSION
            manifest["campaigns"][item] = {"checks": checks,
                                           "summary_file": f"{item}.json"}
            summaries[item] = summary
        statuses = [c["status"] for camp in manifest["campaigns"].values()
                    for c in camp["checks"]]
        overall, code = aggregate_statuses(statuses)
        manifest["overall"] = overall
        out = self.config.output_dir
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "manifest.json"), "w") as fh:
            json.dump(_jsonable(manifest), fh, indent=1, sort_keys=True)
            fh.write("\n")
        for item, summary in summaries.items():
            with open(os.path.join(out, f"{item}.json"), "w") as fh:
                json.dump(_jsonable(summary), fh, indent=1, sort_keys=True)
                fh.write("\n")
        for name, text in self.files.items():
            with open(os.path.join(out, name), "w") as fh:
                fh.write(text)
        with open(os.path.join(out, "metadata.json"), "w") as fh:
            json.dump({"wall_seconds": time.time() - started,
                       "timestamp": time.time()}, fh)
            fh.write("\n")
        return manifest, code


def abs_diff_rule_agreement(model, count=200):
    """Deterministic-lattice (alpha, gamma, beta) candidates on |x-y| at the
    origin: membership verdict vs the sign of alpha + 2 gamma + beta."""
    vals = np.linspace(-2.0, 2.0, 7)
    cands = []
    for a in vals:
        for g in vals:
            for b in vals:
                s = a + 2 * g + b
                if abs(s) >= 0.1:
                    cands.append((a, g, b, s))
                if len(cands) == count:
                    break
            if len(cands) == count:
                break
        if len(cands) == count:
            break
    agree = 0
    for a, g, b, s in cands:
        cand = subjets.JetCandidate(x=np.zeros(2), z=np.zeros(2),
                                    Q=np.array([[a, g], [g, b]]))
        res = subjets.subjet_membership(model, cand)
        expected = "member" if s <= 0 else "rejected"
        if res.status == expected:
            agree += 1
    return agree, len(cands)


def run(config):
    """Run the configured campaigns; returns (manifest, exit_code)."""
    return Runner(config).run()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(prog="vulab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in CAMPAIGNS + ("all",):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--problem", help="builtin name or problem JSON path")
        p.add_argument("--out", help="output directory override")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            config = ExperimentConfig.from_json(args.config)
        elif args.problem:
            config = ExperimentConfig(problem=args.problem)
        else:
            raise ValueError("either --config or --problem is required")
        config.campaign = (list(CAMPAIGNS) if args.command == "all"
                           else [args.command])
        if args.out:
            config.output_dir = args.out
        env_workers = os.environ.get("VULAB_THREADS")
        if env_workers:
            config.workers = min(int(env_workers), config.workers or
                                 int(env_workers))
        config.validate()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    try:
        manifest, code = run(config)
    except VULabError as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 1
    for item, camp in manifest["campaigns"].items():
        for check in camp["checks"]:
            print(f"[{check['status'].upper():12s}] {item}:{check['name']}")
    print(f"overall: {manifest['overall']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
