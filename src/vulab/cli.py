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
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import envelope, manifold, oracle, subjets, tilt, ulagrangian, vu
from .errors import VULabError
from .solvers import ball_lattice, in_hull

SCHEMA_VERSION = "1"
CAMPAIGNS = ("decompose", "tilt-test", "lagrangian", "subjet", "manifold",
             "appendix")
ANCHORS = ("auto", "zero", "centroid")
RADII_KEYS = ("eps", "eps_v", "delta", "tilt_radius")
GRID_KEYS = ("resolution", "conjugate_resolution", "envelope_resolution",
             "moreau_lambda")
# Smallest node count per axis of each grid: the lagrangian U'-grid needs a
# midpoint for its convexity check, the others two nodes for a spacing.
GRID_MIN_NODES = {"resolution": 3, "conjugate_resolution": 2,
                  "envelope_resolution": 2}


@dataclass
class ExperimentConfig:
    problem: str
    base_point: list | None = None
    anchor: str = "auto"            # auto | zero | centroid
    radii: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    campaign: list = field(default_factory=lambda: list(CAMPAIGNS))
    output_dir: str = "vulab_out"

    def validate(self):
        if not self.campaign:
            raise ValueError("campaign must be nonempty")
        for item in self.campaign:
            if item not in CAMPAIGNS:
                raise ValueError(f"unknown campaign item {item!r}")
        if self.anchor not in ANCHORS:
            raise ValueError(f"unknown anchor {self.anchor!r}; "
                             f"expected one of {list(ANCHORS)}")
        for name, table, keys in (("radii", self.radii, RADII_KEYS),
                                  ("grids", self.grids, GRID_KEYS)):
            if not isinstance(table, dict):
                raise ValueError(f"{name} must be an object")
            for key, val in table.items():
                if key not in keys:
                    raise ValueError(f"unknown {name} key {key!r}; "
                                     f"expected one of {list(keys)}")
                if (isinstance(val, bool) or not isinstance(val, (int, float))
                        or not 0.0 < val < np.inf):
                    raise ValueError(f"{name}.{key} must be a positive "
                                     f"number, got {val!r}")
                low = GRID_MIN_NODES.get(key) if name == "grids" else None
                if low is not None and (val != int(val) or val < low):
                    raise ValueError(f"grids.{key} must be an integer >= "
                                     f"{low}, got {val!r}")

    def to_dict(self):
        return {"problem": self.problem, "base_point": self.base_point,
                "anchor": self.anchor, "radii": dict(self.radii),
                "grids": dict(self.grids), "campaign": list(self.campaign),
                "output_dir": self.output_dir}

    @classmethod
    def from_dict(cls, data):
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        if "problem" not in data:
            raise ValueError("config is missing required key 'problem'")
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
        if (self.base_point.shape != (self.model.dim,)
                or not np.isfinite(self.base_point).all()):
            raise ValueError(f"base_point {config.base_point!r} is not a "
                             f"point of R^{self.model.dim}")
        eps = config.radii.get("eps", meta.get("default_radius", 1.0))
        self.radii = {"eps": eps,
                      "eps_v": config.radii.get("eps_v", eps),
                      "delta": config.radii.get("delta", eps / 4.0),
                      "tilt_radius": config.radii.get("tilt_radius", eps / 10.0)}
        # the U'-grids of lagrangian and manifold lie in the frame's eps-ball
        if self.radii["delta"] > eps:
            raise ValueError("radii.delta must not exceed radii.eps")
        self.resolution = int(config.grids.get("resolution", 21))
        self.files = {}

    # -- shared ingredients, each computed when a campaign first reads it ---
    @cached_property
    def poly(self):
        return oracle.subdifferential_polytope(self.model, self.base_point)

    @cached_property
    def anchor(self):
        mode = self.config.anchor
        zero = np.zeros(self.model.dim)
        if mode == "zero":
            return zero
        if mode == "centroid":
            return vu.relative_interior_point(self.poly)
        return zero if in_hull(self.poly.generators, zero) else \
            vu.relative_interior_point(self.poly)

    @cached_property
    def frame(self):
        return vu.decompose(self.poly, self.anchor, eps=self.radii["eps"])

    @cached_property
    def second_order(self):
        """The pair (u2, profile) of second_order_component."""
        return subjets.second_order_component(self.model, self.base_point,
                                              self.anchor)

    @cached_property
    def stability(self):
        return tilt.tilt_stability_test(self.model, self.base_point,
                                        self.radii["eps"],
                                        self.radii["tilt_radius"])

    def _grid_resolution(self, k):
        """Nodes per axis of a k-dimensional U'-grid: the lattice grows like
        resolution**k, so grids of dimension 2 and up take at most 7."""
        return self.resolution if k <= 1 else min(self.resolution, 7)

    # -- campaigns ----------------------------------------------------------
    def run_decompose(self):
        poly = self.poly
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
        verdict = self.stability
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
        r_hat = tilt.prox_regularity_test(self.model, self.base_point,
                                          self.anchor,
                                          min(self.radii["eps"], 0.5))
        checks.append(_check("prox_regularity_grid", r_hat is not None, r_hat))
        qm = tilt.quadratic_minorant_test(self.model, self.base_point)
        checks.append(_check("quadratic_minorant_grid", qm is not None, qm))
        summary = {"stable": verdict.stable, "status": verdict.status,
                   "lipschitz_estimate": verdict.lipschitz_estimate,
                   "witness": verdict.witness, "grid_radius": verdict.grid_radius,
                   "prox_regularity_r": r_hat, "quadratic_minorant": qm}
        return checks, summary

    def run_lagrangian(self):
        frame = self.frame
        ctx = ulagrangian.ULagContext(model=self.model, frame=frame,
                                      uprime_basis=frame.u_basis,
                                      eps_v=self.radii["eps_v"])
        k = ctx.dim_uprime
        grid = list(ball_lattice(k, self.radii["delta"],
                                 self._grid_resolution(k)))
        rows = []
        for u in grid:
            v, lv, boundary = ulagrangian.solve(ctx, u)
            zu = ulagrangian.grad_l(ctx, u, validate=False)
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
                ctx, z_grid,
                resolution=int(self.config.grids.get("conjugate_resolution", 401)))
            checks.append(_check("conjugacy_identity", resid <= 1e-3, resid, 1e-3))
        summary = {"dim_uprime": k, "anchor": frame.anchor,
                   "convexity_violation": viol, "rows": len(rows)}
        return checks, summary

    def run_subjet(self):
        u2, profile = self.second_order
        lines = ["direction,classification,finest_value"]
        for d, val in zip(profile.directions, profile.values):
            cls = "finite" if val is not None else "divergent"
            lines.append(",".join(repr(x) for x in d) + f";{cls};"
                         + (repr(val) if val is not None else "inf"))
        self.files["rank1_profile.csv"] = "\n".join(lines) + "\n"
        checks = [_check("u2_is_subspace", True, u2.shape[1]),
                  _check("u2_within_u", profile.u2_in_u_residual <= 1e-8,
                         profile.u2_in_u_residual, 1e-8)]
        if self.model.name == "abs_diff":
            agree, total = abs_diff_rule_agreement(self.model)
            checks.append(_check("closed_form_rule_agreement", agree == total,
                                 f"{agree}/{total}"))
        cand = subjets.JetCandidate(x=self.base_point, z=self.anchor,
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
        frame = self.frame
        u2, _ = self.second_order
        ctx = ulagrangian.ULagContext(model=self.model, frame=frame,
                                      uprime_basis=u2,
                                      eps_v=self.radii["eps_v"])
        checks = []
        degenerate = u2.shape[1] == 0
        stability = None
        if not degenerate:
            stability = self.stability
            if not stability.stable:
                # precondition unmet: the trace theorems need tilt stability,
                # so an unstable base is skipped, not failed; an inconclusive
                # verdict (a solver hit its budget) leaves the run inconclusive
                inconclusive = stability.status == "inconclusive"
                reason = ("tilt verdict inconclusive; manifold trace not run"
                          if inconclusive else
                          "base point is not a tilt-stable local minimum; "
                          "manifold trace not applicable")
                checks.append(_check(
                    "tilt_stable_base", True, stability.status,
                    status="inconclusive" if inconclusive else "skipped",
                    detail={"reason": reason, "witness": stability.witness}))
                return checks, {"degenerate": False, "skipped": True,
                                "dim_u2": u2.shape[1],
                                "stability": stability.status}
            checks.append(_check("tilt_stable_base", stability.stable,
                                 stability.status))
        resolution = self._grid_resolution(ctx.dim_uprime)
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
        probe = manifold.taylor_lower_check(tr, inflate=1.0)
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
        worst = None
        if subjets.lambda_too_large(self.model, lam):
            R = self.model.flags.quadratic_minorant[1]
            checks.append(_check(
                "moreau_gradient_consistency", True, status="skipped",
                detail={"reason": "the declared quadratic minorant needs "
                                  "lambda < 1/R",
                        "R": R, "lambda": lam}))
        else:
            worst = 0.0
            set_valued = []
            # per prox solve of a counted point or of its finite
            # differences: whether it hit its solver budget
            capped = []

            def envelope(y):
                val, _, approximate = subjets.moreau_envelope(self.model,
                                                              lam, y)
                capped.append(approximate)
                return val

            for d in np.eye(self.model.dim):
                for s in (0.3, -0.2):
                    x = self.base_point + s * d
                    _, prox, approximate = subjets.prox_points(self.model,
                                                               lam, x)
                    # more than one prox point: e_lambda has a ridge at x
                    # (no prox-regularity)
                    if len(prox) > 1:
                        set_valued.append({"x": x, "prox": prox})
                        continue
                    capped.append(approximate)
                    g = (x - prox[0]) / lam
                    g_fd = subjets.fd_gradient(envelope, x, 1e-5)
                    worst = max(worst, float(np.max(np.abs(g - g_fd))))
            detail = None
            if set_valued:
                detail = {"reason": "the prox is set-valued at these points, "
                                    "so the envelope gradient is not "
                                    "checked there",
                          "set_valued": set_valued}
            if any(capped):
                detail = {**(detail or {}),
                          "approximate": "a prox solve hit its solver budget"}
            if len(set_valued) == 2 * self.model.dim:
                worst = None
                checks.append(_check("moreau_gradient_consistency", True,
                                     status="skipped", detail=detail))
            else:
                checks.append(_check(
                    "moreau_gradient_consistency", worst <= 1e-5, worst, 1e-5,
                    status="inconclusive" if any(capped) else None,
                    detail=detail))
        _, profile = self.second_order
        viol = subjets.para_convexity_check(profile, r=0.0
                                            if self.model.flags.convex else 2.0)
        checks.append(_check("rank1_support_para_convex", viol <= 1e-9, viol,
                             1e-9))
        smooth = (self.model.kind == "max_of_smooth"
                  and len(self.model.pieces) == 1)
        if smooth and self.model.flags.convex:
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
                detail="smooth model is not convex" if smooth else
                "model is not twice differentiable at the base point"))
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
            try:
                checks, summary = handlers[item]()
            except VULabError as exc:
                # one campaign's error must not discard the others' reports
                summary = {"error": type(exc).__name__, "message": str(exc)}
                checks = [_check("campaign_completed", False, detail=summary)]
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


RULE_CANDIDATES = 200


def abs_diff_rule_agreement(model):
    """Deterministic-lattice (alpha, gamma, beta) candidates on |x-y| at the
    origin: membership verdict vs the sign of alpha + 2 gamma + beta."""
    vals = np.linspace(-2.0, 2.0, 7)
    cands = [(a, g, b, a + 2 * g + b) for a in vals for g in vals for b in vals
             if abs(a + 2 * g + b) >= 0.1][:RULE_CANDIDATES]
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
        runner = Runner(config)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    manifest, code = runner.run()
    for item, camp in manifest["campaigns"].items():
        for check in camp["checks"]:
            print(f"[{check['status'].upper():12s}] {item}:{check['name']}")
    print(f"overall: {manifest['overall']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
