"""Outside-in span tracer for the traced benchmark run.

Spans are recorded by wrappers around the public functions of each vulab
module, around `Runner.run` and its six campaign methods, and around the
scipy entry points vulab calls (`minimize`, `linprog`).  vulab imports by
name (`from .oracle import evaluate`), so the tracer replaces every binding
of a traced function in every `vulab.*` module, not only the defining one.

A span's self time is its duration minus the time covered by its child
spans.  Counts are taken at the same boundaries, so they repeat exactly from
run to run.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("oracle", "vu", "solvers", "tilt", "envelope", "ulagrangian",
          "subjets", "manifold")
# Layers whose evaluate calls are reported separately (innermost open span).
EVALUATE_CALLERS = ("envelope", "solvers", "subjets", "manifold", "tilt",
                    "ulagrangian")
VALUE_QUERIES = ("v_of_u", "l_value", "k_v")
QUERIES = VALUE_QUERIES + ("grad_l",)
CAMPAIGN_SPANS = ("decompose", "tilt_test", "lagrangian", "subjet", "manifold",
                  "appendix")

# The per-layer metrics, in report order.  `<span>.calls` and
# `<span>.self_s` read the span tables; other names are counts or are
# derived in `Tracer.metrics`.
METRICS = (
    "oracle.evaluate.calls", "oracle.evaluate.self_s",
    "oracle.subdifferential_polytope.calls",
    *(f"oracle.evaluate.calls.from_{layer}" for layer in EVALUATE_CALLERS),
    "solvers.minimize_branches.calls", "solvers.minimize_branches.starts",
    "solvers.minimize_branches.self_s", "solvers.minimize_branches.useful_ratio",
    "solvers.slsqp.calls", "solvers.slsqp.nit", "solvers.slsqp.self_s",
    "solvers.slsqp.budget_hits",
    "solvers.pattern_polish.calls", "solvers.pattern_polish.evals",
    "solvers.pattern_polish.self_s",
    "solvers.highs.calls", "solvers.highs.self_s",
    "solvers.hull_distance.calls", "solvers.hull_distance.self_s",
    "tilt.tilt_stability_test.calls", "tilt.tilt_map.calls",
    "tilt.tilt_map.self_s", "tilt.prox_regularity_test.self_s",
    "tilt.quadratic_minorant_test.self_s",
    "envelope.anchored_grid.calls", "envelope.anchored_grid.nodes",
    "envelope.anchored_grid.self_s", "envelope.grid_from_callable.nodes",
    "envelope.envelope_at.calls", "envelope.envelope_at.self_s",
    "envelope.conjugate_at.self_s", "envelope.conjugacy_identity_check.self_s",
    "ulagrangian.queries", "ulagrangian.inner_solves",
    "ulagrangian.value_lookups", "ulagrangian.cache_hit_ratio",
    "subjets.second_order_component.calls", "subjets.rank1_support.calls",
    "subjets.rank1_support.self_s", "subjets.dini_second.calls",
    "subjets.subjet_membership.calls", "subjets.subjet_membership.self_s",
    "subjets.moreau_envelope.calls", "subjets.moreau_envelope.self_s",
    "subjets.hessian_duality_check.self_s",
    "manifold.trace.calls", "manifold.trace.nodes", "manifold.trace.self_s",
    "manifold.taylor_lower_check.self_s", "manifold.c11_check.self_s",
    "manifold.grad_chain_check.self_s",
    "vu.decompose.calls", "vu.rel_interior_contains.calls", "vu.self_s",
    *(f"cli.{c}.self_s" for c in CAMPAIGN_SPANS), "cli.write_s",
)

# Ratio metrics and the count each is a share of.
RATIO_BASES = {
    "solvers.minimize_branches.useful_ratio": "solvers.minimize_branches.starts",
    "ulagrangian.cache_hit_ratio": "ulagrangian.value_lookups",
}


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Span and count tables for one process; `install` wraps, `uninstall`
    restores every binding it replaced."""

    def __init__(self, vulab):
        self.vulab = vulab
        self.stack = []                   # open spans: [child_s, layer, solved]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.originals = []               # every function replaced
        self._undo = []

    # -- spans ------------------------------------------------------------
    def _span(self, fn, key, layer, before=None, after=None):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [0.0, layer, False]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[key] += dt - frame[0]
                calls[key] += 1
            if after is not None:
                after(frame, result)
            return result
        return traced

    def reset_stack(self):
        """Drop spans left open by an operation cut off by its deadline."""
        self.stack.clear()

    # -- hooks --------------------------------------------------------------
    def _hooks(self, layer, name):
        stack, counts = self.stack, self.counts
        if (layer, name) == ("oracle", "evaluate"):
            def before(args, kwargs):
                caller = stack[-1][1] if stack else "none"
                counts["oracle.evaluate.calls.from_" + caller] += 1
                return args, kwargs
            return before, None
        if (layer, name) == ("solvers", "minimize_branches"):
            def before(args, kwargs):
                solved = False
                for frame in stack:
                    if frame[1] == "ulagrangian":
                        frame[2] = solved = True
                if solved:
                    counts["ulagrangian.inner_solves"] += 1
                return args, kwargs

            def after(frame, result):
                values = np.asarray(result.values, dtype=float)
                best = float(values.min())
                counts["solvers.minimize_branches.starts"] += len(values)
                counts["solvers.minimize_branches.useful"] += int(
                    np.sum(values <= best + 1e-9 * (1.0 + abs(best))))
            return before, after
        if (layer, name) == ("solvers", "pattern_polish"):
            def before(args, kwargs):
                fun = args[0]

                def counted(x):
                    counts["solvers.pattern_polish.evals"] += 1
                    return fun(x)
                return (counted,) + tuple(args[1:]), kwargs
            return before, None
        if layer == "envelope" and name in ("anchored_grid", "grid_from_callable"):
            def after(frame, result):
                counts[f"envelope.{name}.nodes"] += int(result.values.size)
            return None, after
        if (layer, name) == ("manifold", "trace"):
            def after(frame, result):
                counts["manifold.trace.nodes"] += len(result.u_nodes)
            return None, after
        if layer == "ulagrangian" and name in VALUE_QUERIES:
            def after(frame, result):
                counts["ulagrangian.value_lookups"] += 1
                if not frame[2]:
                    counts["ulagrangian.cache_hits"] += 1
            return None, after
        return None, None

    def _slsqp_after(self, frame, result):
        self.counts["solvers.slsqp.nit"] += int(result.nit)
        if result.status == 9:          # SLSQP: iteration limit reached
            self.counts["solvers.slsqp.budget_hits"] += 1

    def _minimize(self, minimize):
        slsqp = self._span(minimize, "solvers.slsqp", "solvers",
                           after=self._slsqp_after)
        other = self._span(minimize, "solvers.minimize_other", "solvers")

        @functools.wraps(minimize)
        def traced(*args, **kwargs):
            return (slsqp if kwargs.get("method") == "SLSQP" else other)(
                *args, **kwargs)
        return traced

    # -- installation -------------------------------------------------------
    def _wrappers(self):
        """Map id(original) -> (original, wrapper) for every traced function."""
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self.vulab, layer)
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._span(fn, f"{layer}.{name}", layer,
                                                   *self._hooks(layer, name)))
        solvers = self.vulab.solvers
        wrappers[id(solvers.minimize)] = (solvers.minimize,
                                          self._minimize(solvers.minimize))
        wrappers[id(solvers.linprog)] = (
            solvers.linprog, self._span(solvers.linprog, "solvers.highs", "solvers"))
        return wrappers

    def install(self):
        wrappers = self._wrappers()
        self.originals = [fn for fn, _ in wrappers.values()]
        for module in vulab_modules():
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._undo.append((module, name, value))
                    setattr(module, name, entry[1])
        runner = self.vulab.cli.Runner
        for campaign in CAMPAIGN_SPANS:
            self._wrap_method(runner, "run_" + campaign, f"cli.{campaign}")
        self._wrap_method(runner, "run", "cli.write")

    def _wrap_method(self, owner, name, key):
        method = owner.__dict__[name]
        self.originals.append(method)
        self._undo.append((owner, name, method))
        setattr(owner, name, self._span(method, key, "cli"))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ------------------------------------------------------------
    def layer_self_s(self):
        out = defaultdict(float)
        for key, seconds in self.self_s.items():
            out[key.split(".", 1)[0]] += seconds
        return dict(out)

    def metrics(self):
        """Every per-layer metric of METRICS, by name."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def share(num, den):
            return counts[num] / counts[den] if counts[den] else 0.0

        derived = {
            "solvers.minimize_branches.useful_ratio": share(
                "solvers.minimize_branches.useful",
                "solvers.minimize_branches.starts"),
            "ulagrangian.queries": sum(calls[f"ulagrangian.{q}"] for q in QUERIES),
            "ulagrangian.cache_hit_ratio": share("ulagrangian.cache_hits",
                                                 "ulagrangian.value_lookups"),
            "vu.self_s": self.layer_self_s().get("vu", 0.0),
            "cli.write_s": self_s["cli.write"],
        }
        out = {}
        for name in METRICS:
            span, _, field = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif field == "calls":
                out[name] = calls[span]
            elif field == "self_s":
                out[name] = self_s[span]
            else:
                out[name] = counts[name]
        return out


def vulab_modules():
    return [module for name, module in sorted(sys.modules.items())
            if (name == "vulab" or name.startswith("vulab.")) and module is not None]
