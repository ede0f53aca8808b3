"""Campaign benchmark for vulab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of `perfbench/workloads.json` in this process: a closed
loop with one client and no worker threads, where an operation is one
`vulab.cli.Runner(config).run()` and the next starts when the previous one
returns.  The seed only permutes the order of the operations; vulab receives
builtin names and configs.  A run measures whole passes over the
operations: it starts another pass only while the projected end stays within
`--seconds`, and always completes one.  A traced run (`--trace 1`) makes
exactly one pass, so its counts repeat from run to run.

Every operation has a deadline.  An operation fails if it raises, times
out, exits non-zero, or writes report bytes (metadata.json aside) that
differ from the first run of the same vulab source in this checkout.

The output is a table of operations, the failed operations with their
reason, the metrics with units, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json untraced, the per-layer metrics traced.  `perfbench/report.py`
runs every workload both ways and prints all of it at once.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time

import harness
from harness import ROOT, pass_metrics

SETUP_PROBES = 3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_max_s": "s",
             **{harness.metric_name(c): "s" for c in harness.TIMED_CAMPAIGNS},
             "ops_failed_share": "share", "checks_failed": "count",
             "checks_inconclusive": "count", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write every figure of the run "
                        "to this JSON file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(workload):
    """Median time from spawning a fresh interpreter until it has imported
    vulab and loaded the workload's problems."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(samples), samples


def run_passes(runner, operations, seed, seconds, single_pass):
    rng = random.Random(seed)
    passes = []
    started = time.perf_counter()
    while True:
        order = list(operations)
        rng.shuffle(order)
        passes.append([runner.run(op) for op in order])
        elapsed = time.perf_counter() - started
        if single_pass or elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def print_operations(passes):
    print(f"{'pass':>4} {'problem':18} {'campaign':11} {'seconds':>8} "
          f"{'outcome':9} {'exit':>4}  checks p/f/i/s  digest")
    for index, results in enumerate(passes, 1):
        for r in results:
            c = r.status_counts()
            checks = "/".join(str(c.get(s, 0)) for s in
                              ("pass", "fail", "inconclusive", "skipped"))
            code = "-" if r.exit_code is None else r.exit_code
            print(f"{index:>4} {r.op.problem:18} {r.op.campaign:11} "
                  f"{r.seconds:8.3f} {r.outcome:9} {code:>4}  {checks:14} "
                  f"{r.digest[:12]}")


def print_failures(results):
    failed = [r for r in results if r.failed]
    print(f"failed operations: {len(failed)} of {len(results)}")
    for r in failed:
        print(f"  ({r.op.problem}, {r.op.campaign}, {r.reason})")


def print_layers(tracer, traced_wall_s):
    from tracer import RATIO_BASES, metric_unit
    metrics = tracer.metrics()
    print("per-layer metrics (traced run, one pass):")
    for name, value in metrics.items():
        base = RATIO_BASES.get(name)
        extra = f"  (of {metrics[base]} {base.rsplit('.', 1)[1]})" if base else ""
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:44} {shown:>14} {metric_unit(name)}{extra}")
    callers = sorted((k, v) for k, v in tracer.counts.items()
                     if k.startswith("oracle.evaluate.calls.from_"))
    print("  evaluate calls by innermost open span: "
          + ", ".join(f"{k.rsplit('_', 1)[1]} {v}" for k, v in callers))
    layers = tracer.layer_self_s()
    print(f"self time by layer (traced wall_s {traced_wall_s:.4f} s):")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12} {seconds:10.4f} s")
    spans = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:15]
    print("busiest spans by self time:")
    for key, seconds in spans:
        print(f"  {key:44} {seconds:10.4f} s  {tracer.calls[key]:>9} calls")
    return metrics


def main(argv=None):
    run_started = time.perf_counter()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    catalogue = harness.load_workloads()
    if args.workload not in catalogue["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    vulab = harness.setup(args.workload)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    setup_s, setup_samples = measure_setup(args.workload)
    operations = harness.workload_operations(
        catalogue["workloads"][args.workload], catalogue["default_deadline_s"])
    store = harness.DigestStore()
    tracer = None
    with harness.OperationRunner(vulab.cli, store, run_started) as runner:
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(vulab)
            tracer.install()
            runner.after_op = tracer.reset_stack
        try:
            passes = run_passes(runner, operations, args.seed, args.seconds,
                                single_pass=bool(args.trace))
        finally:
            if tracer is not None:
                tracer.uninstall()
    store.save()

    results = [r for p in passes for r in p]
    figures = harness.median_metrics([pass_metrics(p) for p in passes])
    figures["setup_s"] = setup_s
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    mode = "traced" if tracer else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}, "
          f"{len(passes)} pass(es) of {len(operations)} operations")
    print_operations(passes)
    print_failures(results)
    print(f"end-to-end metrics ({mode}; median over {len(passes)} pass(es); "
          f"setup_s median of {SETUP_PROBES} fresh processes):")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:20} {figures[name]:14.6f} {unit}")
    layer_metrics = print_layers(tracer, figures["wall_s"]) if tracer else {}

    if args.detail:
        detail = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "passes": len(passes),
                  "end_to_end": figures, "setup_samples_s": setup_samples,
                  "per_layer": layer_metrics,
                  "operations": [{"problem": r.op.problem,
                                  "campaign": r.op.campaign,
                                  "seconds": r.seconds, "outcome": r.outcome,
                                  "exit_code": r.exit_code, "reason": r.reason,
                                  "statuses": r.statuses, "files": r.files}
                                 for r in results]}
        with open(args.detail, "w") as fh:
            json.dump(detail, fh, indent=1)
    if tracer:
        chosen = {m["name"]: {"value": layer_metrics[m["name"]], "unit": m["unit"]}
                  for m in bench["per_layer"]}
    else:
        chosen = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                  for m in bench["end_to_end"]}
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
