"""One command for the whole campaign benchmark:

    python3 perfbench/report.py [--seed N]

For every workload of BENCHMARK.json it runs `perfbench/run.py` twice, each
in a fresh process: untraced for the end-to-end metrics, then traced for the
per-layer metrics.  It then runs the operations that fail at the seed
(`known_failures` in workloads.json), lists every failed operation with its
reason, and prints the operations deliberately not run with their cost.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness
from harness import ROOT, STATE
from run import E2E_UNITS
from tracer import RATIO_BASES, metric_unit

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(workload, seed, seconds, trace):
    STATE.mkdir(parents=True, exist_ok=True)
    detail = STATE / f"report-{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--detail", str(detail)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    with open(detail) as fh:
        return json.load(fh)


def print_table(title, names, columns, unit_of, fmt):
    print(title)
    print(f"  {'metric':44}" + "".join(f"{w:>16}" for w in columns) + "  unit")
    for name in names:
        cells = "".join(fmt(columns[w].get(name)) for w in columns)
        print(f"  {name:44}{cells}  {unit_of(name)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    catalogue = harness.load_workloads()
    names = [w["name"] for w in bench["workloads"]]
    untraced, traced = {}, {}
    for name in names:
        print(f"running {name} ...", file=sys.stderr, flush=True)
        untraced[name] = run_workload(name, args.seed, bench["run_seconds"], 0)
        traced[name] = run_workload(name, args.seed, bench["run_seconds"], 1)
    print("running known_failures ...", file=sys.stderr, flush=True)
    known = run_workload("known_failures", args.seed, bench["run_seconds"], 0)

    def number(value):
        if value is None:
            return f"{'-':>16}"
        return f"{value:16.6f}" if isinstance(value, float) else f"{value:>16}"

    print_table("end-to-end metrics (untraced)", list(E2E_UNITS),
                {w: untraced[w]["end_to_end"] for w in names},
                E2E_UNITS.get, number)
    print_table("per-layer metrics (traced, one pass)",
                list(traced[names[0]]["per_layer"]),
                {w: traced[w]["per_layer"] for w in names}, metric_unit, number)
    for ratio, base in RATIO_BASES.items():
        bases = ", ".join(f"{w} {traced[w]['per_layer'].get(base, '-')}"
                          for w in names)
        print(f"  {ratio} is a share of {base}: {bases}")
    print("tracing overhead (traced wall_s - untraced wall_s):")
    for w in names:
        plain = untraced[w]["end_to_end"]["wall_s"]
        extra = traced[w]["end_to_end"]["wall_s"] - plain
        print(f"  {w:16} {extra:10.4f} s  ({extra / plain:+.1%} of {plain:.4f} s)")

    print("failed operations (problem, campaign, reason):")
    groups = [(w, untraced[w]) for w in names] + [("known_failures", known)]
    attempted = failed = 0
    for group, detail in groups:
        ops = detail["operations"]
        bad = [op for op in ops if op["outcome"] != "ok"]
        attempted += len(ops)
        failed += len(bad)
        print(f"  {group}: {len(bad)} of {len(ops)} failed "
              f"(ops_failed_share {len(bad) / len(ops):.4f})")
        for op in bad:
            print(f"    ({op['problem']}, {op['campaign']}, {op['reason']})")
    print(f"  all operations: {failed} of {attempted} failed "
          f"(ops_failed_share {failed / attempted:.4f})")
    print("operations not run, with their cost on the seed code:")
    for op in catalogue["not_run"]:
        print(f"  ({op['problem']}, {op['campaign']}, {op['seed_cost']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
