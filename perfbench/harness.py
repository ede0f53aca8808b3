"""Operations of the campaign benchmark: one operation is one
`vulab.cli.Runner(config).run()`, run in this process under a deadline, with
its exit code, per-check status table and payload digest recorded.

The benchmark imports vulab from the `src/` directory of the checkout it
lives in, never from an installed copy.
"""

import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS_FILE = HERE / "workloads.json"

# A run starts no operation after this many seconds, and cuts the deadline
# of the last one to fit, so that it exits well within three minutes.
RUN_CAP_S = 150.0

# Campaign metrics of the end-to-end report; decompose (about 10 ms) only
# counts toward wall_s.
TIMED_CAMPAIGNS = ("tilt-test", "lagrangian", "subjet", "manifold", "appendix")


def metric_name(campaign):
    return campaign.replace("-", "_") + "_s"


def import_vulab():
    """Import vulab from this checkout's src/ and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vulab
    found = Path(vulab.__file__).resolve().parent
    if found != SRC / "vulab":
        raise ImportError(f"vulab imported from {found}, expected {SRC / 'vulab'}")
    return vulab


def load_workloads():
    with open(WORKLOADS_FILE) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Operation:
    problem: str
    campaign: str            # a vulab campaign name, or "all"
    deadline_s: float

    @property
    def label(self):
        return f"{self.problem}:{self.campaign}"

    def campaigns(self, cli):
        return list(cli.CAMPAIGNS) if self.campaign == "all" else [self.campaign]


def workload_operations(spec, default_deadline_s):
    """The operations of one pass; an entry with "repeat": n is run n times."""
    ops = []
    for entry in spec["operations"]:
        op = Operation(entry["problem"], entry["campaign"],
                       float(entry.get("deadline_s", default_deadline_s)))
        ops.extend([op] * entry.get("repeat", 1))
    return ops


def setup(workload_name):
    """The work a fresh process does before its first operation: import
    vulab (with numpy and scipy) and load every problem of the workload."""
    vulab = import_vulab()
    spec = load_workloads()["workloads"][workload_name]
    for op in spec["operations"]:
        vulab.oracle.load_problem(op["problem"])
    return vulab


class OperationTimeout(BaseException):
    """Raised from SIGALRM when an operation passes its deadline.

    A BaseException, so that `except Exception` handlers inside vulab (such
    as the one in `envelope.convex_envelope`) cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OperationTimeout()


class CampaignClock:
    """Wall time per campaign, from wrappers around the six
    `Runner.run_<campaign>` methods; the only timers of an untraced run."""

    def __init__(self, cli):
        self.cli = cli
        self.seconds = {c: 0.0 for c in cli.CAMPAIGNS}
        self._undo = []

    def _timed(self, campaign, method):
        seconds = self.seconds
        clock = time.perf_counter

        def timed(runner):
            t0 = clock()
            try:
                return method(runner)
            finally:
                seconds[campaign] += clock() - t0
        return timed

    def install(self):
        runner = self.cli.Runner
        for campaign in self.cli.CAMPAIGNS:
            name = "run_" + campaign.replace("-", "_")
            method = runner.__dict__[name]
            self._undo.append((name, method))
            setattr(runner, name, self._timed(campaign, method))

    def uninstall(self):
        while self._undo:
            name, method = self._undo.pop()
            setattr(self.cli.Runner, name, method)

    def snapshot(self):
        return dict(self.seconds)


@dataclass
class OpResult:
    op: Operation
    seconds: float
    outcome: str    # ok | fail | inconclusive | timeout | raised | mismatch | not_run
    exit_code: int | None = None
    reason: str = ""
    statuses: dict = field(default_factory=dict)    # campaign -> check -> status
    files: dict = field(default_factory=dict)       # report file -> sha256
    digest: str = ""
    campaign_seconds: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.outcome != "ok"

    def status_counts(self):
        counts = {}
        for checks in self.statuses.values():
            for status in checks.values():
                counts[status] = counts.get(status, 0) + 1
        return counts


def payload_digest(out_dir):
    """sha256 per report file, metadata.json excepted, and one digest over
    all of them."""
    files = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name == "metadata.json":
            continue
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    combined = hashlib.sha256("".join(f"{n}\0{h}\n" for n, h in files.items())
                              .encode()).hexdigest()
    return files, combined


def _failure_reason(manifest, code):
    bad = [f"{camp}:{check['name']}={check['status']}"
           for camp, entry in manifest["campaigns"].items()
           for check in entry["checks"]
           if check["status"] in ("fail", "inconclusive")]
    return f"exit {code} ({', '.join(bad)})"


def run_operation(cli, op, out_dir, clock, deadline_s=None):
    """Run one operation under its deadline; never raises for a failure of
    vulab itself."""
    deadline_s = op.deadline_s if deadline_s is None else deadline_s
    config = cli.ExperimentConfig(problem=op.problem, campaign=op.campaigns(cli),
                                  output_dir=str(out_dir))
    before = clock.snapshot()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    manifest = code = None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            manifest, code = cli.Runner(config).run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result = OpResult(op, 0.0, "ok" if code == 0 else
                          ("inconclusive" if code == 2 else "fail"), code)
        if code != 0:
            result.reason = _failure_reason(manifest, code)
    except OperationTimeout:
        result = OpResult(op, 0.0, "timeout",
                          reason=f"timeout after {deadline_s:g} s")
    except Exception as exc:        # vulab raised: a failed operation
        result = OpResult(op, 0.0, "raised",
                          reason=f"raised {type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    result.seconds = time.perf_counter() - t0
    after = clock.snapshot()
    result.campaign_seconds = {c: after[c] - before[c] for c in after}
    if manifest is not None:
        result.statuses = {camp: {check["name"]: check["status"]
                                  for check in entry["checks"]}
                           for camp, entry in manifest["campaigns"].items()}
        result.files, result.digest = payload_digest(out_dir)
    return result


def source_digest():
    """Identifies the vulab source under test, standing in for a commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "vulab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Payload digests of the first run of each operation on this source.

    Kept in the checkout's `.perfbench/` directory, so that every later run,
    traced or not, in this process or another, is compared with the first.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path else STATE / "digests.json"
        self.source = source_digest()
        try:
            with open(self.path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            data = {}
        self.data = data
        self.known = data.setdefault(self.source, {})

    def check(self, result):
        """Record the first payload of an operation, or fail a result whose
        payload differs from it."""
        if result.failed:
            return
        first = self.known.setdefault(result.op.label, result.files)
        if first != result.files:
            changed = sorted(name for name in first.keys() | result.files.keys()
                             if first.get(name) != result.files.get(name))
            result.outcome = "mismatch"
            result.reason = ("payload differs from the first run: "
                             + ", ".join(changed))

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


class OperationRunner:
    """Runs operations one after another (a closed loop with one client),
    each in a fresh report directory under `workdir`."""

    def __init__(self, cli, store, run_started=None, workdir=STATE):
        self.cli = cli
        self.store = store
        self.workdir = Path(workdir)
        self.clock = CampaignClock(cli)
        self.run_started = time.perf_counter() if run_started is None else run_started
        self.after_op = None          # called after every operation

    def __enter__(self):
        self.clock.install()
        self.workdir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        self.clock.uninstall()

    def run(self, op):
        remaining = RUN_CAP_S - (time.perf_counter() - self.run_started)
        if remaining <= 0:
            return OpResult(op, 0.0, "not_run",
                            reason=f"not started: run passed {RUN_CAP_S:g} s")
        out_dir = tempfile.mkdtemp(prefix="op-", dir=self.workdir)
        try:
            result = run_operation(self.cli, op, out_dir, self.clock,
                                   min(op.deadline_s, remaining))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.after_op is not None:
            self.after_op()
        self.store.check(result)
        return result


def pass_metrics(results):
    """End-to-end figures of one pass over a workload's operations."""
    metrics = {"wall_s": sum(r.seconds for r in results),
               "op_max_s": max(r.seconds for r in results)}
    for campaign in TIMED_CAMPAIGNS:
        metrics[metric_name(campaign)] = sum(r.campaign_seconds.get(campaign, 0.0)
                                             for r in results)
    counts = [r.status_counts() for r in results]
    metrics["ops_failed_share"] = sum(r.failed for r in results) / len(results)
    metrics["checks_failed"] = sum(c.get("fail", 0) for c in counts)
    metrics["checks_inconclusive"] = sum(c.get("inconclusive", 0) for c in counts)
    return metrics


def median_metrics(per_pass):
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}
