"""Tests of the benchmark's own machinery: the tracer's binding coverage,
the operation deadline and the payload comparison.

Run with `python3 -m pytest perfbench/tests`.
"""

import inspect
import signal

import pytest

import harness
from harness import DigestStore, Operation, OperationRunner, OpResult, pass_metrics
from tracer import Tracer, vulab_modules

vulab = harness.import_vulab()


def _bindings(originals):
    """(module or class, name) of every vulab binding holding an original."""
    found = []
    for module in vulab_modules():
        owners = [module] + [cls for cls in vars(module).values()
                             if inspect.isclass(cls)
                             and cls.__module__ == module.__name__]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if any(value is fn for fn in originals):
                    found.append((owner, name))
    return found


def test_tracer_wraps_every_binding_and_keeps_payload(tmp_path):
    op = Operation("huber_source_abs", "all", 60.0)
    store = DigestStore(tmp_path / "digests.json")
    with OperationRunner(vulab.cli, store, workdir=tmp_path) as runner:
        untraced = runner.run(op)
        tracer = Tracer(vulab)
        tracer.install()
        try:
            assert _bindings(tracer.originals) == []
            traced = runner.run(op)
        finally:
            tracer.uninstall()
        restored = _bindings(tracer.originals)
    # names imported from another module are covered, not only definitions
    assert (vulab.tilt, "evaluate") in restored
    assert (vulab.vu, "in_hull") in restored
    assert (vulab.ulagrangian, "minimize_branches") in restored
    assert (vulab.envelope, "linprog") in restored
    assert (vulab.cli.Runner, "run_tilt_test") in restored
    assert untraced.outcome == "ok" and untraced.files
    assert traced.outcome == "ok", traced.reason
    assert traced.files == untraced.files
    assert tracer.calls["oracle.evaluate"] > 0
    assert tracer.calls["cli.tilt_test"] == 1


def test_timeout_fails_operation_and_next_runs(tmp_path):
    assert not issubclass(harness.OperationTimeout, Exception)
    handler = signal.getsignal(signal.SIGALRM)
    store = DigestStore(tmp_path / "digests.json")
    with OperationRunner(vulab.cli, store, workdir=tmp_path) as runner:
        hung = runner.run(Operation("four_quadrant_max", "tilt-test", 0.5))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler
        after = runner.run(Operation("abs_diff", "decompose", 60.0))
    assert hung.outcome == "timeout" and hung.failed
    assert 0.5 <= hung.seconds < 5.0
    assert hung.campaign_seconds["tilt-test"] > 0.4
    assert after.outcome == "ok", after.reason
    assert pass_metrics([hung, after])["ops_failed_share"] == pytest.approx(0.5)


def test_payload_differing_from_first_run_fails(tmp_path):
    store = DigestStore(tmp_path / "digests.json")
    op = Operation("abs_diff", "decompose", 60.0)
    first = OpResult(op, 0.1, "ok", 0, files={"manifest.json": "a", "x.csv": "b"})
    again = OpResult(op, 0.1, "ok", 0, files={"manifest.json": "a", "x.csv": "b"})
    other = OpResult(op, 0.1, "ok", 0, files={"manifest.json": "a", "x.csv": "c"})
    for result in (first, again, other):
        store.check(result)
    assert not first.failed and not again.failed
    assert other.outcome == "mismatch" and "x.csv" in other.reason
    store.save()
    reloaded = DigestStore(tmp_path / "digests.json")
    late = OpResult(op, 0.1, "ok", 0, files={"manifest.json": "a", "x.csv": "c"})
    reloaded.check(late)
    assert late.failed
