"""The corpus runner end to end: determinism, mutation kill, replay.

The acceptance loop for the whole fuzz subsystem lives here: a lying
class-membership probe (the classic mutation test) must be *caught* by
the metamorphic oracles, *shrunk* to a minimal case, *persisted* as a
repro spec, and that spec must *replay* through ``repro batch``.
"""

import gc
import json
import time

import pytest

from repro.cli import main
from repro.fuzz import (generate_case, oracle_deadline, OracleTimeout,
                        run_corpus, write_repro_spec)
from repro.fuzz import oracles as oracles_module
from repro.fuzz.oracles import Violation

pytestmark = pytest.mark.fuzz


def corpus_verdicts(**kwargs):
    report = run_corpus(**kwargs)
    return ([(f.violation.oracle, f.violation.case_label,
              f.violation.detail) for f in report.failures],
            report.oracle_calls)


def test_clean_corpus_passes_and_is_deterministic():
    kwargs = dict(seed=0, n_cases=8, wall_clock=None,
                  oracle_deadline_s=1.5, pool_every=0, shrink=False)
    first = corpus_verdicts(**kwargs)
    second = corpus_verdicts(**kwargs)
    assert first == second
    assert first[0] == []                       # no violations on seed 0


def test_report_to_dict_is_json_safe():
    report = run_corpus(seed=0, n_cases=2, wall_clock=None,
                        oracle_deadline_s=1.5, pool_every=0, shrink=False)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert payload["cases"] == 2
    assert payload["oracle_calls"] == report.oracle_calls


# ----------------------------------------------------------------------
# the mutation test: a lying probe must be caught, shrunk, replayable
# ----------------------------------------------------------------------
def test_lying_probe_is_caught_shrunk_and_replayable(monkeypatch, tmp_path):
    monkeypatch.setitem(oracles_module.PROBES, "safe", lambda sigma: True)
    report = run_corpus(seed=5, n_cases=4, deep_hierarchy_every=1,
                        pool_every=0, repro_dir=tmp_path,
                        oracle_deadline_s=2.0)
    assert not report.ok
    oracles_hit = {f.violation.oracle for f in report.failures}
    assert "hierarchy" in oracles_hit           # Figure 1 implication broken

    failure = report.failures[0]
    # Shrinking kept the failure while discarding structure.
    assert failure.shrink is not None
    assert failure.shrink.evaluations > 0
    assert len(failure.shrunk.sigma) <= len(
        generate_case(5, failure.shrunk.index).sigma)

    # The repro spec landed on disk with its fuzz coordinates...
    assert failure.repro_path is not None
    spec = json.loads(open(failure.repro_path).read())
    assert spec["fuzz"]["oracle"] == failure.violation.oracle
    assert spec["fuzz"]["seed"] == 5
    assert spec["constraints"] == failure.shrunk.constraints_text()

    # ...and replays through the ordinary batch CLI.
    assert main(["batch", failure.repro_path, "--workers", "1"]) == 0


def test_violations_are_deterministic_across_runs(monkeypatch):
    monkeypatch.setitem(oracles_module.PROBES, "safe", lambda sigma: True)
    kwargs = dict(seed=5, n_cases=4, deep_hierarchy_every=1,
                  pool_every=0, shrink=False, oracle_deadline_s=2.0)
    assert corpus_verdicts(**kwargs) == corpus_verdicts(**kwargs)


def test_injected_oracle_registry_is_used():
    calls = []

    def always_fires(case, ctx):
        calls.append(case.label())
        return [Violation(oracle="custom", case_label=case.label(),
                          detail="synthetic")]

    report = run_corpus(seed=1, n_cases=3, oracles={"custom": always_fires},
                        shrink=False, oracle_deadline_s=None)
    assert len(calls) == 3
    assert len(report.failures) == 3
    assert report.oracle_calls == 3


# ----------------------------------------------------------------------
# deadline mechanics
# ----------------------------------------------------------------------
def test_oracle_timeout_is_not_an_exception():
    # It must cut through the engine's `except Exception` containment;
    # anything narrower would resurface as a fake "error" result.
    assert issubclass(OracleTimeout, BaseException)
    assert not issubclass(OracleTimeout, Exception)


def test_oracle_deadline_interrupts_a_swallowing_loop():
    with pytest.raises(OracleTimeout):
        with oracle_deadline(0.05):
            while True:
                try:
                    pass
                except Exception:               # noqa: BLE001
                    pass


def test_oracle_deadline_survives_a_swallowed_alarm():
    """An alarm landing in a gc callback is swallowed by the
    interpreter; the block must still end as a timeout."""
    def slow_callback(phase, info):
        if phase == "start":
            until = time.monotonic() + 0.25
            while time.monotonic() < until:     # the alarm lands here
                pass

    gc.callbacks.append(slow_callback)
    try:
        with pytest.raises(OracleTimeout):
            with oracle_deadline(0.2):          # re-fire due at 0.4 s
                gc.collect()
    finally:
        gc.callbacks.remove(slow_callback)


def test_oracle_deadline_refires_after_a_swallowed_alarm():
    """After a swallowed alarm the timer fires again, so a block that
    would run long ends about one deadline later, not when it is done."""
    swallowing = [True]

    def slow_once(phase, info):
        if phase == "start" and swallowing:
            swallowing.clear()
            until = time.monotonic() + 0.25
            while time.monotonic() < until:     # the first alarm lands here
                pass

    gc.callbacks.append(slow_once)
    started = time.monotonic()
    try:
        with pytest.raises(OracleTimeout):
            with oracle_deadline(0.2):
                gc.collect()
                while time.monotonic() < started + 3.0:
                    pass
    finally:
        gc.callbacks.remove(slow_once)
    assert time.monotonic() - started < 1.0


def test_deadline_hits_become_skips_not_verdicts():
    def stall(case, ctx):
        while True:
            pass

    report = run_corpus(seed=1, n_cases=2, oracles={"stall": stall},
                        shrink=False, oracle_deadline_s=0.05)
    assert report.ok                            # skips, no violations
    assert len(report.skips) == 4               # oracle + case bail, per case


# ----------------------------------------------------------------------
# repro spec writing
# ----------------------------------------------------------------------
def test_write_repro_spec_shapes(tmp_path):
    case = generate_case(3, 1)
    chase_path = write_repro_spec(case, Violation(
        oracle="backend_parity", case_label=case.label(), detail="d"),
        tmp_path)
    query_path = write_repro_spec(case, Violation(
        oracle="certain_answers", case_label=case.label(), detail="d"),
        tmp_path)
    chase_spec = json.loads(chase_path.read_text())
    query_spec = json.loads(query_path.read_text())
    assert chase_spec["kind"] == "chase" and "query" not in chase_spec
    assert query_spec["kind"] == "query" and query_spec["query"]
    assert chase_path.name == f"{case.label()}_backend_parity.json"
    # Both parse as ordinary batch jobs (the fuzz key is ignored).
    from repro.service.jobs import job_from_dict
    assert job_from_dict(chase_spec).kind == "chase"
    assert job_from_dict(query_spec).kind == "query"
