"""The fuzz corpus runner: generate, check, shrink, persist.

:func:`run_corpus` drives a seeded corpus through every metamorphic
oracle under hard budgets:

* each chase inside an oracle is bounded by ``max_steps`` and
  ``wall_clock`` (abort = *skip*, reusing the runner's
  ``EXCEEDED_WALL_CLOCK`` semantics);
* each *oracle call* is additionally bounded by ``oracle_deadline``
  seconds of alarm-clock time -- adversarial constraint sets can make
  even the class-membership probes or query optimization blow up
  combinatorially, and a fuzzer must survive its own corpus.  A
  deadline hit is recorded as a skip, never a verdict.

Every violation is shrunk (:mod:`repro.fuzz.shrink`) by re-running the
*same single oracle* on reduced cases in a fresh
:class:`~repro.fuzz.oracles.OracleContext`, then written to
``repro_dir`` as a deterministic JSON job spec replayable with
``repro batch`` (the spec is a regular chase/query job plus a ``fuzz``
metadata key, which job parsing ignores).

Verdicts are deterministic per ``(seed, n_cases, config)``: the corpus
is a pure function of the seed, oracle comparisons only ever fail on
completed runs, and timing effects (wall clock, deadlines) can only
move outcomes into the skip column.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.fuzz.generate import (FuzzCase, FuzzConfig, GENERATOR_VERSION,
                                 generate_case)
from repro.fuzz.oracles import ORACLES, OracleContext, Violation
from repro.fuzz.shrink import ShrinkResult, shrink_case


class OracleTimeout(BaseException):
    """An oracle call exhausted its alarm-clock deadline.

    Deliberately a ``BaseException``: the engine and service layers
    contain job failures with broad ``except Exception`` handlers (one
    bad job must not kill a batch), and the deadline must cut through
    those -- otherwise an alarm firing inside ``execute_job`` would
    surface as a ``status="error"`` result and read as a fake parity
    violation instead of a skip.
    """


@contextmanager
def oracle_deadline(seconds: Optional[float]):
    """Bound the enclosed block by ``seconds`` of real time.

    Uses ``SIGALRM``, so it only arms on the main thread (elsewhere,
    and with ``seconds`` falsy, the block runs unguarded); the chase's
    own wall-clock budget still applies either way.

    The alarm's exception can land where Python swallows exceptions (a
    ``gc`` callback, a ``__del__``), so the timer re-fires every
    ``seconds`` until the block ends, and a block that completes after
    a swallowed alarm still raises :class:`OracleTimeout` on exit: an
    overrun is a skip whichever way it ends, never a verdict.
    """
    if not seconds or threading.current_thread() is not threading.main_thread():
        yield
        return
    fired = []

    def _fire(signum, frame):
        fired.append(signum)
        raise OracleTimeout()

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if fired:
        raise OracleTimeout()


@dataclass
class FuzzFailure:
    """One confirmed oracle violation, with its minimized repro."""

    violation: Violation
    shrunk: FuzzCase
    shrink: Optional[ShrinkResult] = None
    repro_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.violation.oracle,
            "case": self.violation.case_label,
            "detail": self.violation.detail,
            "repro": self.repro_path,
            "constraints": self.shrunk.constraints_text(),
            "instance": self.shrunk.instance_text(),
            "query": self.shrunk.query_text(),
        }


@dataclass
class FuzzReport:
    """The outcome of one corpus run."""

    seed: int
    n_cases: int
    failures: List[FuzzFailure] = field(default_factory=list)
    skips: List[str] = field(default_factory=list)
    oracle_calls: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "generator_version": GENERATOR_VERSION,
            "seed": self.seed,
            "cases": self.n_cases,
            "oracle_calls": self.oracle_calls,
            "failures": [f.to_dict() for f in self.failures],
            "skips": self.skips,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
        }

    def render(self) -> str:
        lines = [f"fuzz seed={self.seed}: {self.n_cases} cases, "
                 f"{self.oracle_calls} oracle calls, "
                 f"{len(self.failures)} violations, "
                 f"{len(self.skips)} skips, {self.elapsed:.1f}s"]
        for failure in self.failures:
            lines.append("  " + failure.violation.render())
            if failure.repro_path:
                lines.append(f"    repro: {failure.repro_path}")
        return "\n".join(lines)


def write_repro_spec(case: FuzzCase, violation: Violation,
                     directory, max_steps: int = 400) -> Path:
    """Persist a minimized case as a replayable ``repro batch`` spec.

    Query-flavoured violations get a query job spec, everything else a
    chase job spec; both carry the failing oracle and generator
    coordinates under the ``fuzz`` key, which the job parser ignores.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if violation.oracle == "certain_answers":
        spec = case.to_query_spec(max_steps=max_steps)
    else:
        spec = case.to_chase_spec(max_steps=max_steps)
    spec["fuzz"] = {
        "generator_version": GENERATOR_VERSION,
        "seed": case.seed,
        "case": case.index,
        "oracle": violation.oracle,
        "detail": violation.detail,
    }
    path = directory / f"{case.label()}_{violation.oracle}.json"
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return path


def _shrink_predicate(oracle_name: str, oracle: Callable,
                      max_steps: int, wall_clock: Optional[float],
                      deadline: Optional[float]) -> Callable[[FuzzCase], bool]:
    """Does the *same* oracle still flag the candidate case?

    Each probe runs in a fresh single-case context with deep probes
    always on and the worker pool off (pool-specific divergence does
    not shrink -- the original case is then kept as the repro).
    """
    def still_fails(candidate: FuzzCase) -> bool:
        with OracleContext(max_steps=max_steps, wall_clock=wall_clock,
                           deep_hierarchy_every=1, pool_every=0) as local:
            local.start_case(candidate)
            try:
                with oracle_deadline(deadline):
                    return bool(oracle(candidate, local))
            except OracleTimeout:
                return False
    return still_fails


def run_corpus(seed: int, n_cases: int,
               config: Optional[FuzzConfig] = None,
               max_steps: int = 250,
               wall_clock: Optional[float] = 0.5,
               oracle_deadline_s: Optional[float] = 0.8,
               deep_hierarchy_every: int = 4,
               pool_every: int = 25,
               repro_dir=None,
               oracles: Optional[Dict[str, Callable]] = None,
               shrink: bool = True,
               shrink_evaluations: int = 120,
               on_case: Optional[Callable[[FuzzCase], None]] = None
               ) -> FuzzReport:
    """Generate and check the ``seed`` corpus; see the module docs.

    ``oracles`` substitutes the oracle registry (tests inject single
    oracles or deliberately broken ones); ``on_case`` observes each
    generated case before checking (progress reporting).
    """
    oracle_items = list((oracles if oracles is not None
                         else ORACLES).items())
    report = FuzzReport(seed=seed, n_cases=n_cases)
    started = time.perf_counter()
    with OracleContext(max_steps=max_steps, wall_clock=wall_clock,
                       deep_hierarchy_every=deep_hierarchy_every,
                       pool_every=pool_every) as ctx:
        for index in range(n_cases):
            case = generate_case(seed, index, config)
            if on_case is not None:
                on_case(case)
            ctx.start_case(case)
            for name, oracle in oracle_items:
                report.oracle_calls += 1
                try:
                    with oracle_deadline(oracle_deadline_s):
                        found = oracle(case, ctx)
                except OracleTimeout:
                    ctx.skip(case, name,
                             f"oracle deadline of {oracle_deadline_s:g}s "
                             "exhausted")
                    if name == "service_parity":
                        # The alarm may have cut a pool exchange mid-
                        # message; drop the schedulers (rebuilt lazily).
                        ctx.close()
                    # A deadline hit means the *case* is adversarial to
                    # analysis itself (precedence search or containment
                    # blowup); its remaining oracles would burn the same
                    # deadline for little coverage, so bail on the case.
                    ctx.skip(case, "case",
                             f"remaining oracles skipped after {name} "
                             "deadline")
                    break
                for violation in found:
                    failure = FuzzFailure(violation=violation, shrunk=case)
                    if shrink:
                        predicate = _shrink_predicate(
                            name, oracle, max_steps, wall_clock,
                            oracle_deadline_s)
                        result = shrink_case(
                            case, predicate,
                            max_evaluations=shrink_evaluations)
                        failure.shrink = result
                        failure.shrunk = result.case
                    if repro_dir is not None:
                        failure.repro_path = str(write_repro_spec(
                            failure.shrunk, violation, repro_dir,
                            max_steps=max_steps))
                    report.failures.append(failure)
        report.skips = list(ctx.skips)
    report.elapsed = time.perf_counter() - started
    return report
