"""The three in-process workloads: ``exchange_chase``, ``cq_answer``
and ``t_hierarchy``.  ``served_mix`` lives in :mod:`served`.

Every workload is a function ``(seed, seconds, traced) -> Outcome``.
A timed run (``traced=False``) measures the end-to-end metrics with
tracing and the metrics registry off.  A traced run repeats one fixed
pass of the workload twice, first untraced and then under
:func:`layers.instrument`, and reports the per-layer metrics plus the
ratio of the two wall times.
"""

import gc
import random
import signal
import time
import warnings

from repro import obs
from repro.chase import runner
from repro.chase.result import ChaseStatus
from repro.homomorphism.extend import all_satisfied
from repro.kb import answering
from repro.lang import parser
from repro.lang.terms import Constant, NullFactory
from repro.termination import (check_hierarchy_implications,
                               is_c_stratified, is_inductively_restricted,
                               is_safe, is_stratified, is_weakly_acyclic,
                               t_level)
from repro.termination.precedence import PrecedenceOracle
from repro.termination.report import analyze
from repro.termination.restriction import is_safely_restricted

import exchange
import layers
from common import (HostSpeed, Outcome, isolate, item_metrics, ratio,
                    run_for, timed_setup)

#: Papers per generated exchange: about 1.6k source facts, 4.2k facts
#: after the chase, about 0.6 s per chase on a 2-CPU box.  (At 2,000
#: papers a 16 s run held two or three chases of each exchange, and
#: the fastest of so few spread by a third from run to run on a shared
#: host; at 500 each exchange is chased about eight times.)
PAPERS = 500
#: Distinct exchanges a timed ``exchange_chase`` run cycles through,
#: each counted at its median chase (see :func:`common.item_metrics`).
SCENARIOS = 4
#: Step budget far above any exchange's need: the chase must end
#: TERMINATED, never on a budget.
MAX_STEPS = 1_000_000


def _chase_exchange(ex):
    """Parse, then chase one exchange with a fresh null factory (as
    every service job does)."""
    sigma = parser.parse_constraints(exchange.SIGMA_TEXT)
    instance = parser.parse_instance(ex.text)
    result = runner.chase(instance, sigma, max_steps=MAX_STEPS,
                          nulls=NullFactory())
    return sigma, result


def _facts_by_relation(instance):
    rows = {}
    for fact in instance:
        rows.setdefault(fact.relation, set()).add(tuple(
            term.value if isinstance(term, Constant) else term
            for term in fact.args))
    return rows


def check_exchange_result(ex, sigma, result):
    """Every mismatch between one chase result and its exchange."""
    if result.status is not ChaseStatus.TERMINATED:
        return [f"status {result.status.value}, expected terminated"]
    errors = [] if all_satisfied(sigma, result.instance) else [
        "the result does not satisfy the constraints"]
    return errors + exchange.check_chase(
        ex, _facts_by_relation(result.instance))


def _record_check(outcome, label, errors):
    outcome.attempted += 1
    if errors:
        outcome.failed += 1
        outcome.wrong(f"{label}: " + "; ".join(errors))


# ----------------------------------------------------------------------
# exchange_chase
# ----------------------------------------------------------------------
def exchange_chase(seed, seconds, traced):
    host = HostSpeed()
    scenarios, setup_s = timed_setup(
        lambda: [exchange.generate(seed, index, PAPERS)
                 for index in range(SCENARIOS)], host)
    outcome = Outcome()
    times = {index: [] for index in range(len(scenarios))}

    def operation(index):
        ex = scenarios[index % len(scenarios)]
        isolate()
        start = time.perf_counter()
        sigma, result = _chase_exchange(ex)
        times[index % len(scenarios)].append(
            host.pair(time.perf_counter() - start))
        _record_check(outcome, f"exchange {index % len(scenarios)}",
                      check_exchange_result(ex, sigma, result))

    if traced:
        operation(0)
        spans = layers.Spans()
        isolate()
        with layers.instrument(spans):
            start = time.perf_counter()
            sigma, result = _chase_exchange(scenarios[0])
            traced_wall = time.perf_counter() - start
            snapshot = obs.snapshot()
        _record_check(outcome, "exchange 0 (traced)",
                      check_exchange_result(scenarios[0], sigma, result))
        outcome.metrics = per_layer_metrics(
            spans, snapshot, traced_wall, times[0][0][0],
            facts=len(result.instance))
        return outcome

    run_for(seconds, operation, len(scenarios), host)
    item_metrics(outcome, host, setup_s, times)
    outcome.report["chase_p50_s"] = (outcome.metrics["op_p50_ms"][0] / 1e3,
                                     "s")
    outcome.record["source_facts"] = scenarios[0].source_facts
    return outcome


# ----------------------------------------------------------------------
# cq_answer
# ----------------------------------------------------------------------
#: Distinct seeded queries per run (each checked against the
#: benchmark's own join); the timed loop cycles through them, so each
#: is timed several times.  A traced run makes one pass over them.
QUERY_POOL = 250
#: The exchange the queries run over is the same in every run; the
#: run's seed draws the queries.  (With an exchange per seed, each seed
#: kept its own op_p50_ms and op_p90_ms in two sets of ten runs -- one
#: seed's p90 read 5.2 ms in both, most others 6.2-7.3 ms -- and the
#: spread between seeds reached an eighth.)
CQ_EXCHANGE_SEED = 0


def _cq_setup(seed):
    """Input generation and the set-up chase (what ``setup_s`` times)."""
    ex = exchange.generate(CQ_EXCHANGE_SEED, 0, PAPERS)
    sigma, result = _chase_exchange(ex)
    queries = exchange.generate_queries(seed, ex, QUERY_POOL)
    parsed = [parser.parse_query(text) for _, text in queries]
    # The first optimization analyses sigma (memoized per process, as
    # in a long-running server); do it here, not in the first query.
    answering.optimize_query(parsed[0], sigma)
    return ex, sigma, result, queries, parsed


def _answer(sigma, instance, query):
    plan = answering.optimize_query(query, sigma)
    return plan.evaluate(instance, constants_only=True)


def _check_answers(outcome, label, answers, expected):
    got = {tuple(term.value for term in row) for row in answers}
    errors = []
    if got != expected:
        errors.append(f"{len(expected - got)} answers missing, "
                      f"{len(got - expected)} extra")
    _record_check(outcome, label, errors)


def cq_answer(seed, seconds, traced):
    host = HostSpeed()
    state, setup_s = timed_setup(lambda: _cq_setup(seed), host)
    ex, sigma, result, queries, parsed = state
    outcome = Outcome()
    _record_check(outcome, "set-up chase",
                  check_exchange_result(ex, sigma, result))
    instance = result.instance
    reference = exchange.ReferenceDatabase(ex)
    expected = [reference.answers(*exchange.parse_query_text(text))
                for _, text in queries]
    # Everything alive now lives until the end of the run: move it out
    # of the collector's reach so per-query collections stay cheap.
    gc.freeze()
    times = {slot: [] for slot in range(len(queries))}

    def operation(index):
        slot = index % len(queries)
        isolate()
        start = time.perf_counter()
        answers = _answer(sigma, instance, parsed[slot])
        times[slot].append(host.pair(time.perf_counter() - start))
        _check_answers(outcome, f"query {slot} {queries[slot][0]}",
                       answers, expected[slot])

    if traced:
        def query_pass(suffix):
            wall, answers_total = 0.0, 0
            for slot, query in enumerate(parsed):
                isolate()
                start = time.perf_counter()
                answers = _answer(sigma, instance, query)
                wall += time.perf_counter() - start
                answers_total += len(answers)
                _check_answers(outcome, f"query {slot}{suffix}", answers,
                               expected[slot])
            return wall, answers_total

        untraced_wall, _ = query_pass("")
        spans = layers.Spans()
        with layers.instrument(spans):
            traced_wall, answers_total = query_pass(" (traced)")
            snapshot = obs.snapshot()
        outcome.metrics = per_layer_metrics(
            spans, snapshot, traced_wall, untraced_wall,
            answers=answers_total)
        return outcome

    run_for(seconds, operation, len(queries), host)
    item_metrics(outcome, host, setup_s, times)
    outcome.report["query_p50_ms"] = (outcome.metrics["op_p50_ms"][0], "ms")
    outcome.report["query_p90_ms"] = (outcome.metrics["op_p90_ms"][0], "ms")
    outcome.record["chased_facts"] = len(instance)
    return outcome


# ----------------------------------------------------------------------
# t_hierarchy
# ----------------------------------------------------------------------
#: Search-node budget per precedence query of every analysed set.
#: ``repro analyze`` uses ``PrecedenceOracle``'s default of 20M nodes,
#: under which fuzz:0:2 runs for more than ten minutes (2-CPU x86 box,
#: Python 3.11, hash seed 0): no timed run can hold it, and a capped
#: set would be a failed operation in every run.  At 20k nodes every
#: set ends within about 3 s; fuzz:0:2 is still by far the slowest set
#: and exhausts its budget eight times, so the heavy tail shows in
#: ``op_p90_ms`` and ``ops_per_s`` and in the traced run's
#: ``precedence.budget_exhausted``.  An exhausted search answers True,
#: the conservative answer, so every verdict stays sound.
NODE_BUDGET = 20_000
#: Per-set wall-clock cap, a guard far above any set's time at
#: ``NODE_BUDGET``.  A capped set is a failed operation.
CAP_S = 20.0
#: The fuzz part of the corpus: ``generate_case(FUZZ_SEED, i)`` for
#: ``i < FUZZ_CASES``.  The corpus is the same for every benchmark
#: seed (the seed only orders it): in seeded fuzz streams one set in
#: about fifteen is orders of magnitude slower than the rest, so a
#: per-seed stream would swing the corpus total from seed to seed.
FUZZ_SEED = 0
FUZZ_CASES = 30
#: After a first pass over the corpus, the sets are analysed again
#: until ``--seconds`` have passed: the sets that took at least
#: ``SLOW_S`` one after another, and after each of them one sweep over
#: all the faster sets.  Every set counts at its median time, and the
#: repeats of each set are spread over the whole run.  (Repeating a
#: millisecond set ten times in a row put all ten in the same moment
#: of the host's speed, and its fastest time spread by half between
#: runs.)
SLOW_S = 0.05
#: Largest ``m`` of Example 15's family ``sigma_family(m)``.
FAMILY_MAX_M = 6
#: ``analyze``'s default T-hierarchy probe depth (``repro analyze``).
MAX_K = 3

#: Classifications the paper states for its named sets (the set
#: descriptions in ``repro.workloads.paper.NAMED_SETS``), checked
#: independently of the hierarchy's implication table.
PAPER_VERDICTS = {
    "intro_alpha2": {"t_level": None},
    "figure2": {"t_level": 3},
    "example2_gamma": {"stratified": True, "weakly_acyclic": False,
                       "safe": False},
    "example4": {"stratified": True, "c_stratified": False},
    "example8_beta": {"safe": True, "weakly_acyclic": False},
    "thm4_safe_not_strat": {"safe": True, "stratified": False},
    "example10": {"safely_restricted": True, "safe": False,
                  "c_stratified": False},
    "example13": {"inductively_restricted": True,
                  "safely_restricted": False},
}


class _Capped(BaseException):
    """Raised by the cap's alarm (a BaseException, so no ``except
    Exception`` in the analysed code can swallow it)."""


def _corpus(seed):
    from repro.fuzz.generate import generate_case
    from repro.workloads.families import sigma_family
    from repro.workloads.paper import NAMED_SETS
    corpus = [(f"named:{name}", tuple(factory()))
              for name, (factory, _) in NAMED_SETS.items()]
    corpus += [(f"family:{m}", tuple(sigma_family(m)))
               for m in range(2, FAMILY_MAX_M + 1)]
    corpus += [(f"fuzz:{FUZZ_SEED}:{index}",
                generate_case(FUZZ_SEED, index).sigma)
               for index in range(FUZZ_CASES)]
    random.Random(f"perfbench-thierarchy:{seed}").shuffle(corpus)
    return corpus


class CountingOracle(PrecedenceOracle):
    """A :class:`PrecedenceOracle` that counts its queries, the ones
    its memo answered, and the time spent in searches it ran."""

    def __init__(self) -> None:
        super().__init__(node_budget=NODE_BUDGET)
        self.queries = 0
        self.hits = 0
        self.search_s = 0.0

    def _timed(self, call, memo_size):
        self.queries += 1
        before = memo_size()
        start = time.perf_counter()
        try:
            return call()
        finally:
            if memo_size() == before:
                self.hits += 1
            else:
                self.search_s += time.perf_counter() - start

    def precedes(self, alpha, beta):
        return self._timed(lambda: super(CountingOracle, self)
                           .precedes(alpha, beta),
                           lambda: len(self._plain))

    def precedes_c(self, alpha, beta, printed_variant=False):
        return self._timed(lambda: super(CountingOracle, self)
                           .precedes_c(alpha, beta, printed_variant),
                           lambda: len(self._plain))

    def precedes_k(self, chain, positions):
        key = tuple(chain)
        return self._timed(lambda: super(CountingOracle, self)
                           .precedes_k(chain, positions),
                           lambda: len(self._positional.get(key, ())))


#: ``analyze``'s checks in its order: (verdict name, metric, call).
CHECKS = (
    ("weakly_acyclic", "termination.weakly_acyclic",
     lambda sigma, oracle: is_weakly_acyclic(sigma)),
    ("safe", "termination.safe", lambda sigma, oracle: is_safe(sigma)),
    ("stratified", "termination.stratified", is_stratified),
    ("c_stratified", "termination.c_stratified", is_c_stratified),
    ("safely_restricted", "termination.safely_restricted",
     is_safely_restricted),
    ("inductively_restricted", "termination.inductively_restricted",
     is_inductively_restricted),
    ("t_level", "termination.t_level",
     lambda sigma, oracle: t_level(sigma, MAX_K, oracle)),
)


def _verdicts_of(report):
    return {"weakly_acyclic": report.weakly_acyclic, "safe": report.safe,
            "stratified": report.stratified,
            "c_stratified": report.c_stratified,
            "safely_restricted": report.safely_restricted,
            "inductively_restricted": report.inductively_restricted,
            "t_level": report.t_hierarchy_level}


def check_verdicts(label, verdicts):
    """Figure 1's implications, plus the paper's stated classes for
    its named sets."""
    level = verdicts["t_level"]
    memberships = {name: value for name, value in verdicts.items()
                   if name != "t_level"}
    memberships["t2"] = level == 2
    memberships["t3"] = level in (2, 3)
    errors = check_hierarchy_implications(memberships)
    stated = PAPER_VERDICTS.get(label.split(":", 1)[1]) \
        if label.startswith("named:") else None
    for name, value in (stated or {}).items():
        if verdicts[name] != value:
            errors.append(f"{name} is {verdicts[name]}, the paper says "
                          f"{value}")
    return errors


def _analyze_capped(sigma, analyse):
    """``analyse(sigma)`` under the wall-clock cap.  Returns (verdicts
    or None when capped, seconds, budget warnings)."""
    def alarm(signum, frame):
        raise _Capped()

    previous = signal.signal(signal.SIGALRM, alarm)
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                verdicts = analyse(sigma)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Capped:
            verdicts = None
    elapsed = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    exhausted = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return verdicts, elapsed, exhausted


def _cold_analyze(sigma):
    return _verdicts_of(analyze(
        sigma, max_k=MAX_K, oracle=PrecedenceOracle(node_budget=NODE_BUDGET)))


def t_hierarchy(seed, seconds, traced):
    """One pass over the corpus, then repeats (see ``SLOW_S``) until
    ``seconds`` have passed."""
    host = HostSpeed()
    corpus, setup_s = timed_setup(lambda: _corpus(seed), host)
    # As in cq_answer: the collection before each set then walks only
    # the previous set's garbage, not the whole library, and the
    # millisecond-scale analyses do not start from flushed caches.
    gc.freeze()
    outcome = Outcome()
    outcome.record["corpus"] = len(corpus)

    def analyse_all(sets, analyse, suffix="", timed=False):
        """label -> seconds (the cap for a capped set), and the number
        of precedence searches that ran out of budget.  A timed pass
        samples the host's speed between sets and gives (wall-clock,
        reference speed) pairs of seconds."""
        times = {}
        exhausted = 0
        for label, sigma in sets:
            if timed:
                host.sample()
            isolate()
            verdicts, elapsed, warned = _analyze_capped(sigma, analyse)
            exhausted += warned
            outcome.attempted += 1
            if verdicts is None:
                outcome.failed += 1
                outcome.capped.append(label + suffix)
                elapsed = CAP_S
            times[label] = host.pair(elapsed) if timed else elapsed
            if verdicts is None:
                continue
            errors = check_verdicts(label, verdicts)
            if errors:
                outcome.failed += 1
                outcome.wrong(f"{label}{suffix}: " + "; ".join(errors))
        return times, exhausted

    if traced:
        start = time.perf_counter()
        analyse_all(corpus, _cold_analyze)
        untraced_wall = time.perf_counter() - start
        spans = layers.Spans()
        oracles = []

        def traced_analyze(sigma):
            oracle = CountingOracle()
            oracles.append(oracle)
            return {verdict: spans.wrap(call, "termination", metric)(
                        sigma, oracle)
                    for verdict, metric, call in CHECKS}

        with layers.instrument(spans):
            start = time.perf_counter()
            _, exhausted = analyse_all(corpus, traced_analyze, " (traced)")
            traced_wall = time.perf_counter() - start
            snapshot = obs.snapshot()
        outcome.metrics = per_layer_metrics(
            spans, snapshot, traced_wall, untraced_wall,
            oracles=oracles, budget_warnings=exhausted)
        return outcome

    start = time.perf_counter()
    first, _ = analyse_all(corpus, _cold_analyze, timed=True)
    times = {label: [elapsed] for label, elapsed in first.items()}
    slow = [entry for entry in corpus if first[entry[0]][0] >= SLOW_S]
    fast = [entry for entry in corpus if first[entry[0]][0] < SLOW_S]
    index = 0
    while time.perf_counter() - start < seconds:
        sets = fast + ([slow[index % len(slow)]] if slow else [])
        for label, elapsed in analyse_all(sets, _cold_analyze,
                                          timed=True)[0].items():
            times[label].append(elapsed)
        index += 1
    item_metrics(outcome, host, setup_s, times)
    outcome.report["analyze_p50_ms"] = (outcome.metrics["op_p50_ms"][0],
                                        "ms")
    outcome.report["analyze_total_s"] = (
        len(times) / outcome.metrics["ops_per_s"][0], "s")
    return outcome


# ----------------------------------------------------------------------
# per-layer metrics of an in-process traced pass
# ----------------------------------------------------------------------
def per_layer_metrics(spans, snapshot, traced_wall, untraced_wall,
                      facts=0, answers=0, oracles=(), budget_warnings=0):
    """Every in-process per-layer metric (zero where the workload does
    not reach the layer); the service metrics come from
    :mod:`served`."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def counter(name):
        return counters.get(name, 0)

    def seconds(name):
        return (spans.inclusive.get(name, 0.0), "s")

    steps = counter("chase.steps")
    order_hits = counter("plan.order_cache.hits")
    order_lookups = (order_hits + counter("plan.order_cache.misses")
                     + counter("plan.order_cache.revalidated")
                     + counter("plan.order_cache.invalidations"))
    queries = sum(oracle.queries for oracle in oracles)
    metrics = {
        "lang.parse_s": seconds("lang.parse"),
        "chase.select_s": seconds("chase.select"),
        "chase.apply_s": seconds("chase.apply"),
        "chase.steps": (steps, "count"),
        "chase.new_nulls": (counter("chase.new_nulls"), "count"),
        "triggers.backlog_expanded": (counter("triggers.backlog_expanded"),
                                      "count"),
        "triggers.settled_dropped": (counter("triggers.settled_dropped"),
                                     "count"),
        "triggers.steps_per_expansion": (
            ratio(steps, counter("triggers.backlog_expanded")), "ratio"),
        "storage.add_s": seconds("storage.add"),
        "storage.substitute_s": seconds("storage.substitute"),
        "storage.terms_interned": (counter("storage.terms_interned"),
                                   "count"),
        "storage.intern_calls_per_fact": (
            ratio(spans.counts.get("storage.intern", 0), facts), "ratio"),
        "plan.rows_scanned_per_answer": (
            ratio(spans.counts.get("storage.scan_rows", 0)
                  + counter("plan.batch.rows_scanned"), answers), "ratio"),
        "homomorphism.execute_s": seconds("homomorphism.execute"),
        "homomorphism.execute_calls": (
            spans.calls.get("homomorphism.execute", 0), "count"),
        "homomorphism.batch_s": seconds("homomorphism.batch"),
        "plan.route.batch": (counter("plan.route.batch"), "count"),
        "plan.route.tuple": (counter("plan.route.tuple"), "count"),
        "plan.order_cache.hit_ratio": (ratio(order_hits, order_lookups),
                                       "ratio"),
        "kernels.hash_probe_rows": (
            histograms.get("kernels.hash_probe_rows", {}).get("sum", 0),
            "count"),
        "cq.optimize_s": seconds("cq.optimize"),
        "cq.evaluate_s": seconds("cq.evaluate"),
        "cq.answers": (answers, "count"),
        "precedence.queries": (queries, "count"),
        "precedence.cache_hit_ratio": (
            ratio(sum(oracle.hits for oracle in oracles), queries),
            "ratio"),
        "precedence.search_s": (sum(oracle.search_s for oracle in oracles),
                                "s"),
        "precedence.budget_exhausted": (budget_warnings, "count"),
        "obs.trace_overhead": (traced_wall / untraced_wall, "ratio"),
    }
    for _, metric, _ in CHECKS:
        metrics[metric + "_s"] = seconds(metric)
    metrics.update(layers.layer_metrics(spans, traced_wall))
    return metrics
