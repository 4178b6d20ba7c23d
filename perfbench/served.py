"""``served_mix``: the service layer of ``repro serve`` on a mixed
request stream.

A timed run sends the stream one request after the other (closed
loop, one client) through :class:`repro.service.dispatch.ServiceSession`
-- the transport-neutral half of ``repro serve``: dispatch, scheduler,
result cache, job execution, result payload -- on the server's default
settings (one worker, in-process job execution, 256-entry result
cache), in the benchmark's process, and times each request at
reference speed like the other workloads (:mod:`common`).

A traced run drives one real ``repro serve --http`` instead, with an
open loop (below), started with ``--port 0 --shutdown-endpoint`` and
drained with ``POST /shutdown`` at the end; every request is ``POST
/jobs?wait=1``.  Timed runs used to do the same, and it could not be
made steady on the shared 2-CPU host the benchmark was built on: in
two sets of ten runs of the same code the open loop's p50 spread by
0.07 and by 0.64 between runs, when the host's load changed during
the second set (p50 6 ms, then 13 ms); most of a small request's
latency there is waiting for other processes and threads to be
scheduled, which no reference loop in the client followed.

Traffic.  The distinct specs are the repository's own batch streams,
with their default budgets: :func:`repro.workloads.batch.mixed_batch_specs`
(chase specs cycling chain, safe, t3 and the budget-capped divergent
family) and :func:`repro.workloads.batch.query_batch_specs` (query
specs cycling chain_join and safe_join, which take the exact path, and
guarded, which takes the depth-bounded fallback in ``kb``), both drawn
from a fixed seed (``STREAM_SEED``) with their default sizes 3..8.
Requests come in blocks, each in an order drawn from the run's seed:
one cycle of each stream (4 chase and 3 query specs) and
``REPEATS_PER_BLOCK`` exact repeats (2 of 9, 22%), each of one of the
last ``REPEAT_WINDOW`` distinct specs, a window that fits in the
256-entry result cache: the warm-fingerprint path.
The repository has no record of real traffic; the repeat share is the
benchmark's stated choice, and everything else follows the streams.

The streams draw sizes from a range of six, so on their own they
repeat a (family, size) pair after a few dozen specs and the cache
would answer nearly everything.  Each distinct spec's instance
therefore carries one extra fact of a relation no constraint or query
mentions (``Req(r<n>)``): its fingerprint is new, so it misses the
cache, while its work is its family's.

The traced run's open loop: one client process sends on a fixed
schedule over at most ``nproc`` keep-alive connections; a request's
latency runs from its due time, so a stall also charges the requests
queued behind it.  After a warm-up block, all due at once, blocks at
the nominal rate ``NOMINAL_RPS`` are sent until ``--seconds`` have
passed, then sent again to a gateway started with ``--metrics``.

A timed run's ``op_p50_ms`` and ``op_p90_ms`` (and the summary's p95)
are over all its requests; ``ops_per_s`` is requests per second of
request time.

Every served status (and, for queries, the answer set and the
truncation flag) is checked against an in-process
:func:`repro.service.jobs.execute_any` of the same family and size,
computed once in set-up.
"""

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time

from repro.service.jobs import execute_any, job_from_dict
from repro.workloads.batch import (FAMILIES, QUERY_FAMILIES, job_spec,
                                   mixed_batch_specs, query_batch_specs,
                                   query_spec)

from repro.service.cache import ServiceCache
from repro.service.dispatch import ServiceSession
from repro.service.scheduler import BatchScheduler

from common import (HostSpeed, Outcome, end_to_end, isolate, percentile,
                    ratio, run_for, timed_setup)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Kinds of the requests in one block, before its seeded shuffle: one
#: cycle of each spec stream, then the repeats.  Every phase sends
#: whole blocks, so each phase has exactly these shares.
REPEATS_PER_BLOCK = 2
BLOCK = (("chase",) * len(FAMILIES) + ("query",) * len(QUERY_FAMILIES)
         + ("repeat",) * REPEATS_PER_BLOCK)
BLOCK_SIZE = len(BLOCK)
#: Seed of the two spec streams, the same in every run; the run's seed
#: orders each block and picks the repeats.  The streams draw each
#: spec's size at random, a chain of size 8 costs several times one of
#: size 3, and the median request is one of these: with a stream per
#: seed, ``op_p50_ms`` followed the sizes drawn and spread by a quarter
#: between seeds.
STREAM_SEED = 0
#: The streams' default size range (``min_size``, ``max_size``).
SIZES = (3, 8)
#: Repeats pick among this many most recent distinct specs (the
#: gateway's result cache holds 256).
REPEAT_WINDOW = 128
#: Rate of the nominal blocks, requests per second.  On a 2-CPU box
#: the gateway sustains about 15 requests per second of this mix, and
#: the slowest requests (a divergent chase, about 0.3 s; a guarded
#: query, 0.15 s) end before the next one is due.  (At 4 per second a
#: request due while one of them ran queued behind it; which requests
#: did depended on the seeded order, and the p50 spread by a third
#: between seeds.)
NOMINAL_RPS = 2.0
CONNECTIONS = os.cpu_count() or 1


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def _stream(generator, seed):
    """The specs of a batch generator in index order, without end.
    Each spec is a pure function of (seed, index), so a longer batch
    extends a shorter one."""
    produced, count = 0, 16
    while True:
        yield from generator(count, seed=seed)[produced:]
        produced, count = count, 2 * count


def _key(kind, spec):
    """(kind, family, size) of a generated spec, from its name
    ``{family}_{size}_{index}``."""
    family, size, _ = spec["name"].rsplit("_", 2)
    return (kind, family, int(size))


def _tagged(spec, tag):
    spec = dict(spec)
    spec["instance"] += f"\nReq({tag})\n"
    return spec


class Traffic:
    """The seeded request stream of one run.  :meth:`next_request`
    returns ``(key, spec)``; ``key`` = (kind, family, size) names the
    in-process result the reply must match."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"perfbench-served:{seed}")
        self._streams = {"chase": _stream(mixed_batch_specs, STREAM_SEED),
                         "query": _stream(query_batch_specs, STREAM_SEED)}
        self._distinct = []            # (key, spec) of distinct specs
        self._block = []
        self._count = 0

    def _refill(self) -> None:
        self._block = list(BLOCK)
        self._rng.shuffle(self._block)
        if not self._distinct:
            # Nothing to repeat yet: send the first block's repeats
            # last (the block is popped from its end).
            self._block.sort(key=lambda kind: kind != "repeat")

    def next_request(self):
        if not self._block:
            self._refill()
        kind = self._block.pop()
        if kind == "repeat":
            return self._rng.choice(self._distinct[-REPEAT_WINDOW:])
        spec = next(self._streams[kind])
        self._count += 1
        entry = (_key(kind, spec), _tagged(spec, f"r{self._count}"))
        self._distinct.append(entry)
        return entry


def expected_results():
    """(kind, family, size) -> the fields a served result must match,
    from an in-process execution of the family's spec at that size
    with the streams' default budgets."""
    expected = {}
    for kind, families, make in (("chase", FAMILIES, job_spec),
                                 ("query", QUERY_FAMILIES, query_spec)):
        for family in families:
            for size in range(SIZES[0], SIZES[1] + 1):
                spec = make(family, size, name=f"{family}_{size}_0")
                job = job_from_dict(_tagged(spec, "reference"))
                expected[_key(kind, spec)] = _comparable(
                    execute_any(job).to_dict())
    return expected


def _comparable(result):
    return {"status": result["status"], "answers": result.get("answers"),
            "truncated": result.get("truncated", False)}


# ----------------------------------------------------------------------
# the gateway process
# ----------------------------------------------------------------------
class Gateway:
    """One ``repro serve --http`` subprocess in a session of its own."""

    def __init__(self, metrics: bool = False) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--http",
                   "--port", "0", "--shutdown-endpoint"]
        if metrics:
            command.append("--metrics")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        line = self.process.stdout.readline()
        try:
            listening = json.loads(line)
        except ValueError:
            self.kill()
            raise RuntimeError(f"gateway did not start: {line!r}")
        self.host, self.port = listening["host"], listening["port"]

    def connect(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path):
        connection = self.connect()
        try:
            connection.request("GET", path)
            reply = connection.getresponse()
            return reply.status, json.loads(reply.read())
        finally:
            connection.close()

    def drain(self, worker_pids):
        """``POST /shutdown`` and wait; returns the problems seen."""
        problems = []
        connection = self.connect()
        try:
            connection.request("POST", "/shutdown")
            status = connection.getresponse().status
        finally:
            connection.close()
        if status != 202:
            problems.append(f"POST /shutdown answered {status}")
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            problems.append("gateway did not exit within 60 s of the drain")
            self.kill()
            code = self.process.returncode
        self.process.stdout.close()
        if code != 0:
            problems.append(f"gateway exited with code {code}")
        survivors = [pid for pid in worker_pids if _alive(pid)]
        if survivors:
            problems.append(f"worker pids {survivors} survived the drain")
        self.kill()
        return problems

    def kill(self):
        """Stop the gateway's whole process group (no-op once gone)."""
        try:
            os.killpg(self.process.pid, 9)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ----------------------------------------------------------------------
# the open-loop client
# ----------------------------------------------------------------------
class Sample:
    __slots__ = ("key", "due", "sent", "done", "status", "result")

    def __init__(self, key, due):
        self.key, self.due = key, due
        self.sent = self.done = None
        self.status = None
        self.result = None


def send_schedule(gateway, requests, rate, start):
    """Send ``requests`` [(key, spec)] at ``rate`` per second (all at
    once for ``None``) from ``start`` over ``CONNECTIONS`` connections;
    returns the samples in schedule order once every reply is in."""
    samples = [Sample(key, start + (index / rate if rate else 0.0))
               for index, (key, _) in enumerate(requests)]
    bodies = [json.dumps(spec).encode() for _, spec in requests]
    cursor = iter(range(len(samples)))
    lock = threading.Lock()
    failures = []

    def client():
        connection = gateway.connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sample = samples[index]
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                connection.request("POST", "/jobs?wait=1", bodies[index],
                                   {"Content-Type": "application/json"})
                reply = connection.getresponse()
                payload = reply.read()
                sample.done = time.perf_counter()
                sample.status = reply.status
                if reply.status == 200:
                    sample.result = json.loads(payload).get("result")
        except (OSError, http.client.HTTPException) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RuntimeError("client connection failed: " + failures[0])
    return samples


def check_samples(outcome, samples, expected, label):
    """Count every refused, failed or wrong reply; return the worker
    pids seen."""
    pids = set()
    for index, sample in enumerate(samples):
        outcome.attempted += 1
        if sample.status != 200 or sample.result is None:
            outcome.failed += 1
            outcome.wrong(f"{label} request {index}: HTTP {sample.status}")
            continue
        worker = sample.result.get("worker", "")
        if worker.startswith("pid-"):
            pids.add(int(worker[4:]))
        want = expected[sample.key]
        got = _comparable(sample.result)
        if got != want:
            outcome.failed += 1
            outcome.wrong(f"{label} request {index} {sample.key}: served "
                          f"{got}, in-process {want}")
    return pids


def _latencies(samples):
    return [sample.done - sample.due for sample in samples]


def _phase(gateway, traffic, rate, blocks):
    """Send whole blocks at ``rate`` (``None``: all due at once)."""
    requests = [traffic.next_request()
                for _ in range(max(1, round(blocks)) * BLOCK_SIZE)]
    return send_schedule(gateway, requests, rate,
                         time.perf_counter() + 0.05)


def served_mix(seed, seconds, traced):
    expected = expected_results()
    outcome = Outcome()
    if not traced:
        return _in_process(seed, seconds, expected, outcome)
    # The traced run: the nominal blocks against a plain gateway, then
    # again against one with ``--metrics`` (see :func:`_traced`).
    traffic, gateway = Traffic(seed), Gateway()
    pids = set()
    try:
        warmup = _phase(gateway, traffic, None, 1)
        pids |= check_samples(outcome, warmup, expected, "warm-up")
        nominal = []
        start = time.perf_counter()
        while not nominal or time.perf_counter() - start < seconds:
            block = _phase(gateway, traffic, NOMINAL_RPS, 1)
            pids |= check_samples(outcome, block, expected, "nominal")
            nominal += block
    finally:
        _count_problems(outcome, gateway.drain(pids))
    return _traced(seed, outcome, expected, nominal,
                   len(nominal) // BLOCK_SIZE)


def _session():
    """The service layer of ``repro serve`` on its default settings (one
    worker, in-process execution, a 256-entry result cache), without
    the transport."""
    scheduler = BatchScheduler(workers=1, cache=ServiceCache(result_size=256))
    return scheduler, ServiceSession(scheduler)


def _in_process(seed, seconds, expected, outcome):
    """The timed run: the same request stream, one request after the
    other (closed loop, one client), through ``ServiceSession.handle``
    -- dispatch, scheduler, cache, job execution, result payload -- in
    this process, so that each request's time is at reference speed
    like the other workloads'.  Set-up is the session's construction."""
    host = HostSpeed()
    (traffic, (scheduler, session)), setup_s = timed_setup(
        lambda: (Traffic(seed), _session()), host,
        discard=lambda state: state[1][0].close())
    latencies = []

    def operation(index):
        key, spec = traffic.next_request()
        isolate()
        start = time.perf_counter()
        reply = session.handle(spec)
        latencies.append(host.pair(time.perf_counter() - start))
        sample = Sample(key, 0.0)
        sample.status, sample.result = 200, reply
        check_samples(outcome, [sample], expected, "request")

    try:
        run_for(seconds, operation, BLOCK_SIZE, host)
    finally:
        scheduler.close()
    rate = tuple(len(latencies) / sum(pair[index] for pair in latencies)
                 for index in (0, 1))
    end_to_end(outcome, host, setup_s, latencies, rate)
    outcome.report["serve_p50_ms"] = (outcome.metrics["op_p50_ms"][0], "ms")
    outcome.report["serve_p95_ms"] = (
        percentile([scaled for _, scaled in latencies], 95) * 1e3, "ms")
    outcome.report["serve_max_rps"] = (outcome.metrics["ops_per_s"][0],
                                       "1/s")
    outcome.record["requests"] = len(latencies)
    return outcome


def _traced(seed, outcome, expected, untraced, blocks):
    """The per-layer pass: the warm-up and nominal blocks again, against
    a second gateway started with ``--metrics``, read back from
    ``/stats``."""
    traffic, gateway = Traffic(seed), Gateway(metrics=True)
    pids = set()
    try:
        samples = _phase(gateway, traffic, None, 1)
        pids |= check_samples(outcome, samples, expected, "traced warm-up")
        samples = []
        for _ in range(blocks):
            samples += _phase(gateway, traffic, NOMINAL_RPS, 1)
        pids |= check_samples(outcome, samples, expected, "traced")
        status, stats = gateway.get("/stats")
        if status != 200:
            outcome.wrong(f"GET /stats answered {status}")
            stats = {}
    finally:
        _count_problems(outcome, gateway.drain(pids))
    outcome.metrics = service_metrics(samples, untraced, stats)
    return outcome


def _count_problems(outcome, problems):
    for problem in problems:
        outcome.failed += 1
        outcome.wrong(problem)


def service_metrics(samples, untraced, stats):
    """The service layer's per-layer metrics of one traced phase."""
    executed = [s for s in samples if s.result and not s.result["cached"]]
    elapsed = [s.result["elapsed"] for s in executed]
    overhead = [(s.done - s.sent) - s.result["elapsed"] for s in executed]
    truncated = [s.result["elapsed"] for s in executed
                 if s.result.get("truncated")]
    histograms = stats.get("metrics", {}).get("histograms", {})
    counters = stats.get("metrics", {}).get("counters", {})
    caches = stats.get("cache", {})

    def mean_ms(values):
        return ratio(sum(values), len(values)) * 1e3

    def histogram_mean_ms(name):
        entry = histograms.get(name, {})
        return ratio(entry.get("sum", 0.0), entry.get("count", 0)) * 1e3

    def hit_ratio(compartment):
        entry = caches.get(compartment, {})
        hits = entry.get("hits", 0)
        return ratio(hits, hits + entry.get("misses", 0))

    traced_total = sum(_latencies(samples))
    waiting = sum(s.sent - s.due for s in samples)
    chase_s = sum(s.result["elapsed"] for s in executed
                  if s.key[0] == "chase")
    return {
        "kb.depth_bounded_ms": (mean_ms(truncated), "ms"),
        "service.execute_ms": (mean_ms(elapsed), "ms"),
        "service.overhead_ms": (mean_ms(overhead), "ms"),
        "http.request_latency_ms": (
            histogram_mean_ms("http.request_latency_s"), "ms"),
        "pool.dispatch_wait_ms": (
            histogram_mean_ms("pool.dispatch_latency_s"), "ms"),
        "cache.results.hit_ratio": (hit_ratio("results"), "ratio"),
        "cache.reports.hit_ratio": (hit_ratio("reports"), "ratio"),
        "http.backpressure_429": (counters.get("http.backpressure_429", 0),
                                  "count"),
        "serve.generator_lag_ms": (mean_ms([s.sent - s.due
                                            for s in samples]), "ms"),
        "obs.trace_overhead": (
            traced_total / sum(_latencies(untraced)), "ratio"),
        "layer.service.self_s": (sum(overhead), "s"),
        "layer.chase.self_s": (chase_s, "s"),
        "layer.kb.self_s": (sum(elapsed) - chase_s, "s"),
        "layer.unattributed_frac": (ratio(waiting, traced_total), "ratio"),
    }
