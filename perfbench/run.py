"""The repository's end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``exchange_chase`` -- parse and chase seeded 500-paper
  bibliographic data exchanges to their fixpoint (closed loop, one
  client);
* ``cq_answer`` -- optimize and evaluate seeded conjunctive queries
  over one chased exchange built during set-up (closed loop, one
  client);
* ``served_mix`` -- mixed chase and query jobs through the service
  layer of ``repro serve`` (closed loop, one client); the traced run
  drives a real ``repro serve --http`` with an open loop
  (:mod:`served`);
* ``t_hierarchy`` -- cold ``analyze()`` of the paper's named sets,
  Example 15's family and a fixed fuzz corpus, each under a wall-clock
  cap.

``--trace 0`` measures the end-to-end metrics with the library's
tracing and metrics off.  Every workload reports its times at
reference speed: each measured time is scaled by a fixed
pure-Python loop timed just before it, because the shared host the
benchmark was built on changes speed by up to 1.6x for minutes at a
time (see :mod:`common`); the wall-clock figures are printed beside
them as ``wall_*``.  ``--trace 1`` is a separate run that gives
the per-layer metrics (:mod:`layers`).  Every run checks every output
against definitions computed by the benchmark itself; a wrong output
counts as a failed operation and makes ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable summary and the run record.  The run
refuses to start when ``REPRO_OBS`` or ``REPRO_BACKEND`` is set,
because either would change what is measured.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics of a ``--trace 0`` run, reported by every
#: workload: name -> unit.  What each means per workload is in
#: ``WORKLOAD_NAMES``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
}

#: Per-layer metrics of a ``--trace 1`` run: name -> unit.  A workload
#: that does not reach a layer reports it as 0.
PER_LAYER = {
    "lang.parse_s": "s",
    "chase.select_s": "s",
    "chase.apply_s": "s",
    "chase.steps": "count",
    "chase.new_nulls": "count",
    "triggers.backlog_expanded": "count",
    "triggers.settled_dropped": "count",
    "triggers.steps_per_expansion": "ratio",
    "storage.add_s": "s",
    "storage.substitute_s": "s",
    "storage.terms_interned": "count",
    "storage.intern_calls_per_fact": "ratio",
    "plan.rows_scanned_per_answer": "ratio",
    "homomorphism.execute_s": "s",
    "homomorphism.execute_calls": "count",
    "homomorphism.batch_s": "s",
    "plan.route.batch": "count",
    "plan.route.tuple": "count",
    "plan.order_cache.hit_ratio": "ratio",
    "kernels.hash_probe_rows": "count",
    "cq.optimize_s": "s",
    "cq.evaluate_s": "s",
    "cq.answers": "count",
    "kb.depth_bounded_ms": "ms",
    "termination.weakly_acyclic_s": "s",
    "termination.safe_s": "s",
    "termination.stratified_s": "s",
    "termination.c_stratified_s": "s",
    "termination.safely_restricted_s": "s",
    "termination.inductively_restricted_s": "s",
    "termination.t_level_s": "s",
    "precedence.queries": "count",
    "precedence.cache_hit_ratio": "ratio",
    "precedence.search_s": "s",
    "precedence.budget_exhausted": "count",
    "service.execute_ms": "ms",
    "service.overhead_ms": "ms",
    "http.request_latency_ms": "ms",
    "pool.dispatch_wait_ms": "ms",
    "cache.results.hit_ratio": "ratio",
    "cache.reports.hit_ratio": "ratio",
    "http.backpressure_429": "count",
    "serve.generator_lag_ms": "ms",
    "obs.trace_overhead": "ratio",
    "layer.lang.self_s": "s",
    "layer.storage.self_s": "s",
    "layer.homomorphism.self_s": "s",
    "layer.chase.self_s": "s",
    "layer.cq.self_s": "s",
    "layer.kb.self_s": "s",
    "layer.termination.self_s": "s",
    "layer.service.self_s": "s",
    "layer.unattributed_frac": "ratio",
}

#: The workload-specific names of the end-to-end figures, printed in
#: the summary (``fail_frac`` is ``failed / attempted``).
WORKLOAD_NAMES = {
    "exchange_chase": "chase_p50_s = op_p50_ms / 1000",
    "cq_answer": "query_p50_ms = op_p50_ms, query_p90_ms = op_p90_ms",
    "served_mix": "serve_p50_ms = op_p50_ms, serve_max_rps = ops_per_s",
    "t_hierarchy": "analyze_p50_ms = op_p50_ms, "
                   "analyze_total_s = sets / ops_per_s",
}

REFUSED_ENV = ("REPRO_OBS", "REPRO_BACKEND")

#: String hashing orders the sets and dicts keyed by terms and
#: constraints, and with them the chase's trigger order and the
#: precedence searches: one fuzz-generated set takes 0.4 s to analyse
#: under one hash seed and 4 s under another.  Runs pin the seed so
#: that their work depends on their inputs only.
HASH_SEED = "0"


def _git_commit():
    """The checkout's commit when it is a git work tree, else
    ``unknown`` (the benchmark also runs from exported trees).  Git
    does not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(name, seed, seconds, traced):
    """Run one workload; returns its :class:`common.Outcome` with the
    metrics completed to the full list of the run's kind."""
    import served
    import workloads
    functions = {
        "exchange_chase": workloads.exchange_chase,
        "cq_answer": workloads.cq_answer,
        "served_mix": served.served_mix,
        "t_hierarchy": workloads.t_hierarchy,
    }
    outcome = functions[name](seed, seconds, traced)
    expected = PER_LAYER if traced else END_TO_END
    unknown = set(outcome.metrics) - set(expected)
    if unknown:
        raise RuntimeError(f"unlisted metrics {sorted(unknown)}")
    for metric, unit in expected.items():
        outcome.metrics.setdefault(metric, (0.0, unit))
        if outcome.metrics[metric][1] != unit:
            raise RuntimeError(f"{metric}: unit {outcome.metrics[metric][1]}"
                               f", listed as {unit}")
    return outcome


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for variable in REFUSED_ENV:
        if os.environ.get(variable) is not None:
            print(f"perfbench: refusing to run with {variable} set",
                  file=sys.stderr)
            return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + sys.argv[1:])
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no repro package under {source}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    from repro.lang.instance import Instance
    from workloads import CAP_S

    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "commit": _git_commit(),
              "python": platform.python_version(),
              "nproc": os.cpu_count(), "backend": Instance().backend,
              "hash_seed": HASH_SEED, "t_hierarchy_cap_s": CAP_S}
    record.update(outcome.record)
    outcome.report["fail_frac"] = (outcome.failed / max(1, outcome.attempted),
                                   "ratio")
    print("record " + json.dumps(record, sort_keys=True))
    for table in (outcome.metrics, outcome.report):
        for name, (value, unit) in sorted(table.items()):
            print(f"  {name:38s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  ({WORKLOAD_NAMES[args.workload]})")
    if outcome.capped:
        print(f"  capped: {', '.join(outcome.capped)}")
    for error in outcome.errors[:20]:
        print(f"  WRONG {error}")
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
