"""Self-test of the benchmark at tiny sizes.

Runs every workload end to end, timed and traced, and shows that each
correctness check rejects a deliberately corrupted output.  Also checks
that ``run.py`` refuses ``REPRO_OBS``/``REPRO_BACKEND``, fails without
printing a result where there is no ``src/repro``, and that
``BENCHMARK.json`` lists exactly the metrics the runs print.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Exit status 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import exchange  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import workloads  # noqa: E402
from common import Outcome  # noqa: E402
from repro.lang.terms import Constant, Null  # noqa: E402
from repro.lang.atoms import Atom  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def shrink():
    """Tiny sizes for every workload."""
    workloads.PAPERS = 40
    workloads.SCENARIOS = 2
    workloads.QUERY_POOL = 15
    workloads.FUZZ_CASES = 2
    workloads.FAMILY_MAX_M = 3


def end_to_end():
    for name in sorted(run.WORKLOAD_NAMES):
        for traced in (False, True):
            outcome = run.run_workload(name, seed=0, seconds=0.6,
                                       traced=traced)
            listed = run.PER_LAYER if traced else run.END_TO_END
            expect(not outcome.errors and outcome.attempted > 0
                   and set(outcome.metrics) == set(listed),
                   f"{name} traced={traced} runs clean "
                   f"({outcome.attempted} operations, "
                   f"errors {outcome.errors[:2]})")


def corrupted_chase():
    ex = exchange.generate(0, 0, 40)
    sigma, result = workloads._chase_exchange(ex)
    expect(not workloads.check_exchange_result(ex, sigma, result),
           "exchange check accepts a correct chase")
    instance = result.instance
    coauth = next(fact for fact in instance if fact.relation == "Coauth")
    instance.discard(coauth)
    expect(workloads.check_exchange_result(ex, sigma, result),
           "exchange check rejects a missing Coauth pair")
    instance.add(coauth)
    paper = next(fact for fact in instance if fact.relation == "Paper"
                 and isinstance(fact.args[1], Constant))
    instance.add(Atom("Paper", (paper.args[0], Constant("v_wrong"))))
    expect(workloads.check_exchange_result(ex, sigma, result),
           "exchange check rejects a wrong venue")
    instance.discard(Atom("Paper", (paper.args[0], Constant("v_wrong"))))
    instance.discard(paper)
    instance.add(Atom("Paper", (paper.args[0], Null(10 ** 6))))
    expect(workloads.check_exchange_result(ex, sigma, result),
           "exchange check rejects an unresolved venue")


def corrupted_chase_satisfying_sigma():
    """Corruptions that still satisfy every constraint, so that only
    the benchmark's own oracle (:func:`exchange.check_chase`), not
    ``all_satisfied`` from the library under test, can reject them."""
    ex = exchange.generate(0, 0, 40)
    sigma, result = workloads._chase_exchange(ex)
    instance = result.instance
    by_author = {}
    for author, paper in ex.wrote:
        by_author.setdefault(author, set()).add(paper)
    strangers = next((a, b) for a in sorted(by_author)
                     for b in sorted(by_author)
                     if a != b and not by_author[a] & by_author[b])
    open_paper = next(fact for fact in instance if fact.relation == "Paper"
                      and not isinstance(fact.args[1], Constant))
    cases = [
        ("an extra Coauth pair between authors who share no paper", (),
         [Atom("Coauth", tuple(Constant(a) for a in strangers))]),
        ("an extra Author", (), [Atom("Author", (Constant("a_ghost"),))]),
        ("an extra paper with an unknown venue", (),
         [Atom("Paper", (Constant("p_ghost"), Null(10 ** 6)))]),
        ("a venue made up for a paper the source gives none", [open_paper],
         [Atom("Paper", (open_paper.args[0], Constant("v0")))]),
    ]
    for description, removed, added in cases:
        for fact in removed:
            instance.discard(fact)
        for fact in added:
            instance.add(fact)
        errors = exchange.check_chase(
            ex, workloads._facts_by_relation(instance))
        expect(workloads.all_satisfied(sigma, instance) and errors,
               f"exchange oracle alone rejects {description}")
        for fact in added:
            instance.discard(fact)
        for fact in removed:
            instance.add(fact)
    expect(not workloads.check_exchange_result(ex, sigma, result),
           "exchange check accepts the chase again once restored")


def corrupted_answers():
    ex = exchange.generate(0, 0, 40)
    sigma, result = workloads._chase_exchange(ex)
    reference = exchange.ReferenceDatabase(ex)
    shape, text = exchange.generate_queries(0, ex, 5)[0]
    query = workloads.parser.parse_query(text)
    answers = workloads._answer(sigma, result.instance, query)
    expected = reference.answers(*exchange.parse_query_text(text))
    outcome = Outcome()
    workloads._check_answers(outcome, shape, answers, expected)
    expect(outcome.failed == 0, f"query check accepts {shape}")
    bogus = set(answers) | {tuple(Constant("nobody") for _ in
                                  query.head)}
    workloads._check_answers(outcome, shape, bogus, expected)
    expect(outcome.failed == 1, "query check rejects an extra answer")


def corrupted_verdicts():
    verdicts = {"weakly_acyclic": True, "safe": True, "stratified": True,
                "c_stratified": True, "safely_restricted": True,
                "inductively_restricted": True, "t_level": 2}
    expect(not workloads.check_verdicts("fuzz:0:0", verdicts),
           "hierarchy check accepts consistent verdicts")
    expect(workloads.check_verdicts("fuzz:0:0",
                                    dict(verdicts, safe=False)),
           "hierarchy check rejects weakly acyclic but not safe")
    expect(workloads.check_verdicts("named:figure2", verdicts),
           "paper check rejects figure2 outside T[3] minus T[2]")


def corrupted_replies():
    expected = served.expected_results()
    key = ("query", "chain_join", 4)
    sample = served.Sample(key, 0.0)
    sample.status = 200
    sample.result = dict(expected[key], worker="inproc")
    outcome = Outcome()
    served.check_samples(outcome, [sample], expected, "selftest")
    expect(outcome.failed == 0, "served check accepts a matching reply")
    sample.result = dict(sample.result, answers=sample.result["answers"][1:])
    served.check_samples(outcome, [sample], expected, "selftest")
    expect(outcome.failed == 1, "served check rejects a dropped answer")
    sample.status, sample.result = 429, None
    served.check_samples(outcome, [sample], expected, "selftest")
    expect(outcome.failed == 2, "served check counts a refused request")


def command_line():
    script = os.path.join(HERE, "run.py")
    args = ["--workload", "t_hierarchy", "--seed", "0", "--seconds", "1"]
    for variable in run.REFUSED_ENV:
        env = dict(os.environ, **{variable: "1"})
        done = subprocess.run([sys.executable, script] + args, env=env,
                              capture_output=True, text=True, timeout=60)
        expect(done.returncode != 0 and not done.stdout.strip(),
               f"run.py refuses {variable}")
    bare = os.path.join(ROOT, ".bench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py"] + args, cwd=bare,
            capture_output=True, text=True, timeout=60)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "run.py fails without a result where src/repro is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads match run.py")


def main():
    shrink()
    benchmark_json()
    command_line()
    corrupted_chase()
    corrupted_chase_satisfying_sigma()
    corrupted_answers()
    corrupted_verdicts()
    corrupted_replies()
    end_to_end()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
