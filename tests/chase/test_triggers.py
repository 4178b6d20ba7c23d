"""TriggerIndex tests: unit behaviour + naive/incremental cross-validation.

The incremental (semi-naive) chase must be indistinguishable from the
naive reference path up to the classical order-independence guarantees:
identical statuses, and homomorphically equivalent results for
terminating runs (``null_renaming_equivalent``, Section 2).
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.chase import (chase, ChaseStatus, oblivious_chase,
                         OrderedStrategy, RandomStrategy, RoundRobinStrategy,
                         TriggerIndex)
from repro.homomorphism import engine
from repro.homomorphism.engine import (find_homomorphisms,
                                       null_renaming_equivalent,
                                       reference_engine)
from repro.homomorphism.extend import all_satisfied, head_extends
from repro.lang.atoms import Atom
from repro.lang.constraints import TGD
from repro.lang.instance import Instance
from repro.lang.parser import parse_constraints, parse_instance
from repro.lang.terms import Constant, Variable
from repro.storage.column_store import ColumnStore
from repro.termination.stratification import stratified_strategy
from repro.workloads.families import (bounded_null_cascade, chain_instance,
                                      cycle_instance, example9_instance,
                                      full_tgd_chain, prop11_family,
                                      special_nodes_instance)
from repro.workloads.paper import (example2_gamma, example4,
                                   example4_instance, example5_instance,
                                   example8_beta, example13, figure2,
                                   intro_alpha1, intro_alpha2,
                                   intro_instance)

from tests.conftest import graph_instances, graph_tgd_sets


# Every workload family the repo benchmarks, as (sigma, instance) pairs.
FAMILIES = [
    ("intro_alpha1", intro_alpha1(), intro_instance()),
    ("intro_alpha2_divergent", intro_alpha2(), intro_instance()),
    ("figure2", figure2(), special_nodes_instance(8)),
    ("example2_gamma", example2_gamma(), cycle_instance(6)),
    ("example4_divergent", example4(), example4_instance()),
    ("example4_on_example5", example4(), example5_instance()),
    ("example8_beta", example8_beta(), example9_instance(8)),
    ("example13", example13(), special_nodes_instance(6, spacing=2)),
    ("full_tgd_chain", full_tgd_chain(5), chain_instance(6, "R0")),
    ("null_cascade", bounded_null_cascade(4),
     parse_instance("L0(a). L0(b)")),
    ("prop11", *prop11_family(3)),
    ("egd_merge", parse_constraints("E(x,y), E(x,z) -> y = z"),
     parse_instance("E(a,b). E(a,?n1). E(?n1,c)")),
    ("egd_failure", parse_constraints("E(x,y), E(x,z) -> y = z"),
     parse_instance("E(a,b). E(a,c)")),
    ("egd_tgd_interplay",
     parse_constraints("S(x) -> E(x,y); E(x,y), E(x,z) -> y = z"),
     parse_instance("S(a). E(a,b). S(b)")),
]


@pytest.mark.parametrize("name,sigma,instance", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("strategy_factory",
                         [OrderedStrategy, RoundRobinStrategy],
                         ids=["ordered", "round_robin"])
def test_incremental_matches_naive(name, sigma, instance, strategy_factory):
    """Same status as the naive path; equivalent result on termination."""
    incremental = chase(instance, sigma, strategy=strategy_factory(),
                        max_steps=300)
    naive = chase(instance, sigma, strategy=strategy_factory(),
                  max_steps=300, naive=True)
    assert incremental.status is naive.status
    if incremental.terminated:
        assert all_satisfied(sigma, incremental.instance)
        assert null_renaming_equivalent(incremental.instance, naive.instance)


@pytest.mark.parametrize("name,sigma,instance", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
def test_oblivious_incremental_matches_naive(name, sigma, instance):
    """The queue-driven oblivious chase agrees with restart-enumeration."""
    incremental = oblivious_chase(instance, sigma, max_steps=200)
    naive = oblivious_chase(instance, sigma, max_steps=200, naive=True)
    assert incremental.status is naive.status
    if incremental.terminated:
        assert incremental.length == naive.length
        assert null_renaming_equivalent(incremental.instance, naive.instance)


# Head shapes the compiled settledness probe tells apart, each over an
# instance that leaves some triggers active and satisfies others.
HEAD_SHAPES = [
    # an existential variable shared by two head atoms: the join plan
    ("shared_existential_divergent", intro_alpha2(), intro_instance()),
    ("shared_existential", parse_constraints("S(x) -> E(x,y), T(y)"),
     parse_instance("S(a). S(b). E(a,c). T(c). E(b,d)")),
    # fully bound head atoms: has_row, one with a repeated frontier var
    ("repeated_frontier", parse_constraints("E(x,y) -> F(x,x,y)"),
     parse_instance("E(a,b). E(b,c). F(a,a,b). F(b,c,c)")),
    # one-row existence scans, one with a repeated existential var
    ("repeated_existential", parse_constraints("S(x) -> E(x,y,y)"),
     parse_instance("S(a). S(b). E(a,c,c). E(b,c,d)")),
    ("head_constant",
     parse_constraints("S(x) -> E(x,'k'), L('k',y); E(x,y) -> S(y)"),
     parse_instance("S(a). S(k). E(a,k). L(k,z)")),
    ("empty_body",
     [TGD([], [Atom("T", (Constant("c"),))]),
      TGD([], [Atom("S", (Variable("y"),))]),
      *parse_constraints("S(x) -> E(x,y)")],
     parse_instance("S(a). E(a,b)")),
    ("empty_body_shared_existential", parse_constraints("-> S(x), E(x,y)"),
     parse_instance("S(a)")),
    ("tgd_and_egd",
     parse_constraints("S(x) -> E(x,y,y); E(x,y,z), E(x,u,v) -> y = u"),
     parse_instance("S(a). E(a,b,c). S(d)")),
]

HEAD_SHAPE_STRATEGIES = {
    "ordered": OrderedStrategy,
    "round_robin": RoundRobinStrategy,
    # the capped active_triggers path (two candidates per constraint)
    "random_capped": lambda: RandomStrategy(seed=5, trigger_cap=2),
}


@pytest.mark.parametrize("name,sigma,instance", HEAD_SHAPES,
                         ids=[shape[0] for shape in HEAD_SHAPES])
@pytest.mark.parametrize("strategy", sorted(HEAD_SHAPE_STRATEGIES))
def test_head_shapes_incremental_matches_naive(name, sigma, instance,
                                               strategy):
    factory = HEAD_SHAPE_STRATEGIES[strategy]
    incremental = chase(instance, sigma, strategy=factory(), max_steps=60)
    naive = chase(instance, sigma, strategy=factory(), max_steps=60,
                  naive=True)
    assert incremental.status is naive.status
    if incremental.terminated:
        assert all_satisfied(sigma, incremental.instance)
        assert null_renaming_equivalent(incremental.instance, naive.instance)


@pytest.mark.parametrize("name,sigma,instance", HEAD_SHAPES,
                         ids=[shape[0] for shape in HEAD_SHAPES])
def test_head_shapes_oblivious_matches_naive(name, sigma, instance):
    incremental = oblivious_chase(instance, sigma, max_steps=60)
    naive = oblivious_chase(instance, sigma, max_steps=60, naive=True)
    assert incremental.status is naive.status
    if incremental.terminated:
        assert incremental.length == naive.length
        assert null_renaming_equivalent(incremental.instance, naive.instance)


def _active_by_enumeration(constraint, instance):
    """The active triggers of ``constraint`` by the naive definition."""
    out = set()
    for assignment in find_homomorphisms(list(constraint.body), instance):
        if constraint.is_tgd:
            active = not head_extends(constraint, instance, assignment)
        else:
            active = assignment[constraint.lhs] != assignment[constraint.rhs]
        if active:
            out.add(frozenset(assignment.items()))
    return out


@pytest.mark.parametrize("name,sigma,instance", HEAD_SHAPES,
                         ids=[shape[0] for shape in HEAD_SHAPES])
@pytest.mark.parametrize("backend", ["set", "column"])
def test_head_probe_matches_head_extends(name, sigma, instance, backend):
    """Before any step, the materialized queue holds exactly the body
    homomorphisms whose head does not extend."""
    inst = Instance(instance, backend=backend)
    index = TriggerIndex(sigma, inst)
    for constraint in sigma:
        pending = {frozenset(assignment.items())
                   for assignment in index.pending_assignments(constraint)}
        assert pending == _active_by_enumeration(constraint, inst)
    index.detach()


def test_capped_active_triggers_are_active_and_stable():
    sigma = parse_constraints("a: S(x) -> E(x,y,y)")
    inst = parse_instance("S(a). S(b). S(c). S(d). E(a,e,e). E(b,e,f)")
    index = TriggerIndex(sigma, inst)
    first = index.active_triggers(sigma[0], cap=2)
    assert len(first) == 2
    for assignment in first:
        assert not head_extends(sigma[0], inst, assignment)
    # Unfired triggers stay pending: the same two come back first.
    assert index.active_triggers(sigma[0], cap=2) == first
    assert len(index.active_triggers(sigma[0])) == 3  # a is satisfied
    index.detach()


def test_reference_engine_reaches_delta_search_and_head_checks(monkeypatch):
    """Inside ``reference_engine()`` the index's delta searches and head
    checks run on the reference search, never on the compiled id-level
    probes -- so the engine_parity oracle compares two independent
    paths."""
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "reference_find_homomorphisms_through",
                        counting("delta", engine
                                 .reference_find_homomorphisms_through))
    # head checks reach the full (unpinned) reference search
    monkeypatch.setattr(engine, "reference_find_homomorphisms",
                        counting("head", engine.reference_find_homomorphisms))
    monkeypatch.setattr(ColumnStore, "has_row",
                        counting("probe", ColumnStore.has_row))
    monkeypatch.setattr(ColumnStore, "scan",
                        counting("probe", ColumnStore.scan))
    sigma = parse_constraints("a: S(x) -> E(x,y); b: E(x,y) -> F(x,x,y)")
    facts = parse_instance("S(a). S(b). E(a,c). E(d,e). F(d,d,e)")

    with reference_engine():
        index = TriggerIndex(sigma, Instance(facts, backend="column"))
        under_reference = index.pending_count()
        index.detach()
    assert calls["delta"] > 0 and calls["head"] > 0
    assert calls["probe"] == 0

    calls.clear()
    index = TriggerIndex(sigma, Instance(facts, backend="column"))
    assert index.pending_count() == under_reference == 2
    index.detach()
    assert calls["delta"] == calls["head"] == 0
    assert calls["probe"] > 0


def test_stratified_cross_validation():
    """Theorem 2's stratum order terminates identically on both paths."""
    sigma = example4()
    incremental = chase(example4_instance(), sigma,
                        strategy=stratified_strategy(sigma, verify=True),
                        max_steps=400)
    naive = chase(example4_instance(), sigma,
                  strategy=stratified_strategy(sigma, verify=True),
                  max_steps=400, naive=True)
    assert incremental.terminated and naive.terminated
    assert null_renaming_equivalent(incremental.instance, naive.instance)


class TestPropertyCrossValidation:
    @given(graph_tgd_sets(max_size=2), graph_instances())
    @settings(max_examples=25, deadline=None)
    def test_random_tgd_sets_agree(self, sigma, inst):
        # Budget kept small: the *naive* reference side is quadratic in
        # the step count on divergent sets.
        incremental = chase(inst, sigma, strategy=OrderedStrategy(),
                            max_steps=80)
        naive = chase(inst, sigma, strategy=OrderedStrategy(),
                      max_steps=80, naive=True)
        assert incremental.status is naive.status
        if incremental.terminated:
            assert all_satisfied(sigma, incremental.instance)
            assert null_renaming_equivalent(incremental.instance,
                                            naive.instance)

    @given(graph_tgd_sets(max_size=2, allow_existential=False),
           graph_instances())
    @settings(max_examples=30, deadline=None)
    def test_random_strategy_incremental_sound(self, sigma, inst):
        result = chase(inst, sigma, strategy=RandomStrategy(seed=11),
                       max_steps=2000)
        assert result.terminated
        assert all_satisfied(sigma, result.instance)


class TestEdgeCases:
    def test_empty_body_tgd_fires_from_empty_instance(self):
        """Axiom TGDs (empty body) must be seeded explicitly: their
        empty homomorphism uses no fact, so no delta discovers it."""
        from repro.lang.atoms import Atom
        from repro.lang.constraints import TGD
        from repro.lang.instance import Instance
        from repro.lang.terms import Constant
        sigma = [TGD([], [Atom("S", (Constant("c"),))], label="axiom")]
        for naive in (False, True):
            result = chase(Instance(), sigma, naive=naive)
            assert result.terminated and result.length == 1
            assert len(result.instance) == 1

    def test_cross_product_body_cross_validates(self):
        """Disconnected (cross-product) bodies explode the homomorphism
        space; the lazy expansion must stay correct there."""
        sigma = parse_constraints("E(x,y), E(u,v), S(w) -> E(y,z), S(z)")
        inst = parse_instance("E(a,b). E(b,c). S(a). S(b)")
        incremental = chase(inst, sigma, max_steps=25)
        naive = chase(inst, sigma, max_steps=25, naive=True)
        assert incremental.status is naive.status is ChaseStatus.EXCEEDED_BUDGET

    def test_cross_product_body_terminating_agrees(self):
        sigma = parse_constraints("E(x,y), S(u) -> T(x,u)")
        inst = parse_instance("E(a,b). E(b,c). S(a). S(c)")
        incremental = chase(inst, sigma)
        naive = chase(inst, sigma, naive=True)
        assert incremental.terminated and naive.terminated
        assert incremental.instance == naive.instance


class TestTriggerIndexUnit:
    def test_seed_enumerates_initial_triggers(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a). S(b)")
        index = TriggerIndex(sigma, inst)
        assert index.pending_count(sigma[0]) == 2
        index.detach()

    def test_delta_discovers_new_triggers_only(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        index = TriggerIndex(sigma, inst)
        assert index.pending_count() == 1
        inst.add(parse_instance("S(b)").facts().pop())
        index.refresh()
        assert index.pending_count() == 2
        index.detach()

    def test_satisfied_triggers_are_never_enqueued(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a). E(a,b)")  # head already satisfied
        index = TriggerIndex(sigma, inst)
        assert index.next_active(sigma[0]) is None
        assert index.pending_count() == 0  # settled, remembered only
        index.detach()

    def test_removal_retires_triggers(self):
        from repro.lang.atoms import Atom
        from repro.lang.instance import Instance
        from repro.lang.terms import Constant, Null
        sigma = parse_constraints("a: E(x,y) -> T(x)")
        null = Null(901)
        inst = Instance([Atom("E", (Constant("a"), null))])
        index = TriggerIndex(sigma, inst)
        assert index.pending_count() == 1
        inst.substitute_term(null, Constant("b"))
        index.refresh()
        # the old trigger (through E(a, ?n901)) is retired; the new fact
        # E(a, b) yields a fresh trigger for the substituted assignment
        assignments = index.pending_assignments(sigma[0])
        assert len(assignments) == 1
        assert Constant("b") in assignments[0].values()
        index.detach()

    def test_stale_yields_of_a_suspended_expansion_are_dropped(self):
        """SetStore scans snapshot their candidates, so an expansion
        suspended before an EGD removal later yields rows whose image
        is gone; only live images may become triggers."""
        from repro.lang.terms import Null
        sigma = parse_constraints("a: S(x), E(x,y) -> T(y)")
        inst = Instance(parse_instance("S(a)"), backend="set")
        index = TriggerIndex(sigma, inst)
        inst.add_all(parse_instance("E(a,?n1). E(a,?n2). E(a,?n3). E(a,b)"))
        # expands S(a) first and suspends after one of its four rows
        assert index.next_active(sigma[0]) is not None
        for label in (1, 2, 3):
            inst.substitute_term(Null(label), Constant("b"))
        assert index.pending_assignments(sigma[0]) == [
            {Variable("x"): Constant("a"), Variable("y"): Constant("b")}]
        index.detach()

    def test_mark_fired_consumes_and_blocks_rediscovery(self):
        sigma = parse_constraints("a: E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,b)")
        index = TriggerIndex(sigma, inst, oblivious=True)
        constraint, assignment = index.pop_unfired()
        index.mark_fired(constraint, assignment)
        # Re-adding nothing: the fired trigger must not reappear.
        assert index.pop_unfired() is None
        index.detach()

    def test_oblivious_mode_keeps_satisfied_tgd_triggers(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a). E(a,b)")  # head already satisfied
        index = TriggerIndex(sigma, inst, oblivious=True)
        assert index.pop_unfired() is not None
        index.detach()

    def test_oblivious_mode_skips_trivial_egd_triggers(self):
        sigma = parse_constraints("a: E(x,y), E(y,x) -> x = y")
        inst = parse_instance("E(a,a)")
        index = TriggerIndex(sigma, inst, oblivious=True)
        assert index.pop_unfired() is None
        index.detach()

    def test_detach_stops_listening(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        index = TriggerIndex(sigma, inst)
        index.detach()
        inst.add(parse_instance("S(b)").facts().pop())
        index.refresh()
        assert index.pending_count() == 1  # never saw the new fact
