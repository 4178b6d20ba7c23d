"""Unit tests for instances and their indexes."""

import pytest

from repro.lang.atoms import Atom, Position
from repro.lang.errors import SchemaError
from repro.lang.instance import Instance
from repro.lang.parser import parse_instance
from repro.lang.terms import Constant, Null, Variable

a, b, c = Constant("a"), Constant("b"), Constant("c")
n1, n2 = Null(1), Null(2)


class TestMutation:
    def test_add_dedup(self):
        inst = Instance()
        assert inst.add(Atom("E", (a, b)))
        assert not inst.add(Atom("E", (a, b)))
        assert len(inst) == 1

    def test_rejects_non_ground(self):
        with pytest.raises(SchemaError):
            Instance([Atom("E", (a, Variable("x")))])

    def test_discard(self):
        inst = Instance([Atom("E", (a, b))])
        assert inst.discard(Atom("E", (a, b)))
        assert not inst.discard(Atom("E", (a, b)))
        assert len(inst) == 0
        assert inst.matching("E", {0: a}) == set()

    def test_substitute_term_rewrites_and_reindexes(self):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (n1, b)),
                         Atom("S", (c,))])
        inst.substitute_term(n1, a)
        assert Atom("E", (a, a)) in inst
        assert Atom("E", (a, b)) in inst
        assert inst.matching("E", {0: n1}) == set()
        assert len(inst) == 3

    def test_substitute_can_merge_facts(self):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (a, b))])
        inst.substitute_term(n1, b)
        assert len(inst) == 1


class TestQueries:
    def test_matching_uses_bindings(self):
        inst = parse_instance("E(a,b). E(a,c). E(b,c)")
        assert len(inst.matching("E", {0: a})) == 2
        assert len(inst.matching("E", {0: a, 1: c})) == 1
        assert inst.matching("E", {0: c}) == set()
        assert len(inst.matching("E", {})) == 3

    def test_domain_constants_nulls(self):
        inst = Instance([Atom("E", (a, n1)), Atom("S", (b,))])
        assert inst.domain() == {a, b, n1}
        assert inst.constants() == {a, b}
        assert inst.nulls() == {n1}

    def test_positions_of(self):
        inst = Instance([Atom("E", (a, n1)), Atom("S", (n1,))])
        assert inst.positions_of(n1) == {Position("E", 2), Position("S", 1)}

    def test_positions_of_after_discard(self):
        inst = Instance([Atom("E", (a, n1))])
        inst.discard(Atom("E", (a, n1)))
        assert inst.positions_of(n1) == set()

    def test_relations(self):
        inst = parse_instance("E(a,b). S(a)")
        assert inst.relations() == {"E", "S"}


class TestConstruction:
    def test_copy_is_independent(self):
        inst = parse_instance("E(a,b)")
        clone = inst.copy()
        clone.add(Atom("S", (a,)))
        assert len(inst) == 1 and len(clone) == 2

    def test_union(self):
        left = parse_instance("E(a,b)")
        right = parse_instance("S(a)")
        merged = left | right
        assert len(merged) == 2 and len(left) == 1

    def test_equality_is_set_equality(self):
        assert parse_instance("E(a,b). S(a)") == parse_instance("S(a). E(a,b)")

    def test_render_deterministic(self):
        inst = parse_instance("S(b). S(a)")
        assert inst.render() == "S(a)\nS(b)"


class TestListeners:
    class Recorder:
        def __init__(self):
            self.added, self.removed = [], []

        def fact_added(self, fact):
            self.added.append(fact)

        def fact_removed(self, fact):
            self.removed.append(fact)

    def test_add_and_discard_notify(self):
        inst = Instance()
        rec = self.Recorder()
        inst.add_listener(rec)
        fact = Atom("E", (a, b))
        inst.add(fact)
        inst.add(fact)  # duplicate: no second event
        inst.discard(fact)
        assert rec.added == [fact] and rec.removed == [fact]

    def test_substitute_term_emits_removal_and_addition(self):
        inst = Instance([Atom("E", (a, n1))])
        rec = self.Recorder()
        inst.add_listener(rec)
        inst.substitute_term(n1, b)
        assert rec.removed == [Atom("E", (a, n1))]
        assert rec.added == [Atom("E", (a, b))]

    def test_merge_produces_no_addition_event(self):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (a, b))])
        rec = self.Recorder()
        inst.add_listener(rec)
        inst.substitute_term(n1, b)  # E(a,n1) collapses onto E(a,b)
        assert rec.removed == [Atom("E", (a, n1))] and rec.added == []

    def test_remove_listener(self):
        inst = Instance()
        rec = self.Recorder()
        inst.add_listener(rec)
        inst.remove_listener(rec)
        inst.add(Atom("S", (a,)))
        assert rec.added == []

    def test_copy_does_not_share_listeners(self):
        inst = Instance()
        rec = self.Recorder()
        inst.add_listener(rec)
        inst.copy().add(Atom("S", (a,)))
        assert rec.added == []


class TestIndexHygiene:
    def test_discard_prunes_empty_buckets(self):
        inst = Instance([Atom("E", (a, b))], backend="set")
        inst.discard(Atom("E", (a, b)))
        assert inst.store._by_term == {}
        assert inst.store._by_relation == {}
        assert inst.store._term_positions == {}

    def test_substitute_leaves_no_stale_term_entries(self):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (n1, b))],
                        backend="set")
        inst.substitute_term(n1, c)
        assert n1 not in inst.store._term_positions
        assert all(key[2] != n1 for key in inst.store._by_term)
        assert inst.positions_of(n1) == set()

    def test_domain_reflects_live_terms_only(self):
        inst = Instance([Atom("E", (a, b)), Atom("S", (c,))])
        inst.discard(Atom("S", (c,)))
        assert inst.domain() == {a, b}


class TestBackendSelection:
    def test_default_backend_is_column(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert Instance().backend == "column"

    def test_explicit_backend(self):
        inst = Instance([Atom("E", (a, b))], backend="column")
        assert inst.backend == "column"
        assert Atom("E", (a, b)) in inst

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "column")
        assert Instance().backend == "column"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchemaError):
            Instance(backend="btree")

    def test_copy_preserves_backend(self):
        inst = Instance([Atom("E", (a, b))], backend="column")
        clone = inst.copy()
        assert clone.backend == "column" and clone == inst

    def test_equality_across_backends(self):
        left = Instance([Atom("E", (a, b)), Atom("S", (c,))],
                        backend="set")
        right = Instance([Atom("S", (c,)), Atom("E", (a, b))],
                         backend="column")
        assert left == right
        right.discard(Atom("S", (c,)))
        assert left != right
