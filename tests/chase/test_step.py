"""Single chase-step tests."""

import pytest

from repro.chase.step import apply_egd_step, apply_step, apply_tgd_step
from repro.homomorphism.engine import apply_assignment
from repro.lang.atoms import Atom
from repro.lang.errors import ChaseFailure
from repro.lang.instance import Instance
from repro.lang.parser import parse_constraint, parse_instance
from repro.lang.terms import Constant, Null, NullFactory, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b = Constant("a"), Constant("b")


class TestTGDStep:
    def test_adds_grounded_head(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        step = apply_tgd_step(inst, tgd, {x: a}, nulls=NullFactory(start=900))
        assert step.new_facts == (Atom("E", (a, Null(900))),)
        assert step.new_nulls == (Null(900),)
        assert Atom("E", (a, Null(900))) in inst

    def test_full_tgd_creates_no_nulls(self):
        tgd = parse_constraint("E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,b)")
        step = apply_tgd_step(inst, tgd, {x: a, y: b})
        assert step.new_nulls == ()
        assert Atom("E", (b, a)) in inst

    def test_duplicate_head_atoms_not_reported(self):
        tgd = parse_constraint("E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,a)")
        step = apply_tgd_step(inst, tgd, {x: a, y: a})
        assert step.new_facts == ()

    def test_assignment_frozen_deterministically(self):
        tgd = parse_constraint("E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,b)")
        step = apply_tgd_step(inst, tgd, {y: b, x: a})
        assert step.assignment == (("x", a), ("y", b))
        assert step.assignment_dict() == {x: a, y: b}


# (TGD, instance, frontier binding by variable name)
TEMPLATE_CASES = [
    ("S(x) -> E(x,y), T(y)", "S(a)", {"x": "a"}),
    # a null-free head atom that already exists is not reported
    ("S(x) -> T(x), E(x,y)", "S(a). T(a)", {"x": "a"}),
    ("E(x,y) -> E(y,x), S(x)", "E(a,b). S(a)", {"x": "a", "y": "b"}),
    ("E(x,y) -> E(y,x)", "E(a,b). E(b,a)", {"x": "a", "y": "b"}),
    # repeated frontier / existential variables, head constants
    ("E(x,y) -> F(x,x,y), G(y,z,z,'k')", "E(a,b)", {"x": "a", "y": "b"}),
    ("S(x) -> E(x,'k'), L('k',y)", "S(a). E(a,k)", {"x": "a"}),
    # a duplicated head atom: written once, its null counted once
    ("S(x) -> E(x,y), E(x,y)", "S(a)", {"x": "a"}),
    ("-> S(x), E(x,y)", "", {}),
    # a factory colliding with an input null: the head atom holding the
    # "fresh" null already exists, so the null is not reported
    ("S(x) -> E(x,y), T(x)", "S(a). E(a,?n500)", {"x": "a"}),
]


class TestTemplatedTGDStep:
    """The id-level head templates report exactly what grounding the
    head with ``apply_assignment`` and ``add_all`` does."""

    @pytest.mark.parametrize("backend", ["set", "column"])
    @pytest.mark.parametrize("tgd_text,facts,binding", TEMPLATE_CASES,
                             ids=[case[0] for case in TEMPLATE_CASES])
    def test_matches_term_level_step(self, backend, tgd_text, facts,
                                     binding):
        tgd = parse_constraint(tgd_text)
        inst = Instance(parse_instance(facts), backend=backend)
        expected_inst = inst.copy()
        assignment = {Variable(name): Constant(value)
                      for name, value in binding.items()}
        step = apply_tgd_step(inst, tgd, assignment,
                              nulls=NullFactory(start=500))

        factory = NullFactory(start=500)
        extension = dict(assignment)
        fresh = []
        for var in sorted(tgd.existential_variables(),
                          key=lambda v: v.name):
            extension[var] = factory.fresh()
            fresh.append(extension[var])
        expected = expected_inst.add_all(
            apply_assignment(tgd.head, extension))
        used = {null for fact in expected for null in fact.nulls()}
        assert step.new_facts == tuple(expected)
        assert step.new_nulls == tuple(null for null in fresh
                                       if null in used)
        assert inst == expected_inst

    def test_reinserted_fact_is_reported_again(self):
        """A fact removed by an EGD substitution and written again by a
        later step is new again (the column store reuses its id)."""
        tgd = parse_constraint("S(x) -> T(x)")
        inst = Instance(parse_instance("S(a). T(?n1)"), backend="column")
        inst.substitute_term(Null(1), Constant("b"))
        inst.discard(Atom("T", (Constant("b"),)))
        first = apply_tgd_step(inst, tgd, {x: b})
        assert first.new_facts == (Atom("T", (b,)),)
        assert apply_tgd_step(inst, tgd, {x: b}).new_facts == ()


class TestEGDStep:
    def test_null_substituted_by_constant(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,b). E(a,?n1)")
        binding = {Variable("u"): a, Variable("v"): b, Variable("w"): Null(1)}
        step = apply_egd_step(inst, egd, binding)
        assert step.substitution == (Null(1), b)
        assert inst == parse_instance("E(a,b)")

    def test_prefers_removing_the_null(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,?n1). E(a,b)")
        binding = {Variable("u"): a, Variable("v"): Null(1), Variable("w"): b}
        step = apply_egd_step(inst, egd, binding)
        assert step.substitution == (Null(1), b)

    def test_two_constants_fail(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,b). E(a,c)")
        binding = {Variable("u"): a, Variable("v"): b,
                   Variable("w"): Constant("c")}
        with pytest.raises(ChaseFailure):
            apply_egd_step(inst, egd, binding)

    def test_equal_values_rejected(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,b)")
        binding = {Variable("u"): a, Variable("v"): b, Variable("w"): b}
        with pytest.raises(ValueError):
            apply_egd_step(inst, egd, binding)


class TestDispatch:
    def test_apply_step_dispatches(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        step = apply_step(inst, tgd, {x: a})
        assert step.constraint is tgd
        assert not step.oblivious

    def test_describe_mentions_constraint(self):
        tgd = parse_constraint("lbl: S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        step = apply_step(inst, tgd, {x: a}, oblivious=True)
        assert "lbl" in step.describe()
        assert "*" in step.describe()
