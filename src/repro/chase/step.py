"""Single chase steps (standard and oblivious) and their records.

A standard chase step ``I --(alpha, mu(x))--> J`` (Section 2):

* for a TGD, extend ``mu`` by fresh labeled nulls for the existential
  variables and add the grounded head atoms;
* for an EGD with ``mu(x_i) != mu(x_j)``, substitute one value by the
  other, preferring to eliminate a labeled null; if both are constants
  the chase *fails* (result undefined).

The oblivious variant differs only in its applicability condition
(checked by the caller): the body merely has to map, the head may
already be satisfied.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.homomorphism.engine import Assignment
from repro.homomorphism.extend import freeze_assignment as _freeze_assignment
from repro.homomorphism.plan import tuple_getter
from repro.lang.atoms import Atom
from repro.lang.constraints import Constraint, EGD, TGD
from repro.lang.errors import ChaseFailure
from repro.lang.instance import Instance
from repro.lang.terms import (GroundTerm, Null, NullFactory, NULLS, Variable)
from repro.storage.interning import TermTable


@dataclass(frozen=True)
class ChaseStep:
    """A record of one executed chase step."""

    index: int
    constraint: Constraint
    assignment: Tuple[Tuple[str, GroundTerm], ...]
    new_facts: Tuple[Atom, ...]
    new_nulls: Tuple[Null, ...]
    substitution: Optional[Tuple[GroundTerm, GroundTerm]] = None
    oblivious: bool = False

    def assignment_dict(self) -> dict[Variable, GroundTerm]:
        """The body assignment ``mu`` as a variable -> term mapping."""
        return {Variable(name): value for name, value in self.assignment}

    def describe(self) -> str:
        """The paper's arrow notation ``--(alpha, mu(x))-->`` (Section 2)."""
        params = ", ".join(f"{name}={value}"
                           for name, value in self.assignment)
        marker = "*," if self.oblivious else ""
        name = self.constraint.display_name()
        return f"--({marker}{name}, {params})-->"


class _HeadTemplate:
    """A TGD head compiled to interned-id rows.

    A step fills one *slot row* -- the frontier values' ids (sorted by
    variable name), then the fresh nulls' ids (one per existential
    variable, sorted by name), then the head constants' ids -- and each
    head atom's argument ids are one C-level gather from it.  Constant
    ids depend on the store's term table, so they are resolved once per
    table and memoized against it.
    """

    __slots__ = ("frontier", "existentials", "constants", "atoms",
                 "_memo")

    def __init__(self, tgd: TGD) -> None:
        by_name = lambda var: var.name  # noqa: E731
        self.frontier = tuple(sorted(tgd.frontier_variables(), key=by_name))
        self.existentials = tuple(sorted(tgd.existential_variables(),
                                         key=by_name))
        slot = {var: index for index, var
                in enumerate(self.frontier + self.existentials)}
        constants: list = []
        atoms = []
        for atom in tgd.head:
            slots = []
            for arg in atom.args:
                if not isinstance(arg, Variable):
                    if arg not in slot:
                        slot[arg] = len(slot)
                        constants.append(arg)
                slots.append(slot[arg])
            nulls = frozenset(slot[var] - len(self.frontier)
                              for var in atom.variables()
                              if var in self.existentials)
            atoms.append((atom.relation, tuple_getter(slots), nulls))
        self.constants: Tuple[GroundTerm, ...] = tuple(constants)
        self.atoms = tuple(atoms)
        #: (weak reference to a table, the constants' ids in it) --
        #: one attribute, so a reader never pairs one table's ids with
        #: another table
        self._memo: Optional[tuple] = None

    def constant_ids(self, table: TermTable) -> Tuple[int, ...]:
        """The head constants' ids in ``table`` (memoized per table)."""
        if not self.constants:
            return ()
        memo = self._memo
        if memo is not None and memo[0]() is table:
            return memo[1]
        intern = table.intern
        ids = tuple(intern(term) for term in self.constants)
        self._memo = (weakref.ref(table), ids)
        return ids


@lru_cache(maxsize=4096)
def _head_template(tgd: TGD) -> _HeadTemplate:
    return _HeadTemplate(tgd)


def apply_tgd_step(instance: Instance, tgd: TGD, assignment: Assignment,
                   index: int = 0, oblivious: bool = False,
                   nulls: NullFactory = NULLS) -> ChaseStep:
    """Execute a TGD step in place and return its record.

    The head is written as interned-id rows through the store's
    id-level insert (:meth:`repro.storage.base.FactStore.add_row`);
    fresh nulls are drawn in existential-variable name order.
    """
    template = _head_template(tgd)
    store = instance.store
    table = store.terms
    intern = table.intern
    fresh = [nulls.fresh() for _ in template.existentials]
    slots = (tuple([intern(assignment[var]) for var in template.frontier])
             + tuple([intern(null) for null in fresh])
             + template.constant_ids(table))
    add_row = store.add_row
    new_facts = []
    used: set = set()
    for relation, gather, null_slots in template.atoms:
        fact = add_row(relation, gather(slots))
        if fact is not None:
            new_facts.append(fact)
            used |= null_slots
    # Only count nulls that actually made it into a new fact.
    created = tuple(null for slot, null in enumerate(fresh) if slot in used)
    return ChaseStep(index=index, constraint=tgd,
                     assignment=_freeze_assignment(assignment),
                     new_facts=tuple(new_facts), new_nulls=created,
                     oblivious=oblivious)


def apply_egd_step(instance: Instance, egd: EGD, assignment: Assignment,
                   index: int = 0, oblivious: bool = False) -> ChaseStep:
    """Execute an EGD step in place; raises :class:`ChaseFailure` when
    both terms are constants."""
    left = assignment[egd.lhs]
    right = assignment[egd.rhs]
    if left == right:
        raise ValueError("EGD step requires mu(x_i) != mu(x_j)")
    if isinstance(right, Null):
        old, new = right, left
    elif isinstance(left, Null):
        old, new = left, right
    else:
        raise ChaseFailure(
            f"EGD {egd.display_name()} equates distinct constants "
            f"{left} and {right}")
    changed = instance.substitute_term(old, new)
    return ChaseStep(index=index, constraint=egd,
                     assignment=_freeze_assignment(assignment),
                     new_facts=tuple(changed), new_nulls=(),
                     substitution=(old, new), oblivious=oblivious)


def apply_step(instance: Instance, constraint: Constraint,
               assignment: Assignment, index: int = 0,
               oblivious: bool = False,
               nulls: NullFactory = NULLS) -> ChaseStep:
    """Dispatch on the constraint kind."""
    if isinstance(constraint, TGD):
        return apply_tgd_step(instance, constraint, assignment, index,
                              oblivious, nulls)
    assert isinstance(constraint, EGD)
    return apply_egd_step(instance, constraint, assignment, index, oblivious)
