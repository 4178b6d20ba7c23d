"""Head-extension checks: the ``mu cannot be extended`` test.

A TGD ``forall x phi -> exists y psi`` is *applicable* to an instance
``I`` with homomorphism ``mu`` iff ``mu`` maps ``body`` into ``I`` and
cannot be extended to a homomorphism of the head (Section 2).  This
module provides that extension test plus full constraint-satisfaction
checks, both for instances and for fixed parameter vectors
(``alpha(a)`` in the paper's notation).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.homomorphism.engine import (Assignment, apply_assignment,
                                       find_homomorphism, find_homomorphisms,
                                       has_homomorphism)
from repro.lang.constraints import Constraint, EGD, TGD
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Variable


def head_extends(tgd: TGD, instance: Instance,
                 binding: Mapping[Variable, GroundTerm]) -> bool:
    """Can ``binding`` (on the universal variables) be extended to a
    homomorphism of the head into ``instance``?"""
    frontier = {var: binding[var] for var in tgd.frontier_variables()}
    return has_homomorphism(list(tgd.head), instance, partial=frontier)


def tgd_satisfied_for(tgd: TGD, instance: Instance,
                      binding: Mapping[Variable, GroundTerm]) -> bool:
    """``I |= alpha(a)`` for a TGD: if the grounded body is contained in
    the instance, the head must extend."""
    grounded_body = apply_assignment(tgd.body, binding)
    if any(not atom.is_ground for atom in grounded_body):
        raise ValueError("binding must ground the entire body")
    if not all(atom in instance for atom in grounded_body):
        return True
    return head_extends(tgd, instance, binding)


def egd_satisfied_for(egd: EGD, instance: Instance,
                      binding: Mapping[Variable, GroundTerm]) -> bool:
    """``I |= alpha(a)`` for an EGD."""
    grounded_body = apply_assignment(egd.body, binding)
    if not all(atom in instance for atom in grounded_body):
        return True
    return binding[egd.lhs] == binding[egd.rhs]


def constraint_satisfied_for(constraint: Constraint, instance: Instance,
                             binding: Mapping[Variable, GroundTerm]) -> bool:
    """``I |= alpha(a)`` dispatching on the constraint kind."""
    if isinstance(constraint, TGD):
        return tgd_satisfied_for(constraint, instance, binding)
    assert isinstance(constraint, EGD)
    return egd_satisfied_for(constraint, instance, binding)


def violation(constraint: Constraint, instance: Instance
              ) -> Optional[Assignment]:
    """An *active trigger*: a body homomorphism witnessing
    ``I not|= alpha``, or None when the constraint is satisfied."""
    if isinstance(constraint, TGD):
        for assignment in find_homomorphisms(list(constraint.body), instance):
            if not head_extends(constraint, instance, assignment):
                return assignment
        return None
    assert isinstance(constraint, EGD)
    for assignment in find_homomorphisms(list(constraint.body), instance):
        if assignment[constraint.lhs] != assignment[constraint.rhs]:
            return assignment
    return None


def is_satisfied(constraint: Constraint, instance: Instance) -> bool:
    """``I |= alpha`` (no active trigger exists)."""
    return violation(constraint, instance) is None


def all_satisfied(sigma, instance: Instance) -> bool:
    """``I |= Sigma``."""
    return all(is_satisfied(constraint, instance) for constraint in sigma)


def find_trigger(constraint: Constraint, instance: Instance
                 ) -> Optional[Assignment]:
    """Alias of :func:`violation` under the chase's terminology."""
    return violation(constraint, instance)


def find_oblivious_trigger(constraint: Constraint, instance: Instance,
                           exclude=None) -> Optional[Assignment]:
    """A body homomorphism regardless of satisfaction (oblivious chase),
    optionally skipping assignments whose key is in ``exclude``."""
    for assignment in find_homomorphisms(list(constraint.body), instance):
        if exclude is not None:
            key = trigger_key(constraint, assignment)
            if key in exclude:
                continue
        return assignment
    return None


def freeze_assignment(assignment: Mapping[Variable, GroundTerm]) -> tuple:
    """The canonical hashable form of a body assignment ``mu`` --
    sorted (variable-name, value) pairs.  Used where the key must be
    self-describing (chase-step records); the id-keyed variant
    :func:`freeze_assignment_ids` serves the naive oblivious runner."""
    return tuple(sorted(((var.name, value)
                         for var, value in assignment.items()),
                        key=lambda kv: kv[0]))


def freeze_assignment_ids(assignment: Mapping[Variable, GroundTerm],
                          table) -> tuple:
    """Like :func:`freeze_assignment`, but with each term interned to
    its dense id in ``table`` (a :class:`repro.storage.TermTable`) --
    two machine ints per variable instead of a boxed term hash.  The
    trigger identity of the naive oblivious runner's fired set."""
    intern = table.intern
    return tuple(sorted(
        (var.name, intern(value)) for var, value in assignment.items()))


def trigger_key(constraint: Constraint, assignment: Mapping[Variable, GroundTerm]
                ) -> tuple:
    """A hashable identity for (constraint, body image) pairs, used by
    the oblivious chase to fire each trigger exactly once."""
    return (constraint, freeze_assignment(assignment))
