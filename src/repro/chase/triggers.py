"""Incremental trigger discovery: the semi-naive chase index.

The naive runners re-enumerate every body homomorphism of every
constraint on each ``select()`` call -- quadratic in the chase length.
:class:`TriggerIndex` replaces that with the semi-naive discipline of
datalog evaluation, kept *lazy* at homomorphism granularity:

* **Seed.** Every fact of the input instance is queued as a delta
  (the seed is just the first batch of deltas).
* **Delta.** The index registers as an
  :class:`repro.lang.instance.InstanceListener` on the working
  instance.  Every added fact is routed to a per-constraint *backlog*;
  every removed fact (EGD substitutions) retires the pending triggers
  whose body image used it.
* **Expand.** Backlog facts are expanded only when a selection needs
  more active triggers than are materialized: the delta-restricted
  search (:func:`repro.homomorphism.engine.find_homomorphisms_through`)
  enumerates exactly the homomorphisms using the fact, and the
  enumeration is *suspended* as soon as enough active triggers have
  been found.  On divergent runs an active trigger is almost always at
  hand, so almost nothing is expanded -- matching the naive path's
  first-violation short-circuit -- while terminating runs drain every
  backlog at the final satisfaction check (a selection answers "no
  trigger" only with an empty backlog), which keeps the index complete.
* **Select.** Strategies ask for the next *active* trigger
  (Section 2: the body maps but the head does not extend / the EGD
  equates distinct terms).  Satisfied homomorphisms are remembered but
  never enqueued, and pending triggers found satisfied later are
  dropped **permanently**: new facts can only help a TGD head extend,
  and an EGD substitution that could disturb a satisfied trigger
  necessarily rewrites its body image, which retires the trigger
  through the delta feed first.

Everything on the trigger hot path is an interned integer id from the
working instance's store:

* **Id rows.**  The delta search runs through
  :func:`repro.homomorphism.engine.find_homomorphisms_through` with a
  projection onto the constraint's body variables in a fixed order
  (sorted by name), so each body homomorphism arrives as a tuple of
  term ids -- and that row *is* the trigger key (the paper's
  ``(alpha, mu(x))`` naming of chase steps, Section 2).  Under
  :func:`repro.homomorphism.engine.reference_engine` the same call
  runs the reference search, whose assignments are interned into the
  same rows.
* **Image check.**  Each body atom is compiled to a gather over the
  row (plus the ids of the constraint's constants); its image is one
  :meth:`repro.storage.base.FactStore.row_fid` probe, which also yields
  the fact ids of the fact -> pending-trigger reverse map.
* **Head probe.**  Settledness is decided by a probe compiled once per
  TGD: an id-level ``has_row`` for every fully bound head atom, a
  one-row existence ``scan`` for an atom with existential positions
  (checking repeated existential variables within it), and the join
  plan -- through :func:`repro.homomorphism.extend.head_extends` --
  only when an existential variable is shared by two head atoms (or
  under the reference engine).  Satisfied frontiers are cached as
  tuples of ids.
* **Queues.**  The delta queue and per-constraint backlogs carry
  permanent *fact ids* (:meth:`repro.storage.base.FactStore.fact_id`
  -- stable across EGD remove/re-add cycles).

Per trigger, no ``Atom`` or ground term is built or hashed on the
columnar store, where every probe is an array or dict lookup: an
:data:`~repro.homomorphism.engine.Assignment` is decoded only when a
trigger is handed to a strategy.  The term-level work left is
pinning each backlog fact into the delta search (its bound arguments
are interned once per expansion) and interning a fired trigger's
assignment back into its key (:meth:`TriggerIndex.mark_fired`).

Keys once seen are never re-enqueued, and a suspended enumeration
stays sound across instance mutations, for the same underlying
reason: facts are only ever removed by EGD substitutions eliminating
a labeled null, null labels are globally fresh
(:class:`repro.lang.terms.NullFactory`), so a removed fact -- and
hence a retired assignment -- can never come back.  Homomorphisms
that appear *after* a suspension use a newly added fact and are found
through that fact's own backlog entry; rows yielded from stale
enumeration state are filtered by re-validating their body image
against the live instance.

The oblivious mode (Section 3.3's chase variant) keeps every pending
body homomorphism eligible regardless of head satisfaction and relies
on :meth:`TriggerIndex.mark_fired` to consume each exactly once.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from repro.homomorphism.engine import (Assignment,
                                       find_homomorphisms_through,
                                       reference_mode_active)
from repro.homomorphism.extend import head_extends
from repro.homomorphism.plan import tuple_getter
from repro.lang.constraints import Constraint, EGD, TGD
from repro.lang.instance import Instance
from repro.lang.terms import Variable
from repro.obs.metrics import OBS
from repro.storage.base import FactId, FactStore

#: Hashable identity of a trigger within one constraint: the body
#: assignment ``mu`` as a row of interned term ids, one per body
#: variable in the constraint's fixed order (sorted by name).
TriggerKey = Tuple[int, ...]


class _Rule:
    """One constraint's compiled id-level templates and index state.

    Templates work on the *slot row* of a trigger: its key followed by
    the ids of the constants the constraint mentions.  From it, one
    C-level gather yields each body atom's image row, the frontier key
    and each head atom's bound arguments.
    """

    __slots__ = ("constraint", "body", "variables", "constants", "image",
                 "equates", "frontier", "head", "pending", "seen",
                 "backlog", "expanding", "satisfied", "prune")

    def __init__(self, constraint: Constraint, intern,
                 oblivious: bool) -> None:
        self.constraint = constraint
        self.body = list(constraint.body)
        self.variables: Tuple[Variable, ...] = tuple(sorted(
            constraint.body_variables(), key=lambda var: var.name))
        slot = {var: index for index, var in enumerate(self.variables)}
        constants: List[int] = []

        def slot_of(arg) -> int:
            if isinstance(arg, Variable):
                return slot[arg]
            if arg not in slot:
                slot[arg] = len(slot)
                constants.append(intern(arg))
            return slot[arg]

        #: (relation, arity, gather) per body atom: the image check
        self.image = tuple((atom.relation, atom.arity,
                            tuple_getter([slot_of(arg)
                                          for arg in atom.args]))
                           for atom in constraint.body)
        #: EGD: the two key slots that must differ for activity
        self.equates: Optional[Tuple[int, int]] = None
        self.frontier: Callable = tuple_getter(())
        #: TGD head probe: per head atom (relation, arity, gather of
        #: the bound arguments, the scan's bound positions or None when
        #: the atom is fully bound, repeated-existential position
        #: pairs); None when the join plan has to decide (an
        #: existential variable shared by two head atoms)
        self.head: Optional[tuple] = None
        frontier: List[Variable] = []
        if isinstance(constraint, EGD):
            self.equates = (slot[constraint.lhs], slot[constraint.rhs])
        elif isinstance(constraint, TGD):
            frontier = sorted(constraint.frontier_variables(),
                              key=lambda var: var.name)
            self.frontier = tuple_getter([slot[var] for var in frontier])
            self.head = self._compile_head(constraint, slot_of)
        self.constants: Tuple[int, ...] = tuple(constants)
        #: materialized triggers that were active when discovered, in
        #: discovery order
        self.pending: Dict[TriggerKey, None] = {}
        #: every key ever discovered (pending, fired, settled)
        self.seen: Set[TriggerKey] = set()
        #: added fact ids not yet expanded
        self.backlog: Deque[FactId] = deque()
        #: suspended delta enumeration of the backlog fact in expansion
        self.expanding: Optional[Iterator[TriggerKey]] = None
        #: frontier keys whose TGD head is known to extend; sound to
        #: cache because satisfaction is permanent (module docstring)
        self.satisfied: Set[tuple] = set()
        self.prune = self._prune(frontier, intern, oblivious)

    @staticmethod
    def _compile_head(tgd: TGD, slot_of) -> Optional[tuple]:
        existentials = tgd.existential_variables()
        holders: Dict[Variable, int] = {}
        for atom in tgd.head:
            for var in atom.variables() & existentials:
                holders[var] = holders.get(var, 0) + 1
        if any(count > 1 for count in holders.values()):
            return None
        probes = []
        for atom in tgd.head:
            bound_positions: List[int] = []
            bound_slots: List[int] = []
            first: Dict[Variable, int] = {}
            repeats: List[Tuple[int, int]] = []
            for position, arg in enumerate(atom.args):
                if arg in existentials:
                    if arg in first:
                        repeats.append((position, first[arg]))
                    else:
                        first[arg] = position
                else:
                    bound_positions.append(position)
                    bound_slots.append(slot_of(arg))
            probes.append((atom.relation, atom.arity,
                           tuple_getter(bound_slots),
                           tuple(bound_positions) if first else None,
                           tuple(repeats)))
        return tuple(probes)

    def _prune(self, frontier_vars: List[Variable], intern,
               oblivious: bool):
        """A search-pruning predicate for the delta enumeration.

        Prunes subtrees guaranteed to yield only settled homomorphisms:
        TGD bindings whose fully-bound frontier is cached as satisfied
        (every completion shares that frontier), and EGD bindings that
        already equate the two sides (every completion stays trivial).
        Sound in the standard chase only -- the oblivious chase must
        fire satisfied TGD triggers, so there no pruning happens.

        The predicates accept both binding flavours: the plan engine
        calls them with interned ids (int equality, direct cache
        lookups), the reference engine with ground terms (interned on
        the fly for the frontier cache).
        """
        constraint = self.constraint
        if isinstance(constraint, EGD):
            lhs, rhs = constraint.lhs, constraint.rhs

            def prune_egd(binding):
                left = binding.get(lhs)
                return left is not None and left == binding.get(rhs)
            # Declaring the variables the predicate reads lets the plan
            # executor abandon a whole scan on the first True when the
            # scanned atom binds none of them (the predicate's answer
            # cannot change row to row).
            prune_egd.depends_on = frozenset((lhs, rhs))
            return prune_egd
        if oblivious:
            return None
        cache = self.satisfied
        frontier_vars = tuple(frontier_vars)

        def prune_tgd(binding):
            values = []
            for var in frontier_vars:
                value = binding.get(var)
                if value is None:
                    return False
                values.append(value if type(value) is int
                              else intern(value))
            return tuple(values) in cache
        prune_tgd.depends_on = frozenset(frontier_vars)
        return prune_tgd

    def slots(self, key: TriggerKey) -> tuple:
        """The slot row of a trigger key."""
        return key + self.constants if self.constants else key

    def head_holds(self, store: FactStore, slots: tuple) -> bool:
        """Does the TGD head extend under the frontier in ``slots``?
        ``has_row`` per fully bound head atom, a one-row existence scan
        per atom with existential positions."""
        has_row = store.has_row
        scan = store.scan
        for relation, arity, gather, positions, repeats in self.head:
            bound = gather(slots)
            if positions is None:
                if not has_row(relation, arity, bound):
                    return False
                continue
            for row in scan(relation, arity, list(zip(positions, bound))):
                if all(row[left] == row[right] for left, right in repeats):
                    break
            else:
                return False
        return True


class TriggerIndex:
    """Maintains the pending-trigger set of a chase run incrementally.

    Attach to the *working* instance of a run; the index registers
    itself as a change listener and must be :meth:`detach`-ed when the
    run ends (the runners do this in a ``finally`` block).

    ``oblivious=True`` switches the activity condition to the
    oblivious chase's: any unfired body homomorphism is a trigger,
    except EGD triggers that equate a term with itself.
    """

    def __init__(self, sigma: Iterable[Constraint], instance: Instance,
                 oblivious: bool = False) -> None:
        self._sigma: List[Constraint] = list(sigma)
        self._instance = instance
        self._store = instance.store
        self._table = instance.store.terms
        self._oblivious = oblivious
        intern = self._table.intern
        self._rules: Dict[Constraint, _Rule] = {}
        for constraint in self._sigma:
            if constraint not in self._rules:
                self._rules[constraint] = _Rule(constraint, intern,
                                                oblivious)
        #: fact id -> pending triggers whose body image uses the fact
        self._by_fact: Dict[FactId, Set[Tuple[_Rule, TriggerKey]]] = {}
        #: inverted routing map: relation -> rules whose body mentions
        #: it, so refresh() is O(interested constraints) per added fact
        self._rules_by_relation: Dict[str, List[_Rule]] = {}
        for rule in self._rules.values():
            for relation in {atom.relation for atom in rule.body}:
                self._rules_by_relation.setdefault(relation,
                                                   []).append(rule)
        #: buffered deltas: (op, fact id)
        self._events: Deque[Tuple[str, FactId]] = deque()
        self._attached = False
        instance.add_listener(self)
        self._attached = True
        # Lazy seed: the input facts are simply the first deltas.
        for fact in instance:
            self.fact_added(fact)
        # Empty-body TGDs (axioms) have the empty homomorphism as their
        # one body trigger; its image uses no fact, so delta discovery
        # would never surface it -- seed it explicitly.
        for rule in self._rules.values():
            if not rule.body:
                rule.seen.add(())
                if not self._settled(rule, ()):
                    rule.pending[()] = None

    # ------------------------------------------------------------------
    # Trigger identity
    # ------------------------------------------------------------------
    def _freeze(self, rule: _Rule, assignment: Assignment) -> TriggerKey:
        """The trigger key of a body assignment ``mu``."""
        intern = self._table.intern
        return tuple([intern(assignment[var]) for var in rule.variables])

    def _decode(self, rule: _Rule, key: TriggerKey) -> Assignment:
        """The body assignment ``mu`` of a trigger key."""
        return dict(zip(rule.variables, map(self._table.term, key)))

    # ------------------------------------------------------------------
    # InstanceListener protocol: buffer deltas, processed on refresh()
    # ------------------------------------------------------------------
    def fact_added(self, fact) -> None:
        """Record an insertion delta (processed lazily by refresh)."""
        self._events.append(("+", self._store.fact_id(fact)))

    def fact_removed(self, fact) -> None:
        """Record a removal delta (processed lazily by refresh).

        Fact ids are permanent (they survive removal), so the id still
        resolves when the event is drained.
        """
        self._events.append(("-", self._store.fact_id(fact)))

    def detach(self) -> None:
        """Stop listening to the instance (idempotent)."""
        if self._attached:
            self._instance.remove_listener(self)
            self._attached = False

    # ------------------------------------------------------------------
    # Delta consumption
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Drain buffered deltas: retire dead triggers, route added
        facts to the per-constraint backlogs (expanded lazily).

        Called automatically by every selection method; cheap when no
        mutation happened since the last call.
        """
        if self._events and OBS.enabled:
            OBS.inc("triggers.deltas", len(self._events))
        while self._events:
            op, fid = self._events.popleft()
            if op == "-":
                self._retire_fact(fid)
                continue
            relation = self._store.fact_of(fid).relation
            for rule in self._rules_by_relation.get(relation, ()):
                rule.backlog.append(fid)

    def _retire_fact(self, fid: FactId) -> None:
        for rule, key in self._by_fact.pop(fid, ()):
            rule.pending.pop(key, None)

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------
    def _settled(self, rule: _Rule, key: TriggerKey) -> bool:
        """Is the trigger *inactive for good* (safe to drop)?

        Standard chase: a satisfied trigger stays satisfied while its
        body image survives (see module docstring), so ``True`` means
        the trigger can be removed permanently.  Oblivious chase: only
        trivial EGD triggers (``mu(x_i) = mu(x_j)``) are settled.
        """
        if rule.equates is not None:
            left, right = rule.equates
            return key[left] == key[right]
        if self._oblivious:
            return False
        # Satisfaction only depends on the frontier binding, and stays
        # true once established -- so one check covers every body
        # homomorphism sharing the frontier (a big saving for bodies
        # with non-frontier join variables).
        slots = rule.slots(key)
        frontier = rule.frontier(slots)
        if frontier in rule.satisfied:
            if OBS.enabled:
                OBS.inc("triggers.frontier_prune_hits")
            return True
        if rule.head is None or reference_mode_active():
            holds = head_extends(rule.constraint, self._instance,
                                 self._decode(rule, key))
        else:
            holds = rule.head_holds(self._store, slots)
        if holds:
            rule.satisfied.add(frontier)
        return holds

    # ------------------------------------------------------------------
    # Expansion (lazy semi-naive delta search)
    # ------------------------------------------------------------------
    def _expand_backlog(self, rule: _Rule, found: Dict[TriggerKey, None],
                        cap: Optional[int]) -> None:
        """Expand backlog facts until ``cap`` active triggers are in
        ``found`` or nothing is left to expand.

        The enumeration for the fact currently being expanded is kept
        suspended between calls; yielded rows are re-validated against
        the live instance (module docstring explains why this is sound
        across mutations).
        """
        store = self._store
        row_fid = store.row_fid
        by_fact = self._by_fact
        seen = rule.seen
        pending = rule.pending
        backlog = rule.backlog
        image = rule.image
        while True:
            enumeration = rule.expanding
            if enumeration is None:
                fact = None
                while backlog:
                    candidate = backlog.popleft()
                    if store.alive(candidate):
                        fact = store.fact_of(candidate)
                        break
                if fact is None:
                    return
                if OBS.enabled:
                    OBS.inc("triggers.backlog_expanded")
                    OBS.observe("triggers.backlog_depth", len(backlog))
                enumeration = find_homomorphisms_through(
                    rule.body, self._instance, fact, prune=rule.prune,
                    project=rule.variables)
                rule.expanding = enumeration
            for key in enumeration:
                if key in seen:
                    continue
                slots = rule.slots(key)
                image_fids = []
                for relation, arity, gather in image:
                    fid = row_fid(relation, arity, gather(slots))
                    if fid is None:
                        break  # an image fact was removed: stale yield
                    image_fids.append(fid)
                else:
                    seen.add(key)
                    if self._settled(rule, key):
                        continue  # remembered, never enqueued
                    pending[key] = None
                    entry = (rule, key)
                    for fid in image_fids:
                        holders = by_fact.get(fid)
                        if holders is None:
                            by_fact[fid] = {entry}
                        else:
                            holders.add(entry)
                    found[key] = None
                    if cap is not None and len(found) >= cap:
                        return  # enumeration stays suspended
            rule.expanding = None  # fact fully expanded

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _collect_active(self, rule: _Rule, found: Dict[TriggerKey, None],
                        cap: Optional[int]) -> None:
        """One pass over the materialized queue: drop settled triggers,
        collect active ones not yet in ``found`` (up to ``cap``)."""
        pending = rule.pending
        settled: List[TriggerKey] = []
        for key in pending:
            if key in found:
                continue
            if self._settled(rule, key):
                settled.append(key)
                continue
            found[key] = None
            if cap is not None and len(found) >= cap:
                break
        if settled and OBS.enabled:
            OBS.inc("triggers.settled_dropped", len(settled))
        for key in settled:
            del pending[key]

    def tracks(self, constraint: Constraint) -> bool:
        """Is ``constraint`` part of the indexed set?  (Strategies fall
        back to naive enumeration for untracked constraints.)"""
        return constraint in self._rules

    def active_triggers(self, constraint: Constraint,
                        cap: Optional[int] = None) -> List[Assignment]:
        """Up to ``cap`` pending active triggers of ``constraint``
        (all of them when ``cap`` is None), dropping satisfied ones.

        Expands backlog deltas only while fewer than ``cap`` active
        triggers are materialized, so divergent runs -- where an active
        trigger is always at hand -- do almost no delta searching.
        Only the returned triggers are decoded into assignments.
        """
        self.refresh()
        rule = self._rules[constraint]
        found: Dict[TriggerKey, None] = {}
        self._collect_active(rule, found, cap)
        if cap is None or len(found) < cap:
            self._expand_backlog(rule, found, cap)
        return [self._decode(rule, key) for key in found]

    def next_active(self, constraint: Constraint) -> Optional[Assignment]:
        """The first pending active trigger of ``constraint``, or None
        (None is definitive: the backlog has been fully drained).

        Satisfied triggers encountered on the way are dropped
        permanently; the returned trigger stays pending until it is
        fired (:meth:`mark_fired`) or its body image is rewritten.
        """
        found = self.active_triggers(constraint, cap=1)
        return found[0] if found else None

    def pop_unfired(self) -> Optional[Tuple[Constraint, Assignment]]:
        """The next unfired trigger in constraint order (oblivious runs)."""
        for constraint in self._sigma:
            assignment = self.next_active(constraint)
            if assignment is not None:
                return constraint, assignment
        return None

    def mark_fired(self, constraint: Constraint,
                   assignment: Assignment) -> None:
        """Consume a trigger that was just executed (it stays *seen*,
        so it can never be re-discovered and re-fired)."""
        rule = self._rules[constraint]
        rule.pending.pop(self._freeze(rule, assignment), None)

    # ------------------------------------------------------------------
    # Introspection (tests, diagnostics)
    # ------------------------------------------------------------------
    def _materialize(self, rule: _Rule) -> None:
        """Expand the full backlog of ``rule`` (introspection)."""
        self.refresh()
        self._expand_backlog(rule, {}, None)

    def pending_count(self, constraint: Optional[Constraint] = None) -> int:
        """Number of pending (discovered-active, not yet retired/fired)
        triggers, after materializing any outstanding backlog."""
        targets = ([self._rules[constraint]] if constraint is not None
                   else list(self._rules.values()))
        for rule in targets:
            self._materialize(rule)
        return sum(len(rule.pending) for rule in targets)

    def pending_assignments(self, constraint: Constraint
                            ) -> List[Assignment]:
        """A snapshot of the pending queue of ``constraint`` (in
        discovery order, without activity re-filtering), after
        materializing any outstanding backlog."""
        rule = self._rules[constraint]
        self._materialize(rule)
        return [self._decode(rule, key) for key in rule.pending]
