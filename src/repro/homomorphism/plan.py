"""Compiled join plans: one access path per constraint body.

The pre-storage-layer engine re-derived its join order on *every*
homomorphism search: each recursion step scanned all pending body
atoms for the most-constrained one and copied the binding dict per
candidate fact.  A :class:`JoinPlan` hoists all of that out of the hot
loop:

* the body is compiled **once** (argument specs split into ground and
  variable positions) and cached on the body tuple -- constraints are
  immutable, so every chase step, head-extension check and delta
  search of a constraint reuses the same plan;
* the atom order is chosen once per ``(pre-bound variables, pinned
  atom)`` signature: a greedy most-constrained-first walk -- which
  positions are bound after each atom is a *static* property of the
  signature -- with ties broken by the selectivity statistics the
  fact store exposes (:meth:`repro.storage.base.FactStore
  .relation_size`);
* execution runs over interned term ids against the store's
  :meth:`~repro.storage.base.FactStore.scan` access path with a single
  mutable binding and trail-based undo, decoding ids back to terms
  only when a binding survives (at most one list index per bound
  variable) and copying the assignment only at yield.

The delta-restricted search of the semi-naive chase pins a fact into
the same plan (:meth:`JoinPlan.pin_binding` + the ``pin`` argument of
:meth:`JoinPlan.execute`): the pinned atom is unified directly against
the delta fact and the remaining atoms run through their own cached
order.

Orders are cached per plan together with the statistics observed when
they were chosen; statistics only break ties, so a stale snapshot can
never cost correctness -- but it *can* cost speed, so the cache is
generation-aware: when the store's mutation counter has moved, the
current relation sizes are re-checked against the decision-time
snapshot and the order is recomputed once any body relation has grown
or shrunk by more than 4x.

:meth:`JoinPlan.execute_batch` is the column-at-a-time twin of
:meth:`JoinPlan.execute`: same compiled specs, same cached orders,
same prune/projection semantics, but each join step binds a *vector*
of candidate rows through the posting-list / hash-join kernels of
:mod:`repro.homomorphism.kernels` instead of one row with trail undo.
It delegates to the tuple path for shapes the kernels cannot win on
(trivial bodies, non-vectorized stores, pinned delta searches over
tiny relations); the tuple path stays authoritative and is the
cross-validation oracle of the ``kernel_parity`` fuzz oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.lang.atoms import Atom
from repro.lang.terms import GroundTerm, Variable
from repro.homomorphism.kernels import (PIN_BATCH_MIN_ROWS, candidate_rows,
                                        cross_pairs, hash_build, hash_join,
                                        take)
from repro.obs.metrics import OBS
from repro.storage.base import FactStore

#: A complete (or partial) homomorphism: variable -> ground term.
Assignment = Dict[Variable, GroundTerm]


def tuple_getter(keys: Sequence) -> Callable:
    """A C-level callable mapping a row (tuple, or dict) to the tuple of
    its entries at ``keys`` -- ``itemgetter`` with the one-key and
    no-key cases also returning tuples.  The id-level templates of the
    chase (body images, head rows, frontier keys, projections) are all
    built from it."""
    if len(keys) == 1:
        key, = keys
        return lambda row: (row[key],)
    if not keys:
        return lambda row: ()
    return itemgetter(*keys)


class _AtomSpec:
    """Compiled shape of one body atom."""

    __slots__ = ("relation", "arity", "args", "ground_positions",
                 "var_positions", "variables")

    def __init__(self, atom: Atom) -> None:
        self.relation = atom.relation
        self.arity = atom.arity
        self.args = atom.args
        ground: List[Tuple[int, GroundTerm]] = []
        by_var: List[Tuple[int, Variable]] = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Variable):
                by_var.append((position, arg))
            else:
                ground.append((position, arg))
        self.ground_positions = tuple(ground)
        self.var_positions = tuple(by_var)
        self.variables = frozenset(var for _, var in by_var)


class JoinPlan:
    """A compiled, reorderable join over a fixed atom sequence."""

    __slots__ = ("atoms", "specs", "variables", "_orders")

    def __init__(self, atoms: Sequence[Atom]) -> None:
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        self.specs: Tuple[_AtomSpec, ...] = tuple(
            _AtomSpec(atom) for atom in self.atoms)
        self.variables: frozenset = frozenset(
            var for spec in self.specs for var in spec.variables)
        #: (prebound variable set, pinned atom index) ->
        #: [order, decision-time relation sizes, store id, generation]
        self._orders: Dict[Tuple[frozenset, Optional[int]], list] = {}

    # ------------------------------------------------------------------
    # Order selection
    # ------------------------------------------------------------------
    def order_for(self, store: FactStore, prebound: frozenset,
                  pin: Optional[int] = None) -> Tuple[int, ...]:
        """The cached atom order for this binding signature.

        Greedy most-constrained-first: repeatedly pick the atom with
        the most statically-bound argument positions, breaking ties by
        the store's cardinality estimate -- the relation size, sharpened
        to the smallest posting list of any ground argument -- and then
        by body position.  Bound-ness propagates statically: after an
        atom is placed, its variables count as bound for the rest.

        Cached orders carry the relation sizes they were decided on.
        While the store's :attr:`~repro.storage.base.FactStore
        .generation` is unchanged the cache hit is two comparisons;
        once it moves, the current sizes are compared against the
        *original* decision-time snapshot (no ratchet drift across
        repeated small shifts) and the order is recomputed when any
        body relation shifted by more than 4x in either direction.
        """
        key = (prebound, pin)
        entry = self._orders.get(key)
        if entry is not None:
            order, snapshot, store_id, generation = entry
            if store_id == id(store) and generation == store.generation:
                if OBS.enabled:
                    OBS.inc("plan.order_cache.hits")
                return order
            current = tuple(store.relation_size(spec.relation)
                            for spec in self.specs)
            if all(cur <= 4 * max(old, 1) and old <= 4 * max(cur, 1)
                   for old, cur in zip(snapshot, current)):
                # Same ballpark: keep the order, refresh the fast path
                # (sizes were just verified against the snapshot).
                entry[2] = id(store)
                entry[3] = store.generation
                if OBS.enabled:
                    OBS.inc("plan.order_cache.revalidated")
                return order
            if OBS.enabled:
                OBS.inc("plan.order_cache.invalidations")
        elif OBS.enabled:
            OBS.inc("plan.order_cache.misses")
        id_of = store.terms.id_of
        bound: Set[Variable] = set(prebound)
        if pin is not None:
            bound |= self.specs[pin].variables
        remaining = [i for i in range(len(self.specs)) if i != pin]
        chosen: List[int] = []
        while remaining:
            best = None
            best_score = None
            for index in remaining:
                spec = self.specs[index]
                bound_args = len(spec.ground_positions) + sum(
                    1 for _, var in spec.var_positions if var in bound)
                estimate = store.relation_size(spec.relation)
                for position, term in spec.ground_positions:
                    tid = id_of(term)
                    posting = (0 if tid is None else store.posting_size(
                        spec.relation, position, tid))
                    if posting < estimate:
                        estimate = posting
                score = (-bound_args, estimate, index)
                if best_score is None or score < best_score:
                    best, best_score = index, score
            chosen.append(best)
            remaining.remove(best)
            bound |= self.specs[best].variables
        order = tuple(chosen)
        self._orders[key] = [
            order,
            tuple(store.relation_size(spec.relation)
                  for spec in self.specs),
            id(store), store.generation]
        return order

    # ------------------------------------------------------------------
    # Delta-fact pinning
    # ------------------------------------------------------------------
    def pin_binding(self, pin: int, fact: Atom,
                    binding: Mapping[Variable, GroundTerm]
                    ) -> Optional[Assignment]:
        """Unify atom ``pin`` with ``fact`` under ``binding``.

        Returns the *new* variable bindings on success (possibly
        empty), or None when the fact does not unify.
        """
        spec = self.specs[pin]
        if fact.relation != spec.relation or fact.arity != spec.arity:
            return None
        args = fact.args
        for position, term in spec.ground_positions:
            if args[position] != term:
                return None
        new_entries: Assignment = {}
        for position, var in spec.var_positions:
            value = args[position]
            known = binding.get(var)
            if known is None:
                known = new_entries.get(var)
            if known is None:
                new_entries[var] = value
            elif known != value:
                return None
        return new_entries

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, store: FactStore,
                partial: Optional[Mapping[Variable, GroundTerm]] = None,
                pin_index: Optional[int] = None,
                pin_entries: Optional[Assignment] = None,
                limit: Optional[int] = None,
                prune=None,
                project: Optional[Tuple[Variable, ...]] = None
                ) -> Iterator[Assignment]:
        """Enumerate homomorphisms of the compiled body into ``store``.

        ``partial`` pre-binds variables; ``pin_index``/``pin_entries``
        (from :meth:`pin_binding`) exclude one atom whose bindings were
        already unified against a delta fact; ``limit`` caps the number
        of yields.  Yielded assignments are fresh term-level dicts
        including the pre-bound variables.

        ``project``, if given, is a projection push-down: instead of
        decoded assignment dicts the iterator yields plain tuples of
        *interned term ids*, one per listed variable (which must all
        occur in the body or be pre-bound).  No term is decoded and no
        dict is built per result -- the access path compiled query
        evaluation (:mod:`repro.cq.evaluate`) runs on, where answers
        are deduplicated and null-filtered at the id level before any
        decoding happens.

        The join runs entirely over interned ids: ``prune``, if given,
        is called with the *id-level* binding (variable -> term id)
        after each extension -- returning True abandons the subtree --
        and terms are decoded only at yield.  (Under the reference
        engine the same prune callables receive term-level bindings;
        the trigger index's predicates accept both.)

        Candidate rows come from the store's id-level ``scan``; a
        suspended enumeration keeps consistent snapshots of the access
        path, so yields that outlive later mutations must be
        re-validated by the caller (the trigger index does).
        """
        if OBS.enabled:
            OBS.inc("plan.tuple_executions")
        table = store.terms
        intern = table.intern
        term_of = table.term
        binding_ids: Dict[Variable, int] = (
            {var: intern(value) for var, value in partial.items()}
            if partial else {})

        if project is None:
            def emit():
                return {var: term_of(tid)
                        for var, tid in binding_ids.items()}
        else:
            pick = tuple_getter(project)

            def emit():
                return pick(binding_ids)
        if prune is not None and prune(binding_ids):
            return
        if pin_entries:
            for var, value in pin_entries.items():
                binding_ids[var] = intern(value)
            if prune is not None and prune(binding_ids):
                return
        specs = self.specs
        # Trivial: empty body, or the pin consumed the only atom.
        if not specs or (len(specs) == 1 and pin_index is not None):
            yield emit()
            return
        scan = store.scan

        # Fully-bound fast path: every plan variable is already bound,
        # so the join degenerates into one id-level containment probe
        # per atom (the shape of head-extension checks on full
        # frontiers -- O(1) row_of lookups on the columnar backend).
        if all(var in binding_ids for var in self.variables):
            for index, spec in enumerate(specs):
                if index == pin_index:
                    continue
                ids = tuple(binding_ids[arg] if isinstance(arg, Variable)
                            else intern(arg) for arg in spec.args)
                if not store.has_row(spec.relation, spec.arity, ids):
                    return
            yield emit()
            return

        # Variables the prune predicate reads (when declared): a True
        # answer on a row that bound none of them holds for every other
        # row of the same scan, so the whole scan can be abandoned.
        prune_reads = getattr(prune, "depends_on", None) \
            if prune is not None else None

        # Single unpinned atom: flat scan loop, no order / recursion.
        if len(specs) - (0 if pin_index is None else 1) == 1:
            index = next(i for i in range(len(specs)) if i != pin_index)
            spec = specs[index]
            bound: List[Tuple[int, int]] = [
                (position, intern(term))
                for position, term in spec.ground_positions]
            unbound: List[Tuple[int, Variable]] = []
            for position, var in spec.var_positions:
                tid = binding_ids.get(var)
                if tid is not None:
                    bound.append((position, tid))
                else:
                    unbound.append((position, var))
            abandon_on_prune = (prune_reads is not None
                                and not any(var in prune_reads
                                            for _, var in unbound))
            produced = 0
            for row in scan(spec.relation, spec.arity, bound):
                local: Dict[Variable, int] = {}
                consistent = True
                for position, var in unbound:
                    tid = row[position]
                    known = local.get(var)
                    if known is None:
                        local[var] = tid
                    elif known != tid:
                        consistent = False
                        break
                if not consistent:
                    continue
                if local:
                    binding_ids.update(local)
                    if prune is not None and prune(binding_ids):
                        for var in local:
                            del binding_ids[var]
                        if abandon_on_prune:
                            return
                        continue
                produced += 1
                yield emit()
                for var in local:
                    del binding_ids[var]
                if limit is not None and produced >= limit:
                    return
            return

        prebound = frozenset(var for var in binding_ids
                             if var in self.variables)
        order = self.order_for(store, prebound, pin_index)
        depth_count = len(order)
        produced = 0
        # Ground argument ids are interned once per execution.
        ground_ids: Dict[int, Tuple[Tuple[int, int], ...]] = {}

        def search(depth: int) -> Iterator[Assignment]:
            nonlocal produced
            if depth == depth_count:
                produced += 1
                yield emit()
                return
            index = order[depth]
            spec = specs[index]
            if spec.ground_positions:
                pairs = ground_ids.get(index)
                if pairs is None:
                    pairs = tuple((position, intern(term))
                                  for position, term in spec.ground_positions)
                    ground_ids[index] = pairs
                bound = list(pairs)
            else:
                bound = []
            unbound: List[Tuple[int, Variable]] = []
            for position, var in spec.var_positions:
                tid = binding_ids.get(var)
                if tid is not None:
                    bound.append((position, tid))
                else:
                    unbound.append((position, var))
            abandon_on_prune = (prune_reads is not None
                                and not any(var in prune_reads
                                            for _, var in unbound))
            for row in scan(spec.relation, spec.arity, bound):
                local: Dict[Variable, int] = {}
                consistent = True
                for position, var in unbound:
                    tid = row[position]
                    known = local.get(var)
                    if known is None:
                        local[var] = tid
                    elif known != tid:
                        consistent = False
                        break
                if not consistent:
                    continue
                if local:
                    binding_ids.update(local)
                    if prune is not None and prune(binding_ids):
                        for var in local:
                            del binding_ids[var]
                        if abandon_on_prune:
                            return
                        continue
                yield from search(depth + 1)
                for var in local:
                    del binding_ids[var]
                if limit is not None and produced >= limit:
                    return

        yield from search(0)

    def execute_batch(self, store: FactStore,
                      partial: Optional[Mapping[Variable, GroundTerm]] = None,
                      pin_index: Optional[int] = None,
                      pin_entries: Optional[Assignment] = None,
                      prune=None,
                      project: Optional[Tuple[Variable, ...]] = None,
                      force: bool = False
                      ) -> Iterator[Assignment]:
        """Column-at-a-time twin of :meth:`execute`.

        Same parameters and the same yielded values (assignment dicts,
        or interned-id tuples under ``project``), but each join step of
        the cached order binds a *vector* of candidate rows: candidate
        sets come from galloping posting-list intersection, shared
        variables join build/probe style over whole columns, and
        disjoint atoms cross-expand as ordinal arithmetic
        (:mod:`repro.homomorphism.kernels`).  Results materialize
        step-by-step -- there is no ``limit`` because nothing is saved
        by stopping early; callers that short-circuit (existence
        probes) belong on the tuple path.

        Shapes the kernels cannot win on delegate to :meth:`execute`
        unless ``force``: stores without a native posting-list
        protocol, trivial bodies (empty / single unpinned atom / fully
        pre-bound -- the tuple path has dedicated fast paths for all
        three), and pinned delta searches whose widest unpinned
        relation holds fewer than
        :data:`~repro.homomorphism.kernels.PIN_BATCH_MIN_ROWS` facts.
        ``force=True`` runs the kernels regardless (the parity tests'
        hook, and how SetStore's emulated protocol gets exercised).

        ``prune`` keeps :meth:`execute`'s semantics at column
        granularity: it is called with id-level bindings, once per
        surviving row, but only at steps that bind a variable the
        predicate declared in ``depends_on`` (every step when
        undeclared) -- between such steps its value cannot change, so
        the skipped calls are exactly the redundant ones.
        """
        specs = self.specs
        unpinned = [spec for index, spec in enumerate(specs)
                    if index != pin_index]
        prebound_names = set(partial or ()) | set(pin_entries or ())
        vectorizable = (
            len(unpinned) > 1
            and not all(var in prebound_names for var in self.variables)
            and (force or (store.supports_batch()
                           and (pin_index is None
                                or max(store.relation_size(spec.relation)
                                       for spec in unpinned)
                                >= PIN_BATCH_MIN_ROWS))))
        if not vectorizable:
            if OBS.enabled:
                OBS.inc("plan.route.tuple")
            yield from self.execute(store, partial, pin_index, pin_entries,
                                    None, prune, project)
            return
        if OBS.enabled:
            OBS.inc("plan.route.batch")

        table = store.terms
        intern = table.intern
        term_of = table.term
        const_ids: Dict[Variable, int] = (
            {var: intern(value) for var, value in partial.items()}
            if partial else {})
        if prune is not None and prune(const_ids):
            return
        if pin_entries:
            for var, value in pin_entries.items():
                const_ids[var] = intern(value)
            if prune is not None and prune(const_ids):
                return
        prune_reads = getattr(prune, "depends_on", None) \
            if prune is not None else None

        prebound = frozenset(var for var in const_ids
                             if var in self.variables)
        order = self.order_for(store, prebound, pin_index)

        # The binding table: one column per free variable, row-aligned.
        columns: Dict[Variable, Sequence[int]] = {}
        nrows = 1   # the seed row carrying the constant bindings

        for index in order:
            spec = specs[index]
            # Classify this atom's positions against the current table.
            fixed: List[Tuple[int, int]] = [
                (position, intern(term))
                for position, term in spec.ground_positions]
            key_vars: List[Tuple[int, Variable]] = []
            new_vars: List[Tuple[int, Variable]] = []
            dup_checks: List[Tuple[int, int]] = []
            first_of: Dict[Variable, int] = {}
            for position, var in spec.var_positions:
                tid = const_ids.get(var)
                if tid is not None:
                    fixed.append((position, tid))
                elif var in columns:
                    key_vars.append((position, var))
                elif var in first_of:
                    dup_checks.append((position, first_of[var]))
                else:
                    first_of[var] = position
                    new_vars.append((position, var))
            rows = candidate_rows(store, spec.relation, spec.arity, fixed)
            if OBS.enabled:
                OBS.inc("plan.batch.rows_scanned", len(rows))
            if not rows:
                return
            gather = ([position for position, _ in key_vars]
                      + [position for position, _ in new_vars]
                      + [position for position, _ in dup_checks])
            col_at = dict(zip(gather, store.batch_columns(
                spec.relation, spec.arity, rows, gather)))
            if dup_checks:
                # Intra-atom repeated variable: both occurrences must
                # agree before the rows enter the join.
                keep = [ordinal for ordinal in range(len(rows))
                        if all(col_at[dup][ordinal] == col_at[first][ordinal]
                               for dup, first in dup_checks)]
                if not keep:
                    return
                if len(keep) != len(rows):
                    rows = take(rows, keep)
                    col_at = {position: take(column, keep)
                              for position, column in col_at.items()}
            if key_vars:
                build = hash_build(
                    [col_at[position] for position, _ in key_vars],
                    len(rows))
                left, right = hash_join(
                    [columns[var] for _, var in key_vars], nrows, build)
            else:
                left, right = cross_pairs(nrows, len(rows))
            if len(left) == 0:
                return
            columns = {var: take(column, left)
                       for var, column in columns.items()}
            for position, var in new_vars:
                columns[var] = take(col_at[position], right)
            nrows = len(left)
            if prune is not None and (
                    prune_reads is None
                    or any(var in prune_reads for _, var in new_vars)):
                var_list = list(columns)
                col_list = [columns[var] for var in var_list]
                probe = dict(const_ids)
                keep = []
                for ordinal in range(nrows):
                    for var, column in zip(var_list, col_list):
                        probe[var] = column[ordinal]
                    if not prune(probe):
                        keep.append(ordinal)
                if not keep:
                    return
                if len(keep) != nrows:
                    columns = {var: take(column, keep)
                               for var, column in columns.items()}
                    nrows = len(keep)

        if project is not None:
            if not project:
                for _ in range(nrows):
                    yield ()
                return
            out_columns = [columns[var] if var in columns
                           else repeat(const_ids[var], nrows)
                           for var in project]
            yield from zip(*out_columns)
            return
        const_terms = {var: term_of(tid) for var, tid in const_ids.items()}
        var_list = list(columns)
        col_list = [columns[var] for var in var_list]
        for values in zip(*col_list):
            assignment = dict(const_terms)
            for var, tid in zip(var_list, values):
                assignment[var] = term_of(tid)
            yield assignment


@lru_cache(maxsize=4096)
def compile_plan(atoms: Tuple[Atom, ...]) -> JoinPlan:
    """The compiled plan of an atom tuple.

    Cached on the tuple itself: constraint bodies and heads are
    immutable tuples, so every search over the same body shares one
    plan (and its accumulated order cache) for the process lifetime.
    """
    return JoinPlan(atoms)
