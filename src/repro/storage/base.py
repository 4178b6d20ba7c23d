"""The pluggable fact-store contract and backend selection.

A :class:`FactStore` holds the ground atoms of one
:class:`repro.lang.instance.Instance` and owns the term-interning
table, the physical indexes, the change-listener delta feed and the
per-fact dense ids.  Two backends ship with the library:

* :class:`repro.storage.set_store.SetStore` -- the reference
  dict-of-sets layout (the pre-storage-layer ``Instance`` internals);
* :class:`repro.storage.column_store.ColumnStore` -- per-relation
  columnar tuples of interned term ids with array-backed
  ``(position, id)`` posting lists.

Backends are selected per instance via ``Instance(backend=...)`` or,
when that argument is omitted, the ``REPRO_BACKEND`` environment
variable (``set`` | ``column``, default ``column``).

The mutation entry points (:meth:`FactStore.add`,
:meth:`FactStore.add_row`, :meth:`FactStore.discard`,
:meth:`FactStore.substitute_term`) are template methods: subclasses
implement the physical ``_insert`` / ``_remove`` /
``facts_with_term``, the base class guarantees uniform
listener semantics -- listeners fire *after* the indexes are updated,
in registration order, and an EGD substitution emits each fact's
removal before the corresponding (possibly merged-away) addition, in
fact-insertion order on every backend.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Type)

from repro.lang.atoms import Atom
from repro.lang.errors import SchemaError
from repro.lang.terms import Constant, GroundTerm, Null
from repro.storage.interning import TermId, TermTable

#: Dense per-store fact id.  Like term ids, fact ids are permanent: a
#: fact keeps its id across removal and re-insertion, so id-keyed
#: caches (the trigger index backlog, the fact -> trigger reverse map)
#: survive EGD substitutions.
FactId = int

#: Environment variable consulted when no explicit backend is chosen.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Default backend name: the columnar store, on which the chase's
#: id-level probes (``has_row``, ``row_fid``, ``add_row``) are array
#: and dict lookups.  ``set`` stays as the reference layout.
DEFAULT_BACKEND = "column"


class PostingList:
    """A sorted run of live row keys: the backend-neutral access path
    of the column-at-a-time join kernels.

    A posting list names the rows of one ``(relation, arity)`` table
    that hold a given term id at a given position (or *all* live rows,
    for :meth:`FactStore.row_universe`).  Row keys are backend-private
    integers -- physical row indexes on :class:`ColumnStore`, permanent
    fact ids on :class:`SetStore` -- that only have to satisfy two
    contracts: they are **strictly increasing** within a list, and
    :meth:`FactStore.batch_columns` can decode them back to argument
    ids.  Everything the kernels do (galloping intersection, gathers)
    works on that contract alone, which is what lets a future
    disk-backed store (ROADMAP item 1) plug in by exposing covering
    indexes as posting lists.

    The wrapped sequence is shared with the store and must be treated
    as read-only by callers.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[int]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PostingList({len(self.rows)} rows)"

    def materialize(self) -> Sequence[int]:
        """An indexable snapshot of the row keys (read-only; may alias
        the store's own array when that is already safe to share)."""
        return self.rows

    @staticmethod
    def gallop(rows: Sequence[int], target: int, lo: int = 0) -> int:
        """The first index ``>= lo`` with ``rows[index] >= target``.

        Exponential (galloping) probe followed by a binary search of
        the bracketed range -- O(log gap) instead of O(gap), the
        classic skip primitive of sorted posting-list intersection.
        """
        hi = len(rows)
        probe = lo
        step = 1
        while probe < hi and rows[probe] < target:
            lo = probe + 1
            probe += step
            step <<= 1
        return bisect_left(rows, target, lo, min(probe, hi))

    def intersect(self, other: "PostingList") -> "PostingList":
        """Sorted intersection, galloping through the longer list.

        Iterates the shorter list and gallops for each key in the
        longer one, so heavily skewed pairs (a selective filter against
        a huge posting) cost O(small * log(large)).
        """
        a, b = self.rows, other.rows
        if len(a) > len(b):
            a, b = b, a
        out = array("q")
        append = out.append
        gallop = PostingList.gallop
        lo = 0
        hi = len(b)
        for value in a:
            lo = gallop(b, value, lo)
            if lo >= hi:
                break
            if b[lo] == value:
                append(value)
                lo += 1
        return PostingList(out)


class FactStore:
    """Abstract base class of the storage backends."""

    #: Registry-facing backend name; subclasses override.
    name = "abstract"

    #: Does the backend serve the posting-list protocol *natively*
    #: (sorted arrays, O(1) gathers)?  The batch execution mode of
    #: :class:`repro.homomorphism.plan.JoinPlan` vectorizes only over
    #: stores that set this; every backend must still *implement* the
    #: protocol (emulation is fine) so kernels stay cross-checkable.
    vectorized = False

    def __init__(self, terms: Optional[TermTable] = None) -> None:
        self._terms = terms if terms is not None else TermTable()
        self._listeners: List[object] = []
        self._generation = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    @property
    def terms(self) -> TermTable:
        """The store's term-interning table."""
        return self._terms

    @property
    def generation(self) -> int:
        """A counter bumped on every successful mutation.

        Consumers that cache anything derived from the store's
        *statistics* -- join orders chosen from ``relation_size``
        snapshots (:meth:`repro.homomorphism.plan.JoinPlan.order_for`)
        -- compare generations to detect that their snapshot may be
        stale, then re-check the cheap statistics before trusting the
        cached decision.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Change listeners (the delta feed of the incremental chase)
    # ------------------------------------------------------------------
    def add_listener(self, listener) -> None:
        """Register for ``fact_added`` / ``fact_removed`` callbacks."""
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Unregister ``listener`` (no-op if it is not registered)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Mutation (template methods; listeners fire after index updates)
    # ------------------------------------------------------------------
    def add(self, fact: Atom) -> bool:
        """Insert a fact.  Returns True if it was new."""
        if not fact.is_ground:
            raise SchemaError(f"cannot store non-ground atom {fact}")
        if not self._insert(fact):
            return False
        self._added(fact)
        return True

    def add_row(self, relation: str, ids: Tuple[TermId, ...]
                ) -> Optional[Atom]:
        """Insert the fact with these interned argument ids (the chase
        step's id-level write).  Returns the fact when it was new, else
        None; listeners see the same ``fact_added`` as for :meth:`add`.

        This generic version decodes the ids and goes through
        :meth:`add`; backends that store ids natively override it.
        """
        term_of = self._terms.term
        fact = Atom(relation, tuple([term_of(tid) for tid in ids]))
        return fact if self.add(fact) else None

    def _added(self, fact: Atom) -> None:
        """Bookkeeping after a successful insertion: bump the
        generation, then notify listeners in registration order."""
        self._generation += 1
        for listener in self._listeners:
            listener.fact_added(fact)

    def add_all(self, facts: Iterable[Atom]) -> List[Atom]:
        """Insert many facts; return the ones that were actually new."""
        return [fact for fact in facts if self.add(fact)]

    def discard(self, fact: Atom) -> bool:
        """Remove a fact if present.  Returns True if it was removed."""
        if not self._remove(fact):
            return False
        self._generation += 1
        for listener in self._listeners:
            listener.fact_removed(fact)
        return True

    def substitute_term(self, old: GroundTerm, new: GroundTerm
                        ) -> List[Atom]:
        """Replace every occurrence of ``old`` by ``new`` (EGD steps).

        Returns the facts that changed (their new versions).  Affected
        facts are rewritten in insertion (fact-id) order, so the
        listener event sequence is identical on every backend.
        """
        if old == new:
            return []
        affected = sorted(self.facts_with_term(old),
                          key=lambda f: self.fact_id(f))
        changed: List[Atom] = []
        for fact in affected:
            self.discard(fact)
            new_fact = fact.substitute({old: new})
            if self.add(new_fact):
                changed.append(new_fact)
        return changed

    # ------------------------------------------------------------------
    # Physical layer (subclass responsibilities)
    # ------------------------------------------------------------------
    def _insert(self, fact: Atom) -> bool:
        """Index the fact; return False when it was already present."""
        raise NotImplementedError

    def _remove(self, fact: Atom) -> bool:
        """Unindex the fact; return False when it was not present."""
        raise NotImplementedError

    def facts_with_term(self, term: GroundTerm) -> List[Atom]:
        """All live facts in which ``term`` occurs."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, fact: Atom) -> bool:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Atom]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def facts(self, relation: Optional[str] = None) -> Set[Atom]:
        """All facts, or the facts of one relation (a fresh set)."""
        raise NotImplementedError

    def matching(self, relation: str, bindings: Mapping[int, GroundTerm]
                 ) -> Set[Atom]:
        """Facts of ``relation`` agreeing with ``bindings``
        (0-based position index -> required term)."""
        raise NotImplementedError

    def term_positions(self, term: GroundTerm) -> Set[Tuple[str, int]]:
        """``(relation, 0-based index)`` pairs at which ``term``
        currently occurs."""
        raise NotImplementedError

    def domain(self) -> Set[GroundTerm]:
        """All constants and nulls appearing in live facts."""
        raise NotImplementedError

    def relations(self) -> Set[str]:
        """Relation names with at least one live fact."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fact ids (permanent; survive removal)
    # ------------------------------------------------------------------
    def fact_id(self, fact: Atom) -> Optional[FactId]:
        """The permanent id of ``fact`` (assigned at first insertion),
        or None if the fact was never stored."""
        raise NotImplementedError

    def fact_of(self, fid: FactId) -> Atom:
        """Decode a fact id (valid for live and removed facts)."""
        raise NotImplementedError

    def alive(self, fid: FactId) -> bool:
        """Is the fact with this id currently stored?"""
        raise NotImplementedError

    def row_fid(self, relation: str, arity: int,
                ids: Tuple[TermId, ...]) -> Optional[FactId]:
        """The fact id of the *live* fact with these interned argument
        ids, or None.  Used by the trigger index to validate body
        images without materializing atoms."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Compiled-plan scan interface (interned-id level)
    # ------------------------------------------------------------------
    def scan(self, relation: str, arity: int,
             bound: Sequence[Tuple[int, TermId]]
             ) -> Iterator[Tuple[TermId, ...]]:
        """Yield the interned-id tuples of live ``relation``/``arity``
        facts whose position ``p`` holds term id ``t`` for every
        ``(p, t)`` in ``bound``.  The workhorse of
        :class:`repro.homomorphism.plan.JoinPlan` execution."""
        raise NotImplementedError

    def has_row(self, relation: str, arity: int,
                ids: Tuple[TermId, ...]) -> bool:
        """Containment probe at the id level: is the fact with exactly
        these interned argument ids currently stored?  The fast path of
        fully-bound join-plan executions (head-extension checks)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Selectivity statistics (join-plan ordering)
    # ------------------------------------------------------------------
    def relation_size(self, relation: str) -> int:
        """Number of live facts of ``relation`` (0 when absent)."""
        raise NotImplementedError

    def posting_size(self, relation: str, position: int, tid: TermId
                     ) -> int:
        """Upper bound on the number of facts of ``relation`` holding
        term ``tid`` at 0-based ``position`` (posting-list length)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Posting-list protocol (column-at-a-time kernels)
    # ------------------------------------------------------------------
    def supports_batch(self) -> bool:
        """Should :class:`~repro.homomorphism.plan.JoinPlan` prefer the
        vectorized path on this store?  True exactly for backends that
        serve the posting-list protocol natively."""
        return self.vectorized

    def posting_list(self, relation: str, arity: int,
                     position: int, tid: TermId
                     ) -> Optional[PostingList]:
        """The sorted live row keys of ``relation``/``arity`` facts
        holding ``tid`` at 0-based ``position`` -- None when the store
        has no index that can answer without a full scan (the batch
        path then falls back to :meth:`row_universe` plus a gather
        filter).  Row keys follow the :class:`PostingList` contract."""
        raise NotImplementedError

    def row_universe(self, relation: str, arity: int) -> PostingList:
        """All live row keys of the ``relation``/``arity`` table, as a
        (possibly empty) posting list."""
        raise NotImplementedError

    def batch_columns(self, relation: str, arity: int,
                      rows: Sequence[int], positions: Sequence[int]
                      ) -> List[Sequence[TermId]]:
        """Gather argument columns for a batch of row keys: one
        sequence of interned term ids per requested 0-based position,
        each aligned with ``rows``.  Row keys must come from this
        store's own posting lists / row universes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def constants_of_domain(self) -> Set[Constant]:
        return {t for t in self.domain() if isinstance(t, Constant)}

    def nulls_of_domain(self) -> Set[Null]:
        return {t for t in self.domain() if isinstance(t, Null)}


# ----------------------------------------------------------------------
# Backend registry / resolution
# ----------------------------------------------------------------------
def _registry() -> Dict[str, Type[FactStore]]:
    # Imported lazily so base.py stays import-cycle free.
    from repro.storage.column_store import ColumnStore
    from repro.storage.set_store import SetStore
    return {SetStore.name: SetStore, ColumnStore.name: ColumnStore}


def backend_names() -> List[str]:
    """The registered backend names (sorted)."""
    return sorted(_registry())


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """Normalize an explicit choice or fall back to ``REPRO_BACKEND``.

    Raises :class:`~repro.lang.errors.SchemaError` on unknown names, so
    a typo in the environment variable fails loudly instead of
    silently running the default backend.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or \
            DEFAULT_BACKEND
    name = backend.strip().lower()
    if name not in _registry():
        raise SchemaError(
            f"unknown fact-store backend {backend!r} "
            f"(choose from {', '.join(backend_names())})")
    return name


def make_store(backend=None) -> FactStore:
    """Instantiate a backend.

    ``backend`` may be None (environment / default resolution), a
    registered name, or an already-constructed :class:`FactStore`
    (adopted as-is, enabling shared-table setups in tests).
    """
    if isinstance(backend, FactStore):
        return backend
    return _registry()[resolve_backend_name(backend)]()
