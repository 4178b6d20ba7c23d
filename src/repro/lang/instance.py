"""Database instances: finite sets of facts over a pluggable store.

An instance is a finite set of atoms over constants and labeled nulls
(Section 2).  Since the storage-layer refactor the ``Instance`` class
is a thin facade: all physical concerns -- indexes, term interning,
fact ids, the change-listener delta feed -- live in a
:class:`repro.storage.base.FactStore` backend:

* ``backend="column"``
  (:class:`repro.storage.column_store.ColumnStore`) stores
  per-relation columnar tuples of interned term ids with array-backed
  posting lists -- the layout the compiled join plans of
  :mod:`repro.homomorphism.plan` and the chase's id-level trigger
  probes execute against;
* ``backend="set"`` (:class:`repro.storage.set_store.SetStore`) keeps
  the reference dict-of-sets layout.

When ``backend`` is omitted the ``REPRO_BACKEND`` environment variable
decides (default ``column``).  Both backends are interchangeable: the
facade API, the listener event order, and the chase results are
identical (cross-validated in ``tests/storage/test_stores.py``).

Instances support *change listeners*: objects registered via
:meth:`Instance.add_listener` are told about every fact insertion and
removal.  This is the delta feed that drives the semi-naive trigger
index of :mod:`repro.chase.triggers`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Set, Union

from repro.lang.atoms import Atom, Position
from repro.lang.schema import Schema
from repro.lang.terms import Constant, GroundTerm, Null, Term
from repro.storage.base import FactStore, make_store
from repro.storage.interning import TermTable


class InstanceListener:
    """Callback interface for instance deltas.

    Subclass (or duck-type) and register with
    :meth:`Instance.add_listener`.  Listeners are invoked *after* the
    backend indexes have been updated, in registration order.
    """

    def fact_added(self, fact: Atom) -> None:
        """``fact`` was inserted (it was not present before)."""

    def fact_removed(self, fact: Atom) -> None:
        """``fact`` was removed (it was present before)."""


class Instance:
    """A mutable set of ground atoms (facts) behind a fact store."""

    __slots__ = ("_store",)

    def __init__(self, facts: Iterable[Atom] = (),
                 backend: Union[str, FactStore, None] = None) -> None:
        self._store = make_store(backend)
        add = self._store.add
        for fact in facts:
            add(fact)

    # ------------------------------------------------------------------
    # Storage backend
    # ------------------------------------------------------------------
    @property
    def store(self) -> FactStore:
        """The active storage backend (id-level API for the engine)."""
        return self._store

    @property
    def backend(self) -> str:
        """The active backend's registry name (``set`` / ``column``)."""
        return self._store.name

    @property
    def term_table(self) -> TermTable:
        """The store's term-interning table."""
        return self._store.terms

    # ------------------------------------------------------------------
    # Change listeners (delta feed for the incremental chase)
    # ------------------------------------------------------------------
    def add_listener(self, listener: InstanceListener) -> None:
        """Register ``listener`` for fact-added / fact-removed events."""
        self._store.add_listener(listener)

    def remove_listener(self, listener: InstanceListener) -> None:
        """Unregister ``listener`` (no-op if it is not registered)."""
        self._store.remove_listener(listener)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, fact: Atom) -> bool:
        """Insert a fact.  Returns True if it was new."""
        return self._store.add(fact)

    def add_all(self, facts: Iterable[Atom]) -> list[Atom]:
        """Insert many facts; return the ones that were actually new."""
        return self._store.add_all(facts)

    def discard(self, fact: Atom) -> bool:
        """Remove a fact if present.  Returns True if it was removed.

        Empty index buckets are pruned so the backend never retains
        keys for terms that no longer occur in the instance.
        """
        return self._store.discard(fact)

    def substitute_term(self, old: GroundTerm, new: GroundTerm) -> list[Atom]:
        """Replace every occurrence of ``old`` by ``new`` (EGD steps).

        Returns the list of facts that changed (their new versions).
        Uses the backend's term reverse index, so the cost is
        proportional to the number of affected facts, not the instance
        size.
        """
        return self._store.substitute_term(old, new)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, fact: Atom) -> bool:
        return fact in self._store

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def __eq__(self, other) -> bool:
        # Set equality of the fact sets -- backends may differ.
        return (isinstance(other, Instance)
                and len(self._store) == len(other._store)
                and all(fact in other._store for fact in self._store))

    def facts(self, relation: str | None = None) -> Set[Atom]:
        """All facts, or the facts of one relation (a fresh set)."""
        return self._store.facts(relation)

    def matching(self, relation: str, bindings: Mapping[int, GroundTerm]
                 ) -> Set[Atom]:
        """Facts of ``relation`` agreeing with ``bindings``
        (0-based position index -> required term).  Uses the backend's
        access paths.
        """
        return self._store.matching(relation, bindings)

    def domain(self) -> set[GroundTerm]:
        """``dom(I)``: all constants and nulls appearing in the instance."""
        return self._store.domain()

    def constants(self) -> set[Constant]:
        return self._store.constants_of_domain()

    def nulls(self) -> set[Null]:
        return self._store.nulls_of_domain()

    def positions_of(self, term: Term) -> set[Position]:
        """``null-pos({term}, I)``: positions at which ``term`` occurs."""
        return {Position(relation, index + 1)
                for relation, index in self._store.term_positions(term)}

    def relations(self) -> set[str]:
        return self._store.relations()

    def schema(self) -> Schema:
        return Schema.infer(self._store)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "Instance":
        """A fresh instance with the same facts and backend kind
        (listeners are not copied)."""
        return Instance(self._store, backend=self._store.name)

    def union(self, other: "Instance") -> "Instance":
        out = self.copy()
        out.add_all(other.facts())
        return out

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def __repr__(self) -> str:
        facts = sorted(str(f) for f in self._store)
        preview = ", ".join(facts[:8])
        more = "" if len(facts) <= 8 else f", ... ({len(facts)} facts)"
        return f"Instance({{{preview}{more}}})"

    def render(self) -> str:
        """A deterministic multi-line rendering (sorted facts)."""
        return "\n".join(sorted(str(f) for f in self._store))
