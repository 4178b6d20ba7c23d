"""Term interning: dense integer ids for constants and labeled nulls.

Every :class:`~repro.lang.terms.Constant` and
:class:`~repro.lang.terms.Null` that enters a fact store is assigned a
dense integer id by a :class:`TermTable`.  Downstream machinery -- the
columnar backend's posting lists, the compiled join plans of
:mod:`repro.homomorphism.plan`, the trigger-key and
satisfied-frontier caches of :class:`repro.chase.triggers.TriggerIndex`
-- then works over plain ``int`` comparisons instead of hashing boxed
term objects, decoding back to terms only at result boundaries.

Ids are never recycled: a term keeps its id even after the last fact
mentioning it is removed, which is what makes id-keyed caches sound
across EGD substitutions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lang.terms import GroundTerm
from repro.obs.metrics import OBS

#: Interned id of a ground term within one :class:`TermTable`.
TermId = int


class TermTable:
    """A bijective, append-only ``GroundTerm <-> int`` registry."""

    # ``__weakref__``: compiled chase templates memoize constant ids
    # per table without keeping the table alive.
    __slots__ = ("_terms", "_ids", "__weakref__")

    def __init__(self) -> None:
        self._terms: List[GroundTerm] = []
        self._ids: Dict[GroundTerm, TermId] = {}

    def intern(self, term: GroundTerm) -> TermId:
        """The id of ``term``, assigning a fresh dense id on first use."""
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
            # Only the (rare) miss branch is instrumented -- intern()
            # is the hottest call in the engine and the hit path must
            # stay two dict operations.
            if OBS.enabled:
                OBS.inc("storage.terms_interned")
        return tid

    def id_of(self, term: GroundTerm) -> Optional[TermId]:
        """The id of ``term`` if it was ever interned, else None."""
        return self._ids.get(term)

    def term(self, tid: TermId) -> GroundTerm:
        """Decode an id back to its term (O(1) list index)."""
        return self._terms[tid]

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: GroundTerm) -> bool:
        return term in self._ids

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TermTable({len(self._terms)} terms)"
