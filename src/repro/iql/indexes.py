"""Incremental hash indexes over an :class:`~repro.schema.instance.Instance`.

The paper closes by noting that IQL "is a good candidate for conventional
database optimizations" (§5, §8); this module supplies the storage-level
half of that claim. Three index families back the join planner in
:mod:`repro.iql.valuation`:

* **relation attribute-projection indexes** — for a relation R whose
  members are tuples, the map ``(R, A) → {v → members with member[A] = v}``.
  A membership literal ``R([A: t, ...])`` with ``t`` evaluable probes one
  bucket instead of scanning ρ(R); this is the hash-join inner loop.
* **reverse ν-indexes** — per class P, the map ``v → {o ∈ π(P) | ν(o) = v}``.
  Matching an *unbound* dereference ``x̂ = v`` becomes an O(1) probe instead
  of an O(|π(P)| log |π(P)|) sort-and-scan per call.
* the **plan cache** lives on :class:`~repro.iql.rules.Rule` (the planner
  memoizes one literal order per bound-variable set); this module only
  defines the shared statistics protocol those layers report into.

Indexes are built lazily — the first probe of a (relation, attribute) or
class pays one scan — and then maintained *incrementally* by the instance
mutators: the four growth mutators (``add_relation_member``,
``add_class_member``, ``assign``, ``add_set_element``) and their removal
counterparts (``remove_relation_member``, ``remove_class_member``,
``unassign``, ``remove_set_element``). Retraction happens *in place* —
entries are discarded from the affected buckets, never by dropping the
whole index set — so the IVM runtime (:mod:`repro.iql.ivm`) and the IQL*
deletion step keep warm indexes (and, because the
:class:`InstanceIndexes` object identity is preserved, warm compiled
kernels) across deletions. A property test asserts that
incrementally-maintained contents equal a from-scratch rebuild after
arbitrary mixed add/remove mutation sequences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set, Tuple

from repro.values.ovalues import Oid, OTuple, OValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (instance → indexes)
    from repro.schema.instance import Instance

#: An empty bucket, shared by all misses.
_EMPTY: FrozenSet[OValue] = frozenset()


class InstanceIndexes:
    """The lazily-built, incrementally-maintained index set of one instance.

    Obtained via ``instance.indexes``; never constructed directly by
    callers. All probe methods return (possibly shared, do-not-mutate)
    sets; callers must not hold them across instance mutations.
    """

    __slots__ = ("instance", "_relation_attr", "_deref")

    def __init__(self, instance: "Instance"):
        self.instance = instance
        #: (relation name, attribute) → value → set of members with that
        #: attribute value. Only tuple-shaped members carrying the attribute
        #: are indexed; others are unreachable by a tuple-pattern probe.
        self._relation_attr: Dict[Tuple[str, str], Dict[OValue, Set[OValue]]] = {}
        #: class name → value → oids of the class whose ν-value equals it.
        self._deref: Dict[str, Dict[OValue, Set[Oid]]] = {}

    # -- probes ------------------------------------------------------------------

    def relation_index(self, name: str, attr: str) -> Dict[OValue, Set[OValue]]:
        """The (lazily built) projection index of relation ``name`` on ``attr``."""
        key = (name, attr)
        index = self._relation_attr.get(key)
        if index is None:
            index = {}
            for member in self.instance.relations[name]:
                if isinstance(member, OTuple) and attr in member:
                    index.setdefault(member[attr], set()).add(member)
            self._relation_attr[key] = index
        return index

    def relation_probe(self, name: str, attr: str, value: OValue):
        """Members of ρ(name) whose ``attr`` component equals ``value``."""
        return self.relation_index(name, attr).get(value, _EMPTY)

    def ndv(self, name: str, attr: str) -> int:
        """Distinct ``attr`` values among relation ``name``'s tuple members.

        The cardinality statistic behind the cost-based planner
        (:mod:`repro.iql.stats`): it is simply the key count of the
        projection index, so incremental maintenance through every
        mutator keeps it exact for free — the statistic *is* the index.
        """
        return len(self.relation_index(name, attr))

    def deref_index(self, class_name: str) -> Dict[OValue, Set[Oid]]:
        """The (lazily built) reverse ν-index of class ``class_name``."""
        index = self._deref.get(class_name)
        if index is None:
            index = {}
            instance = self.instance
            for oid in instance.classes.get(class_name, ()):
                v = instance.value_of(oid)
                if v is not None:
                    index.setdefault(v, set()).add(oid)
            self._deref[class_name] = index
        return index

    def deref_probe(self, class_name: str, value: OValue):
        """Oids o ∈ π(class_name) with ν(o) = value."""
        return self.deref_index(class_name).get(value, _EMPTY)

    # -- incremental maintenance (called by the Instance mutators) ---------------

    def on_add_relation_member(self, name: str, value: OValue) -> None:
        if isinstance(value, OTuple):
            for (rname, attr), index in self._relation_attr.items():
                if rname == name and attr in value:
                    index.setdefault(value[attr], set()).add(value)

    def on_add_class_member(self, name: str, oid: Oid) -> None:
        index = self._deref.get(name)
        if index is not None:
            v = self.instance.value_of(oid)
            if v is not None:  # set-valued classes default to { }
                index.setdefault(v, set()).add(oid)

    def on_assign(self, oid: Oid, old: Optional[OValue], new: OValue) -> None:
        """ν(oid) changed from ``old`` (None = undefined) to ``new``.

        Covers raw ``assign``, ``add_set_element`` and ``remove_set_element``
        (whose old value is the previous set, possibly the default { })."""
        class_name = self.instance.class_of(oid)
        index = self._deref.get(class_name)
        if index is None:
            return
        if old is not None:
            self._discard_deref(index, old, oid)
        index.setdefault(new, set()).add(oid)

    # -- in-place retraction (called by the removal mutators) ---------------------

    @staticmethod
    def _discard_deref(index: Dict[OValue, Set[Oid]], value: OValue, oid: Oid) -> None:
        bucket = index.get(value)
        if bucket is not None:
            bucket.discard(oid)
            if not bucket:
                del index[value]

    def on_remove_relation_member(self, name: str, value: OValue) -> None:
        # Snapshot for the same reason as on_add_relation_member (deletion
        # never runs concurrently — it is an IQL802 hazard — but the hooks
        # keep one contract).
        if isinstance(value, OTuple):
            for (rname, attr), index in list(self._relation_attr.items()):
                if rname == name and attr in value:
                    bucket = index.get(value[attr])
                    if bucket is not None:
                        bucket.discard(value)
                        if not bucket:
                            del index[value[attr]]

    def on_remove_class_member(
        self, name: str, oid: Oid, old: Optional[OValue]
    ) -> None:
        """``oid`` left π(name); ``old`` is the ν-value it was indexed under
        (already including the { } default for set-valued classes)."""
        index = self._deref.get(name)
        if index is not None and old is not None:
            self._discard_deref(index, old, oid)

    def on_unassign(self, oid: Oid, old: OValue) -> None:
        """ν(oid) reverted from ``old`` to undefined.

        Set-valued oids fall back to the default { } — which the reverse
        index *does* record — so they are re-indexed under the empty set,
        exactly as a from-scratch rebuild would."""
        class_name = self.instance.class_of(oid)
        if class_name is None:
            return
        index = self._deref.get(class_name)
        if index is None:
            return
        self._discard_deref(index, old, oid)
        fallback = self.instance.value_of(oid)
        if fallback is not None:
            index.setdefault(fallback, set()).add(oid)

    # -- verification (property tests) -------------------------------------------

    def equals_rebuild(self) -> bool:
        """True iff every built index equals a from-scratch rebuild.

        The oracle for the incremental-maintenance property test: after any
        sequence of mutator calls, the maintained contents must be exactly
        what building from the current instance state would produce.
        """
        fresh = InstanceIndexes(self.instance)
        for name, attr in self._relation_attr:
            if self._relation_attr[(name, attr)] != fresh.relation_index(name, attr):
                return False
        for class_name in self._deref:
            if self._deref[class_name] != fresh.deref_index(class_name):
                return False
        return True

    def built_relation_indexes(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(self._relation_attr)

    def built_deref_indexes(self) -> FrozenSet[str]:
        return frozenset(self._deref)
