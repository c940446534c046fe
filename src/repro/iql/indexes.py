"""Incremental hash indexes over an :class:`~repro.schema.instance.Instance`.

The paper closes by noting that IQL "is a good candidate for conventional
database optimizations" (§5, §8); this module supplies the storage-level
half of that claim. One index family backs the compiled join kernels of
:mod:`repro.iql.compile` and the cost model of :mod:`repro.iql.stats`:
**relation attribute-projection indexes**. For a relation R whose
members are tuples, the map ``(R, A) → {v → members with member[A] = v}``.
A membership literal ``R([A: t, ...])`` with ``t`` evaluable probes one
bucket instead of scanning ρ(R); this is the hash-join inner loop, and
the key count of an index is the NDV statistic of its attribute. The
reference interpreter (:func:`~repro.iql.valuation.solve_body`) uses no
index.

Indexes are built lazily — the first probe of a (relation, attribute)
pays one scan — and then maintained *incrementally* by
``Instance.add_relation_members`` (the bulk insert every relation
addition goes through, ``add_relation_member`` included) and
``Instance.remove_relation_member``. Insertion grows the captured index
dicts and their buckets in place.
Retraction happens *in place* — entries are discarded from the affected
buckets, never by dropping the whole index set — so the IVM runtime
(:mod:`repro.iql.ivm`) and the IQL* deletion step keep warm indexes (and,
because the :class:`InstanceIndexes` object identity is preserved, warm
compiled kernels) across deletions. A property test asserts that
incrementally-maintained contents equal a from-scratch rebuild after
arbitrary mixed add/remove mutation sequences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Set, Tuple

from repro.values.ovalues import OTuple, OValue

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

    __slots__ = ("instance", "_relation_attr")

    def __init__(self, instance: "Instance"):
        self.instance = instance
        #: (relation name, attribute) → value → set of members with that
        #: attribute value. Only tuple-shaped members carrying the attribute
        #: are indexed; others are unreachable by a tuple-pattern probe.
        self._relation_attr: Dict[Tuple[str, str], Dict[OValue, Set[OValue]]] = {}

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
        projection index, so incremental maintenance keeps it exact for
        free — the statistic *is* the index.
        """
        return len(self.relation_index(name, attr))

    # -- incremental maintenance (called by the Instance mutators) ---------------

    def on_add_relation_members(self, name: str, values: Iterable[OValue]) -> None:
        for (rname, attr), index in self._relation_attr.items():
            if rname != name:
                continue
            for value in values:
                if isinstance(value, OTuple):
                    key = value.get(attr)
                    if key is not None:
                        index.setdefault(key, set()).add(value)

    def on_remove_relation_member(self, name: str, value: OValue) -> None:
        if isinstance(value, OTuple):
            for (rname, attr), index in self._relation_attr.items():
                if rname == name and attr in value:
                    bucket = index.get(value[attr])
                    if bucket is not None:
                        bucket.discard(value)
                        if not bucket:
                            del index[value[attr]]

    # -- verification (property tests) -------------------------------------------

    def equals_rebuild(self) -> bool:
        """True iff every built index equals a from-scratch rebuild.

        The oracle for the incremental-maintenance property test: after any
        sequence of mutator calls, the maintained contents must be exactly
        what building from the current instance state would produce.
        """
        fresh = InstanceIndexes(self.instance)
        return all(
            index == fresh.relation_index(name, attr)
            for (name, attr), index in self._relation_attr.items()
        )

    def built_relation_indexes(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(self._relation_attr)
