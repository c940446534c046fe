"""Database instances (Definition 2.3.2) and their ground-fact view.

An instance of a schema ``(R, P, T)`` is a triple ``(ρ, π, ν)``:

* ρ assigns each relation name a finite set of o-values of type T(R),
* π assigns each class name a finite set of oids, *pairwise disjoint*
  across classes,
* ν is a partial function from the instance's oids to o-values with
  ν(o) ∈ ⟦T(P)⟧π for o ∈ π(P), total on set-valued classes.

The paper's convention (Section 2.3): a set-valued oid with no recorded
facts has value { }; a non-set-valued oid with no recorded value is
*undefined* — the model's benign form of incomplete information, and the
intermediate state IQL builds objects through.

Instances are mutable (the evaluator grows them inflationarily) and expose
the ``ground-facts(I)`` view the paper uses to define the semantics:
``R(v)``, ``P(o)``, ``ô(v)`` for set-valued o, and ``ô = v`` otherwise.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import InstanceError
from repro.schema.schema import Schema
from repro.typesys.expressions import TypeExpr
from repro.typesys.interpretation import member
from repro.values.ovalues import (
    EMPTY_SET,
    Oid,
    OSet,
    OValue,
    constants_of,
    ensure_ovalue,
    interned_set,
    is_ovalue,
    oids_of,
    sort_key,
)

#: Ground-fact tags. A ground fact is a tagged tuple:
#:   ("rel",  R, v)  for  R(v)
#:   ("cls",  P, o)  for  P(o)
#:   ("elem", o, v)  for  ô(v)      (o set valued)
#:   ("val",  o, v)  for  ô = v     (o non-set valued)
GroundFact = Tuple[str, object, object]


class Instance:
    """A mutable instance ``(ρ, π, ν)`` of a :class:`Schema`."""

    __slots__ = (
        "schema",
        "relations",
        "classes",
        "nu",
        "_class_of",
        "_indexes",
        "_constants_cache",
        "_sorted_constants",
        "_member_cache",
    )

    def __init__(
        self,
        schema: Schema,
        relations: Optional[Mapping[str, Iterable[OValue]]] = None,
        classes: Optional[Mapping[str, Iterable[Oid]]] = None,
        nu: Optional[Mapping[Oid, OValue]] = None,
    ):
        self.schema = schema
        self.relations: Dict[str, Set[OValue]] = {r: set() for r in schema.relations}
        self.classes: Dict[str, Set[Oid]] = {p: set() for p in schema.classes}
        self.nu: Dict[Oid, OValue] = {}
        self._class_of: Dict[Oid, str] = {}
        # Lazily-built hash indexes (repro.iql.indexes), maintained by the
        # relation mutators below, and the cached constants(I).
        self._indexes = None
        self._constants_cache: Optional[FrozenSet[OValue]] = None
        self._sorted_constants: Optional[List[OValue]] = None
        self._member_cache: Dict[Tuple[TypeExpr, OValue], bool] = {}
        for name, values in (relations or {}).items():
            for v in values:
                self.add_relation_member(name, ensure_ovalue(v))
        for name, oids in (classes or {}).items():
            for o in oids:
                self.add_class_member(name, o)
        for o, v in (nu or {}).items():
            self.assign(o, ensure_ovalue(v))

    # -- mutation (used by constructors and by the evaluator) ------------------
    #
    # The single-fact mutators check their arguments for outside callers and
    # delegate the write to the trusted bulk mutators, which the engine calls
    # directly with facts it has already checked.

    def add_relation_member(self, name: str, value: OValue) -> bool:
        """Add ``value`` to ρ(name); returns True if it was new."""
        if name not in self.relations:
            raise InstanceError(f"unknown relation {name!r}")
        if not is_ovalue(value):
            raise InstanceError(f"{value!r} is not an o-value")
        if value in self.relations[name]:
            return False
        self.add_relation_members(name, (value,))
        return True

    def add_relation_members(self, name: str, values: Collection[OValue]) -> None:
        """ρ(name) ∪= values, trusted: nothing is checked.

        The caller guarantees that ``name`` is a relation of the schema
        and that ``values`` are distinct o-values none of which is in
        ρ(name) yet; a semi-naive round's new facts meet that by
        construction. The extension set and every built projection index
        of ``name`` grow in place, never rebound, because compiled
        kernels capture both by identity; the constants cache folds the
        new constants.
        """
        self.relations[name].update(values)
        if self._indexes is not None:
            self._indexes.on_add_relation_members(name, values)
        self._note_constants(values)

    def add_class_member(self, name: str, oid: Oid) -> bool:
        """Add ``oid`` to π(name); returns True if it was new.

        Enforces the pairwise-disjointness of classes — the condition
        Example 4.1.2 shows is essential for the soundness of IQL.
        """
        if name not in self.classes:
            raise InstanceError(f"unknown class {name!r}")
        if not isinstance(oid, Oid):
            raise InstanceError(f"{oid!r} is not an oid")
        current = self._class_of.get(oid)
        if current is not None:
            if current != name:
                raise InstanceError(
                    f"oid {oid!r} already belongs to class {current!r}; "
                    f"classes must be pairwise disjoint"
                )
            return False
        self.classes[name].add(oid)
        self._class_of[oid] = name
        if self._member_cache:
            self._member_cache.clear()
        return True

    def assign(self, oid: Oid, value: OValue) -> bool:
        """Set ν(oid) = value; returns True if ν changed.

        For non-set-valued oids the evaluator performs this only under the
        weak-assignment discipline (★); this method is the raw primitive and
        rejects only type-level nonsense (unknown oid, wrong shape is caught
        by :meth:`validate`).
        """
        name = self._class_of.get(oid)
        if name is None:
            raise InstanceError(f"oid {oid!r} does not belong to any class of this instance")
        if not is_ovalue(value):
            raise InstanceError(f"{value!r} is not an o-value")
        previous = self.nu.get(oid)
        if previous == value:
            return False
        self.nu[oid] = value
        if previous is None:
            self._note_constants((value,))
        else:
            # An overwrite can drop constants: recount, as after a removal.
            self._forget_constants()
        return True

    def add_set_element(self, oid: Oid, element: OValue) -> bool:
        """Add ``element`` to the (set) value of ``oid``; True if it was new.

        This is the ground fact ``ô(v)`` — only meaningful for set-valued
        oids, whose value defaults to the empty set.
        """
        name = self._class_of.get(oid)
        if name is None:
            raise InstanceError(f"oid {oid!r} does not belong to any class of this instance")
        if not self.schema.is_set_valued_class(name):
            raise InstanceError(
                f"ô(v) facts apply to set-valued oids only; {oid!r} is in class {name!r}"
            )
        if not is_ovalue(element):
            raise InstanceError(f"{element!r} is not an o-value")
        if element in self.nu.get(oid, EMPTY_SET):
            return False
        self.add_set_elements(oid, (element,))
        return True

    def add_set_elements(self, oid: Oid, elements: Collection[OValue]) -> None:
        """ν(oid) ∪= elements as one new set, trusted: nothing is checked.

        The caller guarantees that ``oid`` belongs to a set-valued class
        of this instance and that ``elements`` are o-values none of which
        is in ν(oid) yet (duplicates among them are harmless). The new
        value is interned once, however many elements arrive; the
        constants cache folds their constants.
        """
        current = self.nu.get(oid, EMPTY_SET)
        self.nu[oid] = interned_set(current.elements.union(elements))
        self._note_constants(elements)

    # -- removal (the deletion path: IQL* and the IVM runtime) -----------------

    def remove_relation_member(self, name: str, value: OValue) -> bool:
        """Remove ``value`` from ρ(name); returns True if it was present.

        Retracts the affected index entries *in place* (instead of
        dropping all indexes wholesale) so hot probes — and the compiled
        kernels capturing the index buckets — survive deletions.
        """
        if name not in self.relations:
            raise InstanceError(f"unknown relation {name!r}")
        members = self.relations[name]
        if value not in members:
            return False
        members.discard(value)
        if self._indexes is not None:
            self._indexes.on_remove_relation_member(name, value)
        self._forget_constants()
        return True

    def remove_class_member(self, name: str, oid: Oid) -> bool:
        """Remove ``oid`` from π(name), dropping its ν entry with it."""
        if name not in self.classes:
            raise InstanceError(f"unknown class {name!r}")
        if oid not in self.classes[name]:
            return False
        self.classes[name].discard(oid)
        self._class_of.pop(oid, None)
        self.nu.pop(oid, None)
        if self._member_cache:
            self._member_cache.clear()
        self._forget_constants()
        return True

    def unassign(self, oid: Oid) -> bool:
        """Make ν(oid) undefined again; returns True if it had a value."""
        if oid not in self.nu:
            return False
        del self.nu[oid]
        self._forget_constants()
        return True

    def remove_set_element(self, oid: Oid, element: OValue) -> bool:
        """Remove ``element`` from the set value of ``oid``; True if present."""
        name = self._class_of.get(oid)
        if name is None:
            raise InstanceError(f"oid {oid!r} does not belong to any class of this instance")
        if not self.schema.is_set_valued_class(name):
            raise InstanceError(
                f"ô(v) facts apply to set-valued oids only; {oid!r} is in class {name!r}"
            )
        current = self.nu.get(oid, EMPTY_SET)
        if element not in current:
            return False
        self.nu[oid] = OSet(v for v in current if v != element)
        self._forget_constants()
        return True

    def _forget_constants(self) -> None:
        """Invalidate the constants(I) caches after a removal or an
        overwrite of ν.

        Either can shrink constants(I), so unlike :meth:`_note_constants`
        there is no sound incremental update — the next call recomputes.
        The member-type cache and the hash indexes are unaffected by
        relation/ν removals (membership depends only on π, and the
        indexes are retracted in place by the callers)."""
        self._constants_cache = None
        self._sorted_constants = None

    # -- observation -----------------------------------------------------------

    def class_of(self, oid: Oid) -> Optional[str]:
        """The unique class ``oid`` belongs to, or None."""
        return self._class_of.get(oid)

    def is_set_valued(self, oid: Oid) -> bool:
        name = self._class_of.get(oid)
        return name is not None and self.schema.is_set_valued_class(name)

    def value_of(self, oid: Oid) -> Optional[OValue]:
        """ν(oid), applying the paper's conventions.

        Set-valued oids always have a value (default { }); non-set-valued
        oids may be undefined (returns None).
        """
        value = self.nu.get(oid)
        if value is None and self.is_set_valued(oid):
            return EMPTY_SET
        return value

    def has_value(self, oid: Oid) -> bool:
        return self.value_of(oid) is not None

    def objects(self) -> FrozenSet[Oid]:
        """objects(I): all oids occurring in the instance."""
        out: Set[Oid] = set(self._class_of)
        for members in self.relations.values():
            for v in members:
                out |= oids_of(v)
        for v in self.nu.values():
            out |= oids_of(v)
        return frozenset(out)

    def constants(self) -> FrozenSet[OValue]:
        """constants(I): all constants occurring in the instance.

        Cached: the first call computes the set, the growth mutators keep
        it current incrementally (additions can only add constants), and
        the removal mutators invalidate it via :meth:`_forget_constants`.
        """
        if self._constants_cache is None:
            out: Set[OValue] = set()
            for members in self.relations.values():
                for v in members:
                    out |= constants_of(v)
            for v in self.nu.values():
                out |= constants_of(v)
            self._constants_cache = frozenset(out)
        return self._constants_cache

    def sorted_constants(self) -> List[OValue]:
        """constants(I) in canonical :func:`sort_key` order, cached.

        The enumeration fallback of ``solve_body`` consumes this list; the
        cache avoids re-sorting the whole constant set on every body solve.
        """
        if self._sorted_constants is None:
            self._sorted_constants = sorted(self.constants(), key=sort_key)
        return self._sorted_constants

    def member_of(self, value: OValue, t: TypeExpr) -> bool:
        """``value ∈ ⟦t⟧π`` for this instance's π, memoized.

        Body solving asks the same (type, value) membership questions
        thousands of times per step — once per candidate binding of every
        variable. Membership depends on the instance only through the
        class extents π, so cached answers stay valid until
        :meth:`add_class_member` grows π or :meth:`drop_indexes` clears
        everything around a deletion. The cache holds strong references
        to the queried values; it lives and dies with the instance.
        """
        cache = self._member_cache
        key = (t, value)
        cached = cache.get(key)
        if cached is None:
            cache[key] = cached = member(value, t, self.classes)
        return cached

    def _note_constants(self, values: Iterable[OValue]) -> None:
        """Fold the constants of freshly added values into the cache."""
        cache = self._constants_cache
        if cache is None:
            return
        fresh = [c for value in values for c in constants_of(value) if c not in cache]
        if fresh:
            self._constants_cache = cache.union(fresh)
            self._sorted_constants = None

    # -- hash indexes (repro.iql.indexes) ---------------------------------------

    @property
    def indexes(self):
        """The instance's lazily-built :class:`~repro.iql.indexes.InstanceIndexes`."""
        if self._indexes is None:
            from repro.iql.indexes import InstanceIndexes

            self._indexes = InstanceIndexes(self)
        return self._indexes

    def drop_indexes(self) -> None:
        """Discard all indexes and caches (full invalidation).

        The deletion paths (IQL* and the IVM runtime) now retract index
        entries in place through the removal mutators, so this is only
        needed when relations or ν are edited behind the mutators' backs
        — e.g. the certificate replay clearing whole derived extents.
        """
        self._indexes = None
        self._constants_cache = None
        self._sorted_constants = None
        self._member_cache.clear()

    def ground_facts(self) -> FrozenSet[GroundFact]:
        """The ground-fact representation of the instance (Section 2.3).

        Following the paper's convention, a set-valued oid with the empty
        set as value contributes no ``ô(v)`` facts, and an undefined
        non-set-valued oid contributes no ``ô = v`` fact — the class fact
        ``P(o)`` alone records its existence.
        """
        facts: Set[GroundFact] = set()
        for name, members in self.relations.items():
            for v in members:
                facts.add(("rel", name, v))
        for name, oids in self.classes.items():
            for o in oids:
                facts.add(("cls", name, o))
        for o, v in self.nu.items():
            if self.is_set_valued(o):
                for element in v:
                    facts.add(("elem", o, element))
            else:
                facts.add(("val", o, v))
        return frozenset(facts)

    def fact_count(self) -> int:
        """|ground-facts(I)| without materializing the set."""
        count = sum(len(m) for m in self.relations.values())
        count += sum(len(m) for m in self.classes.values())
        for o, v in self.nu.items():
            count += len(v) if self.is_set_valued(o) else 1
        return count

    # -- validation (Definition 2.3.2) ------------------------------------------

    def validate(self) -> None:
        """Raise :class:`InstanceError` unless this is a legal instance."""
        pi = self.classes
        for name, members in self.relations.items():
            t = self.schema.relations[name]
            for v in members:
                if not member(v, t, pi):
                    raise InstanceError(
                        f"ρ({name}) member {v!r} is not of type {t!r}"
                    )
        for name, oids in self.classes.items():
            t = self.schema.classes[name]
            for o in oids:
                v = self.value_of(o)
                if v is None:
                    continue  # undefined: legal for non-set-valued oids
                if not member(v, t, pi):
                    raise InstanceError(
                        f"ν({o!r}) = {v!r} is not of type T({name}) = {t!r}"
                    )
        for o in self.nu:
            if o not in self._class_of:
                raise InstanceError(f"ν defined on {o!r}, which belongs to no class")
        # Every oid occurring anywhere must belong to some class (Section 2.3).
        stray = self.objects() - set(self._class_of)
        if stray:
            raise InstanceError(
                f"oids occur in values but belong to no class: {sorted(stray)[:5]}"
            )

    def is_valid(self) -> bool:
        try:
            self.validate()
        except InstanceError:
            return False
        return True

    # -- structure -------------------------------------------------------------

    def copy(self) -> "Instance":
        """An independent shallow-structural copy (o-values are immutable)."""
        new = Instance(self.schema)
        for name, members in self.relations.items():
            new.relations[name] = set(members)
        for name, oids in self.classes.items():
            new.classes[name] = set(oids)
        new.nu = dict(self.nu)
        new._class_of = dict(self._class_of)
        return new

    def project(self, schema: Schema) -> "Instance":
        """I[S']: the projection of this instance on a projection schema."""
        if not schema.is_projection_of(self.schema):
            raise InstanceError("projection target is not a projection of the schema")
        new = Instance(schema)
        for name in schema.relations:
            new.relations[name] = set(self.relations[name])
        for name in schema.classes:
            for o in self.classes[name]:
                new.add_class_member(name, o)
                if o in self.nu:
                    new.nu[o] = self.nu[o]
        return new

    def with_schema(self, schema: Schema) -> "Instance":
        """Re-root this instance's content under a larger schema.

        Used to turn an input instance over Sin into the starting instance
        over the program schema S ⊇ Sin.
        """
        new = Instance(schema)
        for name, members in self.relations.items():
            new.relations[name] = set(members)
        for name, oids in self.classes.items():
            for o in oids:
                new.add_class_member(name, o)
        new.nu.update(self.nu)
        return new

    # -- dunder -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Literal equality: same schema and same ground facts."""
        return (
            isinstance(other, Instance)
            and self.schema == other.schema
            and self.relations == other.relations
            and self.classes == other.classes
            and self._normalized_nu() == other._normalized_nu()
        )

    def _normalized_nu(self) -> Dict[Oid, OValue]:
        """ν with default empty sets dropped, for equality and hashing."""
        return {
            o: v
            for o, v in self.nu.items()
            if not (self.is_set_valued(o) and len(v) == 0)
        }

    def __hash__(self):  # pragma: no cover - instances are mutable
        raise TypeError("instances are mutable and unhashable")

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.relations):
            parts.append(f"ρ({name}) = {sorted(map(repr, self.relations[name]))}")
        for name in sorted(self.classes):
            parts.append(f"π({name}) = {sorted(map(repr, self.classes[name]))}")
        shown = {o: v for o, v in sorted(self.nu.items(), key=lambda kv: kv[0].serial)}
        for o, v in shown.items():
            parts.append(f"ν({o!r}) = {v!r}")
        return "\n".join(parts) or "instance ∅"
