"""O-values: the value universe of the object-based data model (Section 2.1).

Definition 2.1.1 of the paper: the set of *o-values* is the smallest set
containing ``D ∪ O`` (constants and object identities) that is closed under
finite tupling ``[A1: v1, ..., Ak: vk]`` and finite setting ``{v1, ..., vk}``.

Representation choices
----------------------

* Constants (the set ``D``) are plain Python ``str``, ``int``, ``float`` and
  ``bool`` values. The paper treats ``D`` as a single countable base domain;
  using several Python scalar types changes nothing structurally and keeps
  examples readable (``"Adam"``, ``42``).
* Oids (the set ``O``) are instances of :class:`Oid` — atomic identities
  with a process-wide serial number. Crucially an oid carries **no value**:
  the partial function ν lives in the instance (Definition 2.3.2), so the
  same oid can denote different o-values in different instances, exactly as
  in the paper where ``adam`` is distinct from the string ``Adam``.
* Tuples are :class:`OTuple` — immutable mappings from attribute names to
  o-values with canonical (sorted) attribute order, so two tuples with the
  same fields are equal regardless of construction order.
* Sets are :class:`OSet` — immutable wrappers around ``frozenset``.
  Duplicate elimination is therefore automatic, matching the paper's tree
  representation in which the children of a set node are *distinct* subtrees.

All o-values are hashable, so they can themselves be set elements, relation
members, or dictionary keys inside the evaluator.

Hash-consing
------------

Tuples and sets are *interned* (see :mod:`repro.values.intern`):
constructing a structurally equal value returns the **same** Python
object, so the value universe is a DAG of unique nodes and every live
tuple or set is the store's node for its content. Equality is therefore
identity — :class:`Oid`, :class:`OTuple` and :class:`OSet` define no
``__eq__`` — while ``__hash__`` stays content-based (set iteration
order, and with it invention order, depends on it). Set/dict membership
never walks a tree, and the per-node metadata used by the hot paths —
:func:`value_size`, :func:`value_depth`, :func:`oids_of`,
:func:`constants_of`, :func:`sort_key`, :func:`sorted_elements` — is
computed once per distinct value and cached on the node itself.

Two ways to build a tuple or a set
----------------------------------

``OTuple(...)`` and ``OSet(...)`` are the public constructors: they
validate every field or element (a tuple also canonicalizes its
attribute order), and the parser, :mod:`repro.io`, tests and user code
call them. They then hand the canonical content to
:func:`interned_tuple` or :func:`interned_set`, the one place each kind
is interned. Trusted callers call those two directly: the caller
guarantees that the content is canonical, because nothing checks it
again.

* A tuple's content is a pair tuple with distinct string attributes in
  sorted order, each paired with an o-value. Compiled kernels meet that
  contract by building pairs in a tuple term's ``fields`` order (sorted
  at term construction) from subterm values that are o-values:
  matcher-bound slots, validated constants, interned tuples and sets,
  and dereferences already checked for None. Pairs in any other order
  would give one content a second node.
* A set's content is a frozenset of o-values.
  ``Instance.add_set_elements`` meets that contract by joining elements
  its caller guarantees are o-values to the elements of an existing set.

:data:`EMPTY_SET` is the interned empty set, held by this module for the
life of the process, so the default value of a set-valued oid is always
that one node: a fresh ``OSet()`` whose last holder had died would be a
table miss on every call.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, NoReturn, Optional, Tuple, Union

from repro.errors import OValueError
from repro.values.intern import STORE as _STORE
from repro.values.intern import adopt as _adopt
from repro.values.intern import sweep as _sweep

#: The Python types admitted as constants (the base domain D).
CONSTANT_TYPES = (str, int, float, bool)

#: Static alias for anything that is an o-value. ``object`` is used for the
#: scalar leg because Python has no recursive union types; :func:`is_ovalue`
#: is the runtime check.
OValue = Union[str, int, float, bool, "Oid", "OTuple", "OSet"]

_EMPTY_FROZENSET: FrozenSet = frozenset()

#: Salts separating an OTuple/OSet hash from the raw hash of its canonical
#: content (and from each other), so a tuple, its field list and a set of
#: the same elements land in different buckets.
_TUPLE_SALT = 0x5A1_7B1E
_SET_SALT = 0x5A1_5E75

#: Everything admissible as a tuple component / set element, as one tuple so
#: construction-time validation is a single C-level isinstance. Equals
#: ``(Oid, OTuple, OSet) + CONSTANT_TYPES`` — i.e. :func:`is_ovalue` —
#: and is filled in after the classes are defined.
_OVALUE_TYPES: tuple = ()


def _refuse_reduce(value: object) -> NoReturn:
    """The ``__reduce__`` of :class:`Oid`, :class:`OTuple` and :class:`OSet`:
    values neither pickle nor copy.

    An oid is a bare identity whose meaning lives in one instance, and a
    tuple or set is its content's one interned node in this process, so
    neither has a faithful copy. The method must raise rather than be
    left out: the default reduction rebuilds a tuple or set through
    ``__new__`` with no arguments, which returns the interned empty node,
    and then overwrites that node's fields; and it would give a second
    ``Oid`` an existing serial.
    """
    raise TypeError(
        f"{type(value).__name__} values cannot be pickled or copied: an "
        "o-value is an identity or an interned node of this process"
    )


class Oid:
    """An object identity: an atomic, globally distinct element of ``O``.

    Oids compare by identity (each constructed ``Oid`` is a fresh element of
    ``O``). A display ``name`` may be supplied for readable examples
    (``Oid("adam")``); the name carries no semantics and two oids named
    ``"adam"`` are still distinct. The ``serial`` number gives a stable,
    deterministic creation order, which the evaluator's invention machinery
    and the isomorphism certificates rely on.
    """

    __slots__ = ("serial", "name", "_hash", "__weakref__")

    _next_serial = 0
    _lock = threading.Lock()

    def __init__(self, name: str = ""):
        with Oid._lock:
            Oid._next_serial += 1
            self.serial = Oid._next_serial
        self.name = name
        # Precomputed: oids are hashed on every table probe of every value
        # containing them, so ``__hash__`` must be an attribute load.
        self._hash = hash((Oid, self.serial))

    def __repr__(self) -> str:
        if self.name:
            return f"&{self.name}"
        return f"&o{self.serial}"

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Oid") -> bool:
        if not isinstance(other, Oid):
            return NotImplemented
        return self.serial < other.serial

    __reduce__ = _refuse_reduce


class OTuple:
    """A finite tuple ``[A1: v1, ..., Ak: vk]`` of o-values.

    Attribute names must be distinct strings; the empty tuple ``[]`` (k = 0)
    is permitted and is the unit value of the model. Tuples are immutable
    and hashable; attribute order is canonicalized by sorting. Instances
    are interned (see module docstring): the constructor may return an
    existing object, and equal tuples are one object.
    """

    __slots__ = (
        "_fields",
        "_lookup",
        "_hash",
        "_attrs",
        "_size",
        "_depth",
        "_oids",
        "_consts",
        "_sortkey",
        "__weakref__",
    )

    def __new__(
        cls,
        fields: Union[Mapping[str, OValue], Iterable[Tuple[str, OValue]], None] = None,
        **kwargs: OValue,
    ):
        if fields is None:
            # Keyword arguments have string keys and no duplicates: only
            # the values need checking.
            items: Dict[str, OValue] = kwargs
            for attr, value in items.items():
                if not isinstance(value, _OVALUE_TYPES):
                    raise OValueError(
                        f"tuple component {attr}={value!r} is not an o-value"
                    )
        else:
            # The exact-type test first: the ABC check costs a Python-level
            # __instancecheck__ per call.
            if type(fields) is dict or isinstance(fields, Mapping):
                items = dict(fields)
            else:
                items = {}
                for attr, value in fields:
                    if attr in items:
                        raise OValueError(f"duplicate attribute {attr!r} in tuple")
                    items[attr] = value
            for attr, value in kwargs.items():
                if attr in items:
                    raise OValueError(f"duplicate attribute {attr!r} in tuple")
                items[attr] = value
            for attr, value in items.items():
                if not isinstance(attr, str):
                    raise OValueError(
                        f"attribute names must be strings, got {attr!r}"
                    )
                if not isinstance(value, _OVALUE_TYPES):
                    raise OValueError(
                        f"tuple component {attr}={value!r} is not an o-value"
                    )
        return interned_tuple(tuple(sorted(items.items())))

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attribute names, in canonical (sorted) order."""
        try:
            return self._attrs
        except AttributeError:
            cached = tuple(attr for attr, _ in self._fields)
            self._attrs = cached
            return cached

    def __getitem__(self, attr: str) -> OValue:
        try:
            return self._lookup[attr]
        except KeyError:
            raise KeyError(attr) from None

    def get(self, attr: str, default: OValue = None) -> OValue:
        return self._lookup.get(attr, default)

    def items(self) -> Tuple[Tuple[str, OValue], ...]:
        return self._fields

    def __contains__(self, attr: str) -> bool:
        return attr in self._lookup

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def replace(self, **updates: OValue) -> "OTuple":
        """Return a copy with the given attributes replaced (or added)."""
        merged = dict(self._fields)
        merged.update(updates)
        return OTuple(merged)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{attr}: {value!r}" for attr, value in self._fields)
        return f"[{inner}]"

    __reduce__ = _refuse_reduce


def interned_tuple(pairs: Tuple[Tuple[str, OValue], ...]) -> OTuple:
    """The interned :class:`OTuple` whose canonical field tuple is ``pairs``.

    Trusted: ``pairs`` must be a tuple of ``(attr, o-value)`` pairs with
    distinct string attributes in sorted order (the module docstring says
    who may call this). Nothing is validated. One dict probe on a hit; on
    a miss the store adopts the new node
    (:func:`~repro.values.intern.adopt`, which returns the node another
    thread may have stored first), and a table at its high-water mark is
    swept.
    """
    store = _STORE
    entry = store.tuples.get(pairs)
    if entry is not None:
        node = entry()
        if node is not None:
            store.hits += 1
            return node
    store.misses += 1
    node = object.__new__(OTuple)
    node._fields = pairs
    node._lookup = dict(pairs)
    node._hash = hash(pairs) ^ _TUPLE_SALT
    node = _adopt(store.tuples, pairs, node)
    if len(store.tuples) >= store.tuples_mark:
        _sweep("tuples")
    return node


class OSet:
    """A finite set ``{v1, ..., vk}`` of o-values.

    The empty set ``{}`` (k = 0) is permitted — it is the default value of a
    freshly invented set-valued oid (Section 3.2). Note the difference the
    paper stresses between the type ``{⊥}`` (whose only member is the empty
    set) and the type ``⊥`` (which has no members): ``OSet()`` is a value,
    and a perfectly ordinary one. Instances are interned (see module
    docstring): the constructor may return an existing object, and equal
    sets are one object.
    """

    __slots__ = (
        "_elements",
        "_hash",
        "_size",
        "_depth",
        "_oids",
        "_consts",
        "_sortkey",
        "_sorted",
        "__weakref__",
    )

    def __new__(cls, elements: Iterable[OValue] = ()):
        elems = frozenset(elements)
        for value in elems:
            if not isinstance(value, _OVALUE_TYPES):
                raise OValueError(f"set element {value!r} is not an o-value")
        return interned_set(elems)

    @property
    def elements(self) -> FrozenSet[OValue]:
        return self._elements

    def __contains__(self, value: OValue) -> bool:
        return value in self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[OValue]:
        return iter(self._elements)

    def union(self, other: Iterable[OValue]) -> "OSet":
        return OSet(self._elements | frozenset(other))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(sorted(repr(v) for v in self._elements))
        return "{" + inner + "}"

    __reduce__ = _refuse_reduce


def interned_set(elements: FrozenSet[OValue]) -> OSet:
    """The interned :class:`OSet` whose element set is ``elements``.

    Trusted: ``elements`` must be a frozenset of o-values (the module
    docstring says who may call this). Nothing is validated. Interned
    like :func:`interned_tuple`: one dict probe on a hit, and on a miss
    the store adopts the new node and sweeps a table at its high-water
    mark.
    """
    store = _STORE
    entry = store.sets.get(elements)
    if entry is not None:
        node = entry()
        if node is not None:
            store.hits += 1
            return node
    store.misses += 1
    node = object.__new__(OSet)
    node._elements = elements
    node._hash = hash(elements) ^ _SET_SALT
    node = _adopt(store.sets, elements, node)
    if len(store.sets) >= store.sets_mark:
        _sweep("sets")
    return node


_OVALUE_TYPES = (Oid, OTuple, OSet) + CONSTANT_TYPES

#: The interned empty set, alive for the life of the process (see the
#: module docstring).
EMPTY_SET: OSet = OSet()


def is_constant(value: object) -> bool:
    """True iff ``value`` is an element of the base domain D."""
    return isinstance(value, CONSTANT_TYPES) and not isinstance(value, Oid)


def is_ovalue(value: object) -> bool:
    """True iff ``value`` is an o-value (Definition 2.1.1).

    Components of tuples and sets are validated on construction, so this
    check does not need to recurse.
    """
    return isinstance(value, (Oid, OTuple, OSet)) or is_constant(value)


def ensure_ovalue(value: object) -> OValue:
    """Coerce Python containers into o-values.

    ``dict`` becomes :class:`OTuple`, ``set``/``frozenset``/``list``/``tuple``
    become :class:`OSet` (with elements coerced recursively). Scalars and
    existing o-values pass through. This is a convenience for building test
    fixtures and example instances; the core model only ever sees o-values.
    """
    if isinstance(value, (Oid, OTuple, OSet)):
        return value
    if is_constant(value):
        return value
    if isinstance(value, dict):
        return OTuple({attr: ensure_ovalue(v) for attr, v in value.items()})
    if isinstance(value, (set, frozenset, list, tuple)):
        return OSet(ensure_ovalue(v) for v in value)
    raise OValueError(f"cannot interpret {value!r} as an o-value")


def constants_of(value: OValue) -> FrozenSet[OValue]:
    """The set of constants occurring in ``value`` (used by ``constants(I)``).

    Cached per interned node: the DAG is walked once per distinct value.
    """
    if isinstance(value, (OTuple, OSet)):
        try:
            return value._consts
        except AttributeError:
            cached = _node_constants(value)
            value._consts = cached
            return cached
    if isinstance(value, Oid):
        return _EMPTY_FROZENSET
    if is_constant(value):
        return frozenset((value,))
    raise OValueError(f"not an o-value: {value!r}")


def _node_constants(value: OValue) -> FrozenSet[OValue]:
    out: set = set()
    children = (
        (v for _, v in value._fields) if isinstance(value, OTuple) else iter(value._elements)
    )
    for child in children:
        if isinstance(child, (OTuple, OSet)):
            out |= constants_of(child)
        elif not isinstance(child, Oid):
            out.add(child)
    return frozenset(out)


def oids_of(value: OValue) -> FrozenSet[Oid]:
    """The set of oids occurring in ``value`` (used by ``objects(I)``).

    Cached per interned node, like :func:`constants_of`.
    """
    if isinstance(value, (OTuple, OSet)):
        try:
            return value._oids
        except AttributeError:
            cached = _node_oids(value)
            value._oids = cached
            return cached
    if isinstance(value, Oid):
        return frozenset((value,))
    if is_constant(value):
        return _EMPTY_FROZENSET
    raise OValueError(f"not an o-value: {value!r}")


def _node_oids(value: OValue) -> FrozenSet[Oid]:
    out: set = set()
    children = (
        (v for _, v in value._fields) if isinstance(value, OTuple) else iter(value._elements)
    )
    for child in children:
        if isinstance(child, Oid):
            out.add(child)
        elif isinstance(child, (OTuple, OSet)):
            out |= oids_of(child)
    return frozenset(out)


def substitute_oids(
    value: OValue,
    mapping: Mapping[Oid, OValue],
    _memo: Optional[Dict[int, OValue]] = None,
) -> OValue:
    """Simultaneously replace oids in ``value`` according to ``mapping``.

    Oids not in the mapping are left in place. This is the workhorse behind
    O-isomorphism application (Section 4.1) and the object→value translation
    ψ (Section 7.1), where every oid is replaced by its (possibly infinite)
    pure value.

    Memoized by node identity (``_memo``; interned nodes shared across the
    value — or across values, when the caller passes one memo for a whole
    instance — are rewritten once), and subtrees whose cached oid set is
    disjoint from the mapping are returned unchanged without a walk.
    """
    if isinstance(value, Oid):
        return mapping.get(value, value)
    if isinstance(value, (OTuple, OSet)):
        if not mapping:
            return value
        return _substitute_node(value, mapping, {} if _memo is None else _memo)
    return value


def _substitute_node(
    value: OValue, mapping: Mapping[Oid, OValue], memo: Dict[int, OValue]
) -> OValue:
    # id() keys are stable here: the caller's root keeps every node alive
    # for the duration of the walk.
    key = id(value)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if mapping.keys().isdisjoint(oids_of(value)):
        memo[key] = value
        return value
    if isinstance(value, OTuple):
        result: OValue = OTuple(
            {
                attr: (
                    mapping.get(v, v)
                    if isinstance(v, Oid)
                    else _substitute_node(v, mapping, memo)
                    if isinstance(v, (OTuple, OSet))
                    else v
                )
                for attr, v in value._fields
            }
        )
    else:
        result = OSet(
            mapping.get(v, v)
            if isinstance(v, Oid)
            else _substitute_node(v, mapping, memo)
            if isinstance(v, (OTuple, OSet))
            else v
            for v in value._elements
        )
    memo[key] = result
    return result


def branching_factor(value: OValue) -> int:
    """The maximum out-degree of a node in the tree representing ``value``.

    Lemma 5.7 bounds the branching factor of instances produced by
    invention-free programs; this function makes that bound measurable.
    Scalars have branching factor 0.
    """
    best = 0
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, OTuple):
            best = max(best, len(v))
            stack.extend(component for _, component in v.items())
        elif isinstance(v, OSet):
            best = max(best, len(v))
            stack.extend(v.elements)
    return best


def value_depth(value: OValue) -> int:
    """The depth of the finite tree representing ``value`` (leaves = 0).

    Cached per interned node.
    """
    if isinstance(value, (OTuple, OSet)):
        try:
            return value._depth
        except AttributeError:
            if isinstance(value, OTuple):
                children = [v for _, v in value._fields]
            else:
                children = list(value._elements)
            cached = 1 + max((value_depth(v) for v in children), default=0)
            value._depth = cached
            return cached
    return 0


def value_size(value: OValue) -> int:
    """The number of nodes in the **tree** representing ``value``.

    Shared (hash-consed) subvalues count once per occurrence, exactly as
    before interning; the count itself is cached per distinct node.
    """
    if isinstance(value, (OTuple, OSet)):
        try:
            return value._size
        except AttributeError:
            if isinstance(value, OTuple):
                children = (v for _, v in value._fields)
            else:
                children = iter(value._elements)
            cached = 1 + sum(value_size(v) for v in children)
            value._size = cached
            return cached
    return 1


def sort_key(value: OValue):
    """A deterministic total order on o-values.

    Python cannot compare ``str`` with ``int``, let alone sets with tuples,
    so we build an explicit lexicographic key: kind tag first, then content.
    Oids order by serial — stable within a process run. Used for canonical
    printing and for deterministic iteration in the evaluator (which keeps
    runs reproducible without affecting semantics). Keys of tuples and
    sets are cached per interned node.
    """
    if isinstance(value, (int, float)):
        # One numeric kind: Python (hence the model) has 0 == False == 0.0,
        # so equal constants must share a sort key. Mixed int/float tuples
        # compare fine element-wise.
        return (0, "num", value)
    if isinstance(value, str):
        return (0, "str", value)
    if isinstance(value, Oid):
        return (1, value.serial)
    if isinstance(value, OTuple):
        try:
            return value._sortkey
        except AttributeError:
            cached = (2, tuple((attr, sort_key(v)) for attr, v in value._fields))
            value._sortkey = cached
            return cached
    if isinstance(value, OSet):
        try:
            return value._sortkey
        except AttributeError:
            cached = (3, tuple(sort_key(v) for v in sorted_elements(value)))
            value._sortkey = cached
            return cached
    raise OValueError(f"not an o-value: {value!r}")


def sorted_elements(value: "OSet") -> Tuple[OValue, ...]:
    """The elements of an :class:`OSet` in canonical :func:`sort_key` order.

    Cached on the node: set-pattern matching in the evaluator visits the
    same container values over and over and previously re-sorted them on
    every call.
    """
    try:
        return value._sorted
    except AttributeError:
        cached = tuple(sorted(value._elements, key=sort_key))
        value._sorted = cached
        return cached


def render(value: OValue) -> str:
    """Render an o-value deterministically (sets in sorted order)."""
    if isinstance(value, OTuple):
        inner = ", ".join(f"{attr}: {render(v)}" for attr, v in value.items())
        return f"[{inner}]"
    if isinstance(value, OSet):
        inner = ", ".join(render(v) for v in sorted_elements(value))
        return "{" + inner + "}"
    if isinstance(value, Oid):
        return repr(value)
    return repr(value)
