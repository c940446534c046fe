"""Unit and property tests for o-values (Definition 2.1.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OValueError
from repro.values import (
    Oid,
    OSet,
    OTuple,
    branching_factor,
    constants_of,
    ensure_ovalue,
    is_constant,
    is_ovalue,
    oids_of,
    render,
    sort_key,
    substitute_oids,
    value_depth,
    value_size,
)


class TestOid:
    def test_each_oid_is_fresh(self):
        assert Oid() != Oid()
        assert Oid("adam") != Oid("adam")

    def test_oid_is_not_its_name(self):
        # The paper stresses: the oid adam is distinct from the string Adam.
        adam = Oid("Adam")
        assert adam != "Adam"
        assert not is_constant(adam)

    def test_serials_increase(self):
        a, b = Oid(), Oid()
        assert a.serial < b.serial
        assert a < b

    def test_repr_uses_name(self):
        assert repr(Oid("eve")) == "&eve"

    def test_hashable_and_identity_equal(self):
        o = Oid()
        assert {o: 1}[o] == 1


class TestOTuple:
    def test_attribute_order_is_canonical(self):
        assert OTuple(B=1, A=2) == OTuple({"A": 2, "B": 1})
        assert hash(OTuple(B=1, A=2)) == hash(OTuple(A=2, B=1))

    def test_empty_tuple_allowed(self):
        assert len(OTuple()) == 0
        assert OTuple() == OTuple({})

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(OValueError):
            OTuple([("A", 1), ("A", 2)])

    def test_getitem_and_get(self):
        t = OTuple(name="Cain", kills=1)
        assert t["name"] == "Cain"
        assert t.get("missing") is None
        with pytest.raises(KeyError):
            t["missing"]

    def test_contains_and_iter(self):
        t = OTuple(a=1, b=2)
        assert "a" in t and "c" not in t
        assert list(t) == ["a", "b"]

    def test_replace(self):
        t = OTuple(a=1, b=2)
        assert t.replace(b=3) == OTuple(a=1, b=3)
        assert t.replace(c=4)["c"] == 4

    def test_non_ovalue_component_rejected(self):
        with pytest.raises(OValueError):
            OTuple(a=object())

    def test_non_string_attribute_rejected(self):
        with pytest.raises(OValueError):
            OTuple({1: "x"})


class TestOSet:
    def test_duplicate_elimination(self):
        assert OSet([1, 1, 2]) == OSet([2, 1])
        assert len(OSet(["a", "a"])) == 1

    def test_empty_set(self):
        assert len(OSet()) == 0
        assert OSet() == OSet([])

    def test_union(self):
        assert OSet([1]).union([2, 3]) == OSet([1, 2, 3])

    def test_sets_of_sets(self):
        nested = OSet([OSet([1]), OSet()])
        assert OSet([1]) in nested
        assert OSet() in nested

    def test_non_ovalue_rejected(self):
        with pytest.raises(OValueError):
            OSet([object()])


class TestPredicates:
    def test_is_ovalue(self):
        assert is_ovalue("d")
        assert is_ovalue(0)
        assert is_ovalue(Oid())
        assert is_ovalue(OTuple())
        assert is_ovalue(OSet())
        assert not is_ovalue(object())
        assert not is_ovalue([1, 2])

    def test_ensure_ovalue_coerces_containers(self):
        v = ensure_ovalue({"name": "Eve", "kids": ["cain", "abel"]})
        assert isinstance(v, OTuple)
        assert v["kids"] == OSet(["cain", "abel"])

    def test_ensure_ovalue_rejects_junk(self):
        with pytest.raises(OValueError):
            ensure_ovalue(object())


class TestTraversals:
    def test_constants_and_oids(self):
        o1, o2 = Oid(), Oid()
        v = OTuple(a="x", b=OSet([o1, OTuple(c=o2, d=3)]))
        assert constants_of(v) == frozenset({"x", 3})
        assert oids_of(v) == frozenset({o1, o2})

    def test_substitute_oids(self):
        o1, o2, o3 = Oid(), Oid(), Oid()
        v = OSet([o1, OTuple(a=o2)])
        out = substitute_oids(v, {o1: o3, o2: o3})
        assert oids_of(out) == frozenset({o3})

    def test_substitution_can_replace_by_values(self):
        o = Oid()
        assert substitute_oids(OSet([o]), {o: "gone"}) == OSet(["gone"])

    def test_branching_factor(self):
        assert branching_factor("c") == 0
        assert branching_factor(OSet(range(5))) == 5
        assert branching_factor(OTuple(a=OSet(range(7)), b=1)) == 7

    def test_depth_and_size(self):
        assert value_depth("c") == 0
        assert value_depth(OSet()) == 1
        assert value_depth(OTuple(a=OSet([OTuple()]))) == 3
        assert value_size(OTuple(a=1, b=2)) == 3


# -- property tests -------------------------------------------------------------

constants = st.one_of(
    st.text(max_size=4), st.integers(-100, 100), st.booleans()
)


def ovalues(max_depth: int = 3):
    return st.recursive(
        constants,
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(OSet),
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]), children, max_size=3
            ).map(OTuple),
        ),
        max_leaves=8,
    )


@given(ovalues())
def test_ovalues_hash_consistent_with_eq(v):
    assert v == v
    assert hash(v) == hash(v)


@given(ovalues(), ovalues())
def test_sort_key_total_order(a, b):
    ka, kb = sort_key(a), sort_key(b)
    assert (ka < kb) or (kb < ka) or (ka == kb)
    if a == b:
        assert ka == kb


@given(ovalues())
def test_render_is_deterministic(v):
    assert render(v) == render(v)


@given(st.lists(ovalues(), max_size=5))
def test_oset_models_frozenset(elements):
    assert len(OSet(elements)) == len(set(elements))


@given(ovalues())
def test_size_bounds_depth(v):
    assert value_size(v) >= value_depth(v)
