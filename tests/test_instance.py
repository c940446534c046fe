"""Tests for instances (Definition 2.3.2), including the Genesis fixture."""

import pytest

from repro.errors import InstanceError
from repro.schema import Instance, Schema
from repro.schema.instance import flat_shape
from repro.typesys import D, classref, set_of, tuple_of, union
from repro.values import Oid, OSet, OTuple
from repro.workloads import ANCESTOR, FIRST, FOUNDED, SECOND, genesis_instance


class TestGenesis:
    """Example 1.1 — the paper's own instance, checked in detail."""

    def setup_method(self):
        self.instance, self.oids = genesis_instance()

    def test_validates(self):
        self.instance.validate()

    def test_cyclicity_through_nu(self):
        adam, eve = self.oids["adam"], self.oids["eve"]
        assert self.instance.value_of(adam)["spouse"] is eve
        assert self.instance.value_of(eve)["spouse"] is adam

    def test_other_is_undefined(self):
        other = self.oids["other"]
        assert self.instance.value_of(other) is None
        assert not self.instance.has_value(other)

    def test_union_typed_relation(self):
        members = self.instance.relations[ANCESTOR]
        descs = {m["desc"] for m in members}
        assert "Noah" in descs
        assert OTuple(spouse="Ada") in descs

    def test_classes_disjoint(self):
        first = self.instance.classes[FIRST]
        second = self.instance.classes[SECOND]
        assert not first & second

    def test_constants_and_objects(self):
        constants = self.instance.constants()
        assert {"Adam", "Eve", "Noah", "Ada", "Shepherd"} <= constants
        assert self.oids["adam"] not in constants
        assert self.instance.objects() == set(self.oids.values())

    def test_ground_facts_shape(self):
        facts = self.instance.ground_facts()
        kinds = {tag for tag, _, _ in facts}
        assert kinds == {"rel", "cls", "val"}
        # Seth's empty occupations contribute a val fact with an empty set
        # inside a tuple — but an undefined oid contributes nothing.
        assert not any(tag == "val" and o is self.oids["other"] for tag, o, _ in facts)

    def test_fact_count_matches_ground_facts(self):
        assert self.instance.fact_count() == len(self.instance.ground_facts())


class TestMutation:
    def setup_method(self):
        self.schema = Schema(
            relations={"R": D},
            classes={"P": tuple_of(a=D), "Q": set_of(D), "P2": tuple_of(a=D)},
        )
        self.instance = Instance(self.schema)

    def test_relation_dedup(self):
        assert self.instance.add_relation_member("R", "x")
        assert not self.instance.add_relation_member("R", "x")

    def test_unknown_relation(self):
        with pytest.raises(InstanceError):
            self.instance.add_relation_member("Z", "x")

    def test_class_disjointness_enforced(self):
        o = Oid()
        self.instance.add_class_member("P", o)
        with pytest.raises(InstanceError):
            self.instance.add_class_member("P2", o)
        # re-adding to the same class is a no-op
        assert not self.instance.add_class_member("P", o)

    def test_assign_requires_membership(self):
        with pytest.raises(InstanceError):
            self.instance.assign(Oid(), OTuple(a="x"))

    def test_set_valued_default_and_growth(self):
        o = Oid()
        self.instance.add_class_member("Q", o)
        assert self.instance.value_of(o) == OSet()  # default for set-valued
        assert self.instance.add_set_element(o, "a")
        assert not self.instance.add_set_element(o, "a")
        assert self.instance.value_of(o) == OSet(["a"])

    def test_set_elements_only_on_set_valued(self):
        o = Oid()
        self.instance.add_class_member("P", o)
        with pytest.raises(InstanceError):
            self.instance.add_set_element(o, "a")

    def test_non_set_default_is_undefined(self):
        o = Oid()
        self.instance.add_class_member("P", o)
        assert self.instance.value_of(o) is None
        self.instance.assign(o, OTuple(a="v"))
        assert self.instance.value_of(o) == OTuple(a="v")


class TestValidation:
    def test_wrong_relation_member_type(self):
        s = Schema(relations={"R": D})
        i = Instance(s)
        i.relations["R"].add(OSet())  # bypass the typed adder
        with pytest.raises(InstanceError):
            i.validate()

    def test_wrong_nu_type(self):
        s = Schema(classes={"P": tuple_of(a=D)})
        o = Oid()
        i = Instance(s, classes={"P": [o]})
        i.nu[o] = "not a tuple"
        with pytest.raises(InstanceError):
            i.validate()

    def test_stray_oid_detected(self):
        s = Schema(relations={"R": classref("P")}, classes={"P": tuple_of()})
        i = Instance(s)
        i.relations["R"].add(Oid())  # an oid belonging to no class
        with pytest.raises(InstanceError):
            i.validate()

    def test_is_valid_boolean(self):
        s = Schema(relations={"R": D})
        assert Instance(s, relations={"R": ["a"]}).is_valid()


#: E and S are flat; U (a union component) and N (a nested tuple) are not.
FLAT = Schema(
    relations={
        "E": tuple_of(A1=D, A2=D),
        "S": tuple_of(A1=classref("P"), A2=D),
        "U": tuple_of(A1=union(D, classref("P"))),
        "N": tuple_of(A1=tuple_of(B=D)),
    },
    classes={"P": tuple_of()},
)
_O = Oid("o")
#: Members that do not conform to E = [A1: D, A2: D] or S = [A1: P, A2: D].
ILL_SHAPED = [
    ("E", OTuple(A1="a")),
    ("E", OTuple(A1="a", A2="b", A3="c")),
    ("E", OTuple(A1="a", B2="b")),
    ("E", OTuple(A1=_O, A2="b")),
    ("E", OTuple(A1=OTuple(), A2="b")),
    ("E", "a"),
    ("E", OSet(["a"])),
    ("S", OTuple(A1="a", A2="b")),
    ("S", OTuple(A1=_O, A2=_O)),
]
ILL_SHAPED_IDS = [f"{name}-{value!r}" for name, value in ILL_SHAPED]


class TestConformance:
    """A member of a flat relation conforms to its type where it enters."""

    def test_flat_shape(self):
        p = classref("P")
        assert flat_shape(tuple_of(A2=D, A1=p)) == (("A1", "P"), ("A2", D))
        assert flat_shape(tuple_of()) == ()
        for t in (D, p, set_of(D), tuple_of(A1=union(D, p)), tuple_of(A1=tuple_of())):
            assert flat_shape(t) is None

    @pytest.mark.parametrize("name, value", ILL_SHAPED, ids=ILL_SHAPED_IDS)
    def test_add_relation_member_rejects_an_ill_shaped_member(self, name, value):
        instance = Instance(FLAT, classes={"P": [_O]})
        with pytest.raises(InstanceError) as info:
            instance.add_relation_member(name, value)
        t = FLAT.relations[name]
        assert str(info.value) == f"ρ({name}) member {value!r} is not of type {t!r}"
        assert instance.relations[name] == set()

    @pytest.mark.parametrize("name, value", ILL_SHAPED, ids=ILL_SHAPED_IDS)
    def test_the_constructor_rejects_an_ill_shaped_member(self, name, value):
        with pytest.raises(InstanceError, match=rf"ρ\({name}\) member"):
            Instance(FLAT, relations={name: [value]}, classes={"P": [_O]})

    def test_a_dangling_oid_conforms(self):
        # Class membership is not part of the invariant: an oid of no
        # class enters a class component, and validate() reports it.
        instance = Instance(FLAT)
        assert instance.add_relation_member("S", OTuple(A1=Oid("ghost"), A2="b"))
        with pytest.raises(InstanceError, match=r"ρ\(S\) member \[A1: &ghost, A2: 'b'\]"):
            instance.validate()

    def test_other_relations_take_any_o_value_until_validated(self):
        instance = Instance(FLAT, classes={"P": [_O]})
        assert instance.add_relation_member("U", OTuple(A1=OSet()))
        assert instance.add_relation_member("N", OTuple(A1="a"))
        with pytest.raises(InstanceError, match="is not an o-value"):
            instance.add_relation_member("U", {"A1": "a"})
        with pytest.raises(InstanceError, match=r"ρ\((U|N)\) member"):
            instance.validate()


class TestStructuralOps:
    def setup_method(self):
        self.instance, self.oids = genesis_instance()

    def test_copy_is_independent(self):
        clone = self.instance.copy()
        clone.add_relation_member(FOUNDED, self.oids["abel"])
        assert self.oids["abel"] not in self.instance.relations[FOUNDED]
        assert clone != self.instance

    def test_copy_equal(self):
        assert self.instance.copy() == self.instance

    def test_project(self):
        target = self.instance.schema.project([SECOND, FOUNDED])
        projected = self.instance.project(target)
        projected.validate()
        assert set(projected.relations) == {FOUNDED}
        assert set(projected.classes) == {SECOND}
        # ν restricted to the projected class
        assert self.oids["adam"] not in projected.nu
        assert self.oids["cain"] in projected.nu

    def test_project_requires_projection_schema(self):
        with pytest.raises(InstanceError):
            self.instance.project(Schema(relations={"Other": D}))

    def test_with_schema_extends(self):
        bigger = self.instance.schema.with_names(relations={"Extra": D})
        lifted = self.instance.with_schema(bigger)
        lifted.validate()
        assert lifted.relations["Extra"] == set()
        assert lifted.project(self.instance.schema) == self.instance

    def test_equality_ignores_default_empty_sets(self):
        s = Schema(classes={"Q": set_of(D)})
        o = Oid()
        a = Instance(s, classes={"Q": [o]})
        b = Instance(s, classes={"Q": [o]})
        b.nu[o] = OSet()  # explicitly empty vs implicitly empty
        assert a == b

    def test_instances_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.instance)
