"""Tests for JSON serialization (repro.io) and the CLI (python -m repro)."""

import json
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import io
from repro.errors import InstanceError, OValueError, ReproError, SchemaError
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.schema.instance import conforms, flat_shape
from repro.typesys import D, classref, tuple_of, union
from repro.values import Oid, OSet, OTuple
from repro.workloads import genesis_instance

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


class TestValueCodec:
    def test_scalars_pass_through(self):
        assert io.value_to_json("x", {}) == "x"
        assert io.value_from_json(42, {}) == 42

    def test_composites(self):
        o = Oid("obj")
        names = {o: "obj"}
        v = OTuple(a=OSet(["x", o]), b=1)
        doc = io.value_to_json(v, names)
        # canonical set order: constants before oids (sort_key kinds)
        assert doc == {"tuple": {"a": {"set": ["x", {"oid": "obj"}]}, "b": 1}}
        back = io.value_from_json(doc, {"obj": o})
        assert back == v

    def test_undeclared_oid_rejected(self):
        with pytest.raises(OValueError):
            io.value_from_json({"oid": "ghost"}, {})

    def test_junk_rejected(self):
        with pytest.raises(OValueError):
            io.value_from_json({"weird": 1}, {})


class TestInstanceRoundTrip:
    def test_relational(self):
        schema = Schema(relations={"R": tuple_of(A1=D, A2=D)})
        instance = Instance(
            schema, relations={"R": [OTuple(A1="a", A2="b")]}
        )
        loaded = io.loads(io.dumps(instance))
        assert loaded == instance

    def test_genesis_round_trip_up_to_renaming(self):
        instance, _ = genesis_instance()
        loaded = io.loads(io.dumps(instance))
        loaded.validate()
        assert are_o_isomorphic(instance, loaded)

    def test_cyclic_values(self):
        schema = Schema(classes={"P": tuple_of(peer=classref("P"))})
        a, b = Oid("a"), Oid("b")
        instance = Instance(
            schema,
            classes={"P": [a, b]},
            nu={a: OTuple(peer=b), b: OTuple(peer=a)},
        )
        loaded = io.loads(io.dumps(instance))
        assert are_o_isomorphic(instance, loaded)

    def test_union_types_render(self):
        schema = Schema(relations={"R": union(D, tuple_of(s=D))})
        instance = Instance(schema, relations={"R": ["x", OTuple(s="y")]})
        loaded = io.loads(io.dumps(instance))
        assert loaded == instance

    def test_duplicate_display_names_disambiguated(self):
        schema = Schema(classes={"P": tuple_of()})
        instance = Instance(schema, classes={"P": [Oid("twin"), Oid("twin")]})
        doc = json.loads(io.dumps(instance))
        assert len(set(doc["classes"]["P"])) == 2

    def test_missing_schema_rejected(self):
        with pytest.raises(SchemaError):
            io.loads("{}")

    def test_malformed_json_is_an_instance_error(self):
        with pytest.raises(InstanceError, match="line 1 column 2") as info:
            io.loads("{not json")
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_nu_for_undeclared_oid_rejected(self):
        doc = {
            "schema": {"relations": {}, "classes": {"P": "[]"}},
            "classes": {"P": []},
            "nu": {"ghost": {"tuple": {}}},
            "relations": {},
        }
        with pytest.raises(SchemaError):
            io.instance_from_dict(doc)


#: A flat relation with a D and a class component.
FLAT_SCHEMA = {"relations": {"E": "[A1: D, A2: P]"}, "classes": {"P": "[]"}}


def flat_document(*members):
    return json.dumps(
        {"schema": FLAT_SCHEMA, "relations": {"E": list(members)}, "classes": {"P": ["o"]}}
    )


class TestFlatMembers:
    GOOD = {"tuple": {"A1": "a", "A2": {"oid": "o"}}}
    NOT_OF_TYPE = (InstanceError, "is not of type [A1: D, A2: P]")
    MEMBERS = {
        "extra attribute": {"tuple": {"A1": "a", "A2": {"oid": "o"}, "A3": 1}},
        "missing attribute": {"tuple": {"A1": "a"}},
        "oid in a D component": {"tuple": {"A1": {"oid": "o"}, "A2": {"oid": "o"}}},
        "constant in a class component": {"tuple": {"A1": "a", "A2": "o"}},
        "undeclared oid": {"tuple": {"A1": "a", "A2": {"oid": "ghost"}}},
    }
    #: The error each ill-shaped member raises, and how its message ends.
    EXPECTED = {
        "extra attribute": NOT_OF_TYPE,
        "missing attribute": NOT_OF_TYPE,
        "oid in a D component": NOT_OF_TYPE,
        "constant in a class component": NOT_OF_TYPE,
        "undeclared oid": (OValueError, "value references undeclared oid 'ghost'"),
    }

    @pytest.mark.parametrize("case", sorted(MEMBERS))
    def test_an_ill_shaped_member_fails_where_it_enters(self, case):
        error, ending = self.EXPECTED[case]
        with pytest.raises(error) as info:
            io.loads(flat_document(self.GOOD, self.MEMBERS[case]))
        assert str(info.value).endswith(ending)
        if error is InstanceError:
            assert str(info.value).startswith("ρ(E) member [")

    def test_a_duplicate_member_is_stored_once(self):
        instance = io.loads(flat_document(self.GOOD, {"tuple": {"A2": {"oid": "o"}, "A1": "a"}}))
        (o,) = instance.classes["P"]
        assert instance.relations["E"] == {OTuple(A1="a", A2=o)}


def document(**parts):
    """An instance document over E: [A1: D, A2: D] and U: {D}, with
    ``parts`` replacing its top-level keys."""
    doc = {
        "schema": {"relations": {"E": "[A1: D, A2: D]", "U": "{D}"}, "classes": {"P": "[]"}},
        "relations": {"E": [{"tuple": {"A1": "a", "A2": "b"}}]},
        "classes": {"P": ["o"]},
        "nu": {},
    }
    doc.update(parts)
    return json.dumps(doc)


DEEP_MEMBER = '{"tuple": {"A1": ' * 600 + '"n0"' + "}}" * 600


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "text, error, message",
        [
            (
                document(relations={"E": [{"tuple": [1]}]}),
                InstanceError,
                "the fields of a tuple in ρ(E) must be an object, not a list",
            ),
            (
                document(relations={"U": [{"set": 5}]}),
                InstanceError,
                "the elements of a set in ρ(U) must be a list, not a number",
            ),
            (document(classes={"P": 5}), InstanceError, "π(P) must be a list, not a number"),
            (
                document(schema={"relations": {"E": 5}}),
                SchemaError,
                "the type of relation 'E' must be a string, not a number",
            ),
            (document(schema=[]), SchemaError, "the schema must be an object, not a list"),
            (document(relations=[]), InstanceError, "relations must be an object, not a list"),
            (document(nu=[]), InstanceError, "ν must be an object, not a list"),
            (
                '{"schema": {"relations": {"E": "[A1: D, A2: D]"}}, '
                f'"relations": {{"E": [{DEEP_MEMBER}]}}}}',
                InstanceError,
                "the document nests values too deeply to decode",
            ),
            (
                document(relations={"E": {"tuple": {"A1": "a", "A2": "b"}}}),
                InstanceError,
                "ρ(E) must be a list, not an object",
            ),
            (
                document(schema={"relations": {"E": "[A1: " * 2000 + "D" + "]" * 2000}}),
                SchemaError,
                "the type of relation 'E' nests too deeply to parse",
            ),
        ],
        ids=[
            "tuple-of-a-list",
            "set-of-a-number",
            "class-extent-a-number",
            "relation-type-a-number",
            "schema-a-list",
            "relations-a-list",
            "nu-a-list",
            "member-600-deep",
            "members-an-object",
            "relation-type-2000-deep",
        ],
    )
    def test_a_malformed_document_raises_a_typed_error(self, text, error, message):
        with pytest.raises(error) as info:
            io.loads(text)
        assert str(info.value) == message

    def test_the_depth_error_does_not_depend_on_the_recursion_limit(self):
        # Under a higher limit the JSON decoder reads the 600-deep member,
        # as it does under any limit from Python 3.12 on, and the loader's
        # own bound stops it with the same message.
        text = (
            '{"schema": {"relations": {"E": "[A1: D, A2: D]"}}, '
            f'"relations": {{"E": [{DEEP_MEMBER}]}}}}'
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            with pytest.raises(InstanceError) as info:
                io.loads(text)
        finally:
            sys.setrecursionlimit(limit)
        assert str(info.value) == "the document nests values too deeply to decode"

    @pytest.mark.parametrize("levels", [io.MAX_DEPTH, io.MAX_DEPTH + 1])
    def test_a_value_may_nest_max_depth_tuples_and_sets(self, levels):
        # Every supported Python decodes this JSON, so the loader's own
        # bound decides, with the message the 600-deep member gets from
        # whichever of the JSON decoder and the loader stops first.
        member = '{"set": [{"tuple": {"A1": ' * (levels // 2) + '"n0"' + "}}]}" * (levels // 2)
        if levels % 2:
            member = '{"set": [' + member + "]}"
        text = document(relations={"U": ["__member__"]}).replace('"__member__"', member)
        if levels > io.MAX_DEPTH:
            with pytest.raises(InstanceError) as info:
                io.loads(text)
            assert str(info.value) == "the document nests values too deeply to decode"
        else:
            assert io.dumps(io.loads(text)).count('"set"') == levels // 2

    def test_an_unrecognized_value_is_shown_shortened(self):
        deep = "n0"
        for _ in range(5000):
            deep = [deep]
        doc = json.loads(document())
        doc["relations"]["E"] = [deep]
        with pytest.raises(OValueError) as info:
            io.instance_from_dict(doc)
        message = str(info.value)
        assert message.startswith("unrecognized value document: [[[") and "..." in message
        assert len(message) < 100

    def test_run_prints_one_error_line_for_a_malformed_member(self, tmp_path, capsys):
        from repro.__main__ import main

        program = tmp_path / "tc.iql"
        program.write_text(TestCli.PROGRAM)
        bad = tmp_path / "bad.json"
        bad.write_text(document(relations={"E": [{"tuple": [1]}]}))
        assert main(["run", str(program), "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == "error: the fields of a tuple in ρ(E) must be an object, not a list\n"


# -- fuzzing the loader ---------------------------------------------------------------

FUZZED = [
    json.loads((EXAMPLES / name).read_text(encoding="utf-8"))
    for name in ("path_graph.json", "graph_objects.json")
]
#: What a mutated node becomes: a list, a number, null, a string or an
#: object (a few of each, some of them well-formed values).
REPLACEMENTS = [
    [], [1], [{"tuple": {}}],
    0, -1.5, True,
    None,
    "", "x", "[A1: D]", "P",
    {}, {"oid": "o"}, {"oid": []}, {"set": [1]}, {"tuple": {"A1": 1}}, {"tuple": []},
]
DEEP = "\"__deep__\""


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A copy of an example document with one to three mutations: a key
    deleted, a node replaced, or a node wrapped 600 levels deep."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZED))))
    deep = None
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["delete", "replace", "deep"]))
        # A fresh copy: a later mutation may edit the node in place.
        replacement = json.loads(json.dumps(draw(st.sampled_from(REPLACEMENTS))))
        if not path:
            if kind == "replace":
                doc = replacement
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "delete" and isinstance(key, str):
            del parent[key]
        elif kind == "deep" and deep is None:
            # Wrapped as text: the encoder would recurse as deep as the decoder.
            opening, closing = draw(
                st.sampled_from([("[", "]"), ('{"tuple": {"A1": ', "}}"), ('{"set": [', "]}")])
            )
            deep = opening * 600 + json.dumps(parent[key]) + closing * 600
            parent[key] = "__deep__"
        else:
            parent[key] = replacement
    text = json.dumps(doc)
    return text.replace(DEEP, deep, 1) if deep is not None else text


class TestFuzzedDocuments:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_documents())
    def test_loads_conforms_or_raises_a_typed_error(self, text):
        try:
            instance = io.loads(text)
        except ReproError:
            return
        for name, members in instance.relations.items():
            shape = flat_shape(instance.schema.relations[name])
            if shape is not None:
                assert all(conforms(value, shape) for value in members)

class TestCli:
    PROGRAM = """
    schema {
      relation E: [A1: D, A2: D];
      relation T: [A1: D, A2: D];
    }
    input E
    output T
    rules {
      T(x, y) :- E(x, y).
      T(x, z) :- T(x, y), E(y, z).
    }
    """

    @pytest.fixture
    def files(self, tmp_path):
        program = tmp_path / "tc.iql"
        program.write_text(self.PROGRAM)
        schema = Schema(relations={"E": tuple_of(A1=D, A2=D)})
        instance = Instance(
            schema,
            relations={"E": [OTuple(A1="a", A2="b"), OTuple(A1="b", A2="c")]},
        )
        data = tmp_path / "in.json"
        data.write_text(io.dumps(instance))
        return program, data, tmp_path

    def test_check(self, files, capsys):
        from repro.__main__ import main

        program, _, _ = files
        assert main(["check", str(program)]) == 0
        out = capsys.readouterr().out
        assert "IQLrr" in out

    def test_run(self, files, capsys):
        from repro.__main__ import main

        program, data, tmp = files
        out_path = tmp / "out.json"
        assert main(["run", str(program), "--input", str(data), "--output", str(out_path)]) == 0
        result = io.load(str(out_path))
        assert len(result.relations["T"]) == 3

    def test_run_rejects_ill_typed_program(self, files, capsys, tmp_path):
        from repro.__main__ import main

        bad = tmp_path / "bad.iql"
        bad.write_text(
            """
            schema { relation S: D; relation Q: {D}; }
            var x: {D}
            input S
            output S
            rules { S(x) :- Q(x). }
            """
        )
        _, data, _ = files
        assert main(["run", str(bad), "--input", str(data)]) == 1

    def test_run_rejects_ill_typed_input_facts(self, files, capsys):
        from repro.__main__ import main

        program, _, tmp = files
        bad = tmp / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": {"relations": {"E": "[A1: D, A2: D]"}},
                    "relations": {"E": [{"tuple": {"A1": "n0"}}]},
                }
            )
        )
        for flags in ([], ["--strict"]):
            assert main(["run", str(program), "--input", str(bad), *flags]) == 1
            assert "error: ρ(E) member" in capsys.readouterr().err

    def test_validate(self, files, capsys):
        from repro.__main__ import main

        _, data, _ = files
        assert main(["validate", str(data)]) == 0
        assert "legal instance" in capsys.readouterr().out

    def test_validate_rejects_malformed_json(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed JSON")

    def test_missing_file(self, capsys):
        from repro.__main__ import main

        assert main(["check", "/nonexistent.iql"]) == 1

    def test_parallel_option_is_gone(self, tmp_path):
        from repro.__main__ import main
        from repro.iql import Evaluator
        from repro.parser import program_from_source

        with pytest.raises(TypeError):
            Evaluator(program_from_source(self.PROGRAM), parallel=2)
        # Evaluation is serial and the parallel-safety analysis is gone:
        # the CLI rejects their flags at argument parsing (exit status 2),
        # before reading any file.
        program, data = str(tmp_path / "missing.iql"), str(tmp_path / "missing.json")
        for argv in (
            ["run", program, "--input", data, "--parallel", "2"],
            ["run", program, "--input", data, "--parallel", "auto"],
            ["run", program, "--input", data, "--backend", "process"],
            ["analyze", program, "--parallel"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
