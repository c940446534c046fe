"""Tests for JSON serialization (repro.io) and the CLI (python -m repro)."""

import json

import pytest

from repro import io
from repro.errors import InstanceError, OValueError, SchemaError
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D, classref, tuple_of, union
from repro.values import Oid, OSet, OTuple
from repro.workloads import genesis_instance


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
