"""E5 — Example 3.4.3: lossless elimination of union types."""


from repro.iql import Evaluator, evaluate, typecheck_program
from repro.schema import Instance, are_o_isomorphic
from repro.transform import (
    union_decode_program,
    union_encode_program,
    union_instance,
    union_schemas,
)


def round_trip(links):
    original = union_instance(links)
    encoded = evaluate(typecheck_program(union_encode_program()), original)
    encoded.validate()
    decoded = evaluate(typecheck_program(union_decode_program()), encoded)
    # Rename the decoded class P_dec back to P for the comparison.
    s, _ = union_schemas()
    renamed = Instance(s)
    for oid in decoded.classes["P_dec"]:
        renamed.add_class_member("P", oid)
    renamed.nu.update(decoded.nu)
    return original, encoded, renamed


class TestRoundTrip:
    def test_paper_shape(self):
        original, encoded, renamed = round_trip({"a": ("a", "b"), "b": "a", "c": None})
        assert len(encoded.classes["P_enc"]) == 3
        assert are_o_isomorphic(original, renamed)

    def test_pure_oid_branches(self):
        original, _, renamed = round_trip({"a": "b", "b": "a"})
        assert are_o_isomorphic(original, renamed)

    def test_pure_tuple_branches(self):
        original, _, renamed = round_trip({"a": ("b", "b"), "b": ("a", "a")})
        assert are_o_isomorphic(original, renamed)

    def test_all_undefined(self):
        original, _, renamed = round_trip({"a": None, "b": None})
        assert are_o_isomorphic(original, renamed)

    def test_self_referential(self):
        original, _, renamed = round_trip({"a": "a"})
        assert are_o_isomorphic(original, renamed)

    def test_larger_mixed(self):
        original, _, renamed = round_trip(
            {"a": ("b", "c"), "b": "c", "c": ("a", "a"), "d": None, "e": "d"}
        )
        assert are_o_isomorphic(original, renamed)


class TestCompiled:
    def test_encode_and_decode_run_on_compiled_kernels(self):
        # The encode heads x̂' = [B1: {y'}, B2: {}] and the decode bodies
        # matching them compile: no rule runs on the reference.
        links = {"a": ("b", "c"), "b": "c", "c": ("a", "a"), "d": None, "e": "d"}
        original = union_instance(links)
        encoded = Evaluator(typecheck_program(union_encode_program())).run(original)
        decoded = Evaluator(typecheck_program(union_decode_program())).run(encoded.output)
        for result in (encoded, decoded):
            assert result.stats.rules_interpreted == 0
            assert result.stats.compile_fallbacks == 0
        s, _ = union_schemas()
        renamed = Instance(s)
        for oid in decoded.output.classes["P_dec"]:
            renamed.add_class_member("P", oid)
        renamed.nu.update(decoded.output.nu)
        assert are_o_isomorphic(original, renamed)


class TestEncodingShape:
    def test_encoding_has_no_union_values(self):
        # Every encoded value is the [B1, B2] record with exactly one
        # non-empty side (or the oid is undefined).
        original = union_instance({"a": ("a", "b"), "b": "a", "c": None})
        encoded = evaluate(union_encode_program(), original)
        for oid in encoded.classes["P_enc"]:
            value = encoded.value_of(oid)
            if value is None:
                continue
            b1, b2 = value["B1"], value["B2"]
            assert (len(b1), len(b2)) in {(1, 0), (0, 1)}

    def test_undefined_stays_undefined(self):
        original = union_instance({"a": None})
        encoded = evaluate(union_encode_program(), original)
        (oid,) = encoded.classes["P_enc"]
        assert encoded.value_of(oid) is None
