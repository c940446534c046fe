"""repro.analysis — the unified static-analysis subsystem (IQL lint).

Covers the Diagnostic/Span core, the individual passes, certification
consistency with the Section-5 predicates, the text/JSON renderings, the
``repro lint`` / ``repro check --json`` CLI, and the evaluator's opt-in
pre-flight hook.
"""

import json
import pathlib
import re
import warnings

import pytest

from repro.analysis import (
    CODES,
    Certificate,
    PreflightWarning,
    Report,
    Span,
    analyze,
    analyze_source,
    certify,
    diagnostic,
)
from repro.diagnostics import sort_diagnostics
from repro.errors import NonTerminationError, SublanguageError, TypeCheckError
from repro.iql import Evaluator, Membership, Program, Rule, Var, atom, classify, columns
from repro.iql.evaluator import EvaluatorLimits
from repro.iql.typecheck import check_program_diagnostics, check_rule_diagnostics
from repro.parser.grammar import program_from_source
from repro.schema import Instance, Schema
from repro.transform import (
    graph_to_class_program,
    powerset_restricted_program,
    powerset_unrestricted_program,
)
from repro.typesys import D, tuple_of
from repro.values import Oid, OTuple
from repro.__main__ import main


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

DIVERGENT = (EXAMPLES / "divergent_invention.iql").read_text()

TC = """
schema {
  relation E: [A1: D, A2: D];
  relation TC: [A1: D, A2: D];
}
var x, y, z: D
input E
output TC
rules {
  TC(x, y) :- E(x, y).
  TC(x, z) :- TC(x, y), E(y, z).
}
"""


class TestSpanAndDiagnostic:
    def test_span_ordering_and_str(self):
        assert str(Span(3, 7)) == "3:7"
        assert Span(1, 2).sort_key() < Span(1, 3).sort_key() < Span(2, 1).sort_key()

    def test_every_code_has_severity_and_title(self):
        for code, (severity, title) in CODES.items():
            assert code.startswith("IQL") and len(code) == 6
            assert severity in ("error", "warning", "info")
            assert title

    def test_catalogue_rows_match_codes(self):
        # docs/LANGUAGE.md lists every code: a live one with its
        # severity, a retired one (never reused) with severity "—".
        text = (EXAMPLES.parent / "docs" / "LANGUAGE.md").read_text(encoding="utf-8")
        found = re.findall(r"^\| `(IQL\d{3})` \| ([^|]*?) \|", text, re.MULTILINE)
        rows = dict(found)
        assert len(rows) == len(found), "a code has two rows"
        for code, (severity, _) in CODES.items():
            assert rows.get(code) == severity, code
        retired = {code: severity for code, severity in rows.items() if code not in CODES}
        assert retired and set(retired.values()) == {"—"}, retired

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            diagnostic("IQL999", "nope")

    def test_render_format(self):
        d = diagnostic("IQL101", "boom", span=Span(4, 9))
        assert d.render("f.iql") == "f.iql:4:9 IQL101 boom"

    def test_sort_puts_spanless_last(self):
        a = diagnostic("IQL401", "info")
        b = diagnostic("IQL101", "err", span=Span(1, 1))
        assert sort_diagnostics([a, b])[0] is b

    def test_parser_attaches_spans(self):
        program = program_from_source(DIVERGENT)
        for rule in program.rules:
            assert rule.span is not None
            assert rule.span.line >= 10
            assert rule.head.span is not None


class TestTypecheckDiagnostics:
    @pytest.fixture
    def schema(self):
        return Schema(
            relations={"S": D, "R": columns(D, D)},
            classes={"P": tuple_of(a=D)},
        )

    def test_well_typed_rule_is_clean(self, schema):
        x, y = Var("x", D), Var("y", D)
        rule = Rule(atom(schema, "S", x), [atom(schema, "R", x, y)])
        assert check_rule_diagnostics(rule, schema) == []

    def test_head_only_nonclass_var_is_iql106(self, schema):
        x, y = Var("x", D), Var("y", D)
        rule = Rule(atom(schema, "R", x, y), [atom(schema, "S", x)])
        diags = check_rule_diagnostics(rule, schema)
        assert [d.code for d in diags] == ["IQL106"]
        assert diags[0].severity == "error"

    def test_unknown_name_is_iql102(self, schema):
        from repro.iql.terms import NameTerm

        x = Var("x", D)
        rule = Rule(atom(schema, "S", x), [Membership(NameTerm("Nope"), x)])
        codes = {d.code for d in check_rule_diagnostics(rule, schema)}
        assert "IQL102" in codes

    def test_legacy_wrapper_still_raises(self, schema):
        x, y = Var("x", D), Var("y", D)
        rule = Rule(atom(schema, "R", x, y), [atom(schema, "S", x)])
        program = Program(schema, rules=[rule])
        errors = [str(e) for e in check_program_diagnostics(program)]
        assert errors  # diagnostics present
        from repro.iql.typecheck import typecheck_program

        with pytest.raises(TypeCheckError):
            typecheck_program(program)

    def test_located_error_str_carries_context(self):
        err = TypeCheckError("bad", rule_label="r1", span=Span(7, 3))
        assert "rule r1" in str(err)
        assert "at 7:3" in str(err)
        assert str(TypeCheckError("plain")) == "plain"

    def test_sublanguage_error_str_carries_context(self):
        err = SublanguageError("not rr", rule_label="r9", span=Span(2, 1))
        assert "rule r9" in str(err) and "at 2:1" in str(err)


class TestPasses:
    def test_divergent_loop_flagged_iql301(self):
        report = analyze(program_from_source(DIVERGENT))
        codes = [d.code for d in report.diagnostics]
        assert "IQL301" in codes
        flag = next(d for d in report.diagnostics if d.code == "IQL301")
        assert "R3" in flag.message
        assert flag.span is not None and flag.span.line >= 10

    def test_transitive_closure_is_clean(self):
        report = analyze(program_from_source(TC))
        assert report.ok
        assert [d.code for d in report.diagnostics] == ["IQL401"]

    def test_unbound_var_flagged_iql202(self):
        report = analyze(powerset_unrestricted_program())
        assert any(d.code == "IQL202" for d in report.diagnostics)

    def test_negation_only_var_flagged_iql201_not_202(self):
        schema = Schema(relations={"S": D, "R": columns(D, D)})
        x, y = Var("x", D), Var("y", D)
        rule = Rule(
            atom(schema, "S", x),
            [atom(schema, "S", x), atom(schema, "R", x, y, positive=False)],
        )
        report = analyze(Program(schema, rules=[rule]))
        codes = [d.code for d in report.diagnostics if d.code.startswith("IQL2")]
        assert codes == ["IQL201"]  # the sharper code wins; no double report

    def test_unused_declaration_flagged_iql501(self):
        schema = Schema(relations={"S": D, "Ghost": columns(D, D)})
        x = Var("x", D)
        program = Program(
            schema,
            rules=[Rule(atom(schema, "S", x), [atom(schema, "S", x)])],
            input_names=["S"],
            output_names=["S"],
        )
        report = analyze(program)
        flags = [d for d in report.diagnostics if d.code == "IQL501"]
        assert len(flags) == 1 and "Ghost" in flags[0].message

    def test_io_names_are_not_unused(self):
        schema = Schema(relations={"S": D, "Out": D})
        x = Var("x", D)
        program = Program(
            schema,
            rules=[Rule(atom(schema, "S", x), [atom(schema, "S", x)])],
            input_names=["S"],
            output_names=["Out"],
        )
        report = analyze(program)
        assert not any(d.code == "IQL501" for d in report.diagnostics)

    def test_dead_rule_flagged_iql502(self):
        schema = Schema(relations={"S": D, "Tmp": D, "Out": D})
        x = Var("x", D)
        program = Program(
            schema,
            rules=[
                Rule(atom(schema, "Tmp", x), [atom(schema, "S", x)]),
                Rule(atom(schema, "Out", x), [atom(schema, "S", x)]),
            ],
            input_names=["S"],
            output_names=["Out"],
        )
        report = analyze(program)
        flags = [d for d in report.diagnostics if d.code == "IQL502"]
        assert len(flags) == 1 and "'Tmp'" in flags[0].message

    def test_semantic_passes_skipped_on_type_errors(self):
        schema = Schema(relations={"S": D, "R": columns(D, D)})
        x, y = Var("x", D), Var("y", D)
        program = Program(schema, rules=[Rule(atom(schema, "R", x, y), [atom(schema, "S", x)])])
        report = analyze(program)
        assert not report.ok
        assert report.certificate is None
        assert all(d.code.startswith("IQL1") for d in report.diagnostics)


class TestCertification:
    @pytest.mark.parametrize(
        "builder",
        [graph_to_class_program, powerset_restricted_program, powerset_unrestricted_program],
    )
    def test_certificate_matches_classify(self, builder):
        program = builder()
        cert = certify(program)
        report = classify(program)
        assert (cert.sublanguage == "IQLrr") == report.is_iql_rr
        assert (cert.sublanguage in ("IQLrr", "IQLpr")) == report.is_iql_pr
        assert cert.ptime == report.is_iql_pr

    def test_analyze_embeds_certificate(self):
        report = analyze(graph_to_class_program())
        assert isinstance(report.certificate, Certificate)
        assert report.certificate.sublanguage == "IQLrr"
        assert "IQLrr" in report.certificate.summary()
        assert any(d.code == "IQL401" for d in report.diagnostics)

    def test_divergent_program_is_unrestricted(self):
        report = analyze(program_from_source(DIVERGENT))
        assert report.certificate.sublanguage == "unrestricted"
        assert not report.certificate.ptime

    def test_certificate_json_round_trips(self):
        doc = certify(graph_to_class_program()).to_json()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["ptime"] is True


class TestReportAndSource:
    def test_render_text_shape(self):
        report = analyze_source(DIVERGENT, "d.iql")
        lines = report.render_text("d.iql").splitlines()
        assert lines[-1].endswith("in d.iql")
        flagged = [ln for ln in lines if " IQL301 " in ln]
        assert flagged and flagged[0].startswith("d.iql:")

    def test_parse_error_becomes_iql001(self):
        report = analyze_source("schema { relation R: [A1: D] }\nrules { R(", "b.iql")
        assert not report.ok
        assert report.diagnostics[0].code == "IQL001"
        assert report.diagnostics[0].span is not None
        assert report.certificate is None

    def test_to_json_shape(self):
        doc = analyze_source(TC, "tc.iql").to_json(filename="tc.iql")
        assert doc["ok"] is True
        assert doc["file"] == "tc.iql"
        assert doc["certificate"]["sublanguage"] == "IQLrr"
        assert all("code" in d for d in doc["diagnostics"])
        json.dumps(doc)  # serializable

    def test_report_severity_views(self):
        r = Report(
            diagnostics=[
                diagnostic("IQL101", "e"),
                diagnostic("IQL202", "w"),
                diagnostic("IQL401", "i"),
            ]
        )
        assert len(r.errors) == 1 and len(r.warnings) == 1
        assert not r.ok


class TestCli:
    @pytest.fixture
    def divergent_path(self, tmp_path):
        path = tmp_path / "divergent.iql"
        path.write_text(DIVERGENT)
        return str(path)

    @pytest.fixture
    def broken_path(self, tmp_path):
        path = tmp_path / "broken.iql"
        path.write_text("schema { relation R: [A1: D] }\nrules { R(")
        return str(path)

    def test_lint_warns_but_exits_zero(self, divergent_path, capsys):
        assert main(["lint", divergent_path]) == 0
        out = capsys.readouterr().out
        assert "IQL301" in out and "R3" in out
        assert f"{divergent_path}:" in out

    def test_lint_errors_exit_nonzero(self, broken_path, capsys):
        assert main(["lint", broken_path]) == 1
        assert "IQL001" in capsys.readouterr().out

    def test_lint_reports_io_names_that_drop_a_referenced_class(self, tmp_path, capsys):
        path = tmp_path / "unclosed.iql"
        path.write_text(DIVERGENT.replace("Seed, P", "Seed").replace("R3, P", "R3"))
        assert main(["lint", str(path)]) == 1
        out = [line for line in capsys.readouterr().out.splitlines() if "IQL110" in line]
        assert len(out) == 2 and "input 'Seed'" in out[0] and "output 'R3'" in out[1]

    def test_lint_json_format(self, divergent_path, capsys):
        assert main(["lint", divergent_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert any(d["code"] == "IQL301" for d in doc["diagnostics"])
        assert doc["certificate"]["sublanguage"] == "unrestricted"

    def test_check_json(self, divergent_path, capsys):
        assert main(["check", divergent_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "classification" in doc
        assert doc["certificate"]["sublanguage"] == "unrestricted"

    def test_check_text_unchanged(self, divergent_path, capsys):
        assert main(["check", divergent_path]) == 0
        assert "classification:" in capsys.readouterr().out

    @pytest.fixture
    def unclosed_path(self, tmp_path):
        path = tmp_path / "unclosed.iql"
        path.write_text(DIVERGENT.replace("Seed, P", "Seed"))
        return str(path)

    def test_check_rejects_io_names_that_drop_a_referenced_class(
        self, unclosed_path, capsys
    ):
        assert main(["check", unclosed_path]) == 1
        err = capsys.readouterr().err
        assert "IQL110" in err and "input 'Seed'" in err

    def test_check_json_rejects_io_names_that_drop_a_referenced_class(
        self, unclosed_path, capsys
    ):
        assert main(["check", unclosed_path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert any(
            d["code"] == "IQL110" and d["severity"] == "error" for d in doc["diagnostics"]
        )


class TestPreflight:
    def test_preflight_warns_on_divergent_program(self):
        program = program_from_source(DIVERGENT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Evaluator(program, preflight=True)
        assert any(
            issubclass(w.category, PreflightWarning) and "IQL301" in str(w.message)
            for w in caught
        )

    def test_preflight_off_by_default(self):
        program = program_from_source(DIVERGENT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Evaluator(program)
        assert not caught

    def test_preflight_silent_on_clean_program(self):
        program = program_from_source(TC)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Evaluator(program, preflight=True)
        assert not [w for w in caught if issubclass(w.category, PreflightWarning)]


class TestExamples:
    @pytest.mark.parametrize(
        "name, expect_ok, expect_codes",
        [
            ("transitive_closure", True, set()),
            ("graph_objects", True, set()),
            ("divergent_invention", True, {"IQL301", "IQL603"}),
        ],
    )
    def test_shipped_examples_lint(self, name, expect_ok, expect_codes):
        path = EXAMPLES / f"{name}.iql"
        report = analyze_source(path.read_text(), str(path))
        assert report.ok is expect_ok
        warning_codes = {d.code for d in report.warnings}
        assert warning_codes == expect_codes

    def test_divergent_example_runs_into_the_step_budget(self):
        program = program_from_source(DIVERGENT)
        instance, seed = Instance(program.input_schema), Oid("seed")
        instance.add_class_member("P", seed)
        instance.add_relation_member("Seed", OTuple(A1=seed))
        with pytest.raises(NonTerminationError):
            Evaluator(program, limits=EvaluatorLimits(max_steps=50)).run(instance)
