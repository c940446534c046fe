"""The dependency/effect analysis layer and the certified scheduler.

Covers the shared per-rule effect summaries (`repro.analysis.effects`),
the per-stage dependency graphs with SCC condensation and strata
(`repro.analysis.depgraph`), the IQL601–IQL604 dataflow diagnostics, the
schedule certificate and its fallback reasons, the scheduled (production)
evaluator including its stats counters and the IQL601 PreflightWarning,
and the `repro analyze` / `repro lint --strict` CLI.
"""

import json
import pathlib
import warnings

import pytest

from repro.__main__ import main
from repro.analysis import (
    PreflightWarning,
    analyze,
    compute_schedule,
    depgraph_pass,
    rule_effects,
    stage_graph,
)
from repro.analysis.effects import head_symbol, plane
from repro.iql import Evaluator, Program, Rule, Var, atom, columns
from repro.parser.grammar import program_from_source
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D
from repro.values import OTuple

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

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

UNSTRATIFIED = """
schema {
  relation E: [A1: D, A2: D];
  relation T: [A1: D, A2: D];
}
var x, y: D
input E
output T
rules {
  T(x, y) :- E(x, y), not T(y, x).
}
"""

DEAD_READ = """
schema {
  relation E: [A1: D];
  relation W: [A1: D];
  relation U: [A1: D];
}
var x: D
input E
output U
rules {
  U(x) :- W(x).
  U(x) :- E(x).
}
"""

CHAIN = """
schema {
  relation E: [A1: D, A2: D];
  relation T: [A1: D, A2: D];
  relation U: [A1: D, A2: D];
}
var x, y, z: D
input E
output U
rules {
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z).
  U(x, y) :- T(x, y), T(y, x).
}
"""


def edge_instance(program, edges):
    instance = Instance(program.input_schema)
    for a, b in edges:
        instance.add_relation_member("E", OTuple(A1=a, A2=b))
    return instance


# -- effect summaries ---------------------------------------------------------------


class TestEffects:
    def test_tc_rule_reads_and_writes(self):
        program = program_from_source(TC)
        effects = rule_effects(program.rules[1], program.schema)
        assert effects.positive_reads == {"E", "TC"}
        assert effects.writes == {"TC"}
        assert effects.gating_reads == {"E", "TC"}
        assert not effects.negative_reads
        assert not effects.invention_classes
        assert not effects.is_assignment

    def test_negative_literal_reads(self):
        program = program_from_source(UNSTRATIFIED)
        effects = rule_effects(program.rules[0], program.schema)
        assert effects.negative_reads == {"T"}
        assert effects.positive_reads == {"E"}
        assert effects.nonmonotone_reads == {"T"}

    def test_invention_rule_writes_head_and_classes(self):
        program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
        invent = program.stages[1][0]
        effects = rule_effects(invent, program.schema)
        assert effects.writes == {"R_prime", "P", "P_aux"}
        assert effects.invention_classes == {"P", "P_aux"}
        assert effects.positive_reads == {"R0"}

    def test_deref_head_writes_value_plane(self):
        program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
        pour = program.stages[2][0]
        assert head_symbol(pour) == plane("P_aux")
        effects = rule_effects(pour, program.schema)
        assert effects.writes == {"^P_aux"}
        # Body enumerates P/P_aux extents through the variables' types.
        assert {"P", "P_aux", "R", "R_prime"} <= effects.positive_reads

    def test_assignment_head_snapshot_read(self):
        program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
        assign = program.stages[3][0]
        effects = rule_effects(assign, program.schema)
        assert effects.is_assignment
        assert effects.writes == {"^P"}
        # pp^ in the head value dereferences a set-valued class: a
        # snapshot of the growing ν(pp), order-sensitive like negation.
        assert "^P_aux" in effects.extension_reads
        assert "^P_aux" in effects.nonmonotone_reads

    def test_summary_and_json_roundtrip(self):
        program = program_from_source(TC)
        effects = rule_effects(program.rules[1], program.schema)
        assert "reads+ {E, TC}" in effects.summary()
        doc = effects.to_json()
        assert doc["writes"] == ["TC"]
        assert doc["reads_positive"] == ["E", "TC"]


# -- stage graphs --------------------------------------------------------------------


class TestStageGraph:
    def test_tc_sccs_and_strata(self):
        program = program_from_source(TC)
        graph = stage_graph(program.stages[0], program.schema)
        assert graph.sccs == (("E",), ("TC",))  # topological order
        assert graph.recursive == (False, True)
        assert graph.negative_recursive == (False, False)
        assert graph.strata == ((0, 1),)  # both rules own the TC SCC

    def test_chain_splits_into_two_strata(self):
        program = program_from_source(CHAIN)
        graph = stage_graph(program.stages[0], program.schema)
        strata = graph.strata_rules()
        assert len(strata) == 2
        assert [r.head_name() for r in strata[0]] == ["T", "T"]
        assert [r.head_name() for r in strata[1]] == ["U"]

    def test_coupling_merges_writes_without_recursion(self):
        program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
        graph = stage_graph(program.stages[1], program.schema, index=1)
        scc = graph.sccs[graph.rule_scc[0]]
        assert set(scc) == {"R_prime", "P", "P_aux"}
        # Coupling edges alone do not make the SCC recursive.
        assert not graph.recursive[graph.rule_scc[0]]

    def test_negative_edge_marks_scc(self):
        program = program_from_source(UNSTRATIFIED)
        graph = stage_graph(program.stages[0], program.schema)
        index = graph.scc_of["T"]
        assert graph.recursive[index]
        assert graph.negative_recursive[index]


# -- the IQL6xx diagnostics ----------------------------------------------------------


class TestDepgraphPass:
    def test_iql601_unstratified_negation(self):
        program = program_from_source(UNSTRATIFIED)
        codes = {d.code for d in depgraph_pass(program)}
        assert "IQL601" in codes

    def test_iql602_dead_at_entry(self):
        program = program_from_source(DEAD_READ)
        diags = [d for d in depgraph_pass(program) if d.code == "IQL602"]
        assert len(diags) == 1
        assert "W" in diags[0].message

    def test_iql602_sees_earlier_stage_writes(self):
        # W is written by stage 1, so the stage-2 reader is alive.
        source = DEAD_READ.replace(
            "U(x) :- W(x).\n  U(x) :- E(x).",
            "W(x) :- E(x).\n  ;\n  U(x) :- W(x).",
        )
        program = program_from_source(source)
        assert not [d for d in depgraph_pass(program) if d.code == "IQL602"]

    def test_iql602_ignores_self_feeding_loop(self):
        # Mutual recursion with no base case: never live.
        source = DEAD_READ.replace(
            "U(x) :- W(x).\n  U(x) :- E(x).",
            "U(x) :- W(x).\n  W(x) :- U(x).",
        )
        program = program_from_source(source)
        diags = [d for d in depgraph_pass(program) if d.code == "IQL602"]
        assert len(diags) == 2

    def test_iql603_divergent_invention(self):
        program = program_from_source(
            (EXAMPLES / "divergent_invention.iql").read_text()
        )
        codes = {d.code for d in depgraph_pass(program)}
        assert "IQL603" in codes

    def test_iql604_bounded_invention(self):
        program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
        diags = [d for d in depgraph_pass(program) if d.code == "IQL604"]
        assert diags and all(d.severity == "info" for d in diags)
        assert "O(n^1)" in diags[0].message

    def test_report_includes_depgraph_codes(self):
        report = analyze(program_from_source(UNSTRATIFIED))
        assert "IQL601" in {d.code for d in report.warnings}


# -- the schedule certificate --------------------------------------------------------


class TestComputeSchedule:
    def test_tc_certifies_one_stratum(self):
        schedule = compute_schedule(program_from_source(TC))
        assert schedule.fully_scheduled
        assert schedule.stratum_count == 1

    def test_chain_certifies_two_strata(self):
        schedule = compute_schedule(program_from_source(CHAIN))
        assert schedule.fully_scheduled
        assert schedule.stratum_count == 2

    def test_iql601_forces_fallback(self):
        schedule = compute_schedule(program_from_source(UNSTRATIFIED))
        plan = schedule.stages[0]
        assert not plan.scheduled
        assert "IQL601" in plan.fallback_reason

    def test_delete_forces_fallback(self):
        schema = Schema(relations={"E": columns(D), "U": columns(D)})
        x = Var("x", D)
        program = Program(
            schema,
            rules=[
                Rule(atom(schema, "U", x), [atom(schema, "E", x)]),
                Rule(atom(schema, "E", x), [atom(schema, "U", x)], delete=True),
            ],
            input_names=["E"],
            output_names=["U"],
        )
        plan = compute_schedule(program).stages[0]
        assert not plan.scheduled
        assert "deletion" in plan.fallback_reason

    def test_blocking_hazard_forces_fallback(self):
        # The inventing rule reads its own head relation: invention
        # counts depend on firing times, so no schedule is certified.
        program = program_from_source(
            (EXAMPLES / "divergent_invention.iql").read_text()
        )
        plan = compute_schedule(program).stages[0]
        assert not plan.scheduled
        assert "invent" in plan.fallback_reason

    def test_isolated_invention_is_certified(self):
        program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
        schedule = compute_schedule(program)
        assert schedule.fully_scheduled


class TestFallbackTaxonomy:
    """Each blocking construct of ``_stage_fallback`` names itself in the
    ``fallback_reason`` — the reason string is API, tools match on it."""

    def fallback(self, source):
        plan = compute_schedule(program_from_source(source)).stages[0]
        assert not plan.scheduled
        assert plan.strata is None
        return plan.fallback_reason

    def test_choose_names_genericity(self):
        reason = self.fallback(
            """
            schema { relation S: [A1: D, A2: D]; relation Pick: [A1: D, A2: D]; }
            var x, y: D
            input S
            output Pick
            rules { Pick(x, y) :- S(x, y), choose. }
            """
        )
        assert "choose" in reason

    def test_enumeration_names_type_interpretations(self):
        # Pow(X) ← X = X is not range-restricted: X ranges over a type
        # interpretation, which every stage write grows.
        reason = self.fallback(
            """
            schema { relation Pow: {D}; relation S: D; }
            input S
            output Pow
            rules { Pow(X) :- X = X. }
            """
        )
        assert "enumerate type interpretations" in reason

    def test_stage_written_negation_names_order_sensitivity(self):
        # Stratifiable in the classical sense (no negative cycle), but
        # inside ONE inflationary stage the negative read of T is still
        # order-sensitive, so no schedule is certified.
        reason = self.fallback(
            """
            schema { relation E: D; relation T: D; relation U: D; }
            var x: D
            input E
            output U
            rules {
              T(x) :- E(x).
              U(x) :- E(x), not T(x).
            }
            """
        )
        assert "non-monotone read" in reason and "T" in reason

    def test_assignment_reading_stage_written_names_firing_times(self):
        reason = self.fallback(
            """
            schema { relation Seed: [A1: P]; relation Mark: [A1: P]; class P: []; }
            var p: P
            input Seed, P
            output Mark, P
            rules {
              Mark(p) :- Seed(p).
              p^ = [] :- Mark(p).
            }
            """
        )
        assert "weak-assignment" in reason and "firing times" in reason


# -- the scheduled evaluator ---------------------------------------------------------


class TestScheduledEvaluator:
    def test_scheduled_equals_monolithic_on_chain(self):
        program = program_from_source(CHAIN)
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        scheduled = Evaluator(program).run(edge_instance(program, edges))
        reference = Evaluator(program, naive=True).run(edge_instance(program, edges))
        assert scheduled.output == reference.output
        assert scheduled.stats.strata == 2
        assert scheduled.stats.schedule_fallbacks == 0

    def test_dirty_tracking_skips_clean_rules(self):
        # The bodyless fact rule puts the TC stratum outside the semi-naive
        # fragment, so it runs the dirty-tracked naive loop; the base rule
        # reads only E, so it is clean after step 1 while the recursive
        # rule keeps growing TC.
        program = program_from_source(
            TC.replace("rules {", 'rules {\n  TC("n0", "n0").')
        )
        edges = [(f"n{i}", f"n{i + 1}") for i in range(6)]
        scheduled = Evaluator(program).run(edge_instance(program, edges))
        reference = Evaluator(program, naive=True).run(edge_instance(program, edges))
        assert scheduled.output == reference.output
        assert scheduled.stats.rules_skipped_clean > 0

    def test_iql601_fallback_warns_and_matches(self):
        program = program_from_source(UNSTRATIFIED)
        edges = [("a", "b"), ("b", "a"), ("b", "c")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scheduled = Evaluator(program).run(edge_instance(program, edges))
        assert any(
            issubclass(w.category, PreflightWarning) and "IQL601" in str(w.message)
            for w in caught
        )
        assert scheduled.stats.schedule_fallbacks == 1
        reference = Evaluator(program, naive=True).run(edge_instance(program, edges))
        assert scheduled.output == reference.output

    def test_scheduled_invention_is_isomorphic(self):
        program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        instance = Instance(program.input_schema)
        for a, b in edges:
            instance.add_relation_member("R", OTuple(A1=a, A2=b))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scheduled = Evaluator(program).run(instance.copy())
        reference = Evaluator(program, naive=True).run(instance.copy())
        assert are_o_isomorphic(scheduled.output, reference.output)
        assert scheduled.stats.strata >= 4

    def test_schedule_disabled_under_trace(self):
        # trace=True runs the unscheduled reference engine.
        program = program_from_source(TC)
        evaluator = Evaluator(program, trace=True)
        assert evaluator.naive and evaluator._schedule is None
        result = evaluator.run(edge_instance(program, [("a", "b"), ("b", "c")]))
        assert result.stats.strata == 0 and result.trace


# -- CLI -----------------------------------------------------------------------------


class TestCli:
    @pytest.fixture
    def tc_path(self, tmp_path):
        path = tmp_path / "tc.iql"
        path.write_text(TC)
        return str(path)

    @pytest.fixture
    def unstratified_path(self, tmp_path):
        path = tmp_path / "unstratified.iql"
        path.write_text(UNSTRATIFIED)
        return str(path)

    def test_analyze_text(self, tc_path, capsys):
        assert main(["analyze", tc_path]) == 0
        out = capsys.readouterr().out
        assert "stratum 1" in out
        assert "certified" in out

    def test_analyze_json(self, tc_path, capsys):
        assert main(["analyze", tc_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schedule"] == [{"stage": 1, "strata": [2]}]
        assert doc["stages"][0]["nodes"] == ["E", "TC"]

    def test_analyze_dot(self, tc_path, capsys):
        assert main(["analyze", tc_path, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph depgraph {")
        assert "cluster_stage1" in out

    def test_analyze_reports_iql6xx(self, unstratified_path, capsys):
        assert main(["analyze", unstratified_path]) == 0
        out = capsys.readouterr().out
        assert "IQL601" in out
        assert "monolithic fallback" in out

    def test_lint_strict_promotes_warnings(self, unstratified_path, capsys):
        assert main(["lint", unstratified_path]) == 0
        capsys.readouterr()
        assert main(["lint", unstratified_path, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "strict mode" in out

    def test_lint_strict_json(self, unstratified_path, tc_path, capsys):
        assert main(["lint", unstratified_path, "--strict", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["strict"] is True and doc["ok"] is False
        assert main(["lint", tc_path, "--strict", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_run_schedule_stats(self, tc_path, tmp_path, capsys):
        from repro import io

        program = program_from_source(TC)
        instance = edge_instance(program, [("a", "b"), ("b", "c")])
        data = tmp_path / "edges.json"
        data.write_text(io.dumps(instance))
        assert (
            main(["run", tc_path, "--input", str(data), "--stats"])
            == 0
        )
        err = capsys.readouterr().err
        assert "strata               1" in err
        assert "schedule fallbacks   0" in err


class TestAnalyzeJsonRoundTrip:
    """`repro analyze --format json` reproduces the IQL601-IQL604
    diagnostics of a direct `depgraph_pass` run exactly — code, severity,
    message, span and rule label all survive the JSON renderer."""

    CASES = {
        "IQL601": UNSTRATIFIED,
        "IQL602": DEAD_READ,
        "IQL603": (EXAMPLES / "divergent_invention.iql"),
        "IQL604": (EXAMPLES / "graph_objects.iql"),
    }

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_roundtrip(self, code, tmp_path, capsys):
        source = self.CASES[code]
        if isinstance(source, pathlib.Path):
            source = source.read_text()
        path = tmp_path / "program.iql"
        path.write_text(source)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rendered = [d for d in doc["diagnostics"] if d["code"].startswith("IQL6")]
        direct = [d.to_json() for d in depgraph_pass(program_from_source(source))]
        assert rendered == direct
        assert code in [d["code"] for d in rendered]
        # Spans survive: every depgraph diagnostic anchored to a rule
        # carries its source location through the renderer.
        for d in rendered:
            if "rule" in d:
                assert d["span"]["line"] >= 1 and d["span"]["column"] >= 1
