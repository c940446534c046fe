"""Tests for cardinality statistics and cost-based planning (repro.iql.stats)."""

import math
import pathlib
import random

import pytest

import repro.iql.valuation as valuation
from repro import io
from repro.iql import (
    Evaluator,
    Statistics,
    atom,
    columns,
    describe_plan,
    make_vars,
    plan_body,
)
from repro.iql.evaluator import EvaluationStats
from repro.parser.grammar import program_from_source
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D, set_of, tuple_of
from repro.values import Oid, OSet, OTuple


def skew_schema():
    return Schema(
        relations={
            "A": columns(D),
            "B": columns(D, D),
            "C": columns(D),
        }
    )


def skew_instance(schema, b_rows=200, skew=10, selective=50):
    """The E21 shape: B.A01 collides onto A's values, B.A02 is unique."""
    instance = Instance(schema)
    for i in range(skew):
        instance.add_relation_member("A", OTuple(A01=f"s{i}"))
    for i in range(b_rows):
        instance.add_relation_member(
            "B", OTuple(A01=f"s{i % skew}", A02=f"v{i}")
        )
    for j in range(selective):
        instance.add_relation_member("C", OTuple(A01=f"v{j}"))
    return instance


class TestStatistics:
    def test_sizes(self):
        schema = skew_schema()
        instance = skew_instance(schema, b_rows=30)
        stats = Statistics(instance)
        assert stats.relation_size("B") == 30
        assert stats.relation_size("A") == 10
        assert stats.class_size("NoSuchClass") == 0

    def test_ndv_reads_the_projection_index(self):
        instance = skew_instance(skew_schema(), b_rows=40, skew=10)
        stats = Statistics(instance)
        assert stats.ndv("B", "A01") == 10
        assert stats.ndv("B", "A02") == 40
        assert stats.ndv("A", "A01") == 10

    def test_ndv_stays_warm_under_mutation(self):
        """The statistic is the incrementally-maintained index: after any
        interleaving of inserts and removals it matches a cold rebuild."""
        schema = skew_schema()
        instance = skew_instance(schema, b_rows=24, skew=4)
        stats = Statistics(instance)
        assert stats.ndv("B", "A01") == 4  # force the index to exist
        rng = random.Random(7)
        pool = list(instance.relations["B"])
        for step in range(60):
            if rng.random() < 0.5 and pool:
                victim = pool.pop(rng.randrange(len(pool)))
                instance.remove_relation_member("B", victim)
            else:
                row = OTuple(A01=f"s{rng.randrange(6)}", A02=f"w{step}")
                if instance.add_relation_member("B", row):
                    pool.append(row)
            expected = {t["A01"] for t in instance.relations["B"]}
            assert stats.ndv("B", "A01") == len(expected)
        assert instance.indexes.equals_rebuild()

    def test_bucket_estimate_uses_the_best_probed_attribute(self):
        instance = skew_instance(skew_schema(), b_rows=200, skew=10)
        stats = Statistics(instance)
        work_skew, fan_skew = stats.bucket_estimate("B", ("A01",))
        work_both, fan_both = stats.bucket_estimate("B", ("A01", "A02"))
        assert work_skew == pytest.approx(20.0)  # 200 / NDV 10
        assert work_both == pytest.approx(1.0)  # 200 / NDV 200
        assert fan_both < fan_skew < 200.0

    def test_bucket_estimate_empty_relation(self):
        instance = Instance(skew_schema())
        assert Statistics(instance).bucket_estimate("B", ("A01",)) == (0.0, 0.0)

    def test_deref_width(self):
        schema = Schema(classes={"Q": set_of(D)})
        a, b, c = Oid("a"), Oid("b"), Oid("c")
        instance = Instance(
            schema,
            classes={"Q": [a, b, c]},
            nu={a: OSet(["x", "y", "z"]), b: OSet(["x"])},
        )
        stats = Statistics(instance)
        assert stats.deref_width("Q") == pytest.approx(2.0)  # mean of 3 and 1
        assert stats.deref_width("NoMembers") == 8.0  # the documented default


class TestCostedPlans:
    def body(self, schema):
        x, y = make_vars(D, "x", "y")
        return (
            atom(schema, "A", x),
            atom(schema, "B", x, y),
            atom(schema, "C", y),
        )

    def test_written_order_plans_follow_the_body(self):
        # The reference's plan: each generator in body order, as a scan,
        # without reading a statistic or building an index.
        schema = skew_schema()
        instance = skew_instance(schema, b_rows=2000)
        written = plan_body(self.body(schema), frozenset(), instance, costed=False)
        assert [(step[0], step[1].container.name) for step in written] == [
            ("member", "A"),
            ("member", "B"),
            ("filter", "C"),
        ]
        assert all(step[2] == () for step in written if step[0] == "member")
        assert instance.indexes.built_relation_indexes() == frozenset()
        costed = plan_body(self.body(schema), frozenset(), instance)
        assert [step[1].container.name for step in costed] != ["A", "B", "C"]

    def test_costed_plan_joins_the_selective_relation_first(self):
        schema = skew_schema()
        # Big enough that the B probe's skew bucket (|B|/10 = 200) dwarfs
        # the 50-row C scan; at small |B| both planners agree B-first.
        instance = skew_instance(schema, b_rows=2000)
        plan = plan_body(self.body(schema), frozenset(), instance)
        kinds = [(step[0], step[1].container.name) for step in plan]
        assert kinds == [("member", "A"), ("member", "C"), ("filter", "B")]
        assert len(plan.estimates) == 3
        assert plan.basis == (("A", True, 10), ("C", True, 50))  # generator steps only

    def test_a_cached_plan_is_recosted_once_an_input_moved_tenfold(self):
        schema = skew_schema()
        instance = skew_instance(schema, b_rows=20)
        literals, cache, stats = self.body(schema), {}, EvaluationStats()
        plan = valuation.lookup_plan(literals, frozenset(), instance, cache, stats)
        assert ("B", True, 20) in plan.basis  # A scan, then a B probe
        assert plan.is_stale(skew_instance(schema, b_rows=2))  # shrinking counts too
        for rows, costed in ((199, 1), (200, 2)):  # 9.95x, then 10x
            for i in range(len(instance.relations["B"]), rows):
                instance.add_relation_member("B", OTuple(A01=f"s{i % 10}", A02=f"w{i}"))
            again = valuation.lookup_plan(literals, frozenset(), instance, cache, stats)
            assert (stats.plans_costed, stats.plan_replans) == (costed, costed - 1)
        assert again is not plan and ("B", True, 200) in again.basis
        assert list(cache.values()) == [again]

    def test_describe_plan_renders_estimates(self):
        schema = skew_schema()
        instance = skew_instance(schema)
        plan = plan_body(self.body(schema), frozenset(), instance)
        lines = describe_plan(plan)
        assert len(lines) == 3
        assert any("scan" in line for line in lines)
        assert all("est" in line for line in lines)


TC_PROGRAM = """
schema {
  relation E: [A1: D, A2: D];
  relation T: [A1: D, A2: D];
}
var x, y, z: D
input E
output T
rules {
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z).
}
"""


def tc_instance(program, n=12):
    instance = Instance(program.input_schema)
    for i in range(n - 1):
        instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
    return instance


def test_a_plan_costed_on_empty_input_is_recosted_on_the_first_data_run():
    program = program_from_source(TC_PROGRAM)
    Evaluator(program).run(Instance(program.input_schema))
    result = Evaluator(program).run(tc_instance(program))
    assert result.stats.plan_replans >= 1  # E grew from 0 (floored at 1) to 11
    for rule in program.rules:
        plans = program.rule_memo(rule).plans.values()
        assert all(("E", True, 11) in plan.basis for plan in plans)
    assert result.output == Evaluator(program, naive=True).run(tc_instance(program)).output


def test_the_reference_costs_no_plan_and_caches_none():
    program = program_from_source(TC_PROGRAM)
    result = Evaluator(program, naive=True).run(tc_instance(program))
    assert result.stats.plans_costed == 0
    assert result.stats.plan_cache_hits == result.stats.plan_cache_misses == 0
    assert all(not program.rule_memo(rule).plans for rule in program.rules)
    assert result.output == Evaluator(program).run(tc_instance(program)).output


def test_replan_ratio_is_gone():
    with pytest.raises(TypeError):
        Evaluator(program_from_source(TC_PROGRAM), replan_ratio=10.0)


E24_PROGRAM = (pathlib.Path(__file__).parent.parent / "examples" / "replan_growth.iql").read_text()


def e24_run(n, growth, monkeypatch):
    """E24 under REPLAN_GROWTH = growth: result, M's plan order, program, input."""
    program = program_from_source(E24_PROGRAM)
    instance = tc_instance(program, n)
    for j in range(3):
        instance.add_relation_member("S", OTuple(A1=f"n{(7 * j) % n}", A2=f"m{j}"))
    monkeypatch.setattr(valuation, "REPLAN_GROWTH", growth)
    result = Evaluator(program).run(instance.copy())
    plan = program.rule_memo(program.rules[2]).plans[(program.rules[2].body, frozenset())]
    return result, [step[1].container.name for step in plan], program, instance


def test_e24_recosts_m_to_scan_s_once_t_has_grown(monkeypatch):
    """M's body is first costed while T is empty; T then grows to n²/2."""
    static, static_order, _, _ = e24_run(40, math.inf, monkeypatch)
    recosted, order, _, _ = e24_run(40, 10, monkeypatch)
    assert (static.stats.plan_replans, static_order) == (0, ["T", "S"])
    assert recosted.stats.plan_replans >= 1 and order == ["S", "T"]
    assert are_o_isomorphic(recosted.output, static.output)
    small, _, program, instance = e24_run(20, 10, monkeypatch)
    assert are_o_isomorphic(small.output, Evaluator(program, naive=True).run(instance).output)


SKEW_PROGRAM = """
schema {
  relation A: [A1: D];
  relation B: [A1: D, A2: D];
  relation C: [A1: D];
  relation J: [A1: D, A2: D];
}
var x, y: D
input A, B, C
output J
rules {
  J(x, y) :- A(x), B(x, y), C(y).
}
"""


class TestCli:
    @pytest.fixture
    def files(self, tmp_path):
        program = tmp_path / "skew.iql"
        program.write_text(SKEW_PROGRAM)
        instance = Instance(
            Schema(
                relations={
                    "A": tuple_of(A1=D),
                    "B": tuple_of(A1=D, A2=D),
                    "C": tuple_of(A1=D),
                }
            )
        )
        for i in range(4):
            instance.add_relation_member("A", OTuple(A1=f"s{i}"))
        for i in range(40):
            instance.add_relation_member("B", OTuple(A1=f"s{i % 4}", A2=f"v{i}"))
        for j in range(6):
            instance.add_relation_member("C", OTuple(A1=f"v{j}"))
        data = tmp_path / "in.json"
        data.write_text(io.dumps(instance))
        return program, data

    def test_run_stats_reports_planner_counters(self, files, capsys):
        from repro.__main__ import main

        program, data = files
        assert main(["run", str(program), "--input", str(data), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "plans costed         1" in err
        assert "plan replans" in err

    def test_run_naive_flag_runs_the_reference_engine(self, files, capsys):
        from repro.__main__ import main

        program, data = files
        assert (
            main(["run", str(program), "--input", str(data), "--naive", "--stats"])
            == 0
        )
        err = capsys.readouterr().err
        assert "rules compiled       0" in err
        assert "strata               0" in err

    def test_analyze_plans_renders_costed_plans(self, files, capsys):
        from repro.__main__ import main

        program, data = files
        assert main(["analyze", str(program), "--plans", "--input", str(data)]) == 0
        out = capsys.readouterr().out
        assert "J" in out
        assert "est" in out
        assert "scan" in out or "probe" in out

    def test_analyze_plans_without_input_uses_empty_instance(self, files, capsys):
        from repro.__main__ import main

        program, _ = files
        assert main(["analyze", str(program), "--plans"]) == 0
        assert "est" in capsys.readouterr().out
