"""Tests for the semi-naive optimization (repro.iql.seminaive).

The naive inflationary evaluator is the specification; the delta rewriting
must agree with it exactly on every eligible stage, and must stand aside
on anything beyond positive Datalog.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    database_to_instance,
    datalog_to_iql,
    instance_to_database,
    same_generation_program,
    transitive_closure_program,
)
from repro.iql import Choose, Evaluator, Membership, NameTerm, Program, Rule, Var, atom, columns
from repro.iql.seminaive import rule_eligible
from repro.schema import Instance, Schema
from repro.typesys import D, classref, set_of, tuple_of
from repro.workloads import parent_forest, path_graph, random_graph, transitive_closure


def stage_eligible(rules, instance):
    return all(rule_eligible(rule, instance.schema) for rule in rules)


def run_both(program, instance):
    semi = Evaluator(program).run(instance.copy()).output
    naive = Evaluator(program, naive=True).run(instance.copy()).output
    return semi, naive


class TestEquivalence:
    def test_tc_path(self):
        dprog = transitive_closure_program()
        program = datalog_to_iql(dprog)
        edges = path_graph(10)
        instance = database_to_instance(dprog, {"E": set(edges)}, names=dprog.edb)
        semi, naive = run_both(program, instance)
        assert instance_to_database(semi) == instance_to_database(naive)
        assert instance_to_database(semi)["T"] == transitive_closure(edges)

    def test_same_generation(self):
        dprog = same_generation_program()
        program = datalog_to_iql(dprog)
        parents, persons = parent_forest(2, 3)
        edb = {"Par": set(parents), "Person": {(p,) for p in persons}}
        instance = database_to_instance(dprog, edb, names=dprog.edb)
        semi, naive = run_both(program, instance)
        assert instance_to_database(semi) == instance_to_database(naive)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(3, 10), st.integers(0, 500))
    def test_random_graphs(self, n, seed):
        dprog = transitive_closure_program()
        program = datalog_to_iql(dprog)
        edges = random_graph(n, average_degree=1.7, seed=seed)
        instance = database_to_instance(dprog, {"E": set(edges)}, names=dprog.edb)
        semi, naive = run_both(program, instance)
        assert instance_to_database(semi) == instance_to_database(naive)

    def test_stats_reflect_rounds(self):
        dprog = transitive_closure_program()
        program = datalog_to_iql(dprog)
        edges = path_graph(6)
        instance = database_to_instance(dprog, {"E": set(edges)}, names=dprog.edb)
        result = Evaluator(program).run(instance)
        assert result.stats.per_stage_steps and result.stats.per_stage_steps[0] >= 2
        assert result.stats.facts_added == len(transitive_closure(edges))


class TestEligibility:
    @pytest.fixture
    def schema(self):
        return Schema(
            relations={"R": columns(D, D), "S": D},
            classes={"P": tuple_of(a=D), "Q": set_of(D)},
        )

    def make(self, schema, rules):
        return Instance(schema), rules

    def test_positive_datalog_is_eligible(self, schema):
        x, y = Var("x", D), Var("y", D)
        inst, rules = self.make(
            schema, [Rule(atom(schema, "S", x), [atom(schema, "R", x, y)])]
        )
        assert stage_eligible(rules, inst)

    def test_fully_bound_negation_is_eligible(self, schema):
        # Negative literals whose variables the positive memberships bind
        # are admitted: within a relations-only stage they can only become
        # falser, so the delta rewriting stays sound.
        x, y = Var("x", D), Var("y", D)
        inst, rules = self.make(
            schema,
            [
                Rule(
                    atom(schema, "S", x),
                    [atom(schema, "R", x, y), atom(schema, "S", y, positive=False)],
                )
            ],
        )
        assert stage_eligible(rules, inst)

    def test_uncovered_negation_is_not(self, schema):
        # ¬R(x, z) with z bound by nothing: the enumeration fallback would
        # range over constants(I), which grows with ρ — ineligible.
        x, z = Var("x", D), Var("z", D)
        inst, rules = self.make(
            schema,
            [
                Rule(
                    atom(schema, "S", x),
                    [atom(schema, "S", x), atom(schema, "R", x, z, positive=False)],
                )
            ],
        )
        assert not stage_eligible(rules, inst)

    def test_invention_is_not(self, schema):
        x = Var("x", D)
        p = Var("p", classref("P"))
        extended = schema.with_names(relations={"RP": columns(D, classref("P"))})
        inst = Instance(extended)
        rules = [Rule(atom(extended, "RP", x, p), [atom(extended, "S", x)])]
        assert not stage_eligible(rules, inst)

    def test_class_atoms_are_not(self, schema):
        p = Var("p", classref("P"))
        inst, rules = self.make(
            schema,
            [Rule(atom(schema, "P", p), [atom(schema, "P", p)])],
        )
        assert not stage_eligible(rules, inst)

    def test_deref_heads_are_not(self, schema):
        q = Var("q", classref("Q"))
        x = Var("x", D)
        inst, rules = self.make(
            schema,
            [Rule(Membership(q.hat(), x), [atom(schema, "S", x)])],
        )
        assert not stage_eligible(rules, inst)

    def test_choose_and_delete_are_not(self, schema):
        x = Var("x", D)
        inst, rules = self.make(
            schema, [Rule(atom(schema, "S", x), [Choose(), atom(schema, "S", x)])]
        )
        assert not stage_eligible(rules, inst)
        inst, rules = self.make(
            schema, [Rule(atom(schema, "S", x), [atom(schema, "S", x)], delete=True)]
        )
        assert not stage_eligible(rules, inst)

    def test_unconditional_facts_are_not(self, schema):
        from repro.iql import SetTerm

        pow_schema = Schema(relations={"R1": set_of(D)})
        inst = Instance(pow_schema)
        rules = [Rule(Membership(NameTerm("R1"), SetTerm()), [])]
        assert not stage_eligible(rules, inst)

    def test_negation_stage_still_evaluates_correctly(self, schema):
        # Covered negation now runs through the delta rewriting; the
        # result must match the naive loop (the specification) exactly.
        x, y = Var("x", D), Var("y", D)
        program = Program(
            schema,
            rules=[
                Rule(
                    atom(schema, "S", x),
                    [atom(schema, "R", x, y), atom(schema, "S", y, positive=False)],
                )
            ],
            input_names=["R", "S"],
            output_names=["S"],
        )
        from repro.values import OTuple

        inst = Instance(
            schema.project(["R", "S"]),
            relations={"R": [OTuple(A01="a", A02="b")]},
        )
        semi, naive = run_both(program, inst)
        assert semi.relations["S"] == naive.relations["S"] == {"a"}


class TestTraceDisablesSeminaive:
    def test_tracing_forces_naive(self):
        dprog = transitive_closure_program()
        program = datalog_to_iql(dprog)
        evaluator = Evaluator(program, trace=True)
        assert evaluator.naive is True
