"""Tests for the naive inflationary evaluator (Section 3.2)."""

import pytest

from repro.errors import EvaluationError, NonTerminationError
from repro.iql import (
    Const,
    Equality,
    Evaluator,
    EvaluatorLimits,
    Membership,
    NameTerm,
    PrefixedOidFactory,
    Program,
    Rule,
    TupleTerm,
    Var,
    atom,
    columns,
    evaluate,
    evaluate_full,
    typecheck_program,
)
from repro.schema import Instance, Schema
from repro.typesys import D, classref, set_of, tuple_of
from repro.values import Oid, OSet, OTuple, intern
from repro.workloads import path_graph, transitive_closure

from tests.conftest import edge_instance


class TestDatalogFragment:
    def test_transitive_closure(self, tc_program, tc_schema):
        edges = path_graph(6)
        out = evaluate(tc_program, edge_instance(tc_schema, edges))
        got = {(t["A01"], t["A02"]) for t in out.relations["T"]}
        assert got == transitive_closure(edges)

    def test_projection_hides_input(self, tc_program, tc_schema):
        out = evaluate(tc_program, edge_instance(tc_schema, path_graph(3)))
        assert set(out.relations) == {"T"}

    def test_input_schema_mismatch_rejected(self, tc_program):
        wrong = Instance(Schema(relations={"X": D}))
        with pytest.raises(EvaluationError):
            evaluate(tc_program, wrong)

    def test_stats(self, tc_program, tc_schema):
        result = evaluate_full(tc_program, edge_instance(tc_schema, path_graph(4)))
        assert result.stats.facts_added == 6  # closure of a 3-edge path
        assert result.stats.oids_invented == 0
        assert result.stats.steps >= 2


class TestInvention:
    def setup_method(self):
        self.schema = Schema(
            relations={"S": D, "RP": columns(D, classref("P"))},
            classes={"P": tuple_of(tag=D)},
        )
        x = Var("x", D)
        p = Var("p", classref("P"))
        self.program = typecheck_program(
            Program(
                self.schema,
                rules=[Rule(atom(self.schema, "RP", x, p), [atom(self.schema, "S", x)])],
                input_names=["S"],
                output_names=["RP", "P"],
            )
        )

    def input(self, *elements):
        return Instance(self.schema.project(["S"]), relations={"S": list(elements)})

    def test_one_oid_per_valuation(self):
        out = evaluate(self.program, self.input("a", "b", "c"))
        assert len(out.classes["P"]) == 3
        assert len(out.relations["RP"]) == 3

    def test_invention_blocked_when_head_satisfiable(self):
        # Run to fixpoint: a second step must not re-invent for the same x.
        result = evaluate_full(self.program, self.input("a"))
        assert result.stats.oids_invented == 1

    def test_invented_oids_have_default_values(self):
        out = evaluate(self.program, self.input("a"))
        (oid,) = out.classes["P"]
        assert out.value_of(oid) is None  # non-set class: undefined

    def test_invented_set_valued_default_is_empty(self):
        schema = Schema(
            relations={"S": D, "RQ": columns(D, classref("Q"))},
            classes={"Q": set_of(D)},
        )
        x, q = Var("x", D), Var("q", classref("Q"))
        program = typecheck_program(
            Program(
                schema,
                rules=[Rule(atom(schema, "RQ", x, q), [atom(schema, "S", x)])],
                input_names=["S"],
                output_names=["RQ", "Q"],
            )
        )
        out = evaluate(program, Instance(schema.project(["S"]), relations={"S": ["a"]}))
        (oid,) = out.classes["Q"]
        assert out.value_of(oid) == OSet()

    def test_oid_factory_controls_names(self):
        out = evaluate(
            self.program, self.input("a"), oid_factory=PrefixedOidFactory("left")
        )
        (oid,) = out.classes["P"]
        assert oid.name.startswith("left:")

    def test_max_invented_guard(self):
        # A self-feeding invention rule diverges; the guard must trip.
        schema = Schema(
            relations={"R3": columns(classref("P"), classref("P")), "S": classref("P")},
            classes={"P": tuple_of(tag=D)},
        )
        x, y, z = (Var(n, classref("P")) for n in "xyz")
        diverging = typecheck_program(
            Program(
                schema,
                rules=[Rule(atom(schema, "R3", y, z), [atom(schema, "R3", x, y)])],
                input_names=["R3", "P"],
                output_names=["R3"],
            )
        )
        o1, o2 = Oid(), Oid()
        start = Instance(schema.project(["R3", "P"]), classes={"P": [o1, o2]})
        start.add_relation_member("R3", OTuple(A01=o1, A02=o2))
        with pytest.raises(NonTerminationError):
            evaluate(diverging, start, limits=EvaluatorLimits(max_steps=50))


class TestWeakAssignment:
    def setup_method(self):
        self.schema = Schema(
            relations={"Seed": columns(D, classref("P")), "V": D},
            classes={"P": tuple_of(val=D)},
        )

    def program(self, rules):
        return typecheck_program(
            Program(
                self.schema,
                rules=rules,
                input_names=["Seed", "P", "V"],
                output_names=["P"],
            )
        )

    def input_with_oid(self):
        o = Oid("target")
        inst = Instance(self.schema.project(["Seed", "P", "V"]))
        inst.add_class_member("P", o)
        inst.add_relation_member("Seed", OTuple(A01="k", A02=o))
        return inst, o

    def test_assignment_happens_once(self):
        x, p = Var("x", D), Var("p", classref("P"))
        rule = Rule(
            Equality(p.hat(), TupleTerm(val=x)),
            [atom(self.schema, "Seed", x, p)],
        )
        inst, o = self.input_with_oid()
        out = evaluate(self.program([rule]), inst)
        assert out.value_of(o) == OTuple(val="k")

    def test_defined_value_never_overwritten(self):
        x, p = Var("x", D), Var("p", classref("P"))
        rule = Rule(
            Equality(p.hat(), TupleTerm(val=Const("other"))),
            [atom(self.schema, "Seed", x, p)],
        )
        inst, o = self.input_with_oid()
        inst.assign(o, OTuple(val="original"))
        out = evaluate(self.program([rule]), inst)
        assert out.value_of(o) == OTuple(val="original")

    def test_conflicting_derivations_ignored(self):
        # (★): two distinct values derived in the same step → both dropped.
        p = Var("p", classref("P"))
        v = Var("v", D)
        rule = Rule(
            Equality(p.hat(), TupleTerm(val=v)),
            [atom(self.schema, "Seed", Var("x", D), p), atom(self.schema, "V", v)],
        )
        inst, o = self.input_with_oid()
        inst.add_relation_member("V", "v1")
        inst.add_relation_member("V", "v2")
        out = evaluate(self.program([rule]), inst)
        assert out.value_of(o) is None

    def test_sequential_conflict_first_wins(self):
        # If one value arrives a step before the other, the first sticks —
        # inflationary semantics never modifies a determined value.
        p = Var("p", classref("P"))
        stage1 = [
            Rule(
                Equality(p.hat(), TupleTerm(val=Const("first"))),
                [atom(self.schema, "Seed", Var("x", D), p)],
            )
        ]
        stage2 = [
            Rule(
                Equality(p.hat(), TupleTerm(val=Const("second"))),
                [atom(self.schema, "Seed", Var("x", D), p)],
            )
        ]
        program = typecheck_program(
            Program(
                self.schema,
                stages=[stage1, stage2],
                input_names=["Seed", "P", "V"],
                output_names=["P"],
            )
        )
        inst, o = self.input_with_oid()
        out = evaluate(program, inst)
        assert out.value_of(o) == OTuple(val="first")


class TestSetGrowth:
    def test_set_elements_accumulate(self):
        schema = Schema(
            relations={"S": D, "Seed": classref("Q")},
            classes={"Q": set_of(D)},
        )
        x, q = Var("x", D), Var("q", classref("Q"))
        program = typecheck_program(
            Program(
                schema,
                rules=[
                    Rule(
                        Membership(q.hat(), x),
                        [atom(schema, "Seed", q), atom(schema, "S", x)],
                    )
                ],
                input_names=["S", "Seed", "Q"],
                output_names=["Q"],
            )
        )
        o = Oid()
        inst = Instance(schema.project(["S", "Seed", "Q"]))
        inst.add_class_member("Q", o)
        inst.add_relation_member("Seed", o)
        for c in ("a", "b", "c"):
            inst.add_relation_member("S", c)
        out = evaluate(program, inst)
        assert out.value_of(o) == OSet(["a", "b", "c"])

    def test_one_set_per_object_per_step(self):
        # One γ1 step derives five elements for q: "pre" is already there
        # and "g3" comes from both rules, so four are new. The constants
        # are this test's own, so no other live value has q's final set.
        schema = Schema(
            relations={"S": D, "S2": D, "Seed": classref("Q")},
            classes={"Q": set_of(D)},
        )
        x, q = Var("x", D), Var("q", classref("Q"))
        program = typecheck_program(
            Program(
                schema,
                rules=[
                    Rule(Membership(q.hat(), x), [atom(schema, "Seed", q), atom(schema, name, x)])
                    for name in ("S", "S2")
                ],
                input_names=["S", "S2", "Seed", "Q"],
                output_names=["Q"],
            )
        )
        o = Oid()
        inst = Instance(schema.project(["S", "S2", "Seed", "Q"]))
        inst.add_class_member("Q", o)
        inst.add_relation_member("Seed", o)
        inst.add_set_element(o, "growth-pre")
        for c in ("growth-pre", "growth-g1", "growth-g2", "growth-g3"):
            inst.add_relation_member("S", c)
        for c in ("growth-g3", "growth-g4"):
            inst.add_relation_member("S2", c)

        _, misses0, _ = intern.counters()
        result = Evaluator(program).run(inst.copy())
        _, misses1, _ = intern.counters()
        expected = OSet(["growth-pre", "growth-g1", "growth-g2", "growth-g3", "growth-g4"])
        assert result.output.value_of(o) is expected
        assert result.stats.facts_added == 4
        # The step interns q's final set once; per-element growth would
        # have built four sets, one per new element.
        assert misses1 - misses0 == 1
        assert result.output == Evaluator(program, naive=True).run(inst).output


class TestStepReadsItsStart:
    """γ1 evaluates every head over the instance the step started from,
    so no head sees another's write of the same step, and the answer does
    not depend on the order the rules are written in."""

    schema = Schema(
        relations={
            "S": columns(classref("Q"), D),
            "L": columns(classref("P"), classref("Q")),
            "R2": tuple_of(A1=set_of(D)),
            "R1": D,
            "V": D,
        },
        classes={"Q": set_of(D), "P": tuple_of(A1=set_of(D))},
    )
    x = Var("x", D)
    q = Var("q", classref("Q"))
    p = Var("p", classref("P"))
    # q̂ grows to {a, b} in the first step, while the other head reads it.
    grow = Rule(Membership(q.hat(), x), [atom(schema, "S", q, x)])
    heads = {
        "A": Rule(Equality(p.hat(), TupleTerm(A1=q.hat())), [atom(schema, "L", p, q)]),
        "B": Rule(
            Membership(NameTerm("R2"), TupleTerm(A1=q.hat())), [atom(schema, "L", p, q)]
        ),
    }
    # The same hazard through a relation name read in a head term.
    grow_relation = Rule(Membership(NameTerm("R1"), x), [Membership(NameTerm("V"), x)])
    head_c = Rule(
        Membership(NameTerm("R2"), TupleTerm(A1=NameTerm("R1"))), [atom(schema, "L", p, q)]
    )

    def run(self, rules, **kwargs):
        program = typecheck_program(
            Program(
                self.schema,
                rules=rules,
                input_names=["S", "L", "V", "P", "Q"],
                output_names=["P", "Q", "R2"],
            )
        )
        q, p = Oid("q"), Oid("p")
        inst = Instance(self.schema.project(["S", "L", "V", "P", "Q"]))
        inst.add_class_member("Q", q)
        inst.add_class_member("P", p)
        for c in ("a", "b"):
            inst.add_relation_member("S", OTuple(A01=q, A02=c))
            inst.add_relation_member("V", c)
        inst.add_relation_member("L", OTuple(A01=p, A02=q))
        return Evaluator(program, **kwargs).run(inst), q, p

    @pytest.mark.parametrize("naive", [False, True], ids=["production", "reference"])
    @pytest.mark.parametrize("grow_first", [True, False], ids=["grow-first", "grow-second"])
    @pytest.mark.parametrize("program", ["A", "B"])
    def test_a_head_reads_the_set_as_the_step_found_it(self, program, grow_first, naive):
        head = self.heads[program]
        rules = [self.grow, head] if grow_first else [head, self.grow]
        result, q, p = self.run(rules, naive=naive)
        assert result.output.value_of(q) == OSet(["a", "b"])
        if program == "A":
            # Step 1 assigns p̂ from the empty q̂; (★) keeps it.
            assert result.output.value_of(p) == OTuple(A1=OSet())
        else:
            assert result.output.relations["R2"] == {
                OTuple(A1=OSet()),
                OTuple(A1=OSet(["a", "b"])),
            }

    @pytest.mark.parametrize("naive", [False, True], ids=["production", "reference"])
    @pytest.mark.parametrize("grow_first", [True, False], ids=["grow-first", "grow-second"])
    def test_a_head_reads_the_relation_as_the_step_found_it(self, grow_first, naive):
        rules = [self.grow_relation, self.head_c]
        if not grow_first:
            rules.reverse()
        result, _, _ = self.run(rules, naive=naive)
        assert result.output.relations["R2"] == {
            OTuple(A1=OSet()),
            OTuple(A1=OSet(["a", "b"])),
        }

    @pytest.mark.parametrize("naive", [False, True], ids=["production", "reference"])
    def test_a_deletion_head_reads_the_set_as_the_step_found_it(self, naive):
        # Step 1 deletes R2([A1: {}]): q̂ was empty when the step started,
        # although the step's insertions, applied first, grow it.
        shrink = Rule(
            Membership(NameTerm("R2"), TupleTerm(A1=self.q.hat())),
            [atom(self.schema, "L", self.p, self.q)],
            delete=True,
        )
        program = typecheck_program(
            Program(
                self.schema,
                rules=[self.grow, shrink],
                input_names=["S", "L", "R2", "P", "Q"],
                output_names=["Q", "R2"],
            )
        )
        q, p = Oid("q"), Oid("p")
        inst = Instance(self.schema.project(["S", "L", "R2", "P", "Q"]))
        inst.add_class_member("Q", q)
        inst.add_class_member("P", p)
        for c in ("a", "b"):
            inst.add_relation_member("S", OTuple(A01=q, A02=c))
        inst.add_relation_member("L", OTuple(A01=p, A02=q))
        inst.add_relation_member("R2", OTuple(A1=OSet()))
        inst.add_relation_member("R2", OTuple(A1=OSet(["a", "b"])))
        out = Evaluator(program, naive=naive).run(inst).output
        assert out.value_of(q) == OSet(["a", "b"])
        assert out.relations["R2"] == set()

    def test_the_trace_has_one_fact_per_new_set_element(self):
        result, q, _ = self.run([self.grow, self.heads["A"]], trace=True)
        grown = [e for e in result.trace if e.kind == "fact" and e.detail.startswith(f"{q!r}^(")]
        assert sorted(e.detail for e in grown) == [f"{q!r}^('a')", f"{q!r}^('b')"]
        assert {e.step for e in grown} == {1}


class TestStages:
    def test_stage_boundaries_are_fixpoints(self, tc_schema):
        # Stage 1 copies E to T; stage 2 closes T. Both must run to their
        # own fixpoint in order.
        x, y, z = Var("x", D), Var("y", D), Var("z", D)
        program = typecheck_program(
            Program(
                tc_schema,
                stages=[
                    [Rule(atom(tc_schema, "T", x, y), [atom(tc_schema, "E", x, y)])],
                    [
                        Rule(
                            atom(tc_schema, "T", x, z),
                            [atom(tc_schema, "T", x, y), atom(tc_schema, "T", y, z)],
                        )
                    ],
                ],
                input_names=["E"],
                output_names=["T"],
            )
        )
        edges = path_graph(5)
        out = evaluate(program, edge_instance(tc_schema, edges))
        got = {(t["A01"], t["A02"]) for t in out.relations["T"]}
        assert got == transitive_closure(edges)

    def test_per_stage_step_counts(self, tc_program, tc_schema):
        result = evaluate_full(tc_program, edge_instance(tc_schema, path_graph(4)))
        assert len(result.stats.per_stage_steps) == 1

    def test_max_steps_guard(self, tc_program, tc_schema):
        with pytest.raises(NonTerminationError):
            evaluate(
                tc_program,
                edge_instance(tc_schema, path_graph(30)),
                limits=EvaluatorLimits(max_steps=2),
            )
