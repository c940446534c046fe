"""Tests for the rule compiler (repro.iql.compile).

Three layers:

* fallback constructs — each shape the compiler refuses (deletion
  bodies, choose, unbound dereference, set-assignment patterns) must run
  interpreted, produce the reference answer, and record its reason tag;
* kernel invalidation — compiled kernels capture live extension sets and
  index dicts by identity, so ``drop_indexes`` (IQL* deletions) and a
  change of instance must force recompilation;
* lazy delta kernels — a semi-naive delta position compiles on first
  use, so positions that never see a delta build neither a kernel nor
  the indexes it would probe;
* plumbing — the surfaced statistics.

The 220-seed production-vs-reference sweeps live in test_differential.py.
"""

from repro.iql import (
    Choose,
    Deref,
    Evaluator,
    Membership,
    NameTerm,
    Program,
    Rule,
    SetTerm,
    TupleTerm,
    Var,
    atom,
    columns,
)
from repro.iql.compile import RuleCompiler
from repro.iql.evaluator import EvaluationStats
from repro.parser.grammar import program_from_source
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D, classref, set_of, tuple_of
from repro.values import Oid, OTuple, OSet


def reference(program, instance):
    return Evaluator(program, naive=True).run(instance.copy())


def compiled(program, instance, **kwargs):
    return Evaluator(program, **kwargs).run(instance.copy())


# -- fallback constructs -----------------------------------------------------------


class TestFallbacks:
    def test_deletion_rule_falls_back(self):
        schema = Schema(
            relations={"Src": columns(D), "Kill": columns(D), "Dst": columns(D)}
        )
        x = Var("x", D)
        program = Program(
            schema,
            rules=[
                Rule(atom(schema, "Dst", x), [atom(schema, "Src", x)]),
                Rule(atom(schema, "Dst", x), [atom(schema, "Kill", x)], delete=True),
            ],
            input_names=["Src", "Kill"],
            output_names=["Dst"],
        )
        instance = Instance(schema.project(["Src", "Kill"]))
        for v in ("a", "b", "c"):
            instance.add_relation_member("Src", OTuple(A01=v))
        instance.add_relation_member("Kill", OTuple(A01="b"))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.output.relations["Dst"] == {OTuple(A01="a"), OTuple(A01="c")}
        assert out.stats.compile_fallback_reasons.get("deletion", 0) >= 1
        assert out.stats.rules_interpreted >= 1

    def test_choose_rule_falls_back(self):
        P = classref("P")
        schema = Schema(
            relations={"R_pick": tuple_of(M=P)},
            classes={"P": tuple_of(tag=D)},
        )
        m = Var("m", P)
        program = Program(
            schema,
            rules=[Rule(Membership(NameTerm("R_pick"), TupleTerm(M=m)), [Choose()])],
            input_names=["P"],
            output_names=["R_pick", "P"],
        )
        instance = Instance(schema.project(["P"]))
        for i in range(3):
            oid = Oid(f"s{i}")
            instance.add_class_member("P", oid)
            instance.assign(oid, OTuple(tag="same"))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert len(out.output.relations["R_pick"]) == 1
        assert out.stats.compile_fallback_reasons.get("choose", 0) >= 1

    def test_unbound_dereference_falls_back(self):
        C = classref("C")
        schema = Schema(
            relations={"Val": columns(D), "Out": columns(C)},
            classes={"C": D},
        )
        p = Var("p", C)
        program = Program(
            schema,
            rules=[Rule(atom(schema, "Out", p), [atom(schema, "Val", Deref(p))])],
            input_names=["Val", "C"],
            output_names=["Out", "C"],
        )
        instance = Instance(schema.project(["Val", "C"]))
        o1, o2 = Oid("o1"), Oid("o2")
        for oid, value in ((o1, "a"), (o2, "b")):
            instance.add_class_member("C", oid)
            instance.assign(oid, value)
        instance.add_relation_member("Val", OTuple(A01="a"))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.output.relations["Out"] == {OTuple(A01=o1)}
        assert out.stats.compile_fallback_reasons.get("unbound-dereference", 0) >= 1

    def test_set_assignment_pattern_falls_back(self):
        schema = Schema(relations={"S": columns(set_of(D)), "U": columns(D)})
        x = Var("x", D)
        program = Program(
            schema,
            rules=[Rule(atom(schema, "U", x), [atom(schema, "S", SetTerm(x))])],
            input_names=["S"],
            output_names=["U"],
        )
        instance = Instance(schema.project(["S"]))
        instance.add_relation_member("S", OTuple(A01=OSet(["a"])))
        instance.add_relation_member("S", OTuple(A01=OSet(["b", "c"])))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.output.relations["U"] == {OTuple(A01="a")}
        assert out.stats.compile_fallback_reasons.get("set-assignment", 0) >= 1

    def test_compilable_program_has_no_fallbacks(self):
        program, instance = _tc_setup()
        out = compiled(program, instance)
        assert out.stats.compile_fallbacks == 0
        assert out.stats.rules_interpreted == 0
        assert out.stats.rules_compiled == len(program.rules)


# -- kernel invalidation -----------------------------------------------------------


def _tc_setup(n=6):
    schema = Schema(relations={"E": columns(D, D), "T": columns(D, D)})
    x, y, z = Var("x", D), Var("y", D), Var("z", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(
                atom(schema, "T", x, z),
                [atom(schema, "T", x, y), atom(schema, "E", y, z)],
            ),
        ],
        input_names=["E"],
        output_names=["T"],
    )
    instance = Instance(schema.project(["E"]))
    for i in range(n - 1):
        instance.add_relation_member("E", OTuple(A01=f"n{i}", A02=f"n{i + 1}"))
    return program, instance


class TestInvalidation:
    def test_kernel_cached_then_invalidated_by_drop_indexes(self):
        program, working = _tc_setup()
        instance = working.with_schema(program.schema)
        rule = program.rules[1]  # the join rule: its plan probes an index
        compiler = RuleCompiler()
        compiler.begin_run(EvaluationStats())
        k1 = compiler.compiled_rule(rule, instance)
        assert k1 is not None
        assert k1.body.indexes is not None  # captured probe dicts
        assert compiler.compiled_rule(rule, instance) is k1  # cache hit
        instance.drop_indexes()
        assert not k1.valid_for(instance)
        k2 = compiler.compiled_rule(rule, instance)
        assert k2 is not None and k2 is not k1
        assert k2.valid_for(instance)

    def test_kernel_invalidated_by_instance_change(self):
        program, working = _tc_setup()
        instance = working.with_schema(program.schema)
        rule = program.rules[0]
        compiler = RuleCompiler()
        compiler.begin_run(EvaluationStats())
        k1 = compiler.compiled_rule(rule, instance)
        other = instance.copy()
        assert not k1.valid_for(other)
        k2 = compiler.compiled_rule(rule, other)
        assert k2 is not k1 and k2.valid_for(other)

    def test_stale_plans_recompile_their_kernels(self):
        program, working = _tc_setup()
        instance = working.with_schema(program.schema)
        rule = program.rules[1]  # T(x, y), E(y, z): costed while T is empty
        compiler = RuleCompiler()
        compiler.begin_run(EvaluationStats())
        kernel = compiler.compiled_rule(rule, instance)
        sn = compiler.seminaive_kernels(rule, instance)
        delta = sn.delta(1)  # E(y, z)'s delta kernel: its rest probes T
        for i in range(10):  # under 10x growth both stay cached
            assert compiler.compiled_rule(rule, instance) is kernel and sn.delta(1) is delta
            instance.add_relation_member("T", OTuple(A01=f"t{i}", A02=f"u{i}"))
        assert not kernel.valid_for(instance) and not delta[1].valid_for(instance)
        assert ("T", True, 10) in compiler.compiled_rule(rule, instance).body.plan.basis
        assert ("T", True, 10) in sn.delta(1)[1].plan.basis

    def test_compiled_run_survives_deletion_recompile_cycle(self):
        # A join rule (captures index dicts) plus a deletion rule: the
        # deletions drop the indexes mid-fixpoint, so the next step must
        # detect the stale kernel and recompile against fresh indexes.
        schema = Schema(
            relations={"E": columns(D, D), "T": columns(D, D), "Kill": columns(D, D)}
        )
        x, y, z = Var("x", D), Var("y", D), Var("z", D)
        program = Program(
            schema,
            rules=[
                Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
                Rule(
                    atom(schema, "T", x, z),
                    [atom(schema, "T", x, y), atom(schema, "E", y, z)],
                ),
                Rule(atom(schema, "T", x, y), [atom(schema, "Kill", x, y)], delete=True),
            ],
            input_names=["E", "Kill"],
            output_names=["T"],
        )
        instance = Instance(schema.project(["E", "Kill"]))
        for i in range(5):
            instance.add_relation_member("E", OTuple(A01=f"n{i}", A02=f"n{i + 1}"))
        instance.add_relation_member("Kill", OTuple(A01="n0", A02="n3"))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.stats.compile_fallback_reasons.get("deletion", 0) >= 1
        assert out.stats.rules_compiled >= 2


# -- invention, blocking, weak assignment ------------------------------------------


MIXED_PROGRAM = """
schema {
  relation E: [A1: D, A2: D];
  relation T: [A1: D, A2: D];
  relation F: [A1: D, A2: D];
  relation Seed: [A1: P];
  class P: [];
}
var x, y, z: D
var p: P
input E, Seed, P
output T, F, P
rules {
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z).
  F(x, y) :- T(x, y), T(y, x).
  p^ = [] :- Seed(p).
}
"""


def _mixed_setup(n=8, objects=4):
    program = program_from_source(MIXED_PROGRAM)
    instance = Instance(program.input_schema)
    for i in range(n - 1):
        instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
    instance.add_relation_member("E", OTuple(A1=f"n{n - 1}", A2="n0"))
    for k in range(objects):
        oid = Oid(f"p{k}")
        instance.add_class_member("P", oid)
        instance.add_relation_member("Seed", OTuple(A1=oid))
    return program, instance


class TestSemantics:
    def test_compiled_weak_assignment(self):
        program, instance = _mixed_setup()
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.output.classes["P"]
        assert all(
            out.output.value_of(oid) == OTuple() for oid in out.output.classes["P"]
        )
        assert out.stats.rules_compiled == 4

    def test_compiled_scheduled_agrees(self):
        program, instance = _mixed_setup()
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.stats.strata == 3

    def test_compiled_invention_and_blocking(self):
        C = classref("C")
        schema = Schema(
            relations={"U": columns(D), "R": columns(D, C)},
            classes={"C": set_of(D)},
        )
        x = Var("x", D)
        c = Var("c", C)
        program = Program(
            schema,
            rules=[Rule(atom(schema, "R", x, c), [atom(schema, "U", x)])],
            input_names=["U"],
            output_names=["R", "C"],
        )
        instance = Instance(schema.project(["U"]))
        for v in ("a", "b", "c"):
            instance.add_relation_member("U", OTuple(A01=v))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert are_o_isomorphic(out.output, ref.output)
        # Blocking: exactly one invention per U-fact, then fixpoint.
        assert out.stats.oids_invented == 3


# -- cache plumbing and statistics -------------------------------------------------


class TestPlumbing:
    def test_stats_surface_compile_and_caches(self):
        program, instance = _tc_setup()
        out = compiled(program, instance)
        assert out.stats.rules_compiled >= 1
        assert out.stats.compile_time >= 0.0
        assert out.stats.kernel_cache_entries >= 1
        assert out.stats.plan_cache_entries >= 1

    def test_compile_ignored_under_trace(self):
        # trace=True runs the reference engine, whose γ1 steps the events
        # describe: no compiler, and the reference answer.
        program, instance = _tc_setup()
        evaluator = Evaluator(program, trace=True)
        assert evaluator.naive and evaluator._compiler is None
        result = evaluator.run(instance.copy())
        assert result.output == reference(program, instance).output
        assert result.stats.rules_compiled == 0
        assert result.trace


# -- lazy delta kernels ------------------------------------------------------------


SKEWED_JOIN = """
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


class TestLazyDeltaKernels:
    def test_input_only_positions_never_compile(self):
        # The E21 shape: the C position's delta kernel would probe B on
        # A2, building an O(|B|) projection index; C never has a delta.
        program = program_from_source(SKEWED_JOIN)
        instance = Instance(program.input_schema)
        for i in range(4):
            instance.add_relation_member("A", OTuple(A1=f"s{i}"))
        for i in range(200):
            instance.add_relation_member("B", OTuple(A1=f"s{i % 4}", A2=f"v{i}"))
        for j in range(20):
            instance.add_relation_member("C", OTuple(A1=f"v{j}"))
        for _ in range(2):
            out = compiled(program, instance)
            assert ("B", "A2") not in out.full.indexes.built_relation_indexes()
            assert out.stats.rules_compiled == 1
            assert len(out.output.relations["J"]) == 20
        kernels = program.rules[0].kernel_cache["sn"]
        assert kernels._delta == {}

    def test_recursive_position_compiles_on_first_delta(self):
        program, instance = _tc_setup()
        out = compiled(program, instance)
        kernels = program.rules[1].kernel_cache["sn"]
        assert set(kernels._delta) == {0}  # T(x, y) has deltas; E(y, z) never
        assert out.output == reference(program, instance).output

    def test_a_position_that_falls_back_demotes_the_rule(self):
        # The full body binds p from the class scan before Val(p̂) is a
        # filter, so round 0 compiles; the Val delta position would match
        # p̂ with p unbound, which only the interpreter enumerates.
        from repro.iql.ivm import MaterializedProgram

        C = classref("C")
        schema = Schema(
            relations={"Val": columns(D), "Out": columns(C)}, classes={"C": D}
        )
        p = Var("p", C)
        program = Program(
            schema,
            rules=[
                Rule(
                    atom(schema, "Out", p),
                    [Membership(NameTerm("C"), p), atom(schema, "Val", Deref(p))],
                )
            ],
            input_names=["Val", "C"],
            output_names=["Out", "C"],
        )
        instance = Instance(schema.project(["Val", "C"]))
        o1, o2 = Oid("o1"), Oid("o2")
        for oid, value in ((o1, "a"), (o2, "b")):
            instance.add_class_member("C", oid)
            instance.assign(oid, value)
        for value in ("a", "x", "y", "z"):  # |Val| > |C|: the planner scans C
            instance.add_relation_member("Val", OTuple(A01=value))
        mp = MaterializedProgram(program, instance)
        assert mp.initial_stats.rules_interpreted == 0
        mp.apply_delta(inserts=[("Val", OTuple(A01="b"))])
        assert mp.extent("Out") == {OTuple(A01=o1), OTuple(A01=o2)}
        assert mp.stats.compile_fallback_reasons.get("unbound-dereference") == 1
        assert mp.stats.rules_interpreted == 1
