"""Tests for the rule compiler (repro.iql.compile).

Five layers:

* the compilable fragment — deletion bodies and set patterns of zero or
  one term compile; each shape the compiler refuses (choose, unbound
  dereference, set patterns of two or more terms) must run on the
  reference interpreter, produce the reference answer, and record its
  reason tag;
* kernel invalidation — compiled kernels capture live extension sets and
  index dicts by identity, so ``drop_indexes`` (IQL* deletions) and a
  change of instance must force recompilation;
* lazy delta kernels — a semi-naive delta position compiles on first
  use, so positions that never see a delta build neither a kernel nor
  the indexes it would probe; the head-bound kernel compiles the same
  way, and a head it cannot match leaves the delta kernels compiled;
* plumbing — the surfaced statistics;
* generated source — no user text enters it, a program of the same
  text compiles nothing, a re-costed plan gets its own code, two rules
  whose bodies differ only in their variables' types get their own
  plans, and bound kernels belong to the evaluator, never to the
  program;
* flat relations — a kernel trusts the shape of each fact it reads from
  a flat relation but keeps the class-extent test, and a head that
  writes a fact not of its relation's type raises the error of
  ``Instance.add_relation_member`` on both engines.

The 220-seed production-vs-reference sweeps live in test_differential.py.
"""

import pathlib
import re

import pytest

from repro.errors import EvaluationError, InstanceError, NonTerminationError
from repro.iql import (
    Choose,
    Const,
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
from repro.iql.compile import HEAD, RuleCompiler, kernel_factory
from repro.iql.evaluator import EvaluationStats, EvaluatorLimits
from repro.parser.grammar import program_from_source
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D, classref, set_of, tuple_of
from repro.values import Oid, OTuple, OSet, intern

from tests.test_impact import E19_PROGRAM


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def reference(program, instance):
    return Evaluator(program, naive=True).run(instance.copy())


def compiled(program, instance, **kwargs):
    return Evaluator(program, **kwargs).run(instance.copy())


# -- fallback constructs -----------------------------------------------------------


class TestFallbacks:
    def test_deletion_rule_compiles(self):
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
        assert out.stats.compile_fallbacks == out.stats.rules_interpreted == 0
        assert out.stats.rules_compiled == len(program.rules)

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
        # {x, y} branches over element assignments: the rule's semi-naive
        # kernels refuse, and the γ1 loop runs it on the reference.
        schema = Schema(relations={"S": columns(set_of(D)), "U": columns(D)})
        x, y = Var("x", D), Var("y", D)
        program = Program(
            schema,
            rules=[Rule(atom(schema, "U", x), [atom(schema, "S", SetTerm(x, y))])],
            input_names=["S"],
            output_names=["U"],
        )
        instance = Instance(schema.project(["S"]))
        for members in (["a"], ["b", "c"], ["d", "e", "f"]):
            instance.add_relation_member("S", OTuple(A01=OSet(members)))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.output.relations["U"] == {OTuple(A01=v) for v in "abc"}
        assert out.stats.compile_fallback_reasons.get("set-assignment", 0) >= 1

    def test_set_patterns_of_zero_or_one_term_compile(self):
        # {x} matches exactly the one-element sets; {} only the empty set.
        schema = Schema(
            relations={"S": columns(set_of(D)), "U": columns(D), "Z": columns(D)}
        )
        x = Var("x", D)
        program = Program(
            schema,
            rules=[
                Rule(atom(schema, "U", x), [atom(schema, "S", SetTerm(x))]),
                Rule(atom(schema, "Z", "empty"), [atom(schema, "S", SetTerm())]),
            ],
            input_names=["S"],
            output_names=["U", "Z"],
        )
        instance = Instance(schema.project(["S"]))
        for members in ([], ["a"], ["b", "c"]):
            instance.add_relation_member("S", OTuple(A01=OSet(members)))
        ref = reference(program, instance)
        out = compiled(program, instance)
        assert out.output == ref.output
        assert out.output.relations["U"] == {OTuple(A01="a")}
        assert out.output.relations["Z"] == {OTuple(A01="empty")}
        assert out.stats.compile_fallbacks == 0
        assert out.stats.rules_compiled == len(program.rules)

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
        compiler = RuleCompiler(program)
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
        compiler = RuleCompiler(program)
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
        compiler = RuleCompiler(program)
        compiler.begin_run(EvaluationStats())
        kernel = compiler.compiled_rule(rule, instance)
        sn = compiler.seminaive_kernels(rule, instance)
        delta = sn.delta(1)  # E(y, z)'s delta kernel: its rest probes T
        for i in range(10):  # under 10x growth both stay cached
            assert compiler.compiled_rule(rule, instance) is kernel and sn.delta(1) is delta
            instance.add_relation_member("T", OTuple(A01=f"t{i}", A02=f"u{i}"))
        assert not kernel.valid_for(instance) and not delta.valid_for(instance)
        assert ("T", True, 10) in compiler.compiled_rule(rule, instance).body.plan.basis
        assert ("T", True, 10) in sn.delta(1).plan.basis

    def test_compiled_run_survives_deletion_recompile_cycle(self):
        # A join rule (captures index dicts) plus a deletion rule: the
        # deletions retract index entries mid-fixpoint, under the join
        # kernel that captured them.
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

    def test_a_negated_tuple_filter_fires_when_its_tuple_was_never_built(self):
        # not T(y, x) probes the intern table for [A01: y, A02: x]. A content
        # with no node is in no extension, so the negated filter passes,
        # and the probe builds nothing.
        schema = Schema(
            relations={"E": columns(D, D), "T": columns(D, D), "R": columns(D)}
        )
        x, y = Var("x", D), Var("y", D)
        program = Program(
            schema,
            rules=[
                Rule(
                    atom(schema, "R", x),
                    [atom(schema, "E", x, y), atom(schema, "T", y, x, positive=False)],
                )
            ],
            input_names=["E", "T"],
            output_names=["R"],
        )
        a, b = "never-built-a", "never-built-b"
        instance = Instance(schema.project(["E", "T"]))
        instance.add_relation_member("E", OTuple(A01=a, A02=b))
        instance.add_relation_member("T", OTuple(A01=a, A02=b))
        reversed_pairs = (("A01", b), ("A02", a))
        assert intern.STORE.tuples.get(reversed_pairs) is None
        result = compiled(program, instance)
        entry = intern.STORE.tuples.get(reversed_pairs)
        assert entry is None or entry() is None
        assert result.stats.rules_compiled == 1
        assert result.output.relations["R"] == {OTuple(A01=a)}
        assert result.output == reference(program, instance).output


#: Two inventing rules of one γ1 loop (a stage that invents into P from
#: two rules runs monolithic), one valuation each; the first rule invents
#: two oids, and writes them against their names' order.
TWO_INVENTIONS = """
schema {
  relation S1: [A1: D];
  relation S2: [A1: D];
  relation Pair: [A1: P, A2: P];
  class P: [];
}
var x: D
var p, q, r: P
input S1, S2
output Pair, P
rules {
  Pair(q, p) :- S1(x).
  Pair(r, r) :- S2(x).
}
"""


def _invented_dereference(value_type):
    """w^(q^) reads the value of q, invented in the same step. The body
    fires once: Seen(x) holds from the second step on."""
    return program_from_source(
        f"""
schema {{
  relation S: [A1: D];
  relation Seen: [A1: D];
  class Q: {value_type};
  class W: {{{value_type}}};
}}
var x: D
var q: Q
var w: W
input S
output W, Q, Seen
rules {{
  Seen(x) :- S(x).
  w^(q^) :- S(x), not Seen(x).
}}
"""
    )


class TestRows:
    """A compiled γ1 rule collects one row per firing valuation; the step
    invents their oids and applies every row's head."""

    def test_oids_are_invented_by_rule_then_row_then_variable_name(self):
        program = program_from_source(TWO_INVENTIONS)
        assert program.schedule.stages[0].strata is None
        instance = Instance(program.input_schema)
        instance.add_relation_member("S1", OTuple(A1="a"))
        instance.add_relation_member("S2", OTuple(A1="b"))
        out = compiled(program, instance)
        assert out.stats.rules_compiled == 2 and out.stats.oids_invented == 3
        for result in (out, reference(program, instance)):
            pairs = {(t["A1"].name, t["A2"].name) for t in result.output.relations["Pair"]}
            assert pairs == {("P!2", "P!1"), ("P!3", "P!3")}

    def test_a_head_reads_an_invented_set_valued_oid_as_empty(self):
        program = _invented_dereference("{D}")
        instance = Instance(program.input_schema)
        instance.add_relation_member("S", OTuple(A1="a"))
        out = compiled(program, instance)
        assert out.stats.rules_compiled == 2 and out.stats.compile_fallbacks == 0
        for result in (out, reference(program, instance)):
            (w,) = result.output.classes["W"]
            assert result.output.value_of(w) == OSet([OSet()])

    def test_a_head_that_reads_an_undefined_invented_oid_raises(self):
        program = _invented_dereference("[A: D]")
        instance = Instance(program.input_schema)
        instance.add_relation_member("S", OTuple(A1="a"))
        for run in (compiled, reference):
            with pytest.raises(EvaluationError, match="not evaluable"):
                run(program, instance)


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
        # Round 0 only: no delta position got a factory.
        assert set(program.rule_memo(program.rules[0]).factories) == {"full"}

    def test_recursive_position_compiles_on_first_delta(self):
        program, instance = _tc_setup()
        out = compiled(program, instance)
        factories = program.rule_memo(program.rules[1]).factories
        assert set(factories) == {"full", 0}  # T(x, y) has deltas; E(y, z) never
        assert out.output == reference(program, instance).output

    def test_head_kernel_probes_one_fact(self):
        # T(x, z) :- T(x, y), E(y, z) with x and z bound from the fact:
        # the body yields one solution per derivation of that fact.
        program, instance = _tc_setup()
        full = compiled(program, instance).full
        compiler = RuleCompiler(program)
        compiler.begin_run(EvaluationStats())
        sn = compiler.seminaive_kernels(program.rules[1], full)
        head = sn.delta(HEAD)
        assert sn.delta(HEAD) is head  # cached like a delta kernel
        (derivable,) = head.functions

        assert derivable(OTuple(A01="n0", A02="n3"), {})
        assert not derivable(OTuple(A01="n0", A02="n1"), {})  # only E(n0, n1)
        assert not derivable(OTuple(A01="n3", A02="n0"), {})
        # Its one derivation uses T(n0, n2): excluding that fact leaves none.
        assert not derivable(OTuple(A01="n0", A02="n3"), {"T": {OTuple(A01="n0", A02="n2")}})
        assert derivable(OTuple(A01="n0", A02="n3"), {"E": {OTuple(A01="n0", A02="n1")}})

    def test_a_head_outside_the_fragment_keeps_the_delta_kernels(self):
        # Out(p̂) :- Sel(p): matching the head binds p̂ with p unbound, which
        # only the interpreter enumerates. The head kernel is refused, but
        # the rule's delta rewriting stays compiled.
        C = classref("C")
        schema = Schema(
            relations={"Sel": columns(C), "Out": columns(D)}, classes={"C": D}
        )
        p = Var("p", C)
        program = Program(
            schema,
            rules=[Rule(atom(schema, "Out", Deref(p)), [atom(schema, "Sel", p)])],
            input_names=["Sel", "C"],
            output_names=["Out"],
        )
        instance = Instance(schema)
        o1 = Oid("o1")
        instance.add_class_member("C", o1)
        instance.assign(o1, "a")
        instance.add_relation_member("Sel", OTuple(A01=o1))
        compiler = RuleCompiler(program)
        compiler.begin_run(EvaluationStats())
        sn = compiler.seminaive_kernels(program.rules[0], instance)
        assert sn.delta(HEAD) is None and sn.delta(HEAD) is None
        assert sn.delta(0) is not None and sn.fallback is None

    def test_a_refused_delta_kernel_is_reported_in_the_run_that_refused(self):
        # Out and Val form one recursive stratum. Its third round needs the
        # Val delta kernel of Out's rule, which would match p̂ with p
        # unbound: the kernel refuses and the γ1 loop finishes the stratum.
        # The run in which it refuses reports that, as every later run does.
        C = classref("C")
        schema = Schema(
            relations={"Val": columns(D), "Next": columns(D, D), "Out": columns(C)},
            classes={"C": D},
        )
        p, y = Var("p", C), Var("y", D)
        program = Program(
            schema,
            rules=[
                Rule(
                    atom(schema, "Out", p),
                    [Membership(NameTerm("C"), p), atom(schema, "Val", Deref(p))],
                ),
                Rule(
                    atom(schema, "Val", y),
                    [atom(schema, "Out", p), atom(schema, "Next", Deref(p), y)],
                ),
            ],
            input_names=["Val", "Next", "C"],
            output_names=["Out", "Val", "C"],
        )
        instance = Instance(schema.project(["Val", "Next", "C"]))
        o1, o2 = Oid("o1"), Oid("o2")
        for oid, value in ((o1, "a"), (o2, "b")):
            instance.add_class_member("C", oid)
            instance.assign(oid, value)
        for value in ("a", "x", "y", "z"):  # |Val| > |C|: the planner scans C
            instance.add_relation_member("Val", OTuple(A01=value))
        instance.add_relation_member("Next", OTuple(A01="a", A02="b"))
        evaluator = Evaluator(program)
        runs = [evaluator.run(instance.copy()) for _ in range(2)]
        expected = reference(program, instance).output
        assert OTuple(A01=o2) in expected.relations["Out"]
        for result in runs:
            assert result.output == expected
            assert result.stats.compile_fallbacks == 1
            assert result.stats.compile_fallback_reasons == {"unbound-dereference": 1}
            assert result.stats.rules_interpreted == 1

    def test_a_position_that_falls_back_demotes_the_rule(self):
        # The full body binds p from the class scan before Val(p̂) is a
        # filter, so round 0 compiles; the Val delta position would match
        # p̂ with p unbound, which only the reference enumerates. A batch
        # that needs that kernel recomputes from the maintained base.
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
        assert compiled(program, instance).output == reference(program, instance).output
        mp = MaterializedProgram(program, instance)
        assert mp.initial_stats.rules_interpreted == 0
        assert mp.stats.maintenance_fallbacks == 0
        mp.apply_delta(inserts=[("Val", OTuple(A01="b"))])
        assert mp.stats.maintenance_fallbacks == 1
        assert mp.extent("Out") == {OTuple(A01=o1), OTuple(A01=o2)}
        assert mp.stats.compile_fallback_reasons.get("unbound-dereference") == 1
        assert mp.stats.rules_interpreted == 1


# -- generated source --------------------------------------------------------------


HOSTILE_STRINGS = ('say "hi"', "it's", "back\\slash", """'); __import__("os").getcwd(); ('""")

HOSTILE_PROGRAM = """
schema {
  relation R: [A1: D, A2: D];
  relation Q: [A1: D, A2: D];
  relation S: [A1: D];
}
var x, y: D
input R
output Q, S
rules {
  Q(x, "say \\"hi\\"") :- R(x, "it's").
  S("back\\\\slash") :- R(x, "'); __import__(\\"os\\").getcwd(); ('").
  Q(x, y) :- R(x, y), Q(y, x).
  Q(y, x) :- Q(x, y).
}
"""


def _sources(program):
    return [
        factory.source
        for rule in program.rules
        for factory in program.rule_memo(rule).factories.values()
    ]


def _gamma_factories(program):
    """Rule → the factory of its γ1 kernel, for the rules that have one."""
    memos = {rule: program.rule_memo(rule).factories for rule in program.rules}
    return {rule: memo["rule"] for rule, memo in memos.items() if "rule" in memo}


def _objects_setup():
    """examples/graph_objects.iql over a graph with a cycle, a fork and a
    self-loop."""
    program = program_from_source((EXAMPLES / "graph_objects.iql").read_text())
    instance = Instance(program.input_schema)
    for a, b in (("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "d")):
        instance.add_relation_member("R", OTuple(A1=a, A2=b))
    return program, instance


def _assert_maintained(program, instance, inserts, deletes):
    from repro.iql.ivm import MaterializedProgram

    mp = MaterializedProgram(program, instance)
    mp.apply_delta(inserts=inserts)
    mp.apply_delta(deletes=deletes)
    fresh = Evaluator(program, naive=True).run(mp.base.copy()).full
    assert mp.instance.ground_facts() == fresh.ground_facts()


class TestGeneratedSource:
    def test_parsed_constants_never_enter_the_source(self):
        program = program_from_source(HOSTILE_PROGRAM)
        quote, apostrophe, backslash, code = HOSTILE_STRINGS
        instance = Instance(program.input_schema)
        for a, b in (("n1", apostrophe), ("n2", code), ("n3", "n4"), ("n4", "n3")):
            instance.add_relation_member("R", OTuple(A1=a, A2=b))
        out = compiled(program, instance)
        assert out.output == reference(program, instance).output
        assert OTuple(A1="n1", A2=quote) in out.output.relations["Q"]
        assert out.output.relations["S"] == {OTuple(A1=backslash)}
        _assert_maintained(
            program,
            instance,
            inserts=[("R", OTuple(A1="n5", A2=apostrophe))],
            deletes=[("R", OTuple(A1="n2", A2=code)), ("R", OTuple(A1="n3", A2="n4"))],
        )
        sources = _sources(program)
        assert sources and out.stats.rules_compiled == len(program.rules)
        for text in HOSTILE_STRINGS:
            assert not any(text in source for source in sources)

    def test_api_names_never_enter_the_source(self):
        relation, output = 'R"\'\nimport os', """Out'); __import__("os").getcwd(); ('"""
        first, second = "a\"\n'b", "c'); print(1); ('"
        schema = Schema(
            relations={
                relation: tuple_of(**{first: D, second: D}),
                output: tuple_of(**{first: D}),
            }
        )
        x, y = Var('x"\n', D), Var("y'); ('", D)
        program = Program(
            schema,
            rules=[
                Rule(
                    Membership(NameTerm(output), TupleTerm(**{first: y})),
                    [
                        Membership(NameTerm(relation), TupleTerm(**{first: x, second: y})),
                        Membership(NameTerm(output), TupleTerm(**{first: x})),
                    ],
                ),
                Rule(
                    Membership(NameTerm(output), TupleTerm(**{first: x})),
                    [
                        Membership(
                            NameTerm(relation), TupleTerm(**{first: x, second: Const("seed")})
                        )
                    ],
                ),
            ],
            input_names=[relation],
            output_names=[output],
        )
        instance = Instance(program.input_schema)
        for a, b in (("s", "seed"), ("s", "t"), ("t", "u"), ("v", "w")):
            instance.add_relation_member(relation, OTuple({first: a, second: b}))
        out = compiled(program, instance)
        assert out.output == reference(program, instance).output
        assert {value[first] for value in out.output.relations[output]} == {"s", "seed", "t", "u"}
        _assert_maintained(
            program,
            instance,
            inserts=[(relation, OTuple({first: "v", second: "seed"}))],
            deletes=[(relation, OTuple({first: "s", second: "t"}))],
        )
        sources = _sources(program)
        assert sources
        for text in (relation, output, first, second, x.name, y.name):
            assert not any(text in source for source in sources)

    def test_gamma_kernels_collect_rows_and_apply_them_in_one_call(self):
        for program, instance in (_mixed_setup(), _objects_setup()):
            out = compiled(program, instance)
            assert out.stats.compile_fallbacks == 0
            assert are_o_isomorphic(out.output, reference(program, instance).output)
            factories = _gamma_factories(program)
            assert factories
            for factory in factories.values():
                assert "def collect(out):" in factory.source
                assert "def apply(rows, writes):" in factory.source
                assert "consume" not in factory.source and "slots" not in factory.source

    def test_a_class_typed_dereference_reads_nu(self):
        program, instance = _objects_setup()
        compiled(program, instance)
        factories = _gamma_factories(program)
        (grow,) = [
            rule
            for rule in factories
            if isinstance(rule.head, Membership) and isinstance(rule.head.container, Deref)
        ]
        assert repr(grow.head) == "pp^(q)"
        assert "I.nu.get" in factories[grow].source
        for factory in factories.values():
            assert "value_of" not in factory.source

    def test_the_invention_blocking_check_probes_an_index(self):
        # R3(y, z) :- R3(x, y) invents z: its blocking check looks for an
        # R3 fact with A1 = y, through R3's A1 projection index.
        program = program_from_source((EXAMPLES / "divergent_invention.iql").read_text())
        instance = Instance(program.input_schema)
        seed = Oid("seed")
        instance.add_class_member("P", seed)
        instance.add_relation_member("Seed", OTuple(A1=seed))
        with pytest.raises(NonTerminationError):
            compiled(program, instance, limits=EvaluatorLimits(max_steps=20))
        factory = _gamma_factories(program)[program.rules[1]]
        source = factory.source
        getter, name, attr = re.search(
            r"(i\d+) = I\.indexes\.relation_index\(c(\d+), c(\d+)\)\.get", source
        ).groups()
        assert (factory.consts[int(name)], factory.consts[int(attr)]) == ("R3", "A1")
        blocked = source[source.index("def blocked(") : source.index("def apply(")]
        assert f"{getter}(" in blocked

    def test_a_second_program_of_the_same_text_compiles_nothing(self):
        from repro.iql.compile import CODE_CACHE

        program, instance = _mixed_setup()
        first = compiled(program, instance)
        misses = CODE_CACHE.misses
        again = program_from_source(MIXED_PROGRAM)
        second = compiled(again, instance)
        assert CODE_CACHE.misses == misses
        assert second.output == first.output
        assert second.stats.rules_compiled == first.stats.rules_compiled == 4
        assert sorted(_sources(again)) == sorted(_sources(program))

    def test_a_recosted_plan_gets_its_own_code(self, monkeypatch):
        # E24 at n=40: M's body is costed while T is empty (scan T, probe
        # S), and re-costed to scan S once T has grown tenfold.
        import pathlib

        from repro.iql import compile as compile_module

        text = (pathlib.Path(__file__).parent.parent / "examples" / "replan_growth.iql")
        program = program_from_source(text.read_text())
        instance = Instance(program.input_schema)
        for i in range(39):
            instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
        for j in range(3):
            instance.add_relation_member("S", OTuple(A1=f"n{(7 * j) % 40}", A2=f"m{j}"))
        generated = []
        generate = compile_module._generate

        def recording(schema, rule, kind, plan, initial):
            factory = generate(schema, rule, kind, plan, initial)
            generated.append((rule, factory))
            return factory

        monkeypatch.setattr(compile_module, "_generate", recording)
        out = compiled(program, instance)
        m_rule = program.rules[2]
        orders = [
            [step[1].container.name for step in factory.plan]
            for rule, factory in generated
            if rule is m_rule
        ]
        assert out.stats.plan_replans >= 1
        assert orders[0] == ["T", "S"] and orders[-1] == ["S", "T"]
        sources = {factory.source for rule, factory in generated if rule is m_rule}
        assert len(sources) == 2
        assert are_o_isomorphic(out.output, reference(program, instance).output)

    def test_equal_bodies_of_different_types_keep_their_own_plans(self):
        # S: [A01: D ∨ P]. Both bodies read S(x), and literals compare
        # equal whatever their variables' types, but x is a constant in
        # one rule and a P object in the other: each rule's kernel must
        # test its own x, in either rule order.
        from repro.typesys import union

        p_type = classref("P")
        schema = Schema(
            relations={"S": columns(union(D, p_type)), "T1": columns(D), "T2": columns(p_type)},
            classes={"P": tuple_of()},
        )
        x_d, x_p = Var("x", D), Var("x", p_type)
        rules = [
            Rule(atom(schema, "T1", x_d), [atom(schema, "S", x_d)]),
            Rule(atom(schema, "T2", x_p), [atom(schema, "S", x_p)]),
        ]
        for order in (rules, rules[::-1]):
            program = Program(
                schema, rules=order, input_names=["S", "P"], output_names=["S", "P", "T1", "T2"]
            )
            instance = Instance(program.input_schema)
            p = Oid()
            instance.add_class_member("P", p)
            instance.assign(p, OTuple())
            instance.add_relation_member("S", OTuple(A01="a"))
            instance.add_relation_member("S", OTuple(A01=p))
            out = compiled(program, instance)
            assert out.stats.rules_compiled == 2
            assert out.output.relations["T1"] == {OTuple(A01="a")}
            assert out.output.relations["T2"] == {OTuple(A01=p)}
            assert out.output == reference(program, instance).output

    def test_a_long_join_compiles(self):
        # Python nests at most 20 blocks per function: a 24-way chain join
        # is generated as a loop nest continued in a second function.
        n = 24
        names = ", ".join(f"x{i}" for i in range(n + 1))
        body = ", ".join(f"E(x{i}, x{i + 1})" for i in range(n))
        program = program_from_source(
            "schema { relation E: [A1: D, A2: D]; relation P: [A1: D, A2: D]; }\n"
            f"var {names}: D\ninput E\noutput P\nrules {{ P(x0, x{n}) :- {body}. }}\n"
        )
        instance = Instance(program.input_schema)
        for i in range(30):
            instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
        out = compiled(program, instance)
        assert out.stats.rules_compiled == 1 and out.stats.compile_fallbacks == 0
        assert len(out.output.relations["P"]) == 30 - n + 1
        assert out.output == reference(program, instance).output
        # The delta kernels (maintenance) and the head-bound kernel are
        # continued in a second function too.
        _assert_maintained(
            program,
            instance,
            inserts=[("E", OTuple(A1="n30", A2="n31"))],
            deletes=[("E", OTuple(A1="n3", A2="n4"))],
        )
        rule = program.rules[0]
        (derivable,) = kernel_factory(program, rule, HEAD, out.full).bind(out.full, 100)
        fact = OTuple(A1="n0", A2=f"n{n}")
        assert derivable(fact, {}) and not derivable(OTuple(A1="n1", A2="n0"), {})
        assert not derivable(fact, {"E": {OTuple(A1="n23", A2="n24")}})

    def test_a_long_inventing_join_compiles(self):
        # The γ1 kernel continues its nest the same way: its blocking
        # check and its row run in the continuation.
        n = 24
        names = ", ".join(f"x{i}" for i in range(n + 1))
        body = ", ".join(f"E(x{i}, x{i + 1})" for i in range(n))
        program = program_from_source(
            "schema { relation E: [A1: D, A2: D]; relation P: [A1: D, A2: D, A3: Q]; "
            "class Q: []; }\n"
            f"var {names}: D\nvar q: Q\ninput E\noutput P, Q\n"
            f"rules {{ P(x0, x{n}, q) :- {body}. }}\n"
        )
        instance = Instance(program.input_schema)
        for i in range(30):
            instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
        out = compiled(program, instance)
        assert out.stats.rules_compiled == 1 and out.stats.compile_fallbacks == 0
        # One step (the rule reads only E), one valuation per chain.
        assert out.stats.valuations_considered == out.stats.oids_invented == 30 - n + 1
        assert len(out.output.relations["P"]) == 30 - n + 1
        assert are_o_isomorphic(out.output, reference(program, instance).output)
        source = _gamma_factories(program)[program.rules[0]].source
        assert "def collect1(out, tg, " in source

    def test_no_instance_outlives_its_run(self):
        import gc
        import types

        program, instance = _mixed_setup()
        result = compiled(program, instance)
        full = result.full
        del result
        gc.collect()
        referrers, own_indexes = gc.get_referrers(full), full._indexes
        holders = [
            r
            for r in referrers
            if not isinstance(r, types.FrameType) and r is not own_indexes
        ]
        assert holders == []
        assert _sources(program)  # the factories stay with the program

    def test_a_live_materialization_binds_each_kernel_once(self, monkeypatch):
        # Kernels are bound to the live instance once and serve every later
        # batch; only a recompute onto a new instance binds again.
        from repro.iql.compile import KernelFactory
        from repro.iql.ivm import MaterializedProgram

        # A chain with shortcuts: deleting a shortcut and inserting it back
        # leaves T as it was, so no plan goes stale.
        program = program_from_source(MIXED_PROGRAM)
        instance = Instance(program.input_schema)
        for i in range(10):
            instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
            instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 2}"))
        binds = []
        bind = KernelFactory.bind

        def counting(factory, target, budget):
            binds.append(factory)
            return bind(factory, target, budget)

        monkeypatch.setattr(KernelFactory, "bind", counting)
        mp = MaterializedProgram(program, instance)
        for i in range(4):
            binds.clear()
            shortcut = OTuple(A1=f"n{i}", A2=f"n{i + 2}")
            mp.apply_delta(deletes=[("E", shortcut)])
            mp.apply_delta(inserts=[("E", shortcut)])
            assert (binds == []) == (i > 0)
        assert mp.stats.overdeleted > 0
        assert mp.stats.maintenance_fallbacks == 0
        fresh = Evaluator(program, naive=True).run(mp.base.copy()).full
        assert mp.instance.ground_facts() == fresh.ground_facts()


# -- flat relations ------------------------------------------------------------------


def _class_locals(source, consts, names):
    """The locals a kernel's factory binds to the extents of ``names``."""
    found = {}
    for local, k in re.findall(r"(i\d+) = I\.classes\[c(\d+)\]", source):
        if consts[int(k)] in names:
            found[consts[int(k)]] = local
    return found


class TestFlatRelations:
    def test_a_closure_delta_kernel_tests_no_fact_it_reads(self):
        # T and E are flat D relations: T's delta kernel matches each delta
        # fact and each probed E fact without a class, length, attribute
        # or type test.
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        for i in range(6):
            instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
        out = compiled(program, instance)
        assert out.output == reference(program, instance).output
        recursive = program.rules[1]
        assert repr(recursive.head) == "T([A1: x, A2: z])"
        source = program.rule_memo(recursive).factories[0].source
        assert "def drain(source, existing, bucket):" in source
        assert "isinstance(" not in source and "len(" not in source

    def test_the_objects_kernel_keeps_only_its_class_extent_tests(self):
        program, instance = _objects_setup()
        out = compiled(program, instance)
        assert are_o_isomorphic(out.output, reference(program, instance).output)
        factories = _gamma_factories(program)
        (grow,) = [rule for rule in factories if repr(rule.head) == "pp^(q)"]
        factory = factories[grow]
        source = factory.source
        collect = source[source.index("def collect(out):") : source.index("def apply(")]
        assert "isinstance(" not in collect and "len(" not in collect
        # R_prime's A2 and A3 are P and P_aux components: each variable
        # bound from them is still tested against its class extent.
        extents = _class_locals(source, factory.consts, {"P", "P_aux"})
        assert set(extents) == {"P", "P_aux"}
        for local in extents.values():
            assert len(re.findall(rf"if v\d+ not in {local}: continue", collect)) == 2

    def test_a_dangling_oid_in_a_class_component_never_binds(self):
        # S's member [A1: ghost] conforms to [A1: P], but ghost belongs to
        # no class (the instance is not validated): the reference never
        # binds p to it, and neither may a kernel, semi-naive or γ1.
        p_type = classref("P")
        schema = Schema(
            relations={
                "S": tuple_of(A1=p_type),
                "T": tuple_of(A1=p_type),
                "U": tuple_of(A1=p_type, A2=classref("Q")),
            },
            classes={"P": tuple_of(), "Q": tuple_of()},
        )
        p, q = Var("p", p_type), Var("q", classref("Q"))
        copy_rule = Rule(atom(schema, "T", p), [atom(schema, "S", p)])
        invent_rule = Rule(atom(schema, "U", p, q), [atom(schema, "S", p)])
        program = Program(
            schema,
            rules=[copy_rule, invent_rule],
            input_names=["S", "P"],
            output_names=["T", "U", "P", "Q"],
        )
        assert program.rule_memo(copy_rule).seminaive
        assert not program.rule_memo(invent_rule).seminaive
        instance = Instance(program.input_schema)
        member, ghost = Oid("member"), Oid("ghost")
        instance.add_class_member("P", member)
        instance.add_relation_member("S", OTuple(A1=member))
        instance.add_relation_member("S", OTuple(A1=ghost))
        out = compiled(program, instance)
        assert out.stats.rules_compiled == 2
        assert out.output.relations["T"] == {OTuple(A1=member)}
        assert [value["A1"] for value in out.output.relations["U"]] == [member]
        assert are_o_isomorphic(out.output, reference(program, instance).output)


def _ill_typed(body):
    """Two programs built through the API, never type-checked, whose head
    writes a P oid into a D component: a semi-naive rule writing T and
    an inventing (γ1) rule writing W. ``body`` names the relation the oid
    is read from: S2's member has T's attribute, so the intern node of
    the fact T's head builds exists before the run; S's has not."""
    attr = {"S": "B1", "S2": "A1"}[body]
    p_type = classref("P")
    schema = Schema(
        relations={
            "S": tuple_of(B1=p_type),
            "S2": tuple_of(A1=p_type),
            "T": tuple_of(A1=D),
            "W": tuple_of(A1=D, A2=classref("Q")),
        },
        classes={"P": tuple_of(), "Q": tuple_of()},
    )
    p, q = Var("p", p_type), Var("q", classref("Q"))
    read = Membership(NameTerm(body), TupleTerm(**{attr: p}))
    rules = [
        Rule(Membership(NameTerm("T"), TupleTerm(A1=p)), [read]),
        Rule(Membership(NameTerm("W"), TupleTerm(A1=p, A2=q)), [read]),
    ]
    programs = [
        Program(schema, rules=[rule], input_names=["S", "S2", "P"], output_names=["T", "W", "Q"])
        for rule in rules
    ]
    instance = Instance(programs[0].input_schema)
    o = Oid("o")
    instance.add_class_member("P", o)
    instance.add_relation_member(body, OTuple(**{attr: o}))
    return programs, instance, o


class TestIllTypedHeads:
    @pytest.mark.parametrize("body", ["S", "S2"], ids=["node-missing", "node-present"])
    def test_a_seminaive_head_raises_the_mutators_error(self, body):
        (program, _), instance, o = _ill_typed(body)
        rule = program.rules[0]
        assert program.rule_memo(rule).seminaive
        assert (intern.STORE.tuples.get((("A1", o),)) is not None) == (body == "S2")
        for naive in (False, True):
            with pytest.raises(InstanceError) as error:
                Evaluator(program, naive=naive).run(instance.copy())
            assert str(error.value) == "ρ(T) member [A1: &o] is not of type [A1: D]"
        source = program.rule_memo(rule).factories["full"].source
        assert "_nonconforming_head(" in source

    def test_a_gamma_head_raises_the_mutators_error(self):
        (_, program), instance, _ = _ill_typed("S2")
        rule = program.rules[0]
        assert not program.rule_memo(rule).seminaive
        for naive in (False, True):
            with pytest.raises(InstanceError) as error:
                Evaluator(program, naive=naive).run(instance.copy())
            # The A2 oid is invented, so its name differs between runs.
            message = str(error.value)
            assert message.startswith("ρ(W) member [A1: &o, A2: &")
            assert message.endswith("] is not of type [A1: D, A2: Q]")
        assert "rule" in program.rule_memo(rule).factories

    def test_a_head_that_conforms_statically_is_not_tested(self):
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        instance.add_relation_member("E", OTuple(A1="a", A2="b"))
        compiled(program, instance)
        for rule in program.rules[:3]:
            for factory in program.rule_memo(rule).factories.values():
                assert "_nonconforming_head" not in factory.source
