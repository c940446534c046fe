"""E9 — Section 4.5: IQL* deletions and arbitrary input/output schemas."""

import pytest

from repro.errors import NonTerminationError
from repro.parser import program_from_source
from repro.iql import (
    Equality,
    Evaluator,
    EvaluatorLimits,
    Program,
    Rule,
    TupleTerm,
    Var,
    atom,
    columns,
    evaluate,
    typecheck_program,
)
from repro.schema import Instance, Schema
from repro.typesys import D, classref, set_of, tuple_of
from repro.values import Oid, OSet, OTuple


class TestRelationDeletion:
    def setup_method(self):
        self.schema = Schema(relations={"R": columns(D, D), "Kill": D})
        x, y = Var("x", D), Var("y", D)
        # delete R(x, y) ← R(x, y), Kill(x): remove rows whose key is marked.
        self.program = typecheck_program(
            Program(
                self.schema,
                rules=[
                    Rule(
                        atom(self.schema, "R", x, y),
                        [atom(self.schema, "R", x, y), atom(self.schema, "Kill", x)],
                        delete=True,
                    )
                ],
                input_names=["R", "Kill"],
                output_names=["R"],
            )
        )

    def test_marked_rows_removed(self):
        inst = Instance(
            self.schema,
            relations={
                "R": [OTuple(A01="a", A02="1"), OTuple(A01="b", A02="2")],
                "Kill": ["a"],
            },
        )
        out = evaluate(self.program, inst)
        assert {t["A01"] for t in out.relations["R"]} == {"b"}

    def test_non_disjoint_io_supported(self):
        # Same relation in input and output — the very thing plain
        # inflationary IQL cannot express (Section 4.5's motivation).
        assert not self.program.has_disjoint_io()


class TestInsertDeleteInteraction:
    def test_delete_wins_within_a_step(self):
        schema = Schema(relations={"Src": D, "Dst": D})
        x = Var("x", D)
        program = typecheck_program(
            Program(
                schema,
                rules=[
                    Rule(atom(schema, "Dst", x), [atom(schema, "Src", x)]),
                    Rule(atom(schema, "Dst", x), [atom(schema, "Src", x)], delete=True),
                ],
                input_names=["Src", "Dst"],
                output_names=["Dst"],
            )
        )
        inst = Instance(schema, relations={"Src": ["a"], "Dst": ["a"]})
        out = evaluate(program, inst)
        # Step 1: the insertion is blocked ('a' already present), the
        # deletion removes it → Dst = {}. Step 2: the insertion re-derives
        # 'a' AND the deletion fires; delete wins within the step, so the
        # state is unchanged → fixpoint with Dst empty.
        assert out.relations["Dst"] == set()

    def test_oscillation_detected(self):
        schema = Schema(relations={"Flag": D, "Switch": D})
        x = Var("x", D)
        program = Program(
            schema,
            rules=[
                # Flag(x) ← Switch(x), ¬Flag(x)  and  delete Flag(x) ← Flag(x)
                Rule(
                    atom(schema, "Flag", x),
                    [atom(schema, "Switch", x), atom(schema, "Flag", x, positive=False)],
                ),
                Rule(atom(schema, "Flag", x), [atom(schema, "Flag", x)], delete=True),
            ],
            input_names=["Switch", "Flag"],
            output_names=["Flag"],
        )
        typecheck_program(program)
        inst = Instance(schema, relations={"Switch": ["a"]})
        with pytest.raises(NonTerminationError):
            evaluate(program, inst, limits=EvaluatorLimits(max_steps=100))


class TestOidDeletionCascade:
    def setup_method(self):
        P = classref("P")
        self.schema = Schema(
            relations={"Uses": tuple_of(u=P), "KillName": D},
            classes={"P": tuple_of(name=D, peer=set_of(P))},
        )

    def build(self):
        o1, o2, o3 = Oid("o1"), Oid("o2"), Oid("o3")
        inst = Instance(
            self.schema,
            classes={"P": [o1, o2, o3]},
            nu={
                o1: OTuple(name="a", peer=OSet([o2])),
                o2: OTuple(name="b", peer=OSet()),
                o3: OTuple(name="c", peer=OSet([o1])),
            },
        )
        inst.add_relation_member("Uses", OTuple(u=o2))
        inst.add_relation_member("KillName", "b")
        return inst, (o1, o2, o3)

    def test_cascade(self):
        P = classref("P")
        p = Var("p", P)
        n = Var("n", D)
        program = typecheck_program(
            Program(
                self.schema,
                rules=[
                    Rule(
                        atom(self.schema, "P", p),
                        [
                            atom(self.schema, "P", p),
                            Equality(p.hat(), TupleTerm(name=n, peer=Var("S", set_of(P)))),
                            atom(self.schema, "KillName", n),
                        ],
                        delete=True,
                    )
                ],
                input_names=["P", "Uses", "KillName"],
                output_names=["P", "Uses"],
            )
        )
        inst, (o1, o2, o3) = self.build()
        out = evaluate(program, inst)
        # o2 deleted; o1 referenced o2 → cascades away; o3 referenced o1 →
        # cascades too. The Uses row mentioning o2 disappears.
        assert out.classes["P"] == set()
        assert out.relations["Uses"] == set()


class TestCompiledDeletions:
    """E9's cleanup and chain programs run on compiled kernels only and
    agree with the reference."""

    def agree(self, program, instance):
        production = Evaluator(program).run(instance.copy())
        reference = Evaluator(program, naive=True).run(instance.copy())
        assert production.stats.rules_interpreted == 0
        assert production.stats.rules_compiled == len(program.rules)
        assert production.output == reference.output
        return production.output

    def test_relation_cleanup(self):
        schema = Schema(relations={"R": columns(D, D), "Kill": D})
        x, y = Var("x", D), Var("y", D)
        program = typecheck_program(
            Program(
                schema,
                rules=[
                    Rule(
                        atom(schema, "R", x, y),
                        [atom(schema, "R", x, y), atom(schema, "Kill", x)],
                        delete=True,
                    )
                ],
                input_names=["R", "Kill"],
                output_names=["R"],
            )
        )
        rows = [OTuple(A01=f"k{i}", A02=f"v{i}") for i in range(12)]
        instance = Instance(schema, relations={"R": rows, "Kill": ["k0", "k3", "k6", "k9"]})
        assert len(self.agree(program, instance).relations["R"]) == 8

    def test_chain_cascade(self):
        P = classref("P")
        schema = Schema(
            relations={"KillTag": D},
            classes={"P": tuple_of(tag=D, prev=set_of(P))},
        )
        p, t = Var("p", P), Var("t", D)
        program = typecheck_program(
            Program(
                schema,
                rules=[
                    Rule(
                        atom(schema, "P", p),
                        [
                            atom(schema, "P", p),
                            Equality(p.hat(), TupleTerm(tag=t, prev=Var("S", set_of(P)))),
                            atom(schema, "KillTag", t),
                        ],
                        delete=True,
                    )
                ],
                input_names=["P", "KillTag"],
                output_names=["P"],
            )
        )
        oids = [Oid(f"n{i}") for i in range(8)]
        instance = Instance(schema, classes={"P": oids}, relations={"KillTag": ["t0"]})
        for i, oid in enumerate(oids):
            instance.assign(oid, OTuple(tag=f"t{i}", prev=OSet(oids[i - 1 : i])))
        assert self.agree(program, instance).classes["P"] == set()

    def test_an_undefined_deleted_term_deletes_nothing_and_counts(self):
        program = program_from_source(
            """
schema {
  relation R: [A1: D, A2: [A: D]];
  relation Link: [A1: D, A2: P];
  class P: [A: D];
}
var x: D
var p: P
input R, Link, P
output R
rules { delete R(x, p^) :- Link(x, p). }
"""
        )
        defined, undefined = Oid("defined"), Oid("undefined")
        instance = Instance(program.input_schema, classes={"P": [defined, undefined]})
        instance.assign(defined, OTuple(A="a"))
        for key, oid, value in (("k", defined, "a"), ("m", undefined, "b")):
            instance.add_relation_member("R", OTuple(A1=key, A2=OTuple(A=value)))
            instance.add_relation_member("Link", OTuple(A1=key, A2=oid))
        assert self.agree(program, instance).relations["R"] == {
            OTuple(A1="m", A2=OTuple(A="b"))
        }
        # Two steps (the second changes nothing), each over both links.
        for naive in (False, True):
            stats = Evaluator(program, naive=naive).run(instance.copy()).stats
            assert (stats.steps, stats.valuations_considered, stats.facts_deleted) == (2, 4, 1)

    def test_dereference_heads_agree(self):
        program = program_from_source(
            """
schema {
  relation Drop: [A1: S, A2: D];
  relation Reset: [A1: P, A2: D];
  class S: {D};
  class P: [A: D];
}
var x: D
var s: S
var p: P
input Drop, Reset, S, P
output S, P
rules {
  delete s^(x) :- Drop(s, x).
  delete p^ = [A: x] :- Reset(p, x).
}
"""
        )
        s1, s2, p1, p2 = Oid("s1"), Oid("s2"), Oid("p1"), Oid("p2")
        instance = Instance(program.input_schema, classes={"S": [s1, s2], "P": [p1, p2]})
        instance.assign(s1, OSet(["a", "b", "c"]))
        instance.assign(s2, OSet(["a"]))
        instance.assign(p1, OTuple(A="a"))
        instance.assign(p2, OTuple(A="b"))
        for oid, x in ((s1, "a"), (s1, "c"), (s2, "z")):
            instance.add_relation_member("Drop", OTuple(A1=oid, A2=x))
        for oid, x in ((p1, "a"), (p2, "z")):
            instance.add_relation_member("Reset", OTuple(A1=oid, A2=x))
        out = self.agree(program, instance)
        assert (out.value_of(s1), out.value_of(s2)) == (OSet(["b"]), OSet(["a"]))
        assert (out.value_of(p1), out.value_of(p2)) == (None, OTuple(A="b"))
