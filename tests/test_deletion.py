"""E9 — Section 4.5: IQL* deletions and arbitrary input/output schemas."""

import pytest

from repro.errors import NonTerminationError
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
