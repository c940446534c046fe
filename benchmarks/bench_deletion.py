"""E9 — Section 4.5: IQL* deletions with cascades.

Claims measured: deletion rules with oid cascades scale with the size of
the affected region; the evaluator's state-cycle detection costs one
ground-fact snapshot per step (the price of non-inflationary semantics).

Run standalone:  python benchmarks/bench_deletion.py
"""

import pytest

from repro.iql import (
    Equality,
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

from helpers import ms, print_series, time_call


def relation_cleanup_program():
    schema = Schema(relations={"R": columns(D, D), "Kill": D})
    x, y = Var("x", D), Var("y", D)
    return typecheck_program(
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


def cleanup_instance(schema, n, kill_every=3):
    rows = [OTuple(A01=f"k{i}", A02=f"v{i}") for i in range(n)]
    kills = [f"k{i}" for i in range(0, n, kill_every)]
    return Instance(schema, relations={"R": rows, "Kill": kills})


def chain_delete_program():
    """Delete the head of an n-object reference chain: the cascade must
    sweep the whole chain."""
    P = classref("P")
    schema = Schema(
        relations={"KillTag": D},
        classes={"P": tuple_of(tag=D, prev=set_of(P))},
    )
    p = Var("p", P)
    t = Var("t", D)
    return typecheck_program(
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


def chain_instance(schema, n):
    oids = [Oid(f"n{i}") for i in range(n)]
    instance = Instance(schema)
    for o in oids:
        instance.add_class_member("P", o)
    for i, o in enumerate(oids):
        prev = OSet([oids[i - 1]]) if i else OSet()
        instance.assign(o, OTuple(tag=f"t{i}", prev=prev))
    instance.add_relation_member("KillTag", "t0")
    return instance


@pytest.mark.parametrize("n", [32, 128])
def test_relation_cleanup(benchmark, n):
    program = relation_cleanup_program()
    instance = cleanup_instance(program.schema, n)
    out = benchmark.pedantic(
        lambda: evaluate(program, instance.copy()), rounds=2, iterations=1
    )
    assert len(out.relations["R"]) < n


@pytest.mark.parametrize("n", [8, 16])
def test_cascade_chain(benchmark, n):
    program = chain_delete_program()
    instance = chain_instance(program.input_schema, n)
    out = benchmark.pedantic(
        lambda: evaluate(program, instance.copy()), rounds=2, iterations=1
    )
    # killing t0 cascades through every object that (transitively) refers
    # to it — the whole chain.
    assert len(out.classes["P"]) == 0


def main():
    program = relation_cleanup_program()
    rows = []
    series = {}
    for n in [32, 64, 128, 256]:
        instance = cleanup_instance(program.schema, n)
        elapsed, out = time_call(evaluate, program, instance)
        series[n] = elapsed
        rows.append((n, n - len(out.relations["R"]), ms(elapsed)))
    print_series(
        "E9a: IQL* relation cleanup (delete every 3rd key)",
        ["rows", "deleted", "time"],
        rows,
    )

    program = chain_delete_program()
    rows = []
    for n in [4, 8, 16, 32]:
        instance = chain_instance(program.input_schema, n)
        elapsed, out = time_call(evaluate, program, instance)
        rows.append((n, n - len(out.classes["P"]), ms(elapsed)))
    print_series(
        "E9b: oid deletion cascade along a reference chain",
        ["chain length", "objects swept", "time"],
        rows,
    )
    print(
        "  'Deleting an oid forces deletion of other objects that have this\n"
        "  oid in their o-value' — the cascade is the dominant cost, as the\n"
        "  paper's reference-count/garbage-collection remark anticipates."
    )
    return series


if __name__ == "__main__":
    main()
