"""E7/E8 — Figure 1 and copy elimination.

Claims measured:

* the copies program builds exactly two O-isomorphic quadrangles,
* `choose` (IQL+) selects one and the output matches Figure 1, with the
  genericity *verification* (automorphism-orbit computation) dominating
  the cost — the "not complicated but possibly expensive to check" the
  paper warns about; `trusted` mode shows the gap,
* meta-level copy elimination over k copies scales with the isomorphism
  checks (E8).

``main()`` is E7 and returns the three quadrangle timings; the `choose`
rule is the one benchmark rule that runs on the production engine's
reference fallback. ``copy_elimination()`` is E8 and returns its sweep
over k. Both run standalone:  python benchmarks/bench_quadrangle.py
"""

import pytest

from repro.iql import Evaluator, evaluate
from repro.schema import are_o_isomorphic
from repro.transform import (
    eliminate_copies,
    make_instance_with_copies,
    quadrangle_choose_program,
    quadrangle_copies_program,
    quadrangle_expected_output,
    quadrangle_input,
)

from helpers import ms, print_series, time_call


def test_copies(benchmark):
    program = quadrangle_copies_program()
    out = benchmark.pedantic(
        lambda: evaluate(program, quadrangle_input("a", "b")), rounds=3, iterations=1
    )
    assert len(out.classes["P_mark"]) == 2


def test_choose_verified(benchmark):
    program = quadrangle_choose_program()
    out = benchmark.pedantic(
        lambda: Evaluator(program, choose_mode="verify")
        .run(quadrangle_input("a", "b"))
        .output,
        rounds=2,
        iterations=1,
    )
    assert are_o_isomorphic(out, quadrangle_expected_output("a", "b"))


def test_choose_trusted(benchmark):
    program = quadrangle_choose_program()
    out = benchmark.pedantic(
        lambda: Evaluator(program, choose_mode="trusted")
        .run(quadrangle_input("a", "b"))
        .output,
        rounds=3,
        iterations=1,
    )
    assert are_o_isomorphic(out, quadrangle_expected_output("a", "b"))


@pytest.mark.parametrize("k", [2, 4, 8])
def test_copy_elimination(benchmark, k):
    from repro.schema import Instance, Schema
    from repro.typesys import D, classref, tuple_of
    from repro.values import Oid, OTuple

    schema = Schema(classes={"Doc": tuple_of(title=D, peer=classref("Doc"))})
    a, b = Oid(), Oid()
    original = Instance(
        schema,
        classes={"Doc": [a, b]},
        nu={a: OTuple(title="x", peer=b), b: OTuple(title="y", peer=a)},
    )
    i_bar = make_instance_with_copies(original, k)
    chosen = benchmark.pedantic(
        lambda: eliminate_copies(i_bar, schema), rounds=2, iterations=1
    )
    assert are_o_isomorphic(chosen, original)


def main():
    program_c = quadrangle_copies_program()
    t_copies, out = time_call(evaluate, program_c, quadrangle_input("a", "b"))

    program = quadrangle_choose_program()
    t_verify, out_v = time_call(
        lambda: Evaluator(program, choose_mode="verify")
        .run(quadrangle_input("a", "b"))
        .output
    )
    t_trusted, out_t = time_call(
        lambda: Evaluator(program, choose_mode="trusted")
        .run(quadrangle_input("a", "b"))
        .output
    )
    expected = quadrangle_expected_output("a", "b")
    print_series(
        "E7: Figure 1 — the quadrangle query",
        ["stage", "time", "matches Figure 1"],
        [
            ("copies only (plain IQL)", ms(t_copies), "n/a (two copies)"),
            ("choose, genericity verified", ms(t_verify), are_o_isomorphic(out_v, expected)),
            ("choose, trusted", ms(t_trusted), are_o_isomorphic(out_t, expected)),
        ],
    )
    print(
        f"  genericity verification costs {t_verify / t_trusted:.1f}× the trusted run —\n"
        "  the paper's 'not complicated but possibly expensive to check'."
    )
    return {"copies": t_copies, "choose_verified": t_verify, "choose_trusted": t_trusted}


def copy_elimination():
    from repro.schema import Instance, Schema
    from repro.typesys import D, classref, tuple_of
    from repro.values import Oid, OTuple

    schema = Schema(classes={"Doc": tuple_of(title=D, peer=classref("Doc"))})
    a, b = Oid(), Oid()
    original = Instance(
        schema,
        classes={"Doc": [a, b]},
        nu={a: OTuple(title="x", peer=b), b: OTuple(title="y", peer=a)},
    )
    rows = []
    series = {}
    for k in [2, 4, 8, 16]:
        i_bar = make_instance_with_copies(original, k)
        elapsed, chosen = time_call(eliminate_copies, i_bar, schema)
        series[k] = elapsed
        rows.append((k, len(i_bar.classes["Doc"]), ms(elapsed),
                     are_o_isomorphic(chosen, original)))
    print_series(
        "E8: meta-level copy elimination over k copies (Definition 4.2.3)",
        ["copies", "oids", "time", "correct"],
        rows,
    )
    return series


if __name__ == "__main__":
    main()
    copy_elimination()
