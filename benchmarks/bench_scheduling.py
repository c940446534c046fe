"""E19 — the certified schedule: the production engine vs the reference.

The workload is a single *mixed* stage — exactly the shape the paper's
uniform rule language invites: a recursive transitive closure, a filter
joining the closure against itself, and a weak-assignment (★) rule
initializing object values from an input class::

    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), E(y, z).
    F(x, y) :- T(x, y), T(y, x).
    p^ = [] :- Seed(p).

The assignment head makes the whole stage ineligible for the semi-naive
rewriting, so the reference engine runs the naive loop: every one of the
~n fixpoint steps re-solves *all four* rules against the full instance.
The dependency analysis (repro.analysis.depgraph) certifies a
three-stratum schedule — {T} (recursive), {F}, {^P} — and the production
engine solves the T and F strata semi-naively with compiled kernels and
the assignment stratum in two naive steps, none of which re-examines
another stratum's work.

Claims measured: identical outputs; the production engine wins by a
factor that grows with n (the schedule restores the semi-naive
asymptotics the assignment rule destroyed); the analysis overhead (one
graph + schedule per Evaluator) is a constant ~millisecond. The
monolithic-vs-scheduled and scheduled-vs-compiled A/B columns of earlier
versions are recorded in EXPERIMENTS.md.

Run standalone:  python benchmarks/bench_scheduling.py
"""

import pytest

from repro.iql import Evaluator
from repro.parser.grammar import program_from_source
from repro.schema import Instance
from repro.values import OTuple, Oid

from helpers import ms, print_series, time_call

PROGRAM = """
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


def setup(n, objects=8):
    """A path graph 0→1→…→n-1 with a back edge, plus ``objects`` P-oids."""
    program = program_from_source(PROGRAM)
    instance = Instance(program.input_schema)
    for i in range(n - 1):
        instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
    instance.add_relation_member("E", OTuple(A1=f"n{n - 1}", A2="n0"))
    for k in range(objects):
        oid = Oid(f"p{k}")
        instance.add_class_member("P", oid)
        instance.add_relation_member("Seed", OTuple(A1=oid))
    return program, instance


def run_reference(program, instance):
    return Evaluator(program, naive=True).run(instance.copy())


def run_production(program, instance):
    return Evaluator(program).run(instance.copy())


@pytest.mark.parametrize("n", [8, 16])
def test_production(benchmark, n):
    program, instance = setup(n)
    result = benchmark.pedantic(
        lambda: run_production(program, instance), rounds=2, iterations=1
    )
    assert result.stats.strata == 3
    assert result.stats.rules_compiled == 4


SMOKE_SIZES = [6, 10]


def main(sizes=None):
    rows = []
    series = {}
    for n in sizes or [8, 16, 24, 32]:
        program, instance = setup(n)
        t_ref, ref = time_call(run_reference, program, instance)
        t_prod, prod = time_call(run_production, program, instance)
        agree = ref.output == prod.output
        series[n] = t_prod
        rows.append(
            (
                n,
                len(ref.output.relations["T"]),
                ms(t_ref),
                ms(t_prod),
                f"{t_ref / t_prod:.1f}×",
                prod.stats.strata,
                prod.stats.rules_compiled,
                "✓" if agree else "✗",
            )
        )
    print_series(
        "E19: mixed closure + filter + assignment stage — reference vs production",
        ["n", "|T|", "reference", "production", "speedup", "strata", "compiled",
         "agree"],
        rows,
    )
    print(
        "  shape: the (★) assignment rule locks a monolithic stage out of\n"
        "  the semi-naive rewriting, so the reference pays ~n naive re-solves\n"
        "  of every rule; the certified schedule isolates the assignment in\n"
        "  its own stratum and restores semi-naive evaluation for the\n"
        "  closure and the filter — a speedup that grows with n, for the\n"
        "  price of one dependency analysis per program. The filter stratum\n"
        "  F(x,y) :- T(x,y), T(y,x) compiles to one hash lookup per T fact\n"
        "  against the captured T extension."
    )
    return series


if __name__ == "__main__":
    main()
