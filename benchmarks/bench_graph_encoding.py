"""E2 — Example 1.2: graph → class re-representation.

Claims measured:
* invented oids = exactly 2·|nodes| (one P + one P_aux object each),
* runtime grows polynomially in the graph size (the program is IQLrr),
* the inverse program recovers the edge relation exactly.

Run standalone:  python benchmarks/bench_graph_encoding.py
"""

import pytest

from repro.iql import evaluate, evaluate_full
from repro.transform import (
    class_to_graph_program,
    graph_instance,
    graph_to_class_program,
)
from repro.workloads import cycle_graph, random_graph

from helpers import fit_loglog_slope, ms, print_series, time_call


@pytest.mark.parametrize("n", [8, 16, 32])
def test_graph_to_class(benchmark, n):
    program = graph_to_class_program()
    instance = graph_instance(cycle_graph(n))
    result = benchmark.pedantic(
        lambda: evaluate_full(program, instance.copy()), rounds=3, iterations=1
    )
    assert result.stats.oids_invented == 2 * n
    assert len(result.output.classes["P"]) == n


def test_round_trip(benchmark):
    edges = random_graph(12, average_degree=2.0, seed=3)
    forward = graph_to_class_program()
    inverse = class_to_graph_program()

    def round_trip():
        out = evaluate(forward, graph_instance(edges))
        from repro.schema import Instance

        q_input = Instance(inverse.input_schema)
        for oid in out.classes["P"]:
            q_input.add_class_member("Q", oid)
        q_input.nu.update(out.nu)
        back = evaluate(inverse, q_input)
        return {(t["A01"], t["A02"]) for t in back.relations["R_out"]}

    got = benchmark.pedantic(round_trip, rounds=3, iterations=1)
    assert got == edges


SMOKE_SIZES = [8, 16]


def main(sizes=None):
    program = graph_to_class_program()
    rows = []
    sizes = sizes or [8, 16, 32, 64]
    times = []
    for n in sizes:
        instance = graph_instance(cycle_graph(n))
        elapsed, result = time_call(evaluate_full, program, instance)
        times.append(elapsed)
        rows.append(
            (n, len(result.output.classes["P"]), result.stats.oids_invented, ms(elapsed))
        )
    print_series(
        "E2: Example 1.2 — graph → class (cycle graphs)",
        ["nodes", "|P|", "oids invented", "time"],
        rows,
    )
    slope = fit_loglog_slope(sizes, times)
    print(f"  log-log slope ≈ {slope:.2f} (polynomial, as Theorem 5.4 predicts for IQLrr)")
    return dict(zip(sizes, times))


if __name__ == "__main__":
    main()
