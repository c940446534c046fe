"""E6 — Theorem 4.1.3: determinacy and genericity probes as a harness.

Claims measured: the determinacy probe (re-run with independent oid
factories + O-isomorphism check) and the genericity probe (random
DO-isomorphisms) pass on the paper's example programs, and their cost is
dominated by the isomorphism search, which colour refinement keeps small.

Run standalone:  python benchmarks/bench_determinacy.py
"""

from repro.transform import (
    check_determinacy,
    check_genericity,
    graph_instance,
    graph_to_class_program,
    union_encode_program,
    union_instance,
)
from repro.workloads import cycle_graph, random_graph

from helpers import ms, print_series, time_call


def test_determinacy_graph(benchmark):
    program = graph_to_class_program()
    instance = graph_instance(cycle_graph(6))
    report = benchmark.pedantic(
        lambda: check_determinacy(program, instance, runs=2), rounds=2, iterations=1
    )
    assert report.all_isomorphic


def test_genericity_graph(benchmark):
    program = graph_to_class_program()
    instance = graph_instance(random_graph(5, seed=1))
    report = benchmark.pedantic(
        lambda: check_genericity(program, instance, probes=2), rounds=2, iterations=1
    )
    assert report.all_generic


def main():
    rows = []
    series = {}
    program = graph_to_class_program()
    for n in [4, 6, 8, 12]:
        instance = graph_instance(cycle_graph(n))
        t_det, det = time_call(check_determinacy, program, instance, 3)
        t_gen, gen = time_call(check_genericity, program, instance, 2)
        series[n] = t_det
        rows.append((n, ms(t_det), det.all_isomorphic, ms(t_gen), gen.all_generic))
    print_series(
        "E6: Theorem 4.1.3 probes on Example 1.2 (cycle graphs)",
        ["nodes", "determinacy (3 runs)", "ok", "genericity (2 probes)", "ok"],
        rows,
    )

    instance = union_instance({"a": ("a", "b"), "b": "a", "c": None})
    t_det, det = time_call(check_determinacy, union_encode_program(), instance, 3)
    print(f"\n  union encoding determinacy (3 runs): {ms(t_det)}, ok={det.all_isomorphic}")
    return series


if __name__ == "__main__":
    main()
