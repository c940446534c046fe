"""E22 — certified parallel execution: what the ParallelCertificate buys.

Two workloads, one per concurrency source the IQL8xx analysis certifies:

* **partitioned delta rounds** (E11-style): transitive closure of a
  4·n-node cycle — one recursive stratum, certified hash-partitionable,
  so each semi-naive round's delta is split round-robin across workers
  driving private kernel replicas,
* **concurrent strata** (E19-style): four independent transitive
  closures over disjoint relations — four rule-bearing SCCs with no
  cross-reads, certified into one width-4 batch and submitted to the
  pool together.

Both compare the serial production engine (``Evaluator(program)``)
against ``Evaluator(program, parallel=N)`` on 2 and 4 shared-nothing
worker processes, asserting *exactly* equal outputs on every point
(invention-free programs; worker facts must re-canonicalize into the
coordinator's intern store bit-for-bit).

**Honest-host note.** Process workers pay pickling and IPC, and the
certificate's IQL804 width is an upper bound the host then clips. On a
≥4-CPU host, full-size sweeps check the speedup claim (≥2× over serial
at n = 32 on the better workload); on smaller hosts they instead verify
that overhead stays bounded (≤ 3× serial at the largest size) and report
the host clip, so the recorded numbers say what they mean on every
machine. The series is recorded under run_all id ``E22p``.

Run standalone:  python benchmarks/bench_parallel.py
"""

import gc
import os
import warnings

import pytest

from repro.analysis import build_parallel_certificate, validate_parallel_certificate
from repro.iql import Evaluator
from repro.parser.grammar import program_from_source
from repro.schema import Instance
from repro.values import OTuple

from helpers import ms, print_series, time_call

NODES_PER_N = 4  # cycle nodes per unit of n: n=32 → 128 nodes, |TC| = 16384

TC_PROGRAM = """
schema {
  relation E: [A1: D, A2: D];
  relation TC: [A1: D, A2: D];
}
var x, y, z: D
input E
output TC
rules {
  TC(x, y) :- E(x, y).
  TC(x, z) :- TC(x, y), E(y, z).
}
"""

STRATA_PROGRAM = """
schema {
  relation E1: [A1: D, A2: D];
  relation E2: [A1: D, A2: D];
  relation E3: [A1: D, A2: D];
  relation E4: [A1: D, A2: D];
  relation T1: [A1: D, A2: D];
  relation T2: [A1: D, A2: D];
  relation T3: [A1: D, A2: D];
  relation T4: [A1: D, A2: D];
}
var x, y, z: D
input E1, E2, E3, E4
output T1, T2, T3, T4
rules {
  T1(x, y) :- E1(x, y).
  T1(x, z) :- T1(x, y), E1(y, z).
  T2(x, y) :- E2(x, y).
  T2(x, z) :- T2(x, y), E2(y, z).
  T3(x, y) :- E3(x, y).
  T3(x, z) :- T3(x, y), E3(y, z).
  T4(x, y) :- E4(x, y).
  T4(x, z) :- T4(x, y), E4(y, z).
}
"""


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def setup_tc(n):
    """The partitioned-rounds workload: TC of a 4·n-node cycle."""
    program = program_from_source(TC_PROGRAM)
    nodes = NODES_PER_N * n
    instance = Instance(program.input_schema)
    for i in range(nodes):
        instance.add_relation_member(
            "E", OTuple(A1=f"n{i}", A2=f"n{(i + 1) % nodes}")
        )
    return program, instance, nodes * nodes


def setup_strata(n):
    """The concurrent-strata workload: four independent cycle closures."""
    program = program_from_source(STRATA_PROGRAM)
    nodes = NODES_PER_N * n // 2
    instance = Instance(program.input_schema)
    for k in range(1, 5):
        for i in range(nodes):
            instance.add_relation_member(
                f"E{k}", OTuple(A1=f"n{i}", A2=f"n{(i + 1) % nodes}")
            )
    return program, instance, 4 * nodes * nodes


def run_serial(program, instance):
    return Evaluator(program).run(instance.copy())


def run_parallel(program, instance, workers):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a certified program must not warn
        evaluator = Evaluator(program, parallel=workers)
        try:
            return evaluator.run(instance.copy())
        finally:
            evaluator.close()


def time_process_run(program, instance, workers):
    """Time a warm-pool process run.

    The pool is persistent per ``Evaluator`` — fork, program shipment and
    per-worker compilation happen once at pool creation, not per query —
    so the honest steady-state measurement warms the pool with one run
    and times the second.
    """
    # Forked workers inherit the sweep's whole heap copy-on-write; collect
    # first so the pool starts from a trim parent image (the workers
    # gc.freeze() the rest on entry).
    gc.collect()
    evaluator = Evaluator(program, parallel=workers)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluator.run(instance.copy())  # warm: fork, ship, compile
            first = time_call(evaluator.run, instance.copy())
            second = time_call(evaluator.run, instance.copy())
            # best-of-2: a 1-CPU shared host stalls whole runs at random
            # (scheduler, page cache); the minimum is the honest estimate.
            return first if first[0] <= second[0] else second
    finally:
        evaluator.close()


def output_facts(result):
    return sum(len(v) for v in result.output.relations.values())


@pytest.mark.parametrize("n", [4, 8])
def test_partitioned_rounds(benchmark, n):
    program, instance, expected = setup_tc(n)
    result = benchmark.pedantic(
        lambda: run_parallel(program, instance, 2), rounds=2, iterations=1
    )
    assert output_facts(result) == expected
    assert result.stats.parallel_workers == 2


@pytest.mark.parametrize("n", [4, 8])
def test_concurrent_strata(benchmark, n):
    program, instance, expected = setup_strata(n)
    result = benchmark.pedantic(
        lambda: run_parallel(program, instance, 2), rounds=2, iterations=1
    )
    assert output_facts(result) == expected
    assert result.stats.parallel_strata >= 4


SMOKE_SIZES = [2, 4]


def main(sizes=None):
    sizes = sizes or [8, 16, 24, 32]
    cpus = usable_cpus()
    rows = []
    series = {}
    clean = True
    for n in sizes:
        for tag, setup in (("tc", setup_tc), ("4×tc", setup_strata)):
            program, instance, expected = setup(n)
            certificate = build_parallel_certificate(program)
            clean = clean and certificate.clean
            assert not validate_parallel_certificate(program, certificate)
            t_serial, serial = time_call(run_serial, program, instance)
            t_proc2, proc2 = time_process_run(program, instance, 2)
            t_proc4, proc4 = time_process_run(program, instance, 4)
            assert (
                serial.output == proc2.output == proc4.output
            ), "worker facts must re-canonicalize to the serial output exactly"
            assert output_facts(serial) == expected
            stats = proc4.stats
            engaged = (
                f"{stats.parallel_partitioned} part"
                if stats.parallel_partitioned
                else f"{stats.parallel_strata} strata"
            )
            if tag == "tc":
                series[n] = t_proc4
            rows.append(
                (
                    n,
                    tag,
                    expected,
                    f"w{certificate.width}",
                    engaged,
                    ms(t_serial),
                    ms(t_proc2),
                    ms(t_proc4),
                    f"{t_serial / t_proc4:.2f}×",
                )
            )
    print_series(
        "E22: certified parallel execution — serial vs worker processes",
        ["n", "load", "|out|", "cert", "engaged", "serial", "proc=2",
         "proc=4", "prc×"],
        rows,
    )
    assert clean, "both workloads must carry a clean ParallelCertificate"
    largest = rows[-2:]  # both workloads at the largest n
    # The claims are host-gated AND size-gated: shipping facts over pipes
    # only amortizes once round deltas are large, so they are asserted at
    # full size (n ≥ 32) only, never on smoke sizes.
    if sizes[-1] >= 32:
        if cpus >= 4:
            best = max(float(row[-1].rstrip("×")) for row in largest)
            assert best >= 2.0, (
                f"{cpus} usable CPUs but best process speedup {best:.2f}× "
                f"at n={sizes[-1]} (claimed ≥2×)"
            )
            print(
                f"  host: {cpus} usable CPUs — process speedup ≥2× at "
                f"n={sizes[-1]} verified"
            )
        else:
            for row in largest:
                overhead = 1.0 / float(row[-1].rstrip("×"))
                assert overhead < 3.0, (
                    f"process overhead unbounded: {overhead:.2f}× slower "
                    f"at n={row[0]}"
                )
            print(
                f"  host: {cpus} usable CPU(s) — the speedup claim needs ≥4;\n"
                f"  verified bounded overhead (<3×) and exact output\n"
                f"  equality instead. The IQL804 plan is the same either way."
            )
    print(
        "  shape: the TC stratum partitions its delta rounds (round-robin\n"
        "  fact split, per-worker kernel replicas, merge at the round\n"
        "  barrier); the 4×TC program runs its four independent strata as\n"
        "  one width-4 batch. Each worker process interns into its own\n"
        "  store and the coordinator re-canonicalizes returned wire\n"
        "  batches. Outputs are asserted equal to the serial production\n"
        "  engine on every size."
    )
    return series


if __name__ == "__main__":
    main()
