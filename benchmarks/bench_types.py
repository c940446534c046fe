"""E14 — Propositions 2.2.1/6.1: type reduction, and the enumeration costs
that motivate range-restriction.

Claims measured: intersection reduction/elimination is fast and
interpretation-preserving on deep random types; restricted type
interpretations grow combinatorially with nesting (count_type shows the
search space the evaluator would face — the quantitative case for
Definition 5.2).

Run standalone:  python benchmarks/bench_types.py
"""

import random

import pytest

from repro.typesys import (
    D,
    EMPTY,
    classref,
    count_type,
    enumerate_type,
    equivalent_on_samples,
    intersection,
    intersection_free,
    set_of,
    tuple_of,
    union,
)
from repro.values import Oid

from helpers import ms, print_series, time_call


def random_type(depth, rng):
    if depth == 0:
        return rng.choice([D, classref("P1"), classref("P2"), EMPTY])
    kind = rng.randrange(4)
    if kind == 0:
        return set_of(random_type(depth - 1, rng))
    if kind == 1:
        return tuple_of(
            {f"A{i}": random_type(depth - 1, rng) for i in range(rng.randint(1, 3))}
        )
    if kind == 2:
        return union(random_type(depth - 1, rng), random_type(depth - 1, rng))
    return intersection(random_type(depth - 1, rng), random_type(depth - 1, rng))


@pytest.mark.parametrize("depth", [4, 6])
def test_reduction(benchmark, depth):
    rng = random.Random(depth)
    types = [random_type(depth, rng) for _ in range(50)]
    reduced = benchmark(lambda: [intersection_free(t) for t in types])
    assert all(t.is_intersection_free() for t in reduced)


def test_enumeration(benchmark):
    t = tuple_of(a=set_of(D), b=union(D, classref("P1")))
    pi = {"P1": {Oid(), Oid()}}
    out = benchmark(lambda: enumerate_type(t, ["x", "y", "z"], pi))
    assert len(out) == 8 * 5  # 2^3 subsets × (3 constants + 2 oids)


def main():
    rng = random.Random(7)
    pi = {"P1": {Oid(), Oid()}, "P2": {Oid()}}
    rows = []
    series = {}
    for depth in [3, 4, 5, 6]:
        types = [random_type(depth, rng) for _ in range(100)]
        elapsed, reduced = time_call(lambda types=types: [intersection_free(t) for t in types])
        series[depth] = elapsed
        preserved = all(
            equivalent_on_samples(t, r, pi) for t, r in zip(types[:20], reduced[:20])
        )
        rows.append((depth, 100, ms(elapsed), preserved))
    print_series(
        "E14a: intersection elimination on random types",
        ["depth", "types", "time", "interpretation preserved (sampled)"],
        rows,
    )

    rows = []
    for nesting in range(1, 5):
        t = D
        for _ in range(nesting):
            t = set_of(t)
        size = count_type(t, frozenset(["a", "b", "c"]), {})
        shown = f"≥10^12 (capped)" if size >= 10**12 else size
        rows.append((nesting, f"{{{'{' * (nesting - 1)}D{'}' * (nesting - 1)}}}", shown))
    print_series(
        "E14b: |⟦t⟧ restricted to 3 constants| — the space unrestricted "
        "variables search",
        ["set nesting", "type", "members"],
        rows,
    )
    print(
        "  one more {·} tower level super-exponentiates the space: this is\n"
        "  the quantitative argument for range-restriction (Definition 5.2)."
    )
    return series


if __name__ == "__main__":
    main()
