"""E24 — re-costing on growth: a plan costed on an empty relation.

The case the planner's adaptivity exists for
(``examples/replan_growth.iql``)::

    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), E(y, z).
    M(x, p) :- T(x, y), S(y, z).
    T(x, x) :- M(x, p).

E is an n-node chain and S holds three facts. M invents an oid per
x, and T reads M back, so {T, M, P} is one recursive SCC with invention
in it: the stratum runs the γ1 loop, not semi-naive rounds. Its first
step costs M's body while T is still empty, so the planner scans T
first and probes S. T then grows to about n²/2 rows, and that order
scans all of T on every step of an n-step fixpoint. Scanning the
three-row S first and probing T is the order the data asks for.

A cached plan records the sizes of the extensions it reads
(``Plan.basis``) and is costed again once one of them has moved
``REPLAN_GROWTH``-fold (10×); the compiled kernel holding it is then
recompiled at its next fetch. The "static" column sets
``repro.iql.valuation.REPLAN_GROWTH`` to infinity, so every plan keeps
the order it was first costed with.

Claims measured: identical T and |M| under both settings, at least one
re-cost (``plan_replans``), and at n = 80 a speedup of at least 1.2×
from re-costing (the exit bar its adaptivity was held to).

Run standalone:  python benchmarks/bench_replan.py
"""

import math
import statistics
from pathlib import Path

import repro.iql.valuation as valuation
from repro.iql import Evaluator
from repro.parser.grammar import program_from_source
from repro.schema import Instance
from repro.values import OTuple

from helpers import ms, print_series, time_call

PROGRAM = (Path(__file__).resolve().parent.parent / "examples" / "replan_growth.iql").read_text()

#: Interleaved runs per configuration and size; the table reports medians.
ROUNDS = 5


def setup(n):
    """An n-node chain E and three S facts S(n_{7j mod n}, m_j)."""
    program = program_from_source(PROGRAM)
    instance = Instance(program.input_schema)
    for i in range(n - 1):
        instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
    for j in range(3):
        instance.add_relation_member("S", OTuple(A1=f"n{(7 * j) % n}", A2=f"m{j}"))
    return instance


def run(instance, growth):
    """One evaluation on a freshly parsed program (cold plan caches),
    with ``REPLAN_GROWTH`` set to ``growth`` for its duration."""
    program = program_from_source(PROGRAM)
    saved = valuation.REPLAN_GROWTH
    valuation.REPLAN_GROWTH = growth
    try:
        return time_call(lambda: Evaluator(program).run(instance.copy()))
    finally:
        valuation.REPLAN_GROWTH = saved


SMOKE_SIZES = [20, 40]


def main(sizes=None):
    rows = []
    series = {}
    for n in sizes or [20, 40, 80]:
        instance = setup(n)
        times = {math.inf: [], valuation.REPLAN_GROWTH: []}
        results = {}
        for round_index in range(ROUNDS):
            order = list(times)
            if round_index % 2:
                order.reverse()
            for growth in order:
                elapsed, results[growth] = run(instance, growth)
                times[growth].append(elapsed)
        static, recost = results[math.inf], results[valuation.REPLAN_GROWTH]
        t_static = statistics.median(times[math.inf])
        t_recost = statistics.median(times[valuation.REPLAN_GROWTH])
        agree = static.output.relations["T"] == recost.output.relations["T"] and len(
            static.output.relations["M"]
        ) == len(recost.output.relations["M"])
        series[n] = t_recost
        rows.append(
            (
                n,
                len(recost.output.relations["T"]),
                ms(t_static),
                ms(t_recost),
                f"{t_static / t_recost:.2f}×",
                recost.stats.plan_replans,
                "✓" if agree else "✗",
            )
        )
    print_series(
        f"E24: a plan costed on an empty T — static vs re-costed (median of {ROUNDS})",
        ["n", "|T|", "static", "re-costed", "speedup", "plan_replans", "agree"],
        rows,
    )
    print(
        "  shape: M's body is first costed with T empty (scan T, probe S);\n"
        "  once T has grown 10× its plan is stale, is re-costed (scan S,\n"
        "  probe T) and its kernel recompiled at the next γ1 step. Static\n"
        "  plans keep scanning T, which holds about n²/2 rows, every step."
    )
    return series


if __name__ == "__main__":
    main()
