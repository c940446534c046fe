"""E20 — incremental view maintenance: apply_delta vs full re-evaluation.

Same workload as E19 (the mixed closure + filter + assignment stage over
a directed cycle), but evaluated *once* and then kept live by
:class:`repro.iql.ivm.MaterializedProgram`. The update stream is the
steady-state case IVM exists for: a chord edge n0→n⌊n/2⌋ of the cycle is
inserted and retracted, one fact per batch. On the full cycle the
transitive closure is already complete, so the insert changes no derived
fact — the runtime only has to *prove* that, by delta-joining the single
new edge against the existing closure (DRed stratum: one delta-seeded
semi-naive round; counting stratum: support increments for F) instead of
re-running the ~n-step fixpoint over all n² closure facts. The chord
delete is adversarial by design: on a complete closure virtually every
derivation is tainted by the chord, so DRed over-deletes ~everything,
re-runs the stratum from the surviving cycle, and the counting stratum
decrements all ~n³ dying F-valuations — work proportional to the whole
derivation space, i.e. a small constant times a cold evaluation. It is
reported honestly as the trichotomy's worst case. The *pendant* delete
is the sparse case: an edge n0→x to a node off the cycle is inserted
and deleted again. Its cone is the n facts T(·, x); DRed over-deletes
them, probes each with its head bound, finds no other derivation, and
re-derives nothing, so its cost follows the cone, not |T| = n².

Claims measured: the maintained instance stays equal to a fresh
evaluation after every batch; single-fact insert maintenance beats full
re-evaluation by a factor that grows with n (the acceptance bar is ≥20×
at n=32 — compare E20 against E19's full-evaluation series in the
BENCH_PR*.json trajectory); updates/sec is the serving-rate headline.

Run standalone:  python benchmarks/bench_ivm.py
"""

import pytest

from repro.iql import Evaluator, MaterializedProgram
from repro.values import OTuple

from bench_scheduling import setup
from helpers import ms, print_series, time_call


def chord(n):
    return OTuple(A1="n0", A2=f"n{n // 2}")


#: An edge from the cycle to a node off it: its closure cone is T(·, x).
PENDANT = OTuple(A1="n0", A2="x")


def materialize(n):
    program, instance = setup(n)
    return MaterializedProgram(program, instance), program, instance


def run_full(program, instance):
    return Evaluator(program).run(instance.copy())


def timed_updates(mp, fact, repeats=5):
    """Min insert / delete apply_delta times of ``fact`` over ``repeats``
    round trips."""
    mp.apply_delta(inserts=[("E", fact)])  # warm the kernels and supports
    mp.apply_delta(deletes=[("E", fact)])
    t_insert = t_delete = float("inf")
    for _ in range(repeats):
        t_ins, _ = time_call(mp.apply_delta, inserts=[("E", fact)])
        t_del, _ = time_call(mp.apply_delta, deletes=[("E", fact)])
        t_insert = min(t_insert, t_ins)
        t_delete = min(t_delete, t_del)
    return t_insert, t_delete


@pytest.mark.parametrize("n", [8, 16])
def test_apply_delta_insert(benchmark, n):
    mp, program, instance = materialize(n)
    fact = chord(n)

    def round_trip():
        mp.apply_delta(inserts=[("E", fact)])
        mp.apply_delta(deletes=[("E", fact)])
        return mp

    result = benchmark.pedantic(round_trip, rounds=2, iterations=1)
    assert result.stats.maintenance_fallbacks == 0
    assert result.supports.negative_symbols() == []


@pytest.mark.parametrize("n", [8])
def test_maintained_equals_fresh(n):
    mp, program, instance = materialize(n)
    mp.apply_delta(inserts=[("E", chord(n))])
    fresh_input = instance.copy()
    fresh_input.add_relation_member("E", chord(n))
    fresh = run_full(program, fresh_input)
    assert mp.instance.ground_facts() == fresh.full.ground_facts()


SMOKE_SIZES = [6, 10]


def main(sizes=None):
    rows = []
    series = {}
    for n in sizes or [8, 16, 24, 32, 40, 48]:
        mp, program, instance = materialize(n)
        t_insert, t_delete = timed_updates(mp, chord(n))
        _, t_pendant = timed_updates(mp, PENDANT)
        with_chord = instance.copy()
        with_chord.add_relation_member("E", chord(n))
        t_full = min(time_call(run_full, program, with_chord)[0] for _ in range(3))
        mp.apply_delta(inserts=[("E", chord(n))])
        agree = (
            mp.instance.ground_facts()
            == run_full(program, with_chord).full.ground_facts()
        )
        series[n] = t_insert
        rows.append(
            (
                n,
                len(mp.instance.relations["T"]),
                ms(t_full),
                ms(t_insert),
                ms(t_delete),
                ms(t_pendant),
                f"{t_full / t_insert:.1f}×",
                f"{t_full / t_delete:.1f}×",
                f"{1 / t_insert:,.0f}",
                mp.stats.maintenance_fallbacks,
                "✓" if agree else "✗",
            )
        )
    print_series(
        "E20: live fixpoint maintenance — single-fact updates vs full "
        "re-evaluation (E19 workload)",
        ["n", "|T|", "full eval", "insert", "chord delete", "pendant delete",
         "ins speedup", "del speedup", "inserts/sec", "fallbacks", "agree"],
        rows,
    )
    print(
        "  shape: on the complete closure the chord insert derives nothing\n"
        "  new, so maintenance cost is one delta-join of the single edge —\n"
        "  flat in n while full evaluation grows ~n³; the speedup column is\n"
        "  the ratio and must clear 20× at n=32. The chord delete pays\n"
        "  DRed's over-delete/re-derive plus counting decrements for every\n"
        "  chord-tainted derivation — on this total-taint workload that is\n"
        "  a few× a cold evaluation, the trichotomy's honest worst case\n"
        "  (del speedup is its ratio). The pendant delete's cone is the n\n"
        "  facts T(·, x): it probes those, so it grows with n, not n²."
    )
    return series


if __name__ == "__main__":
    main()
