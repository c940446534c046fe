"""Tests for the live IVM runtime (repro.iql.ivm / repro.iql.supports).

Layers, mirroring the other engine test files:

* unit tests over the E19 acceptance shape — the counting path (exact
  support adjustments, zero fallbacks), the DRed path (over-delete then
  re-derive), the slice-recompute path (class-extent updates), net-delta
  normalization, error reporting, and the ``repro maintain`` CLI,
* the :class:`~repro.iql.supports.SupportTable` storage layer and the
  memoized :func:`~repro.analysis.maintenance.validate_certificate`
  front door,
* atomic batches: a fault injected at every call of the mutating steps
  of a mixed batch leaves the pre-batch base and fixpoint,
* DRed's seeded re-derivation: two E19 cases that a wrong seed fails,
  and a differential over seven program shapes (mixed batches on small
  random graphs with 2-cycles) in which about four in ten DRed strata
  re-derive by probes and the rest re-run,
* a differential property test over the same 220-seed corpus as
  ``test_differential``: after every update batch the maintained
  instance must equal a fresh full evaluation of the maintained base
  (exactly when invention-free, up to O-isomorphism otherwise), with
  the PR-6 ``replay_insert`` oracle cross-checked on certified inserts
  and the index/support invariants re-verified at the end.
"""

import json
import random
import warnings

import pytest

from repro.analysis import build_certificates, replay_insert, validate_certificate
from repro.errors import EvaluationError, NonTerminationError
from repro.iql import Evaluator, EvaluatorLimits, MaterializedProgram
from repro.iql.supports import SupportTable
from repro.parser import program_from_source
from repro.schema import Instance, are_o_isomorphic
from repro.values import Oid, OTuple
from repro.__main__ import main

from tests.test_differential import (
    make_schema,
    random_instance,
    random_scheduled_program,
)
from tests.test_impact import E19_PROGRAM, random_new_fact


def materialize(program, instance, **kwargs):
    """Build a MaterializedProgram with preflight warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MaterializedProgram(program, instance, **kwargs)


def edge(a, b):
    return OTuple(A1=a, A2=b)


def e19_setup(n=5):
    """The E19 program over an acyclic n-edge chain."""
    program = program_from_source(E19_PROGRAM)
    instance = Instance(program.input_schema)
    for i in range(n):
        instance.add_relation_member("E", edge(f"n{i}", f"n{i + 1}"))
    return program, materialize(program, instance)


def assert_matches_fresh(mp):
    """The maintained instance equals a fresh run over the maintained base."""
    fresh = Evaluator(mp.program).run(mp.base.copy()).full
    assert mp.instance.ground_facts() == fresh.ground_facts()


class TestE19Paths:
    def test_initial_fixpoint_and_strategies(self):
        program, mp = e19_setup()
        # T is recursive (DRed); F is a non-recursive join over T (counting).
        cert = mp.certificates[("E", "insert")]
        strategies = dict(cert.classification)
        assert strategies["T"] == "dred"
        assert strategies["F"] == "counting"
        assert mp.supports.supported("F") == len(mp.extent("F"))
        assert mp._support_exact["F"]
        assert_matches_fresh(mp)

    def test_insert_only_no_fallback(self):
        program, mp = e19_setup()
        mp.apply_delta(inserts=[("E", edge("n5", "n0"))])  # close the cycle
        assert mp.stats.deltas_applied == 1
        assert mp.stats.maintenance_fallbacks == 0
        assert mp.stats.supports_adjusted > 0  # F counts grew exactly
        assert_matches_fresh(mp)
        assert mp.instance.indexes.equals_rebuild()

    def test_delete_overdeletes_and_rederives(self):
        program, mp = e19_setup()
        mp.apply_delta(inserts=[("E", edge("n5", "n0"))])
        before_over = mp.stats.overdeleted
        # Deleting one cycle edge kills all F facts but only part of T:
        # DRed must over-delete T conservatively and re-derive survivors.
        mp.apply_delta(deletes=[("E", edge("n5", "n0"))])
        assert mp.stats.maintenance_fallbacks == 0
        assert mp.stats.overdeleted > before_over
        assert mp.stats.rederived > 0
        assert mp.extent("F") == set()
        assert_matches_fresh(mp)
        assert mp.supports.negative_symbols() == []
        assert mp.instance.indexes.equals_rebuild()

    def test_mixed_batch(self):
        program, mp = e19_setup()
        mp.apply_delta(
            inserts=[("E", edge("n9", "n0")), ("E", edge("n5", "n9"))],
            deletes=[("E", edge("n2", "n3"))],
        )
        assert mp.stats.deltas_applied == 3
        assert_matches_fresh(mp)

    def test_class_insert_takes_slice_recompute(self):
        program, mp = e19_setup()
        o = Oid("p0")
        mp.apply_delta(inserts=[("P", o), ("Seed", OTuple(A1=o))])
        assert mp.stats.maintenance_fallbacks == 1
        assert o in mp.instance.classes["P"]
        assert mp.instance.nu[o] == OTuple()
        assert_matches_fresh(mp)

    def test_noop_batch_is_normalized_away(self):
        program, mp = e19_setup()
        snapshot = mp.instance.ground_facts()
        # Deletes-then-inserts: deleting and re-inserting a *present*
        # fact in one batch nets to nothing.
        fact = edge("n1", "n2")
        mp.apply_delta(inserts=[("E", fact)], deletes=[("E", fact)])
        # Re-inserting a present fact and deleting an absent one: same.
        mp.apply_delta(
            inserts=[("E", edge("n0", "n1"))], deletes=[("E", edge("q", "q"))]
        )
        assert mp.stats.deltas_applied == 0
        assert mp.stats.maintenance_fallbacks == 0
        assert mp.instance.ground_facts() == snapshot

    def test_delete_then_reinsert_round_trips(self):
        program, mp = e19_setup()
        snapshot = mp.instance.ground_facts()
        mp.apply_delta(deletes=[("E", edge("n2", "n3"))])
        assert_matches_fresh(mp)
        mp.apply_delta(inserts=[("E", edge("n2", "n3"))])
        assert mp.instance.ground_facts() == snapshot

    def test_output_projection_and_extent_queries(self):
        program, mp = e19_setup(n=2)
        out = mp.output()
        assert set(out.relations) == {"T", "F"}
        assert mp.extent("T") == set(mp.instance.relations["T"])
        assert mp.extent("P") == set()
        with pytest.raises(EvaluationError):
            mp.extent("nope")

    def test_update_validation_errors(self):
        program, mp = e19_setup(n=1)
        with pytest.raises(EvaluationError):
            mp.apply_delta(inserts=[("T", edge("a", "b"))])  # derived, not base
        with pytest.raises(EvaluationError):
            mp.apply_delta(inserts=[("P", OTuple())])  # class needs an oid

    def test_foreign_evaluator_rejected(self):
        program = program_from_source(E19_PROGRAM)
        other = program_from_source(E19_PROGRAM)
        with pytest.raises(EvaluationError):
            MaterializedProgram(
                program, Instance(program.input_schema), evaluator=Evaluator(other)
            )

    def test_uncompiled_uncheduled_evaluator_still_correct(self):
        # An unscheduled evaluator breaks the counting invariant; the
        # runtime must detect the inexact supports and demote, not corrupt.
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        for i in range(4):
            instance.add_relation_member("E", edge(f"n{i}", f"n{i + 1}"))
        mp = materialize(
            program, instance, evaluator=Evaluator(program, naive=True)
        )
        mp.apply_delta(inserts=[("E", edge("n4", "n0"))])
        mp.apply_delta(deletes=[("E", edge("n1", "n2"))])
        assert_matches_fresh(mp)
        assert mp.supports.negative_symbols() == []


class TestStepBudget:
    def test_max_steps_binds_per_batch(self):
        # Each one-edge batch takes at least one fixpoint round; summed
        # over the materialization's lifetime they pass max_steps, which
        # must not matter.
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        for i in range(6):
            instance.add_relation_member("E", edge(f"n{i}", f"n{i + 1}"))
        evaluator = Evaluator(program, limits=EvaluatorLimits(max_steps=100))
        mp = materialize(program, instance, evaluator=evaluator)
        fact = edge("n2", "n3")
        for _ in range(200):
            mp.apply_delta(deletes=[("E", fact)])
            mp.apply_delta(inserts=[("E", fact)])
        assert mp.stats.steps > mp._evaluator.limits.max_steps
        assert_matches_fresh(mp)

    def test_one_batch_over_the_budget_still_raises(self):
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        for i in range(3):
            instance.add_relation_member("E", edge(f"n{i}", f"n{i + 1}"))
        evaluator = Evaluator(program, limits=EvaluatorLimits(max_steps=20))
        mp = materialize(program, instance, evaluator=evaluator)
        before = mp.base.copy()
        # Appending a 40-edge path needs ~40 semi-naive rounds for T.
        chain = [("E", edge(f"n{i}", f"n{i + 1}")) for i in range(3, 43)]
        with pytest.raises(NonTerminationError):
            mp.apply_delta(inserts=chain)
        # The failed batch left nothing behind, so the next one is exact.
        assert mp.base == before
        assert_matches_fresh(mp)
        mp.apply_delta(deletes=[("E", edge("n1", "n2"))])
        assert_matches_fresh(mp)
        assert mp.extent("T") == {edge("n0", "n1"), edge("n2", "n3")}


# -- batches are atomic ---------------------------------------------------------------


class Injected(Exception):
    """The fault the injection tests raise."""


def cycle_behind_tail(tail=12):
    """E19 over a 2-cycle a⇄b with a second path a→c→b, reached from the
    end of a ``tail``-edge chain t0→…→a."""
    program = program_from_source(E19_PROGRAM)
    instance = Instance(program.input_schema)
    nodes = [f"t{i}" for i in range(tail)] + ["a"]
    for left, right in zip(nodes, nodes[1:]):
        instance.add_relation_member("E", edge(left, right))
    for left, right in [("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")]:
        instance.add_relation_member("E", edge(left, right))
    return program, materialize(program, instance)


MIXED_INSERTS = [("E", edge("t3", "m")), ("E", edge("m", "b"))]
#: With ``cycle_behind_tail``: T re-derives by probes and a seeded
#: fixpoint for the first batch, and re-runs whole for the second.
MIXED_DELETES = {
    "seeded": [("E", edge("a", "c")), ("E", edge("t11", "a"))],
    "rerun": [("E", edge("a", "c")), ("E", edge("t0", "t1"))],
}

FAULT_POINTS = [
    (Evaluator, "solve_stratum"),
    (SupportTable, "add"),
    (SupportTable, "sub"),
    (Instance, "remove_relation_member"),
]


def fail_on_call(monkeypatch, owner, name, k):
    """Patch ``owner.name`` so that its ``k``-th call raises
    :class:`Injected` (never when ``k`` is 0); return the call counter."""
    original = getattr(owner, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == k:
            raise Injected(f"{name} call {k}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestAtomicBatches:
    @pytest.mark.parametrize("path", sorted(MIXED_DELETES))
    @pytest.mark.parametrize(
        "owner, name", FAULT_POINTS, ids=[f"{o.__name__}.{n}" for o, n in FAULT_POINTS]
    )
    def test_a_fault_anywhere_in_a_mixed_batch_leaves_the_pre_batch_state(
        self, monkeypatch, owner, name, path
    ):
        deletes = MIXED_DELETES[path]
        program, mp = cycle_behind_tail()
        with monkeypatch.context() as patch:
            calls = fail_on_call(patch, owner, name, 0)
            mp.apply_delta(inserts=MIXED_INSERTS, deletes=deletes)
            total = calls[0]
        assert total > 0
        assert mp.stats.rederive_reruns == (path == "rerun")
        for k in range(1, total + 1):
            program, mp = cycle_behind_tail()
            before = mp.base.copy()
            with monkeypatch.context() as patch:
                fail_on_call(patch, owner, name, k)
                with pytest.raises(Injected):
                    mp.apply_delta(inserts=MIXED_INSERTS, deletes=deletes)
            assert mp.base == before, f"call {k}: base not restored"
            assert_matches_fresh(mp)
            assert mp.supports.negative_symbols() == [] and mp._support_exact["F"]
            mp.apply_delta(inserts=MIXED_INSERTS, deletes=deletes)
            assert edge("t3", "m") in mp.base.relations["E"]
            assert edge("a", "c") not in mp.base.relations["E"]
            assert_matches_fresh(mp)
            assert mp.instance.indexes.equals_rebuild()

    def test_a_failed_class_delete_restores_the_oid_and_its_value(self, monkeypatch):
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        instance.add_relation_member("E", edge("a", "b"))
        o = Oid("p0")
        instance.add_class_member("P", o)
        instance.assign(o, OTuple())
        mp = materialize(program, instance)
        before = mp.base.copy()
        with monkeypatch.context() as patch:
            fail_on_call(patch, Evaluator, "run", 1)  # the batch's recompute
            with pytest.raises(Injected):
                mp.apply_delta(deletes=[("P", o)])
        assert mp.base == before and mp.base.nu[o] == OTuple()
        assert_matches_fresh(mp)

    def test_a_failed_rollback_serves_no_stale_answer(self):
        # Each one-edge batch fits max_steps, but a full evaluation of the
        # grown 20-edge base does not: when a batch fails, so does the
        # recompute that rolls it back.
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        instance.add_relation_member("E", edge("n0", "n1"))
        evaluator = Evaluator(program, limits=EvaluatorLimits(max_steps=12))
        mp = materialize(program, instance, evaluator=evaluator)
        for i in range(1, 20):
            mp.apply_delta(inserts=[("E", edge(f"n{i}", f"n{i + 1}"))])
        assert len(mp.extent("T")) == 210
        chain = [("E", edge(f"n{i}", f"n{i + 1}")) for i in range(20, 36)]
        with pytest.raises(NonTerminationError):
            mp.apply_delta(inserts=chain)
        uses = [
            lambda: mp.extent("T"),
            mp.output,
            lambda: mp.apply_delta(deletes=[("E", edge("n0", "n1"))]),
        ]
        for use in uses:
            with pytest.raises(NonTerminationError):
                use()
        assert len(mp.base.relations["E"]) == 20

    def test_a_rollback_that_raised_is_recomputed_by_the_next_batch(self, monkeypatch):
        program, mp = e19_setup()
        with monkeypatch.context() as patch:
            fail_on_call(patch, Evaluator, "solve_stratum", 1)  # the batch
            fail_on_call(patch, Evaluator, "run", 1)  # its rollback recompute
            with pytest.raises(Injected):
                mp.apply_delta(inserts=[("E", edge("n5", "n6"))])
        fallbacks = mp.stats.maintenance_fallbacks
        # The next batch first recomputes the restored base, then is
        # maintained; so is every batch after it.
        mp.apply_delta(inserts=[("E", edge("n5", "n6"))])
        assert mp.stats.maintenance_fallbacks == fallbacks + 1
        assert_matches_fresh(mp)
        mp.apply_delta(deletes=[("E", edge("n1", "n2"))])
        assert mp.stats.maintenance_fallbacks == fallbacks + 1
        assert_matches_fresh(mp)
        assert edge("n5", "n6") in mp.extent("E")

    def test_cli_prints_the_pre_batch_extent_after_a_failed_batch(
        self, tmp_path, capsys
    ):
        from repro import io

        prog = tmp_path / "e19.iql"
        prog.write_text(E19_PROGRAM)
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        for i in range(3):
            instance.add_relation_member("E", edge(f"n{i}", f"n{i + 1}"))
        data = tmp_path / "in.json"
        io.dump(instance, str(data))
        chain = "; ".join(
            f'+E {{"A1": "n{i}", "A2": "n{i + 1}"}}' for i in range(3, 43)
        )
        script = tmp_path / "session.txt"
        script.write_text(f"?T\n{chain}\n?T\nquit\n")
        rc = main(
            [
                "maintain", str(prog), "--input", str(data),
                "--max-steps", "20", "--script", str(script),
            ]
        )
        assert rc == 0
        before, failed, after = capsys.readouterr().out.splitlines()
        assert failed.startswith("error: no fixpoint within 20 steps")
        assert after == before
        assert before.count('"tuple"') == 6

    def test_cli_reports_errors_while_a_failed_rollback_is_stale(self, tmp_path, capsys):
        from repro import io

        prog = tmp_path / "e19.iql"
        prog.write_text(E19_PROGRAM)
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        instance.add_relation_member("E", edge("n0", "n1"))
        data = tmp_path / "in.json"
        io.dump(instance, str(data))
        grow = [f'+E {{"A1": "n{i}", "A2": "n{i + 1}"}}' for i in range(1, 20)]
        chain = "; ".join(
            f'+E {{"A1": "n{i}", "A2": "n{i + 1}"}}' for i in range(20, 36)
        )
        script = tmp_path / "session.txt"
        script.write_text("\n".join(grow + [chain, "?T", "output", "quit"]) + "\n")
        rc = main(
            [
                "maintain", str(prog), "--input", str(data),
                "--max-steps", "12", "--script", str(script),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[:3] for line in lines] == ["ok:"] * 19 + ["err"] * 3
        assert all("no fixpoint within 12 steps" in line for line in lines[19:])


# -- the seeded re-derivation ----------------------------------------------------------


class TestSeededRederive:
    def test_a_mixed_batch_seeds_with_its_inserts(self):
        # The tail delete over-deletes T(·, n12) only, so T re-derives by
        # probes and a seeded fixpoint; the seed must carry the batch's
        # insert, or T(·, m) never appears.
        program, mp = e19_setup(12)
        mp.apply_delta(
            inserts=[("E", edge("n3", "m"))], deletes=[("E", edge("n11", "n12"))]
        )
        assert mp.stats.overdeleted == 12
        assert mp.stats.rederive_reruns == 0
        assert {edge(f"n{i}", "m") for i in range(4)} <= mp.extent("T")
        assert_matches_fresh(mp)

    def test_rederived_facts_flow_to_the_counting_stratum(self):
        # Deleting a→c over-deletes T(a, b) and, with it, F(a, b)'s only
        # valuation. T(a, b) comes back by its probe (E(a, b)); F must
        # re-count from the facts T re-derived.
        program, mp = cycle_behind_tail()
        assert edge("a", "b") in mp.extent("F")
        mp.apply_delta(deletes=[("E", edge("a", "c"))])
        assert mp.stats.rederive_reruns == 0
        assert mp.stats.rederived > 0
        assert {edge("a", "b"), edge("b", "a"), edge("a", "a")} <= mp.extent("F")
        assert_matches_fresh(mp)
        assert mp.supports.negative_symbols() == []

    def test_an_overdelete_as_large_as_the_survivors_reruns(self):
        # Deleting the first edge of a chain over-deletes every T fact
        # that starts at n0: with nothing left to probe against, the
        # stratum re-runs whole.
        program, mp = e19_setup(2)
        mp.apply_delta(deletes=[("E", edge("n0", "n1"))])
        assert mp.stats.overdeleted == 2
        assert mp.stats.rederive_reruns == 1
        assert_matches_fresh(mp)


#: Program shapes for the seeded re-derivation differential. The last two
#: negate a changing symbol, so the DRed strata reading it must re-run. In
#: ``negated-derived`` that stratum keeps many facts no delete touches
#: (S from B), so the negation rule, not the size rule, sends it there.
_EDGE_SCHEMA = "relation E: [A1: D, A2: D];"
SEEDED_SHAPES = {
    "left-linear": E19_PROGRAM,
    "non-linear": f"""
schema {{ {_EDGE_SCHEMA} relation T: [A1: D, A2: D]; relation F: [A1: D, A2: D]; }}
var x, y, z: D
input E
output T, F
rules {{
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), T(y, z).
  F(x, y) :- T(x, y), T(y, x).
}}""",
    "mutual": f"""
schema {{ {_EDGE_SCHEMA} relation O: [A1: D, A2: D]; relation V: [A1: D, A2: D]; }}
var x, y, z: D
input E
output O, V
rules {{
  O(x, y) :- E(x, y).
  V(x, z) :- O(x, y), E(y, z).
  O(x, z) :- V(x, y), E(y, z).
}}""",
    "chained": f"""
schema {{ {_EDGE_SCHEMA} relation T: [A1: D, A2: D]; relation S: [A1: D, A2: D]; }}
var x, y, z: D
input E
output T, S
rules {{
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z).
  S(x, y) :- T(x, y), E(y, x).
  S(x, z) :- S(x, y), T(y, z).
}}""",
    "negated-base": f"""
schema {{ {_EDGE_SCHEMA} relation B: [A1: D, A2: D]; relation T: [A1: D, A2: D]; }}
var x, y, z: D
input E, B
output T
rules {{
  T(x, y) :- E(x, y), not B(x, y).
  T(x, z) :- T(x, y), E(y, z), not B(y, z).
}}""",
    "negated-derived": f"""
schema {{
  {_EDGE_SCHEMA} relation B: [A1: D, A2: D]; relation T: [A1: D, A2: D];
  relation R: [A1: D, A2: D]; relation S: [A1: D, A2: D];
}}
var x, y, z: D
input E, B
output T, R, S
rules {{
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z).
  ;
  R(x, y) :- E(x, y), not T(y, x).
  R(x, y) :- S(x, y), E(x, y).
  S(x, y) :- R(x, y).
  S(x, y) :- B(x, y).
}}""",
    "negated-changing-base": f"""
schema {{ {_EDGE_SCHEMA} relation T: [A1: D, A2: D]; }}
var x, y, z: D
input E
output T
rules {{
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z), not E(z, x).
}}""",
}


def random_digraph(rng, nodes=24, per_node=1.3, reversed_share=0.15):
    """``nodes * per_node`` random edges, a share of them also reversed
    (2-cycles)."""
    names = [f"v{i}" for i in range(nodes)]
    edges = set()
    while len(edges) < int(nodes * per_node):
        a, b = rng.sample(names, 2)
        edges.add((a, b))
    for a, b in sorted(edges):
        if rng.random() < reversed_share:
            edges.add((b, a))
    return names, edges


def run_seeded_differential(shape, seed, batches=12):
    rng = random.Random(seed)
    program = program_from_source(SEEDED_SHAPES[shape])
    names, edges = random_digraph(rng)
    instance = Instance(program.input_schema)
    for a, b in sorted(edges):
        instance.add_relation_member("E", edge(a, b))
    if "B" in program.input_names:
        for _ in range(40):
            instance.add_relation_member("B", edge(*rng.sample(names, 2)))
    mp = materialize(program, instance)
    for batch in range(batches):
        live = sorted(mp.base.relations["E"], key=repr)
        deletes = [("E", fact) for fact in rng.sample(live, rng.randint(1, 2))]
        inserts = []
        while len(inserts) < rng.randint(1, 2):
            fact = edge(*rng.sample(names, 2))
            if fact not in mp.base.relations["E"]:
                inserts.append(("E", fact))
        mp.apply_delta(inserts=inserts, deletes=deletes)
        fresh = Evaluator(program).run(mp.base.copy()).full
        assert mp.instance.ground_facts() == fresh.ground_facts(), (
            f"{shape}, seed {seed}, batch {batch}"
        )
    assert mp.stats.maintenance_fallbacks == 0
    assert mp.supports.negative_symbols() == []
    assert mp.instance.indexes.equals_rebuild()
    return mp


@pytest.mark.parametrize("shape", sorted(SEEDED_SHAPES))
@pytest.mark.parametrize("seed", range(8))
def test_seeded_rederive_matches_full_reevaluation(shape, seed):
    mp = run_seeded_differential(shape, seed)
    if shape.startswith("negated-") and shape != "negated-base":
        assert mp.stats.rederive_reruns > 0


class TestSupportTable:
    def test_add_sub_and_pruning(self):
        t = SupportTable()
        fact = OTuple(A1="a")
        assert t.add("S", fact) == 1
        assert t.add("S", fact) == 2
        assert t.get("S", fact) == 2
        assert t.sub("S", fact) == 1
        assert t.sub("S", fact) == 0
        assert t.get("S", fact) == 0  # pruned at exactly zero
        assert t.supported("S") == 0

    def test_negative_counts_are_kept_and_reported(self):
        t = SupportTable()
        fact = OTuple(A1="a")
        assert t.sub("S", fact) == -1
        assert t.get("S", fact) == -1
        assert t.negative_symbols() == ["S"]

    def test_set_counts_drops_zeros(self):
        t = SupportTable()
        a, b = OTuple(A1="a"), OTuple(A1="b")
        t.set_counts("S", {a: 2, b: 0})
        assert dict(t.facts("S")) == {a: 2}
        assert t.total() == 2
        t.drop("S")
        assert t.supported("S") == 0
        assert "SupportTable" in repr(t)


class TestCertificateValidationMemo:
    def test_validation_is_cached_per_program(self):
        program = program_from_source(E19_PROGRAM)
        cert = next(
            c for c in build_certificates(program) if (c.base, c.op) == ("E", "insert")
        )
        assert validate_certificate(program, cert) == []
        assert getattr(cert, "_validation")[0] is program
        # Prove the memo is served: tamper with the cache entry.
        object.__setattr__(cert, "_validation", (program, ("IQL999 sentinel",)))
        assert validate_certificate(program, cert) == ["IQL999 sentinel"]
        # A different program object misses the memo and revalidates
        # (its rules are different objects, so violations are real ones,
        # not the sentinel).
        other = program_from_source(E19_PROGRAM)
        assert validate_certificate(other, cert) != ["IQL999 sentinel"]
        assert getattr(cert, "_validation")[0] is other

    def test_replay_insert_refuses_invalid_certificate(self):
        program = program_from_source(E19_PROGRAM)
        cert = next(
            c for c in build_certificates(program) if (c.base, c.op) == ("E", "insert")
        )
        instance = Instance(program.input_schema)
        instance.add_relation_member("E", edge("a", "b"))
        full = Evaluator(program).run(instance).full
        object.__setattr__(cert, "_validation", (program, ("IQL999 sentinel",)))
        with pytest.raises(ValueError, match="fails validation"):
            replay_insert(program, full, cert, edge("b", "c"))


class TestMaintainCLI:
    def test_script_session(self, tmp_path, capsys):
        from repro import io

        prog = tmp_path / "e19.iql"
        prog.write_text(E19_PROGRAM)
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        for i in range(4):
            instance.add_relation_member("E", edge(f"n{i}", f"n{i + 1}"))
        data = tmp_path / "in.json"
        io.dump(instance, str(data))
        script = tmp_path / "session.txt"
        script.write_text(
            "# close the cycle, inspect, reopen it\n"
            '+E {"A1": "n4", "A2": "n0"}\n'
            "?F\n"
            "stats\n"
            "certs\n"
            '-E {"A1": "n4", "A2": "n0"}; +E {"A1": "n4", "A2": "n5"}\n'
            "?nope\n"
            "bogus line\n"
            "output\n"
            "quit\n"
        )
        rc = main(
            ["maintain", str(prog), "--input", str(data), "--script", str(script)]
        )
        out = capsys.readouterr()
        assert rc == 0
        assert "materialized in" in out.err
        assert "E:counting" in out.err or "E:dred" in out.err
        lines = out.out.splitlines()
        assert lines[0].startswith("ok: 1 net update(s)")
        assert any(line.startswith("deltas applied") for line in lines)
        assert any(line.startswith("rederive reruns") for line in lines)
        assert any("E insert:" in line for line in lines)
        assert sum(1 for line in lines if line.startswith("error:")) == 2
        assert any('"T"' in line for line in lines)  # the output dump

    def test_class_oid_updates_from_script(self, tmp_path, capsys):
        from repro import io

        prog = tmp_path / "e19.iql"
        prog.write_text(E19_PROGRAM)
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        instance.add_relation_member("E", edge("a", "b"))
        data = tmp_path / "in.json"
        io.dump(instance, str(data))
        script = tmp_path / "session.txt"
        script.write_text('+P "p0"\n?P\nquit\n')
        rc = main(
            ["maintain", str(prog), "--input", str(data), "--script", str(script)]
        )
        out = capsys.readouterr()
        assert rc == 0
        assert out.out.splitlines()[0].startswith("ok: 1 net update(s)")

    def test_shipped_session_ends_where_repro_run_does(self, capsys):
        # examples/path_graph_session.txt: deletes, re-inserts and one
        # batch over --max-steps; CI runs the same session.
        args = ["examples/transitive_closure.iql", "--input", "examples/path_graph.json"]
        assert main(["run", *args]) == 0
        expected = json.loads(capsys.readouterr().out)
        session = ["--max-steps", "12", "--script", "examples/path_graph_session.txt"]
        assert main(["maintain", *args, *session]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for line in lines if line.startswith("error:")) == 1
        assert json.loads("\n".join(lines[lines.index("{"):])) == expected

    def test_ill_typed_insert_is_rejected(self, tmp_path, capsys):
        from repro import io

        prog = tmp_path / "e19.iql"
        prog.write_text(E19_PROGRAM)
        program = program_from_source(E19_PROGRAM)
        instance = Instance(program.input_schema)
        instance.add_relation_member("E", edge("a", "b"))
        data = tmp_path / "in.json"
        io.dump(instance, str(data))
        script = tmp_path / "session.txt"
        script.write_text('?E\n+E {"A1": "n0"}\n?E\nquit\n')
        rc = main(
            ["maintain", str(prog), "--input", str(data), "--script", str(script)]
        )
        assert rc == 0
        before, rejected, after = capsys.readouterr().out.splitlines()
        assert rejected.startswith("error: ρ(E) member")
        assert after == before == '[{"tuple": {"A1": "a", "A2": "b"}}]'


# -- the 220-seed differential ------------------------------------------------------
#
# Same corpus and conventions as test_differential / test_impact: a fifth
# of the seeds invent oids, a quarter inject negation-through-recursion
# (forcing the scheduler fallback, inexact supports, and the DRed/demoted
# paths). The oracle after every batch is a fresh full evaluation of the
# maintained base input; certified single-fact inserts are additionally
# cross-checked against the PR-6 replay_insert oracle.


def random_batch(mp, rng):
    inserts, deletes = [], []
    for _ in range(rng.randint(1, 3)):
        base = rng.choice(["E", "U"])
        extent = sorted(mp.base.relations[base], key=repr)
        if extent and rng.random() < 0.4:
            deletes.append((base, rng.choice(extent)))
        else:
            inserts.append((base, random_new_fact(base, rng)))
    return inserts, deletes


def run_ivm_differential(seed):
    rng = random.Random(seed)
    schema = make_schema()
    allow_invention = seed % 5 == 0
    unstratified = seed % 4 == 1
    program = random_scheduled_program(schema, rng, allow_invention, unstratified)
    instance = random_instance(schema, rng)
    invention_free = all(rule.is_invention_free() for rule in program.rules)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp = MaterializedProgram(program, instance)

        cert = mp.certificates[("E", "insert")]
        if cert.certified and ("E", "insert") not in mp._violations:
            fact = random_new_fact("E", rng)
            if fact not in mp.instance.relations["E"]:
                expected = replay_insert(program, mp.instance, cert, fact)
                mp.apply_delta(inserts=[("E", fact)])
                if invention_free:
                    assert (
                        mp.instance.ground_facts() == expected.ground_facts()
                    ), f"seed {seed}: apply_delta diverges from replay_insert"
                else:
                    assert are_o_isomorphic(mp.instance, expected), (
                        f"seed {seed}: apply_delta not O-isomorphic to replay"
                    )

        for batch in range(3):
            inserts, deletes = random_batch(mp, rng)
            mp.apply_delta(inserts=inserts, deletes=deletes)
            fresh = Evaluator(program).run(mp.base.copy()).full
            if invention_free:
                assert mp.instance.ground_facts() == fresh.ground_facts(), (
                    f"seed {seed}, batch {batch}: exact disagreement"
                )
            else:
                assert are_o_isomorphic(mp.instance, fresh), (
                    f"seed {seed}, batch {batch}: not O-isomorphic"
                )
        assert mp.supports.negative_symbols() == [], f"seed {seed}: negative support"
        assert mp.instance.indexes.equals_rebuild(), f"seed {seed}: stale indexes"


@pytest.mark.parametrize("seed", range(220))
def test_ivm_matches_full_reevaluation(seed):
    run_ivm_differential(seed)
