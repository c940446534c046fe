"""Tests for the incremental hash indexes (repro.iql.indexes) and the
constants cache on Instance.

The invariant under test everywhere: an incrementally-maintained index
must equal a from-scratch rebuild from current instance state, after any
sequence of mutator calls — `InstanceIndexes.equals_rebuild` is the
oracle. The compiled kernels' use of the indexes is covered by the
differential tests; here we pin down the storage layer itself, and that
the reference interpreter, which uses no index, agrees with a kernel
that probes one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import database_to_instance, datalog_to_iql, transitive_closure_program
from repro.iql import Evaluator, Membership, Program, Rule, Var, atom, columns
from repro.iql.compile import kernel_factory
from repro.iql.indexes import InstanceIndexes
from repro.iql.valuation import solve_body
from repro.schema import Instance, Schema
from repro.typesys import D, classref, set_of, tuple_of
from repro.values import Oid, OTuple
from repro.workloads import path_graph


def make_schema():
    return Schema(
        relations={"R": columns(D, D)},
        classes={"P": tuple_of(a=D), "Q": set_of(D)},
    )


class TestRelationIndexes:
    def test_probe_equals_scan(self):
        instance = Instance(make_schema())
        for i in range(10):
            instance.add_relation_member("R", OTuple(A01=f"k{i % 3}", A02=f"v{i}"))
        bucket = instance.indexes.relation_probe("R", "A01", "k1")
        expected = {m for m in instance.relations["R"] if m["A01"] == "k1"}
        assert set(bucket) == expected

    def test_miss_is_empty(self):
        instance = Instance(make_schema())
        assert instance.indexes.relation_probe("R", "A01", "nope") == frozenset()

    def test_incremental_addition(self):
        instance = Instance(make_schema())
        instance.indexes.relation_index("R", "A01")  # build while empty
        member = OTuple(A01="a", A02="b")
        instance.add_relation_member("R", member)
        assert member in instance.indexes.relation_probe("R", "A01", "a")
        assert instance.indexes.equals_rebuild()


class TestConstantsCache:
    def test_mutation_updates_cache(self):
        instance = Instance(make_schema())
        instance.add_relation_member("R", OTuple(A01="a", A02="b"))
        assert instance.constants() == {"a", "b"}
        # The cache is now warm; every mutator must keep it current.
        instance.add_relation_member("R", OTuple(A01="a", A02="c"))
        assert instance.constants() == {"a", "b", "c"}
        o = Oid()
        instance.add_class_member("P", o)
        instance.assign(o, OTuple(a="d"))
        assert "d" in instance.constants()
        q = Oid()
        instance.add_class_member("Q", q)
        instance.add_set_element(q, "e")
        assert "e" in instance.constants()
        assert instance.sorted_constants() == sorted({"a", "b", "c", "d", "e"})

    def test_sorted_constants_is_cached_until_new_constant(self):
        instance = Instance(make_schema())
        instance.add_relation_member("R", OTuple(A01="a", A02="b"))
        first = instance.sorted_constants()
        # Re-adding known constants must not invalidate the sorted list.
        instance.add_relation_member("R", OTuple(A01="b", A02="a"))
        assert instance.sorted_constants() is first
        instance.add_relation_member("R", OTuple(A01="z", A02="a"))
        assert instance.sorted_constants() == ["a", "b", "z"]

    def test_drop_indexes_resets_everything(self):
        instance = Instance(make_schema())
        instance.add_relation_member("R", OTuple(A01="a", A02="b"))
        instance.constants()
        instance.indexes.relation_index("R", "A01")
        # Simulate a deletion behind the mutators' backs (the IQL* path).
        instance.relations["R"].clear()
        instance.drop_indexes()
        assert instance.constants() == frozenset()
        assert instance.indexes.relation_probe("R", "A01", "a") == frozenset()


class TestEvaluatorStats:
    def test_stats_surface_index_activity(self):
        dprog = transitive_closure_program()
        program = datalog_to_iql(dprog)
        instance = database_to_instance(
            dprog, {"E": set(path_graph(8))}, names=dprog.edb
        )
        result = Evaluator(program).run(instance)
        stats = result.stats
        # The production engine compiles both rules; the join kernel
        # probes a projection index it built.
        assert stats.rules_compiled == len(program.rules)
        assert stats.plan_cache_misses >= 1
        assert result.full.indexes.built_relation_indexes()
        # The reference interpreter neither reads nor writes the plan memo.
        join = next(rule for rule in program.rules if len(rule.body) == 2)
        cached = dict(program.rule_memo(join).plans)
        assert list(solve_body(join.body, result.full))
        assert program.rule_memo(join).plans == cached

    def test_unindexed_run_reports_no_probes(self):
        dprog = transitive_closure_program()
        program = datalog_to_iql(dprog)
        instance = database_to_instance(
            dprog, {"E": set(path_graph(8))}, names=dprog.edb
        )
        full = Evaluator(program, naive=True).run(instance).full
        assert full.indexes.built_relation_indexes() == frozenset()


# -- the incremental-maintenance property test --------------------------------

CONSTS = st.sampled_from(["a", "b", "c", "d"])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("rel"), CONSTS, CONSTS),
        st.tuples(st.just("new_p"), CONSTS),
        st.tuples(st.just("new_q"), CONSTS),
        st.tuples(st.just("reassign"), st.integers(0, 7), CONSTS),
        st.tuples(st.just("grow_q"), st.integers(0, 7), CONSTS),
        # the trusted bulk mutators the engine calls directly
        st.tuples(st.just("rel_bulk"), st.lists(st.tuples(CONSTS, CONSTS), max_size=4)),
        st.tuples(st.just("grow_q_bulk"), st.integers(0, 7), st.lists(CONSTS, max_size=4)),
        # in-place retraction: the removal mutators must discard exactly
        # the affected bucket entries (never by dropping the index set)
        st.tuples(st.just("rel_del"), CONSTS, CONSTS),
        st.tuples(st.just("del_p"), st.integers(0, 7)),
        st.tuples(st.just("del_q"), st.integers(0, 7)),
        st.tuples(st.just("unassign"), st.integers(0, 7)),
        st.tuples(st.just("shrink_q"), st.integers(0, 7), CONSTS),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_indexes_match_rebuild_after_arbitrary_mutations(ops):
    """After any mutator sequence, maintained indexes == from-scratch build."""
    instance = Instance(make_schema())
    # Build every index up front so each op exercises maintenance.
    instance.indexes.relation_index("R", "A01")
    instance.indexes.relation_index("R", "A02")
    indexes_before = instance.indexes
    p_oids, q_oids = [], []
    for op in ops:
        # Keep the constants cache warm (a removal drops it), so every
        # addition folds into it and the final check tests the folding.
        instance.constants()
        if op[0] == "rel":
            instance.add_relation_member("R", OTuple(A01=op[1], A02=op[2]))
        elif op[0] == "rel_bulk":
            # The bulk contract: only facts not yet in R.
            fresh = {OTuple(A01=a, A02=b) for a, b in op[1]} - instance.relations["R"]
            instance.add_relation_members("R", fresh)
        elif op[0] == "new_p":
            o = Oid()
            instance.add_class_member("P", o)
            instance.assign(o, OTuple(a=op[1]))
            p_oids.append(o)
        elif op[0] == "new_q":
            o = Oid()
            instance.add_class_member("Q", o)
            instance.add_set_element(o, op[1])
            q_oids.append(o)
        elif op[0] == "reassign" and p_oids:
            instance.assign(p_oids[op[1] % len(p_oids)], OTuple(a=op[2]))
        elif op[0] == "grow_q" and q_oids:
            instance.add_set_element(q_oids[op[1] % len(q_oids)], op[2])
        elif op[0] == "grow_q_bulk" and q_oids:
            o = q_oids[op[1] % len(q_oids)]
            instance.add_set_elements(o, set(op[2]) - instance.value_of(o).elements)
        elif op[0] == "rel_del":
            instance.remove_relation_member("R", OTuple(A01=op[1], A02=op[2]))
        elif op[0] == "del_p" and p_oids:
            instance.remove_class_member("P", p_oids.pop(op[1] % len(p_oids)))
        elif op[0] == "del_q" and q_oids:
            instance.remove_class_member("Q", q_oids.pop(op[1] % len(q_oids)))
        elif op[0] == "unassign" and p_oids:
            instance.unassign(p_oids[op[1] % len(p_oids)])
        elif op[0] == "shrink_q" and q_oids:
            instance.remove_set_element(q_oids[op[1] % len(q_oids)], op[2])
    # Retraction is in place: the index object identity survived every op.
    assert instance.indexes is indexes_before
    assert instance.indexes.equals_rebuild()
    # The constants cache must agree with a cold recount too.
    cached = instance.constants()
    fresh = Instance(make_schema())
    fresh.relations = {k: set(v) for k, v in instance.relations.items()}
    fresh.nu = dict(instance.nu)
    assert cached == fresh.constants()


def test_equals_rebuild_detects_corruption():
    """The oracle itself must be able to fail (guard against vacuity)."""
    instance = Instance(make_schema())
    instance.add_relation_member("R", OTuple(A01="a", A02="b"))
    index = instance.indexes.relation_index("R", "A01")
    index["a"] = set()  # corrupt the bucket
    assert not instance.indexes.equals_rebuild()


def test_indexes_rebuilt_lazily_are_fresh_object():
    instance = Instance(make_schema())
    first = instance.indexes
    assert isinstance(first, InstanceIndexes)
    instance.drop_indexes()
    assert instance.indexes is not first


def kernel_solutions(body, initial, instance, var):
    """``var``'s values over the solutions of ``body`` with ``initial``
    bound, and the kernel's factory: the kernel is the delta kernel of
    ``Seed`` in the one-rule program ``H(var) :- Seed(initial's
    variables), body``, which solves the rest of the body with the seed's
    variables bound, here from the one seed fact."""
    seed = sorted(initial, key=lambda v: v.name)
    schema = instance.schema.with_names(
        relations={"Seed": columns(*(v.type for v in seed)), "H": columns(var.type)}
    )
    seed_atom = atom(schema, "Seed", *seed)
    rule = Rule(atom(schema, "H", var), [seed_atom, *body])
    factory = kernel_factory(Program(schema, rules=[rule]), rule, 0, instance)
    drain, _fire = factory.bind(instance, 100_000)
    fact = OTuple({attr: initial[sub] for attr, sub in seed_atom.element.fields})
    found = set()
    drain([fact], set(), found)
    return factory, {h["A01"] for h in found}


def test_membership_literal_solved_through_probe():
    """R([A01: x, A02: y]) with x bound: the kernel probes, and agrees with
    the reference's scan."""
    schema = make_schema()
    instance = Instance(schema)
    for i in range(6):
        instance.add_relation_member("R", OTuple(A01=f"k{i % 2}", A02=f"v{i}"))
    x, y = Var("x", D), Var("y", D)
    body = [atom(schema, "R", x, y)]
    seed = {x: "k1"}
    kernel, probed = kernel_solutions(body, seed, instance, y)
    assert [step[0] for step in kernel.plan] == ["member"] and kernel.plan[0][2]
    scanned = {theta[y] for theta in solve_body(body, instance, initial=seed)}
    assert probed == scanned == {"v1", "v3", "v5"}


def test_deref_container_membership_agrees():
    """q̂(x) — a set-valued deref container — same answers both ways."""
    schema = make_schema()
    instance = Instance(schema)
    q = Oid()
    instance.add_class_member("Q", q)
    instance.add_set_element(q, "m")
    instance.add_set_element(q, "n")
    qv = Var("q", classref("Q"))
    x = Var("x", D)
    body = [Membership(qv.hat(), x)]
    seed = {qv: q}
    _, compiled = kernel_solutions(body, seed, instance, x)
    reference = {theta[x] for theta in solve_body(body, instance, initial=seed)}
    assert compiled == reference == {"m", "n"}
