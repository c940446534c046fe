"""The IQL8xx parallel-safety analysis and the certified parallel executor.

Three layers under test, mirroring the maintenance-certificate suite:

* the **analysis** — conflict groups, hash-partitionability, the stratum
  DAG with its concurrent batches, and the IQL801/802/804 diagnostics,
* the **certificate discipline** — re-derivation, memoized validation,
  and tamper detection: any hand-mutated plan must be caught by
  :func:`check_parallel_certificate` before an executor trusts it,
* the **executor** — ``Evaluator(parallel=N)``'s worker-process pool
  agrees with the serial engines on concurrent strata, partitioned delta
  rounds, and every fallback shape (IQL801/802 programs run serial with
  a PreflightWarning, never wrong answers), survives a dead worker, and
  ships only cache-free state to its workers.
"""

import pickle
import warnings

import pytest

from repro.analysis import (
    PreflightWarning,
    build_parallel_certificate,
    check_parallel_certificate,
    concurrent_batches,
    parallel_pass,
    parallel_to_dot,
    render_parallel_text,
    validate_parallel_certificate,
)
from repro.errors import EvaluationError
from repro.iql import Evaluator, Program, Rule, Var, atom, columns
from repro.schema import Instance, Schema
from repro.typesys import D, classref, tuple_of
from repro.values import OTuple


def tc_schema():
    return Schema(
        relations={"E": columns(D, D), "TC": columns(D, D)},
        classes={},
    )


def tc_program(schema=None):
    schema = schema or tc_schema()
    x, y, z = Var("x", D), Var("y", D), Var("z", D)
    return Program(
        schema,
        rules=[
            Rule(atom(schema, "TC", x, y), [atom(schema, "E", x, y)]),
            Rule(
                atom(schema, "TC", x, z),
                [atom(schema, "TC", x, y), atom(schema, "E", y, z)],
            ),
        ],
        input_names=["E"],
        output_names=["TC"],
    )


def chain_instance(schema, n, cyclic=False):
    instance = Instance(schema.project(["E"]))
    for i in range(n if cyclic else n - 1):
        instance.add_relation_member(
            "E", OTuple(A01=f"n{i}", A02=f"n{(i + 1) % n}")
        )
    return instance


def run_parallel(program, instance, workers=2):
    """One run on a fresh worker-process pool, closed afterwards."""
    evaluator = Evaluator(program, parallel=workers)
    try:
        return evaluator.run(instance.copy())
    finally:
        evaluator.close()


# -- the analysis --------------------------------------------------------------------


def test_transitive_closure_certificate_is_clean():
    certificate = build_parallel_certificate(tc_program())
    assert certificate.clean
    assert certificate.width >= 2
    [stage] = certificate.stages
    assert stage.scheduled
    [stratum] = stage.strata
    # Both rules write TC: one conflict, one fused group — yet the
    # stratum is partitionable, so it is not an IQL801 serialization.
    assert len(stratum.groups) == 1
    assert stratum.conflicts and stratum.conflicts[0].kind == "write-write"
    assert stratum.conflicts[0].symbols == ("TC",)
    assert stratum.partitionable
    assert stratum.fallback is None
    recursive = stratum.partitions[1]
    assert recursive.partitionable
    assert set(recursive.key_variables) == {"x", "y", "z"}
    diagnostics = parallel_pass(tc_program(), certificate=certificate)
    assert [d.code for d in diagnostics] == ["IQL804"]


def test_conflict_serialized_stratum_is_iql801():
    # Two rules writing T driven only by a class extent: the write-write
    # conflict fuses them and neither has a relation delta to split.
    schema = Schema(
        relations={"T": columns(classref("C"), classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", classref("C")), Var("y", classref("C"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, x), [atom(schema, "C", x)]),
            Rule(atom(schema, "T", x, y), [atom(schema, "C", x), atom(schema, "C", y)]),
        ],
        input_names=["C"],
        output_names=["T", "C"],
    )
    certificate = build_parallel_certificate(program)
    assert not certificate.clean
    [stratum] = certificate.stages[0].strata
    assert stratum.fallback is not None and stratum.fallback.startswith("IQL801")
    assert not stratum.parallel_safe
    codes = [d.code for d in parallel_pass(program, certificate=certificate)]
    assert codes == ["IQL801"]


def test_invention_stratum_is_iql802_even_when_scheduled():
    # Non-recursive invention schedules fine (IQL6xx) but can never be
    # partitioned: the oid factory and blocking condition are
    # step-ordered.
    schema = Schema(
        relations={"E": columns(D, D), "TC": columns(D, classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[Rule(atom(schema, "TC", x, Var("p", classref("C"))), [atom(schema, "E", x, y)])],
        input_names=["E"],
        output_names=["TC", "C"],
    )
    certificate = build_parallel_certificate(program)
    [stage] = certificate.stages
    assert stage.scheduled
    [stratum] = stage.strata
    assert stratum.hazards and "invents oids" in stratum.hazards[0]
    assert stratum.fallback.startswith("IQL802")
    assert not stratum.parallel_safe
    codes = {d.code for d in parallel_pass(program, certificate=certificate)}
    assert codes == {"IQL802"}


def test_independent_strata_share_a_level_and_batch():
    schema = Schema(
        relations={"E": columns(D, D), "T": columns(D, D), "U": columns(D)},
        classes={},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(atom(schema, "U", x), [atom(schema, "E", x, y)]),
        ],
        input_names=["E"],
        output_names=["T", "U"],
    )
    certificate = build_parallel_certificate(program)
    assert certificate.clean
    [stage] = certificate.stages
    assert len(stage.strata) == 2
    assert stage.levels == ((0, 1),)
    assert concurrent_batches(stage) == [(0, 1)]
    assert stage.width == 2


def test_dependent_strata_split_levels():
    schema = Schema(
        relations={"E": columns(D, D), "T": columns(D, D), "F": columns(D, D)},
        classes={},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(atom(schema, "F", x, y), [atom(schema, "T", x, y)]),
        ],
        input_names=["E"],
        output_names=["F"],
    )
    [stage] = build_parallel_certificate(program).stages
    assert stage.strata[1].depends_on == (0,)
    assert stage.levels == ((0,), (1,))
    assert concurrent_batches(stage) == [(0,), (1,)]


def test_class_writers_never_share_a_batch():
    # Two class-membership-writing strata may not co-run: the _class_of
    # disjointness check in add_class_member is check-then-act.
    schema = Schema(
        relations={"R1": columns(classref("C1")), "R2": columns(classref("C2"))},
        classes={"C1": tuple_of(a=D), "C2": tuple_of(a=D)},
    )
    x1, x2 = Var("x", classref("C1")), Var("y", classref("C2"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "R1", x1), [atom(schema, "C1", x1)]),
            Rule(atom(schema, "R2", x2), [atom(schema, "C2", x2)]),
        ],
        input_names=["C1", "C2"],
        output_names=["R1", "R2"],
    )
    [stage] = build_parallel_certificate(program).stages
    assert len(stage.strata) == 2
    # These strata only *read* class extents — they batch together ...
    assert concurrent_batches(stage) == [(0, 1)]
    # ... but strata that *write* class extents must not.
    x, y = Var("x", D), Var("y", D)
    schema2 = Schema(
        relations={"E": columns(D, D)},
        classes={"C1": tuple_of(a=D), "C2": tuple_of(a=D)},
    )
    program2 = Program(
        schema2,
        rules=[
            Rule(
                atom(schema2, "C1", Var("p", classref("C1"))),
                [atom(schema2, "E", x, y)],
            ),
            Rule(
                atom(schema2, "C2", Var("q", classref("C2"))),
                [atom(schema2, "E", x, y)],
            ),
        ],
        input_names=["E"],
        output_names=["C1", "C2"],
    )
    [stage2] = build_parallel_certificate(program2).stages
    for batch in concurrent_batches(stage2):
        writers = [
            i for i in batch if stage2.strata[i].class_writes
        ]
        assert len(writers) <= 1


def test_renderers_cover_the_plan():
    certificate = build_parallel_certificate(tc_program())
    text = render_parallel_text(certificate)
    assert "width 2" in text and "partitionable" in text and "conflict" in text
    dot = parallel_to_dot(certificate)
    assert dot.startswith("digraph parallel {") and "peripheries=2" in dot
    doc = certificate.to_json()
    assert doc["clean"] and doc["width"] == 2
    assert doc["stages"][0]["batches"] == [[1]]


# -- certificate discipline: re-derivation and tamper detection ----------------------


def test_validation_is_memoized_per_program():
    program = tc_program()
    certificate = build_parallel_certificate(program)
    assert validate_parallel_certificate(program, certificate) == []
    assert certificate._validation[0] is program
    assert validate_parallel_certificate(program, certificate) == []


def test_tampered_hazard_promotion_is_caught():
    schema = Schema(
        relations={"E": columns(D, D), "TC": columns(D, classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[Rule(atom(schema, "TC", x, Var("p", classref("C"))), [atom(schema, "E", x, y)])],
        input_names=["E"],
        output_names=["TC", "C"],
    )
    certificate = build_parallel_certificate(program)
    [stage] = certificate.stages
    [stratum] = stage.strata
    # Forge a certificate that promotes the invention stratum to safe.
    import dataclasses

    promoted = dataclasses.replace(stratum, fallback=None)
    forged_stage = dataclasses.replace(stage, strata=(promoted,))
    object.__setattr__(certificate, "stages", (forged_stage,))
    violations = check_parallel_certificate(program, certificate)
    assert violations
    assert any("does not re-derive" in v for v in violations)
    assert any("hazards recorded but no serial fallback" in v for v in violations)


def test_tampered_group_split_is_caught():
    program = tc_program()
    certificate = build_parallel_certificate(program)
    [stage] = certificate.stages
    [stratum] = stage.strata
    import dataclasses

    # Split the two conflicting rules into separate groups.
    split = dataclasses.replace(stratum, groups=((0,), (1,)))
    object.__setattr__(
        certificate, "stages", (dataclasses.replace(stage, strata=(split,)),)
    )
    violations = check_parallel_certificate(program, certificate)
    assert any("sit in different groups" in v for v in violations)


# -- the executor --------------------------------------------------------------------
#
# Shared-nothing workers: each worker process replicates the instance and
# interns into its own store, so worker facts must re-canonicalize into
# the coordinator's store with identity intact, on every diff shape the
# hazard-free fragment admits (relation members, class members, set
# elements). Every test closes the pools it opens.


def test_process_partitioned_rounds_match_serial_exactly():
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 300)
    parallel = run_parallel(program, instance)
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert len(parallel.output.relations["TC"]) == 300 * 299 // 2
    assert parallel.stats.parallel_workers == 2
    assert parallel.stats.parallel_partitioned == 1
    # 300-long chains push delta rounds past the process threshold, so
    # workers really drove rounds (not the inline fallback).
    assert parallel.stats.parallel_tasks > 0


def test_partitioned_rounds_match_serial_exactly():
    # A cycle: every node reaches every node, and each delta round holds
    # one new fact per node, so 256 nodes reach the process threshold.
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 256, cyclic=True)
    parallel = run_parallel(program, instance, workers=4)
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert parallel.stats.parallel_workers == 4
    assert parallel.stats.parallel_partitioned == 1
    assert parallel.stats.parallel_tasks > 0
    assert len(parallel.output.relations["TC"]) == 256 * 256


def test_small_deltas_stay_inline():
    # Below PROCESS_PARTITION_THRESHOLD no worker tasks are submitted;
    # the partitioned runner degenerates to the serial round loop.
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 6)
    result = run_parallel(program, instance)
    assert result.stats.parallel_partitioned == 1
    assert result.stats.parallel_tasks == 0
    serial = Evaluator(program).run(instance.copy())
    assert result.output == serial.output


def test_concurrent_strata_run_on_workers():
    schema = Schema(
        relations={"E": columns(D, D), "T": columns(D, D), "U": columns(D)},
        classes={},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(atom(schema, "U", x), [atom(schema, "E", x, y)]),
        ],
        input_names=["E"],
        output_names=["T", "U"],
    )
    instance = Instance(schema.project(["E"]))
    for i in range(30):
        instance.add_relation_member("E", OTuple(A01=f"a{i}", A02=f"b{i}"))
    parallel = run_parallel(program, instance)
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert parallel.stats.parallel_strata == 2
    assert parallel.stats.parallel_tasks >= 2


def test_iql801_program_falls_back_serial_with_warning():
    schema = Schema(
        relations={"T": columns(classref("C"), classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", classref("C")), Var("y", classref("C"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, x), [atom(schema, "C", x)]),
            Rule(atom(schema, "T", x, y), [atom(schema, "C", x), atom(schema, "C", y)]),
        ],
        input_names=["C"],
        output_names=["T", "C"],
    )
    from repro.values.ovalues import Oid

    instance = Instance(schema.project(["C"]))
    for i in range(4):
        instance.add_class_member("C", Oid(f"o{i}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_parallel(program, instance)
    assert any(
        issubclass(w.category, PreflightWarning) and "IQL801" in str(w.message)
        for w in caught
    )
    assert result.stats.parallel_fallbacks >= 1
    reference = Evaluator(program, naive=True).run(instance.copy())
    assert result.output == reference.output


def test_iql802_invention_program_falls_back_serial_with_warning():
    schema = Schema(
        relations={"E": columns(D, D), "TC": columns(D, classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[Rule(atom(schema, "TC", x, Var("p", classref("C"))), [atom(schema, "E", x, y)])],
        input_names=["E"],
        output_names=["TC", "C"],
    )
    instance = Instance(schema.project(["E"]))
    for i in range(5):
        instance.add_relation_member("E", OTuple(A01=f"a{i}", A02=f"b{i}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_parallel(program, instance)
    assert any(
        issubclass(w.category, PreflightWarning) and "IQL802" in str(w.message)
        for w in caught
    )
    assert result.stats.parallel_fallbacks >= 1
    from repro.schema import are_o_isomorphic

    reference = Evaluator(program, naive=True).run(instance.copy())
    assert are_o_isomorphic(result.output, reference.output)


def test_parallel_one_is_plain_scheduling():
    # parallel=1 validates the certificate but never opens a pool.
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 10)
    evaluator = Evaluator(program, parallel=1)
    result = evaluator.run(instance.copy())
    assert result.stats.parallel_workers == 0
    assert evaluator._driver is None
    serial = Evaluator(program).run(instance.copy())
    assert result.output == serial.output


def test_parallel_implies_schedule():
    evaluator = Evaluator(tc_program(), parallel=2)
    assert evaluator._schedule is not None
    assert evaluator._parallel_certificate is not None


def test_trace_disables_parallel():
    evaluator = Evaluator(tc_program(), parallel=4, trace=True)
    assert evaluator.parallel == 0
    assert evaluator._parallel_certificate is None


def test_process_pool_persists_across_runs():
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 40)
    serial = Evaluator(program).run(instance.copy())
    evaluator = Evaluator(program, parallel=2)
    try:
        first = evaluator.run(instance.copy())
        pool = evaluator._driver
        assert pool is not None and all(p.is_alive() for p in pool._processes)
        second = evaluator.run(instance.copy())
        # One persistent pool per Evaluator: the second run reuses it.
        assert evaluator._driver is pool
        assert first.output == serial.output
        assert second.output == serial.output
    finally:
        evaluator.close()
    assert evaluator._driver is None
    for process in pool._processes:
        process.join(timeout=5)
        assert not process.is_alive()


def test_killed_worker_raises_typed_error_then_pool_is_rebuilt():
    import os
    import signal

    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 40)
    serial = Evaluator(program).run(instance.copy())
    evaluator = Evaluator(program, parallel=2)
    try:
        evaluator.run(instance.copy())
        dead_pool = evaluator._driver
        victim = dead_pool._processes[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        with pytest.raises(EvaluationError, match="worker 1"):
            evaluator.run(instance.copy())
        # The broken pool is retired, and its surviving worker with it ...
        assert evaluator._driver is None
        for process in dead_pool._processes:
            process.join(timeout=10)
            assert not process.is_alive()
        # ... so the next run builds a fresh pool and answers correctly.
        again = evaluator.run(instance.copy())
        assert evaluator._driver is not None and evaluator._driver is not dead_pool
        assert again.output == serial.output
        assert again.stats.parallel_partitioned == 1
    finally:
        evaluator.close()


def test_process_concurrent_strata_ship_oids_by_identity():
    # Three independent strata (one a class writer) batch across two
    # process workers; the derived facts carry oids, which must come
    # back from the workers as the coordinator's OWN oid objects — the
    # merge re-canonicalizes, it never copies.
    schema = Schema(
        relations={
            "R1": columns(classref("C1")),
            "T": columns(classref("C1")),
            "U": columns(classref("C1"), classref("C1")),
        },
        classes={"C1": tuple_of(a=D)},
    )
    x = Var("x", classref("C1"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x), [atom(schema, "R1", x)]),
            Rule(atom(schema, "U", x, x), [atom(schema, "R1", x)]),
            # A hazard-free class writer (re-derives existing members —
            # class disjointness admits nothing else without invention):
            # exercises the one-class-writer-per-batch schedule and the
            # empty class diff crossing the boundary.
            Rule(atom(schema, "C1", x), [atom(schema, "R1", x)]),
        ],
        input_names=["R1", "C1"],
        output_names=["T", "U", "C1"],
    )
    from repro.values import Oid

    instance = Instance(schema.project(["R1", "C1"]))
    oids = []
    for i in range(12):
        oid = Oid(f"c{i}")
        oids.append(oid)
        instance.add_class_member("C1", oid)
        instance.assign(oid, OTuple(a=i))
        instance.add_relation_member("R1", OTuple(A01=oid))
    serial = Evaluator(program).run(instance.copy())
    parallel = run_parallel(program, instance)
    assert parallel.output == serial.output
    assert parallel.stats.parallel_strata >= 2
    # Identity, not isomorphism: the oids inside the derived facts ARE
    # the input's oid objects, not structural twins.
    derived_oids = {fact["A01"] for fact in parallel.full.relations["T"]}
    assert all(any(o is oid for oid in oids) for o in derived_oids)


# -- what crosses the process boundary ---------------------------------------------
#
# Workers receive the instance and the program by pickle. Only semantic
# state may cross: caches built against one process's extents and intern
# store must be rebuilt cold by the receiver.


def test_unpickled_instance_has_equal_extents_and_cold_caches():
    from repro.typesys import set_of
    from repro.values import Oid

    schema = Schema(
        relations={"E": columns(D, D)},
        classes={"C": tuple_of(a=D), "S": set_of(D)},
    )
    instance = Instance(schema)
    for i in range(5):
        instance.add_relation_member("E", OTuple(A01=f"n{i}", A02=f"n{i + 1}"))
        oid = Oid(f"c{i}")
        instance.add_class_member("C", oid)
        instance.assign(oid, OTuple(a=i))
    holder = Oid("s0")
    instance.add_class_member("S", holder)
    instance.add_set_element(holder, "n0")
    # Warm every coordinator-local cache.
    instance.indexes.relation_index("E", "A01")
    instance.sorted_constants()
    assert instance.member_of(OTuple(a=0), tuple_of(a=D))
    assert instance._indexes is not None and instance._member_cache

    shipped = pickle.loads(pickle.dumps(instance))
    assert shipped == instance
    assert shipped.nu == instance.nu
    assert shipped._class_of == instance._class_of
    assert shipped._indexes is None
    assert shipped._constants_cache is None
    assert shipped._sorted_constants is None
    assert shipped._member_cache == {}


def test_unpickled_rule_has_cold_caches():
    schema = tc_schema()
    program = tc_program(schema)
    Evaluator(program).run(chain_instance(schema, 8))
    recursive = program.rules[1]
    assert recursive._plan_cache and recursive._kernel_cache
    assert recursive._feedback_cache is not None

    shipped = pickle.loads(pickle.dumps(recursive))
    assert shipped == recursive
    assert shipped._plan_cache is None
    assert shipped._kernel_cache is None
    assert shipped._feedback_cache is None


# -- worker counts -------------------------------------------------------------------


def test_parallel_auto_resolves_to_cpus_clamped_by_width():
    import os

    program = tc_program()
    evaluator = Evaluator(program, parallel="auto")
    assert evaluator._parallel_certificate is not None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    width = evaluator._parallel_certificate.width
    assert evaluator.parallel == max(1, min(cpus, width))
    # And it still answers correctly whatever the resolved width.
    schema = tc_schema()
    instance = chain_instance(schema, 12)
    serial = Evaluator(tc_program(schema)).run(instance.copy())
    try:
        assert evaluator.run(instance.copy()).output == serial.output
    finally:
        evaluator.close()


def test_unknown_backend_raises(tmp_path):
    from repro.__main__ import main
    from repro.iql.parexec import worker_count

    with pytest.raises(EvaluationError):
        Evaluator(tc_program(), parallel="some")
    with pytest.raises(EvaluationError):
        worker_count(-2)
    with pytest.raises(EvaluationError):
        Evaluator(tc_program(), parallel=-2)
    with pytest.raises(EvaluationError):
        Evaluator(tc_program(), parallel=-2, naive=True)
    # The CLI rejects the same counts, and the retired --backend flag,
    # at argument parsing (exit status 2), before reading any file.
    missing = str(tmp_path / "missing")
    for flags in (["--parallel", "-2"], ["--parallel", "some"], ["--backend", "process"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", missing + ".iql", "--input", missing + ".json", *flags])
        assert exit_info.value.code == 2
