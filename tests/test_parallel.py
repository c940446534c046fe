"""The IQL8xx parallel-safety analysis and the certified parallel executor.

Three layers under test, mirroring the maintenance-certificate suite:

* the **analysis** — conflict groups, hash-partitionability, the stratum
  DAG with its concurrent batches, the IQL801-804 diagnostics, and the
  runtime-surface audit (including injected drifted surfaces),
* the **certificate discipline** — re-derivation, memoized validation,
  and tamper detection: any hand-mutated plan must be caught by
  :func:`check_parallel_certificate` before an executor trusts it,
* the **executor** — ``Evaluator(parallel=N)`` agrees with the serial
  engines on concurrent strata, partitioned delta rounds, and every
  fallback shape (IQL801/802 programs run serial with a
  PreflightWarning, never wrong answers).
"""

import warnings

import pytest

from repro.analysis import (
    PreflightWarning,
    audit_runtime_surfaces,
    build_parallel_certificate,
    check_parallel_certificate,
    concurrent_batches,
    parallel_pass,
    parallel_to_dot,
    render_parallel_text,
    validate_parallel_certificate,
)
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


# -- the analysis --------------------------------------------------------------------


def test_transitive_closure_certificate_is_clean():
    certificate = build_parallel_certificate(tc_program())
    assert certificate.certified
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
    assert certificate.certified
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
    assert "certified" in text and "partitionable" in text and "conflict" in text
    dot = parallel_to_dot(certificate)
    assert dot.startswith("digraph parallel {") and "peripheries=2" in dot
    doc = certificate.to_json()
    assert doc["certified"] and doc["clean"]
    assert doc["stages"][0]["batches"] == [[1]]


# -- the runtime-surface audit -------------------------------------------------------


class _DriftedCompile:
    """A compile module whose kernel grew an unaudited capture slot."""

    class CompiledBody:
        __slots__ = ("slot_vars", "slot_index", "entry", "sink_cell",
                     "instance", "indexes", "scratch")

        def valid_for(self, instance):
            return True

    @staticmethod
    def compile_seminaive(*args, **kwargs):
        raise NotImplementedError


def test_audit_passes_on_the_real_runtime():
    checks = audit_runtime_surfaces()
    assert all(check.holds for check in checks), [
        f"{c.surface}: {c.detail}" for c in checks if not c.holds
    ]


def test_audit_catches_a_drifted_kernel_surface():
    checks = audit_runtime_surfaces(compile_module=_DriftedCompile)
    failed = [c for c in checks if not c.holds]
    assert failed and any("CompiledBody" in c.surface for c in failed)
    certificate = build_parallel_certificate(tc_program(), audit=checks)
    assert not certificate.certified
    assert not certificate.clean
    codes = [d.code for d in parallel_pass(tc_program(), certificate=certificate)]
    assert "IQL803" in codes


def test_iql803_disables_the_pool_but_not_the_answer(monkeypatch):
    import repro.analysis.parallel as parallel_module

    drifted = audit_runtime_surfaces(compile_module=_DriftedCompile)
    monkeypatch.setattr(
        parallel_module, "audit_runtime_surfaces", lambda *a, **k: drifted
    )
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = Evaluator(program, parallel=4).run(instance.copy())
    assert any(
        issubclass(w.category, PreflightWarning) and "IQL803" in str(w.message)
        for w in caught
    )
    assert result.stats.parallel_workers == 0  # pool never created
    reference = Evaluator(program, naive=True).run(instance.copy())
    assert result.output == reference.output


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


def test_forged_audit_failures_are_caught():
    program = tc_program()
    certificate = build_parallel_certificate(program)
    drifted = audit_runtime_surfaces(compile_module=_DriftedCompile)
    object.__setattr__(certificate, "audit", drifted)
    violations = check_parallel_certificate(program, certificate)
    assert any("stale or tampered audit" in v for v in violations)


# -- the executor --------------------------------------------------------------------


def test_partitioned_rounds_match_serial_exactly():
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 120, cyclic=True)
    parallel = Evaluator(program, parallel=4).run(instance.copy())
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert parallel.stats.parallel_workers == 4
    assert parallel.stats.parallel_partitioned == 1
    assert parallel.stats.parallel_tasks > 0
    assert len(parallel.output.relations["TC"]) == 120 * 120


def test_small_deltas_stay_inline():
    # Below PARTITION_THRESHOLD no worker tasks are submitted; the
    # partitioned runner degenerates to the serial round loop.
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 6)
    result = Evaluator(program, parallel=4).run(instance.copy())
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
    parallel = Evaluator(program, parallel=2).run(instance.copy())
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
        result = Evaluator(program, parallel=4).run(instance.copy())
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
        result = Evaluator(program, parallel=4).run(instance.copy())
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
    result = Evaluator(program, parallel=1).run(instance.copy())
    assert result.stats.parallel_workers == 0
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


# -- the process backend -------------------------------------------------------------
#
# Shared-nothing workers: the same certificate, a different driver. What
# the thread tests establish for barrier discipline, these establish for
# the serialization channel — worker facts must re-canonicalize into the
# coordinator's store with identity intact, on every diff shape the
# hazard-free fragment admits (relation members, class members, set
# elements).


def test_process_partitioned_rounds_match_serial_exactly():
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 300)
    evaluator = Evaluator(program, parallel=2, backend="process")
    try:
        parallel = evaluator.run(instance.copy())
    finally:
        evaluator.close()
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert parallel.stats.parallel_backend == "process"
    assert parallel.stats.parallel_partitioned == 1
    # 300-long chains push delta rounds past the process threshold, so
    # workers really drove rounds (not the inline fallback).
    assert parallel.stats.parallel_tasks > 0


def test_process_pool_persists_across_runs():
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 40)
    serial = Evaluator(program).run(instance.copy())
    evaluator = Evaluator(program, parallel=2, backend="process")
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
    evaluator = Evaluator(program, parallel=2, backend="process")
    try:
        parallel = evaluator.run(instance.copy())
    finally:
        evaluator.close()
    assert parallel.output == serial.output
    assert parallel.stats.parallel_strata >= 2
    # Identity, not isomorphism: the oids inside the derived facts ARE
    # the input's oid objects, not structural twins.
    derived_oids = {fact["A01"] for fact in parallel.full.relations["T"]}
    assert all(any(o is oid for oid in oids) for o in derived_oids)


def test_process_certificate_records_backend_and_audits_serialization():
    program = tc_program()
    certificate = build_parallel_certificate(program, backend="process")
    assert certificate.backend == "process"
    assert certificate.certified
    surfaces = [check.surface for check in certificate.audit]
    assert "values pickling re-interns" in surfaces
    assert "schema.Instance pickled state" in surfaces
    assert "iql.Rule pickled state" in surfaces
    assert "parexec process worker entry" in surfaces
    assert certificate.to_json()["backend"] == "process"
    assert check_parallel_certificate(program, certificate) == []
    # The thread certificate does not carry (or need) those checks.
    thread = build_parallel_certificate(program)
    assert thread.backend == "thread"
    assert "values pickling re-interns" not in [c.surface for c in thread.audit]
    assert "backend process" in render_parallel_text(certificate)


def test_certificate_with_unknown_backend_is_rejected():
    import dataclasses

    program = tc_program()
    certificate = build_parallel_certificate(program)
    forged = dataclasses.replace(certificate, backend="gpu")
    violations = check_parallel_certificate(program, forged)
    assert violations and "unknown backend" in violations[0]


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
    assert evaluator.run(instance.copy()).output == serial.output


def test_unknown_backend_raises():
    from repro.errors import EvaluationError

    with pytest.raises(EvaluationError):
        Evaluator(tc_program(), parallel=2, backend="gpu")
    with pytest.raises(EvaluationError):
        Evaluator(tc_program(), parallel="some")
