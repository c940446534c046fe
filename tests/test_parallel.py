"""The IQL8xx parallel-safety analysis, and what pickling preserves.

* the **analysis** — conflict groups, hash-partitionability, the stratum
  DAG with its concurrent batches, and the IQL801/802/804 diagnostics,
  rendered by ``repro analyze --parallel``. No executor runs the plan:
  evaluation is serial, and ``parallel=`` / ``--parallel N`` are gone,
* the **pickling contract** — an unpickled ``Instance`` or ``Rule``
  carries its semantic state and cold evaluation caches.
"""

import pickle

import pytest

from repro.analysis import (
    build_parallel_certificate,
    concurrent_batches,
    parallel_pass,
    parallel_to_dot,
    render_parallel_text,
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


def chain_instance(schema, n):
    instance = Instance(schema.project(["E"]))
    for i in range(n - 1):
        instance.add_relation_member("E", OTuple(A01=f"n{i}", A02=f"n{i + 1}"))
    return instance


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


# -- what pickling preserves ---------------------------------------------------------
#
# Only semantic state is pickled: caches built against one instance's
# extents and one process's intern store are rebuilt cold by whoever
# unpickles.


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
    # Warm every evaluation cache.
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


# -- evaluation is serial ------------------------------------------------------------


def test_parallel_option_is_gone(tmp_path):
    from repro.__main__ import main

    with pytest.raises(TypeError):
        Evaluator(tc_program(), parallel=2)
    # The CLI rejects the worker-count flags at argument parsing (exit
    # status 2), before reading any file.
    missing = str(tmp_path / "missing")
    for flags in (["--parallel", "2"], ["--parallel", "auto"], ["--backend", "process"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", missing + ".iql", "--input", missing + ".json", *flags])
        assert exit_info.value.code == 2
