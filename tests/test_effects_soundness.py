"""Effects soundness: observed runtime writes ⊆ declared ``RuleEffects`` writes.

The certified schedule of :mod:`repro.analysis.depgraph` (which strata
run apart, and in which order) and the IQL7xx maintenance cones of
:mod:`repro.analysis.impact` (which strata an update replays) rest on
one premise: the static write sets of
:func:`repro.analysis.effects.rule_effects` over-approximate everything
evaluation actually mutates. This file checks that premise
dynamically: the four add-direction
:class:`~repro.schema.instance.Instance` mutators are instrumented to
record the symbol they touch (relation name, class extent name, or the
``^P`` value plane behind a set-element/weak-assignment write), a full
evaluation runs, and every observed symbol must be declared by some
rule of the program.

Removal mutators are deliberately *not* instrumented: an IQL* deletion
cascade may touch arbitrary reachable symbols, which is exactly why a
stage with deletion is never scheduled by strata and an update cone that
reaches one is an IQL701 full recompute — there is no per-rule write set
to be sound against.
"""

import random
import warnings
from contextlib import contextmanager

import pytest

from repro.analysis.effects import plane, rule_effects
from repro.iql import (
    Equality,
    Evaluator,
    Membership,
    Program,
    Rule,
    TupleTerm,
    Var,
    atom,
    columns,
)
from repro.schema import Instance, Schema
from repro.typesys import D, classref, set_of, tuple_of
from tests.test_differential import (
    make_schema,
    random_instance,
    random_scheduled_program,
)


def declared_writes(program):
    symbols = set()
    for rule in program.rules:
        symbols |= rule_effects(rule, program.schema).writes
    return symbols


@contextmanager
def recorded_writes():
    """Patch the add-direction Instance mutators to log touched symbols."""
    observed = set()
    originals = {
        name: getattr(Instance, name)
        for name in (
            "add_relation_member",
            "add_class_member",
            "add_set_element",
            "assign",
        )
    }

    def record_relation(self, name, value):
        observed.add(name)
        return originals["add_relation_member"](self, name, value)

    def record_class(self, name, oid):
        observed.add(name)
        return originals["add_class_member"](self, name, oid)

    def record_set_element(self, oid, element):
        observed.add(plane(self.class_of(oid)))
        return originals["add_set_element"](self, oid, element)

    def record_assign(self, oid, value):
        observed.add(plane(self.class_of(oid)))
        return originals["assign"](self, oid, value)

    Instance.add_relation_member = record_relation
    Instance.add_class_member = record_class
    Instance.add_set_element = record_set_element
    Instance.assign = record_assign
    try:
        yield observed
    finally:
        for name, method in originals.items():
            setattr(Instance, name, method)


def assert_sound(program, instance, **evaluator_kwargs):
    declared = declared_writes(program)
    with recorded_writes() as observed:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            Evaluator(program, **evaluator_kwargs).run(instance)
    undeclared = observed - declared
    assert not undeclared, (
        f"evaluation wrote {sorted(undeclared)} but rules declare "
        f"only {sorted(declared)}"
    )
    return observed


# -- the 220-seed corpus -------------------------------------------------------------
#
# The same generator the differential sweeps use: recursion, negation,
# equalities, oid invention on a fifth of the seeds, an unstratifiable
# stage on a quarter (so the monolithic IQL601 fallback engine is
# instrumented too), and multi-stage splits half the time. Both the
# production engine and the reference engine run under instrumentation —
# soundness must hold for every execution strategy, not just one.


@pytest.mark.parametrize("seed", range(220))
def test_observed_writes_are_declared(seed):
    rng = random.Random(seed)
    schema = make_schema()
    program = random_scheduled_program(schema, rng, seed % 5 == 0, seed % 4 == 1)
    instance = random_instance(schema, rng)
    observed = assert_sound(program, instance.copy())
    assert_sound(program, instance.copy(), naive=True)
    # A derivation-free seed observes nothing; anything observed must be
    # declared (non-vacuity of the harness is pinned by the plane test).
    assert observed <= declared_writes(program)


# -- the value planes ----------------------------------------------------------------
#
# The random corpus never emits ``x̂(t)`` or ``x̂ = t`` heads, so the
# plane bookkeeping (footnote 6: those heads grow ν, not the extent) is
# pinned down by a deterministic program instead: set-element writes
# must surface as ^Q and weak assignments as ^T — and both must already
# be declared by the static effect sets.


def plane_schema():
    return Schema(
        relations={"S": columns(D)},
        classes={"T": tuple_of(a=D), "Q": set_of(D)},
    )


def plane_program(schema):
    x = Var("x", D)
    t = Var("t", classref("T"))
    q = Var("q", classref("Q"))
    rules = [
        Rule(atom(schema, "T", Var("p", classref("T"))), [atom(schema, "S", x)]),
        Rule(
            Equality(t.hat(), TupleTerm(a=x)),
            [atom(schema, "T", t), atom(schema, "S", x)],
        ),
        Rule(atom(schema, "Q", Var("r", classref("Q"))), [atom(schema, "S", x)]),
        Rule(
            Membership(q.hat(), x),
            [atom(schema, "Q", q), atom(schema, "S", x)],
        ),
    ]
    return Program(
        schema,
        rules=rules,
        input_names=["S"],
        output_names=["S", "T", "Q"],
    )


def test_plane_writes_are_declared():
    from repro.values import OTuple

    schema = plane_schema()
    program = plane_program(schema)
    instance = Instance(schema.project(["S"]))
    instance.add_relation_member("S", OTuple(A01="a"))
    observed = assert_sound(program, instance)
    # The ★ assignment and the set-element head actually fired — the
    # subset check above is not vacuously true for the planes.
    assert {"^T", "^Q", "T", "Q"} <= observed
    declared = declared_writes(program)
    assert {"^T", "^Q"} <= declared


def test_instrumentation_detects_an_undeclared_write():
    """The harness itself must be falsifiable: a write outside every
    declared set has to be caught, otherwise the 220-seed sweep proves
    nothing."""
    schema = make_schema()
    x, y = Var("x0", D), Var("x1", D)
    program = Program(
        schema,
        rules=[Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)])],
        input_names=["E", "U"],
        output_names=["T", "U"],
    )
    declared = declared_writes(program)
    assert declared == {"T"}
    from repro.values import OTuple

    instance = Instance(schema.project(["E", "U"]))
    instance.add_relation_member("E", OTuple(A01="a", A02="b"))
    with recorded_writes() as observed:
        result = Evaluator(program).run(instance)
        # Simulate a rogue write the static analysis never declared.
        result.full.add_relation_member("U", OTuple(A01="z"))
    assert "U" in observed - declared
