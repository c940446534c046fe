"""Effects soundness: observed runtime writes ⊆ declared ``RuleEffects`` writes.

The certified schedule of :mod:`repro.analysis.depgraph` (which strata
run apart, and in which order) and the IQL7xx maintenance cones of
:mod:`repro.analysis.impact` (which strata an update replays) rest on
one premise: the static write sets of
:func:`repro.analysis.effects.rule_effects` over-approximate everything
evaluation actually mutates. This file checks that premise
dynamically: every add-direction
:class:`~repro.schema.instance.Instance` mutator, the single-fact ones
and the trusted bulk ones the engine calls directly, is instrumented to
record the symbol it touches (relation name, class extent name, or the
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


def _named(self, name, *_):
    return name


def _plane_of(self, oid, *_):
    return plane(self.class_of(oid))


#: Every add-direction Instance mutator and the symbol a call touches. The
#: single-fact mutators delegate to the bulk ones, so a call through one of
#: them is recorded twice, under the same symbol.
ADD_MUTATORS = {
    "add_relation_member": _named,
    "add_relation_members": _named,
    "add_class_member": _named,
    "add_set_element": _plane_of,
    "add_set_elements": _plane_of,
    "assign": _plane_of,
}


@contextmanager
def recorded_writes():
    """Patch the add-direction Instance mutators to log touched symbols."""
    observed = set()
    originals = {name: getattr(Instance, name) for name in ADD_MUTATORS}

    def recording(name):
        original, symbol_of = originals[name], ADD_MUTATORS[name]

        def record(self, *args):
            observed.add(symbol_of(self, *args))
            return original(self, *args)

        return record

    for name in ADD_MUTATORS:
        setattr(Instance, name, recording(name))
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


def test_every_add_mutator_is_instrumented():
    """A new add-direction mutator the harness does not wrap would make
    its writes invisible to every check in this file."""
    adders = {name for name in vars(Instance) if name.startswith("add_")}
    assert adders | {"assign"} == set(ADD_MUTATORS)


def test_seminaive_writes_are_observed():
    """A semi-naive round inserts through the bulk mutator only, so its
    head relation shows up in ``observed`` only if that mutator is
    instrumented."""
    from repro.values import OTuple

    schema = make_schema()
    x, y, z = Var("x0", D), Var("x1", D), Var("x2", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(atom(schema, "T", x, z), [atom(schema, "T", x, y), atom(schema, "E", y, z)]),
        ],
        input_names=["E"],
        output_names=["T"],
    )
    instance = Instance(schema.project(["E"]))
    for a, b in (("a", "b"), ("b", "c"), ("c", "d")):
        instance.add_relation_member("E", OTuple(A01=a, A02=b))
    with recorded_writes() as observed:
        result = Evaluator(program).run(instance)
    assert len(result.output.relations["T"]) == 6
    assert result.stats.steps >= 3  # the recursive stratum ran its rounds
    assert "T" in observed


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
