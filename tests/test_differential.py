"""Differential tests: the production engine against the reference engine.

``Evaluator(naive=True)`` is the executable specification — a direct
transcription of the paper's inflationary one-step operator that joins
each body in written order, with no statistics, plan cache or index. The production engine (certified scheduling,
semi-naive rounds, compiled rules, cost-based planning) must agree with
it on *every* program: exactly (ground facts) when the program is
invention-free, up to O-isomorphism when it invents oids (invented
identities are fresh by construction, so only the shape is determined —
Section 4.1; this is the oid-equivalence of Bonifati et al.).

The generator below emits random programs over a fixed schema —
recursive positive atoms, fully-bound negation, equalities, constants,
and (in a fifth of the seeds) oid invention — and random small input
instances. Each sweep runs 220 seeds in a few seconds.
"""

import random

import pytest

import repro.iql.valuation as valuation
from repro.iql import Evaluator, Program, Rule, Var, atom, columns
from repro.iql.literals import Equality
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D, classref, tuple_of
from repro.values import OTuple

CONSTS = ["a", "b", "c"]


def make_schema():
    return Schema(
        relations={
            "E": columns(D, D),
            "T": columns(D, D),
            "U": columns(D),
            "TC": columns(D, classref("C")),
        },
        classes={"C": tuple_of(a=D)},
    )


def random_program(schema, rng, allow_invention):
    """A random single-stage program: heads into T/U/TC, bodies over E/T/U."""
    variables = [Var(f"x{i}", D) for i in range(4)]
    rules = []
    for _ in range(rng.randint(1, 3)):
        body = []
        bound = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(["E", "E", "T", "U"])
            if name == "U":
                v = rng.choice(variables)
                body.append(atom(schema, "U", v))
                bound.append(v)
            else:
                v1, v2 = rng.choice(variables), rng.choice(variables)
                body.append(atom(schema, name, v1, v2))
                bound.extend([v1, v2])
        if rng.random() < 0.4:  # fully-bound negative literal
            name = rng.choice(["E", "T", "U"])
            if name == "U":
                body.append(atom(schema, "U", rng.choice(bound), positive=False))
            else:
                body.append(
                    atom(
                        schema, name, rng.choice(bound), rng.choice(bound),
                        positive=False,
                    )
                )
        if rng.random() < 0.3:  # equality filter between bound variables
            left, right = rng.choice(bound), rng.choice(bound)
            body.append(Equality(left, right, positive=rng.random() < 0.8))
        if allow_invention and rng.random() < 0.5:
            head = atom(
                schema, "TC", rng.choice(bound), Var("p", classref("C"))
            )
        elif rng.random() < 0.5:
            head = atom(schema, "T", rng.choice(bound), rng.choice(bound))
        else:
            head = atom(schema, "U", rng.choice(bound))
        rules.append(Rule(head, body))
    return Program(
        schema,
        rules=rules,
        input_names=["E", "U"],
        output_names=["T", "U", "TC", "C"],
    )


def random_instance(schema, rng):
    instance = Instance(schema.project(["E", "U"]))
    for _ in range(rng.randint(1, 6)):
        instance.add_relation_member(
            "E", OTuple(A01=rng.choice(CONSTS), A02=rng.choice(CONSTS))
        )
    for _ in range(rng.randint(0, 2)):
        instance.add_relation_member("U", OTuple(A01=rng.choice(CONSTS)))
    return instance


def random_case(seed, scheduled=False):
    """A fresh (program, instance) pair for ``seed``.

    Every call builds new rules, so plan and kernel caches start cold;
    ``scheduled`` draws from :func:`random_scheduled_program` instead of
    the single-stage :func:`random_program` corpus.
    """
    rng = random.Random(seed)
    schema = make_schema()
    allow_invention = seed % 5 == 0
    if scheduled:
        unstratified = seed % 4 == 1
        program = random_scheduled_program(schema, rng, allow_invention, unstratified)
    else:
        program = random_program(schema, rng, allow_invention)
    return program, random_instance(schema, rng)


def assert_agree(program, left, right, seed):
    """Exact agreement for invention-free programs, O-isomorphism otherwise."""
    if all(rule.is_invention_free() for rule in program.rules):
        assert left == right, f"seed {seed}: exact disagreement"
    else:
        assert are_o_isomorphic(left, right), f"seed {seed}: not O-isomorphic"


# -- production vs reference -----------------------------------------------------------
#
# Two corpora: the single-stage random programs above, and the scheduled
# corpus below. In the latter a quarter of the seeds inject a
# negation-through-recursion rule so the IQL601 fallback path (a
# monolithic stage) is exercised, and the rule lists are split into two
# stages half the time so cross-stage liveness and per-stage scheduling
# both run. Neither corpus contains a compile-fallback construct, so
# every rule must actually compile — a silent per-rule fallback would
# still pass the equivalence check but not the counters.


def random_scheduled_program(schema, rng, allow_invention, unstratified):
    program = random_program(schema, rng, allow_invention)
    rules = list(program.rules)
    if unstratified:
        x, y = Var("x0", D), Var("x1", D)
        rules.append(
            Rule(
                atom(schema, "T", x, y),
                [atom(schema, "E", x, y), atom(schema, "T", y, x, positive=False)],
            )
        )
    if len(rules) > 1 and rng.random() < 0.5:
        split = rng.randrange(1, len(rules))
        stages = [rules[:split], rules[split:]]
        return Program(
            schema,
            stages=stages,
            input_names=program.input_names,
            output_names=program.output_names,
        )
    return Program(
        schema,
        rules=rules,
        input_names=program.input_names,
        output_names=program.output_names,
    )


def run_production_differential(seed, scheduled=True):
    import warnings

    from repro.analysis import PreflightWarning

    program, instance = random_case(seed, scheduled)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = Evaluator(program).run(instance.copy())
    reference = Evaluator(program, naive=True).run(instance.copy()).output
    if scheduled and seed % 4 == 1:
        # The injected rule makes some stage IQL601-unstratifiable: the
        # scheduler must fall back with a PreflightWarning, not schedule.
        assert result.stats.schedule_fallbacks >= 1, (
            f"seed {seed}: expected an IQL601 fallback"
        )
        assert any(
            issubclass(w.category, PreflightWarning) and "IQL601" in str(w.message)
            for w in caught
        ), f"seed {seed}: missing the IQL601 PreflightWarning"
    assert result.stats.rules_interpreted == 0, (
        f"seed {seed}: unexpected compile fallback "
        f"{result.stats.compile_fallback_reasons}"
    )
    assert result.stats.rules_compiled == len(program.rules), f"seed {seed}"
    assert_agree(program, result.output, reference, seed)


@pytest.mark.parametrize("seed", range(220))
def test_scheduled_engine_matches_reference(seed):
    run_production_differential(seed)


@pytest.mark.parametrize("seed", range(220))
def test_compiled_engine_matches_reference(seed):
    run_production_differential(seed, scheduled=False)


# -- the production fallback -----------------------------------------------------------
#
# Rules outside the compilable fragment (choose, unbound dereferences,
# set patterns of two or more terms) run on the reference interpreter
# inside the production γ1 loop, under the scheduler; a semi-naive
# stratum whose kernels refuse hands over to that loop. No corpus
# program has such a rule, so refusing to compile anything is the only
# way to drive every corpus program down that path, through the same
# CompileFallback bookkeeping.


def run_interpreted_differential(seed, monkeypatch):
    import warnings

    from repro.iql import compile as compile_module

    def refuse(*args, **kwargs):
        raise compile_module.CompileFallback("refused")

    program, instance = random_case(seed)
    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # IQL601 fallbacks are expected
        patch.setattr(compile_module, "compile_rule", refuse)
        patch.setattr(compile_module, "compile_seminaive", refuse)
        result = Evaluator(program).run(instance.copy())
    reference = Evaluator(program, naive=True).run(instance.copy()).output
    assert result.stats.rules_compiled == 0, f"seed {seed}"
    assert result.stats.rules_interpreted == len(program.rules), f"seed {seed}"
    assert_agree(program, result.output, reference, seed)


@pytest.mark.parametrize("seed", range(220))
def test_optimized_engine_matches_reference(seed, monkeypatch):
    run_interpreted_differential(seed, monkeypatch)


# -- the adaptive planner --------------------------------------------------------------
#
# Join order is the one thing the planner may change, so the sharpest
# oracle is the same engine under static plans: every plan costed
# against the empty input — no statistics, so the order falls out of the
# body's shape alone — and never re-costed (REPLAN_GROWTH = inf). On
# about two seeds in five that order differs from the one costed on the
# data. The second sweep sets REPLAN_GROWTH = 1.0: every plan lookup
# re-costs and every kernel fetch recompiles, the adversarial schedule.


def run_planner_differential(seed, monkeypatch, growth=valuation.REPLAN_GROWTH, scheduled=False):
    import math
    import warnings

    static_program, instance = random_case(seed, scheduled)
    costed_program, _ = random_case(seed, scheduled)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        monkeypatch.setattr(valuation, "REPLAN_GROWTH", math.inf)
        static_engine = Evaluator(static_program)
        static_engine.run(Instance(static_program.input_schema))
        static = static_engine.run(instance.copy()).output
        monkeypatch.setattr(valuation, "REPLAN_GROWTH", growth)
        costed = Evaluator(costed_program).run(instance.copy())
    assert costed.stats.rules_interpreted == 0, (
        f"seed {seed}: unexpected compile fallback "
        f"{costed.stats.compile_fallback_reasons}"
    )
    assert_agree(costed_program, costed.output, static, seed)


@pytest.mark.parametrize("seed", range(220))
def test_costed_planner_matches_static(seed, monkeypatch):
    run_planner_differential(seed, monkeypatch)


@pytest.mark.parametrize("seed", range(220))
def test_forced_replanning_matches_static(seed, monkeypatch):
    run_planner_differential(seed, monkeypatch, growth=1.0, scheduled=True)
