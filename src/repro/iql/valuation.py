"""Valuations, term evaluation and pattern matching (Section 3.2).

A *valuation* θ (given an instance I) is a partial map from variables to
o-values such that θx lies in the interpretation of x's type given π, and
the constants of θx come from constants(I). Valuations extend to terms:

* θR and θP are the current extensions of the relation/class,
* θx̂ is ν(θx) — the set of its ô(v) facts for set-valued oids, the ô = v
  value otherwise (undefined if ν is),
* set and tuple terms evaluate componentwise.

This module provides the two directions the evaluator needs:

* :func:`eval_term` — evaluate a term under (possibly partial) bindings;
  returns None when a variable is unbound or a dereference undefined,
* :func:`match` — extend bindings so that a term evaluates to a given
  value (the generator yields every such extension),
* :func:`solve_body` — enumerate all valuations of a rule body, literal
  by literal in *written order*: no statistics, no plan cache, no index.
  The enumeration fallback covers variables no literal can bind (the
  non-range-restricted case, e.g. the ``R1(X) ← X = X`` powerset program
  of Example 3.4.2).

:func:`solve_body` is the reference engine (``Evaluator(naive=True)``),
and the production engine runs it only for the rules that do not compile
(:mod:`repro.iql.compile`). The cost-based planner (:func:`plan_body`
with ``costed=True``, memoized by :func:`lookup_plan`) orders the
compiled kernels' joins; join order never changes the answer, so the
reference need not share it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError
from repro.iql.literals import Choose, Equality, Literal, Membership
from repro.iql.stats import FILTER_SELECTIVITY, Statistics
from repro.iql.terms import Const, Deref, NameTerm, SetTerm, Term, TupleTerm, Var
from repro.schema.instance import Instance
from repro.typesys.enumeration import enumerate_type
from repro.values.ovalues import Oid, OSet, OTuple, OValue, sort_key, sorted_elements

Bindings = Dict[Var, OValue]


def eval_term(term: Term, bindings: Bindings, instance: Instance) -> Optional[OValue]:
    """θt, or None if the term is not yet evaluable under ``bindings``."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return bindings.get(term)
    if isinstance(term, NameTerm):
        name = term.name
        if instance.schema.is_relation(name):
            return OSet(instance.relations[name])
        return OSet(instance.classes[name])
    if isinstance(term, Deref):
        oid = bindings.get(term.var)
        if oid is None:
            return None
        if not isinstance(oid, Oid):
            raise EvaluationError(f"{term.var.name!r} bound to non-oid {oid!r} in a dereference")
        return instance.value_of(oid)
    if isinstance(term, SetTerm):
        elements = []
        for sub in term.terms:
            v = eval_term(sub, bindings, instance)
            if v is None:
                return None
            elements.append(v)
        return OSet(elements)
    if isinstance(term, TupleTerm):
        fields = {}
        for attr, sub in term.fields:
            v = eval_term(sub, bindings, instance)
            if v is None:
                return None
            fields[attr] = v
        return OTuple(fields)
    raise EvaluationError(f"not a term: {term!r}")


def match(
    term: Term, value: OValue, bindings: Bindings, instance: Instance
) -> Iterator[Bindings]:
    """All extensions of ``bindings`` making ``term`` evaluate to ``value``.

    Variable bindings respect the valuation conditions: the value must
    belong to the variable's type interpretation given the current π (this
    is where class-typed variables refuse oids of other classes, and where
    union coercion in bodies is effectively decided). An *unbound*
    dereference scans the class.
    """
    if isinstance(term, Const):
        if term.value == value:
            yield bindings
        return
    if isinstance(term, Var):
        bound = bindings.get(term)
        if bound is not None:
            if bound == value:
                yield bindings
            return
        if instance.member_of(value, term.type):
            extended = dict(bindings)
            extended[term] = value
            yield extended
        return
    if isinstance(term, NameTerm):
        if eval_term(term, bindings, instance) == value:
            yield bindings
        return
    if isinstance(term, Deref):
        oid = bindings.get(term.var)
        if oid is not None:
            if instance.value_of(oid) == value:
                yield bindings
            return
        # Unbound dereference: find class oids whose value matches.
        class_name = term.var.type.name
        for candidate in sorted(instance.classes.get(class_name, ()), key=sort_key):
            if instance.value_of(candidate) == value:
                extended = dict(bindings)
                extended[term.var] = candidate
                yield extended
        return
    if isinstance(term, TupleTerm):
        if not isinstance(value, OTuple):
            return
        attrs = tuple(attr for attr, _ in term.fields)
        if attrs != value.attributes:
            return
        yield from _match_sequence(
            [(sub, value[attr]) for attr, sub in term.fields], bindings, instance
        )
        return
    if isinstance(term, SetTerm):
        if not isinstance(value, OSet):
            return
        if not term.terms:
            if len(value) == 0:
                yield bindings
            return
        if len(value) == 0:
            return  # a non-empty list of terms always denotes ≥ 1 element
        elements = sorted_elements(value)
        seen = set()
        for assignment in _set_assignments(len(term.terms), elements):
            for extended in _match_sequence(
                list(zip(term.terms, assignment)), bindings, instance
            ):
                # The term set must equal the value exactly (cover check).
                result = eval_term(term, extended, instance)
                if result == value:
                    key = tuple(sorted((v.name, repr(extended[v])) for v in term.variables()))
                    if key not in seen:
                        seen.add(key)
                        yield extended
        return
    raise EvaluationError(f"not a term: {term!r}")


def _match_sequence(
    pairs: List[Tuple[Term, OValue]], bindings: Bindings, instance: Instance
) -> Iterator[Bindings]:
    if not pairs:
        yield bindings
        return
    (term, value), rest = pairs[0], pairs[1:]
    for extended in match(term, value, bindings, instance):
        yield from _match_sequence(rest, extended, instance)


def _set_assignments(k: int, elements: List[OValue]) -> Iterator[Tuple[OValue, ...]]:
    """All ways to assign ``k`` term slots to elements (onto not required
    here; the cover check in :func:`match` enforces exact equality)."""
    if k == 0:
        yield ()
        return
    for first in elements:
        for rest in _set_assignments(k - 1, elements):
            yield (first,) + rest


# -- literal satisfaction under full bindings ------------------------------------


def satisfies(literal: Literal, bindings: Bindings, instance: Instance) -> bool:
    """I ⊨ θ[literal], for θ defined on all the literal's variables."""
    if isinstance(literal, Choose):
        return True  # handled by the evaluator's invention machinery
    if isinstance(literal, Membership):
        if isinstance(literal.container, NameTerm):
            # Fast path: test against the stored extension instead of
            # materializing it as an OSet — this is what makes a
            # fully-bound relation membership a unit-cost filter step.
            element = eval_term(literal.element, bindings, instance)
            if element is None:
                return False
            name = literal.container.name
            members = (
                instance.relations[name]
                if instance.schema.is_relation(name)
                else instance.classes[name]
            )
            return (element in members) == literal.positive
        container = eval_term(literal.container, bindings, instance)
        element = eval_term(literal.element, bindings, instance)
        if container is None or element is None:
            return False
        if not isinstance(container, OSet):
            raise EvaluationError(
                f"membership against non-set value {container!r} in {literal!r}"
            )
        return (element in container) == literal.positive
    if isinstance(literal, Equality):
        left = eval_term(literal.left, bindings, instance)
        right = eval_term(literal.right, bindings, instance)
        if left is None or right is None:
            return False
        return (left == right) == literal.positive
    raise EvaluationError(f"unknown literal {literal!r}")


# -- body solving: the planner ------------------------------------------------------
#
# A *plan* is a tuple of steps, each one of
#
#   ("filter", lit)              check a fully-bound literal,
#   ("member", lit, probes)      branch on a positive membership; ``probes``
#                                is a tuple of (attr, subterm) pairs usable
#                                as hash-index probes, or () for a scan,
#   ("equal", lit, left_known)   branch on a positive equality, evaluating
#                                the known side and matching the other,
#   ("enum", var)                enumerate one variable's type interpretation.
#
# The plan depends only on the body and the set of initially-bound
# variables (each generator step binds exactly its literal's variables, so
# the bound set evolves deterministically along the plan).
#
# The cost-based planner (``costed=True``, the compiled kernels') scores
# every candidate with the cardinality statistics of :mod:`repro.iql.stats`:
# a probe costs its estimated bucket (size/NDV per probed attribute), a
# scan its container size, equalities their pattern's branching factor —
# and the running estimate of the intermediate result size multiplies into
# every later step, so join cardinality propagates along the partial plan.
# Its plans are memoized per (body, bound-set) in the rule's plan cache
# (:func:`lookup_plan`) and re-costed once an extension they were costed
# on has grown or shrunk :data:`REPLAN_GROWTH`-fold (:meth:`Plan.is_stale`).
# The written-order planner (``costed=False``, the reference's) takes the
# first literal that can generate and scans. Estimates affect speed, never
# the solution set: every literal is still checked on every valuation.


def _tuple_probes(element: Term, bound: Set[Var]) -> Tuple[Tuple[str, Term], ...]:
    """Top-level tuple components evaluable under ``bound`` — index probes."""
    if not isinstance(element, TupleTerm):
        return ()
    return tuple(
        (attr, sub)
        for attr, sub in element.fields
        if all(v in bound for v in sub.variables())
    )


def _contains_set_term(term: Term) -> bool:
    if isinstance(term, SetTerm):
        return True
    if isinstance(term, TupleTerm):
        return any(_contains_set_term(sub) for _, sub in term.fields)
    return False


class Plan(tuple):
    """A step sequence plus what the planner knew when it costed it.

    Behaves exactly like the plain step tuple it used to be (indexing,
    iteration, hashing), with two attributes on the side:

    * ``estimates`` — per-step estimated intermediate cardinality (rows
      *out* of each step, join-propagated),
    * ``basis`` — ``(name, is_relation, size)`` for every relation or
      class extension a generator step reads, as sized at costing time.
    """

    estimates: Tuple[float, ...]
    basis: Tuple[Tuple[str, bool, int], ...]

    def is_stale(self, instance: Instance) -> bool:
        """Has some extension of :attr:`basis` grown or shrunk at least
        :data:`REPLAN_GROWTH`-fold in ``instance`` (sizes floored at 1)?"""
        for name, is_relation, then in self.basis:
            now = len(instance.relations[name] if is_relation else instance.classes[name])
            then, now = max(then, 1), max(now, 1)
            if now >= then * REPLAN_GROWTH or then >= now * REPLAN_GROWTH:
                return True
        return False


def _candidate(
    lit: Literal,
    bound: Set[Var],
    instance: Instance,
    statistics: Optional[Statistics],
):
    """(work, fan-out, step) if ``lit`` can generate under ``bound``, or None.

    Work estimates candidates *examined* per input row (a probe examines
    its smallest bucket, a scan the whole container); fan-out estimates
    rows *produced* per input row (a multi-attribute probe intersects, so
    its fan-out can be far below its work). Without ``statistics`` (the
    written-order planner) a membership scans and both estimates are 1.
    """
    if isinstance(lit, Membership) and lit.positive:
        container = lit.container
        if not all(v in bound for v in container.variables()):
            return None
        if statistics is None:
            return (1.0, 1.0, ("member", lit, ()))
        if isinstance(container, NameTerm):
            name = container.name
            if instance.schema.is_relation(name):
                probes = _tuple_probes(lit.element, bound)
                if probes:
                    work, fanout = statistics.bucket_estimate(
                        name, tuple(attr for attr, _ in probes)
                    )
                    return (work, fanout, ("member", lit, probes))
                size = float(len(instance.relations[name]))
                return (size, size, ("member", lit, ()))
            size = float(len(instance.classes[name]))
            return (size, size, ("member", lit, ()))
        width = statistics.container_width(container)
        return (width, width, ("member", lit, ()))
    if isinstance(lit, Equality) and lit.positive:
        left_known = all(v in bound for v in lit.left.variables())
        right_known = all(v in bound for v in lit.right.variables())
        if left_known or right_known:
            known, pattern = (
                (lit.left, lit.right) if left_known else (lit.right, lit.left)
            )
            if statistics is not None and _contains_set_term(pattern):
                branching = statistics.set_branching(pattern, known)
            else:
                branching = 1.0
            return (branching, branching, ("equal", lit, left_known))
    return None


#: Estimates never fall to zero entirely (a chosen step costs ≥ a lookup).
EST_FLOOR = 0.125

#: Ceiling on the propagated intermediate-size estimate (overflow guard).
EST_CEILING = 1e18

#: A cached plan is re-costed once some extension it was costed on has
#: grown or shrunk this many times over (:meth:`Plan.is_stale`).
REPLAN_GROWTH = 10


def plan_body(
    literals: Sequence[Literal],
    bound_vars: FrozenSet[Var],
    instance: Instance,
    costed: bool = True,
) -> Plan:
    """The step sequence for ``literals`` with ``bound_vars`` pre-bound.

    1. Literals become filters as soon as their variables are bound.
    2. Otherwise a generator goes next. With ``costed`` (the compiled
       kernels') each candidate is scored ``est_in * (work + fan-out)``
       against the live cardinality statistics, with ``est_in`` the
       estimated intermediate result size propagated along the partial
       plan — so a selective 50-row scan beats an unselective probe into
       a huge skewed bucket — and the cheapest goes next. With
       ``costed=False`` (the reference's written order) the first literal
       in body order that can generate goes next, as a scan: a positive
       membership whose container is bound, or a positive equality with
       one side bound. It reads no statistics and builds no index.
    3. When nothing can generate, the first unbound variable by name is
       enumerated.
    """
    steps: List[tuple] = []
    estimates: List[float] = []
    est = 1.0
    statistics = Statistics(instance) if costed else None
    remaining = list(literals)
    bound: Set[Var] = set(bound_vars)
    while remaining:
        # 1. Fully-bound literals become filters immediately, in body
        # order. One pass partitions by position — no structural-equality
        # membership tests, no quadratic list rebuild.
        generators: List[Literal] = []
        found_filter = False
        for lit in remaining:
            if all(v in bound for v in lit.variables()):
                steps.append(("filter", lit))
                est *= FILTER_SELECTIVITY
                estimates.append(est)
                found_filter = True
            else:
                generators.append(lit)
        remaining = generators
        if found_filter or not remaining:
            continue
        # 2. The cheapest (or, in written order, the first) processable
        # generator goes next.
        chosen = None
        best_cost = None
        for position, lit in enumerate(remaining):
            candidate = _candidate(lit, bound, instance, statistics)
            if candidate is None:
                continue
            work, fanout, step = candidate
            cost = est * (work + fanout)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                chosen = (position, step, fanout)
            if statistics is None:
                break
        if chosen is not None:
            position, step, fanout = chosen
            lit = remaining.pop(position)
            steps.append(step)
            est = min(est * max(fanout, EST_FLOOR), EST_CEILING)
            estimates.append(est)
            bound |= lit.variables()
            continue
        # 3. Dead end: enumerate the type interpretation of one unbound var
        # (restricted to constants(I) — the valuation definition makes this
        # the exact search space). Deterministic choice: first by name.
        unbound = sorted(
            {v for lit in remaining for v in lit.variables() if v not in bound},
            key=lambda v: v.name,
        )
        if not unbound:  # pragma: no cover - step 1 would have consumed these
            raise EvaluationError(f"stuck with fully bound literals: {remaining!r}")
        var = unbound[0]
        steps.append(("enum", var))
        est = min(est * max(1.0, float(len(instance.sorted_constants()))), EST_CEILING)
        estimates.append(est)
        bound.add(var)
    plan = Plan(steps)
    plan.estimates = tuple(estimates)
    basis: Dict[str, Tuple[str, bool, int]] = {}
    for step in steps:
        if step[0] == "member" and isinstance(step[1].container, NameTerm):
            name = step[1].container.name
            if instance.schema.is_relation(name):
                basis[name] = (name, True, len(instance.relations[name]))
            else:
                basis[name] = (name, False, len(instance.classes[name]))
    plan.basis = tuple(basis.values())
    return plan


def lookup_plan(
    literals: Tuple[Literal, ...],
    bound0: FrozenSet[Var],
    instance: Instance,
    plan_cache: Optional[Dict] = None,
    stats=None,
) -> Plan:
    """The memoized cost-based plan for ``literals`` with ``bound0``
    pre-bound — the rule compiler's (:mod:`repro.iql.compile`).

    ``stats`` records the hit/miss per lookup. A hit whose plan is stale
    for ``instance`` (:meth:`Plan.is_stale`) is re-costed against
    ``instance`` and replaced (``stats.plan_replans``).
    """
    plan: Optional[Plan] = None
    key = (literals, bound0)
    if plan_cache is not None:
        plan = plan_cache.get(key)
        if stats is not None:
            if plan is None:
                stats.plan_cache_misses += 1
            else:
                stats.plan_cache_hits += 1
        if plan is not None and plan.is_stale(instance):
            plan = None
            if stats is not None:
                stats.plan_replans += 1
    if plan is None:
        plan = plan_body(literals, bound0, instance)
        if stats is not None:
            stats.plans_costed += 1
        if plan_cache is not None:
            plan_cache[key] = plan
    return plan


def solve_body(
    body: Sequence[Literal],
    instance: Instance,
    enumeration_budget: int = 100_000,
    initial: Optional[Bindings] = None,
) -> Iterator[Bindings]:
    """All valuations θ of the body's variables with I ⊨ θ(body).

    The literal order is written order (:func:`plan_body` with
    ``costed=False``), planned afresh per call: no statistics, no plan
    cache, no index. Negative literals are only ever used as filters, as
    inflationary Datalog¬ requires.
    """
    literals = tuple(lit for lit in body if not isinstance(lit, Choose))
    bindings0 = dict(initial or {})
    plan = plan_body(literals, frozenset(bindings0), instance, costed=False)

    def run(step_index: int, bindings: Bindings) -> Iterator[Bindings]:
        if step_index == len(plan):
            yield dict(bindings)
            return
        step = plan[step_index]
        kind = step[0]
        if kind == "filter":
            if satisfies(step[1], bindings, instance):
                yield from run(step_index + 1, bindings)
            return
        if kind == "member":
            lit = step[1]
            if isinstance(lit.container, NameTerm):
                name = lit.container.name
                if instance.schema.is_relation(name):
                    members = list(instance.relations[name])
                else:
                    members = list(instance.classes[name])
            else:
                container = eval_term(lit.container, bindings, instance)
                if container is None:
                    return  # undefined dereference: no facts to match
                if not isinstance(container, OSet):
                    raise EvaluationError(
                        f"membership against non-set value {container!r} in {lit!r}"
                    )
                members = list(container)
            for element in members:
                for extended in match(lit.element, element, bindings, instance):
                    yield from run(step_index + 1, extended)
            return
        if kind == "equal":
            lit, left_known = step[1], step[2]
            known, pattern = (
                (lit.left, lit.right) if left_known else (lit.right, lit.left)
            )
            value = eval_term(known, bindings, instance)
            if value is None:
                return  # undefined dereference: unsatisfiable
            for extended in match(pattern, value, bindings, instance):
                yield from run(step_index + 1, extended)
            return
        # kind == "enum"
        var = step[1]
        for value in enumerate_type(
            var.type,
            instance.sorted_constants(),
            instance.classes,
            budget=enumeration_budget,
        ):
            extended = dict(bindings)
            extended[var] = value
            yield from run(step_index + 1, extended)

    yield from run(0, bindings0)
