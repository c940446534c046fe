"""Cardinality statistics and the adaptive-planning feedback loop.

The paper's closing remark — IQL "is a good candidate for conventional
database optimizations" — licensed the indexes (PR 2), the semi-naive
deltas and the compiled kernels; this module supplies the *optimizer
statistics* that turn the body planner of :mod:`repro.iql.valuation` from
a static rank heuristic into a cost model. It has two halves:

**Statistics** (:class:`Statistics`) answers the planner's cardinality
questions about one instance:

* per-relation / per-class sizes — read straight off the live extension
  sets, so they are exact and free,
* per-attribute distinct-value counts (NDV) — ``len`` of the lazy
  projection indexes of :class:`~repro.iql.indexes.InstanceIndexes`.
  Because those indexes are maintained incrementally through the four
  insert mutators *and* the removal mutators (PR 7), NDV stays warm under
  arbitrary mutation — including :meth:`MaterializedProgram.apply_delta`
  batches — without any separate bookkeeping: the statistic *is* the
  index,
* average dereference width per class (the mean ``|ν(o)|`` over oids with
  set values) — the estimate for scanning a ``x̂`` container,
* set-pattern branching factors — ``width ** k`` for a k-slot set pattern
  instead of the old hard-coded 64.

Rewriting a body's join order is answer-preserving (every literal is still
checked on every valuation; Bonifati et al.'s equivalence results for
object-creating conjunctive queries are the semantic license), so the
planner may consume these numbers aggressively: estimates affect speed,
never the solution set.

**Feedback** (:func:`check_drift`) closes the loop at run time. Cost-based
plans (:class:`~repro.iql.valuation.Plan`) carry their per-step estimates
and a row-counter array that both the interpreter and the compiled kernels
maintain; between fixpoint rounds the evaluator calls :func:`check_drift`,
which compares observed per-step fan-out against the estimate. When they
disagree by ≥ ``replan_ratio`` (default 10×), the plan is evicted from the
rule's plan cache, its compiled kernels are invalidated, and the observed
fan-outs are recorded in ``Rule.feedback_cache`` so the *next* planning of
the same (body, bound-set) costs those steps with measured reality instead
of the model. Replanning is double-bounded: the feedback store is a
:class:`~repro.caches.BoundedDict` like the plan cache, and each plan key
replans at most :data:`MAX_REPLANS` times, so a workload whose fan-out
genuinely oscillates settles on its last plan instead of thrashing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.iql.terms import Deref, SetTerm, Term, TupleTerm
from repro.values.ovalues import OSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (valuation → stats)
    from repro.iql.valuation import Plan
    from repro.schema.instance import Instance

#: Fan-out assumed for a dereference container when the class has no
#: set-valued members to average over (and for use_indexes=False planning,
#: which must not touch the index layer).
DEFAULT_DEREF_WIDTH = 8.0

#: Elements assumed per matched set value when no class statistic applies
#: (the branching base for set-pattern equalities).
DEFAULT_SET_WIDTH = 4.0

#: Fraction of rows assumed to survive a fully-bound filter literal.
FILTER_SELECTIVITY = 0.5

#: Hard cap on replans per plan-cache key: after this many rounds of
#: feedback the last plan sticks, so oscillating fan-outs cannot thrash
#: the compiler (the feedback store itself is a BoundedDict on the rule).
MAX_REPLANS = 4

#: Minimum observed rows (into + out of a step) before its fan-out counts
#: as evidence for drift. Ratios at or below 1.0 ("replan whenever the
#: estimate is not exact" — the forced-replan test mode) accept any
#: non-empty observation instead.
MIN_EVIDENCE = 16

#: Additive smoothing for fan-out ratios, so bucket estimates below one
#: row do not manufacture infinite drift.
_SMOOTH = 0.125

#: Plan-step kinds that generate rows (and therefore maintain row counts).
GENERATOR_KINDS = ("member", "equal")


class Statistics:
    """Cardinality statistics of one instance, piggybacked on its indexes.

    Stateless by construction: every answer is derived from the live
    extension sets and the incrementally-maintained
    :class:`~repro.iql.indexes.InstanceIndexes`, so there is nothing to
    refresh and nothing that can go stale — mutations (inserts, PR-7
    removals, IVM delta batches) update the underlying structures and the
    statistics follow. The only write this class ever causes is the lazy
    first build of a projection index it is asked an NDV question about,
    which is the same scan a probe of that attribute would pay anyway.
    """

    __slots__ = ("instance",)

    def __init__(self, instance: "Instance"):
        self.instance = instance

    # -- cardinalities -----------------------------------------------------------

    def relation_size(self, name: str) -> int:
        return len(self.instance.relations[name])

    def class_size(self, name: str) -> int:
        return len(self.instance.classes.get(name, ()))

    def ndv(self, name: str, attr: str) -> int:
        """Distinct values of ``attr`` among relation ``name``'s tuples."""
        return self.instance.indexes.ndv(name, attr)

    # -- derived estimates -------------------------------------------------------

    def bucket_estimate(self, name: str, attrs: Tuple[str, ...]) -> Tuple[float, float]:
        """(work, fan-out) of probing relation ``name`` on ``attrs``.

        Work is the expected candidate count of the *smallest* probed
        bucket (the runtime probes every attribute and scans the smallest);
        fan-out is the expected surviving rows under independence — size
        times ``1/NDV`` per probed attribute, floored just above zero so a
        perfectly selective probe still costs one lookup.
        """
        size = float(self.relation_size(name))
        if size == 0.0:
            return 0.0, 0.0
        best_ndv = 1
        fanout = size
        for attr in attrs:
            n = self.ndv(name, attr)
            if n > best_ndv:
                best_ndv = n
            fanout /= max(1, n)
        work = size / best_ndv
        return max(work, _SMOOTH), max(fanout, _SMOOTH)

    def deref_width(self, class_name: str) -> float:
        """Mean ``|ν(o)|`` over the class's set-valued oids (scan estimate)."""
        instance = self.instance
        total = 0
        counted = 0
        for oid in instance.classes.get(class_name, ()):
            value = instance.nu.get(oid)
            if isinstance(value, OSet):
                total += len(value)
                counted += 1
        if counted == 0:
            return DEFAULT_DEREF_WIDTH
        return max(total / counted, _SMOOTH)

    def container_width(self, container: Term, use_indexes: bool) -> float:
        """Estimated element count of a non-name membership container."""
        if isinstance(container, SetTerm):
            return float(max(len(container.terms), 1))
        if isinstance(container, Deref) and use_indexes:
            class_name = getattr(container.var.type, "name", None)
            if class_name is not None:
                return self.deref_width(class_name)
        return DEFAULT_DEREF_WIDTH

    def set_branching(self, pattern: Term, known: Optional[Term], use_indexes: bool) -> float:
        """Match extensions of an equality whose pattern contains set terms.

        A k-slot set pattern matched against a set of width s branches over
        s**k slot assignments; s comes from the known side's class when it
        is a dereference (the common ``x̂ = {y, z}`` shape), else defaults.
        The old planner hard-coded 64 here regardless of the pattern.
        """
        width = DEFAULT_SET_WIDTH
        if isinstance(known, Deref) and use_indexes:
            class_name = getattr(known.var.type, "name", None)
            if class_name is not None:
                width = max(self.deref_width(class_name), 1.0)
        branching = 1.0
        for k in _set_slot_counts(pattern):
            branching *= max(width, 1.0) ** k
        return max(branching, 1.0)


def _set_slot_counts(term: Term) -> Iterator[int]:
    if isinstance(term, SetTerm):
        yield len(term.terms)
        for sub in term.terms:
            yield from _set_slot_counts(sub)
    elif isinstance(term, TupleTerm):
        for _, sub in term.fields:
            yield from _set_slot_counts(sub)


# -- the runtime feedback loop -------------------------------------------------


def _segments(plan: "Plan") -> Iterator[Tuple[int, int, int, float, float]]:
    """(generator step, obs_in, obs_out, est_in, est_out) per counted segment.

    Row counters exist at generator steps and at the sink; a segment runs
    from one counted checkpoint to the next, so its observed and estimated
    fan-outs both include any filter steps in between (the estimates chain
    applies :data:`FILTER_SELECTIVITY` at the same places).
    """
    estimates = plan.estimates
    counts = plan.counts
    points = [i for i, step in enumerate(plan) if step[0] in GENERATOR_KINDS]
    points.append(len(plan))
    for j in range(len(points) - 1):
        i, nxt = points[j], points[j + 1]
        est_in = estimates[i - 1] if i > 0 else 1.0
        est_out = estimates[nxt - 1]
        yield i, counts[i], counts[nxt], est_in, est_out


def drifted_segments(plan: "Plan", ratio: float) -> List[Tuple[int, float]]:
    """(generator step, observed fan-out) for segments off by ≥ ``ratio``."""
    out: List[Tuple[int, float]] = []
    min_evidence = 1 if ratio <= 1.0 else MIN_EVIDENCE
    for i, obs_in, obs_out, est_in, est_out in _segments(plan):
        if obs_in <= 0 or obs_in + obs_out < min_evidence:
            continue
        obs_f = obs_out / obs_in
        est_f = est_out / max(est_in, 1e-9)
        r = max(
            (obs_f + _SMOOTH) / (est_f + _SMOOTH),
            (est_f + _SMOOTH) / (obs_f + _SMOOTH),
        )
        if r >= ratio:
            out.append((i, obs_f))
    return out


def observed_fanouts(plan: "Plan") -> Dict[tuple, float]:
    """Every measured generator fan-out, keyed for the planner's reuse.

    The key is (literal, bound-set before the step): a replanned body
    consulting the feedback hits it exactly when it considers the same
    literal at a point where the same variables are bound — the situation
    in which the measurement is meaningful.
    """
    out: Dict[tuple, float] = {}
    for i, obs_in, obs_out, _, _ in _segments(plan):
        if obs_in <= 0:
            continue
        step = plan[i]
        out[(step[1], plan.bound_before[i])] = obs_out / obs_in
    return out


def check_drift(rules, stats, ratio: float = 10.0) -> int:
    """Replan every cached plan whose estimates drifted ≥ ``ratio``.

    For each drifted plan: record all measured fan-outs into the rule's
    ``feedback_cache`` (a BoundedDict keyed like the plan cache), evict the
    plan, and invalidate the rule's compiled kernels so the next fetch
    recompiles against the replanned order. Returns the number of plans
    evicted; ``stats`` (an :class:`EvaluationStats`) gains
    ``estimate_drifts`` per drifted segment and ``plan_replans`` per
    eviction. Plans that already replanned :data:`MAX_REPLANS` times are
    left alone — their last ordering sticks.
    """
    replanned = 0
    for rule in rules:
        cache = rule._plan_cache
        if not cache:
            continue
        for key, plan in list(cache.items()):
            if plan.replans >= MAX_REPLANS:
                continue
            drifts = drifted_segments(plan, ratio)
            if not drifts:
                continue
            if stats is not None:
                stats.estimate_drifts += len(drifts)
                stats.plan_replans += 1
            feedback = rule.feedback_cache
            entry = feedback.get(key)
            fanouts = dict(entry["fanouts"]) if entry else {}
            fanouts.update(observed_fanouts(plan))
            feedback[key] = {"fanouts": fanouts, "replans": plan.replans + 1}
            del cache[key]
            kernel_cache = rule._kernel_cache
            if kernel_cache is not None:
                for kkey, kernel in list(kernel_cache.items()):
                    # Keep negative entries (fallback markers stay true);
                    # drop real kernels — they embed the evicted plan.
                    if hasattr(kernel, "valid_for"):
                        del kernel_cache[kkey]
            replanned += 1
    return replanned


# -- plan rendering (repro analyze --plans) ------------------------------------


def describe_plan(plan: "Plan") -> List[str]:
    """One human-readable line per plan step, with cost estimates."""
    lines: List[str] = []
    estimates = plan.estimates
    for i, step in enumerate(plan):
        kind = step[0]
        if kind == "filter":
            detail = f"filter  {step[1]!r}"
        elif kind == "member":
            lit, probes = step[1], step[2]
            if probes:
                attrs = ",".join(attr for attr, _ in probes)
                detail = f"probe   {lit.container!r}[{attrs}] match {lit.element!r}"
            else:
                detail = f"scan    {lit.container!r} match {lit.element!r}"
        elif kind == "equal":
            lit, left_known = step[1], step[2]
            known, pattern = (
                (lit.left, lit.right) if left_known else (lit.right, lit.left)
            )
            detail = f"match   {pattern!r} = eval({known!r})"
        else:  # enum
            detail = f"enum    {step[1].name}: {step[1].type!r}"
        detail += f"  → est {estimates[i]:.1f} rows"
        lines.append(detail)
    if not lines:
        lines.append("(empty body: one empty valuation)")
    return lines
