"""Cardinality statistics for the cost-based body planner.

The paper's closing remark — IQL "is a good candidate for conventional
database optimizations" — licensed the indexes (PR 2), the semi-naive
deltas and the compiled kernels; this module supplies the *optimizer
statistics* that turn the body planner of :mod:`repro.iql.valuation` from
a static rank heuristic into a cost model.

:class:`Statistics` answers the planner's cardinality questions about one
instance:

* per-relation / per-class sizes — read straight off the live extension
  sets, so they are exact and free,
* per-attribute distinct-value counts (NDV) — ``len`` of the lazy
  projection indexes of :class:`~repro.iql.indexes.InstanceIndexes`.
  Because those indexes are maintained incrementally by the relation
  insert and removal mutators, NDV stays warm under
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
never the solution set. A plan records the extension sizes it was costed
on (``Plan.basis``), and the planner costs it again once one of them has
moved ``REPLAN_GROWTH``-fold (:mod:`repro.iql.valuation`). Only the
compiled kernels are cost-planned; the reference interpreter plans in
written order and reads none of these numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.iql.terms import Deref, SetTerm, Term, TupleTerm
from repro.values.ovalues import OSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (valuation → stats)
    from repro.iql.valuation import Plan
    from repro.schema.instance import Instance

#: Fan-out assumed for a dereference container when the class has no
#: set-valued members to average over.
DEFAULT_DEREF_WIDTH = 8.0

#: Elements assumed per matched set value when no class statistic applies
#: (the branching base for set-pattern equalities).
DEFAULT_SET_WIDTH = 4.0

#: Fraction of rows assumed to survive a fully-bound filter literal.
FILTER_SELECTIVITY = 0.5

#: Floor for bucket and width estimates, so a perfectly selective probe
#: still costs one lookup.
_SMOOTH = 0.125


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

    def container_width(self, container: Term) -> float:
        """Estimated element count of a non-name membership container."""
        if isinstance(container, SetTerm):
            return float(max(len(container.terms), 1))
        if isinstance(container, Deref):
            class_name = getattr(container.var.type, "name", None)
            if class_name is not None:
                return self.deref_width(class_name)
        return DEFAULT_DEREF_WIDTH

    def set_branching(self, pattern: Term, known: Optional[Term]) -> float:
        """Match extensions of an equality whose pattern contains set terms.

        A k-slot set pattern matched against a set of width s branches over
        s**k slot assignments; s comes from the known side's class when it
        is a dereference (the common ``x̂ = {y, z}`` shape), else defaults.
        The old planner hard-coded 64 here regardless of the pattern.
        """
        width = DEFAULT_SET_WIDTH
        if isinstance(known, Deref):
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
