"""IQL programs G(S, Sin, Sout) (Section 3).

A program is a finite set of rules over a schema S, together with two
projections of S: the input schema Sin and the output schema Sout. Its
semantics is a binary relation between instances(Sin) and instances(Sout):
the input is loaded into S, the rules run to their inflationary fixpoint,
and the result is projected on Sout.

Sequential composition "``;``" is definable inside IQL (Section 3.4, via
negation and inflationary semantics); following the paper's own usage we
treat it as a meta-construct: a program is a sequence of *stages*, each a
set of rules run to fixpoint before the next stage starts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TypeCheckError
from repro.iql.rules import Rule
from repro.schema.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.depgraph import Schedule
    from repro.analysis.effects import DeltaBody, RuleEffects
    from repro.iql.compile import KernelFactory
    from repro.iql.valuation import Plan

#: A :class:`RuleMemo` field not computed yet (``None`` is a delta body).
_UNSET = object()


class RuleMemo:
    """What the engine derives from one rule of a :class:`Program`, once.

    The analyses are computed on first use: ``effects``
    (:func:`~repro.analysis.effects.rule_effects`), ``delta``
    (:func:`~repro.analysis.effects.delta_body`, None outside the delta
    fragment) and ``seminaive`` (:func:`~repro.iql.seminaive.rule_eligible`).
    ``plans`` is the planner's memo for the rule's kernels
    (:func:`~repro.iql.valuation.lookup_plan`), keyed by (literal tuple,
    bound-variable set): the whole body, each delta position's rest and
    the body with the head's variables bound; a stale plan is replaced in
    place, never added beside. It is per rule because a literal's
    equality ignores its variables' types, which differ between rules.
    ``factories`` holds the rule's kernel factories
    (:class:`~repro.iql.compile.KernelFactory`) by kernel — ``"rule"``
    (γ1), ``"full"`` (round 0), a body position or ``HEAD`` (delta) — and
    ``refused`` the fallback reason of each kernel shape that does not
    compile — ``"rule"``, ``"sn"`` (the delta rewriting) or ``HEAD``.
    Nothing here refers to an instance.
    """

    __slots__ = (
        "rule",
        "schema",
        "_effects",
        "_delta",
        "_seminaive",
        "plans",
        "factories",
        "refused",
    )

    def __init__(self, rule: Rule, schema: Schema):
        self.rule = rule
        self.schema = schema
        self._effects = self._delta = self._seminaive = _UNSET
        self.plans: Dict[tuple, "Plan"] = {}
        self.factories: Dict[object, "KernelFactory"] = {}
        self.refused: Dict[object, str] = {}

    @property
    def effects(self) -> "RuleEffects":
        if self._effects is _UNSET:
            from repro.analysis.effects import rule_effects

            self._effects = rule_effects(self.rule, self.schema)
        return self._effects

    @property
    def delta(self) -> Optional["DeltaBody"]:
        if self._delta is _UNSET:
            from repro.analysis.effects import delta_body

            self._delta = delta_body(self.rule, self.schema)
        return self._delta

    @property
    def seminaive(self) -> bool:
        if self._seminaive is _UNSET:
            from repro.iql.seminaive import rule_eligible

            self._seminaive = rule_eligible(self.rule, self.schema)
        return self._seminaive


class Program:
    """An IQL program: stages of rules over ``schema``, with input/output
    projections named by ``input_names`` / ``output_names``.

    A program is immutable once built, so what depends only on it is
    computed once and kept on it: the projected schemas, the
    :attr:`schedule` and, per rule, its analyses, plans and kernel
    factories (:meth:`rule_memo`). None of it refers to an instance:
    kernels bound to one belong to an evaluator."""

    __slots__ = (
        "schema",
        "stages",
        "input_names",
        "output_names",
        "_schedule",
        "_input_schema",
        "_output_schema",
        "_memos",
    )

    def __init__(
        self,
        schema: Schema,
        rules: Optional[Iterable[Rule]] = None,
        stages: Optional[Sequence[Iterable[Rule]]] = None,
        input_names: Iterable[str] = (),
        output_names: Iterable[str] = (),
    ):
        if (rules is None) == (stages is None):
            raise TypeCheckError("provide exactly one of rules= (single stage) or stages=")
        if rules is not None:
            rule_list = tuple(rules)
            # No rules means no stages: the identity program (legal to
            # build programmatically; the surface syntax still rejects an
            # empty rules block). A present stage must be non-empty — an
            # empty stage in a sequence is always a construction bug.
            stage_list: List[Tuple[Rule, ...]] = [rule_list] if rule_list else []
        else:
            stage_list = [tuple(stage) for stage in stages]
        if any(len(stage) == 0 for stage in stage_list):
            raise TypeCheckError("every stage must contain at least one rule")
        self.schema = schema
        self.stages: Tuple[Tuple[Rule, ...], ...] = tuple(stage_list)
        self.input_names = tuple(input_names)
        self.output_names = tuple(output_names)
        self._schedule = None
        self._input_schema: Optional[Schema] = None
        self._output_schema: Optional[Schema] = None
        self._memos: Dict[int, RuleMemo] = {}
        unknown = (set(self.input_names) | set(self.output_names)) - schema.names
        if unknown:
            raise TypeCheckError(f"input/output names not in the schema: {sorted(unknown)}")

    # -- projections --------------------------------------------------------------

    @property
    def input_schema(self) -> Schema:
        if self._input_schema is None:
            self._input_schema = self.schema.project(self.input_names)
        return self._input_schema

    @property
    def output_schema(self) -> Schema:
        if self._output_schema is None:
            self._output_schema = self.schema.project(self.output_names)
        return self._output_schema

    def has_disjoint_io(self) -> bool:
        """True iff Sin and Sout share no names (the dio setting of §4.2)."""
        return not set(self.input_names) & set(self.output_names)

    # -- structure ------------------------------------------------------------------

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """All rules, across stages."""
        return tuple(rule for stage in self.stages for rule in stage)

    @property
    def schedule(self) -> "Schedule":
        """The certified per-stage schedule
        (:func:`~repro.analysis.depgraph.compute_schedule`), computed on
        first use and shared by every :class:`~repro.iql.evaluator.Evaluator`
        of this program."""
        if self._schedule is None:
            from repro.analysis.depgraph import compute_schedule

            self._schedule = compute_schedule(self)
        return self._schedule

    def rule_memo(self, rule: Rule) -> RuleMemo:
        """The :class:`RuleMemo` of ``rule``, created on first use. Keyed by
        identity: the memo holds the rule, so its id stays unique."""
        memo = self._memos.get(id(rule))
        if memo is None:
            memo = self._memos[id(rule)] = RuleMemo(rule, self.schema)
        return memo

    def kernel_cache_sizes(self) -> Tuple[int, int]:
        """(plans memoized, kernel factories memoized) for this program."""
        memos = self._memos.values()
        plans = sum(len(memo.plans) for memo in memos)
        return plans, sum(len(memo.factories) for memo in memos)

    def then(self, other: "Program") -> "Program":
        """Sequential composition G1;G2 (schemas merged)."""
        schema = self.schema.merge(other.schema)
        return Program(
            schema,
            stages=list(self.stages) + list(other.stages),
            input_names=self.input_names,
            output_names=other.output_names or self.output_names,
        )

    def uses_choose(self) -> bool:
        return any(rule.has_choose() for rule in self.rules)

    def uses_deletion(self) -> bool:
        return any(rule.delete for rule in self.rules)

    def is_plain_iql(self) -> bool:
        """True iff neither IQL+ (choose) nor IQL* (deletion) features occur."""
        return not self.uses_choose() and not self.uses_deletion()

    def __repr__(self):
        parts = []
        for i, stage in enumerate(self.stages):
            if len(self.stages) > 1:
                parts.append(f"-- stage {i + 1} --")
            parts.extend(repr(rule) for rule in stage)
        return "\n".join(parts)
