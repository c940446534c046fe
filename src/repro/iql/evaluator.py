"""The inflationary evaluator (Section 3.2).

The semantics of a program G is defined through its one-step operator
γ1(G): given the current instance I,

1. compute the *valuation-domain* — the set of (rule, θ) pairs with
   I ⊨ θ(body) such that **no** extension of θ satisfies the head (this
   blocking condition is what makes the semantics inflationary and stops a
   rule from re-inventing oids for the same body valuation forever),
2. pick a *valuation-map* — fresh, pairwise distinct oids for the
   head-only variables of each pair (the :class:`OidFactory`),
3. add the derived ground facts, subject to the weak-assignment rule (★):
   a non-set-valued oid is assigned a value only if it was undefined in I
   and exactly one value was derived for it this step. Every head term,
   dereferences included, is evaluated over I, with the oids of step 4
   already in their classes (a new set-valued oid dereferences to { }):
   each head's write is staged (:class:`StepWrites`) and all are applied
   after the last head, a set-valued oid's new elements as one new set,
4. place every invented oid in its class (with the default value:
   undefined, or { } for set-valued classes).

γ∞(G) iterates γ1 to a fixpoint; the program maps instances(Sin) to
instances(Sout) by loading, iterating and projecting. The reference
engine (``Evaluator(naive=True)``) does exactly that; the production
engine reaches the same fixpoint, up to the renaming of invented oids,
through scheduling, delta rounds and compiled rules (see
:class:`Evaluator`).

Extensions handled here:

* stage composition "``;``" — each stage runs to fixpoint in order,
* IQL+ ``choose`` (Section 4.4) — head-only variables of a choose-rule are
  bound to an *existing* oid instead, with an optional genericity check,
* IQL* deletions (Section 4.5) — ``delete`` rules remove facts, with
  cascading removal of dangling references; state cycling is detected so
  non-inflationary programs cannot silently loop forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError, GenericityError, NonTerminationError
from repro.iql.invention import CountingOidFactory, OidFactory
from repro.iql.literals import Equality, Membership
from repro.iql.program import Program
from repro.iql.rules import Rule
from repro.iql.terms import Deref, NameTerm, Var
from repro.iql.valuation import Bindings, eval_term, match, solve_body
from repro.schema.instance import Instance
from repro.schema.isomorphism import orbit_partition
from repro.values.ovalues import Oid, OSet, OValue, sort_key


@dataclass
class EvaluatorLimits:
    """Budgets that turn divergence into errors instead of hangs."""

    max_steps: int = 10_000
    enumeration_budget: int = 100_000
    max_invented_oids: int = 1_000_000


@dataclass
class EvaluationStats:
    """Observability for benchmarks: what the fixpoint actually did.

    ``plan_*`` report on the cost-based planner of the compiled kernels:
    the memo behaviour (one miss per new (body, bound-set) pair, hits for
    every recompile of a known shape), plans costed and re-costed. The
    reference interpreter plans in written order and counts none of them.

    ``intern_*`` report on the hash-consing layer
    (:mod:`repro.values.intern`) over the duration of the run: value
    constructions answered from the intern table and constructions that
    created a new node. Membership filters that probe the table without
    building a tuple count as neither.
    """

    steps: int = 0
    facts_added: int = 0
    facts_deleted: int = 0
    oids_invented: int = 0
    valuations_considered: int = 0
    per_stage_steps: List[int] = field(default_factory=list)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    # Cost-based planning (repro.iql.valuation): bodies planned with the
    # cost model, and cached plans re-costed because an extension they
    # read grew or shrank REPLAN_GROWTH-fold since they were costed.
    plans_costed: int = 0
    plan_replans: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    # Certified scheduling (the production engine): strata solved, rule
    # executions skipped because their whole read set was clean, and
    # stages that ran monolithic because the analysis refused to certify.
    strata: int = 0
    rules_skipped_clean: int = 0
    schedule_fallbacks: int = 0
    # Rule compilation (the production engine, repro.iql.compile):
    # distinct rules that ran as compiled kernels vs fell back to the
    # reference interpreter this run, fallback events by construct tag
    # ("choose", "unbound-dereference", "set-assignment"), and the wall
    # time spent compiling (cache misses only).
    rules_compiled: int = 0
    rules_interpreted: int = 0
    compile_fallbacks: int = 0
    compile_fallback_reasons: Dict[str, int] = field(default_factory=dict)
    compile_time: float = 0.0
    # End-of-run sizes of the per-rule plan and kernel caches, summed
    # over the program's rules.
    plan_cache_entries: int = 0
    kernel_cache_entries: int = 0
    # Incremental view maintenance (repro.iql.ivm.MaterializedProgram):
    # net base-fact deltas applied, support-count adjustments (counting
    # strategy), facts conservatively over-deleted and then re-derived
    # (DRed), DRed strata whose re-derivation re-ran the whole stratum
    # instead of probing the over-deleted facts, and batches that fell
    # back to a slice or full recompute.
    deltas_applied: int = 0
    supports_adjusted: int = 0
    overdeleted: int = 0
    rederived: int = 0
    rederive_reruns: int = 0
    maintenance_fallbacks: int = 0


@dataclass
class TraceEvent:
    """One derivation event, for debugging rule programs.

    ``kind`` is "fact" (a ground fact added), "invent" (an oid created),
    "assign" (a weak assignment that stuck), "ignore" (a weak assignment
    dropped by (★)), or "delete". ``rule`` is the rule's label or repr.
    """

    step: int
    kind: str
    rule: str
    detail: str

    def __repr__(self):
        return f"[step {self.step}] {self.kind:<7} {self.rule}: {self.detail}"


class StepWrites:
    """The writes one γ1 step's heads derive, staged until its last head.

    Compiled appliers and the reference interpreter stage here, and
    :meth:`Evaluator._one_step` applies everything afterwards, so no head
    reads another head's write of the same step:

    * ``facts`` — relation and class facts ``(rule, name, value)`` in
      derivation order, applied one at a time by the checked mutators;
    * ``elements`` — per oid of an ``x̂(t)`` head, each derived element
      mapped to the first rule that derived it (the trace's label); the
      ones not yet in the set are added as one new set per oid;
    * ``weak`` / ``weak_was_defined`` — the (★) candidates per oid, and
      whether the oid had a value when the step started.
    """

    __slots__ = ("facts", "elements", "weak", "weak_was_defined", "_value_of")

    def __init__(self, instance: Instance):
        self.facts: List[Tuple[Rule, str, OValue]] = []
        self.elements: Dict[Oid, Dict[OValue, Rule]] = {}
        self.weak: Dict[Oid, Set[OValue]] = {}
        self.weak_was_defined: Dict[Oid, bool] = {}
        self._value_of = instance.value_of

    def assign(self, oid: Oid, value: OValue) -> None:
        """Stage the weak assignment ``ô = value``."""
        if oid not in self.weak_was_defined:
            self.weak_was_defined[oid] = self._value_of(oid) is not None
        self.weak.setdefault(oid, set()).add(value)


@dataclass
class EvaluationResult:
    """The full instance over S, its projection on Sout, and statistics."""

    full: Instance
    output: Instance
    stats: EvaluationStats
    trace: Optional[List["TraceEvent"]] = None


class Evaluator:
    """Evaluates IQL / IQL+ / IQL* programs to their inflationary fixpoint.

    There are two engines with one semantics:

    * the **production engine** (the default): certified SCC scheduling
      (:mod:`repro.analysis.depgraph`), semi-naive delta rounds wherever
      a stratum qualifies (:mod:`repro.iql.seminaive`), rule bodies
      compiled into closure kernels (:mod:`repro.iql.compile`), and
      cost-based join planning (:mod:`repro.iql.stats`) that re-costs a
      plan, mid-fixpoint included, once an extension it reads has grown
      or shrunk tenfold, all over hash-consed values. Stages the
      analysis cannot certify run one monolithic fixpoint (IQL601 warns).
      The few rules outside the compilable fragment (``choose``, an
      unbound dereference, a set pattern of two or more terms) run on
      the reference interpreter inside the γ1 loop, and a semi-naive
      stratum with such a rule is finished by the γ1 loop. Both
      fallbacks are counted in :class:`EvaluationStats`.
    * the **reference engine** (``naive=True``): the Section 3.2
      one-step operator γ1 iterated stage by stage, joining each body in
      written order with no statistics, plan cache or index. It is the
      oracle the differential tests compare the production engine
      against. ``trace=True`` runs this same engine, since its γ1 steps
      are what the trace events describe.

    ``choose_mode`` controls the genericity discipline of IQL+:

    * ``"verify"`` — candidates must form a single orbit of the instance's
      O-automorphism group (exact but expensive; fine at paper scale),
    * ``"trusted"`` — skip the check and pick the canonical candidate;
      correct whenever the program is known to offer only indistinguishable
      copies (the Theorem 4.4.1 construction),
    * ``"nondeterministic"`` — the N-IQL of the paper's Remark: pick an
      arbitrary (seeded-random) candidate even when that violates
      genericity. The result is then a *nondeterministic* transformation —
      outputs for the same input need not be O-isomorphic.
    """

    def __init__(
        self,
        program: Program,
        oid_factory: Optional[OidFactory] = None,
        limits: Optional[EvaluatorLimits] = None,
        choose_mode: str = "verify",
        seed: int = 0,
        trace: bool = False,
        naive: bool = False,
        preflight: bool = False,
    ):
        if choose_mode not in ("verify", "trusted", "nondeterministic"):
            raise EvaluationError(f"unknown choose_mode {choose_mode!r}")
        self.program = program
        if preflight:
            self._preflight(program)
        self.oid_factory = oid_factory or CountingOidFactory()
        self.limits = limits or EvaluatorLimits()
        self.choose_mode = choose_mode
        self.trace_enabled = trace
        self._trace: Optional[List[TraceEvent]] = [] if trace else None
        self.naive = naive or trace
        self._schedule = None
        self._compiler = None
        if not self.naive:
            import warnings

            from repro.analysis import PreflightWarning
            from repro.iql.compile import RuleCompiler

            self._schedule = program.schedule
            for plan in self._schedule.stages:
                if plan.fallback_reason and "IQL601" in plan.fallback_reason:
                    warnings.warn(
                        f"stage {plan.index + 1} falls back to the monolithic "
                        f"fixpoint: {plan.fallback_reason}",
                        PreflightWarning,
                        stacklevel=3,
                    )
            self._compiler = RuleCompiler(self.limits.enumeration_budget)
        import random as _random

        self._rng = _random.Random(seed)

    @staticmethod
    def _preflight(program: Program) -> None:
        """Opt-in pre-flight static analysis (``Evaluator(preflight=True)``).

        Runs :func:`repro.analysis.analyze` before evaluation and turns
        every warning-severity diagnostic — unsafe negation, unbound
        variables, invention cycles, dead code — into a
        :class:`~repro.analysis.PreflightWarning`, so a caller learns that
        the fixpoint may diverge *before* burning through ``max_steps``.
        Error-severity diagnostics are left to the typechecker proper.
        """
        import warnings

        from repro.analysis import PreflightWarning, analyze

        for diag in analyze(program).warnings:
            warnings.warn(
                f"{diag.code}: {diag.message}", PreflightWarning, stacklevel=3
            )

    def _emit(self, stats: "EvaluationStats", kind: str, rule: Rule, detail: str) -> None:
        if self._trace is not None:
            label = rule.label or repr(rule.head)
            self._trace.append(TraceEvent(stats.steps + 1, kind, label, detail))

    # -- public API ---------------------------------------------------------------

    def run(self, input_instance: Instance) -> EvaluationResult:
        """Evaluate the program on ``input_instance`` (over Sin)."""
        if input_instance.schema != self.program.input_schema:
            raise EvaluationError(
                "input instance schema does not match the program's input schema"
            )
        working = input_instance.with_schema(self.program.schema)
        stats = EvaluationStats()
        if self._compiler is not None:
            self._compiler.begin_run(stats)
        from repro.values import intern

        hits0, misses0, _ = intern.counters()
        for index, stage in enumerate(self.program.stages):
            plan = self._schedule.stages[index] if self._schedule else None
            if plan is not None and plan.scheduled:
                self._run_stage_scheduled(working, plan.strata, stats)
            else:
                if plan is not None:
                    stats.schedule_fallbacks += 1
                self._run_stage(working, list(stage), stats)
        output = working.project(self.program.output_schema)
        hits1, misses1, _ = intern.counters()
        stats.intern_hits = hits1 - hits0
        stats.intern_misses = misses1 - misses0
        for rule in self.program.rules:
            if rule._plan_cache is not None:
                stats.plan_cache_entries += len(rule._plan_cache)
            if rule._kernel_cache is not None:
                stats.kernel_cache_entries += len(rule._kernel_cache)
        return EvaluationResult(
            full=working, output=output, stats=stats, trace=self._trace
        )

    def __call__(self, input_instance: Instance) -> Instance:
        return self.run(input_instance).output

    # -- stage fixpoint -------------------------------------------------------------

    def solve_stratum(
        self,
        instance: Instance,
        rules: Sequence[Rule],
        stats: Optional[EvaluationStats] = None,
        initial_delta: Optional[Dict[str, Set[OValue]]] = None,
        added: Optional[Dict[str, Set[OValue]]] = None,
    ) -> EvaluationStats:
        """Run one rule set to its inflationary fixpoint on ``instance``,
        in place, and return the stats.

        This is the maintenance entry point: a
        :class:`~repro.analysis.maintenance.MaintenanceCertificate` names
        a slice of strata to re-run after a base-fact update, and each
        slice entry is exactly one such fixpoint. ``instance`` must be an
        instance over the program's *full* schema (not just Sin): replay
        starts from a previous evaluation's state, not from an input.

        With ``initial_delta`` — per-relation sets of facts *already
        present* in ``instance`` but new since its last fixpoint — the
        stratum runs in the delta-seeded mode the IVM runtime uses:
        instead of the round-0 full solve, the semi-naive rounds start
        directly from the given delta, so work is proportional to the
        change, not the instance. Sound only when every new derivation
        must use at least one delta fact positively (true for insert
        propagation into a previously-converged fixpoint, and for DRed's
        re-derivation once the over-deleted facts that still have a
        derivation are back, see ``MaterializedProgram._rederive``); when the
        stratum's rules fall outside the semi-naive fragment, or one of
        their kernels refuses, the γ1 loop runs the stratum to an ordinary
        full fixpoint instead, which is sound for the same reason.
        ``added`` (if given) collects the facts each relation actually
        gained, for downstream delta propagation.
        """
        if stats is None:
            stats = EvaluationStats()
        if initial_delta is not None:
            self._run_stage_delta_seeded(instance, list(rules), stats, initial_delta, added)
        else:
            self._run_stage(instance, list(rules), stats)
        return stats

    def _run_stage_delta_seeded(
        self,
        instance: Instance,
        rules: List[Rule],
        stats: EvaluationStats,
        initial_delta: Dict[str, Set[OValue]],
        added: Optional[Dict[str, Set[OValue]]],
    ) -> None:
        rounds = self._seminaive(instance, rules, stats, initial_delta, added)
        if rounds is not None:
            stats.per_stage_steps.append(rounds)
            return
        # Outside the semi-naive fragment, or once a kernel refused, the
        # delta seed is only a hint: re-running the stratum to its
        # inflationary fixpoint from the current state derives everything
        # the delta could have enabled. Diff the written relation extents
        # so the caller still learns what changed.
        from repro.analysis.effects import head_symbol

        written = {
            symbol
            for symbol in (head_symbol(rule) for rule in rules)
            if instance.schema.is_relation(symbol)
        }
        before = {name: set(instance.relations[name]) for name in written}
        stats.per_stage_steps.append(self._run_gamma(instance, rules, stats))
        if added is not None:
            for name in written:
                fresh = instance.relations[name] - before[name]
                if fresh:
                    added.setdefault(name, set()).update(fresh)

    def _seminaive(
        self,
        instance: Instance,
        rules: List[Rule],
        stats: EvaluationStats,
        initial_delta: Optional[Dict[str, Set[OValue]]] = None,
        added: Optional[Dict[str, Set[OValue]]] = None,
    ) -> Optional[int]:
        """The rounds of a semi-naive run of ``rules``, or None when the
        engine is the reference, the stratum is outside the semi-naive
        fragment, or one of its kernels refused. The caller's γ1 loop
        then runs, or finishes, the stratum from the current state: a
        semi-naive round adds exactly what a γ1 step would, so a stratum
        handed over between rounds reaches the same fixpoint."""
        from repro.iql.seminaive import run_stage_seminaive, stage_eligible

        if self._compiler is None or not stage_eligible(rules, instance):
            return None
        return run_stage_seminaive(
            instance,
            rules,
            stats,
            self._compiler,
            max_steps=self.limits.max_steps,
            initial_delta=initial_delta,
            added=added,
        )

    def _run_stage(self, instance: Instance, rules: List[Rule], stats: EvaluationStats) -> None:
        rounds = self._seminaive(instance, rules, stats)
        if rounds is None:
            rounds = self._run_gamma(instance, rules, stats)
        stats.per_stage_steps.append(rounds)

    def _run_gamma(self, instance: Instance, rules: List[Rule], stats: EvaluationStats) -> int:
        """Iterate γ1 over ``rules`` to a fixpoint; return the step count."""
        non_inflationary = any(rule.delete for rule in rules)
        seen_states: Set[int] = set()
        steps_here = 0
        while True:
            if stats.steps >= self.limits.max_steps:
                raise NonTerminationError(
                    f"no fixpoint within {self.limits.max_steps} steps; "
                    f"recursion through invention can diverge (Example 3.4.2)"
                )
            if non_inflationary:
                # IQL* steps can shrink the instance, so "no mutation" is
                # not the fixpoint test: compare whole states, and detect
                # oscillation (a revisited non-fixpoint state) exactly.
                before = instance.ground_facts()
                state = hash(before)
                if state in seen_states:
                    raise NonTerminationError(
                        "IQL* evaluation revisited a state without reaching a fixpoint"
                    )
                seen_states.add(state)
                self._one_step(instance, rules, stats)
                changed = instance.ground_facts() != before
            else:
                changed = self._one_step(instance, rules, stats)
            stats.steps += 1
            steps_here += 1
            if not changed:
                return steps_here

    # -- the certified schedule (the production engine) ------------------------------

    @staticmethod
    def _fingerprint(instance: Instance, symbol: str):
        """A cheap monotone measure of one dependency-graph symbol.

        Within a certified stage every mutation grows the instance — no
        deletes, and (★) only ever defines an undefined ν entry — so an
        unchanged size proves unchanged content. ``^P`` planes measure how
        many of P's oids have a ν entry plus the total element count of
        the set-valued ones (weak assignment adds entries; ``x̂(t)`` heads
        add elements).
        """
        schema = instance.schema
        if symbol.startswith("^"):
            class_name = symbol[1:]
            defined = 0
            elements = 0
            for oid in instance.classes.get(class_name, ()):
                value = instance.nu.get(oid)
                if value is not None:
                    defined += 1
                    if isinstance(value, OSet):
                        elements += len(value)
            return (defined, elements)
        if schema.is_relation(symbol):
            return len(instance.relations.get(symbol, ()))
        return len(instance.classes.get(symbol, ()))

    def _run_stage_scheduled(
        self,
        instance: Instance,
        strata: Tuple[Tuple[Rule, ...], ...],
        stats: EvaluationStats,
    ) -> None:
        """One fixpoint per dependency stratum, in topological order.

        Each stratum first tries the semi-naive rewriting over *its own*
        rules — a stratum is often eligible when the whole stage is not
        (e.g. a relation-only recursion scheduled after an invention
        stratum). Otherwise, or once a kernel refused, it runs the γ1
        loop with rule-level dirtiness tracking: a rule re-executes only
        when some symbol of its read set changed since its last
        execution; a clean rule can only re-derive facts it already
        derived (reads are complete for range-restricted rules, which
        certification guarantees), so skipping it is sound.
        """
        steps_total = 0
        for stratum in strata:
            steps_total += self._solve_stratum_scheduled(instance, list(stratum), stats)
        stats.per_stage_steps.append(steps_total)

    def _solve_stratum_scheduled(
        self, instance: Instance, rules: List[Rule], stats: EvaluationStats
    ) -> int:
        """One stratum's fixpoint (the per-stratum body of
        :meth:`_run_stage_scheduled`), returning its step count."""
        from repro.analysis.effects import rule_effects

        steps_total = 0
        stats.strata += 1
        rounds = self._seminaive(instance, rules, stats)
        if rounds is not None:
            return rounds
        effects = [rule_effects(rule, instance.schema) for rule in rules]
        read_symbols = frozenset().union(*(eff.reads for eff in effects))
        fingerprints = {
            symbol: self._fingerprint(instance, symbol) for symbol in read_symbols
        }
        active = list(range(len(rules)))
        while True:
            if stats.steps >= self.limits.max_steps:
                raise NonTerminationError(
                    f"no fixpoint within {self.limits.max_steps} steps; "
                    f"recursion through invention can diverge (Example 3.4.2)"
                )
            stats.rules_skipped_clean += len(rules) - len(active)
            changed = self._one_step(
                instance, [rules[i] for i in active], stats
            )
            stats.steps += 1
            steps_total += 1
            if not changed:
                break
            current = {
                symbol: self._fingerprint(instance, symbol)
                for symbol in read_symbols
            }
            dirty = {
                symbol
                for symbol in read_symbols
                if current[symbol] != fingerprints[symbol]
            }
            fingerprints = current
            active = [i for i, eff in enumerate(effects) if eff.reads & dirty]
            if not active:
                break
        return steps_total

    # -- the one-step operator γ1 ----------------------------------------------------

    def _one_step(self, instance: Instance, rules: List[Rule], stats: EvaluationStats) -> bool:
        # Each addition is (rule, bindings, kernel): bindings is a θ dict
        # on the reference path, a slot list on the compiled one (with
        # kernel the rule's CompiledRule). Deletions always carry a θ.
        additions: List[Tuple[Rule, object, object]] = []
        deletions: List[Tuple[Rule, Bindings]] = []

        for rule in rules:
            kernel = (
                self._compiler.compiled_rule(rule, instance)
                if self._compiler is not None
                else None
            )
            if kernel is not None:
                if rule.delete:

                    def consume(slots, _rule=rule, _vars=kernel.body.slot_vars):
                        stats.valuations_considered += 1
                        deletions.append((_rule, dict(zip(_vars, slots))))

                else:

                    def consume(slots, _rule=rule, _kernel=kernel, _blocked=kernel.blocked):
                        stats.valuations_considered += 1
                        if not _blocked(slots):
                            additions.append((_rule, slots[:], _kernel))

                kernel.solve(consume)
                continue
            for theta in solve_body(
                rule.body, instance, enumeration_budget=self.limits.enumeration_budget
            ):
                stats.valuations_considered += 1
                if rule.delete:
                    # Deletions are derived unconditionally (deleting an
                    # absent fact is a no-op); applying them after the
                    # step's insertions makes "delete wins" hold within a
                    # step, as in the *-languages of Abiteboul–Vianu.
                    deletions.append((rule, theta))
                else:
                    if not self._head_satisfiable(rule, theta, instance):
                        additions.append((rule, theta, None))

        if not additions and not deletions:
            return False

        changed = False
        # Deletion heads read the instance the step started from as well.
        doomed = [
            (rule, theta, eval_term(_deleted_term(rule.head), theta, instance))
            for rule, theta in deletions
        ]

        # Invention / choose: extend each valuation on head-only variables.
        extended: List[Tuple[Rule, object, object]] = []
        invented: List[Tuple[str, Oid]] = []
        for rule, theta, kernel in additions:
            if kernel is not None:
                for class_name, slot in kernel.inv_slots:
                    oid = self.oid_factory.invent(class_name)
                    theta[slot] = oid
                    invented.append((class_name, oid))
                    stats.oids_invented += 1
                    if stats.oids_invented > self.limits.max_invented_oids:
                        raise NonTerminationError(
                            f"invented more than {self.limits.max_invented_oids} oids"
                        )
                extended.append((rule, theta, kernel))
                continue
            theta = dict(theta)
            inv_vars = sorted(rule.invention_variables(), key=lambda v: v.name)
            if rule.has_choose():
                for var in inv_vars:
                    theta[var] = self._choose(var, instance)
            else:
                for var in inv_vars:
                    oid = self.oid_factory.invent(var.type.name)
                    theta[var] = oid
                    invented.append((var.type.name, oid))
                    self._emit(stats, "invent", rule, f"{oid!r} ∈ {var.type.name}")
                    stats.oids_invented += 1
                    if stats.oids_invented > self.limits.max_invented_oids:
                        raise NonTerminationError(
                            f"invented more than {self.limits.max_invented_oids} oids"
                        )
            extended.append((rule, theta, None))

        # Place invented oids in their classes before any head is
        # evaluated: a head may dereference or write a new oid.
        for class_name, oid in invented:
            if instance.add_class_member(class_name, oid):
                changed = True
                stats.facts_added += 1

        # Evaluate every head over the instance the step started from,
        # staging its write; nothing is applied until the last head.
        writes = StepWrites(instance)
        for rule, theta, kernel in extended:
            if kernel is not None:
                kernel.apply(theta, writes)
                continue
            head = rule.head
            if isinstance(head, Membership):
                container = head.container
                element = eval_term(head.element, theta, instance)
                if element is None:
                    raise EvaluationError(
                        f"head {head!r} not evaluable under {theta!r} "
                        f"(undefined dereference in a head term)"
                    )
                if isinstance(container, NameTerm):
                    name = container.name
                    if not instance.schema.is_relation(name) and not isinstance(element, Oid):
                        raise EvaluationError(
                            f"class head {head!r} derived non-oid {element!r}"
                        )
                    writes.facts.append((rule, name, element))
                elif isinstance(container, Deref):
                    oid = theta[container.var]
                    writes.elements.setdefault(oid, {}).setdefault(element, rule)
                else:  # pragma: no cover - rejected by the type checker
                    raise EvaluationError(f"illegal head container {container!r}")
            elif isinstance(head, Equality):
                deref = head.left
                if not isinstance(deref, Deref):  # pragma: no cover
                    raise EvaluationError(f"illegal equality head {head!r}")
                value = eval_term(head.right, theta, instance)
                if value is None:
                    raise EvaluationError(
                        f"head {head!r} not evaluable (undefined dereference)"
                    )
                writes.assign(theta[deref.var], value)

        # Apply: relation and class facts one at a time, then each
        # set-valued oid's new elements as one set, then (★).
        for rule, name, value in writes.facts:
            if instance.schema.is_relation(name):
                added = instance.add_relation_member(name, value)
            else:
                added = instance.add_class_member(name, value)
            if added:
                changed = True
                stats.facts_added += 1
                self._emit(stats, "fact", rule, f"{name}({value!r})")
        for oid, derived in writes.elements.items():
            if not instance.is_set_valued(oid):
                raise EvaluationError(
                    f"x̂(t) head on {oid!r}, which is not a set-valued oid"
                )
            present = instance.value_of(oid).elements
            fresh = [element for element in derived if element not in present]
            if fresh:
                instance.add_set_elements(oid, fresh)
                changed = True
                stats.facts_added += len(fresh)
                if self._trace is not None:
                    for element in fresh:
                        self._emit(stats, "fact", derived[element], f"{oid!r}^({element!r})")

        # (★): assign only previously-undefined oids with a unique derived value.
        for oid, values in writes.weak.items():
            if writes.weak_was_defined[oid]:
                if self._trace is not None:
                    self._trace.append(
                        TraceEvent(
                            stats.steps + 1,
                            "ignore",
                            "(★)",
                            f"{oid!r} already defined; derived value(s) dropped",
                        )
                    )
                continue
            if len(values) != 1:
                if self._trace is not None:
                    self._trace.append(
                        TraceEvent(
                            stats.steps + 1,
                            "ignore",
                            "(★)",
                            f"{oid!r}: {len(values)} conflicting values dropped",
                        )
                    )
                continue
            if instance.assign(oid, next(iter(values))):
                changed = True
                stats.facts_added += 1
                if self._trace is not None:
                    self._trace.append(
                        TraceEvent(
                            stats.steps + 1,
                            "assign",
                            "(★)",
                            f"{oid!r} := {next(iter(values))!r}",
                        )
                    )

        # IQL* deletions, applied after additions: a fact both derived and
        # deleted in the same step ends up deleted.
        if doomed:
            changed = self._apply_deletions(instance, doomed, stats) or changed

        return changed

    # -- head satisfiability (the valuation-domain blocking condition) ---------------

    def _head_satisfiable(self, rule: Rule, theta: Bindings, instance: Instance) -> bool:
        """∃ extension θ̄ of θ with I ⊨ θ̄ head(r)?

        Head-only variables range over the *existing* oids of their class
        (the type interpretation given π); for fully-bound heads this is
        plain satisfaction.
        """
        head = rule.head
        if isinstance(head, Membership):
            # Fast paths avoid materializing the container as an OSet per
            # valuation — the blocking check runs once per candidate firing.
            if isinstance(head.container, NameTerm):
                name = head.container.name
                if instance.schema.is_relation(name):
                    members = instance.relations[name]
                else:
                    members = instance.classes[name]
                element = eval_term(head.element, theta, instance)
                if element is not None:
                    return element in members
                for existing in members:
                    for _ in match(head.element, existing, theta, instance):
                        return True
                return False
            container = eval_term(head.container, theta, instance)
            if container is None:
                return False
            for element in container:
                for _ in match(head.element, element, theta, instance):
                    return True
            return False
        if isinstance(head, Equality):
            deref = head.left
            oid = theta.get(deref.var)
            candidates = (
                [oid]
                if oid is not None
                else sorted(instance.classes.get(deref.var.type.name, ()), key=sort_key)
            )
            for candidate in candidates:
                value = instance.value_of(candidate)
                if value is None:
                    continue
                extended = dict(theta)
                extended[deref.var] = candidate
                for _ in match(head.right, value, extended, instance):
                    return True
            return False
        raise EvaluationError(f"illegal head {head!r}")  # pragma: no cover

    # -- choose (IQL+) -----------------------------------------------------------------

    def _choose(self, var: Var, instance: Instance) -> Oid:
        class_name = var.type.name
        candidates = sorted(instance.classes.get(class_name, ()), key=sort_key)
        if not candidates:
            raise GenericityError(f"choose over empty class {class_name!r}")
        if self.choose_mode == "nondeterministic":
            # N-IQL: the witness operator — any candidate, genericity be
            # damned. Nondeterministically complete (Remark N-IQL).
            return self._rng.choice(candidates)
        if len(candidates) > 1 and self.choose_mode == "verify":
            orbits = orbit_partition(instance, candidates)
            if len(orbits) > 1:
                raise GenericityError(
                    f"choose over class {class_name!r} would violate genericity: "
                    f"{len(candidates)} candidates fall into {len(orbits)} distinguishable orbits"
                )
        return candidates[0]

    # -- deletions (IQL*) ----------------------------------------------------------------

    def _apply_deletions(
        self,
        instance: Instance,
        deletions: List[Tuple[Rule, Bindings, Optional[OValue]]],
        stats: EvaluationStats,
    ) -> bool:
        """Apply a step's deletions; each comes with its head term's value
        over the instance the step started from (None: undefined)."""
        changed = False
        # Deletions go through the removal mutators, which retract the
        # affected index entries in place — indexes (and the compiled
        # kernels capturing their buckets) stay warm across IQL* steps.
        doomed_oids: Set[Oid] = set()
        for rule, theta, element in deletions:
            head = rule.head
            if isinstance(head, Membership):
                container = head.container
                if element is None:
                    continue
                if isinstance(container, NameTerm):
                    name = container.name
                    if instance.schema.is_relation(name):
                        if instance.remove_relation_member(name, element):
                            changed = True
                            stats.facts_deleted += 1
                    else:
                        if isinstance(element, Oid) and element in instance.classes[name]:
                            doomed_oids.add(element)
                elif isinstance(container, Deref):
                    oid = theta[container.var]
                    if instance.is_set_valued(oid):
                        if instance.remove_set_element(oid, element):
                            changed = True
                            stats.facts_deleted += 1
                    else:  # pragma: no cover - rejected by the type checker
                        current = instance.value_of(oid)
                        if current is not None and element in current:
                            instance.nu[oid] = type(current)(
                                v for v in current if v != element
                            )
                            instance.drop_indexes()
                            changed = True
                            stats.facts_deleted += 1
            elif isinstance(head, Equality):
                oid = theta[head.left.var]
                value = element
                if value is not None and instance.nu.get(oid) == value:
                    instance.unassign(oid)
                    changed = True
                    stats.facts_deleted += 1
        if doomed_oids:
            changed = True
            stats.facts_deleted += len(doomed_oids)
            self._cascade_delete(instance, doomed_oids, stats)
        return changed

    def _cascade_delete(
        self, instance: Instance, doomed: Set[Oid], stats: EvaluationStats
    ) -> None:
        """Remove oids and everything that dangles (Section 4.5).

        "Deleting an oid forces deletion of other objects that have this
        oid in their o-value": relation members mentioning a doomed oid are
        removed, and objects whose value mentions one are deleted in turn,
        transitively — the reference-count/garbage-collection discipline
        the paper alludes to.
        """
        from repro.values.ovalues import oids_of

        worklist = set(doomed)
        removed: Set[Oid] = set()
        while worklist:
            batch, worklist = worklist, set()
            removed |= batch
            for oid in batch:
                name = instance.class_of(oid)
                if name is not None:
                    instance.remove_class_member(name, oid)
                else:
                    instance.unassign(oid)
            for name, members in instance.relations.items():
                stale = {v for v in members if oids_of(v) & removed}
                for value in stale:
                    instance.remove_relation_member(name, value)
                stats.facts_deleted += len(stale)
            for oid, value in list(instance.nu.items()):
                if oid in removed:
                    continue
                if oids_of(value) & removed:
                    if oid not in removed:
                        worklist.add(oid)


def _deleted_term(head):
    """The term a deletion head removes: ``t`` of ``C(t)``, ``u`` of ``x̂ = u``."""
    return head.element if isinstance(head, Membership) else head.right


# -- convenience entry points ----------------------------------------------------------


def evaluate(
    program: Program,
    input_instance: Instance,
    oid_factory: Optional[OidFactory] = None,
    limits: Optional[EvaluatorLimits] = None,
    choose_mode: str = "verify",
) -> Instance:
    """Run ``program`` on ``input_instance`` with the production engine and
    return the output instance."""
    return Evaluator(program, oid_factory, limits, choose_mode).run(input_instance).output


def evaluate_full(
    program: Program,
    input_instance: Instance,
    oid_factory: Optional[OidFactory] = None,
    limits: Optional[EvaluatorLimits] = None,
    choose_mode: str = "verify",
) -> EvaluationResult:
    """Run ``program`` with the production engine and return the full
    result (instance over S + stats)."""
    return Evaluator(program, oid_factory, limits, choose_mode).run(input_instance)
