"""Incremental view maintenance: live fixpoints under base-fact updates.

:class:`MaterializedProgram` keeps one evaluation of an IQL program
*live*: it runs the initial fixpoint once, then applies batches of base
fact inserts and deletes by executing the program's
:class:`~repro.analysis.maintenance.MaintenanceCertificate`\\ s instead
of re-evaluating from scratch. The strategy trichotomy certified by the
PR-6 analysis (IQL701–704) is exactly what runs here:

* **counting** symbols keep per-fact derivation counts
  (:class:`~repro.iql.supports.SupportTable`). An update adjusts counts
  by enumerating only the valuations that touch a delta fact — through
  the compiled semi-naive kernels of :mod:`repro.iql.compile` when
  available — and a fact is physically inserted or retracted exactly
  when its count crosses zero. Exact for both inserts and deletes.
* **dred** symbols (recursive, or reached through negation) get the
  classical two phases: *over-delete* a conservative superset of the
  facts whose derivations may involve the delta, then *re-derive* by
  re-running the stratum to its fixpoint on the new state. Facts that
  come back are counted in ``stats.rederived``.
* **recompute** certificates (a maintenance hazard in the cone) fall
  back — a batch touching one re-evaluates from the maintained base
  input; class-extent updates fall back to re-running only the
  certified slice strata. Both are tallied in
  ``stats.maintenance_fallbacks``.

Exactness of the counting adjustments rests on a dying/born argument: a
valuation θ of a counting rule changes validity across the update iff it
uses at least one deleted fact in a positive relation position (*dying*,
enumerated against the old state) or at least one inserted fact (*born*,
enumerated against the new state); negative literals cannot flip because
a symbol read non-monotonically from a changing symbol makes the reader
DRed, and class extents / ν cannot change because class-base batches
take the slice-recompute path. A valuation enumerated from several delta
positions is deduplicated per rule, and a fact that dies and is reborn
(e.g. through an over-deleted, re-derived upstream fact) nets to zero.
The invariant ``fact ∈ ρ(S) ⟺ count(S, fact) ≥ 1`` holds at the initial
fixpoint because the evaluator runs scheduled (counting symbols live in
certified, topologically ordered strata, so their reads are final when
their stratum converges); a :class:`MaterializedProgram` built over an
unscheduled evaluator detects the mismatch per symbol and demotes it to
DRed instead of serving wrong counts.

Deletion happens *in place*: the removal mutators of
:class:`~repro.schema.instance.Instance` retract the affected index
entries instead of dropping the index set, so the hash joins — and the
compiled kernels capturing their buckets — stay warm across updates.

``repro maintain`` is the CLI face (a read-eval-update loop over
``+R fact`` / ``-R fact`` lines); benchmark E20
(``benchmarks/bench_ivm.py``) measures updates/sec against full
re-evaluation; :func:`repro.analysis.maintenance.replay_insert` is the
differential oracle the property tests compare against.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.effects import delta_body, head_symbol, rule_effects
from repro.analysis.maintenance import (
    COUNTING,
    DRED,
    NOOP,
    _ORDER,
    MaintenanceCertificate,
    build_certificates,
    validate_certificate,
)
from repro.errors import EvaluationError
from repro.iql.evaluator import EvaluationResult, EvaluationStats, Evaluator
from repro.iql.program import Program
from repro.iql.rules import Rule
from repro.iql.supports import SupportTable
from repro.iql.valuation import eval_term, match, solve_body
from repro.schema.instance import Instance
from repro.values.ovalues import Oid, OValue, ensure_ovalue

#: One base-fact update: ``(symbol, value)``.
Update = Tuple[str, OValue]
#: Per-symbol delta sets.
Delta = Dict[str, Set[OValue]]


class _BatchPlan:
    """The merged maintenance plan of one update batch.

    Every involved certificate contributes its cone; since a slice
    stratum is a whole schedule stratum, merging by ``(stage, stratum)``
    key is well defined, and per-symbol strategies fold by severity.
    """

    __slots__ = ("strategies", "ordered", "derived_set", "members", "via_negation")

    def __init__(
        self,
        strategies: Dict[str, str],
        ordered: List[Tuple[Tuple[int, int], Tuple[Rule, ...]]],
        derived_set: Set[str],
        members: Set[str],
        via_negation: bool,
    ):
        self.strategies = strategies
        self.ordered = ordered
        self.derived_set = derived_set
        self.members = members
        self.via_negation = via_negation


class MaterializedProgram:
    """A live, incrementally-maintained fixpoint of one IQL program.

    ``input_instance`` is an instance over the program's input schema
    (it is copied; the copy — the *maintained base* — is kept in sync
    with every applied batch and is what fallback recomputes run from).
    The default evaluator is the production engine, scheduled and
    compiled — scheduling is what makes the counting invariant hold at
    the initial fixpoint, and compilation is what the delta joins ride
    on.

    ``stats`` is one cumulative :class:`EvaluationStats` across the
    initial run and every batch: the IVM counters (``deltas_applied``,
    ``supports_adjusted``, ``overdeleted``, ``rederived``,
    ``maintenance_fallbacks``) only ever grow here. The evaluator's
    ``limits.max_steps`` binds per batch, not over this total.
    """

    def __init__(
        self,
        program: Program,
        input_instance: Instance,
        evaluator: Optional[Evaluator] = None,
    ):
        self.program = program
        if evaluator is None:
            evaluator = Evaluator(program)
        if evaluator.program is not program:
            raise EvaluationError(
                "the evaluator was constructed for a different program"
            )
        self._evaluator = evaluator
        self._schema = program.schema
        base = input_instance
        if base.schema != program.input_schema:
            base = base.project(program.input_schema)
        #: The maintained copy of the base input, mirrored on every batch.
        self.base = base.copy()
        self.stats = EvaluationStats()

        result: EvaluationResult = evaluator.run(self.base)
        #: The live full instance (over S); queries read it directly.
        self.instance = result.full
        self.initial_stats = result.stats
        if evaluator._compiler is not None:
            evaluator._compiler.begin_run(self.stats)

        #: ``(base symbol, op) → certificate`` for every update class.
        self.certificates: Dict[Tuple[str, str], MaintenanceCertificate] = {}
        #: Violations per update class (certificate validation is hoisted
        #: here, once, instead of being paid on every replay).
        self._violations: Dict[Tuple[str, str], List[str]] = {}
        for cert in build_certificates(program):
            key = (cert.base, cert.op)
            self.certificates[key] = cert
            bad = validate_certificate(program, cert)
            if bad:
                self._violations[key] = bad

        #: Rules writing each derived relation (the support rebuilders).
        self._writers: Dict[str, List[Rule]] = {}
        for rule in program.rules:
            if not rule.delete:
                self._writers.setdefault(head_symbol(rule), []).append(rule)
        #: *Dual* symbols — base inputs that rules also write. Their
        #: extent is base facts ∪ derivations, so a delete touching one
        #: (directly, or through its cone) cannot be maintained by the
        #: readers-forward certificate alone: the base contribution has
        #: no dying valuation, and a deleted base fact may be
        #: re-derivable by writers outside the cone.
        self._dual: Set[str] = {
            name for name in program.input_names if name in self._writers
        }

        #: Symbols classified counting in at least one *certified* cone.
        self._counting_anywhere: Set[str] = set()
        for (key, cert) in self.certificates.items():
            if cert.certified and key not in self._violations:
                for symbol, strat in cert.classification:
                    if strat == COUNTING:
                        self._counting_anywhere.add(symbol)

        self.supports = SupportTable()
        #: Per counting symbol: does ``extent == supported facts`` hold?
        #: False demotes the symbol to DRed (see the module docstring).
        self._support_exact: Dict[str, bool] = {}
        self._build_supports(None)

    # -- queries -----------------------------------------------------------------

    def extent(self, symbol: str) -> Set[OValue]:
        """The current extent of a relation or class, as a fresh set."""
        if self._schema.is_relation(symbol):
            return set(self.instance.relations[symbol])
        if self._schema.is_class(symbol):
            return set(self.instance.classes[symbol])
        raise EvaluationError(f"unknown symbol {symbol!r}")

    def output(self) -> Instance:
        """The maintained instance projected on the output schema."""
        return self.instance.project(self.program.output_schema)

    # -- the one public mutator ---------------------------------------------------

    def apply_delta(
        self,
        inserts: Iterable[Update] = (),
        deletes: Iterable[Update] = (),
    ) -> EvaluationStats:
        """Apply one batch of base-fact updates and maintain the fixpoint.

        Deletes-then-inserts semantics per symbol: the *net* delta is
        Δ⁺ = inserts − extent and Δ⁻ = (deletes ∩ extent) − inserts, so
        deleting and re-inserting the same fact in one batch is a no-op.
        Returns the cumulative :attr:`stats`.
        """
        # The step budget binds per batch: count this batch's steps from
        # zero, then fold them into the cumulative total.
        steps_before = self.stats.steps
        self.stats.steps = 0
        try:
            self._apply(self._group(inserts), self._group(deletes))
        finally:
            self.stats.steps += steps_before
        return self.stats

    # -- batch dispatch -----------------------------------------------------------

    def _group(self, updates: Iterable[Update]) -> Delta:
        grouped: Delta = {}
        for symbol, value in updates:
            if symbol not in self.program.input_names:
                raise EvaluationError(
                    f"{symbol!r} is not an updatable base symbol of the program"
                )
            if self._schema.is_class(symbol):
                if not isinstance(value, Oid):
                    raise EvaluationError(
                        f"class-extent update on {symbol!r} needs an oid, "
                        f"got {value!r}"
                    )
                grouped.setdefault(symbol, set()).add(value)
            else:
                grouped.setdefault(symbol, set()).add(ensure_ovalue(value))
        return grouped

    def _apply(self, inserts: Delta, deletes: Delta) -> None:
        plus: Delta = {}
        minus: Delta = {}
        for name in set(inserts) | set(deletes):
            extent = (
                self.instance.relations[name]
                if self._schema.is_relation(name)
                else self.instance.classes[name]
            )
            ins = inserts.get(name, set())
            p = {v for v in ins if v not in extent}
            m = {v for v in deletes.get(name, set()) if v in extent and v not in ins}
            if p:
                plus[name] = p
            if m:
                minus[name] = m
        if not plus and not minus:
            return
        self.stats.deltas_applied += sum(len(v) for v in plus.values()) + sum(
            len(v) for v in minus.values()
        )
        self._mirror_base(plus, minus)

        involved: List[MaintenanceCertificate] = []
        for name in plus:
            involved.append(self.certificates[(name, "insert")])
        for name in minus:
            involved.append(self.certificates[(name, "delete")])
        if any(
            not cert.certified or (cert.base, cert.op) in self._violations
            for cert in involved
        ):
            self._full_recompute()
            return
        plan = self._merge(involved)
        if any(self._schema.is_class(name) for name in list(plus) + list(minus)):
            self._slice_recompute(plan, plus, minus)
            return
        if minus and self._dual & (set(minus) | plan.derived_set):
            self._full_recompute()
            return
        if minus or plan.via_negation:
            self._general_path(plan, plus, minus)
        else:
            self._insert_only(plan, plus)
        if self.supports.negative_symbols():  # pragma: no cover - defensive
            self._slice_recompute(plan, {}, {})

    def _merge(self, involved: List[MaintenanceCertificate]) -> _BatchPlan:
        strategies: Dict[str, str] = {}
        slice_map: Dict[Tuple[int, int], Tuple[Rule, ...]] = {}
        derived: Set[str] = set()
        members: Set[str] = set()
        via_negation = False
        for cert in involved:
            for symbol, strat in cert.classification:
                if _ORDER[strat] > _ORDER[strategies.get(symbol, NOOP)]:
                    strategies[symbol] = strat
            for ref, rules in zip(cert.cone.slice, cert.cone.slice_rules):
                slice_map[(ref.stage, ref.stratum)] = rules
            derived.update(cert.cone.derived)
            members.update(cert.cone.impacts)
            if cert.cone.via_negation:
                via_negation = True
        # A counting symbol whose support table does not exactly mirror
        # its extent (unscheduled initial run) cannot be trusted: demote.
        for symbol, strat in strategies.items():
            if strat == COUNTING and not self._support_exact.get(symbol, False):
                strategies[symbol] = DRED
        return _BatchPlan(
            strategies, sorted(slice_map.items()), derived, members, via_negation
        )

    # -- base bookkeeping ----------------------------------------------------------

    def _mirror_base(self, plus: Delta, minus: Delta) -> None:
        for target in (self.base,):
            for name, values in minus.items():
                if self._schema.is_relation(name):
                    for value in values:
                        target.remove_relation_member(name, value)
                else:
                    for oid in values:
                        target.remove_class_member(name, oid)
            for name, values in plus.items():
                if self._schema.is_relation(name):
                    for value in values:
                        target.add_relation_member(name, value)
                else:
                    for oid in values:
                        target.add_class_member(name, oid)

    def _apply_base_live(self, plus: Delta, minus: Delta) -> None:
        for name, values in minus.items():
            if self._schema.is_relation(name):
                for value in values:
                    if self.instance.remove_relation_member(name, value):
                        self.stats.facts_deleted += 1
            else:
                for oid in values:
                    if self.instance.remove_class_member(name, oid):
                        self.stats.facts_deleted += 1
        for name, values in plus.items():
            if self._schema.is_relation(name):
                for value in values:
                    if self.instance.add_relation_member(name, value):
                        self.stats.facts_added += 1
            else:
                for oid in values:
                    if self.instance.add_class_member(name, oid):
                        self.stats.facts_added += 1

    # -- fallback tiers -------------------------------------------------------------

    def _full_recompute(self) -> None:
        """Re-evaluate from the maintained base input (hazardous cone)."""
        self.stats.maintenance_fallbacks += 1
        result = self._evaluator.run(self.base)
        self.instance = result.full
        if self._evaluator._compiler is not None:
            self._evaluator._compiler.begin_run(self.stats)
        self._build_supports(None)

    def _slice_recompute(self, plan: _BatchPlan, plus: Delta, minus: Delta) -> None:
        """Clear and re-run only the certified slice strata (class bases,
        or a defensive recovery when a support count went negative)."""
        self.stats.maintenance_fallbacks += 1
        self._apply_base_live(plus, minus)
        for symbol in sorted(plan.derived_set):
            if self._schema.is_relation(symbol):
                relation = self.instance.relations[symbol]
                relation.clear()
                if symbol in self._dual:
                    # A dual symbol keeps its base contribution.
                    relation |= self.base.relations[symbol]
        self.instance.drop_indexes()
        for _key, rules in plan.ordered:
            self._evaluator.solve_stratum(self.instance, rules, self.stats)
        self._build_supports(self._counting_anywhere & plan.derived_set)

    # -- the incremental paths -------------------------------------------------------

    def _insert_only(self, plan: _BatchPlan, plus: Delta) -> None:
        """Pure insert propagation: no retraction anywhere (no deletes in
        the batch, no negation in the merged cone), so every stratum is
        either an exact counting round or a delta-seeded fixpoint."""
        self._apply_base_live(plus, {})
        delta_plus: Delta = {name: set(values) for name, values in plus.items()}
        dirty: Set[str] = set()
        for _key, rules in plan.ordered:
            live = {name for name, values in delta_plus.items() if values}
            if not live:
                break
            if not any(
                rule_effects(rule, self._schema).reads & live for rule in rules
            ):
                continue
            written = {
                s
                for s in (head_symbol(rule) for rule in rules)
                if self._schema.is_relation(s)
            }
            if self._counting_stratum(rules, plan):
                crossed = self._counting_adjust(
                    rules, delta_plus, self.instance, +1, use_kernels=True
                )
                for symbol, facts in crossed.items():
                    for fact in facts:
                        if self.instance.add_relation_member(symbol, fact):
                            self.stats.facts_added += 1
                    delta_plus.setdefault(symbol, set()).update(facts)
            else:
                added: Delta = {}
                self._evaluator.solve_stratum(
                    self.instance,
                    rules,
                    self.stats,
                    initial_delta=delta_plus,
                    added=added,
                )
                for symbol, facts in added.items():
                    delta_plus.setdefault(symbol, set()).update(facts)
                # Support counts can grow even when no fact is new (a
                # second derivation of an existing fact), so dirtiness is
                # keyed on the stratum having run, not on ``added``.
                dirty |= written & self._counting_anywhere
        if dirty:
            self._build_supports(dirty)

    def _general_path(self, plan: _BatchPlan, plus: Delta, minus: Delta) -> None:
        """The two-phase path for batches that can retract derived facts.

        Phase A sweeps the *old* state in topological order: counting
        strata decrement the dying valuations exactly; DRed strata mark a
        conservative over-delete set. Phase B retracts everything marked,
        in place; phase C applies the base inserts; phase D sweeps the
        *new* state: counting strata increment the born valuations, DRed
        strata re-run to fixpoint (re-deriving survivors of the
        over-delete).

        Nothing mutates until phase B, so the live instance *is* the old
        state throughout phase A — no snapshot copy, and the compiled
        kernels (validated by instance identity) serve both sweeps.
        """
        old = self.instance
        delta_plus: Delta = {name: set(values) for name, values in plus.items()}
        delta_minus: Delta = {name: set(values) for name, values in minus.items()}
        changed = set(plus) | set(minus) | plan.derived_set
        over: Delta = {}
        exact_dead: Delta = {}
        dirty: Set[str] = set()
        counting_strata: Set[Tuple[int, int]] = set()

        # Phase A: dying valuations / over-deletion, against the old state.
        for key, rules in plan.ordered:
            if self._counting_stratum(rules, plan):
                counting_strata.add(key)
                live_minus = {n for n, v in delta_minus.items() if v}
                if not live_minus:
                    continue
                crossed = self._counting_adjust(
                    rules, delta_minus, old, -1, use_kernels=True
                )
                for symbol, facts in crossed.items():
                    delta_minus.setdefault(symbol, set()).update(facts)
                    exact_dead.setdefault(symbol, set()).update(facts)
            else:
                marked = self._overdelete_stratum(rules, old, plan, changed, delta_minus)
                for symbol, facts in marked.items():
                    if not facts:
                        continue
                    self.stats.overdeleted += len(facts)
                    delta_minus.setdefault(symbol, set()).update(facts)
                    over.setdefault(symbol, set()).update(facts)

        # Phase B: retract, in place (indexes and kernels stay warm).
        for doomed in (exact_dead, over):
            for symbol, facts in doomed.items():
                for fact in facts:
                    if self.instance.remove_relation_member(symbol, fact):
                        self.stats.facts_deleted += 1
        # Phase C: the base updates themselves.
        self._apply_base_live(plus, minus)

        # Phase D: born valuations / re-derivation, against the new state.
        for key, rules in plan.ordered:
            if key in counting_strata:
                live_plus = {n for n, v in delta_plus.items() if v}
                if not live_plus:
                    continue
                crossed = self._counting_adjust(
                    rules, delta_plus, self.instance, +1, use_kernels=True
                )
                for symbol, facts in crossed.items():
                    for fact in facts:
                        if self.instance.add_relation_member(symbol, fact):
                            self.stats.facts_added += 1
                    delta_plus.setdefault(symbol, set()).update(facts)
            else:
                written = {
                    s
                    for s in (head_symbol(rule) for rule in rules)
                    if self._schema.is_relation(s)
                }
                before = {s: set(self.instance.relations[s]) for s in written}
                self._evaluator.solve_stratum(self.instance, rules, self.stats)
                for symbol in written:
                    fresh = self.instance.relations[symbol] - before[symbol]
                    if fresh:
                        delta_plus.setdefault(symbol, set()).update(fresh)
                        self.stats.rederived += len(fresh & over.get(symbol, set()))
                dirty |= written & self._counting_anywhere
        if dirty:
            self._build_supports(dirty)

    # -- counting machinery -----------------------------------------------------------

    def _counting_stratum(self, rules: Sequence[Rule], plan: _BatchPlan) -> bool:
        """Can this stratum run as an exact counting round?

        Every rule writing a merged-cone symbol must have a counting head
        and a delta-rewritable body; a rule writing outside the cone must
        not read any cone member (then the batch cannot change it)."""
        for rule in rules:
            head = head_symbol(rule)
            if head in plan.derived_set:
                if plan.strategies.get(head) != COUNTING:
                    return False
                if delta_body(rule, self._schema) is None:
                    return False
            elif rule_effects(rule, self._schema).reads & plan.members:
                return False  # pragma: no cover - forward closure forbids this
        return True

    def _delta_valuations(
        self,
        rule: Rule,
        shape,
        delta: Delta,
        instance: Instance,
        use_kernels: bool,
    ):
        """Yield ``(dedup key, head value)`` for every valuation of
        ``rule`` that uses at least one ``delta`` fact in a positive
        relation position. Keys are canonical per call (kernel slot
        tuples or frozen θs — never mixed, since the kernel decision is
        made once per rule), so the caller can deduplicate valuations
        enumerated from several delta positions.

        Kernels are only valid against the instance they captured (the
        per-rule cache revalidates by identity), which is why the general
        path keeps the live instance unmutated through its whole phase A.
        """
        compiler = self._evaluator._compiler if use_kernels else None
        budget = self._evaluator.limits.enumeration_budget
        head_term = rule.head.element
        body = list(rule.body)
        live = [
            p for p in shape.relation_positions if delta.get(body[p].container.name)
        ]
        per_position = None
        kernels = compiler.seminaive_kernels(rule, instance) if compiler else None
        if kernels is not None:
            per_position = {p: kernels.delta(p, self.stats) for p in live}
            if None in per_position.values():
                # A live position falls outside the compiled fragment:
                # the whole rule runs interpreted, so the dedup keys of
                # one call are never mixed.
                compiler.demote(rule, kernels.fallback)
                per_position = None
        for position in live:
            literal = body[position]
            source = delta[literal.container.name]
            if per_position is not None:
                matcher, rest_body, head_eval = per_position[position]
                order = tuple(
                    rest_body.slot_index[v]
                    for v in sorted(rest_body.slot_vars, key=lambda v: v.name)
                )
                firings: List[Tuple[tuple, OValue]] = []

                def consume(
                    slots: List[object],
                    _he: Callable = head_eval,
                    _f: List = firings,
                    _o: tuple = order,
                ) -> None:
                    value = _he(slots)
                    if value is not None:
                        _f.append((tuple(slots[i] for i in _o), value))

                slots = rest_body.new_slots()
                rest_body.sink_cell[0] = consume
                entry = rest_body.entry
                for fact in source:
                    if matcher(fact, slots):
                        entry(slots)
                yield from firings
                continue
            rest = body[:position] + body[position + 1 :]
            for fact in source:
                for seed in match(literal.element, fact, {}, instance, True, self.stats):
                    for theta in solve_body(
                        rest,
                        instance,
                        enumeration_budget=budget,
                        initial=seed,
                        stats=self.stats,
                        plan_cache=rule.plan_cache,
                    ):
                        value = eval_term(head_term, theta, instance)
                        if value is not None:
                            yield (frozenset(theta.items()), value)

    def _counting_adjust(
        self,
        rules: Sequence[Rule],
        delta: Delta,
        instance: Instance,
        sign: int,
        use_kernels: bool,
    ) -> Delta:
        """One exact counting round: enumerate the valuations of ``rules``
        that use at least one ``delta`` fact in a positive relation
        position (deduplicated per rule across positions), adjust the
        support counts by ``sign``, and return the facts whose count
        crossed zero — born facts for +1, dying facts for -1."""
        crossed: Delta = {}
        for rule in rules:
            shape = delta_body(rule, self._schema)
            if shape is None:
                continue  # writes outside the cone; reads no delta
            head_name = head_symbol(rule)
            if head_name not in self.supports.counts and head_name not in (
                self._counting_anywhere
            ):
                continue  # pragma: no cover - counting strata write counting heads
            seen: Set[object] = set()
            for key, value in self._delta_valuations(
                rule, shape, delta, instance, use_kernels
            ):
                if key in seen:
                    continue
                seen.add(key)
                self._adjust(head_name, value, sign, crossed)
        return crossed

    def _adjust(self, symbol: str, fact: OValue, sign: int, crossed: Delta) -> None:
        self.stats.supports_adjusted += 1
        if sign > 0:
            if self.supports.add(symbol, fact) == 1:
                crossed.setdefault(symbol, set()).add(fact)
        else:
            if self.supports.sub(symbol, fact) == 0:
                crossed.setdefault(symbol, set()).add(fact)

    # -- DRed machinery ----------------------------------------------------------------

    def _overdelete_stratum(
        self,
        rules: Sequence[Rule],
        old: Instance,
        plan: _BatchPlan,
        changed: Set[str],
        delta_minus: Delta,
    ) -> Delta:
        """The over-delete set of one DRed stratum, against the old state.

        A head fact is marked when some old-state derivation of it uses a
        deleted (or already-marked — recursion) fact positively; a rule
        with a non-rewritable body, or one reading a changing symbol
        non-monotonically, conservatively marks its whole head extent.
        Marks propagate semi-naively: each round delta-joins only the
        *frontier* (the facts marked in the previous round), so every
        mark is processed as a delta exactly once."""
        marked: Delta = {}
        frontier: Delta = {n: set(v) for n, v in delta_minus.items() if v}
        delta_rules = []
        for rule in rules:
            head_name = head_symbol(rule)
            if head_name not in plan.derived_set:
                continue
            shape = delta_body(rule, self._schema)
            effects = rule_effects(rule, self._schema)
            if shape is None or effects.nonmonotone_reads & changed:
                # Mark-everything rules do not depend on the frontier:
                # one conservative pass up front is their fixpoint.
                extent = old.relations[head_name]
                already = marked.setdefault(head_name, set())
                fresh = extent - already
                if fresh:
                    already |= fresh
                    frontier.setdefault(head_name, set()).update(fresh)
            else:
                delta_rules.append((rule, shape))
        use_kernels = old is self.instance
        while any(frontier.values()):
            next_frontier: Delta = {}
            for rule, shape in delta_rules:
                head_name = head_symbol(rule)
                extent = old.relations[head_name]
                already = marked.setdefault(head_name, set())
                for _key, value in self._delta_valuations(
                    rule, shape, frontier, old, use_kernels
                ):
                    if value in extent and value not in already:
                        already.add(value)
                        next_frontier.setdefault(head_name, set()).add(value)
            frontier = next_frontier
        return marked

    # -- support (re)building ------------------------------------------------------------

    def _build_supports(self, symbols: Optional[Iterable[str]]) -> None:
        """(Re)count the derivations of the given counting symbols (all of
        them when ``symbols`` is None) against the live instance."""
        targets = (
            set(symbols) if symbols is not None else set(self._counting_anywhere)
        )
        budget = self._evaluator.limits.enumeration_budget
        for symbol in sorted(targets):
            counts: Dict[OValue, int] = {}
            for rule in self._writers.get(symbol, ()):
                seen: Set[object] = set()
                for theta in solve_body(
                    rule.body,
                    self.instance,
                    enumeration_budget=budget,
                    stats=self.stats,
                    plan_cache=rule.plan_cache,
                ):
                    key = frozenset(theta.items())
                    if key in seen:
                        continue
                    seen.add(key)
                    value = eval_term(rule.head.element, theta, self.instance)
                    if value is not None:
                        counts[value] = counts.get(value, 0) + 1
            self.supports.set_counts(symbol, counts)
            self._support_exact[symbol] = (
                set(counts) == self.instance.relations[symbol]
                if self._schema.is_relation(symbol)
                else False
            )
