"""Incremental view maintenance: live fixpoints under base-fact updates.

:class:`MaterializedProgram` keeps one evaluation of an IQL program
*live*: it runs the initial fixpoint once, then applies batches of base
fact inserts and deletes by executing the program's
:class:`~repro.analysis.maintenance.MaintenanceCertificate`\\ s instead
of re-evaluating from scratch. The strategy trichotomy certified by the
PR-6 analysis (IQL701–704) is exactly what runs here:

* **counting** symbols keep per-fact derivation counts
  (:class:`~repro.iql.supports.SupportTable`), counted at construction
  by each writer's compiled round-0 kernel. An update adjusts counts
  by enumerating only the valuations that touch a delta fact, through
  the compiled semi-naive kernels of :mod:`repro.iql.compile`, and a
  fact is physically inserted or retracted exactly when its count
  crosses zero. Exact for both inserts and deletes. A counting symbol
  with a writer that does not compile is demoted to DRed.
* **dred** symbols (recursive, or reached through negation) get the
  classical two phases: *over-delete* a conservative superset of the
  facts whose derivations may involve the delta, then *re-derive*:
  probe each over-deleted fact for a derivation on the new state
  through a compiled head-bound kernel, add the facts that came back,
  and run the stratum semi-naively from those facts and the facts
  inserted so far, so the cost follows the over-deleted cone. A stratum
  outside the semi-naive fragment, one that reads a changing symbol
  non-monotonically, or one that over-deleted at least as many facts as
  survived re-runs whole instead (``stats.rederive_reruns``). Facts
  that come back are counted in ``stats.rederived``.
* **recompute** certificates (a maintenance hazard in the cone) fall
  back — a batch touching one re-evaluates from the maintained base
  input, and so does a batch that needs a delta kernel that does not
  compile (or any delta join, when the evaluator has no compiler);
  class-extent updates fall back to re-running only the certified
  slice strata. All are tallied in ``stats.maintenance_fallbacks``.
  Maintenance joins run on compiled kernels only.

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

Batches are atomic: a batch that raises partway (a step budget, a
malformed value) puts the maintained base back as it was and recomputes
the instance and the supports from it before the exception propagates.
Should that recompute raise too, the materialization is *stale*: every
later query or batch first recomputes it, and raises for as long as
that recompute does, so a stale instance is never served.

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
from repro.iql.compile import HEAD
from repro.iql.evaluator import EvaluationResult, EvaluationStats, Evaluator
from repro.iql.program import Program
from repro.iql.rules import Rule
from repro.iql.seminaive import stage_eligible
from repro.iql.supports import SupportTable
from repro.schema.instance import Instance
from repro.values.ovalues import Oid, OValue, ensure_ovalue

#: One base-fact update: ``(symbol, value)``.
Update = Tuple[str, OValue]
#: Per-symbol delta sets.
Delta = Dict[str, Set[OValue]]


class _Derivable(Exception):
    """Raised by a head probe's sink: the probed fact has a derivation."""


def _stop_at_first(slots: object) -> None:
    raise _Derivable


class _NoKernel(Exception):
    """A delta join this batch needs has no compiled kernel: the batch
    recomputes from the maintained base instead."""


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
        #: True while :attr:`instance` may not be the fixpoint of
        #: :attr:`base` (a failed batch's recompute raised).
        self._stale = False

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
        self._refresh()
        if self._schema.is_relation(symbol):
            return set(self.instance.relations[symbol])
        if self._schema.is_class(symbol):
            return set(self.instance.classes[symbol])
        raise EvaluationError(f"unknown symbol {symbol!r}")

    def output(self) -> Instance:
        """The maintained instance projected on the output schema."""
        self._refresh()
        return self.instance.project(self.program.output_schema)

    def _refresh(self) -> None:
        """Recompute a stale materialization; raises while that does."""
        if self._stale:
            self._full_recompute()

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

        A batch is atomic. If maintaining it raises (a step budget, a
        malformed value), the maintained base is put back as it was, the
        instance and the supports are recomputed from it, and the
        exception propagates. The recompute runs under the same limits;
        should it raise too, that error propagates instead and the
        materialization is stale: this method, :meth:`extent` and
        :meth:`output` first recompute it from the restored base, and
        raise that recompute's error for as long as it fails, instead of
        answering from the half-maintained instance.
        """
        self._refresh()
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
        added: Delta = {}
        removed: Delta = {}
        lost_nu = {
            oid: self.base.nu[oid]
            for name, oids in minus.items()
            if self._schema.is_class(name)
            for oid in oids
            if oid in self.base.nu
        }
        try:
            self._write(self.base, plus, minus, added, removed)
            self._maintain(plus, minus)
        except BaseException:
            self._write(self.base, removed, added, {}, {})
            for oid, value in lost_nu.items():
                self.base.assign(oid, value)
            self._full_recompute()
            raise
        self.stats.deltas_applied += sum(len(v) for v in plus.values()) + sum(
            len(v) for v in minus.values()
        )

    def _maintain(self, plus: Delta, minus: Delta) -> None:
        """Bring the instance and the supports to the fixpoint of the base,
        which already holds the net batch ``plus`` / ``minus``."""
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
        try:
            if minus or plan.via_negation:
                self._general_path(plan, plus, minus)
            else:
                self._insert_only(plan, plus)
        except _NoKernel:
            self._full_recompute()
            return
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

    def _write(
        self, target: Instance, plus: Delta, minus: Delta, added: Delta, removed: Delta
    ) -> None:
        """Delete ``minus`` from ``target``, then insert ``plus``, and
        record in ``added`` / ``removed`` the facts that changed it; a
        failed batch reverses its base update from that record."""
        for name, values in minus.items():
            remove = (
                target.remove_relation_member
                if self._schema.is_relation(name)
                else target.remove_class_member
            )
            for value in values:
                if remove(name, value):
                    removed.setdefault(name, set()).add(value)
        for name, values in plus.items():
            add = (
                target.add_relation_member
                if self._schema.is_relation(name)
                else target.add_class_member
            )
            for value in values:
                if add(name, value):
                    added.setdefault(name, set()).add(value)

    def _apply_base_live(self, plus: Delta, minus: Delta) -> None:
        added: Delta = {}
        removed: Delta = {}
        self._write(self.instance, plus, minus, added, removed)
        self.stats.facts_deleted += sum(len(v) for v in removed.values())
        self.stats.facts_added += sum(len(v) for v in added.values())

    # -- fallback tiers -------------------------------------------------------------

    def _full_recompute(self) -> None:
        """Re-evaluate from the maintained base input (a hazardous cone,
        a delta kernel that does not compile, or a failed batch); the
        materialization is stale until this returns."""
        self.stats.maintenance_fallbacks += 1
        self._stale = True
        result = self._evaluator.run(self.base)
        self.instance = result.full
        if self._evaluator._compiler is not None:
            self._evaluator._compiler.begin_run(self.stats)
        self._build_supports(None)
        self._stale = False

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
                crossed = self._counting_adjust(rules, delta_plus, self.instance, +1)
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
        *new* state: counting strata increment the born valuations, and
        DRed strata re-derive (:meth:`_rederive`): each over-deleted fact
        is probed for a surviving derivation with its head bound, the
        facts that came back are added, and a semi-naive fixpoint seeded
        with them and with everything inserted so far (``delta_plus``)
        derives the rest.

        Nothing mutates until phase B, so the live instance *is* the old
        state throughout phase A — no snapshot copy, and the compiled
        kernels (validated by instance identity) serve both sweeps.
        """
        old = self.instance
        delta_plus: Delta = {name: set(values) for name, values in plus.items()}
        delta_minus: Delta = {name: set(values) for name, values in minus.items()}
        changed = set(plus) | set(minus) | plan.derived_set
        over: Delta = {}
        overdeleted: Dict[Tuple[int, int], int] = {}
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
                crossed = self._counting_adjust(rules, delta_minus, old, -1)
                for symbol, facts in crossed.items():
                    delta_minus.setdefault(symbol, set()).update(facts)
                    exact_dead.setdefault(symbol, set()).update(facts)
            else:
                marked = self._overdelete_stratum(rules, old, plan, changed, delta_minus)
                overdeleted[key] = sum(len(facts) for facts in marked.values())
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
        survivors = {
            symbol: len(self.instance.relations[symbol])
            for symbol in plan.derived_set
            if self._schema.is_relation(symbol)
        }
        # Phase C: the base updates themselves.
        self._apply_base_live(plus, minus)

        # Phase D: born valuations / re-derivation, against the new state.
        for key, rules in plan.ordered:
            if key in counting_strata:
                live_plus = {n for n, v in delta_plus.items() if v}
                if not live_plus:
                    continue
                crossed = self._counting_adjust(rules, delta_plus, self.instance, +1)
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
                small_cone = overdeleted[key] < sum(
                    survivors.get(s, 0) for s in written
                )
                fresh = self._rederive(
                    rules, written, over, small_cone, changed, delta_plus
                )
                for symbol, facts in fresh.items():
                    if facts:
                        delta_plus.setdefault(symbol, set()).update(facts)
                        self.stats.rederived += len(facts & over.get(symbol, set()))
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

    def _delta_valuations(self, rule: Rule, shape, delta: Delta, instance: Instance):
        """Yield ``(dedup key, head value)`` for every valuation of
        ``rule`` that uses at least one ``delta`` fact in a positive
        relation position. Keys are the kernel's slot values in variable
        name order, so the caller can deduplicate valuations enumerated
        from several delta positions.

        Runs on the rule's compiled delta kernels only, and raises
        :class:`_NoKernel` when one of them does not compile. Kernels are
        only valid against the instance they captured (the per-rule cache
        revalidates by identity), which is why the general path keeps the
        live instance unmutated through its whole phase A.
        """
        body = rule.body
        live = [
            p for p in shape.relation_positions if delta.get(body[p].container.name)
        ]
        if not live:
            return
        compiler = self._evaluator._compiler
        kernels = compiler.seminaive_kernels(rule, instance) if compiler else None
        if kernels is None:
            raise _NoKernel
        per_position = []
        for position in live:
            kernel = kernels.delta(position, self.stats)
            if kernel is None:
                raise _NoKernel
            per_position.append((position, kernel))
        for position, (matcher, rest_body, head_eval) in per_position:
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
            for fact in delta[body[position].container.name]:
                if matcher(fact, slots):
                    entry(slots)
            yield from firings

    def _counting_adjust(
        self, rules: Sequence[Rule], delta: Delta, instance: Instance, sign: int
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
            for key, value in self._delta_valuations(rule, shape, delta, instance):
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
        while any(frontier.values()):
            next_frontier: Delta = {}
            for rule, shape in delta_rules:
                head_name = head_symbol(rule)
                extent = old.relations[head_name]
                already = marked.setdefault(head_name, set())
                for _key, value in self._delta_valuations(rule, shape, frontier, old):
                    if value in extent and value not in already:
                        already.add(value)
                        next_frontier.setdefault(head_name, set()).add(value)
            frontier = next_frontier
        return marked

    def _rederive(
        self,
        rules: Sequence[Rule],
        written: Set[str],
        over: Delta,
        small_cone: bool,
        changed: Set[str],
        delta_plus: Delta,
    ) -> Delta:
        """Phase D of one DRed stratum: bring its relations to the new
        fixpoint and return the facts it added.

        DRed's re-derive step (Gupta, Mumick and Subrahmanian, SIGMOD
        1993): probe every over-deleted fact that is not back yet against
        the new state with its head bound, add the facts that have a
        derivation, then run the stratum semi-naively from those facts
        and ``delta_plus``. Outside ``delta_plus`` the state holds old
        facts only, so a missing fact of the new fixpoint either has a
        derivation from them (an over-deleted fact, found by its probe)
        or uses a fact of the seed.

        The stratum re-runs whole from the new state instead unless it
        over-deleted fewer facts than survived in its relations
        (``small_cone``; at or above that, one full round costs no more
        than probing every over-deleted fact) and :meth:`_head_kernels`
        allows the probes.
        """
        relations = self.instance.relations
        kernels = self._head_kernels(rules, changed) if small_cone else None
        if kernels is None:
            self.stats.rederive_reruns += 1
            before = {s: set(relations[s]) for s in written}
            self._evaluator.solve_stratum(self.instance, rules, self.stats)
            return {s: relations[s] - before[s] for s in written}
        pending = {
            s: [fact for fact in over.get(s, ()) if fact not in relations[s]]
            for s in written
        }
        # Probe everything before adding anything: kernels iterate the
        # live extensions, which must not change under them.
        back: Delta = {}
        for symbol, (matcher, body, _head_eval) in kernels:
            if not pending[symbol]:
                continue
            found = back.setdefault(symbol, set())
            body.sink_cell[0] = _stop_at_first
            slots = body.new_slots()
            entry = body.entry
            for fact in pending[symbol]:
                if fact not in found and matcher(fact, slots):
                    try:
                        entry(slots)
                    except _Derivable:
                        found.add(fact)
        seed: Delta = dict(delta_plus)
        added: Delta = {}
        for symbol, facts in back.items():
            for fact in facts:
                if self.instance.add_relation_member(symbol, fact):
                    self.stats.facts_added += 1
                    added.setdefault(symbol, set()).add(fact)
        for symbol, facts in added.items():
            seed[symbol] = seed.get(symbol, set()) | facts
        self._evaluator.solve_stratum(
            self.instance, rules, self.stats, initial_delta=seed, added=added
        )
        return added

    def _head_kernels(
        self, rules: Sequence[Rule], changed: Set[str]
    ) -> Optional[List[Tuple[str, tuple]]]:
        """``(head symbol, head-bound kernel)`` per rule when one DRed
        stratum can re-derive by probes and a seeded fixpoint, else None.

        It can when it is semi-naive eligible, no rule reads a changing
        symbol non-monotonically (a negated fact that disappears can
        enable facts that were never over-deleted), and the evaluator
        compiles every rule's head-bound kernel.
        """
        compiler = self._evaluator._compiler
        if compiler is None or not stage_eligible(rules, self.instance):
            return None
        if any(
            rule_effects(rule, self._schema).nonmonotone_reads & changed
            for rule in rules
        ):
            return None
        kernels: List[Tuple[str, tuple]] = []
        for rule in rules:
            compiled = compiler.seminaive_kernels(rule, self.instance)
            head = compiled.delta(HEAD, self.stats) if compiled is not None else None
            if head is None:
                return None
            kernels.append((head_symbol(rule), head))
        return kernels

    # -- support (re)building ------------------------------------------------------------

    def _build_supports(self, symbols: Optional[Iterable[str]]) -> None:
        """(Re)count the derivations of the given counting symbols (all of
        them when ``symbols`` is None) against the live instance, each
        writer through its compiled round-0 kernel. A symbol with a
        writer that has no kernel is not exact (demoted to DRed)."""
        targets = (
            set(symbols) if symbols is not None else set(self._counting_anywhere)
        )
        compiler = self._evaluator._compiler
        for symbol in sorted(targets):
            counts: Dict[OValue, int] = {}
            exact = self._schema.is_relation(symbol)
            for rule in self._writers.get(symbol, ()):
                kernels = (
                    compiler.seminaive_kernels(rule, self.instance)
                    if exact and compiler is not None and rule.is_invention_free()
                    else None
                )
                if kernels is None:
                    exact = False
                    break

                def count(slots, _head=kernels.head_full):
                    value = _head(slots)
                    if value is not None:
                        counts[value] = counts.get(value, 0) + 1

                kernels.full.execute((), count)
            self.supports.set_counts(symbol, counts)
            self._support_exact[symbol] = (
                exact and set(counts) == self.instance.relations[symbol]
            )
