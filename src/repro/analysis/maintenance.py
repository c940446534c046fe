"""Maintenance certificates: how to keep a fixpoint live under updates.

Built on the affected cones of :mod:`repro.analysis.impact`, this module
classifies every derived symbol of an update class ``(base symbol,
insert | delete)`` into the incremental-maintenance trichotomy:

* **counting** — the symbol's own defining rules are non-recursive and
  every path from the update is positive: given the upstream deltas,
  counting maintenance (track derivation counts, decrement on retraction)
  keeps it exact under both inserts and deletes,
* **dred** — the symbol is derived in a recursive SCC, or some path from
  the update crosses negation or a snapshot read (the delta arriving is
  sign-flipped): maintenance needs DRed's over-delete/re-derive phases,
* **recompute** — a maintenance hazard sits on some path (oid invention,
  weak assignment ★, IQL* deletion, ``choose``, an uncertifiable stage,
  a non-relational or straddling write, a stage-crossing read, or a
  non-range-restricted rule anywhere): no incremental strategy is sound
  and the fixpoint must be recomputed from scratch,

plus **noop** for the empty cone (the symbol is static).

A :class:`MaintenanceCertificate` packages one update class's strategy,
cone, stratum slice, and per-rule delta summaries (reusing
:func:`repro.analysis.effects.delta_body`) into the machine-checkable
form the future IVM runtime will consume. Two consumers exist today:

* :func:`check_certificate` re-validates a certificate against the
  program — cone closure, slice completeness and ordering, hazard
  freedom — returning the list of violations (empty = sound);
  :func:`validate_certificate` is its memoized front (one static-
  analysis pass per certificate, not one per replay),
* :func:`replay_insert` executes a certificate's maintenance plan for a
  single-fact insert: validate, apply the fact, clear the cone's derived
  relation extents, and re-run exactly the slice strata via
  :meth:`repro.iql.evaluator.Evaluator.solve_stratum`. For a sound
  certificate the result equals a full re-evaluation (up to
  O-isomorphism), which is what the differential property tests check.

The replay is deliberately the *semantics* of a certificate, not its
cheapest implementation — it is the differential oracle that the real
IVM runtime (:class:`repro.iql.ivm.MaterializedProgram`, with its
counting and DRed fast paths) is tested against without changing what
both must produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.effects import delta_body, head_symbol, rule_effects
from repro.analysis.impact import ImpactCone, UPDATE_OPS, program_cones
from repro.iql.evaluator import EvaluationStats, Evaluator
from repro.iql.program import Program
from repro.schema.instance import Instance
from repro.schema.schema import Schema
from repro.values.ovalues import Oid, OValue, ensure_ovalue

COUNTING = "counting"
DRED = "dred"
RECOMPUTE = "recompute"
NOOP = "noop"

#: Severity order for folding per-symbol strategies into one per cone.
_ORDER = {NOOP: 0, COUNTING: 1, DRED: 2, RECOMPUTE: 3}


def classify_cone(cone: ImpactCone) -> Dict[str, str]:
    """The strategy of every *derived* symbol of ``cone``.

    Counting is a per-symbol statement relative to its upstream deltas:
    a non-recursive, positively-reached symbol is counting-maintainable
    even when an upstream symbol needs DRed to produce those deltas.
    """
    out: Dict[str, str] = {}
    for symbol in cone.derived:
        impact = cone.impacts[symbol]
        if impact.hazards:
            out[symbol] = RECOMPUTE
        elif impact.recursive or impact.via_negation:
            out[symbol] = DRED
        else:
            out[symbol] = COUNTING
    return out


def overall_strategy(cone: ImpactCone) -> str:
    """The cone's single strategy: the worst over its derived symbols."""
    strategies = classify_cone(cone)
    if not strategies:
        return NOOP
    return max(strategies.values(), key=lambda s: _ORDER[s])


@dataclass(frozen=True)
class DeltaRuleInfo:
    """How the delta rewriting sees one slice rule (from
    :func:`repro.analysis.effects.delta_body`); ``delta_positions`` is
    ``None`` when the body shape is outside the rewritable fragment and
    the rule re-runs as a full join."""

    rule: str
    head: str
    delta_positions: Optional[Tuple[int, ...]]
    constant_generators: int
    equalities: int

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "head": self.head,
            "delta_positions": (
                list(self.delta_positions)
                if self.delta_positions is not None
                else None
            ),
            "constant_generators": self.constant_generators,
            "equalities": self.equalities,
        }


@dataclass(frozen=True)
class MaintenanceCertificate:
    """The maintenance plan of one update class, machine-checkable.

    ``strategy`` is the fold of ``classification`` (:data:`NOOP` when the
    cone is empty); a certificate whose strategy is :data:`COUNTING` or
    :data:`DRED` *certifies* its cone — :func:`check_certificate` must
    come back empty and :func:`replay_insert` must reproduce a full
    re-evaluation. :data:`RECOMPUTE` certificates record the blocking
    hazards and certify nothing.
    """

    base: str
    op: str
    strategy: str
    cone: ImpactCone = field(repr=False)
    classification: Tuple[Tuple[str, str], ...]  # (symbol, strategy), sorted
    delta_rules: Tuple[DeltaRuleInfo, ...]

    @property
    def certified(self) -> bool:
        return self.strategy in (COUNTING, DRED, NOOP)

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "op": self.op,
            "strategy": self.strategy,
            "certified": self.certified,
            "classification": {s: strat for s, strat in self.classification},
            "cone": self.cone.to_json(),
            "slice": [ref.to_json() for ref in self.cone.slice],
            "delta_rules": [info.to_json() for info in self.delta_rules],
            "hazards": [h.to_json() for h in self.cone.hazards],
        }


def build_certificate(
    program: Program,
    cone: ImpactCone,
    op: str,
    schema: Optional[Schema] = None,
) -> MaintenanceCertificate:
    """The certificate of one ``(base, op)`` update class."""
    if op not in UPDATE_OPS:
        raise ValueError(f"unknown update op {op!r}")
    schema = schema if schema is not None else program.schema
    strategies = classify_cone(cone)
    strategy = overall_strategy(cone)
    delta_rules: List[DeltaRuleInfo] = []
    if strategy in (COUNTING, DRED):
        for stratum in cone.slice_rules:
            for rule in stratum:
                body = delta_body(rule, schema)
                delta_rules.append(
                    DeltaRuleInfo(
                        rule=rule.display_label(),
                        head=head_symbol(rule),
                        delta_positions=(
                            body.relation_positions if body is not None else None
                        ),
                        constant_generators=(
                            len(body.constant_generators) if body is not None else 0
                        ),
                        equalities=len(body.equalities) if body is not None else 0,
                    )
                )
    return MaintenanceCertificate(
        base=cone.base,
        op=op,
        strategy=strategy,
        cone=cone,
        classification=tuple(sorted(strategies.items())),
        delta_rules=tuple(delta_rules),
    )


def build_certificates(
    program: Program,
    schema: Optional[Schema] = None,
    symbols: Optional[Sequence[str]] = None,
    ops: Sequence[str] = UPDATE_OPS,
) -> List[MaintenanceCertificate]:
    """Certificates for every requested update class of ``program``."""
    schema = schema if schema is not None else program.schema
    cones = program_cones(program, schema, symbols)
    return [
        build_certificate(program, cone, op, schema)
        for cone in cones
        for op in ops
    ]


def check_certificate(
    program: Program,
    certificate: MaintenanceCertificate,
    schema: Optional[Schema] = None,
) -> List[str]:
    """Re-validate ``certificate`` against ``program`` from scratch.

    Returns the violations that would make the certified maintenance
    plan unsound (empty list = sound). :data:`RECOMPUTE` certificates
    certify nothing, but must at least record a hazard justifying the
    give-up; :data:`NOOP` certificates must have an empty cone.
    """
    schema = schema if schema is not None else program.schema
    cone = certificate.cone
    violations: List[str] = []

    if certificate.strategy == RECOMPUTE:
        if not cone.hazards:
            violations.append(
                "recompute strategy with no recorded hazard: the give-up "
                "is unjustified"
            )
        return violations
    if certificate.strategy == NOOP:
        if cone.derived:
            violations.append(
                f"noop strategy but the cone derives {list(cone.derived)}"
            )
        return violations

    members = set(cone.impacts)
    derived = set(cone.derived)

    # Conservativeness: a certified cone carries no hazard anywhere.
    for symbol in sorted(members):
        for hazard in cone.impacts[symbol].hazards:
            violations.append(
                f"certified cone symbol {symbol} carries hazard "
                f"{hazard.tag}: {hazard.detail}"
            )

    # Replay clears and re-derives relation extents only.
    for symbol in sorted(derived):
        if not schema.is_relation(symbol):
            violations.append(
                f"certified derived symbol {symbol} is not a relation"
            )
        if symbol in program.input_names:
            violations.append(
                f"certified derived symbol {symbol} is an input symbol"
            )

    # Forward closure and slice completeness, from the program itself.
    slice_rule_ids = {
        id(rule) for stratum in cone.slice_rules for rule in stratum
    }
    for rule in program.rules:
        eff = rule_effects(rule, schema)
        if eff.reads & members and not eff.writes <= members:
            violations.append(
                f"cone is not forward-closed: rule "
                f"{rule.display_label()} reads "
                f"{sorted(eff.reads & members)} but writes "
                f"{sorted(eff.writes - members)} outside the cone"
            )
        if eff.writes & derived and id(rule) not in slice_rule_ids:
            violations.append(
                f"slice is incomplete: rule {rule.display_label()} writes "
                f"{sorted(eff.writes & derived)} but is not scheduled"
            )

    # The slice must re-run in stage order, topologically within a stage.
    order = [(ref.stage, ref.stratum) for ref in cone.slice]
    if order != sorted(order):
        violations.append(f"slice strata are out of order: {order}")

    # Per-symbol classifications must match the recorded flags.
    for symbol, strategy in certificate.classification:
        impact = cone.impacts.get(symbol)
        if impact is None:
            violations.append(f"classified symbol {symbol} is not in the cone")
            continue
        if strategy == COUNTING and (impact.recursive or impact.via_negation):
            violations.append(
                f"{symbol} classified counting but reached "
                f"{'recursively' if impact.recursive else 'through negation'}"
            )
    return violations


def validate_certificate(
    program: Program,
    certificate: MaintenanceCertificate,
    schema: Optional[Schema] = None,
) -> List[str]:
    """:func:`check_certificate`, memoized on the certificate.

    Certificate validation is a static-analysis pass over the whole
    program; executing it once per *replay* (or per IVM batch) would
    dominate small-delta maintenance. The result is cached on the
    certificate itself, keyed by the program identity — certificates are
    frozen (and unhashable: the cone holds a dict), so the memo rides on
    ``object.__setattr__`` rather than an external table.
    """
    cached = getattr(certificate, "_validation", None)
    if cached is not None and cached[0] is program:
        return list(cached[1])
    violations = check_certificate(program, certificate, schema)
    object.__setattr__(certificate, "_validation", (program, tuple(violations)))
    return violations


def replay_insert(
    program: Program,
    previous_full: Instance,
    certificate: MaintenanceCertificate,
    value: OValue,
    evaluator: Optional[Evaluator] = None,
    stats: Optional[EvaluationStats] = None,
) -> Instance:
    """Execute ``certificate``'s maintenance plan for one inserted fact.

    ``previous_full`` is the *full* instance (over S, not Sout) of the
    evaluation being maintained — :attr:`EvaluationResult.full`. Returns
    a new instance; the input is not modified. Only certified
    certificates replay; a :data:`RECOMPUTE` one raises ``ValueError``
    (that is its meaning: re-evaluate from scratch).
    """
    if certificate.op != "insert":
        raise ValueError(f"replay_insert on a {certificate.op!r} certificate")
    if not certificate.certified:
        raise ValueError(
            f"certificate for {certificate.base!r} is not certified "
            f"(strategy {certificate.strategy}): full recompute required"
        )
    violations = validate_certificate(program, certificate)
    if violations:
        raise ValueError(
            f"certificate for {certificate.base!r} fails validation: "
            f"{'; '.join(violations)}"
        )
    schema = program.schema
    working = previous_full.copy()
    if schema.is_class(certificate.base):
        if not isinstance(value, Oid):
            raise ValueError(
                f"class-extent insert into {certificate.base!r} needs an oid"
            )
        working.add_class_member(certificate.base, value)
    else:
        working.add_relation_member(certificate.base, ensure_ovalue(value))
    for symbol in certificate.cone.derived:
        working.relations[symbol].clear()
    working.drop_indexes()
    ev = evaluator if evaluator is not None else Evaluator(program)
    run_stats = stats if stats is not None else EvaluationStats()
    for stratum in certificate.cone.slice_rules:
        ev.solve_stratum(working, stratum, run_stats)
    return working
