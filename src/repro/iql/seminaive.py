"""Semi-naive evaluation for eligible IQL stages.

The paper notes (§5, §8) that IQL "is a good candidate for conventional
database optimizations"; this module supplies the classical one. A stage
qualifies when its only *instance-dependent generators* are positive
memberships over relation names:

* every rule is plain (no delete, no choose), invention-free,
* every head is a relation membership ``R(t)`` whose element mentions no
  relation/class name term,
* positive membership literals have name containers (relations are the
  delta-driven generators; class extents are constant within such a stage,
  so class memberships act as constant generators),
* negative literals and equalities are admitted as long as (a) they
  mention no name terms — a name term's value is the *growing* extension —
  and (b) every rule variable is reachable from the generators, possibly
  through positive-equality binders (``y = x̂`` and tuple/set construction
  read only ν, which such a stage never mutates).

Soundness of the delta rewriting under these conditions: within the stage
only ρ grows — π and ν are untouched (relation heads only, invention-free)
— so negative literals can only become *falser* round over round and
equalities never change truth value. A derivation new in round k+1 must
therefore use at least one fact first derived in round k in a positive
relation membership, which is exactly what the rewriting enumerates. The
equivalence is tested against the naive evaluator (the specification) on
randomized inputs; benchmark E11 measures the speedup.

Derefence containers, class or deref heads, invention, set-variable
enumeration — anything beyond this fragment — runs the γ1 loop instead.
Every round runs on compiled kernels (:mod:`repro.iql.compile`), joined
through the hash indexes in the cost-based order of
:mod:`repro.iql.valuation`. A round calls one generated ``drain`` per
rule and delta position: it matches the delta facts, joins the rest of
the body, builds the head and keeps it when the relation lacks it, with
no call back into this module per solution. A delta kernel whose plan
was costed while a relation it reads was a tenth of its size is
recompiled under a re-costed plan at its next round. A rule whose
kernels refuse hands the stage to the γ1 loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set

from repro.analysis.effects import delta_body, head_symbol, mentions_name
from repro.iql.literals import Membership
from repro.iql.rules import Rule
from repro.iql.terms import NameTerm, Var
from repro.schema.instance import Instance
from repro.schema.schema import Schema
from repro.values.ovalues import OValue

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.iql.compile import RuleCompiler
    from repro.iql.program import Program


def rule_eligible(rule: Rule, schema: Schema) -> bool:
    """True iff ``rule`` sits in the delta-staged fragment.

    Purely schema-level: it reads the rule and the schema, never an
    instance. :attr:`repro.iql.program.RuleMemo.seminaive` is its only
    caller, once per rule of a program.
    """
    if rule.delete or rule.has_choose() or not rule.is_invention_free():
        return False
    head = rule.head
    if not (
        isinstance(head, Membership)
        and isinstance(head.container, NameTerm)
        and schema.is_relation(head.container.name)
        and not mentions_name(head.element)
    ):
        return False
    if not rule.body:
        return False  # unconditional facts: let the naive loop seed them

    # The literal classification is shared with the analysis layer: a
    # ``None`` body shape means a literal falls outside the delta fragment
    # (name terms in value positions, choose, unknown literal kinds).
    body = delta_body(rule, schema)
    if body is None:
        return False

    # Range check: every rule variable must be derivable from the
    # generators, closing over constant generators and equality binders, so
    # the enumeration fallback (whose search space constants(I) *grows*
    # with ρ) is never needed.
    derived: Set[Var] = set()
    for literal in body.relation_generators:
        derived |= literal.variables()
    changed = True
    while changed:
        changed = False
        for literal in body.constant_generators:
            if literal.container.variables() <= derived:
                before = len(derived)
                derived |= literal.element.variables()
                changed = changed or len(derived) != before
        for literal in body.equalities:
            for known, pattern in (
                (literal.left, literal.right),
                (literal.right, literal.left),
            ):
                if known.variables() <= derived and not pattern.variables() <= derived:
                    derived |= pattern.variables()
                    changed = True
    return rule.variables() <= derived


def stage_eligible(rules: Sequence[Rule], program: "Program") -> bool:
    """True iff the delta rewriting is sound for these rules of ``program``."""
    return all(program.rule_memo(rule).seminaive for rule in rules)


def run_stage_seminaive(
    instance: Instance,
    rules: Sequence[Rule],
    stats,
    compiler: "RuleCompiler",
    max_steps: int = 10_000,
    initial_delta: Optional[Dict[str, Set[OValue]]] = None,
    added: Optional[Dict[str, Set[OValue]]] = None,
) -> Optional[int]:
    """Evaluate an eligible stage to fixpoint with delta rewriting.

    Returns the number of rounds, or None when a kernel refused (below).
    Round 0 seeds the delta with a full evaluation; each later round
    requires one positive relation membership to match a fact from the
    previous round's delta — matched directly, with the remaining
    literals solved under the resulting bindings.

    With ``initial_delta`` (the IVM runtime's delta-seeded mode) round 0
    is skipped entirely: the given per-relation fact sets — already
    present in ``instance``, new since its last fixpoint — play the role
    of the previous round's delta, so the cost is proportional to the
    delta, not the instance. Sound whenever every derivation new since
    that fixpoint must use at least one delta fact in a positive relation
    position, which insert propagation into a converged stratum
    guarantees, and so does DRed's re-derivation once the over-deleted
    facts that keep a derivation are back, or were never removed.
    ``added`` (if given) collects the facts each relation actually
    gained, for downstream propagation.

    Every rule runs as compiled kernels
    (:class:`repro.iql.compile.RuleCompiler`): a round is one ``drain``
    call per rule (round 0) or per rule and relation position with a
    delta, which matches the delta facts, joins the rest of the body and
    adds each head fact not yet in the relation to the round's bucket,
    all in one generated function; ``valuations_considered`` counts the
    solutions that did so. A delta position's kernel is bound the first
    time its relation has a delta, and again in any round where its plan
    has gone stale, so a recursive relation that keeps growing is joined
    in an order re-costed on its grown extension. When a round-0 or a
    delta kernel refuses (a fallback construct in the body), the stage
    returns None before the round applies anything: the facts of the
    completed rounds are all sound derivations, and the caller's γ1 loop
    finishes the inflationary stage from there.
    """
    kernels = []
    for rule in rules:
        shape = compiler.program.rule_memo(rule).delta
        assert shape is not None  # guaranteed by stage_eligible
        compiled = compiler.seminaive_kernels(rule, instance)
        if compiled is None:
            return None
        kernels.append((rule, head_symbol(rule), shape.relation_positions, compiled))
    rounds = 0
    first = initial_delta is None
    delta: Dict[str, Set[OValue]] = (
        {name: set(values) for name, values in initial_delta.items() if values}
        if initial_delta is not None
        else {}
    )
    if not first and not delta:
        return 0
    while True:
        if stats.steps >= max_steps:
            from repro.errors import NonTerminationError

            raise NonTerminationError(
                f"no fixpoint within {max_steps} steps (semi-naive stage)"
            )
        new: Dict[str, Set[OValue]] = {}
        for rule, head_name, positions, compiled in kernels:
            existing = instance.relations[head_name]
            bucket = new.setdefault(head_name, set())
            if first:
                stats.valuations_considered += compiled.drain(existing, bucket)
                continue
            for position in positions:
                literal = rule.body[position]
                assert isinstance(literal, Membership)  # by delta_body
                assert isinstance(literal.container, NameTerm)
                source = delta.get(literal.container.name)
                if not source:
                    continue
                kernel = compiled.delta(position, stats)
                if kernel is None:
                    # A body position refuses by naming the construct in
                    # ``fallback``; report it in this run, not at the
                    # rule's next kernel fetch.
                    assert compiled.fallback is not None
                    compiler.note_interpreted(rule, compiled.fallback)
                    return None
                drain, _fire = kernel.functions
                stats.valuations_considered += drain(source, existing, bucket)

        first = False
        rounds += 1
        stats.steps += 1
        if not any(new.values()):
            return rounds
        # Each relation's new facts go in with one trusted call: a drain
        # adds only kernel-built o-values not in the extension, and no
        # extension changes while a round runs.
        for name, values in new.items():
            if values:
                instance.add_relation_members(name, values)
                stats.facts_added += len(values)
                if added is not None:
                    added.setdefault(name, set()).update(values)
        delta = new
