"""Per-rule effect summaries: what a rule reads, writes, and invents.

This module is the single source of truth for literal polarity and
read/write-set extraction. It unifies the ad-hoc read-set derivation that
used to live in :mod:`repro.analysis.passes` (``_rule_reads``) with the
name-mention tests re-derived inside :mod:`repro.iql.seminaive`, and it
feeds the per-stage dependency graphs of
:mod:`repro.analysis.depgraph`.

Symbols are the nodes of the paper's dependency graph G(Γ), generalized
per its footnote 6: a relation name ``R``, a class *extent* ``P``, or a
class *value plane* ``^P`` (the ν entries of P's oids — grown by ``x̂(t)``
and ``x̂ = t`` heads, never by rules that only grow the extent).

Reads are split by how the inflationary fixpoint may observe them:

* ``positive_reads`` — *monotone-enabling* reads: a positive membership
  over a name or deref container, the class extents enumerated by a
  variable's type, and dereferences of non-set-valued oids in value
  position (ν is written at most once per such oid, by the (★) rule, so
  once a binding exists it never changes).
* ``negative_reads`` — reads under a negative literal: more facts can
  only make the literal *falser*.
* ``extension_reads`` — snapshot reads: a relation/class *name in value
  position* (its value is the whole current extension) and dereferences
  of set-valued oids in value position (ν(o) keeps growing). A fact
  derived from such a read embeds the state of the symbol at firing
  time, so it is order-sensitive exactly like negation.

``gating_reads`` are the subset of positive reads whose emptiness makes
the rule unsatisfiable (containers of positive body memberships) — the
input to the ``IQL602`` dead-at-entry analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.iql.literals import Choose, Equality, Literal, Membership
from repro.iql.rules import Rule
from repro.iql.terms import Deref, NameTerm, SetTerm, Term, TupleTerm, Var
from repro.schema.schema import Schema
from repro.typesys.expressions import ClassRef, SetOf


# -- symbol naming ------------------------------------------------------------------


def plane(class_name: str) -> str:
    """The value-plane symbol ``^P`` of class ``P``."""
    return f"^{class_name}"


def is_plane(symbol: str) -> bool:
    return symbol.startswith("^")


def plane_class(symbol: str) -> str:
    """The class name behind a symbol: ``^P`` → ``P``, anything else as-is."""
    return symbol[1:] if symbol.startswith("^") else symbol


def head_symbol(rule: Rule) -> str:
    """The paper's "leftmost symbol" of a rule, footnote-6 generalized.

    ``R``/``P`` for relation/class heads, ``^P`` for value heads ``x̂(t)``
    and ``x̂ = t`` (they grow ν, not the extent π).
    """
    name = rule.head_name()
    if name is not None:
        return name
    deref = rule.head_deref()
    if deref is not None:
        return plane(deref.var.type.name)
    raise ValueError(f"cannot determine the head symbol of {rule!r}")


# -- term walking -------------------------------------------------------------------


def literal_terms(literal: Literal) -> Iterator[Term]:
    """The top-level terms of a membership or equality literal."""
    if isinstance(literal, Membership):
        yield literal.container
        yield literal.element
    elif isinstance(literal, Equality):
        yield literal.left
        yield literal.right


def walk_term(term: Term) -> Iterator[Term]:
    """``term`` and every sub-term, dereferenced variables included."""
    yield term
    if isinstance(term, SetTerm):
        for sub in term.terms:
            yield from walk_term(sub)
    elif isinstance(term, TupleTerm):
        for _, sub in term.fields:
            yield from walk_term(sub)
    elif isinstance(term, Deref):
        yield term.var


def mentions_name(term: Term) -> bool:
    """Does ``term`` contain a relation/class name term at any depth?

    A name term evaluates to the *current* extension, so any literal whose
    truth depends on one through a value position is instance-dependent in
    a way delta rewritings and schedules cannot treat as monotone.
    """
    if isinstance(term, NameTerm):
        return True
    if isinstance(term, SetTerm):
        return any(mentions_name(sub) for sub in term.terms)
    if isinstance(term, TupleTerm):
        return any(mentions_name(sub) for _, sub in term.fields)
    return False


# -- the effect summary -------------------------------------------------------------


@dataclass(frozen=True)
class RuleEffects:
    """What one rule consumes and produces, per dependency-graph symbol."""

    rule: Rule
    positive_reads: FrozenSet[str]
    negative_reads: FrozenSet[str]
    extension_reads: FrozenSet[str]
    gating_reads: FrozenSet[str]
    writes: FrozenSet[str]
    invention_classes: FrozenSet[str]
    schema_reads: FrozenSet[str]
    is_delete: bool
    has_choose: bool
    is_assignment: bool

    @property
    def reads(self) -> FrozenSet[str]:
        """Every symbol whose state can influence this rule's firings."""
        return self.positive_reads | self.negative_reads | self.extension_reads

    @property
    def nonmonotone_reads(self) -> FrozenSet[str]:
        """Reads whose observation is order-sensitive under the
        inflationary semantics: negation and whole-extension snapshots."""
        return self.negative_reads | self.extension_reads

    @property
    def mentions(self) -> FrozenSet[str]:
        """Every schema name this rule touches at all (for dead-code lints)."""
        out = set(self.schema_reads) | self.invention_classes
        for symbol in self.writes:
            out.add(plane_class(symbol))
        return frozenset(out)

    def summary(self) -> str:
        def fmt(symbols: FrozenSet[str]) -> str:
            return "{" + ", ".join(sorted(symbols)) + "}" if symbols else "∅"

        parts = [f"reads+ {fmt(self.positive_reads)}"]
        if self.negative_reads:
            parts.append(f"reads− {fmt(self.negative_reads)}")
        if self.extension_reads:
            parts.append(f"reads≡ {fmt(self.extension_reads)}")
        parts.append(f"writes {fmt(self.writes)}")
        if self.invention_classes:
            parts.append(f"invents {fmt(self.invention_classes)}")
        if self.is_delete:
            parts.append("deletes")
        if self.has_choose:
            parts.append("chooses")
        if self.is_assignment:
            parts.append("assigns (★)")
        return "; ".join(parts)

    def to_json(self) -> dict:
        return {
            "rule": self.rule.display_label(),
            "reads_positive": sorted(self.positive_reads),
            "reads_negative": sorted(self.negative_reads),
            "reads_extension": sorted(self.extension_reads),
            "gating_reads": sorted(self.gating_reads),
            "writes": sorted(self.writes),
            "invents": sorted(self.invention_classes),
            "delete": self.is_delete,
            "choose": self.has_choose,
            "assignment": self.is_assignment,
        }


def _set_valued(schema: Optional[Schema], class_name: str) -> bool:
    if schema is None:
        return True  # unknown content type: assume the hazardous case
    return isinstance(schema.classes.get(class_name), SetOf)


def _value_reads(
    term: Term,
    schema: Optional[Schema],
    positive_literal: bool,
    skip: FrozenSet[Var],
    positive: Set[str],
    negative: Set[str],
    extension: Set[str],
) -> None:
    """Classify the reads of ``term`` used in *value position*."""
    for sub in walk_term(term):
        if isinstance(sub, NameTerm):
            # A name in value position reads the whole current extension.
            (extension if positive_literal else negative).add(sub.name)
        elif isinstance(sub, Var) and sub not in skip:
            # The variable's enumeration domain: class extents only ever
            # grow, so this is monotone-enabling even under negation.
            positive.update(sub.type.class_names())
        elif isinstance(sub, Deref):
            symbol = plane(sub.var.type.name)
            if not positive_literal:
                negative.add(symbol)
            elif _set_valued(schema, sub.var.type.name):
                extension.add(symbol)  # ν(o) keeps growing: snapshot read
            else:
                positive.add(symbol)  # (★)-assigned at most once: enabling


def rule_effects(rule: Rule, schema: Optional[Schema] = None) -> RuleEffects:
    """The effect summary of one rule.

    ``schema`` refines set-valuedness of dereferenced classes (without it
    every deref in value position is conservatively a snapshot read).
    """
    positive: Set[str] = set()
    negative: Set[str] = set()
    extension: Set[str] = set()
    gating: Set[str] = set()
    has_choose = rule.has_choose()
    invention = rule.invention_variables() if not has_choose else frozenset()

    for literal in rule.body:
        if isinstance(literal, Choose):
            continue
        if isinstance(literal, Membership):
            container = literal.container
            if isinstance(container, NameTerm):
                if literal.positive:
                    positive.add(container.name)
                    gating.add(container.name)
                else:
                    negative.add(container.name)
            elif isinstance(container, Deref):
                symbol = plane(container.var.type.name)
                positive.update(container.var.type.class_names())
                if literal.positive:
                    positive.add(symbol)
                    gating.add(symbol)
                else:
                    negative.add(symbol)
            else:
                _value_reads(
                    container, schema, literal.positive, frozenset(),
                    positive, negative, extension,
                )
            _value_reads(
                literal.element, schema, literal.positive, frozenset(),
                positive, negative, extension,
            )
        elif isinstance(literal, Equality):
            for side in (literal.left, literal.right):
                _value_reads(
                    side, schema, literal.positive, frozenset(),
                    positive, negative, extension,
                )

    # Head: the write target plus any values *read* while deriving.
    head = rule.head
    writes: Set[str] = {head_symbol(rule)}
    for var in invention:
        if isinstance(var.type, ClassRef):
            writes.add(var.type.name)
    is_assignment = isinstance(head, Equality) and not rule.delete
    head_values: List[Term] = []
    if isinstance(head, Membership):
        head_values.append(head.element)
        if isinstance(head.container, Deref):
            positive.update(head.container.var.type.class_names())
    elif isinstance(head, Equality):
        head_values.append(head.right)
        if isinstance(head.left, Deref):
            positive.update(head.left.var.type.class_names())
    for term in head_values:
        _value_reads(
            term, schema, True, frozenset(invention),
            positive, negative, extension,
        )

    return RuleEffects(
        rule=rule,
        positive_reads=frozenset(positive),
        negative_reads=frozenset(negative),
        extension_reads=frozenset(extension),
        gating_reads=frozenset(gating),
        writes=frozenset(writes),
        invention_classes=frozenset(
            var.type.name for var in invention if isinstance(var.type, ClassRef)
        ),
        schema_reads=schema_reads(rule),
        is_delete=rule.delete,
        has_choose=has_choose,
        is_assignment=is_assignment,
    )


def schema_reads(rule: Rule) -> FrozenSet[str]:
    """Every plain schema name a rule consumes: names in its body, names
    read in head terms, and the classes of its (non-invention) variable
    types — the dead-code lint's notion of "read"."""
    reads: Set[str] = set()
    invention = rule.invention_variables()
    for literal in rule.body:
        for top in literal_terms(literal):
            for term in walk_term(top):
                if isinstance(term, NameTerm):
                    reads.add(term.name)
                elif isinstance(term, Var):
                    reads |= term.type.class_names()
    head = rule.head
    head_terms: List[Term] = []
    if isinstance(head, Membership):
        head_terms.append(head.element)
        if isinstance(head.container, Deref):
            head_terms.append(head.container)
    elif isinstance(head, Equality):
        head_terms.extend([head.left, head.right])
    for top in head_terms:
        for term in walk_term(top):
            if isinstance(term, NameTerm):
                reads.add(term.name)
            elif isinstance(term, Var) and term not in invention:
                reads |= term.type.class_names()
    return frozenset(reads)


# -- delta-rewriting body classification --------------------------------------------


@dataclass(frozen=True)
class DeltaBody:
    """The body of a rule as the semi-naive rewriting sees it.

    ``relation_positions`` index the delta-driven generators (positive
    memberships over relation names); ``constant_generators`` are positive
    memberships whose container is constant within an eligible stage
    (class extents, dereferences); ``equalities`` the positive equality
    binders. ``None`` from :func:`delta_body` means the rule's body shape
    is outside the delta-rewritable fragment.
    """

    relation_positions: Tuple[int, ...]
    relation_generators: Tuple[Membership, ...]
    constant_generators: Tuple[Membership, ...]
    equalities: Tuple[Equality, ...]


def delta_body(rule: Rule, schema: Schema) -> Optional[DeltaBody]:
    """Classify ``rule``'s body literals for the delta rewriting.

    Returns ``None`` when any literal falls outside the fragment: a name
    term in value position (the element of a membership or a side of an
    equality — its value is the *growing* extension), a non-name container
    that mentions a name, or a literal kind the rewriting does not know.
    """
    relation_positions: List[int] = []
    relation_generators: List[Membership] = []
    constant_generators: List[Membership] = []
    equalities: List[Equality] = []
    for position, literal in enumerate(rule.body):
        if isinstance(literal, Membership):
            if mentions_name(literal.element):
                return None  # e.g. R(S): the element is a growing extension
            if isinstance(literal.container, NameTerm):
                if literal.positive and schema.is_relation(literal.container.name):
                    relation_positions.append(position)
                    relation_generators.append(literal)
                elif literal.positive:
                    constant_generators.append(literal)  # class extent: constant
                # negative name-container memberships: filters
            else:
                if mentions_name(literal.container):
                    return None
                if literal.positive:
                    constant_generators.append(literal)  # x̂(t): ν is constant
        elif isinstance(literal, Equality):
            if mentions_name(literal.left) or mentions_name(literal.right):
                return None
            if literal.positive:
                equalities.append(literal)
        else:
            return None  # Choose or unknown literal kinds
    return DeltaBody(
        relation_positions=tuple(relation_positions),
        relation_generators=tuple(relation_generators),
        constant_generators=tuple(constant_generators),
        equalities=tuple(equalities),
    )
