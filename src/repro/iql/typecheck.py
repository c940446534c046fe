"""Static type checking of IQL programs (Sections 3.1 and 3.3).

The syntax of rules imposes:

1. the head is a *fact* — R(t), P(t), x̂(t) for set-valued x̂, or x̂ = t for
   non-set-valued x̂ — and is strictly typed,
2. each body literal is typed, where equality literals enjoy *union
   coercion*: ``t1 = t2`` is legal when t1 has type t and t2 type t ∨ t'
   (this is how Example 3.4.3 matches a value of a union type against its
   branches),
3. every variable occurring in the head but not the body has class type,
4. a variable name is typed consistently throughout a rule.

The paper argues (Section 3.3) that these checks guarantee soundness —
evaluation of a well-typed program only ever produces legal instances —
except for the inexpensive dynamic check of the weak-assignment rule (★),
which the evaluator performs.

The checker is a pure function from programs to (possibly empty) lists of
structured :class:`~repro.diagnostics.Diagnostic` objects with stable
``IQL1xx`` codes and source spans (``check_rule_diagnostics`` /
``check_program_diagnostics``); the historical error-based APIs remain as
thin wrappers: ``check_program`` converts diagnostics to
:class:`~repro.errors.TypeCheckError` and ``typecheck_program`` raises the
first one.
"""

from __future__ import annotations

from typing import List, Optional

from repro.diagnostics import Diagnostic, Span, diagnostic
from repro.errors import TypeCheckError
from repro.iql.literals import Choose, Equality, Literal, Membership
from repro.iql.program import Program
from repro.iql.rules import Rule
from repro.iql.terms import Deref, NameTerm, SetTerm, Term, TupleTerm, Var
from repro.schema.schema import Schema
from repro.typesys.expressions import (
    ClassRef,
    Empty,
    Intersection,
    SetOf,
    TupleOf,
    TypeExpr,
    Union,
)
from repro.typesys.reduction import intersection_free


def assignable(actual: TypeExpr, expected: TypeExpr) -> bool:
    """Sound subsumption for head typing: every value of ``actual`` is a
    value of ``expected``.

    Strict equality, plus the inclusions the value semantics gives for
    free: ⊥ into anything, {⊥} (the type of the literal empty-set term)
    into any set type, a branch into its union, and the congruent closure
    through set and tuple constructors. This is a mild, semantics-preserving
    liberalization of the paper's "heads are typed": Example 3.4.2's head
    ``R1({ })`` types as {⊥} against T(R1) = {D}.
    """
    if actual == expected:
        return True
    if isinstance(actual, Empty):
        return True
    if isinstance(expected, Union):
        return any(assignable(actual, member) for member in expected.members)
    if isinstance(actual, Union):
        return all(assignable(member, expected) for member in actual.members)
    if isinstance(actual, SetOf) and isinstance(expected, SetOf):
        return assignable(actual.element, expected.element)
    if isinstance(actual, TupleOf) and isinstance(expected, TupleOf):
        if actual.attributes != expected.attributes:
            return False
        return all(
            assignable(ct, expected.component(attr)) for attr, ct in actual.fields
        )
    return False


def coercible(a: TypeExpr, b: TypeExpr) -> bool:
    """The union-coercion relation of rule-body equalities.

    ``a`` is coercible to ``b`` when a = b, or b is a union having a as a
    member (t versus t ∨ t'), or — to cover nested cases like the decoding
    programs of Lemma 4.2.6 — the two types have a non-empty intersection
    after intersection elimination over disjoint assignments. The last
    clause is a conservative semantic reading of "typed modulo coercion":
    an equality between types that can never share a value is surely an
    error; one between overlapping types is meaningful.
    """
    if a == b:
        return True
    if isinstance(b, Union) and a in b.members:
        return True
    if isinstance(a, Union) and b in a.members:
        return True
    reduced = intersection_free(Intersection.make(a, b))
    return not isinstance(reduced, Empty)


class RuleDiagnostics:
    """Collects diagnostics for one rule, with rule context in every message."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.errors: List[Diagnostic] = []

    def error(self, message: str, code: str = "IQL104", span: Optional[Span] = None) -> None:
        self.errors.append(
            diagnostic(
                code,
                f"{message} — in rule: {self.rule!r}",
                span=span if span is not None else self.rule.span,
                rule_label=self.rule.display_label(),
            )
        )


def check_rule_diagnostics(rule: Rule, schema: Schema) -> List[Diagnostic]:
    """All static errors in one rule, as structured diagnostics."""
    diag = RuleDiagnostics(rule)
    _check_variable_consistency(rule, diag)
    _check_names_exist(rule, schema, diag)
    if diag.errors:
        return diag.errors  # cascading checks would only produce noise
    _check_head(rule, schema, diag)
    _check_body(rule, schema, diag)
    for var in rule.invention_variables():
        if not isinstance(var.type, ClassRef):
            diag.error(
                f"variable {var.name!r} occurs only in the head "
                f"but has non-class type {var.type!r}",
                code="IQL106",
                span=var.span,
            )
    if rule.delete and rule.invention_variables():
        diag.error(
            "a deletion rule cannot have head-only (invention) variables", code="IQL107"
        )
    if rule.has_choose() and rule.delete:
        diag.error("choose and deletion cannot be combined in one rule", code="IQL108")
    return diag.errors


def _to_error(diag: Diagnostic) -> TypeCheckError:
    return TypeCheckError(diag.message, rule_label=diag.rule_label, span=diag.span)


def check_rule(rule: Rule, schema: Schema) -> List[TypeCheckError]:
    """All static errors in one rule (legacy error-object form)."""
    return [_to_error(d) for d in check_rule_diagnostics(rule, schema)]


def _all_terms(literal: Literal):
    if isinstance(literal, Membership):
        yield literal.container
        yield literal.element
    elif isinstance(literal, Equality):
        yield literal.left
        yield literal.right


def _subterms(term: Term):
    yield term
    if isinstance(term, SetTerm):
        for sub in term.terms:
            yield from _subterms(sub)
    elif isinstance(term, TupleTerm):
        for _, sub in term.fields:
            yield from _subterms(sub)
    elif isinstance(term, Deref):
        yield term.var


def _check_variable_consistency(rule: Rule, diag: RuleDiagnostics) -> None:
    seen = {}
    for literal in (rule.head, *rule.body):
        for top in _all_terms(literal):
            for term in _subterms(top):
                if isinstance(term, Var):
                    prior = seen.get(term.name)
                    if prior is None:
                        seen[term.name] = term.type
                    elif prior != term.type:
                        diag.error(
                            f"variable {term.name!r} typed both {prior!r} and {term.type!r}",
                            code="IQL101",
                            span=term.span,
                        )


def _check_names_exist(rule: Rule, schema: Schema, diag: RuleDiagnostics) -> None:
    for literal in (rule.head, *rule.body):
        for top in _all_terms(literal):
            for term in _subterms(top):
                if isinstance(term, NameTerm) and term.name not in schema.names:
                    diag.error(
                        f"unknown relation/class {term.name!r}",
                        code="IQL102",
                        span=term.span,
                    )
                if isinstance(term, Var) and isinstance(term.type, ClassRef):
                    if not schema.is_class(term.type.name):
                        diag.error(
                            f"variable {term.name!r} has type {term.type!r}, "
                            f"but no such class exists",
                            code="IQL103",
                            span=term.span,
                        )
                unknown = (
                    term.type.class_names() - set(schema.classes)
                    if isinstance(term, Var)
                    else frozenset()
                )
                if unknown:
                    diag.error(
                        f"variable {term.name!r} mentions unknown classes {sorted(unknown)}",
                        code="IQL103",
                        span=term.span,
                    )


def _check_head(rule: Rule, schema: Schema, diag: RuleDiagnostics) -> None:
    head = rule.head
    head_span = head.span if head.span is not None else rule.span
    if isinstance(head, Membership):
        container = head.container
        if isinstance(container, NameTerm):
            name = container.name
            expected = schema.type_of(name)
            if schema.is_class(name):
                expected = ClassRef(name)
            try:
                actual = head.element.type_in(schema)
            except TypeCheckError as exc:
                diag.error(str(exc), span=head.element.span)
                return
            if not assignable(actual, expected):
                diag.error(
                    f"head {name}(t) requires t of type {expected!r}, got {actual!r}",
                    span=head_span,
                )
        elif isinstance(container, Deref):
            try:
                value_type = container.type_in(schema)
            except TypeCheckError as exc:
                diag.error(str(exc), span=container.span)
                return
            if not isinstance(value_type, SetOf):
                diag.error(
                    f"head x̂(t) requires x̂ set valued; {container!r} has type {value_type!r}",
                    span=head_span,
                )
                return
            try:
                actual = head.element.type_in(schema)
            except TypeCheckError as exc:
                diag.error(str(exc), span=head.element.span)
                return
            if not assignable(actual, value_type.element):
                diag.error(
                    f"head {container!r}(t) requires t of type "
                    f"{value_type.element!r}, got {actual!r}",
                    span=head_span,
                )
        else:
            diag.error(f"illegal head container {container!r}", code="IQL109", span=head_span)
    elif isinstance(head, Equality):
        left = head.left
        if not isinstance(left, Deref):
            diag.error("an equality head must have the form x̂ = t", code="IQL109", span=head_span)
            return
        try:
            value_type = left.type_in(schema)
            actual = head.right.type_in(schema)
        except TypeCheckError as exc:
            diag.error(str(exc), span=head_span)
            return
        if isinstance(value_type, SetOf):
            diag.error(
                f"head x̂ = t requires x̂ non-set valued; {left!r} has type {value_type!r}",
                span=head_span,
            )
            return
        if not assignable(actual, value_type):
            diag.error(
                f"head {left!r} = t requires t of type {value_type!r}, got {actual!r}",
                span=head_span,
            )
    else:
        diag.error(f"illegal head literal {head!r}", code="IQL109", span=head_span)


def _check_body(rule: Rule, schema: Schema, diag: RuleDiagnostics) -> None:
    for literal in rule.body:
        if isinstance(literal, Choose):
            continue
        span = literal.span if literal.span is not None else rule.span
        if isinstance(literal, Membership):
            try:
                container_type = literal.container.type_in(schema)
                element_type = literal.element.type_in(schema)
            except TypeCheckError as exc:
                diag.error(str(exc), code="IQL105", span=span)
                continue
            if not isinstance(container_type, SetOf):
                diag.error(
                    f"body literal {literal!r}: container has non-set type "
                    f"{container_type!r}",
                    code="IQL105",
                    span=span,
                )
                continue
            if not (
                assignable(element_type, container_type.element)
                or coercible(element_type, container_type.element)
            ):
                diag.error(
                    f"body literal {literal!r}: element type {element_type!r} "
                    f"does not match member type {container_type.element!r}",
                    code="IQL105",
                    span=span,
                )
        elif isinstance(literal, Equality):
            try:
                left_type = literal.left.type_in(schema)
                right_type = literal.right.type_in(schema)
            except TypeCheckError as exc:
                diag.error(str(exc), code="IQL105", span=span)
                continue
            if not coercible(left_type, right_type):
                diag.error(
                    f"body equality {literal!r}: types {left_type!r} and "
                    f"{right_type!r} cannot coerce (no common values)",
                    code="IQL105",
                    span=span,
                )
        else:
            diag.error(f"unknown body literal {literal!r}", code="IQL105", span=span)


def check_program_diagnostics(program: Program, schema: Optional[Schema] = None) -> List[Diagnostic]:
    """All static errors in the program, as structured diagnostics.

    ``schema`` overrides the program's own schema when the caller wants to
    check the rules against a different typing environment (the
    ``analyze(program, schema)`` entry point of :mod:`repro.analysis`).
    """
    schema = schema if schema is not None else program.schema
    diagnostics: List[Diagnostic] = []
    for rule in program.rules:
        diagnostics.extend(check_rule_diagnostics(rule, schema))
    return diagnostics


def check_program(program: Program) -> List[TypeCheckError]:
    """All static errors in the program (empty list = well typed)."""
    return [_to_error(d) for d in check_program_diagnostics(program)]


def typecheck_program(program: Program) -> Program:
    """Raise the first static error, or return the program unchanged.

    Use as a checked smart constructor::

        program = typecheck_program(Program(schema, rules=[...], ...))
    """
    errors = check_program(program)
    if errors:
        raise errors[0]
    return program
