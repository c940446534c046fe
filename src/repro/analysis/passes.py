"""The individual analysis passes behind :func:`repro.analysis.analyze`.

Each pass is a pure function ``Program -> List[Diagnostic]``:

* :func:`typecheck_pass` — well-typedness (Sections 3.1/3.3), delegating
  to :mod:`repro.iql.typecheck`'s diagnostic API (``IQL1xx``),
* :func:`io_schema_pass` — input and output names whose types reference
  a class outside them (``IQL110``): Sin and Sout must be schemas,
* :func:`binding_pass` — unsafe negation and unbound variables
  (``IQL201``/``IQL202``): hygiene warnings the paper's semantics
  tolerates (type-interpretation enumeration) but an engineer rarely
  wants,
* :func:`invention_cycle_pass` — cycles of G(Γ) through invention targets
  (``IQL301``), the static form of the evaluator's dynamic
  :class:`~repro.errors.NonTerminationError`,
* :func:`unused_pass` — unused declarations and dead rules
  (``IQL501``/``IQL502``),
* :func:`certification_pass` — the informational ``IQL401`` stamp
  produced alongside the :class:`~repro.analysis.certify.Certificate`.

The semantic passes assume a well-typed program; :func:`analyze` runs
them only when the typecheck pass reported no errors.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.certify import Certificate, certify
from repro.analysis.effects import rule_effects
from repro.diagnostics import Diagnostic, diagnostic
from repro.iql.literals import Choose
from repro.iql.program import Program
from repro.iql.sublanguages import (
    classify,
    find_invention_cycle,
    ptime_restricted_vars,
)
from repro.iql.terms import Var
from repro.iql.typecheck import check_program_diagnostics
from repro.schema.schema import Schema
from repro.typesys.expressions import ClassRef


def typecheck_pass(program: Program, schema: Optional[Schema] = None) -> List[Diagnostic]:
    """Well-typedness of every rule (``IQL1xx``)."""
    return check_program_diagnostics(program, schema)


def io_schema_pass(program: Program) -> List[Diagnostic]:
    """Input and output projections that are not schemas (``IQL110``).

    Sin and Sout are projections of S (Section 3), and a projection must
    keep every class its types reference. One that does not makes
    ``Program.input_schema`` (or ``output_schema``) raise ``SchemaError``,
    so the program cannot run on any input.
    """
    out: List[Diagnostic] = []
    for side, names in (("input", program.input_names), ("output", program.output_names)):
        kept = set(names)
        for name in names:
            missing = program.schema.type_of(name).class_names() - kept
            if missing:
                out.append(
                    diagnostic(
                        "IQL110",
                        f"{side} {name!r} references class(es) {sorted(missing)} "
                        f"that are not {side} names; add them to `{side}`",
                    )
                )
    return out


# -- binding hygiene ---------------------------------------------------------------


def binding_pass(program: Program) -> List[Diagnostic]:
    """Unsafe negation (``IQL201``) and unbound variables (``IQL202``).

    A variable occurring only under negation can never be *bound* by the
    literal that mentions it; a body variable outside the Definition-5.1
    restricted set is bound by no positive literal at all, so the
    evaluator must enumerate its whole type interpretation — legal, but
    almost always a mistake (and the reason Example 3.4.2's one-line
    powerset is exponential).
    """
    out: List[Diagnostic] = []
    for rule in program.rules:
        positive_vars: Set[Var] = set()
        for literal in rule.body:
            if literal.positive and not isinstance(literal, Choose):
                positive_vars |= literal.variables()
        negation_only: Set[str] = set()
        for literal in rule.body:
            if literal.positive:
                continue
            for var in sorted(literal.variables() - positive_vars, key=lambda v: v.name):
                if var.name in negation_only:
                    continue
                negation_only.add(var.name)
                out.append(
                    diagnostic(
                        "IQL201",
                        f"variable {var.name!r} occurs only under negation; "
                        f"no positive literal can bind it — in rule: {rule!r}",
                        span=literal.span if literal.span is not None else rule.span,
                        rule_label=rule.display_label(),
                    )
                )
        unbound = rule.body_variables() - ptime_restricted_vars(rule)
        for var in sorted(unbound, key=lambda v: v.name):
            if var.name in negation_only:
                continue  # already reported with the sharper IQL201
            out.append(
                diagnostic(
                    "IQL202",
                    f"variable {var.name!r} (type {var.type!r}) is restricted by no "
                    f"positive literal; evaluation enumerates its type "
                    f"interpretation — in rule: {rule!r}",
                    span=var.span if var.span is not None else rule.span,
                    rule_label=rule.display_label(),
                )
            )
    return out


# -- termination -------------------------------------------------------------------


def invention_cycle_pass(program: Program) -> List[Diagnostic]:
    """Invention cycles on the dependency graph G(Γ) (``IQL301``).

    Flags, per stage, a cycle through the head symbol or target class of
    an oid-inventing rule — the configuration that lets the divergent
    ``R3(y, z) ← R3(x, y)`` loop of Section 5 fire forever. Stages that
    are invention-free, or whose inventions sit outside every cycle, are
    silent; so are ``choose`` rules, whose head-only variables select
    existing oids instead of inventing.
    """
    out: List[Diagnostic] = []
    for index, stage in enumerate(program.stages):
        rules = list(stage)
        cycle = find_invention_cycle(rules)
        if cycle is None:
            continue
        inventing = [r for r in rules if r.invention_variables() and not r.has_choose()]
        witness = inventing[0] if inventing else rules[0]
        classes = sorted(
            {
                var.type.name
                for rule in inventing
                for var in rule.invention_variables()
                if isinstance(var.type, ClassRef)
            }
        )
        out.append(
            diagnostic(
                "IQL301",
                f"stage {index + 1} invents oids (into {', '.join(classes)}) inside "
                f"the dependency cycle {' → '.join(cycle)}; the inflationary "
                f"fixpoint may diverge (Example 3.4.2)",
                span=witness.span,
                rule_label=witness.display_label(),
            )
        )
    return out


# -- dead code ---------------------------------------------------------------------


def unused_pass(program: Program) -> List[Diagnostic]:
    """Unused declarations (``IQL501``) and dead rules (``IQL502``).

    A relation or class that no rule mentions and that is neither input
    nor output is dead weight in the schema; a (non-delete) rule deriving
    into a name that no rule reads and that is not an output can never
    influence the program's result. Read/mention sets come from the
    shared :mod:`repro.analysis.effects` summaries.
    """
    out: List[Diagnostic] = []
    reads: Set[str] = set()
    mentioned: Set[str] = set()
    for rule in program.rules:
        effects = rule_effects(rule, program.schema)
        reads |= effects.schema_reads
        mentioned |= effects.schema_reads | effects.mentions
    io_names = set(program.input_names) | set(program.output_names)
    for name in sorted(program.schema.names):
        if name not in mentioned and name not in io_names:
            kind = "relation" if program.schema.is_relation(name) else "class"
            out.append(
                diagnostic(
                    "IQL501",
                    f"{kind} {name!r} is declared but never used "
                    f"(no rule mentions it; not an input or output)",
                )
            )
    for rule in program.rules:
        if rule.delete:
            continue
        name = rule.head_name()
        if name is None:
            continue
        if name not in reads and name not in program.output_names:
            out.append(
                diagnostic(
                    "IQL502",
                    f"rule derives into {name!r}, which no rule reads and which "
                    f"is not an output — in rule: {rule!r}",
                    span=rule.span,
                    rule_label=rule.display_label(),
                )
            )
    return out


# -- certification ------------------------------------------------------------------


def certification_pass(program: Program) -> Tuple[Certificate, List[Diagnostic]]:
    """The Definition-5.3 certificate plus its ``IQL401`` info diagnostic."""
    report = classify(program)
    certificate = certify(program, report)
    notes: List[Diagnostic] = [diagnostic("IQL401", f"certified: {certificate.summary()}")]
    return certificate, notes
