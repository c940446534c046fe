"""The unified entry point: ``analyze(program, schema) -> Report``.

One call runs every static pass — typechecking, binding hygiene,
invention-cycle detection, dead-code lints — plus Definition-5.3
certification, and returns their combined, source-ordered diagnostics.
``analyze_source`` is the text-level variant used by ``repro lint``; it
folds parse failures into the same Diagnostic shape (``IQL001``) instead
of raising, so a linter sees one uniform stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.certify import Certificate
from repro.analysis.depgraph import depgraph_pass
from repro.analysis.passes import (
    binding_pass,
    certification_pass,
    invention_cycle_pass,
    io_schema_pass,
    typecheck_pass,
    unused_pass,
)
from repro.diagnostics import Diagnostic, Span, diagnostic, sort_diagnostics
from repro.errors import ParseError
from repro.iql.program import Program
from repro.schema.schema import Schema


class PreflightWarning(UserWarning):
    """Warning category for diagnostics surfaced by the evaluator's
    opt-in pre-flight analysis (``Evaluator(preflight=True)``)."""


@dataclass
class Report:
    """Everything the analysis subsystem knows about one program."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    certificate: Optional[Certificate] = None
    program: Optional[Program] = None

    def by_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity("error")

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity("warning")

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was produced."""
        return not self.errors

    def render_text(self, filename: str = "<program>") -> str:
        """The classic linter listing: one ``file:line:col CODE message``
        line per diagnostic, then a severity tally."""
        lines = [d.render(filename) for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) in {filename}"
        )
        return "\n".join(lines)

    def to_json(self, filename: Optional[str] = None) -> dict:
        out = {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "certificate": self.certificate.to_json() if self.certificate else None,
        }
        if filename is not None:
            out["file"] = filename
        return out


def analyze(program: Program, schema: Optional[Schema] = None) -> Report:
    """Run every analysis pass over ``program``.

    ``schema`` overrides the program's own schema for typechecking (the
    same override :func:`repro.iql.typecheck.check_program` accepts).
    The semantic passes — binding, cycles, dead code, certification —
    presuppose well-typed rules, so they run only when typechecking
    reports no errors; the input/output closure check (``IQL110``)
    always runs.
    """
    diagnostics = list(typecheck_pass(program, schema))
    certificate: Optional[Certificate] = None
    if not any(d.severity == "error" for d in diagnostics):
        diagnostics.extend(binding_pass(program))
        diagnostics.extend(invention_cycle_pass(program))
        diagnostics.extend(unused_pass(program))
        diagnostics.extend(depgraph_pass(program, schema))
        certificate, notes = certification_pass(program)
        diagnostics.extend(notes)
    diagnostics.extend(io_schema_pass(program))
    return Report(
        diagnostics=sort_diagnostics(diagnostics),
        certificate=certificate,
        program=program,
    )


def analyze_source(text: str, filename: str = "<program>") -> Report:
    """Parse ``text`` and analyze it; parse errors become ``IQL001``."""
    from repro.parser.grammar import program_from_source

    try:
        program = program_from_source(text)
    except ParseError as exc:
        span = Span(exc.line, exc.column) if getattr(exc, "line", 0) else None
        return Report(diagnostics=[diagnostic("IQL001", str(exc), span=span)])
    return analyze(program)
