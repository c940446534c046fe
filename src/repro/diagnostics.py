"""Structured diagnostics for the static-analysis layer (`repro.analysis`).

This module is the dependency-free core of the analysis subsystem: source
spans, severities, the stable ``IQLxxx`` error-code registry, and the
:class:`Diagnostic` record every checker emits. It deliberately imports
nothing from the rest of the package so that low-level modules
(:mod:`repro.errors`, :mod:`repro.iql.typecheck`) can use it without
cycles.

Error-code conventions:

* ``IQL0xx`` — lexing/parsing,
* ``IQL1xx`` — well-typedness (Sections 3.1/3.3),
* ``IQL2xx`` — binding hygiene (unsafe negation, unbound variables),
* ``IQL3xx`` — termination (invention cycles on G(Γ), Section 5),
* ``IQL4xx`` — certification stamps (informational),
* ``IQL5xx`` — dead-code style lints (unused declarations and rules),
* ``IQL6xx`` — dataflow analysis on the per-stage dependency graph
  (stratification, dead-at-entry rules, invention bounds),
* ``IQL7xx`` — update-impact and incremental-maintainability analysis
  (which derived symbols a base-fact update reaches, and whether the
  affected cone can be maintained incrementally),
* ``IQL8xx`` — retired with the deleted parallel-safety analysis; the
  codes are not reused.

The catalogue with minimal triggering programs lives in
``docs/LANGUAGE.md`` ("Diagnostics and error codes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Span:
    """A half-open source region, 1-based, as produced by the lexer.

    ``end_line``/``end_column`` are optional; a point span is rendered from
    its start alone. Spans compare by position so diagnostics sort in
    source order.
    """

    line: int
    column: int
    end_line: Optional[int] = None
    end_column: Optional[int] = None

    @classmethod
    def from_token(cls, token) -> "Span":
        """The span of one lexer token (anything with value/line/column)."""
        width = max(len(str(token.value)), 1)
        return cls(token.line, token.column, token.line, token.column + width)

    def to(self, other: Optional["Span"]) -> "Span":
        """The span from this start to ``other``'s end."""
        if other is None:
            return self
        return Span(
            self.line,
            self.column,
            other.end_line if other.end_line is not None else other.line,
            other.end_column if other.end_column is not None else other.column,
        )

    def sort_key(self) -> Tuple[int, int]:
        return (self.line, self.column)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


#: code -> (default severity, one-line summary)
CODES: Dict[str, Tuple[str, str]] = {
    "IQL001": (ERROR, "syntax error"),
    "IQL101": (ERROR, "variable typed inconsistently within a rule"),
    "IQL102": (ERROR, "unknown relation or class"),
    "IQL103": (ERROR, "variable of unknown class type"),
    "IQL104": (ERROR, "ill-typed rule head"),
    "IQL105": (ERROR, "ill-typed body literal"),
    "IQL106": (ERROR, "invention variable with non-class type"),
    "IQL107": (ERROR, "deletion rule with invention variables"),
    "IQL108": (ERROR, "choose combined with deletion"),
    "IQL109": (ERROR, "illegal head shape"),
    "IQL110": (ERROR, "input or output schema not closed under class references"),
    "IQL201": (WARNING, "unsafe negation: variable occurs only under negation"),
    "IQL202": (WARNING, "unbound variable: no positive literal restricts it"),
    "IQL301": (WARNING, "invention cycle: evaluation may diverge"),
    "IQL401": (INFO, "sublanguage certification"),
    "IQL501": (WARNING, "unused relation or class"),
    "IQL502": (WARNING, "dead rule: derives into a name that is never read"),
    "IQL601": (WARNING, "negation inside a recursive SCC: stage is not stratified"),
    "IQL602": (WARNING, "rule can never fire: reads a symbol that is always empty"),
    "IQL603": (WARNING, "oid invention inside a recursive SCC: creation may be unbounded"),
    "IQL604": (INFO, "statically bounded invention: polynomial oid-creation bound"),
    "IQL701": (WARNING, "update reaches a non-maintainable construct: full recompute"),
    "IQL702": (WARNING, "delete through negation requires over-delete/re-derive (DRed)"),
    "IQL703": (INFO, "update cone is empty: the symbol is static"),
    "IQL704": (INFO, "bounded update cone: only the listed strata need re-running"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    ``code`` is a stable ``IQLxxx`` identifier from :data:`CODES`;
    ``severity`` is ``error``/``warning``/``info``; ``span`` is the source
    region when the program came from text (programmatically built programs
    have span ``None``); ``rule_label`` names the offending rule when one
    is identifiable.
    """

    code: str
    severity: str
    message: str
    span: Optional[Span] = None
    rule_label: Optional[str] = None

    def render(self, filename: str = "<program>") -> str:
        """The conventional one-line form ``file:line:col CODE message``."""
        line = self.span.line if self.span else 0
        column = self.span.column if self.span else 0
        return f"{filename}:{line}:{column} {self.code} {self.message}"

    def to_json(self) -> dict:
        doc: dict = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            doc["span"] = {"line": self.span.line, "column": self.span.column}
            if self.span.end_line is not None:
                doc["span"]["end_line"] = self.span.end_line
                doc["span"]["end_column"] = self.span.end_column
        if self.rule_label is not None:
            doc["rule"] = self.rule_label
        return doc

    def __str__(self) -> str:
        where = f" (at {self.span})" if self.span else ""
        return f"{self.code} {self.severity}: {self.message}{where}"


def diagnostic(
    code: str,
    message: str,
    span: Optional[Span] = None,
    rule_label: Optional[str] = None,
    severity: Optional[str] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting the severity from the registry."""
    if code not in CODES:
        raise ValueError(f"unknown diagnostic code {code!r}")
    if severity is None:
        severity = CODES[code][0]
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")
    return Diagnostic(code, severity, message, span, rule_label)


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Source order, spanless entries last; stable within a position."""
    return sorted(
        diagnostics,
        key=lambda d: (d.span is None,) + (d.span.sort_key() if d.span else (0, 0)),
    )


def diagnostics_to_json(diagnostics: Iterable[Diagnostic]) -> List[dict]:
    """The shared machine-readable form used by ``repro lint`` and
    ``repro check --json``."""
    return [d.to_json() for d in diagnostics]
