"""IQL rules (Section 3.1) and deletion rules (Section 4.5).

A rule is ``L ← L1, ..., Lk`` (k ≥ 0) where L is a *fact* (head) and the
Li are body literals, subject to:

1. the head is typed,
2. each body literal is typed, or is an equality typed modulo union
   coercion,
3. each variable in the head but not the body has class type — these are
   the *invention* variables.

IQL* additionally allows negative facts as heads (deletions). The static
conditions are enforced by :mod:`repro.iql.typecheck`; this module carries
the syntax and the derived syntactic notions the semantics and the
sublanguage tests need (head-only variables, presence of ``choose``, ...).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple

from repro.diagnostics import Span
from repro.errors import TypeCheckError
from repro.iql.literals import Choose, Equality, Literal, Membership
from repro.iql.terms import Deref, NameTerm, Var


class Rule:
    """A single IQL rule ``head ← body``.

    ``delete=True`` marks an IQL* deletion rule: the head is interpreted as
    removing the matching ground fact rather than adding it (Section 4.5).
    ``label`` is an optional name used in diagnostics and in the v-terms of
    the Theorem 4.3.1 experiment.

    A rule is syntax only. What the engine derives from it — its effects,
    its delta shape, its plans and kernel factories — is kept by the
    :class:`~repro.iql.program.Program` that holds it
    (:meth:`~repro.iql.program.Program.rule_memo`).
    """

    __slots__ = ("head", "body", "delete", "label", "span")

    def __init__(
        self,
        head: Literal,
        body: Iterable[Literal] = (),
        delete: bool = False,
        label: Optional[str] = None,
        span: Optional[Span] = None,
    ):
        if not isinstance(head, (Membership, Equality)):
            raise TypeCheckError(f"head must be a membership or equality literal: {head!r}")
        if not head.positive:
            raise TypeCheckError(
                "negative heads are written with delete=True, not with a negated literal"
            )
        body_tuple: Tuple[Literal, ...] = tuple(body)
        for lit in body_tuple:
            if not isinstance(lit, Literal):
                raise TypeCheckError(f"body element is not a literal: {lit!r}")
        self.head = head
        self.body = body_tuple
        self.delete = delete
        self.label = label
        self.span = span if span is not None else head.span

    def display_label(self) -> str:
        """The rule's label, or a rendering of it, for diagnostics."""
        return self.label if self.label else repr(self)

    # -- variable classification ------------------------------------------------

    def head_variables(self) -> FrozenSet[Var]:
        return self.head.variables()

    def body_variables(self) -> FrozenSet[Var]:
        out: FrozenSet[Var] = frozenset()
        for lit in self.body:
            out |= lit.variables()
        return out

    def variables(self) -> FrozenSet[Var]:
        return self.head_variables() | self.body_variables()

    def invention_variables(self) -> FrozenSet[Var]:
        """Variables in the head and not the body — the oid inventors.

        (Under ``choose`` these are *selection* variables instead; the
        evaluator distinguishes the two by :meth:`has_choose`.)
        """
        return self.head_variables() - self.body_variables()

    def has_choose(self) -> bool:
        return any(isinstance(lit, Choose) for lit in self.body)

    def is_invention_free(self) -> bool:
        """No variable occurs in the head and not the body (Section 5)."""
        return not self.invention_variables()

    # -- structural accessors ----------------------------------------------------

    def head_name(self) -> Optional[str]:
        """The relation/class name of the head when it is R(t) or P(t)."""
        if isinstance(self.head, Membership) and isinstance(self.head.container, NameTerm):
            return self.head.container.name
        return None

    def head_deref(self) -> Optional[Deref]:
        """The x̂ of the head when it is x̂(t) or x̂ = t."""
        if isinstance(self.head, Membership) and isinstance(self.head.container, Deref):
            return self.head.container
        if isinstance(self.head, Equality) and isinstance(self.head.left, Deref):
            return self.head.left
        return None

    def __repr__(self):
        arrow = "⊣" if self.delete else "←"
        if not self.body:
            return f"{self.head!r} {arrow}"
        return f"{self.head!r} {arrow} " + ", ".join(repr(lit) for lit in self.body)

    def __hash__(self):
        return hash((Rule, self.head, self.body, self.delete))

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
            and self.delete == other.delete
        )
