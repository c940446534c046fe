"""IQL literals and facts (Section 3.1).

For terms t1, t2:

* ``t1(t2)`` and ``t1 = t2`` are positive literals,
* ``¬t1(t2)`` and ``t1 ≠ t2`` are negative literals.

A *fact* is a typed positive literal of the restricted forms allowed in
rule heads: ``R(t)``, ``P(t)``, ``x̂(t)`` for set-valued x̂, and ``x̂ = t``
for non-set-valued x̂.

IQL+ (Section 4.4) adds the ``choose`` body literal; IQL* (Section 4.5)
allows negative facts in heads, interpreted as deletions.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.diagnostics import Span
from repro.errors import TypeCheckError
from repro.iql.terms import Term, Var, as_term


class Literal:
    """Base class for body/head literals.

    ``span`` is the literal's source region when parsed from text (``None``
    for programmatic construction); like term spans it is provenance only,
    excluded from equality and hashing.
    """

    __slots__ = ("positive", "span")

    def variables(self) -> FrozenSet[Var]:
        raise NotImplementedError

    @property
    def negated(self) -> bool:
        return not self.positive


class Membership(Literal):
    """``t1(t2)`` (or ``¬t1(t2)``): the value of t2 belongs to the set t1."""

    __slots__ = ("container", "element")

    def __init__(
        self, container: Term, element, positive: bool = True, span: Optional[Span] = None
    ):
        if not isinstance(container, Term):
            raise TypeCheckError(f"container is not a term: {container!r}")
        self.container = container
        self.element = as_term(element)
        self.positive = positive
        self.span = span

    def variables(self) -> FrozenSet[Var]:
        return self.container.variables() | self.element.variables()

    def negate(self) -> "Membership":
        return Membership(self.container, self.element, not self.positive, span=self.span)

    def __repr__(self):
        bang = "" if self.positive else "¬"
        return f"{bang}{self.container!r}({self.element!r})"

    def __hash__(self):
        return hash((Membership, self.container, self.element, self.positive))

    def __eq__(self, other):
        return (
            isinstance(other, Membership)
            and self.container == other.container
            and self.element == other.element
            and self.positive == other.positive
        )


class Equality(Literal):
    """``t1 = t2`` (or ``t1 ≠ t2``)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right, positive: bool = True, span: Optional[Span] = None):
        self.left = as_term(left)
        self.right = as_term(right)
        self.positive = positive
        self.span = span

    def variables(self) -> FrozenSet[Var]:
        return self.left.variables() | self.right.variables()

    def negate(self) -> "Equality":
        return Equality(self.left, self.right, not self.positive, span=self.span)

    def __repr__(self):
        op = "=" if self.positive else "≠"
        return f"{self.left!r} {op} {self.right!r}"

    def __hash__(self):
        return hash((Equality, self.left, self.right, self.positive))

    def __eq__(self, other):
        return (
            isinstance(other, Equality)
            and self.left == other.left
            and self.right == other.right
            and self.positive == other.positive
        )


class Choose(Literal):
    """The ``choose`` body literal of IQL+ (Section 4.4).

    Its presence switches the interpretation of head-only variables: instead
    of inventing fresh oids, they are bound to an *existing* oid of the
    right class — provided the choice cannot violate genericity (all
    candidates lie in one automorphism orbit).
    """

    __slots__ = ()

    def __init__(self, span: Optional[Span] = None):
        self.positive = True
        self.span = span

    def variables(self) -> FrozenSet[Var]:
        return frozenset()

    def __repr__(self):
        return "choose"

    def __hash__(self):
        return hash(Choose)

    def __eq__(self, other):
        return isinstance(other, Choose)

