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
from repro.typesys.expressions import ClassRef


class Rule:
    """A single IQL rule ``head ← body``.

    ``delete=True`` marks an IQL* deletion rule: the head is interpreted as
    removing the matching ground fact rather than adding it (Section 4.5).
    ``label`` is an optional name used in diagnostics and in the v-terms of
    the Theorem 4.3.1 experiment.
    """

    __slots__ = (
        "head",
        "body",
        "delete",
        "label",
        "span",
        "_plan_cache",
        "_kernel_cache",
    )

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
        self._plan_cache = None
        self._kernel_cache = None

    @property
    def plan_cache(self) -> dict:
        """The body planner's memo (repro.iql.valuation.solve_body).

        Keyed by (literal tuple, bound-variable set, use_indexes); the
        semi-naive delta rewriting solves many sub-bodies of the same rule,
        so the cache lives here rather than per call. The keys are bounded
        by the rule's shape: the whole body and each delta position's rest,
        with indexes on or off — at most 2·(body length + 1) plans. A stale
        plan is replaced in place, never added beside. Excluded from
        equality and hashing — it is an evaluation artifact, not syntax.
        """
        if self._plan_cache is None:
            self._plan_cache = {}
        return self._plan_cache

    @property
    def kernel_cache(self) -> dict:
        """The rule compiler's kernel memo (repro.iql.compile).

        Keyed by shape, ``"rule"`` (γ1) or ``"sn"`` (semi-naive), so it
        holds at most two kernels. Entries are revalidated against the
        current instance on every fetch (compiled kernels capture one
        instance's sets and index dicts, and one plan), so a stale entry
        costs one recompile, never a wrong answer. Likewise excluded from
        equality and hashing.
        """
        if self._kernel_cache is None:
            self._kernel_cache = {}
        return self._kernel_cache

    def display_label(self) -> str:
        """The rule's label, or a rendering of it, for diagnostics."""
        return self.label if self.label else repr(self)

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Pickle the syntax only — never the evaluation caches.

        Plans and compiled kernels capture one instance's sets and index
        buckets; whoever unpickles this rule plans and compiles afresh
        against the instance it evaluates.
        """
        return (self.head, self.body, self.delete, self.label, self.span)

    def __setstate__(self, state) -> None:
        self.head, self.body, self.delete, self.label, self.span = state
        self._plan_cache = None
        self._kernel_cache = None

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

    def check_invention_variable_types(self) -> None:
        """Condition (3) of the rule syntax: head-only vars have class type."""
        for var in self.invention_variables():
            if not isinstance(var.type, ClassRef):
                raise TypeCheckError(
                    f"variable {var.name!r} occurs only in the head of {self!r} "
                    f"but has non-class type {var.type!r}"
                )

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
