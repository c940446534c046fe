"""Rule compilation: specialize planned bodies into Python closures.

Compiled kernels are the production engine's only join path. An
interpreter (:func:`~repro.iql.valuation.solve_body`) walks a plan step
list and re-dispatches through ``eval_term``/``satisfies``/``match`` per
candidate binding, copying a dict per extension. This module follows the
Soufflé-style move of specializing each rule once: the memoized
cost-based plan from :func:`~repro.iql.valuation.lookup_plan` is compiled
into a *closure chain* — one nested closure per plan step, calling the
next step directly — over a single mutable **slot list** instead of dict
copies.

What the compiler resolves at compile time (per rule, per instance):

* **slot layout** — every variable gets a fixed integer slot; which slots
  are bound at each program point is static (each generator step binds
  exactly its literal's variables), so slots are written in place with no
  undo machinery,
* **index probes** — the relation attribute-projection dicts of
  :class:`~repro.iql.indexes.InstanceIndexes` are captured as plain dicts,
  so a probe is one ``dict.get`` at run time,
* **scan sources** — relation/class extension *sets* are captured
  directly (the :class:`~repro.schema.instance.Instance` mutators update
  these objects in place, so captured references stay current),
* **constant subterms** — ground, name-free terms are evaluated once at
  compile time,
* **tuple construction** — a tuple term becomes its canonical pair tuple,
  built in the term's (sorted) field order and interned through the
  trusted :func:`~repro.values.ovalues.interned_tuple`, with no
  re-validation or re-sorting per fact,
* **membership without a tuple** — a name-container membership filter
  whose element is a tuple term with no dereference probes the intern
  table for the pair tuple instead of building the tuple: no live node
  means no extension holds the value,
* **the head** — each rule gets a compiled blocking check (the
  valuation-domain condition of γ1, including invention variables ranging
  over class extents) and a compiled applier, which evaluates the head
  and stages its write (a relation or class fact, a set element, a (★)
  candidate) for the evaluator to apply after the step's last head.

The compilable fragment covers everything the planner emits, IQL*
deletion bodies included, *except* the constructs whose matching is
inherently enumerative; those raise :class:`CompileFallback`, and the
owning rule runs on the reference interpreter inside the evaluator's γ1
loop:

* ``choose`` (IQL+ selection runs through the evaluator's orbit check),
* unbound dereference enumeration (``x̂`` matched with ``x`` unbound),
* set-assignment enumeration (matching a ``{t1, ..., tk}`` pattern with
  k ≥ 2 and some variable unbound). A fully bound set term is evaluated
  and compared, ``{}`` matches only the empty set, and ``{t}`` matches a
  one-element set whose element matches ``t``.

A semi-naive stratum needs every rule's round-0 and delta kernels; when
one refuses, the γ1 loop finishes the stratum, and
:meth:`RuleCompiler.seminaive_kernels` refuses the rule from then on.

**Invalidation.** A kernel hard-codes one instance's sets and index dicts
and one plan's join order. It is valid only while three things hold:
``kernel.instance is instance``; when index dicts were captured,
``instance._indexes`` is still the captured :class:`InstanceIndexes`
object; and its plan is not stale (:meth:`~repro.iql.valuation.Plan.is_stale`:
no extension the plan reads has grown or shrunk ``REPLAN_GROWTH``-fold
since it was costed). ``Instance.drop_indexes()`` (the IQL* deletion
path) replaces the index object, so its kernels are recompiled from
post-deletion state; a kernel whose plan went stale is recompiled against
a plan re-costed on the instance at hand. Kernels are cached per rule in
``Rule.kernel_cache`` keyed by shape: ``"rule"`` for γ1, ``"sn"`` for the
delta rewriting.

**Contract.** A running kernel iterates live extension sets; callers must
not mutate the instance while a kernel is executing. Both engines satisfy
this: γ1 collects additions and applies them after all bodies are solved,
and the semi-naive rounds stage new facts in a delta before applying.
Appliers stage too, so no head of a γ1 step sees another's write.

Compiled execution reports ``rules_compiled`` / ``rules_interpreted`` /
``compile_fallbacks`` / ``compile_time`` into
:class:`~repro.iql.evaluator.EvaluationStats`.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.effects import mentions_name
from repro.errors import EvaluationError
from repro.iql.literals import Choose, Equality, Literal, Membership
from repro.iql.rules import Rule
from repro.iql.terms import Const, Deref, NameTerm, SetTerm, Term, TupleTerm, Var
from repro.iql.valuation import Plan, eval_term, lookup_plan
from repro.schema.instance import Instance
from repro.typesys.enumeration import enumerate_type
from repro.typesys.expressions import Base, ClassRef
from repro.values.intern import STORE
from repro.values.ovalues import CONSTANT_TYPES, Oid, OSet, OTuple, OValue, interned_tuple

#: A binding environment: one mutable list, one slot per variable.
Slots = List[Optional[OValue]]
#: A consumer invoked once per solution, with the (live, reused) slot list.
Consumer = Callable[[Slots], None]


class CompileFallback(Exception):
    """A construct outside the compilable fragment; the rule runs on the
    reference interpreter.

    ``reason`` is a short stable tag, one per fallback construct:
    ``"choose"``, ``"unbound-dereference"`` (dereference enumeration),
    ``"set-assignment"`` (set-pattern enumeration).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Layout:
    """The compile-time slot assignment: variable → fixed list index."""

    __slots__ = ("slots", "index")

    def __init__(self, initial_vars: Sequence[Var] = ()):
        self.slots: List[Var] = list(initial_vars)
        self.index: Dict[Var, int] = {v: i for i, v in enumerate(self.slots)}

    def slot(self, var: Var) -> int:
        """The slot of ``var``, allocating a new one on first sight."""
        i = self.index.get(var)
        if i is None:
            i = len(self.slots)
            self.slots.append(var)
            self.index[var] = i
        return i


# -- term evaluators: fn(slots) -> OValue | None ---------------------------------
#
# Mirrors eval_term: None exactly when a dereferenced oid's value is
# undefined (unbound variables cannot occur — the caller compiles an
# evaluator only at program points where the term's variables have slots).


def _compile_eval(term: Term, layout: _Layout, instance: Instance):
    if isinstance(term, Const):
        value = term.value
        return lambda slots: value
    if isinstance(term, Var):
        return itemgetter(layout.index[term])
    if term.is_ground() and not mentions_name(term):
        # Constant subterm: pre-evaluate once at compile time.
        value = eval_term(term, {}, instance)
        return lambda slots: value
    if isinstance(term, NameTerm):
        name = term.name
        src: AbstractSet[OValue]
        if instance.schema.is_relation(name):
            src = instance.relations[name]
        else:
            src = instance.classes[name]
        return lambda slots: OSet(src)
    if isinstance(term, Deref):
        i = layout.index[term.var]
        value_of = instance.value_of
        var_name = term.var.name

        def eval_deref(slots):
            oid = slots[i]
            if not isinstance(oid, Oid):
                raise EvaluationError(
                    f"{var_name!r} bound to non-oid {oid!r} in a dereference"
                )
            return value_of(oid)

        return eval_deref
    if isinstance(term, SetTerm):
        subs = tuple(_compile_eval(sub, layout, instance) for sub in term.terms)

        def eval_set(slots):
            elements = []
            for sub in subs:
                v = sub(slots)
                if v is None:
                    return None
                elements.append(v)
            return OSet(elements)

        return eval_set
    if isinstance(term, TupleTerm):
        if not _can_be_undefined(term):
            return _compile_pairs(term, layout, instance, interned_tuple)
        subs = tuple(
            (attr, _compile_eval(sub, layout, instance)) for attr, sub in term.fields
        )

        def eval_tuple(slots):
            pairs = []
            for attr, sub in subs:
                v = sub(slots)
                if v is None:
                    return None
                pairs.append((attr, v))
            return interned_tuple(tuple(pairs))

        return eval_tuple
    raise EvaluationError(f"not a term: {term!r}")  # pragma: no cover


def _compile_pairs(term: TupleTerm, layout: _Layout, instance: Instance, finish):
    """fn(slots) -> ``finish(pairs)``, for a tuple term that cannot be
    undefined, where ``pairs`` is the term's canonical pair tuple.

    Pairs follow ``term.fields``, which is sorted by attribute: the order
    :class:`OTuple` canonicalizes to, so ``pairs`` is the intern key of
    the value. Every subterm evaluator yields an o-value (a matcher-bound
    slot, a validated constant, an interned tuple or set), which is what
    :func:`~repro.values.ovalues.interned_tuple` trusts.
    """
    subs = tuple((attr, _compile_eval(sub, layout, instance)) for attr, sub in term.fields)
    if len(subs) == 1:
        ((a0, e0),) = subs
        return lambda slots: finish(((a0, e0(slots)),))
    if len(subs) == 2:
        (a0, e0), (a1, e1) = subs
        return lambda slots: finish(((a0, e0(slots)), (a1, e1(slots))))

    def finish_pairs(slots):
        pairs = [(attr, sub(slots)) for attr, sub in subs]
        return finish(tuple(pairs))

    return finish_pairs


def _live_tuple(pairs):
    """The live interned tuple whose canonical pair tuple is ``pairs``, or
    None. The table is read per call, never captured: a kernel outlives
    any one table state."""
    entry = STORE.tuples.get(pairs)
    return None if entry is None else entry()


def _can_be_undefined(term: Term) -> bool:
    """Can evaluation yield None (i.e. is there a dereference inside)?"""
    if isinstance(term, Deref):
        return True
    if isinstance(term, SetTerm):
        return any(_can_be_undefined(sub) for sub in term.terms)
    if isinstance(term, TupleTerm):
        return any(_can_be_undefined(sub) for _, sub in term.fields)
    return False


# -- matchers: fn(value, slots) -> bool, binding new slots in place ---------------
#
# The compiled counterpart of the *single-extension* subset of match():
# every construct below extends the bindings at most once per value, so a
# boolean suffices. The two multi-extension constructs — unbound
# dereference and set patterns of two or more terms — raise
# CompileFallback instead.


def _compile_match(term: Term, layout: _Layout, bound: Set[Var], instance: Instance):
    if isinstance(term, Const):
        value = term.value
        return lambda x, slots: value == x
    if isinstance(term, Var):
        if term in bound:
            i = layout.index[term]
            return lambda x, slots: slots[i] == x
        i = layout.slot(term)
        bound.add(term)
        var_type = term.type
        if isinstance(var_type, Base):

            def match_base(x, slots):
                if isinstance(x, CONSTANT_TYPES):
                    slots[i] = x
                    return True
                return False

            return match_base
        if isinstance(var_type, ClassRef):
            extent = instance.classes.get(var_type.name)
            if extent is not None:

                def match_class(x, slots):
                    if isinstance(x, Oid) and x in extent:
                        slots[i] = x
                        return True
                    return False

                return match_class
        member_of = instance.member_of

        def match_typed(x, slots):
            if member_of(x, var_type):
                slots[i] = x
                return True
            return False

        return match_typed
    if isinstance(term, NameTerm):
        evaluate = _compile_eval(term, layout, instance)
        return lambda x, slots: evaluate(slots) == x
    if isinstance(term, Deref):
        if term.var not in bound:
            # Unbound dereference: match() scans the class — possibly
            # many extensions per value.
            raise CompileFallback("unbound-dereference")
        i = layout.index[term.var]
        value_of = instance.value_of
        return lambda x, slots: value_of(slots[i]) == x
    if isinstance(term, TupleTerm):
        pairs = tuple(
            (attr, _compile_match(sub, layout, bound, instance))
            for attr, sub in term.fields
        )
        if len(pairs) == 2:
            (a0, m0), (a1, m1) = pairs

            def match_pair(x, slots):
                # The value's pairs are in sorted attribute order, as the
                # term's fields are.
                if isinstance(x, OTuple):
                    fields = x.items()
                    if len(fields) == 2:
                        (b0, v0), (b1, v1) = fields
                        return a0 == b0 and a1 == b1 and m0(v0, slots) and m1(v1, slots)
                return False

            return match_pair
        attrs = tuple(attr for attr, _ in term.fields)

        def match_tuple(x, slots):
            if not isinstance(x, OTuple) or x.attributes != attrs:
                return False
            for attr, sub in pairs:
                if not sub(x[attr], slots):
                    return False
            return True

        return match_tuple
    if isinstance(term, SetTerm):
        if term.variables() <= bound:
            # Fully bound (``{}`` included): match() yields iff it
            # evaluates to the value.
            evaluate = _compile_eval(term, layout, instance)
            return lambda x, slots: evaluate(slots) == x
        if len(term.terms) > 1:
            # Set patterns branch over element assignments (k-fold product).
            raise CompileFallback("set-assignment")
        # {t}: match()'s cover check admits exactly the one-element sets
        # whose element matches t.
        element_match = _compile_match(term.terms[0], layout, bound, instance)

        def match_singleton(x, slots):
            return isinstance(x, OSet) and len(x) == 1 and element_match(next(iter(x)), slots)

        return match_singleton
    raise EvaluationError(f"not a term: {term!r}")  # pragma: no cover


# -- filters: fn(slots) -> bool (fully-bound literals) ----------------------------


def _compile_filter(lit: Literal, layout: _Layout, instance: Instance):
    if isinstance(lit, Membership):
        if isinstance(lit.container, NameTerm):
            # A name container always evaluates to the (live) extension —
            # test against the captured set directly instead of wrapping
            # it in a fresh OSet per check.
            name = lit.container.name
            src: AbstractSet[OValue]
            if instance.schema.is_relation(name):
                src = instance.relations[name]
            else:
                src = instance.classes[name]
            positive = lit.positive
            element = lit.element
            if isinstance(element, TupleTerm) and not _can_be_undefined(element):
                # Every live o-value is the store's node for its content,
                # so a content with no live node is in no extension.
                probe = _compile_pairs(element, layout, instance, _live_tuple)

                def check_name_member_probe(slots):
                    node = probe(slots)
                    if node is None:
                        return not positive
                    return (node in src) == positive

                return check_name_member_probe
            element_eval = _compile_eval(element, layout, instance)

            def check_name_member(slots):
                element = element_eval(slots)
                if element is None:
                    return False
                return (element in src) == positive

            return check_name_member
        container_eval = _compile_eval(lit.container, layout, instance)
        element_eval = _compile_eval(lit.element, layout, instance)
        positive = lit.positive

        def check_member(slots):
            container = container_eval(slots)
            element = element_eval(slots)
            if container is None or element is None:
                return False
            if not isinstance(container, OSet):
                raise EvaluationError(
                    f"membership against non-set value {container!r} in {lit!r}"
                )
            return (element in container) == positive

        return check_member
    if isinstance(lit, Equality):
        left_eval = _compile_eval(lit.left, layout, instance)
        right_eval = _compile_eval(lit.right, layout, instance)
        positive = lit.positive

        def check_equal(slots):
            left = left_eval(slots)
            right = right_eval(slots)
            if left is None or right is None:
                return False
            return (left == right) == positive

        return check_equal
    raise EvaluationError(f"unknown literal {lit!r}")  # pragma: no cover


# -- the step chain ----------------------------------------------------------------


def _no_sink(slots: Slots) -> None:  # pragma: no cover - kernels install a consumer
    raise EvaluationError("compiled kernel executed without a consumer installed")


class _State:
    """Mutable compile-pass state: did any step capture an index dict?"""

    __slots__ = ("indexes",)

    def __init__(self) -> None:
        self.indexes: Optional[Any] = None


def _compile_steps(plan, layout, bound, instance, budget, state):
    """Compile a plan into (entry, sink_cell).

    Forward pass: compile each step's predicates/matchers while the
    bound-set evolves exactly as in plan_body. Backward fold: chain the
    steps so each calls the next directly; the innermost calls through
    ``sink_cell[0]``, which the kernel swaps per execution.
    """
    makers = []
    for step in plan:
        kind = step[0]
        if kind == "filter":
            predicate = _compile_filter(step[1], layout, instance)

            def make_filter(nxt, predicate=predicate):
                def run_filter(slots):
                    if predicate(slots):
                        nxt(slots)

                return run_filter

            makers.append(make_filter)
        elif kind == "member":
            makers.append(_compile_member(step[1], step[2], layout, bound, instance, state))
        elif kind == "equal":
            lit, left_known = step[1], step[2]
            known, pattern = (
                (lit.left, lit.right) if left_known else (lit.right, lit.left)
            )
            known_eval = _compile_eval(known, layout, instance)
            matcher = _compile_match(pattern, layout, bound, instance)

            def make_equal(nxt, known_eval=known_eval, matcher=matcher):
                def run_equal(slots):
                    value = known_eval(slots)
                    if value is not None and matcher(value, slots):
                        nxt(slots)

                return run_equal

            makers.append(make_equal)
        else:  # kind == "enum"
            var = step[1]
            i = layout.slot(var)
            bound.add(var)
            var_type = var.type

            def make_enum(nxt, i=i, var_type=var_type):
                def run_enum(slots):
                    for value in enumerate_type(
                        var_type,
                        instance.sorted_constants(),
                        instance.classes,
                        budget=budget,
                    ):
                        slots[i] = value
                        nxt(slots)

                return run_enum

            makers.append(make_enum)

    sink_cell: List[Consumer] = [_no_sink]

    def sink(slots):
        sink_cell[0](slots)

    entry = sink
    for maker in reversed(makers):
        entry = maker(entry)
    return entry, sink_cell


def _compile_member(lit, probes, layout, bound, instance, state):
    """A ("member", lit, probes) step: probe or scan, then match."""
    container = lit.container
    probe_list: Tuple[Tuple[Any, Any], ...] = ()
    if probes:
        name = container.name
        indexes = instance.indexes
        state.indexes = indexes
        # Capture the projection index dicts now; they are maintained in
        # place by the instance mutators, so a probe at run time is one
        # dict.get against current contents.
        probe_list = tuple(
            (indexes.relation_index(name, attr), _compile_eval(sub, layout, instance))
            for attr, sub in probes
        )
    matcher = _compile_match(lit.element, layout, bound, instance)
    if probe_list:
        if len(probe_list) == 1:
            index_get = probe_list[0][0].get
            value_eval = probe_list[0][1]

            def make_probe1(nxt, index_get=index_get, value_eval=value_eval, matcher=matcher):
                def run_probe1(slots):
                    value = value_eval(slots)
                    if value is None:
                        return  # undefined dereference: no member can match
                    bucket = index_get(value)
                    if bucket:
                        for element in bucket:
                            if matcher(element, slots):
                                nxt(slots)

                return run_probe1

            return make_probe1

        def make_probe(nxt, probe_list=probe_list, matcher=matcher):
            def run_probe(slots):
                members = None
                for index, value_eval in probe_list:
                    value = value_eval(slots)
                    if value is None:
                        return  # undefined dereference: no member can match
                    bucket = index.get(value, ())
                    if members is None or len(bucket) < len(members):
                        members = bucket
                    if not members:
                        return
                for element in members:
                    if matcher(element, slots):
                        nxt(slots)

            return run_probe

        return make_probe
    if isinstance(container, NameTerm):
        name = container.name
        src: AbstractSet[OValue]
        if instance.schema.is_relation(name):
            src = instance.relations[name]
        else:
            src = instance.classes[name]

        def make_scan(nxt, src=src, matcher=matcher):
            def run_scan(slots):
                for element in src:
                    if matcher(element, slots):
                        nxt(slots)

            return run_scan

        return make_scan
    container_eval = _compile_eval(container, layout, instance)

    def make_deref_scan(nxt, container_eval=container_eval, matcher=matcher):
        def run_deref_scan(slots):
            members = container_eval(slots)
            if members is None:
                return  # undefined dereference: no facts to match
            if not isinstance(members, OSet):
                raise EvaluationError(
                    f"membership against non-set value {members!r} in {lit!r}"
                )
            for element in members:
                if matcher(element, slots):
                    nxt(slots)

        return run_deref_scan

    return make_deref_scan


# -- compiled bodies ---------------------------------------------------------------


class CompiledBody:
    """A planned body as a closure chain over a fixed slot layout.

    ``slots`` is the layout (initial variables first, then variables in
    order of first binding along the plan). Executing writes one mutable
    list in place and hands it to the consumer per solution; the consumer
    must copy whatever it keeps.
    """

    __slots__ = ("slot_vars", "slot_index", "entry", "sink_cell", "instance", "indexes", "plan")

    def __init__(self, slot_vars, slot_index, entry, sink_cell, instance, indexes, plan):
        self.slot_vars: Tuple[Var, ...] = slot_vars
        self.slot_index: Dict[Var, int] = slot_index
        self.entry = entry
        self.sink_cell = sink_cell
        self.instance = instance
        self.indexes = indexes
        self.plan: Plan = plan

    def new_slots(self) -> Slots:
        return [None] * len(self.slot_vars)

    def execute(self, init_values: Sequence[OValue], consume: Consumer) -> None:
        """Run the chain with slots 0..k-1 preset to ``init_values``."""
        slots: Slots = [None] * len(self.slot_vars)
        if init_values:
            slots[: len(init_values)] = init_values
        self.sink_cell[0] = consume
        self.entry(slots)

    def valid_for(self, instance: Instance) -> bool:
        """Is this kernel still sound, and its join order current, for
        ``instance``?

        Identity of the instance pins the captured extension sets; when
        probe dicts were captured, identity of ``instance._indexes`` pins
        them too (``drop_indexes`` replaces the whole object). A stale
        plan (:meth:`Plan.is_stale`) asks for a recompile under a
        re-costed join order.
        """
        return (
            instance is self.instance
            and (self.indexes is None or instance._indexes is self.indexes)
            and not self.plan.is_stale(instance)
        )


def compile_body(
    literals: Sequence[Literal],
    initial_vars: Sequence[Var],
    instance: Instance,
    enumeration_budget: int = 100_000,
    plan_cache: Optional[Dict] = None,
    stats=None,
) -> CompiledBody:
    """Compile ``literals`` given ``initial_vars`` pre-bound, or raise
    :class:`CompileFallback`. The cost-based plan is memoized in
    ``plan_cache`` (the owning rule's)."""
    literals = tuple(lit for lit in literals if not isinstance(lit, Choose))
    plan = lookup_plan(literals, frozenset(initial_vars), instance, plan_cache, stats)
    layout = _Layout(initial_vars)
    bound: Set[Var] = set(initial_vars)
    state = _State()
    entry, sink_cell = _compile_steps(
        plan, layout, bound, instance, enumeration_budget, state
    )
    return CompiledBody(
        tuple(layout.slots), dict(layout.index), entry, sink_cell, instance, state.indexes, plan
    )


# -- compiled rules: body + blocking check + head applier -------------------------


class CompiledRule:
    """One rule specialized for γ1: body kernel, blocking check, applier.

    ``solve`` enumerates body valuations (slot lists sized for body *and*
    invention variables); ``blocked`` is the valuation-domain condition
    (True iff some extension already satisfies the head); the evaluator
    fills ``inv_slots`` with fresh oids and calls ``apply`` with the
    step's :class:`~repro.iql.evaluator.StepWrites`. A deletion rule
    compiles its body only (``blocked`` and ``apply`` are None): the
    evaluator turns each solution into a θ for its deletion step.
    """

    __slots__ = ("rule", "body", "n_slots", "inv_slots", "blocked", "apply")

    def __init__(self, rule, body, n_slots, inv_slots, blocked, apply):
        self.rule = rule
        self.body: CompiledBody = body
        self.n_slots = n_slots
        #: ((class name, slot index), ...) for invention variables, in
        #: name order — the same invention order as the interpreter.
        self.inv_slots: Tuple[Tuple[str, int], ...] = inv_slots
        self.blocked = blocked
        self.apply = apply

    def solve(self, consume: Consumer) -> None:
        slots: Slots = [None] * self.n_slots
        self.body.sink_cell[0] = consume
        self.body.entry(slots)

    def valid_for(self, instance: Instance) -> bool:
        return self.body.valid_for(instance)


def compile_rule(
    rule: Rule,
    instance: Instance,
    enumeration_budget: int = 100_000,
    stats=None,
) -> CompiledRule:
    """Compile one rule for the naive one-step operator, or raise
    :class:`CompileFallback`."""
    if rule.has_choose():
        raise CompileFallback("choose")
    body = compile_body(
        rule.body,
        (),
        instance,
        enumeration_budget=enumeration_budget,
        plan_cache=rule.plan_cache,
        stats=stats,
    )
    if rule.delete:
        return CompiledRule(rule, body, len(body.slot_vars), (), None, None)
    layout = _Layout(())
    layout.slots = list(body.slot_vars)
    layout.index = dict(body.slot_index)
    bound: Set[Var] = set(body.slot_vars)
    inv_vars = sorted(rule.invention_variables(), key=lambda v: v.name)
    inv_pairs: List[Tuple[str, int]] = []
    for v in inv_vars:
        v_type = v.type
        assert isinstance(v_type, ClassRef)  # typechecked upstream
        inv_pairs.append((v_type.name, layout.slot(v)))
    inv_slots = tuple(inv_pairs)
    blocked = _compile_blocked(rule, layout, bound, instance)
    for var in inv_vars:
        bound.add(var)  # the invention phase fills these before apply
    apply = _compile_apply(rule, layout, instance)
    return CompiledRule(rule, body, len(layout.slots), inv_slots, blocked, apply)


def _compile_blocked(rule: Rule, layout: _Layout, bound: Set[Var], instance: Instance):
    """The valuation-domain blocking condition, specialized per head shape.

    ``bound`` holds the body variables; head-only (invention) variables
    are unbound here, so their matchers range over existing class members
    — exactly ``Evaluator._head_satisfiable``.
    """
    head = rule.head
    value_of = instance.value_of
    if isinstance(head, Membership):
        container = head.container
        if isinstance(container, NameTerm):
            name = container.name
            members: AbstractSet[OValue]
            if instance.schema.is_relation(name):
                members = instance.relations[name]
            else:
                members = instance.classes[name]
            if head.element.variables() <= bound:
                element_eval = _compile_eval(head.element, layout, instance)

                def blocked_lookup(slots):
                    element = element_eval(slots)
                    return element is not None and element in members

                return blocked_lookup
            matcher = _compile_match(head.element, layout, bound, instance)

            def blocked_scan(slots):
                for existing in members:
                    if matcher(existing, slots):
                        return True
                return False

            return blocked_scan
        # Deref container x̂(t).
        assert isinstance(container, Deref)  # the only other legal container
        var = container.var
        if var not in bound:
            # x is an invention variable: a fresh oid has no ν entry yet,
            # so no extension can satisfy the head — never blocked.
            return lambda slots: False
        i = layout.index[var]
        if head.element.variables() <= bound:
            element_eval = _compile_eval(head.element, layout, instance)

            def blocked_deref(slots):
                members = value_of(slots[i])
                if members is None:
                    return False
                element = element_eval(slots)
                return element is not None and element in members

            return blocked_deref
        matcher = _compile_match(head.element, layout, bound, instance)

        def blocked_deref_scan(slots):
            members = value_of(slots[i])
            if members is None:
                return False
            for element in members:
                if matcher(element, slots):
                    return True
            return False

        return blocked_deref_scan
    if isinstance(head, Equality):
        deref = head.left
        if not isinstance(deref, Deref):  # pragma: no cover - typechecker
            raise EvaluationError(f"illegal equality head {head!r}")
        var = deref.var
        if var in bound:
            i = layout.index[var]
            matcher = _compile_match(head.right, layout, bound, instance)

            def blocked_assign(slots):
                value = value_of(slots[i])
                return value is not None and matcher(value, slots)

            return blocked_assign
        # Invented target: blocked iff some existing class oid's value
        # matches the right-hand side (with the candidate bound to x).
        i = layout.slot(var)
        var_type = var.type
        assert isinstance(var_type, ClassRef)  # typechecked upstream
        extent: AbstractSet[Oid] = instance.classes.get(var_type.name, frozenset())
        bound.add(var)
        matcher = _compile_match(head.right, layout, bound, instance)

        def blocked_assign_scan(slots):
            for candidate in extent:
                value = value_of(candidate)
                if value is None:
                    continue
                slots[i] = candidate
                if matcher(value, slots):
                    return True
            return False

        return blocked_assign_scan
    raise EvaluationError(f"illegal head {head!r}")  # pragma: no cover


def _compile_apply(rule: Rule, layout: _Layout, instance: Instance):
    """The head applier: fn(slots, writes) evaluates the head and stages
    its write in ``writes`` (a :class:`~repro.iql.evaluator.StepWrites`).

    Nothing is written to the instance here: the evaluator applies the
    staged writes after the step's last head, so every head reads the
    instance the step started from.
    """
    head = rule.head
    if isinstance(head, Membership):
        element_eval = _compile_eval(head.element, layout, instance)
        container = head.container

        def evaluated(slots):
            element = element_eval(slots)
            if element is None:
                raise EvaluationError(
                    f"head {head!r} not evaluable "
                    f"(undefined dereference in a head term)"
                )
            return element

        if isinstance(container, NameTerm):
            name = container.name
            if instance.schema.is_relation(name):

                def apply_relation(slots, writes):
                    writes.facts.append((rule, name, evaluated(slots)))

                return apply_relation

            def apply_class(slots, writes):
                element = evaluated(slots)
                if not isinstance(element, Oid):
                    raise EvaluationError(
                        f"class head {head!r} derived non-oid {element!r}"
                    )
                writes.facts.append((rule, name, element))

            return apply_class
        if isinstance(container, Deref):
            i = layout.index[container.var]

            def apply_set(slots, writes):
                element = evaluated(slots)
                writes.elements.setdefault(slots[i], {}).setdefault(element, rule)

            return apply_set
        raise EvaluationError(f"illegal head container {container!r}")  # pragma: no cover
    if isinstance(head, Equality):
        deref = head.left
        if not isinstance(deref, Deref):  # pragma: no cover - typechecker
            raise EvaluationError(f"illegal equality head {head!r}")
        i = layout.index[deref.var]
        right_eval = _compile_eval(head.right, layout, instance)

        def apply_weak(slots, writes):
            value = right_eval(slots)
            if value is None:
                raise EvaluationError(
                    f"head {head!r} not evaluable (undefined dereference)"
                )
            writes.assign(slots[i], value)

        return apply_weak
    raise EvaluationError(f"illegal head {head!r}")  # pragma: no cover


# -- compiled semi-naive kernels ---------------------------------------------------


#: The position of the head-bound kernel (:meth:`SeminaiveKernels.delta`);
#: body positions are 0, 1, ...
HEAD = -1


class SeminaiveKernels:
    """One eligible rule's kernels for the delta rewriting.

    ``full`` + ``head_full`` drive round 0 (a complete body solve);
    :meth:`delta` gives ``(delta matcher, rest kernel, head eval)`` for
    one relation position of the delta-driven rounds: the matcher seeds
    the rest kernel's initial slots from one delta fact, the rest kernel
    solves the remaining literals, and the head evaluator produces the
    derived fact. Delta kernels compile on first use, so a position
    whose relation never has a delta (an input-only relation in a
    recursive rule) never builds its kernel, nor the projection index
    that kernel would probe; a position whose rest kernel is no longer
    valid (its plan went stale as the fixpoint grew) compiles again.
    Position :data:`HEAD` gives the same triple with the head element as
    the matched element and the whole body as the rest: it asks whether
    one given fact has a derivation, by probing instead of scanning.
    """

    __slots__ = ("rule", "instance", "budget", "full", "head_full", "fallback", "_delta")

    def __init__(self, rule, instance, budget, full, head_full):
        self.rule: Rule = rule
        self.instance: Instance = instance
        self.budget = budget
        self.full: CompiledBody = full
        self.head_full = head_full
        #: The fallback reason once some delta position failed to compile.
        self.fallback: Optional[str] = None
        self._delta: Dict[int, Any] = {}

    def delta(self, position: int, stats=None) -> Optional[tuple]:
        """The delta kernel of ``position``, compiled on first use and
        again whenever its rest kernel is no longer valid.

        None once any position of the rule has fallen outside the
        compilable fragment (``fallback`` names the construct); the
        caller then leaves the rule to the γ1 loop or a recompute, and
        :meth:`RuleCompiler.seminaive_kernels` refuses the rule from then
        on. A head element outside the fragment refuses only the
        :data:`HEAD` kernel. ``stats`` receives the plan lookups and the
        compile time of a (re)compile.
        """
        kernel = self._delta.get(position)
        if kernel is False:
            return None
        if kernel is not None and not kernel[1].valid_for(self.instance):
            kernel = None
        if kernel is None and self.fallback is None:
            started = time.perf_counter()
            try:
                kernel = self._delta[position] = self._compile_delta(position, stats)
            except CompileFallback as fallback:
                if position == HEAD:
                    self._delta[HEAD] = False
                else:
                    self.fallback = fallback.reason
            if stats is not None:
                stats.compile_time += time.perf_counter() - started
        return kernel

    def _compile_delta(self, position: int, stats) -> tuple:
        rule, instance = self.rule, self.instance
        if position == HEAD:
            element, rest = rule.head.element, rule.body
        else:
            element = rule.body[position].element
            rest = rule.body[:position] + rule.body[position + 1 :]
        init_vars = tuple(sorted(element.variables(), key=lambda v: v.name))
        layout = _Layout(init_vars)
        bound: Set[Var] = set()
        matcher = _compile_match(element, layout, bound, instance)
        plan = lookup_plan(tuple(rest), frozenset(init_vars), instance, rule.plan_cache, stats)
        state = _State()
        entry, sink_cell = _compile_steps(
            plan, layout, bound, instance, self.budget, state
        )
        rest_body = CompiledBody(
            tuple(layout.slots), dict(layout.index), entry, sink_cell,
            instance, state.indexes, plan,
        )
        head_eval = _compile_eval(rule.head.element, layout, instance)
        return (matcher, rest_body, head_eval)

    def valid_for(self, instance: Instance) -> bool:
        # Delta kernels are revalidated one by one in delta().
        return self.full.valid_for(instance)


def compile_seminaive(
    rule: Rule,
    instance: Instance,
    enumeration_budget: int = 100_000,
    stats=None,
) -> SeminaiveKernels:
    """Compile one semi-naive-eligible rule's round-0 kernel, or raise
    :class:`CompileFallback`; its delta kernels compile lazily
    (:meth:`SeminaiveKernels.delta`)."""
    head = rule.head
    assert isinstance(head, Membership)  # guaranteed by rule_eligible
    full = compile_body(
        rule.body,
        (),
        instance,
        enumeration_budget=enumeration_budget,
        plan_cache=rule.plan_cache,
        stats=stats,
    )
    head_full = _compile_eval(head.element, _layout_of(full), instance)
    return SeminaiveKernels(rule, instance, enumeration_budget, full, head_full)


def _layout_of(body: CompiledBody) -> _Layout:
    layout = _Layout(())
    layout.slots = list(body.slot_vars)
    layout.index = dict(body.slot_index)
    return layout


# -- the per-evaluator compiler front end ------------------------------------------


class _Fallback:
    """A cached negative result: this shape does not compile."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


class RuleCompiler:
    """Compiles rules on demand, caches kernels per rule, keeps the books.

    Kernels live in ``Rule.kernel_cache`` keyed by shape — ``"rule"``
    (γ1) or ``"sn"`` (semi-naive) — and are revalidated against the
    instance on every fetch; a stale kernel (new instance, indexes
    dropped by an IQL* deletion, or a plan whose inputs grew or shrank
    ``REPLAN_GROWTH``-fold) is recompiled in place. Per run, each rule is
    counted once as compiled or interpreted in :class:`EvaluationStats`.
    """

    def __init__(self, enumeration_budget: int = 100_000):
        self.enumeration_budget = enumeration_budget
        self.stats: Any = None
        self._compiled_seen: Set[int] = set()
        self._interpreted_seen: Set[int] = set()

    def begin_run(self, stats) -> None:
        """Attach a run's stats object and reset the per-run rule tallies."""
        self.stats = stats
        self._compiled_seen = set()
        self._interpreted_seen = set()

    # -- bookkeeping -----------------------------------------------------------

    def _note_compiled(self, rule: Rule) -> None:
        if id(rule) not in self._compiled_seen:
            self._compiled_seen.add(id(rule))
            if self.stats is not None:
                self.stats.rules_compiled += 1

    def note_interpreted(self, rule: Rule, reason: str) -> None:
        """Count ``rule`` as interpreted this run, for ``reason``."""
        if id(rule) not in self._interpreted_seen:
            self._interpreted_seen.add(id(rule))
            if self.stats is not None:
                self.stats.rules_interpreted += 1
                self.stats.compile_fallbacks += 1
                reasons = self.stats.compile_fallback_reasons
                reasons[reason] = reasons.get(reason, 0) + 1

    def compiled_rule(self, rule: Rule, instance: Instance) -> Optional[CompiledRule]:
        """The γ1 kernel for ``rule`` on ``instance``, or None (the rule runs
        on the reference interpreter)."""
        return self._kernel(
            rule,
            "rule",
            lambda: compile_rule(rule, instance, self.enumeration_budget, self.stats),
            instance,
        )

    def seminaive_kernels(self, rule: Rule, instance: Instance) -> Optional[SeminaiveKernels]:
        """The delta-rewriting kernels for ``rule``, or None once its
        round-0 kernel or any of its delta kernels has refused."""
        cache = rule.kernel_cache
        entry = cache.get("sn")
        if isinstance(entry, SeminaiveKernels) and entry.fallback is not None:
            cache["sn"] = _Fallback(entry.fallback)
        return self._kernel(
            rule,
            "sn",
            lambda: compile_seminaive(rule, instance, self.enumeration_budget, self.stats),
            instance,
        )

    def _kernel(self, rule: Rule, key, build, instance: Instance):
        cache = rule.kernel_cache
        entry = cache.get(key)
        if isinstance(entry, _Fallback):
            self.note_interpreted(rule, entry.reason)
            return None
        if entry is not None and entry.valid_for(instance):
            self._note_compiled(rule)
            return entry
        started = time.perf_counter()
        try:
            kernel = build()
        except CompileFallback as fallback:
            cache[key] = _Fallback(fallback.reason)
            if self.stats is not None:
                self.stats.compile_time += time.perf_counter() - started
            self.note_interpreted(rule, fallback.reason)
            return None
        cache[key] = kernel
        if self.stats is not None:
            self.stats.compile_time += time.perf_counter() - started
        self._note_compiled(rule)
        return kernel
