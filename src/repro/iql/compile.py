"""Rule compilation: each kernel is one generated loop nest.

Compiled kernels are the production engine's only join path. An
interpreter (:func:`~repro.iql.valuation.solve_body`) walks a plan step
list and re-dispatches through ``eval_term``/``satisfies``/``match`` per
candidate binding, copying a dict per extension. This module instead
writes the Python source of each kernel, in the manner of data-centric
code generation (Neumann, "Efficiently Compiling Efficient Query Plans
for Modern Hardware", VLDB 2011): the memoized cost-based plan from
:func:`~repro.iql.valuation.lookup_plan` becomes one loop nest, a ``for``
per probe or scan and a flat test per filter and matcher, over local
variables, and the innermost statements do the caller's whole job for
each solution, with no call back into the caller.

A kernel has one of four shapes, and its factory writes one function per
job the shape has:

* a **γ1 rule**: ``collect(out)`` counts every solution, drops each
  one the head blocks and appends one *row* per firing valuation to
  ``out`` (the head's variables bound by the body, in the order the plan
  binds them), and returns the count; ``apply(rows, writes)`` stages
  the head of every row, each extended by the rule's invented oids in
  variable-name order. A deletion rule has ``collect`` alone, whose rows
  are ``(oid, value)``: the oid of the head's ``x̂`` (None for a name
  container) and the deleted term's value;
* a semi-naive rule's **round 0** (the whole body):
  ``drain(existing, bucket)`` adds each head fact not in ``existing`` to
  the set ``bucket`` and returns how many solutions did so, and
  ``tally(counts)`` counts each head fact's solutions in a dict (the
  derivation counts of the counting maintenance strategy);
* one **delta position** of it (the rest of the body, its literal's
  element matched against each fact of a delta): ``drain(source,
  existing, bucket)`` as above, over the facts of ``source``, and
  ``fire(source, out)``, which appends ``(key, head fact)`` per solution,
  the key being the solution's values in variable-name order;
* the :data:`HEAD` position (the whole body, the head element matched
  against one fact): ``derivable(fact, excluded)`` says whether ``fact``
  has a derivation whose positive relation facts avoid ``excluded``, a
  map from relation name to the facts that count as absent.

What the generator decides once per kernel and plan:

* **locals** — every variable gets a fixed slot and a local; which
  are bound at each program point is static (each generator step binds
  exactly its literal's variables), so nothing is ever undone,
* **shapes** — every fact of a *flat* relation (a tuple type whose
  every component is D or one class) conforms to its type, an invariant
  :class:`~repro.schema.instance.Instance` checks where a fact enters
  (:func:`~repro.schema.instance.flat_shape`). So when a kernel matches
  such a fact — from a scan or an index probe, a delta ``source`` or
  ``derivable``'s ``fact`` — against a tuple term with the type's
  attributes, it unpacks the fact's pairs without testing its class,
  length or attribute names; a variable declared D bound from a D
  component is not tested, and one declared of class P bound from a P
  component is tested only for ``not in`` π(P) (membership is not part
  of the invariant). Comparisons with bound variables and constants
  stay, the re-test of a probed field among them (a NaN constant must
  not match itself), and so does every test of a nested term, of a
  relation that is not flat and of a ν value,
* **dereferences** — ``x̂`` of a variable declared of one class reads
  ν with one ``dict.get`` of the live ``I.nu`` (a set-valued class's
  default ``{ }`` is the ``get``'s default, so it is never undefined),
  and a membership test in such a set tests its frozenset. This is sound
  because such a variable's oid is always in its class where it is
  dereferenced: a matcher binds it only after the extent test, an
  ``enum`` step ranges over the extent, and invented oids are placed
  before ``apply`` runs. Any other declared type reads ``value_of``,
* **index probes** — a probe is one call of a projection index's
  ``dict.get`` (:class:`~repro.iql.indexes.InstanceIndexes`),
* **scan sources** — relation/class extension *sets* are read directly
  (the :class:`~repro.schema.instance.Instance` mutators update these
  objects in place, so they stay current),
* **constant subterms** — ground, name-free terms are evaluated once,
* **tuple construction** — a tuple term becomes its canonical pair tuple,
  built in the term's (sorted) field order and interned through the
  trusted :func:`~repro.values.ovalues.interned_tuple`, with no
  re-validation or re-sorting per fact,
* **membership without a tuple** — a name-container membership filter
  whose element is a tuple term with no dereference probes the live
  intern table (read on every call, never captured at binding) for the
  pair tuple instead of building the tuple: no live node means no
  extension holds the value,
* **exclusions** — in ``derivable``, each positive relation membership
  also rejects the facts ``excluded`` names for its relation,
* **the head** — for γ1, the blocking check (the valuation-domain
  condition of γ1, including invention variables ranging over class
  extents) runs inside ``collect``: inline when it is one membership
  test (a name-container head whose element is bound, or ``x̂(t)`` with
  ``x`` and ``t`` bound and ``x`` of a set-valued class), else as a
  call of a generated ``blocked`` that takes the row's locals and, for a
  name-container head with an invention variable, probes the projection
  index of a bound field instead of scanning the head relation.
  ``apply`` evaluates the head of each row and stages its write (a
  relation or class fact, a set element, a (★) candidate) for the
  evaluator to apply after the step's last head; in ``drain``, the head
  fact's intern node is probed before the fact is built, so a solution
  that derives a fact already present builds nothing.

**Factories and binding.** The generated text defines a *factory*,
``factory(I, C, B)``. Every user value — a constant, an attribute,
relation or class name, a type, a rule or literal quoted in an error
message — is an element of the constants tuple ``C`` and the text names
it by position, so no user text is ever compiled, and the text depends
only on the rule's shape, the kernel's shape and the plan's steps.
Factory functions are cached by their text for the whole process
(:data:`CODE_CACHE`, at most :attr:`CodeCache.LIMIT` entries), so a
second program of the same rules compiles nothing. A
:class:`KernelFactory` — the factory, its constants and its plan —
depends only on its :class:`~repro.iql.program.Program`, which memoizes
it (:meth:`~repro.iql.program.Program.rule_memo`) beside the rule's
plan memo.
*Binding* a kernel to an instance ``I`` is one factory call: it reads
the live extension sets, ``nu.get`` and ``value_of``, builds any
projection index the kernel probes, and returns the kernel's functions
(:class:`BoundKernel`). Bound kernels belong to an evaluator's
:class:`RuleCompiler`, so a program keeps no instance alive.

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
:meth:`RuleCompiler.seminaive_kernels` refuses the rule from then on. A
refusal is memoized on the program, with the construct's reason.

**Invalidation.** A bound kernel hard-codes one instance's sets and
index dicts and one plan's join order. It is valid only while three
things hold: ``kernel.instance is instance``; when it probes an index,
``instance._indexes`` is still the :class:`InstanceIndexes` object it
was bound to; and its plan is not stale
(:meth:`~repro.iql.valuation.Plan.is_stale`: no extension the plan reads
has grown or shrunk ``REPLAN_GROWTH``-fold since it was costed).
``Instance.drop_indexes()`` replaces the index object, so its kernels
are bound again; a kernel whose plan went stale is bound from a factory
generated for a plan re-costed on the instance at hand (from the code
cache when that text was seen before). A factory is valid for as long as
its plan is not stale.

**Contract.** A running kernel iterates live extension sets; callers must
not mutate the instance while a kernel is executing, and a ``bucket``,
``out`` or ``counts`` a kernel writes must not be a set it reads. Both
engines satisfy this: γ1 collects every rule's rows before it invents
or writes anything, and the semi-naive rounds drain new facts into a
bucket before applying them. ``apply`` stages too, so no head of a γ1
step sees another's write. A factory function is shared by every
program whose kernel has the same text, so it reads nothing but its
arguments and this module's helpers, and a bound kernel keeps no state
between calls: what a call finds goes into the list or set its caller
passes. ``I.nu`` is never rebound, so a bound ``nu.get`` stays current.
Every call reads the intern table afresh (``_STORE.tuples``), so a sweep
between calls changes no answer. Every fact a kernel matches against a
flat shape conforms to it: a delta ``source`` holds facts of its
relation (or facts that entered its maintained base), and ``derivable``
is asked about facts of its head relation. The facts ``drain`` adds are
the one place relation facts enter without ``add_relation_member``: a
head term that conforms statically
(:meth:`_Source.conforms_statically`) needs no test, and the fact of
any other head (a dereference in a component, or a head of a program
that was never type-checked) is tested before it goes into the bucket,
raising the error ``add_relation_member`` raises.

Compiled execution reports ``rules_compiled`` / ``rules_interpreted`` /
``compile_fallbacks`` / ``compile_time`` into
:class:`~repro.iql.evaluator.EvaluationStats`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.effects import mentions_name
from repro.errors import EvaluationError
from repro.iql.literals import Choose, Equality, Literal, Membership
from repro.iql.rules import Rule
from repro.iql.terms import Const, Deref, NameTerm, SetTerm, Term, TupleTerm, Var
from repro.iql.valuation import Plan, eval_term, lookup_plan
from repro.schema.instance import Instance, Shape, conforms, flat_shape, nonconforming
from repro.typesys.enumeration import enumerate_type
from repro.typesys.expressions import Base, ClassRef
from repro.values.intern import STORE
from repro.values.ovalues import CONSTANT_TYPES, EMPTY_SET, Oid, OSet, OTuple, interned_tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.iql.program import Program

#: The position of the head-bound kernel (:meth:`SeminaiveKernels.delta`);
#: body positions are 0, 1, ...
HEAD = -1


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


def _can_be_undefined(term: Term) -> bool:
    """Can evaluation yield None (i.e. is there a dereference inside)?"""
    if isinstance(term, Deref):
        return True
    if isinstance(term, SetTerm):
        return any(_can_be_undefined(sub) for sub in term.terms)
    if isinstance(term, TupleTerm):
        return any(_can_be_undefined(sub) for _, sub in term.fields)
    return False


# -- the errors generated code raises ----------------------------------------------


def _non_oid(name: str, value: object) -> None:
    raise EvaluationError(f"{name!r} bound to non-oid {value!r} in a dereference")


def _non_set(value: object, lit: Literal) -> None:
    raise EvaluationError(f"membership against non-set value {value!r} in {lit!r}")


def _undefined_head(head: Literal) -> None:
    detail = "undefined dereference in a head term" if isinstance(head, Membership) else (
        "undefined dereference"
    )
    raise EvaluationError(f"head {head!r} not evaluable ({detail})")


def _non_oid_head(head: Literal, element: object) -> None:
    raise EvaluationError(f"class head {head!r} derived non-oid {element!r}")


def _nonconforming_head(name: str, fact: object, t) -> None:
    raise nonconforming(name, fact, t)


#: Loops per generated function; Python allows 20 nested blocks.
_LOOPS_PER_FUNCTION = 16

#: Per function a kernel can have: its parameters (a delta kernel's
#: ``source`` comes first), the locals a continuation of its nest takes
#: besides the bound variables, the statement that ends it, and the
#: statement that runs a continuation ``{call}``.
_SHAPES: Dict[str, Tuple[str, str, str, str]] = {
    "collect": ("out", "out, tg", "return n", "n += {call}"),
    "drain": ("existing, bucket", "existing, bucket, tg", "return n", "n += {call}"),
    "fire": ("out", "out, tg", "return", "{call}"),
    "tally": ("counts", "counts, tg", "return", "{call}"),
    "derivable": ("fact, excluded", "tg", "return False", "if {call}: return True"),
}

#: The global names generated code may read besides builtins.
_GLOBALS: Dict[str, Any] = {
    "_OTuple": OTuple,
    "_OSet": OSet,
    "_Oid": Oid,
    "_CONSTANT_TYPES": CONSTANT_TYPES,
    "_tuple": interned_tuple,
    "_STORE": STORE,
    "_enumerate_type": enumerate_type,
    "_EMPTY": frozenset(),
    "_EMPTY_SET": EMPTY_SET,
    "_non_oid": _non_oid,
    "_non_set": _non_set,
    "_undefined_head": _undefined_head,
    "_non_oid_head": _non_oid_head,
    "_conforms": conforms,
    "_nonconforming_head": _nonconforming_head,
}


class CodeCache:
    """Factory functions by source text, shared by every program of the
    process.

    Holds at most :attr:`LIMIT` functions and drops the oldest first.
    ``misses`` counts the texts compiled. A text holds no user value, so
    two programs with rules of the same shapes and plans share entries.

    The bound is sized from measured working sets: the whole test suite,
    which runs several hundred generated programs in one process,
    generates 847 distinct texts, ``benchmarks/run_all.py`` 65 and a
    perfbench workload fewer than 20. An entry (text and compiled
    factory) takes about 5 kB, so a full cache holds about 5 MB.
    """

    LIMIT = 1024

    def __init__(self) -> None:
        self._functions: Dict[str, Callable] = {}
        self.misses = 0

    def function(self, source: str) -> Callable:
        """The ``factory`` that ``source`` defines, compiled on first sight."""
        function = self._functions.get(source)
        if function is None:
            self.misses += 1
            namespace: Dict[str, Any] = {}
            exec(compile(source, "<iql kernel>", "exec"), _GLOBALS, namespace)
            function = namespace["factory"]
            if len(self._functions) >= self.LIMIT:
                self._functions.pop(next(iter(self._functions)), None)
            self._functions[source] = function
        return function


#: The process's code cache.
CODE_CACHE = CodeCache()


# -- the generator -----------------------------------------------------------------


class _Source:
    """The source text of one kernel factory, and the constants it reads.

    The text defines ``factory(I, C, B)`` — ``I`` the instance, ``C`` the
    constants, ``B`` the enumeration budget — whose nested functions are
    the kernel. A variable lives in local ``v<slot>``, a constant is
    ``c<k>`` (``C[k]``), an object read from the instance at binding is
    ``i<k>``, a temporary ``t<k>`` and the facts ``derivable`` excludes
    from a relation ``x<k>``; ``tg`` is the intern table's ``get`` and
    ``n`` the count ``drain`` and ``collect`` return. ``fail`` is the
    statement that drops the current candidate: ``continue`` inside a
    loop, the function's ``done`` statement outside one.
    """

    def __init__(self, schema, initial: Sequence[Var] = ()):
        self.schema = schema
        self.slots: List[Var] = list(initial)
        self.index: Dict[Var, int] = {v: i for i, v in enumerate(self.slots)}
        #: Relation name → the local holding its excluded facts (``derivable``).
        self.excluded: Dict[str, str] = {}
        self.consts: List[object] = []
        self._const_names: Dict[Tuple[type, object], str] = {}
        self._reads: Dict[tuple, str] = {}
        self.prologue: List[str] = []
        self.lines: List[str] = []
        self.bound: Set[Var] = set()
        self.depth = 1
        self.fail = "return"
        self._outer: List[str] = []
        self._temps = 0
        self.probes = False
        #: Whether ``collect`` calls a generated ``blocked``.
        self.calls_blocked = False

    # -- names -------------------------------------------------------------------

    def const(self, value: object) -> str:
        key = (type(value), value)
        name = self._const_names.get(key)
        if name is None:
            name = self._const_names[key] = f"c{len(self.consts)}"
            self.consts.append(value)
        return name

    def read(self, key: tuple, code: str) -> str:
        """A local holding ``code``, evaluated on the instance at binding."""
        name = self._reads.get(key)
        if name is None:
            name = self._reads[key] = f"i{len(self._reads)}"
            self.prologue.append(f"    {name} = {code}")
        return name

    def extension(self, name: str) -> str:
        table = "relations" if self.schema.is_relation(name) else "classes"
        return self.read(("extension", name), f"I.{table}[{self.const(name)}]")

    def value_of(self) -> str:
        return self.read(("value_of",), "I.value_of")

    def declared_class(self, var: Var) -> Optional[str]:
        """The class ``var`` is declared of, when its type is one class."""
        var_type = var.type
        if isinstance(var_type, ClassRef) and self.schema.is_class(var_type.name):
            return var_type.name
        return None

    def set_valued(self, var: Var) -> bool:
        """Is ``var`` declared of one set-valued class?"""
        name = self.declared_class(var)
        return name is not None and self.schema.is_set_valued_class(name)

    def fact_shape(self, container: Term) -> Optional[Shape]:
        """The flat shape of the relation ``container`` names, or None:
        every fact read from it conforms to that shape."""
        if isinstance(container, NameTerm) and self.schema.is_relation(container.name):
            return flat_shape(self.schema.relations[container.name])
        return None

    def conforms_statically(self, term: Term, shape: Shape) -> bool:
        """Does every fact a kernel builds from head term ``term`` conform
        to ``shape``? It does when the term is a tuple term with the
        shape's attributes whose every component is a variable declared
        D, in a D component, or declared of the component's class, or a
        constant, in a D component: matching binds a variable only to a
        value of its declared type."""
        if not isinstance(term, TupleTerm) or len(term.fields) != len(shape):
            return False
        for (attr, sub), (expected, component) in zip(term.fields, shape):
            if attr != expected:
                return False
            if isinstance(component, Base):
                if not isinstance(sub, Const) and not (
                    isinstance(sub, Var) and isinstance(sub.type, Base)
                ):
                    return False
            elif not (isinstance(sub, Var) and self.declared_class(sub) == component):
                return False
        return True

    def deref(self, var: Var) -> Tuple[str, bool]:
        """An expression for ν of ``var``'s oid, and whether it can be
        None (undefined).

        A variable declared of one class reads ``I.nu`` directly (see the
        module docstring): a set-valued class's oid defaults to ``{ }``,
        any other class's may be undefined. Any other type goes through
        ``value_of``."""
        local = self.var(var)
        name = self.declared_class(var)
        if name is None:
            return f"{self.value_of()}({local})", True
        nu_get = self.read(("nu",), "I.nu.get")
        if self.schema.is_set_valued_class(name):
            return f"{nu_get}({local}, _EMPTY_SET)", False
        return f"{nu_get}({local})", True

    def elements(self, container: Term, members: str, lit: Literal) -> str:
        """What a membership in ``container``, whose value is in
        ``members``, tests or iterates: the frozenset of a set-valued
        dereference, else the value, checked to be a set."""
        if isinstance(container, Deref) and self.set_valued(container.var):
            return f"{members}._elements"
        self.require_set(members, lit)
        return members

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def var(self, var: Var) -> str:
        return f"v{self.index[var]}"

    def bind(self, var: Var) -> str:
        """``var``'s local, allocating its slot on first sight; marks it bound."""
        if var not in self.index:
            self.index[var] = len(self.slots)
            self.slots.append(var)
        self.bound.add(var)
        return self.var(var)

    # -- layout of the text ------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def function(self, signature: str, bound: Sequence[Var], done="return") -> None:
        """Start a nested function of the factory, with ``bound`` the
        variables bound and ``done`` the statement that ends it."""
        self.depth = 1
        self.emit(f"def {signature}:")
        self.depth = 2
        self.fail = done
        self._outer = []
        self.bound = set(bound)

    def open(self, header: str) -> None:
        """Open a loop; inside it, a failed test moves to the next element."""
        self.emit(header)
        self.depth += 1
        self._outer.append(self.fail)
        self.fail = "continue"

    def close(self) -> None:
        self.depth -= 1
        self.fail = self._outer.pop()

    def text(self, names: Sequence[str]) -> str:
        lines = ["def factory(I, C, B):"]
        if self.consts:
            lines.append("    " + "".join(f"c{k}, " for k in range(len(self.consts))) + "= C")
        lines += self.prologue
        lines += self.lines
        lines.append("    return " + "".join(f"{name}, " for name in names))
        return "\n".join(lines) + "\n"

    # -- terms ---------------------------------------------------------------------
    #
    # value() mirrors eval_term: a dereference of an oid without a value
    # is undefined, and so is every term around it; ``undefined`` (the
    # current ``fail`` by default) runs then. match() is the compiled
    # counterpart of the *single-extension* subset of match(): each
    # construct below extends the bindings at most once per value. The two
    # multi-extension constructs raise CompileFallback instead.

    def value(self, term: Term, undefined: Optional[str] = None) -> str:
        """A local or constant holding ``term``'s value."""
        if isinstance(term, Const):
            return self.const(term.value)
        if isinstance(term, Var):
            return self.var(term)
        if term.is_ground() and not mentions_name(term):
            # A ground, name-free term reads no instance.
            return self.const(eval_term(term, {}, None))  # type: ignore[arg-type]
        if undefined is None:
            undefined = self.fail
        if isinstance(term, NameTerm):
            expr = f"_OSet({self.extension(term.name)})"
        elif isinstance(term, Deref):
            t = self.temp()
            if self.declared_class(term.var) is None:
                local = self.var(term.var)
                self.emit(
                    f"if not isinstance({local}, _Oid): "
                    f"_non_oid({self.const(term.var.name)}, {local})"
                )
            expr, maybe_none = self.deref(term.var)
            self.emit(f"{t} = {expr}")
            if maybe_none:
                self.emit(f"if {t} is None: {undefined}")
            return t
        elif isinstance(term, SetTerm):
            elements = [self.value(sub, undefined) for sub in term.terms]
            expr = f"_OSet(({''.join(e + ', ' for e in elements)}))"
        elif isinstance(term, TupleTerm):
            expr = f"_tuple({self.pairs(term, undefined)})"
        else:  # pragma: no cover - every term class is handled above
            raise EvaluationError(f"not a term: {term!r}")
        t = self.temp()
        self.emit(f"{t} = {expr}")
        return t

    def pairs(self, term: TupleTerm, undefined: Optional[str] = None) -> str:
        """The canonical pair tuple of a tuple term, as an expression.

        Pairs follow ``term.fields``, which is sorted by attribute: the
        order :class:`OTuple` canonicalizes to, so the pair tuple is the
        value's intern key. Every component is an o-value (a bound
        variable, a validated constant, an interned tuple or set), which
        is what :func:`~repro.values.ovalues.interned_tuple` trusts."""
        items = [
            f"({self.const(attr)}, {self.value(sub, undefined)}), " for attr, sub in term.fields
        ]
        return f"({''.join(items)})"

    def match(self, term: Term, x: str, shape: Optional[Shape] = None) -> None:
        """Test the value in ``x`` against ``term``, binding its unbound
        variables. ``shape`` is the flat shape of the relation ``x`` is a
        fact of, if any (:meth:`match_tuple`)."""
        fail = self.fail
        if isinstance(term, Const):
            self.emit(f"if {x} != {self.const(term.value)}: {fail}")
        elif isinstance(term, Var):
            if term in self.bound:
                self.emit(f"if {x} != {self.var(term)}: {fail}")
            else:
                local = self.bind(term)
                self.emit(f"{local} = {x}")
                self.check_type(term, local)
        elif isinstance(term, Deref):
            if term.var not in self.bound:
                # Unbound dereference: match() scans the class, possibly
                # many extensions per value.
                raise CompileFallback("unbound-dereference")
            self.emit(f"if {self.deref(term.var)[0]} != {x}: {fail}")
        elif isinstance(term, TupleTerm):
            self.match_tuple(term, x, shape)
        elif isinstance(term, SetTerm) and not term.variables() <= self.bound:
            if len(term.terms) > 1:
                # Set patterns branch over element assignments (k-fold product).
                raise CompileFallback("set-assignment")
            # {t}: match()'s cover check admits exactly the one-element
            # sets whose element matches t.
            self.emit(f"if not isinstance({x}, _OSet) or len({x}) != 1: {fail}")
            element = self.temp()
            self.emit(f"({element},) = {x}._elements")
            self.match(term.terms[0], element)
        elif isinstance(term, (NameTerm, SetTerm)):
            # A name, or a fully bound set ({} included): equal iff it
            # evaluates to the value.
            value = self.value(term)
            self.emit(f"if {value} != {x}: {fail}")
        else:  # pragma: no cover - every term class is handled above
            raise EvaluationError(f"not a term: {term!r}")

    def match_tuple(self, term: TupleTerm, x: str, shape: Optional[Shape] = None) -> None:
        """Test the value in ``x`` against tuple term ``term``.

        When ``x`` is a fact of a flat relation of shape ``shape`` and the
        term has the shape's attributes, the fact conforms (see
        :mod:`repro.schema.instance`): neither its class, its length nor
        its attribute names are tested, and each variable met first here
        is tested against its component (:meth:`check_type`)."""
        fail = self.fail
        fields = term.fields
        if shape is not None and [a for a, _ in fields] != [a for a, _ in shape]:
            shape = None
        components: List[Union[Base, str, None]] = [None] * len(fields)
        if shape is None:
            self.emit(f"if not isinstance({x}, _OTuple): {fail}")
            items = self.temp()
            self.emit(f"{items} = {x}._fields")
            self.emit(f"if len({items}) != {len(fields)}: {fail}")
        else:
            components = [c for _, c in shape]
        if not fields:
            return
        # The value's pairs are in sorted attribute order, as the term's
        # fields are. A variable met first here, and only once in the
        # term, is unpacked straight into its local.
        occurrences: Dict[Var, int] = {}
        for _, sub in fields:
            for var in sub.variables():
                occurrences[var] = occurrences.get(var, 0) + 1
        locals_, direct = [], []
        for _, sub in fields:
            first = isinstance(sub, Var) and sub not in self.bound and occurrences[sub] == 1
            locals_.append(self.bind(sub) if first else self.temp())
            direct.append(first)
        if shape is not None:
            self.emit("".join(f"(_, {v}), " for v in locals_) + f"= {x}._fields")
        else:
            names = [self.temp() for _ in fields]
            self.emit("".join(f"({a}, {v}), " for a, v in zip(names, locals_)) + f"= {items}")
            tests = " or ".join(f"{a} != {self.const(attr)}" for a, (attr, _) in zip(names, fields))
            self.emit(f"if {tests}: {fail}")
        for (_, sub), local, first, component in zip(fields, locals_, direct, components):
            if first:
                self.check_type(sub, local, component)
            elif isinstance(sub, Var) and sub not in self.bound:
                self.emit(f"{self.bind(sub)} = {local}")
                self.check_type(sub, self.var(sub), component)
            else:
                self.match(sub, local)

    def check_type(self, var: Var, local: str, component: Union[Base, str, None] = None) -> None:
        """The type test of a variable bound by matching.

        ``component`` is the flat shape's component (D or a class name)
        of a conforming fact the value was read from: a variable declared
        D bound from a D component needs no test, and one declared of the
        component's class only the test of the class extent."""
        var_type = var.type
        if component is not None:
            declared = self.declared_class(var)
            if isinstance(component, Base) and isinstance(var_type, Base):
                return
            if declared is not None and declared == component:
                self.emit(f"if {local} not in {self.extension(declared)}: {self.fail}")
                return
        if isinstance(var_type, Base):
            self.emit(f"if not isinstance({local}, _CONSTANT_TYPES): {self.fail}")
        elif isinstance(var_type, ClassRef) and self.schema.is_class(var_type.name):
            extent = self.extension(var_type.name)
            self.emit(f"if not isinstance({local}, _Oid) or {local} not in {extent}: {self.fail}")
        else:
            member_of = self.read(("member_of",), "I.member_of")
            self.emit(f"if not {member_of}({local}, {self.const(var_type)}): {self.fail}")

    # -- body steps ----------------------------------------------------------------

    def require_set(self, members: str, lit: Literal) -> None:
        self.emit(f"if not isinstance({members}, _OSet): _non_set({members}, {self.const(lit)})")

    def filter(self, lit: Literal) -> None:
        fail = self.fail
        if isinstance(lit, Membership):
            test = "not in" if lit.positive else "in"
            container, element = lit.container, lit.element
            if isinstance(container, NameTerm):
                members = self.extension(container.name)
                if isinstance(element, TupleTerm) and not _can_be_undefined(element):
                    # Every live o-value is the store's node for its
                    # content, so a content with no live node is in no
                    # extension.
                    node = self.temp()
                    self.emit(f"{node} = tg({self.pairs(element)})")
                    if lit.positive:
                        self.emit(f"if {node} is None: {fail}")
                        self.emit(f"{node} = {node}()")
                        absent = self.absent(node, container.name)
                        self.emit(f"if {node} not in {members}{absent}: {fail}")
                    else:
                        self.emit(f"if {node} is not None and {node}() in {members}: {fail}")
                    return
                value = self.value(element)
                absent = self.absent(value, container.name) if lit.positive else ""
                self.emit(f"if {value} {test} {members}{absent}: {fail}")
                return
            members = self.value(container)
            value = self.value(element)
            members = self.elements(container, members, lit)
            self.emit(f"if {value} {test} {members}: {fail}")
            return
        if isinstance(lit, Equality):
            left = self.value(lit.left)
            right = self.value(lit.right)
            self.emit(f"if {left} {'!=' if lit.positive else '=='} {right}: {fail}")
            return
        raise EvaluationError(f"unknown literal {lit!r}")  # pragma: no cover

    def member(self, lit: Membership, probes) -> None:
        """A ("member", lit, probes) step: probe or scan, then match."""
        container = lit.container
        if probes:
            assert isinstance(container, NameTerm)  # the planner probes relations only
            name = self.const(container.name)
            self.probes = True
            source = ""
            for attr, sub in probes:
                get = self.read(
                    ("index", container.name, attr),
                    f"I.indexes.relation_index({name}, {self.const(attr)}).get",
                )
                bucket = f"{get}({self.value(sub)}, _EMPTY)"
                if not source and len(probes) == 1:
                    source = bucket
                elif not source:
                    source = self.temp()
                    self.emit(f"{source} = {bucket}")
                    self.emit(f"if not {source}: {self.fail}")
                else:
                    other = self.temp()
                    self.emit(f"{other} = {bucket}")
                    self.emit(f"if len({other}) < len({source}): {source} = {other}")
                    self.emit(f"if not {source}: {self.fail}")
        elif isinstance(container, NameTerm):
            source = self.extension(container.name)
        else:
            source = self.elements(container, self.value(container), lit)
        element = self.temp()
        self.open(f"for {element} in {source}:")
        if isinstance(container, NameTerm) and container.name in self.excluded:
            self.emit(f"if {element} in {self.excluded[container.name]}: {self.fail}")
        self.match(lit.element, element, self.fact_shape(container))

    def absent(self, value: str, name: str) -> str:
        """The rest of a positive membership test of ``value`` in relation
        ``name``: in ``derivable``, the excluded facts count as absent."""
        local = self.excluded.get(name)
        return f" or {value} in {local}" if local else ""

    def nest(
        self,
        plan: Plan,
        shape: str,
        matched: Optional[Membership] = None,
        head: Union[Membership, Rule, None] = None,
    ) -> None:
        """Function ``shape`` of the kernel (:data:`_SHAPES`): the plan as
        one loop nest, finished per solution by :meth:`solution`.

        With ``matched``, a delta position's literal or the head, the nest
        first matches its element against each fact of ``source``, or
        against the one ``fact`` of ``derivable``, binding the initial
        variables; each such fact is a fact of the literal's relation.
        ``head`` is the head of a semi-naive rule, or the rule itself for
        ``collect``.

        Python nests at most 20 blocks in one function, so every
        :data:`_LOOPS_PER_FUNCTION` loops the rest of the nest continues
        in a function of its own, called with the function's context
        locals and the variables bound so far.
        """
        params, context, done, run = _SHAPES[shape]
        if matched is not None and shape != "derivable":
            params = "source, " + params
        self.excluded = {}
        if shape == "derivable":
            # Each positive relation membership is a fact the derivation
            # uses: its relation's excluded facts count as absent.
            for step in plan:
                lit = step[1]
                if (
                    step[0] in ("member", "filter")
                    and isinstance(lit, Membership)
                    and lit.positive
                    and isinstance(lit.container, NameTerm)
                    and self.schema.is_relation(lit.container.name)
                ):
                    self.excluded.setdefault(lit.container.name, f"x{len(self.excluded)}")
            context += "".join(f", {local}" for local in self.excluded.values())
        self.function(f"{shape}({params})", (), done=done)
        self.emit("tg = _STORE.tuples.get")
        if done == "return n":
            self.emit("n = 0")
        for name, local in self.excluded.items():
            self.emit(f"{local} = excluded.get({self.const(name)}, _EMPTY)")
        finished: List[str] = []
        loops = parts = 0
        if matched is not None:
            fact = "fact"
            if shape != "derivable":
                fact = self.temp()
                self.open(f"for {fact} in source:")
                loops = 1
            self.match(matched.element, fact, self.fact_shape(matched.container))
        for step in plan:
            kind = step[0]
            if kind in ("member", "enum"):
                if loops == _LOOPS_PER_FUNCTION:
                    parts += 1
                    bound = [v for v in self.slots if v in self.bound]
                    args = "".join(f", {self.var(v)}" for v in bound)
                    call = f"{shape}{parts}({context}{args})"
                    self.emit(run.format(call=call))
                    self.end(done)
                    finished += self.lines
                    self.lines = []
                    self.function(call, bound, done=done)
                    if done == "return n":
                        self.emit("n = 0")
                    loops = 0
                loops += 1
            if kind == "filter":
                self.filter(step[1])
            elif kind == "member":
                self.member(step[1], step[2])
            elif kind == "equal":
                lit, left_known = step[1], step[2]
                known, pattern = (lit.left, lit.right) if left_known else (lit.right, lit.left)
                self.match(pattern, self.value(known))
            else:  # kind == "enum"
                var = step[1]
                constants = self.read(("constants",), "I.sorted_constants")
                classes = self.read(("classes",), "I.classes")
                self.open(
                    f"for {self.bind(var)} in _enumerate_type("
                    f"{self.const(var.type)}, {constants}(), {classes}, budget=B):"
                )
        self.solution(shape, head)
        self.end(done)
        self.lines = finished + self.lines

    def end(self, done: str) -> None:
        """Close the current function with its ``done`` statement (none
        after a final return)."""
        self.depth = 2
        if done != "return" and not self.lines[-1].startswith("        return"):
            self.emit(done)

    # -- the rest of a kernel --------------------------------------------------------

    def solution(self, shape: str, head: Union[Membership, Rule, None]) -> None:
        """The innermost statements of function ``shape``: what it does
        with one solution."""
        if shape == "derivable":
            self.emit("return True")
            return
        if shape == "collect":
            assert isinstance(head, Rule)
            self.emit("n += 1")
            if head.delete:
                self.deleted(head.head)
            else:
                self.row(head.head)
            return
        assert isinstance(head, Membership)
        element = head.element
        fail = self.fail
        if shape == "drain" and isinstance(element, TupleTerm):
            # Probe the head fact's intern node before building it: a
            # fact already present costs one table lookup.
            pairs, fact = self.temp(), self.temp()
            self.emit(f"{pairs} = {self.pairs(element)}")
            self.emit(f"{fact} = tg({pairs})")
            self.emit(f"if {fact} is not None: {fact} = {fact}()")
            self.emit(f"if {fact} is None: {fact} = _tuple({pairs})")
            self.emit(f"elif {fact} in existing: {fail}")
        else:
            fact = self.value(element)
            if shape == "drain":
                self.emit(f"if {fact} in existing: {fail}")
        if shape == "drain":
            self.conform(head, fact)
            self.emit(f"bucket.add({fact})")
            self.emit("n += 1")
        elif shape == "fire":
            key = "".join(f"{self.var(v)}, " for v in sorted(self.slots, key=lambda v: v.name))
            self.emit(f"out.append((({key}), {fact}))")
        else:  # shape == "tally"
            self.emit(f"counts[{fact}] = counts.get({fact}, 0) + 1")

    def conform(self, head: Membership, fact: str) -> None:
        """In ``drain``: test that the new ``fact`` conforms to its flat
        relation, unless the head's term conforms statically.

        The round adds ``drain``'s facts through the trusted
        ``add_relation_members``, so this is where they enter. The test
        runs on a fact whose intern node existed too: that node may be a
        member of another relation. It raises the error
        ``add_relation_member`` raises, as the γ1 step does for the same
        head."""
        container = head.container
        shape = self.fact_shape(container)
        if shape is None or self.conforms_statically(head.element, shape):
            return
        assert isinstance(container, NameTerm)  # fact_shape names a relation
        name = container.name
        self.emit(
            f"if not _conforms({fact}, {self.const(shape)}): _nonconforming_head("
            f"{self.const(name)}, {fact}, {self.const(self.schema.relations[name])})"
        )

    def row_vars(self, head: Literal) -> List[Var]:
        """The head's variables the body binds, in slot order: a row's
        locals (before the invention variables get slots)."""
        variables = head.variables()
        return [v for v in self.slots if v in variables]

    def row(self, head: Literal) -> None:
        """In ``collect``: drop the solution if the head blocks it, else
        append its row.

        A bound head whose blocking check is one membership test (a name
        container, or the set of a set-valued ``x̂``) is tested inline as
        the negated head, the filter that drops a solution whose fact
        is present; any other head calls ``blocked`` with the row."""
        row = self.row_vars(head)
        args = "".join(f"{self.var(v)}, " for v in row)
        container = head.container if isinstance(head, Membership) else None
        if (
            isinstance(head, Membership)
            and head.variables() <= self.bound
            and not _can_be_undefined(head.element)
            and (
                isinstance(container, NameTerm)
                or (isinstance(container, Deref) and self.set_valued(container.var))
            )
        ):
            self.filter(head.negate())
        else:
            self.calls_blocked = True
            self.emit(f"if blocked({args.rstrip(', ')}): {self.fail}")
        self.emit(f"out.append(({args}))")

    def deleted(self, head: Literal) -> None:
        """In a deletion rule's ``collect``: append ``(oid, value)``, the
        oid of the head's ``x̂`` (None for a name container) and the
        deleted term's value; an undefined term appends nothing."""
        if isinstance(head, Membership):
            term, container = head.element, head.container
            oid = self.var(container.var) if isinstance(container, Deref) else "None"
        else:
            assert isinstance(head, Equality) and isinstance(head.left, Deref)
            term, oid = head.right, self.var(head.left.var)
        self.emit(f"out.append(({oid}, {self.value(term)}))")

    def blocked(self, head: Literal, row: Sequence[Var]) -> None:
        """``blocked(v…)``, of a row's locals: the valuation-domain
        blocking condition.

        Head-only (invention) variables are unbound here, so their
        matchers range over existing class members — exactly
        ``Evaluator._head_satisfiable``, except that a relation head
        probes the projection index of a field the row binds instead of
        scanning the relation."""
        self.function(f"blocked({', '.join(self.var(v) for v in row)})", row)
        self.fail = "return False"
        if isinstance(head, Membership):
            container, element = head.container, head.element
            if isinstance(container, NameTerm):
                if element.variables() <= self.bound:
                    members = self.extension(container.name)
                    self.emit(f"return {self.value(element)} in {members}")
                    return
                probes: Tuple[Tuple[str, Term], ...] = ()
                if self.schema.is_relation(container.name) and isinstance(element, TupleTerm):
                    probes = tuple(
                        (attr, sub)
                        for attr, sub in element.fields
                        if sub.variables() <= self.bound and not _can_be_undefined(sub)
                    )
                self.member(head, probes)
            elif isinstance(container, Deref):
                if container.var not in self.bound:
                    # x is an invention variable: a fresh oid has no ν
                    # entry yet, so no extension can satisfy the head.
                    self.emit("return False")
                    return
                expr, maybe_none = self.deref(container.var)
                members = self.temp()
                self.emit(f"{members} = {expr}")
                if maybe_none:
                    self.emit(f"if {members} is None: return False")
                if element.variables() <= self.bound:
                    self.emit(f"return {self.value(element)} in {members}")
                    return
                item = self.temp()
                self.open(f"for {item} in {members}:")
                self.match(element, item)
            else:  # pragma: no cover - rejected by the type checker
                raise EvaluationError(f"illegal head container {container!r}")
        elif isinstance(head, Equality) and isinstance(head.left, Deref):
            var = head.left.var
            value = self.temp()
            if var in self.bound:
                expr, maybe_none = self.deref(var)
                self.emit(f"{value} = {expr}")
                if maybe_none:
                    self.emit(f"if {value} is None: return False")
                self.match(head.right, value)
                self.emit("return True")
                return
            # Invented target: blocked iff some existing class oid's value
            # matches the right-hand side (with the candidate bound to x).
            class_name = _class_name(var)
            extent = self.read(
                ("extent", class_name), f"I.classes.get({self.const(class_name)}, _EMPTY)"
            )
            self.open(f"for {self.bind(var)} in {extent}:")
            expr, maybe_none = self.deref(var)
            self.emit(f"{value} = {expr}")
            if maybe_none:
                self.emit(f"if {value} is None: continue")
            self.match(head.right, value)
        else:  # pragma: no cover - rejected by the type checker
            raise EvaluationError(f"illegal head {head!r}")
        self.emit("return True")
        self.close()
        self.emit("return False")

    def apply(self, rule: Rule, row: Sequence[Var]) -> None:
        """``apply(rows, writes)``: evaluate the head of each row (the
        row's locals ``row``: its body-bound head variables, then its
        invented oids) and stage its write in ``writes`` (a
        :class:`~repro.iql.evaluator.StepWrites`).

        Nothing is written to the instance here: the evaluator applies the
        staged writes after the step's last head, so every head reads the
        instance the step started from."""
        head = rule.head
        self.function("apply(rows, writes)", ())
        undefined = f"_undefined_head({self.const(head)})"
        if isinstance(head, Membership):
            container = head.container
            stage = "writes.facts.append" if isinstance(container, NameTerm) else "writes.elements"
        else:
            stage = "writes.assign"
        self.emit(f"stage = {stage}")
        target = "".join(f"{self.var(v)}, " for v in row).rstrip() or "_"
        self.open(f"for {target} in rows:")
        self.bound = set(row)
        if isinstance(head, Membership):
            element = self.value(head.element, undefined)
            container = head.container
            if isinstance(container, NameTerm):
                if not self.schema.is_relation(container.name):
                    self.emit(
                        f"if not isinstance({element}, _Oid): "
                        f"_non_oid_head({self.const(head)}, {element})"
                    )
                self.emit(f"stage(({self.const(rule)}, {self.const(container.name)}, {element}))")
            else:
                assert isinstance(container, Deref)  # checked by blocked()
                self.emit(
                    f"stage.setdefault({self.var(container.var)}, {{}}).setdefault("
                    f"{element}, {self.const(rule)})"
                )
        else:
            assert isinstance(head, Equality) and isinstance(head.left, Deref)
            value = self.value(head.right, undefined)
            self.emit(f"stage({self.var(head.left.var)}, {value})")
        self.close()


# -- factories ---------------------------------------------------------------------


class KernelFactory:
    """One kernel's factory, with what depends only on its program.

    :meth:`bind` returns the kernel's functions for one instance, in
    this order: ``collect``, ``apply`` for a γ1 rule (``collect`` alone
    for a deletion rule), ``drain``, ``tally`` for round 0, ``drain``,
    ``fire`` for a delta position and ``derivable`` for :data:`HEAD`.
    ``source`` is the generated text. For a γ1 rule, ``inventions``
    names the class of each invention variable in name order (the
    interpreter's invention order): the oids ``apply`` expects at the
    end of each row. ``probes`` says whether the kernel probes an index.
    """

    __slots__ = ("plan", "make", "consts", "source", "inventions", "probes")

    def __init__(
        self,
        plan: Plan,
        source: _Source,
        functions: Sequence[str],
        inventions: Tuple[str, ...] = (),
    ):
        self.plan = plan
        self.source = source.text(functions)
        self.make = CODE_CACHE.function(self.source)
        self.consts = tuple(source.consts)
        self.inventions = inventions
        self.probes = source.probes

    def bind(self, instance: Instance, budget: int) -> tuple:
        return self.make(instance, self.consts, budget)


def _class_name(var: Var) -> str:
    """The class of an invention variable, class-typed by the type checker."""
    var_type = var.type
    assert isinstance(var_type, ClassRef)
    return var_type.name


def _matched(rule: Rule, kind: int) -> Membership:
    """The literal whose element a delta kernel matches: the head, or a
    body literal."""
    literal = rule.head if kind == HEAD else rule.body[kind]
    assert isinstance(literal, Membership)  # the delta fragment's generators
    return literal


def _kernel_body(rule: Rule, kind) -> Tuple[Tuple[Literal, ...], Tuple[Var, ...]]:
    """(literals, initially bound variables) of kernel ``kind`` of ``rule``."""
    if kind in ("rule", "full"):
        return tuple(lit for lit in rule.body if not isinstance(lit, Choose)), ()
    rest = rule.body if kind == HEAD else rule.body[:kind] + rule.body[kind + 1 :]
    return rest, tuple(sorted(_matched(rule, kind).element.variables(), key=lambda v: v.name))


def _generate(schema, rule: Rule, kind, plan: Plan, initial) -> KernelFactory:
    """Generate kernel ``kind`` of ``rule`` for ``plan``: ``"rule"`` (γ1),
    ``"full"`` (round 0), a body position or :data:`HEAD` (delta)."""
    source = _Source(schema, initial)
    if kind == "rule":
        source.nest(plan, "collect", head=rule)
        if rule.delete:
            return KernelFactory(plan, source, ["collect"])
        row = source.row_vars(rule.head)
        inventions = sorted(rule.invention_variables(), key=lambda v: v.name)
        for var in inventions:
            source.bind(var)
        if source.calls_blocked:
            source.blocked(rule.head, row)
        source.apply(rule, row + inventions)
        classes = tuple(_class_name(v) for v in inventions)
        return KernelFactory(plan, source, ["collect", "apply"], classes)
    head = rule.head
    assert isinstance(head, Membership)  # semi-naive heads are R(t)
    functions: Tuple[str, ...] = ("drain", "tally")
    matched: Optional[Membership] = None
    if kind != "full":
        functions = ("derivable",) if kind == HEAD else ("drain", "fire")
        matched = _matched(rule, kind)
    for shape in functions:
        source.nest(plan, shape, matched, head)
    return KernelFactory(plan, source, functions)


def kernel_factory(program: "Program", rule: Rule, kind, instance: Instance, stats=None):
    """The factory of kernel ``kind`` of ``rule`` (``"rule"``, ``"full"``,
    a body position or :data:`HEAD`), or raise :class:`CompileFallback`.

    Every kernel the engine runs comes from here. The program memoizes
    the factory; it is generated again only when its plan went stale for
    ``instance``, under the plan re-costed on it. ``stats`` receives the
    plan lookups."""
    memo = program.rule_memo(rule)
    factory = memo.factories.get(kind)
    if factory is not None and not factory.plan.is_stale(instance):
        if stats is not None:
            stats.plan_cache_hits += 1
        return factory
    if kind == "rule" and rule.has_choose():
        raise CompileFallback("choose")
    literals, initial = _kernel_body(rule, kind)
    plan = lookup_plan(literals, frozenset(initial), instance, memo.plans, stats)
    if factory is None or factory.plan is not plan:
        factory = memo.factories[kind] = _generate(program.schema, rule, kind, plan, initial)
    return factory


# -- bound kernels -----------------------------------------------------------------


class BoundKernel:
    """A kernel's functions bound to one instance.

    ``functions`` is what :meth:`KernelFactory.bind` returned. They are
    valid for as long as :meth:`valid_for` holds.
    """

    __slots__ = ("functions", "instance", "indexes", "plan")

    def __init__(self, factory: KernelFactory, instance: Instance, budget: int):
        self.functions = factory.bind(instance, budget)
        self.instance = instance
        # Read after binding, which builds the indexes the plan probes.
        self.indexes = instance._indexes if factory.probes else None
        self.plan: Plan = factory.plan

    def valid_for(self, instance: Instance) -> bool:
        """Is this kernel still sound, and its join order current, for
        ``instance``?

        Identity of the instance pins the extension sets; when index
        getters were bound, identity of ``instance._indexes`` pins them
        too (``drop_indexes`` replaces the whole object). A stale plan
        (:meth:`Plan.is_stale`) asks for a kernel under a re-costed join
        order.
        """
        return (
            instance is self.instance
            and (self.indexes is None or instance._indexes is self.indexes)
            and not self.plan.is_stale(instance)
        )


class CompiledRule:
    """One rule bound for γ1.

    ``collect(rows)`` appends a row per valuation the head does not block
    (the valuation-domain condition) and returns how many valuations the
    body had; the evaluator extends each row by fresh oids of the classes
    ``inventions`` names and calls ``apply(rows, writes)`` with the step's
    :class:`~repro.iql.evaluator.StepWrites`. A deletion rule has no
    ``apply`` (None): its ``collect`` appends ``(oid, value)`` pairs for
    its deletion step (see :meth:`_Source.deleted`).
    """

    __slots__ = ("rule", "body", "collect", "apply", "inventions")

    def __init__(self, rule: Rule, factory: KernelFactory, instance: Instance, budget: int):
        self.rule = rule
        self.body = BoundKernel(factory, instance, budget)
        self.collect, *rest = self.body.functions
        self.apply = rest[0] if rest else None
        self.inventions = factory.inventions

    def valid_for(self, instance: Instance) -> bool:
        return self.body.valid_for(instance)


class SeminaiveKernels:
    """One eligible rule's kernels for the delta rewriting, bound to one
    instance.

    ``drain`` and ``tally`` run round 0 (a complete body solve);
    :meth:`delta` gives the :class:`BoundKernel` of one relation position
    of the delta-driven rounds, whose ``drain`` and ``fire`` match each
    fact of a delta against the position's literal and solve the rest of
    the body. Delta kernels are bound on first use, so a position whose
    relation never has a delta (an input-only relation in a recursive
    rule) never builds its factory, nor the projection index its kernel
    would probe; a position whose kernel is no longer valid (its plan
    went stale as the fixpoint grew) is bound again. Position
    :data:`HEAD` gives ``derivable``, which matches the head element
    against one fact and solves the whole body: it asks whether that fact
    has a derivation, by probing instead of scanning.
    """

    __slots__ = ("program", "rule", "instance", "budget", "full", "drain", "tally", "_delta")

    def __init__(self, program: "Program", rule: Rule, instance: Instance, budget: int, factory):
        self.program = program
        self.rule = rule
        self.instance = instance
        self.budget = budget
        self.full = BoundKernel(factory, instance, budget)
        self.drain, self.tally = self.full.functions
        self._delta: Dict[int, BoundKernel] = {}

    @property
    def fallback(self) -> Optional[str]:
        """The fallback reason once some body position failed to compile."""
        return self.program.rule_memo(self.rule).refused.get("sn")

    def delta(self, position: int, stats=None) -> Optional[BoundKernel]:
        """The delta kernel of ``position``, bound on first use and again
        whenever it is no longer valid.

        None once any position of the rule has fallen outside the
        compilable fragment (``fallback`` names the construct); the
        caller then leaves the rule to the γ1 loop or a recompute, and
        :meth:`RuleCompiler.seminaive_kernels` refuses the rule from then
        on. A head element outside the fragment refuses only the
        :data:`HEAD` kernel. ``stats`` receives the plan lookups and the
        time of a (re)binding.
        """
        kernel = self._delta.get(position)
        if kernel is not None and kernel.valid_for(self.instance):
            return kernel
        refused = self.program.rule_memo(self.rule).refused
        if "sn" in refused or (position == HEAD and HEAD in refused):
            return None
        started = time.perf_counter()
        try:
            factory = kernel_factory(self.program, self.rule, position, self.instance, stats)
        except CompileFallback as fallback:
            refused[HEAD if position == HEAD else "sn"] = fallback.reason
            kernel = None
        else:
            kernel = self._delta[position] = BoundKernel(factory, self.instance, self.budget)
        if stats is not None:
            stats.compile_time += time.perf_counter() - started
        return kernel

    def valid_for(self, instance: Instance) -> bool:
        # Delta kernels are revalidated one by one in delta().
        return self.full.valid_for(instance)


# -- the per-evaluator compiler front end ------------------------------------------


class RuleCompiler:
    """Binds the program's kernels to instances, keeps them, keeps the books.

    Factories and refusals live on the :class:`~repro.iql.program.Program`
    (:meth:`~repro.iql.program.Program.rule_memo`); the kernels bound from
    them live here, per rule and shape — ``"rule"`` (γ1) or ``"sn"``
    (semi-naive) — and are revalidated against the instance on every
    fetch. A stale kernel (new instance, indexes dropped by an IQL*
    deletion, or a plan whose inputs grew or shrank
    ``REPLAN_GROWTH``-fold) is bound again. Per run, each rule is counted
    once as compiled or interpreted in :class:`EvaluationStats`.
    """

    def __init__(self, program: "Program", enumeration_budget: int = 100_000):
        self.program = program
        self.enumeration_budget = enumeration_budget
        self.stats: Any = None
        self._compiled_seen: Set[int] = set()
        self._interpreted_seen: Set[int] = set()
        #: (id(rule), shape) → bound kernel; the kernel holds the rule.
        self._bound: Dict[Tuple[int, str], Any] = {}

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
        return self._kernel(rule, "rule", "rule", instance)

    def seminaive_kernels(self, rule: Rule, instance: Instance) -> Optional[SeminaiveKernels]:
        """The delta-rewriting kernels for ``rule``, or None once its
        round-0 kernel or any of its delta kernels has refused."""
        return self._kernel(rule, "sn", "full", instance)

    def _kernel(self, rule: Rule, shape: str, kind: str, instance: Instance):
        refused = self.program.rule_memo(rule).refused
        if shape in refused:
            self.note_interpreted(rule, refused[shape])
            return None
        kernel = self._bound.get((id(rule), shape))
        if kernel is not None and kernel.valid_for(instance):
            self._note_compiled(rule)
            return kernel
        started = time.perf_counter()
        try:
            factory = kernel_factory(self.program, rule, kind, instance, self.stats)
        except CompileFallback as fallback:
            refused[shape] = fallback.reason
            self._add_time(started)
            self.note_interpreted(rule, fallback.reason)
            return None
        if shape == "rule":
            kernel = CompiledRule(rule, factory, instance, self.enumeration_budget)
        else:
            kernel = SeminaiveKernels(
                self.program, rule, instance, self.enumeration_budget, factory
            )
        self._bound[(id(rule), shape)] = kernel
        self._add_time(started)
        self._note_compiled(rule)
        return kernel

    def _add_time(self, started: float) -> None:
        if self.stats is not None:
            self.stats.compile_time += time.perf_counter() - started
