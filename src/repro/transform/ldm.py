"""The Logical Data Model simulated in IQL (Proposition 4.2.9).

Kuper and Vardi's LDM is the oid-centric ancestor of the paper's model:
schemas are classes only (the paper: "schemas of the form (∅, P, T) where
the types are trees of bounded depth"), and the algebra builds new classes
of new objects from old ones. Proposition 4.2.9: "It is simple to simulate
all the algebraic operators of LDM in IQL directly … copy elimination is
not necessary for simulating LDM."

This module performs that simulation. Each operator takes source class
names and a target class name and returns an IQL :class:`Program` whose
evaluation populates the target with *fresh* objects (classes must stay
disjoint, so LDM's new-node-per-row discipline maps exactly onto IQL's oid
invention — the "limited invention of oids" the proposition mentions):

* :func:`ldm_copy` — a new class whose objects carry the same values,
* :func:`ldm_union` / :func:`ldm_intersection` / :func:`ldm_difference` —
  set operations *by value* on two classes of the same type,
* :func:`ldm_product` — pairing: T(Q) = [f1: P1, f2: P2], one object per
  pair of source objects,
* :func:`ldm_projection` — component extraction from a product-typed class,
* :func:`ldm_selection` — objects whose two named components are equal.

Every produced program is recursion-free per stage (invention never feeds
itself), so the whole simulated algebra stays in the PTIME fragment —
matching LDM's own complexity story.
"""

from __future__ import annotations


from repro.errors import SchemaError
from repro.iql.literals import Equality, Membership
from repro.iql.program import Program
from repro.iql.rules import Rule
from repro.iql.terms import NameTerm, TupleTerm, Var
from repro.schema.schema import Schema
from repro.typesys.expressions import ClassRef, SetOf, TupleOf, TypeExpr, classref, tuple_of


def _map_relation(schema: Schema, name: str, src: str, dst: str) -> Schema:
    return schema.with_names(
        relations={name: tuple_of(src=classref(src), dst=classref(dst))}
    )


def _closure_names(schema: Schema, seeds) -> list:
    """Transitive closure of class references — output projections must be
    well-formed schemas, so every class a kept type mentions is kept."""
    keep = set()
    pending = set(seeds)
    while pending:
        name = pending.pop()
        if name in keep or name not in schema.classes:
            continue
        keep.add(name)
        pending |= schema.classes[name].class_names()
    return sorted(keep)


def ldm_copy(schema: Schema, source: str, target: str) -> Program:
    """Q := a fresh class with one new object per object of P, same value."""
    if source not in schema.classes:
        raise SchemaError(f"unknown class {source!r}")
    t = schema.classes[source]
    full = schema.with_names(classes={target: t})
    full = _map_relation(full, f"_map_{target}", source, target)
    x = Var("x", classref(source))
    q = Var("q", classref(target))
    stage1 = [
        Rule(
            Membership(NameTerm(f"_map_{target}"), TupleTerm(src=x, dst=q)),
            [Membership(NameTerm(source), x)],
            label=f"ldm-copy-invent:{target}",
        )
    ]
    stage2 = list(_transfer_rules(full, f"_map_{target}", source, target, t))
    return Program(
        full,
        stages=[stage1, stage2],
        input_names=sorted(schema.classes),
        output_names=_closure_names(full, [target] + list(t.class_names())),
    )


def _transfer_rules(schema: Schema, map_name: str, source: str, target: str, t: TypeExpr):
    """q̂ := x̂ across the map — via weak assignment for scalar-valued
    classes, elementwise for set-valued ones."""
    x = Var("x", classref(source))
    q = Var("q", classref(target))
    read = Membership(NameTerm(map_name), TupleTerm(src=x, dst=q))
    if isinstance(t, SetOf):
        e = Var("e", t.element)
        yield Rule(
            Membership(q.hat(), e),
            [read, Membership(x.hat(), e)],
            label=f"ldm-transfer-set:{target}",
        )
    else:
        w = Var("w", t)
        yield Rule(
            Equality(q.hat(), w),
            [read, Equality(x.hat(), w)],
            label=f"ldm-transfer:{target}",
        )


def _binary_setup(schema: Schema, left: str, right: str, target: str) -> TypeExpr:
    for name in (left, right):
        if name not in schema.classes:
            raise SchemaError(f"unknown class {name!r}")
    tl, tr = schema.classes[left], schema.classes[right]
    if tl != tr:
        raise SchemaError(
            f"LDM set operations need same-typed classes; "
            f"T({left}) = {tl!r} but T({right}) = {tr!r}"
        )
    return tl


def _by_value_rule(schema, map_name, source, target, t, extra_body):
    """Invent a target object per source object satisfying extra_body."""
    x = Var("x", classref(source))
    q = Var("q", classref(target))
    w = Var("w", t)
    body = [Membership(NameTerm(source), x), Equality(x.hat(), w)] + extra_body(w, x)
    return Rule(
        Membership(NameTerm(map_name), TupleTerm(src=x, dst=q)),
        body,
        label=f"ldm-select:{target}",
    )


def ldm_union(schema: Schema, left: str, right: str, target: str) -> Program:
    """Q := P1 ∪ P2 by value (one fresh object per *distinct* source value
    would need by-value dedup; LDM unions node sets, so we produce one
    object per source object — duplicates by value are LDM's own
    behaviour, Appendix B of Kuper's thesis notwithstanding)."""
    t = _binary_setup(schema, left, right, target)
    full = schema.with_names(classes={target: t})
    full = _map_relation(full, f"_map_{target}", left, target)
    full = full.with_names(
        relations={f"_map2_{target}": tuple_of(src=classref(right), dst=classref(target))}
    )
    x = Var("x", classref(left))
    y = Var("y", classref(right))
    q = Var("q", classref(target))
    stage1 = [
        Rule(
            Membership(NameTerm(f"_map_{target}"), TupleTerm(src=x, dst=q)),
            [Membership(NameTerm(left), x)],
            label=f"ldm-union-left:{target}",
        ),
        Rule(
            Membership(NameTerm(f"_map2_{target}"), TupleTerm(src=y, dst=q)),
            [Membership(NameTerm(right), y)],
            label=f"ldm-union-right:{target}",
        ),
    ]
    stage2 = list(_transfer_rules(full, f"_map_{target}", left, target, t))
    stage2 += list(_transfer_rules(full, f"_map2_{target}", right, target, t))
    return Program(
        full,
        stages=[stage1, stage2],
        input_names=sorted(schema.classes),
        output_names=_closure_names(full, [target] + list(t.class_names())),
    )


def ldm_intersection(schema: Schema, left: str, right: str, target: str) -> Program:
    """Q := objects of P1 whose value also occurs (by value) in P2."""
    t = _binary_setup(schema, left, right, target)
    full = schema.with_names(classes={target: t})
    full = _map_relation(full, f"_map_{target}", left, target)

    def witness(w, x):
        y = Var("y", classref(right))
        return [Membership(NameTerm(right), y), Equality(y.hat(), w)]

    stage1 = [_by_value_rule(full, f"_map_{target}", left, target, t, witness)]
    stage2 = list(_transfer_rules(full, f"_map_{target}", left, target, t))
    return Program(
        full,
        stages=[stage1, stage2],
        input_names=sorted(schema.classes),
        output_names=_closure_names(full, [target] + list(t.class_names())),
    )


def ldm_difference(schema: Schema, left: str, right: str, target: str) -> Program:
    """Q := objects of P1 whose value occurs in no P2 object.

    Needs negation over a *completed* auxiliary: stage 1 marks the P1
    objects with a by-value witness in P2; stage 2 inventss targets for the
    unmarked ones; stage 3 transfers values.
    """
    t = _binary_setup(schema, left, right, target)
    full = schema.with_names(classes={target: t})
    full = _map_relation(full, f"_map_{target}", left, target)
    full = full.with_names(relations={f"_hit_{target}": tuple_of(src=classref(left))})

    x = Var("x", classref(left))
    y = Var("y", classref(right))
    q = Var("q", classref(target))
    w = Var("w", t)
    stage1 = [
        Rule(
            Membership(NameTerm(f"_hit_{target}"), TupleTerm(src=x)),
            [
                Membership(NameTerm(left), x),
                Equality(x.hat(), w),
                Membership(NameTerm(right), y),
                Equality(y.hat(), w),
            ],
            label=f"ldm-diff-hits:{target}",
        )
    ]
    stage2 = [
        Rule(
            Membership(NameTerm(f"_map_{target}"), TupleTerm(src=x, dst=q)),
            [
                Membership(NameTerm(left), x),
                Membership(NameTerm(f"_hit_{target}"), TupleTerm(src=x), positive=False),
            ],
            label=f"ldm-diff-invent:{target}",
        )
    ]
    stage3 = list(_transfer_rules(full, f"_map_{target}", left, target, t))
    return Program(
        full,
        stages=[stage1, stage2, stage3],
        input_names=sorted(schema.classes),
        output_names=_closure_names(full, [target] + list(t.class_names())),
    )


def ldm_product(schema: Schema, left: str, right: str, target: str) -> Program:
    """Q := P1 × P2: T(Q) = [f1: P1, f2: P2], one new object per pair."""
    for name in (left, right):
        if name not in schema.classes:
            raise SchemaError(f"unknown class {name!r}")
    t = tuple_of(f1=classref(left), f2=classref(right))
    full = schema.with_names(classes={target: t})
    full = full.with_names(
        relations={
            f"_map_{target}": tuple_of(
                l=classref(left), r=classref(right), dst=classref(target)
            )
        }
    )
    x = Var("x", classref(left))
    y = Var("y", classref(right))
    q = Var("q", classref(target))
    stage1 = [
        Rule(
            Membership(NameTerm(f"_map_{target}"), TupleTerm(l=x, r=y, dst=q)),
            [Membership(NameTerm(left), x), Membership(NameTerm(right), y)],
            label=f"ldm-product-invent:{target}",
        )
    ]
    stage2 = [
        Rule(
            Equality(q.hat(), TupleTerm(f1=x, f2=y)),
            [Membership(NameTerm(f"_map_{target}"), TupleTerm(l=x, r=y, dst=q))],
            label=f"ldm-product-assign:{target}",
        )
    ]
    return Program(
        full,
        stages=[stage1, stage2],
        input_names=sorted(schema.classes),
        output_names=_closure_names(full, [target, left, right]),
    )


def ldm_projection(schema: Schema, source: str, component: str, target: str) -> Program:
    """Q := fresh copies of the ``component`` objects of a product-typed P."""
    t = schema.classes.get(source)
    if not isinstance(t, TupleOf) or component not in t.attributes:
        raise SchemaError(f"{source!r} is not a product with component {component!r}")
    comp_type = t.component(component)
    if not isinstance(comp_type, ClassRef):
        raise SchemaError(f"component {component!r} is not class-valued")
    inner = comp_type.name
    inner_type = schema.classes[inner]
    full = schema.with_names(classes={target: inner_type})
    full = _map_relation(full, f"_map_{target}", inner, target)

    x = Var("x", classref(source))
    c = Var("c", comp_type)
    q = Var("q", classref(target))
    pattern = {attr: Var(f"v_{attr}", t.component(attr)) for attr in t.attributes}
    pattern[component] = c
    stage1 = [
        Rule(
            Membership(NameTerm(f"_map_{target}"), TupleTerm(src=c, dst=q)),
            [Membership(NameTerm(source), x), Equality(x.hat(), TupleTerm(pattern))],
            label=f"ldm-project-invent:{target}",
        )
    ]
    stage2 = list(_transfer_rules(full, f"_map_{target}", inner, target, inner_type))
    return Program(
        full,
        stages=[stage1, stage2],
        input_names=sorted(schema.classes),
        output_names=_closure_names(full, [target] + list(inner_type.class_names())),
    )


def ldm_selection(schema: Schema, source: str, left: str, right: str, target: str) -> Program:
    """Q := fresh copies of the P objects whose ``left`` and ``right``
    components hold by-value-equal objects."""
    t = schema.classes.get(source)
    if not isinstance(t, TupleOf) or not {left, right} <= set(t.attributes):
        raise SchemaError(f"{source!r} lacks components {left!r}/{right!r}")
    lt, rt = t.component(left), t.component(right)
    if not (isinstance(lt, ClassRef) and isinstance(rt, ClassRef)):
        raise SchemaError("selection compares class-valued components by value")
    if schema.classes[lt.name] != schema.classes[rt.name]:
        raise SchemaError("compared components must have same-typed classes")
    full = schema.with_names(classes={target: t})
    full = _map_relation(full, f"_map_{target}", source, target)

    x = Var("x", classref(source))
    q = Var("q", classref(target))
    pattern = {attr: Var(f"v_{attr}", t.component(attr)) for attr in t.attributes}
    inner_w = Var("iw", schema.classes[lt.name])
    stage1 = [
        Rule(
            Membership(NameTerm(f"_map_{target}"), TupleTerm(src=x, dst=q)),
            [
                Membership(NameTerm(source), x),
                Equality(x.hat(), TupleTerm(pattern)),
                Equality(Deref_of(pattern[left]), inner_w),
                Equality(Deref_of(pattern[right]), inner_w),
            ],
            label=f"ldm-select-invent:{target}",
        )
    ]
    stage2 = list(_transfer_rules(full, f"_map_{target}", source, target, t))
    return Program(
        full,
        stages=[stage1, stage2],
        input_names=sorted(schema.classes),
        output_names=[target] + sorted(t.class_names() & set(schema.classes)),
    )


def Deref_of(var: Var):
    from repro.iql.terms import Deref

    return Deref(var)
