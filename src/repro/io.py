"""JSON (de)serialization of schemas and instances.

O-values are structural but contain oids, which JSON has no native notion
of; the wire format tags every non-scalar:

* constants — JSON scalars (strings, numbers, booleans),
* oids — ``{"oid": "<name>"}`` where the name is unique within the
  document (display names are preserved when unique, synthesized
  otherwise),
* tuples — ``{"tuple": {attr: value, ...}}``,
* sets — ``{"set": [value, ...]}``.

An instance document carries the schema (types rendered in the surface
syntax of :mod:`repro.parser`), the class extents, ν, and the relations::

    {
      "schema": {"relations": {"R": "[A1: D, A2: D]"}, "classes": {...}},
      "relations": {"R": [ ... o-values ... ]},
      "classes": {"P": ["o1", "o2"]},
      "nu": {"o1": ... o-value ...}
    }

Round-trip: ``loads(dumps(instance))`` is equal to the instance up to
renaming of oids (fresh :class:`~repro.values.Oid` objects are minted on
load — oid identity is process-local, exactly as the model prescribes).

A malformed document fails with a :mod:`repro.errors` exception: a
:class:`~repro.errors.SchemaError` in its schema part, an
:class:`~repro.errors.OValueError` for an unrecognized value or an
undeclared oid, and an :class:`~repro.errors.InstanceError` otherwise,
naming the relation, class or oid. A document that nests values more
than :data:`MAX_DEPTH` tuples and sets deep, or too deep for the JSON
decoder, fails with one :class:`~repro.errors.InstanceError` message on
every Python version. A member of a flat relation that does not conform
to its type (:mod:`repro.schema.instance`) is rejected here, where it
enters.
"""

from __future__ import annotations

import json
import reprlib
from typing import Dict, Optional

from repro.errors import InstanceError, OValueError, SchemaError
from repro.parser.grammar import type_from_source
from repro.schema.instance import Instance, conforms, flat_shape, nonconforming
from repro.schema.schema import Schema
from repro.typesys.expressions import TypeExpr
from repro.values.ovalues import Oid, OSet, OTuple, OValue, is_constant, sort_key


def _render_type(t: TypeExpr) -> str:
    """Types render through repr, which matches the surface syntax up to
    the ∨/∧ glyphs; translate those to | and &."""
    return repr(t).replace("∨", "|").replace("∧", "&").replace("⊥", "none")


def value_to_json(value: OValue, oid_names: Dict[Oid, str]):
    if isinstance(value, Oid):
        return {"oid": oid_names[value]}
    if isinstance(value, OTuple):
        return {"tuple": {attr: value_to_json(v, oid_names) for attr, v in value.items()}}
    if isinstance(value, OSet):
        ordered = sorted(value, key=sort_key)
        return {"set": [value_to_json(v, oid_names) for v in ordered]}
    if is_constant(value):
        return value
    raise OValueError(f"not an o-value: {value!r}")


#: What each Python type a JSON document decodes to is called in JSON.
_JSON_KINDS = {
    dict: "an object",
    list: "a list",
    str: "a string",
    bool: "a boolean",
    int: "a number",
    float: "a number",
    type(None): "null",
}


def _kind(doc) -> str:
    """What JSON value ``doc`` decoded from, for error messages."""
    return _JSON_KINDS.get(type(doc), type(doc).__name__)


def _expect(doc, kind: type, what: str, error=InstanceError):
    """``doc`` if it is a JSON object (``kind`` dict) or list, else raise
    ``error`` naming ``what``."""
    if not isinstance(doc, kind):
        expected = "an object" if kind is dict else "a list"
        raise error(f"{what} must be {expected}, not {_kind(doc)}")
    return doc


#: How many tuples and sets a value document may nest. A document that
#: nests deeper, or deeper than the JSON decoder can read, fails with
#: :data:`_TOO_DEEP` whatever Python's recursion limit is.
MAX_DEPTH = 100
_TOO_DEEP = "the document nests values too deeply to decode"

#: A bounded repr of a document for error messages: a document nested
#: or sized without bound is shortened, never recursed through.
_short = reprlib.Repr()
_short.maxstring = 80


def value_from_json(doc, oids: Dict[str, Oid], where: str = "a value", depth: int = 0) -> OValue:
    """The o-value of value document ``doc``, whose oids are ``oids``, as
    a member of ``where`` enclosed in ``depth`` tuples and sets.

    Raises :class:`OValueError` for an unrecognized document or an
    undeclared oid, and :class:`InstanceError` for a tuple whose fields
    are not an object or a set whose elements are not a list (naming
    ``where``) and for a document nesting more than :data:`MAX_DEPTH`
    tuples and sets."""
    if isinstance(doc, dict):
        tag, body = next(iter(doc.items())) if len(doc) == 1 else (None, None)
        if tag == "oid":
            if not isinstance(body, str) or body not in oids:
                raise OValueError(f"value references undeclared oid {_short.repr(body)}")
            return oids[body]
        if tag == "tuple" or tag == "set":
            if depth == MAX_DEPTH:
                raise InstanceError(_TOO_DEEP)
            if tag == "tuple":
                fields = _expect(body, dict, f"the fields of a tuple in {where}")
                return OTuple(
                    {attr: value_from_json(v, oids, where, depth + 1) for attr, v in fields.items()}
                )
            elements = _expect(body, list, f"the elements of a set in {where}")
            return OSet(value_from_json(v, oids, where, depth + 1) for v in elements)
    elif is_constant(doc):
        return doc
    raise OValueError(f"unrecognized value document: {_short.repr(doc)}")


def _oid_names(instance: Instance) -> Dict[Oid, str]:
    """Stable unique wire names: the display name when unique, else
    name#serial."""
    by_name: Dict[str, int] = {}
    for oid in sorted(instance.objects(), key=lambda o: o.serial):
        by_name[oid.name or "o"] = by_name.get(oid.name or "o", 0) + 1
    names: Dict[Oid, str] = {}
    for oid in sorted(instance.objects(), key=lambda o: o.serial):
        base = oid.name or "o"
        if by_name[base] == 1:
            names[oid] = base
        else:
            names[oid] = f"{base}#{oid.serial}"
    return names


def instance_to_dict(instance: Instance) -> dict:
    oid_names = _oid_names(instance)
    return {
        "schema": {
            "relations": {
                name: _render_type(t) for name, t in sorted(instance.schema.relations.items())
            },
            "classes": {
                name: _render_type(t) for name, t in sorted(instance.schema.classes.items())
            },
        },
        "relations": {
            name: [
                value_to_json(v, oid_names)
                for v in sorted(members, key=sort_key)
            ]
            for name, members in sorted(instance.relations.items())
        },
        "classes": {
            name: sorted(oid_names[o] for o in oids)
            for name, oids in sorted(instance.classes.items())
        },
        "nu": {
            oid_names[o]: value_to_json(v, oid_names)
            for o, v in sorted(instance.nu.items(), key=lambda kv: kv[0].serial)
        },
    }


def schema_from_dict(doc: dict) -> Schema:
    doc = _expect(doc, dict, "the schema", SchemaError)
    classes = _expect(doc.get("classes", {}), dict, "the schema's classes", SchemaError)
    relations = _expect(doc.get("relations", {}), dict, "the schema's relations", SchemaError)
    class_names = list(classes)

    def parse(kind: str, name: str, src) -> TypeExpr:
        if not isinstance(src, str):
            raise SchemaError(f"the type of {kind} {name!r} must be a string, not {_kind(src)}")
        try:
            return type_from_source(src, class_names)
        except RecursionError:
            raise SchemaError(f"the type of {kind} {name!r} nests too deeply to parse") from None

    return Schema(
        relations={name: parse("relation", name, src) for name, src in relations.items()},
        classes={name: parse("class", name, src) for name, src in classes.items()},
    )


def instance_from_dict(doc: dict, schema: Optional[Schema] = None) -> Instance:
    """The instance an instance document describes (see the module
    docstring for the format and the errors). A member of a flat
    relation that does not conform to its type is rejected with the
    error of :meth:`Instance.add_relation_member`; the members of a flat
    relation are then added with one trusted call, those of any other
    relation one by one through that mutator."""
    doc = _expect(doc, dict, "an instance document")
    if schema is None:
        if "schema" not in doc:
            raise SchemaError("instance document has no schema and none was supplied")
        schema = schema_from_dict(doc["schema"])
    oids: Dict[str, Oid] = {}
    instance = Instance(schema)
    for class_name, members in _expect(doc.get("classes", {}), dict, "classes").items():
        for wire_name in _expect(members, list, f"π({class_name})"):
            if not isinstance(wire_name, str):
                raise InstanceError(f"π({class_name}) lists {_kind(wire_name)}, not an oid name")
            oid = oids.setdefault(wire_name, Oid(wire_name.split("#")[0]))
            instance.add_class_member(class_name, oid)
    for wire_name, value_doc in _expect(doc.get("nu", {}), dict, "ν").items():
        if wire_name not in oids:
            raise SchemaError(f"ν defined for undeclared oid {wire_name!r}")
        instance.assign(oids[wire_name], value_from_json(value_doc, oids, f"ν({wire_name})"))
    for relation, values in _expect(doc.get("relations", {}), dict, "relations").items():
        where = f"ρ({relation})"
        members = [value_from_json(v, oids, where) for v in _expect(values, list, where)]
        t = schema.relations.get(relation)
        shape = flat_shape(t) if t is not None else None
        if shape is None:
            for value in members:
                instance.add_relation_member(relation, value)
            continue
        # The mutator's check, then one trusted insert of the distinct members.
        for value in members:
            if not conforms(value, shape):
                raise nonconforming(relation, value, t)
        instance.add_relation_members(relation, dict.fromkeys(members))
    return instance


def dumps(instance: Instance, indent: int = 2) -> str:
    """Serialize an instance (schema included) to a JSON string."""
    return json.dumps(instance_to_dict(instance), indent=indent, ensure_ascii=False)


def loads(text: str, schema: Optional[Schema] = None) -> Instance:
    """Parse an instance document; fresh oids are minted (renaming is the
    identity of the model, so this loses nothing)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise InstanceError(_TOO_DEEP) from None
    return instance_from_dict(doc, schema)


def dump(instance: Instance, path: str, indent: int = 2) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(instance, indent))


def load(path: str, schema: Optional[Schema] = None) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), schema)
