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
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.errors import InstanceError, OValueError, SchemaError
from repro.parser.grammar import type_from_source
from repro.schema.instance import Instance
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


def value_from_json(doc, oids: Dict[str, Oid]) -> OValue:
    if isinstance(doc, dict):
        if set(doc) == {"oid"}:
            name = doc["oid"]
            if name not in oids:
                raise OValueError(f"value references undeclared oid {name!r}")
            return oids[name]
        if set(doc) == {"tuple"}:
            return OTuple({attr: value_from_json(v, oids) for attr, v in doc["tuple"].items()})
        if set(doc) == {"set"}:
            return OSet(value_from_json(v, oids) for v in doc["set"])
        raise OValueError(f"unrecognized value document: {doc!r}")
    if is_constant(doc):
        return doc
    raise OValueError(f"unrecognized value document: {doc!r}")


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
    classes = doc.get("classes", {})
    class_names = list(classes)
    return Schema(
        relations={
            name: type_from_source(src, class_names)
            for name, src in doc.get("relations", {}).items()
        },
        classes={
            name: type_from_source(src, class_names) for name, src in classes.items()
        },
    )


def instance_from_dict(doc: dict, schema: Optional[Schema] = None) -> Instance:
    if schema is None:
        if "schema" not in doc:
            raise SchemaError("instance document has no schema and none was supplied")
        schema = schema_from_dict(doc["schema"])
    oids: Dict[str, Oid] = {}
    instance = Instance(schema)
    for class_name, members in doc.get("classes", {}).items():
        for wire_name in members:
            oid = oids.setdefault(wire_name, Oid(wire_name.split("#")[0]))
            instance.add_class_member(class_name, oid)
    for wire_name, value_doc in doc.get("nu", {}).items():
        if wire_name not in oids:
            raise SchemaError(f"ν defined for undeclared oid {wire_name!r}")
        instance.assign(oids[wire_name], value_from_json(value_doc, oids))
    for relation, values in doc.get("relations", {}).items():
        for value_doc in values:
            instance.add_relation_member(relation, value_from_json(value_doc, oids))
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
    return instance_from_dict(doc, schema)


def dump(instance: Instance, path: str, indent: int = 2) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(instance, indent))


def load(path: str, schema: Optional[Schema] = None) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), schema)
