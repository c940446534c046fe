"""The benchmark's workloads: seeded inputs, timed operations, oracles.

Every workload drives the engine only through the entry points a user
calls -- ``program_from_source`` -> ``check_program`` -> ``repro.io.loads``
-> ``evaluate_full`` or ``MaterializedProgram(...).apply_delta`` -- and
passes no engine switch, so whatever engine those entry points run by
default is the engine measured.

Inputs.  Each workload's graph *shape* comes from a repository generator
called with a fixed generator seed (``graph_seed`` in ``spec.json``);
``--seed`` relabels the nodes, shuffles the document order and, on the
maintenance workloads, draws the update stream.  At these sizes the cost of one
closure query varies about 4x between ``random_graph`` seeds (56-436 ms
at 48 nodes on a 2-CPU host), which would swamp any engine change; a fixed
shape keeps the work per run constant while every seed is still a new
input document.

Oracles run outside the timed region and use no engine code: outputs are
decoded to plain Python pairs and compared with independently computed
answers, up to oid renaming where the program invents oids.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import evaluate_full, io, program_from_source
from repro.iql import MaterializedProgram
from repro.iql.typecheck import check_program
from repro.values import Oid, OSet, OTuple
from repro.workloads import layered_dag, random_graph, transitive_closure

ROOT = Path(__file__).resolve().parent.parent

Edge = Tuple[str, str]

#: Benchmark E19's mixed stage: recursion, a self-join filter, and a (★)
#: assignment that keeps the whole stage out of the semi-naive rewriting
#: unless the engine schedules it stratum by stratum.
E19_SOURCE = """\
schema {
  relation E: [A1: D, A2: D];
  relation T: [A1: D, A2: D];
  relation F: [A1: D, A2: D];
  relation Seed: [A1: P];
  class P: [];
}
var x, y, z: D
var p: P
input E, Seed, P
output T, F, P
rules {
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z).
  F(x, y) :- T(x, y), T(y, x).
  p^ = [] :- Seed(p).
}
"""

#: Example 1.2 / 3.4.1: the graph-to-object encoding.
OBJECTS_PROGRAM = ROOT / "examples" / "graph_objects.iql"


# -- inputs --------------------------------------------------------------------------


def _relabel(edges: Set[Edge], rng: random.Random, rename) -> List[Edge]:
    """Apply ``rename`` to every endpoint, in a seeded document order."""
    out = sorted((rename(a), rename(b)) for a, b in edges)
    rng.shuffle(out)
    return out


def _permuted_names(nodes: Iterable[str], rng: random.Random, prefix: str) -> Dict[str, str]:
    ordered = sorted(nodes)
    slots = list(range(len(ordered)))
    rng.shuffle(slots)
    return {name: f"{prefix}{slot:04d}" for name, slot in zip(ordered, slots)}


def graph_document(edges: List[Edge], relation: str, objects: int = 0) -> str:
    """The input JSON document (``repro.io`` format) of an edge relation,
    plus ``objects`` P-oids listed in ``Seed`` when asked for."""
    doc: dict = {
        "schema": {"relations": {relation: "[A1: D, A2: D]"}, "classes": {}},
        "relations": {relation: [{"tuple": {"A1": a, "A2": b}} for a, b in edges]},
        "classes": {},
        "nu": {},
    }
    if objects:
        names = [f"p{k}" for k in range(objects)]
        doc["schema"]["relations"]["Seed"] = "[A1: P]"
        doc["schema"]["classes"]["P"] = "[]"
        doc["classes"]["P"] = names
        doc["relations"]["Seed"] = [{"tuple": {"A1": {"oid": n}}} for n in names]
    return json.dumps(doc)


def load(source: str, document: str, tracer):
    """Parse, type-check and load, as ``repro run`` does; one span each."""
    with tracer.span("parser.parse"):
        program = program_from_source(source)
    with tracer.span("typecheck.check"):
        errors = check_program(program)
    if errors:
        raise errors[0]
    with tracer.span("io.load"):
        instance = io.loads(document).project(program.input_schema)
    return program, instance


# -- oracles -------------------------------------------------------------------------


def pairs(relation) -> Set[Edge]:
    return {(fact["A1"], fact["A2"]) for fact in relation}


def check_closure(instance, expected_t: Set[Edge], objects: int) -> bool:
    """E19's answer: T is the closure, F its symmetric pairs, and every
    P object holds the empty tuple."""
    t = pairs(instance.relations["T"])
    if t != expected_t:
        return False
    if pairs(instance.relations["F"]) != {(a, b) for a, b in t if (b, a) in t}:
        return False
    members = instance.classes["P"]
    return len(members) == objects and all(
        instance.nu.get(o) == OTuple() for o in members
    )


def check_objects(output, edges: Set[Edge]) -> bool:
    """Decode Example 1.2's objects back to an edge set.

    Each P object is ``[A1: node, A2: {successor P oids}]``: the A1 values
    must name every node exactly once, and following A2 must give back
    exactly the input edges. Only the oid-to-node map matters, so the
    check holds up to oid renaming.
    """
    node_of: Dict[Oid, str] = {}
    for oid in output.classes["P"]:
        value = output.nu.get(oid)
        if not isinstance(value, OTuple) or not isinstance(value.get("A2"), OSet):
            return False
        node_of[oid] = value["A1"]
    nodes = {n for edge in edges for n in edge}
    if len(node_of) != len(nodes) or set(node_of.values()) != nodes:
        return False
    decoded: Set[Edge] = set()
    for oid, node in node_of.items():
        for successor in output.nu[oid]["A2"]:
            if successor not in node_of:
                return False
            decoded.add((node, node_of[successor]))
    return decoded == edges


# -- query workloads -----------------------------------------------------------------


class QueryWorkload:
    """``closure`` and ``objects``: each operation is one ``evaluate_full``
    on a fresh copy of the loaded input, with the parsed program held
    across operations."""

    def __init__(self, name: str, params: dict, seed: int):
        self.name = name
        self.params = params
        rng = random.Random(seed)
        shape = random_graph(
            params["nodes"], params["average_degree"], seed=params["graph_seed"]
        )
        names = _permuted_names({n for e in shape for n in e}, rng, "v")
        edges = _relabel(shape, rng, names.__getitem__)
        self.edges = set(edges)
        if name == "closure":
            self.source = E19_SOURCE
            self.document = graph_document(edges, "E", params["objects"])
            self.expected = transitive_closure(self.edges)
        else:
            self.source = OBJECTS_PROGRAM.read_text(encoding="utf-8")
            self.document = graph_document(edges, "R")
        self.program = None
        self.instance = None

    def setup(self, tracer):
        """Source text and input JSON to a ready engine that has answered
        its first query; returns that answer, for :meth:`check`."""
        self.program, self.instance = load(self.source, self.document, tracer)
        with tracer.span("evaluator.run"):
            return evaluate_full(self.program, self.instance.copy())

    def check(self, result) -> bool:
        if self.name == "closure":
            return check_closure(result.output, self.expected, self.params["objects"])
        return check_objects(result.output, self.edges)


# -- the maintenance workload --------------------------------------------------------


class MaintainWorkload:
    """``maintain_delete`` and ``maintain_insert``: a live E19 fixpoint
    over a layered DAG, updated by single-fact batches that alternate
    deleting an edge and inserting a new forward edge from the same
    source (:meth:`next_update`), so |E| and every out-degree stay
    stationary. Both workloads run the same stream for the same seed; one
    operation is one delete batch followed by one insert batch, and the
    workload's name says which of the two batches its latency times."""

    def __init__(self, name: str, params: dict, seed: int):
        self.name = name
        self.timed = name.rsplit("_", 1)[1]
        self.params = params
        self.layers = params["layers"]
        self.width = params["width"]
        rng = random.Random(seed)
        # Relabel within each layer, so a forward edge stays layer l -> l+1.
        perms = []
        for _ in range(self.layers):
            slots = list(range(self.width))
            rng.shuffle(slots)
            perms.append(slots)

        def rename(node: str) -> str:
            layer, index = node[1:].split("_")
            return f"l{layer}_{perms[int(layer)][int(index)]}"

        shape = layered_dag(self.layers, self.width, seed=params["graph_seed"])
        edges = _relabel(shape, rng, rename)
        self.initial = set(edges)
        self.live: Set[Edge] = set(edges)
        self.document = graph_document(edges, "E", params["objects"])
        self.stream = random.Random(rng.randrange(2**32))
        #: The update that restores the input graph, pending after every
        #: other operation.
        self.undo: Optional[Tuple[Edge, Edge]] = None
        self.program = None
        self.instance = None
        self.mp: Optional[MaterializedProgram] = None

    def setup(self, tracer) -> MaterializedProgram:
        """Source text and input JSON to a live materialization; returns
        it, for :meth:`check`."""
        self.program, self.instance = load(E19_SOURCE, self.document, tracer)
        self.live = set(self.initial)
        self.undo = None
        with tracer.span("ivm.materialize"):
            self.mp = MaterializedProgram(self.program, self.instance)
        return self.mp

    def next_update(self) -> Tuple[Edge, Edge]:
        """The next operation's deleted and inserted edge.

        Every other operation deletes a random edge of the input graph and
        inserts a random new forward edge from the same source; the
        operation after it takes the new edge out again and puts the
        deleted one back. The live graph is the input graph after every
        second operation, so the cost of an operation does not drift with
        the number of operations run, and every seed's stream draws from
        the same graph up to renaming."""
        if self.undo is not None:
            update, self.undo = self.undo, None
        else:
            gone = self.stream.choice(sorted(self.live))
            layer = int(gone[0][1:].split("_")[0])
            new = gone
            while new in self.live:
                new = (gone[0], f"l{layer + 1}_{self.stream.randrange(self.width)}")
            update, self.undo = (gone, new), (new, gone)
        self.live.discard(update[0])
        self.live.add(update[1])
        return update

    @staticmethod
    def fact(edge: Edge) -> Tuple[str, OTuple]:
        return ("E", OTuple(A1=edge[0], A2=edge[1]))

    def check(self, mp: MaterializedProgram) -> bool:
        """The live T/F against the plain-Python closure of the current
        edge set."""
        return check_closure(
            mp.instance, transitive_closure(self.live), self.params["objects"]
        )

    def check_live(self) -> bool:
        return self.check(self.mp)

    def check_final(self) -> bool:
        """The live fixpoint against a fresh evaluation of the maintained
        base input, and the base against the edges the stream left."""
        if pairs(self.mp.base.relations["E"]) != self.live:
            return False
        fresh = evaluate_full(self.program, self.mp.base.copy()).full
        return all(
            fresh.relations[name] == self.mp.instance.relations[name]
            for name in ("T", "F")
        ) and self.check_live()


def make(name: str, params: dict, seed: int):
    if name.startswith("maintain_"):
        return MaintainWorkload(name, params, seed)
    return QueryWorkload(name, params, seed)
