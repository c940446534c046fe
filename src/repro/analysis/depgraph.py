"""Per-stage dependency graphs, SCC strata, and the certified schedule.

For each stage this module builds the polarity-labelled predicate
dependency graph over the symbols of :mod:`repro.analysis.effects`
(relation names, class extents ``P``, value planes ``^P``): a *dependency
edge* runs from every symbol a rule reads to every symbol it writes,
labelled by how the read is observed (monotone-enabling vs
negation/snapshot), and *coupling edges* tie together the symbols one
rule writes simultaneously (its head symbol and its invention targets),
because no schedule can separate their growth.

The SCC condensation of that graph, in topological order, yields the
stage's *strata*: each rule belongs to the SCC of its writes (coupling
makes that unique), and solving one inflationary fixpoint per stratum in
order is equivalent to the paper's single fixpoint over the whole stage —
*provided* the stage is free of the order-sensitive constructs the
inflationary semantics exposes. :func:`compute_schedule` certifies
exactly that, falling back to the monolithic fixpoint (per stage) when:

* a rule deletes (IQL*) or chooses (IQL+) — both observe global state,
* a rule's variables are not range-restricted — evaluation may enumerate
  type interpretations over ``constants(I)``, which any write grows,
* negation occurs inside a recursive SCC (``IQL601`` — the stage is not
  stratified, so the reader and writer cannot be ordered),
* a negation or snapshot read observes *any* stage-written symbol — under
  inflationary semantics a rule may fire off an early partial state and
  keep the fact, which a stratified run would never derive,
* a (★) weak-assignment rule reads a stage-written symbol — whether an
  assignment sticks depends on which step derived it, so firing times
  must not be re-arranged.

An SCC is *recursive* when a dependency edge (not merely a coupling edge)
connects two of its members — every edge inside an SCC lies on a cycle,
so this is exactly "some rule's output feeds its own input".

The diagnostics (``IQL601``–``IQL604``) and the schedule both derive
from the same :class:`StageGraph`, which is what makes the schedule a
*certificate*: the production :class:`~repro.iql.evaluator.Evaluator`
optimizes exactly the stages the analysis proves re-orderable, and runs
the monolithic fixpoint everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.effects import (
    RuleEffects,
    is_plane,
    plane,
    rule_effects,
)
from repro.diagnostics import Diagnostic, diagnostic
from repro.iql.program import Program
from repro.iql.rules import Rule
from repro.iql.sublanguages import is_range_restricted
from repro.schema.schema import Schema


@dataclass(frozen=True)
class DepEdge:
    """One edge of a stage graph. ``positive`` is the read polarity
    (False for negation/snapshot reads); ``coupling`` marks write-write
    ties, which carry no polarity of their own."""

    src: str
    dst: str
    positive: bool
    coupling: bool = False

    def to_json(self) -> dict:
        kind = "coupling" if self.coupling else ("positive" if self.positive else "negative")
        return {"src": self.src, "dst": self.dst, "kind": kind}


@dataclass
class StageGraph:
    """The dependency structure of one stage, fully condensed."""

    index: int  # 0-based stage index
    rules: Tuple[Rule, ...]
    effects: Tuple[RuleEffects, ...]
    nodes: Tuple[str, ...]
    edges: Tuple[DepEdge, ...]
    sccs: Tuple[Tuple[str, ...], ...]  # topological order, members sorted
    scc_of: Dict[str, int]
    recursive: Tuple[bool, ...]  # SCC has an internal dependency edge
    negative_recursive: Tuple[bool, ...]  # ... a negative one (IQL601)
    rule_scc: Tuple[int, ...]  # rule index -> SCC index of its writes
    strata: Tuple[Tuple[int, ...], ...]  # rule indexes per rule-bearing SCC

    @property
    def writes(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for eff in self.effects:
            if not eff.is_delete:
                out |= eff.writes
        return frozenset(out)

    def strata_rules(self) -> List[List[Rule]]:
        return [[self.rules[i] for i in stratum] for stratum in self.strata]

    def to_json(self) -> dict:
        return {
            "stage": self.index + 1,
            "nodes": list(self.nodes),
            "edges": [e.to_json() for e in sorted(
                self.edges, key=lambda e: (e.src, e.dst, e.coupling, not e.positive)
            )],
            "sccs": [
                {
                    "members": list(scc),
                    "recursive": self.recursive[i],
                    "negative_recursive": self.negative_recursive[i],
                }
                for i, scc in enumerate(self.sccs)
            ],
            "strata": [
                [self.rules[i].display_label() for i in stratum]
                for stratum in self.strata
            ],
            "effects": [eff.to_json() for eff in self.effects],
        }


def _tarjan(nodes: Sequence[str], successors: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan: SCCs in *reverse* topological order."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = sorted(successors.get(node, ()))
            for next_index in range(child_index, len(succs)):
                succ = succs[next_index]
                if succ not in index_of:
                    work.append((node, next_index + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def stage_graph(
    rules: Sequence[Rule], schema: Optional[Schema] = None, index: int = 0
) -> StageGraph:
    """Build the condensed dependency graph of one stage."""
    rules = tuple(rules)
    effects = tuple(rule_effects(rule, schema) for rule in rules)

    nodes: Set[str] = set()
    dep_edges: Dict[Tuple[str, str], bool] = {}  # (src, dst) -> all-positive?
    coupling: Set[Tuple[str, str]] = set()
    for eff in effects:
        nodes |= eff.reads | eff.writes
        for dst in eff.writes:
            for src in eff.positive_reads:
                dep_edges.setdefault((src, dst), True)
            for src in eff.nonmonotone_reads:
                dep_edges[(src, dst)] = False
        writes = sorted(eff.writes)
        for i, a in enumerate(writes):
            for b in writes[i + 1:]:
                coupling.add((a, b))
                coupling.add((b, a))

    successors: Dict[str, Set[str]] = {node: set() for node in nodes}
    for src, dst in dep_edges:
        successors[src].add(dst)
    for src, dst in coupling:
        successors[src].add(dst)

    sccs = [tuple(c) for c in reversed(_tarjan(sorted(nodes), successors))]
    scc_of = {node: i for i, scc in enumerate(sccs) for node in scc}

    recursive = [False] * len(sccs)
    negative_recursive = [False] * len(sccs)
    for (src, dst), positive in dep_edges.items():
        if scc_of[src] == scc_of[dst]:
            recursive[scc_of[src]] = True
            if not positive:
                negative_recursive[scc_of[src]] = True

    rule_scc: List[int] = []
    for eff in effects:
        owners = {scc_of[w] for w in eff.writes}
        # Coupling edges merge all of a rule's writes into one SCC.
        assert len(owners) == 1, f"rule writes span SCCs: {sorted(eff.writes)}"
        rule_scc.append(owners.pop())
    strata = tuple(
        tuple(r for r, owner in enumerate(rule_scc) if owner == i)
        for i in range(len(sccs))
        if any(owner == i for owner in rule_scc)
    )

    edges = tuple(
        [DepEdge(src, dst, positive) for (src, dst), positive in dep_edges.items()]
        + [DepEdge(src, dst, True, coupling=True) for src, dst in coupling]
    )
    return StageGraph(
        index=index,
        rules=rules,
        effects=effects,
        nodes=tuple(sorted(nodes)),
        edges=edges,
        sccs=tuple(sccs),
        scc_of=scc_of,
        recursive=tuple(recursive),
        negative_recursive=tuple(negative_recursive),
        rule_scc=tuple(rule_scc),
        strata=strata,
    )


def program_graphs(program: Program, schema: Optional[Schema] = None) -> List[StageGraph]:
    """One :class:`StageGraph` per stage of ``program``."""
    schema = schema if schema is not None else program.schema
    return [
        stage_graph(stage, schema, index)
        for index, stage in enumerate(program.stages)
    ]


# -- the IQL6xx dataflow pass -------------------------------------------------------


def depgraph_pass(
    program: Program,
    schema: Optional[Schema] = None,
    graphs: Optional[List[StageGraph]] = None,
) -> List[Diagnostic]:
    """Dataflow diagnostics over the per-stage dependency graphs.

    * ``IQL601`` — negation inside a recursive SCC: the stage cannot be
      stratified, so the scheduled engine must fall back,
    * ``IQL602`` — a rule gated on a symbol that is empty at stage entry
      and written by no (transitively live) rule: it can never fire,
    * ``IQL603`` — oid invention inside a recursive SCC: creation can
      feed its own enabling condition (the Section 5 divergence),
    * ``IQL604`` — invention confined to non-recursive SCCs: the number
      of invented oids is polynomial in the stage's input (info).
    """
    schema = schema if schema is not None else program.schema
    if graphs is None:
        graphs = program_graphs(program, schema)
    out: List[Diagnostic] = []

    available: Set[str] = set()
    for name in program.input_names:
        available.add(name)
        if schema.is_class(name):
            available.add(plane(name))

    for graph in graphs:
        stage_no = graph.index + 1

        # IQL601: a negative dependency edge inside an SCC.
        for scc_index, scc in enumerate(graph.sccs):
            if not graph.negative_recursive[scc_index]:
                continue
            witness = next(
                (
                    graph.rules[r]
                    for r, eff in enumerate(graph.effects)
                    if graph.rule_scc[r] == scc_index
                    and eff.nonmonotone_reads & set(scc)
                ),
                graph.rules[0],
            )
            out.append(
                diagnostic(
                    "IQL601",
                    f"stage {stage_no} reads {{{', '.join(scc)}}} under negation "
                    f"inside the same recursive SCC; the stage is not stratified "
                    f"and only the monolithic fixpoint is sound",
                    span=witness.span,
                    rule_label=witness.display_label(),
                )
            )

        # IQL602: liveness fixpoint — a rule is live when every gating
        # read is available (input, written earlier, or written by a live
        # rule of this stage).
        live: Set[int] = set()
        live_writes: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for r, eff in enumerate(graph.effects):
                if r in live:
                    continue
                if eff.gating_reads <= available | live_writes:
                    live.add(r)
                    if not eff.is_delete:
                        live_writes |= eff.writes
                    changed = True
        for r, eff in enumerate(graph.effects):
            if r in live:
                continue
            missing = sorted(eff.gating_reads - available - live_writes)
            rule = graph.rules[r]
            out.append(
                diagnostic(
                    "IQL602",
                    f"rule can never fire: {', '.join(missing)} "
                    f"{'is' if len(missing) == 1 else 'are'} empty at stage "
                    f"{stage_no} entry and written by no earlier rule",
                    span=rule.span,
                    rule_label=rule.display_label(),
                )
            )
        available |= live_writes

        # IQL603 / IQL604: where does invention sit relative to recursion?
        inventors = [
            r for r, eff in enumerate(graph.effects) if eff.invention_classes
        ]
        recursive_inventors = [
            r for r in inventors if graph.recursive[graph.rule_scc[r]]
        ]
        for r in recursive_inventors:
            rule, eff = graph.rules[r], graph.effects[r]
            scc = graph.sccs[graph.rule_scc[r]]
            out.append(
                diagnostic(
                    "IQL603",
                    f"stage {stage_no} invents oids (into "
                    f"{', '.join(sorted(eff.invention_classes))}) inside the "
                    f"recursive SCC {{{', '.join(scc)}}}; oid creation can "
                    f"re-enable itself and the fixpoint may diverge",
                    span=rule.span,
                    rule_label=rule.display_label(),
                )
            )
        if inventors and not recursive_inventors:
            degree = max(
                sum(1 for lit in graph.rules[r].body if lit.positive)
                for r in inventors
            )
            bound = f"O(n^{degree})" if degree else "O(1)"
            out.append(
                diagnostic(
                    "IQL604",
                    f"stage {stage_no} invention is recursion-free: every "
                    f"inventing rule sits outside the recursive SCCs, so it "
                    f"fires at most once per body valuation and invents "
                    f"{bound} oids in the size of the stage input",
                )
            )
    return out


# -- the certified schedule ---------------------------------------------------------


@dataclass(frozen=True)
class StageSchedule:
    """How the evaluator should run one stage: SCC strata in topological
    order, or ``None`` with the reason the monolithic fixpoint is
    required."""

    index: int
    strata: Optional[Tuple[Tuple[Rule, ...], ...]]
    fallback_reason: Optional[str] = None

    @property
    def scheduled(self) -> bool:
        return self.strata is not None

    def to_json(self) -> dict:
        if self.strata is not None:
            return {
                "stage": self.index + 1,
                "strata": [len(stratum) for stratum in self.strata],
            }
        return {"stage": self.index + 1, "fallback": self.fallback_reason}


@dataclass(frozen=True)
class Schedule:
    """The full program schedule, one entry per stage."""

    stages: Tuple[StageSchedule, ...]

    @property
    def fully_scheduled(self) -> bool:
        return all(stage.scheduled for stage in self.stages)

    @property
    def stratum_count(self) -> int:
        return sum(len(s.strata) for s in self.stages if s.strata is not None)

    def to_json(self) -> List[dict]:
        return [stage.to_json() for stage in self.stages]


def _stage_fallback(graph: StageGraph) -> Optional[str]:
    """Why this stage must run as one monolithic fixpoint, or ``None``."""
    for eff in graph.effects:
        if eff.is_delete:
            return "IQL* deletion: steps are not monotone"
        if eff.has_choose:
            return "IQL+ choose observes the whole instance (genericity)"
    for rule in graph.rules:
        if not is_range_restricted(rule):
            return (
                "a rule may enumerate type interpretations over constants(I), "
                "which every stage write grows"
            )
    for scc_index, scc in enumerate(graph.sccs):
        if graph.negative_recursive[scc_index]:
            return f"IQL601: negation inside the recursive SCC {{{', '.join(scc)}}}"
    stage_writes = graph.writes
    for r_index, eff in enumerate(graph.effects):
        hazardous = eff.nonmonotone_reads & stage_writes
        if hazardous:
            return (
                f"non-monotone read of stage-written "
                f"{', '.join(sorted(hazardous))}: inflationary firings are "
                f"order-sensitive"
            )
        if eff.is_assignment and eff.reads & stage_writes:
            return (
                "a weak-assignment (★) rule reads stage-written symbols: "
                "whether an assignment sticks depends on firing times"
            )
        if eff.invention_classes:
            # The valuation-domain blocking condition of an inventing rule
            # is a negated existential read of its head symbol: how many
            # oids it invents depends on *when* each body valuation first
            # becomes enabled relative to the head's growth. Timing is
            # schedule-invariant only when the rule's enablement is fixed
            # for the whole stage and nothing else grows its head.
            if eff.reads & stage_writes:
                return (
                    f"oid-inventing rule reads stage-written "
                    f"{', '.join(sorted(eff.reads & stage_writes))}: its "
                    f"blocking condition makes invention counts depend on "
                    f"firing times"
                )
            for o_index, other in enumerate(graph.effects):
                if (
                    o_index != r_index
                    and not other.is_delete
                    and other.writes & eff.writes
                ):
                    return (
                        f"{', '.join(sorted(other.writes & eff.writes))} is "
                        f"written both by an oid-inventing rule and by "
                        f"another rule: the inventing rule's blocking "
                        f"condition is order-sensitive"
                    )
    return None


def compute_schedule(program: Program, schema: Optional[Schema] = None) -> Schedule:
    """Certify a per-stage schedule for ``program``.

    Each schedulable stage is decomposed into its SCC strata; every other
    stage carries the reason it must stay monolithic. The scheduled run
    is equivalent to the monolithic one by construction: strata only
    re-order firings whose enabling reads are proved monotone.
    """
    schema = schema if schema is not None else program.schema
    stages: List[StageSchedule] = []
    for graph in program_graphs(program, schema):
        reason = _stage_fallback(graph)
        if reason is not None:
            stages.append(StageSchedule(graph.index, None, reason))
        else:
            stages.append(
                StageSchedule(
                    graph.index,
                    tuple(tuple(stratum) for stratum in graph.strata_rules()),
                )
            )
    return Schedule(tuple(stages))


# -- renderings ---------------------------------------------------------------------


def render_graphs_text(
    graphs: Sequence[StageGraph], schedule: Optional[Schedule] = None
) -> str:
    """The ``repro analyze`` text listing: per stage, the graph, its
    condensation, the strata, and every rule's effect summary."""
    lines: List[str] = []
    for graph in graphs:
        lines.append(f"stage {graph.index + 1}:")
        dep = sorted(
            (e for e in graph.edges if not e.coupling), key=lambda e: (e.src, e.dst)
        )
        lines.append(f"  symbols: {', '.join(graph.nodes)}")
        for edge in dep:
            arrow = "→" if edge.positive else "−→"  # negated/snapshot reads
            lines.append(f"    {edge.src} {arrow} {edge.dst}")
        for i, scc in enumerate(graph.sccs):
            mark = ""
            if graph.negative_recursive[i]:
                mark = "  [recursive, negated]"
            elif graph.recursive[i]:
                mark = "  [recursive]"
            lines.append(f"  scc {i + 1}: {{{', '.join(scc)}}}{mark}")
        for i, stratum in enumerate(graph.strata):
            labels = [graph.rules[r].display_label() for r in stratum]
            lines.append(f"  stratum {i + 1}: {'; '.join(labels)}")
        for r, eff in enumerate(graph.effects):
            lines.append(f"  rule {graph.rules[r].display_label()}")
            lines.append(f"    {eff.summary()}")
        if schedule is not None:
            stage_schedule = schedule.stages[graph.index]
            if stage_schedule.strata is not None:
                lines.append(
                    f"  schedule: {len(stage_schedule.strata)} "
                    f"stratum/strata (certified)"
                )
            else:
                lines.append(
                    f"  schedule: monolithic fallback — {stage_schedule.fallback_reason}"
                )
    return "\n".join(lines)


def graphs_to_dot(graphs: Sequence[StageGraph]) -> str:
    """GraphViz DOT output: one cluster per stage, dashed red edges for
    negation/snapshot reads, dotted edges for write couplings, doubled
    borders on recursive-SCC members."""
    lines = ["digraph depgraph {", "  rankdir=LR;", "  node [shape=box];"]
    for graph in graphs:
        prefix = f"s{graph.index}_"

        def node_id(symbol: str, prefix: str = prefix) -> str:
            return prefix + symbol.replace("^", "hat_")

        lines.append(f"  subgraph cluster_stage{graph.index + 1} {{")
        lines.append(f'    label="stage {graph.index + 1}";')
        for symbol in graph.nodes:
            scc_index = graph.scc_of[symbol]
            attrs = [f'label="{symbol}"']
            if graph.recursive[scc_index]:
                attrs.append("peripheries=2")
            if is_plane(symbol):
                attrs.append("style=rounded")
            lines.append(f"    {node_id(symbol)} [{', '.join(attrs)}];")
        for edge in sorted(
            graph.edges, key=lambda e: (e.coupling, e.src, e.dst)
        ):
            attrs = []
            if edge.coupling:
                attrs.append("style=dotted")
                attrs.append("dir=none")
            elif not edge.positive:
                attrs.append("style=dashed")
                attrs.append("color=red")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f"    {node_id(edge.src)} -> {node_id(edge.dst)}{suffix};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
