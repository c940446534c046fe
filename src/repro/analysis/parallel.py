"""Parallel-safety analysis: certified intra-stage concurrency (IQL8xx).

Which rule firings inside a certified stage could run concurrently
without changing the inflationary fixpoint, given invention, weak
assignment (★) and IQL* deletion? This module answers it the way the
maintenance certificates answer incremental maintenance: a static pass
over the per-rule effect summaries (:mod:`repro.analysis.effects`) and
the polarity-labelled dependency graph (:mod:`repro.analysis.depgraph`)
emits a :class:`ParallelCertificate`, rendered by ``repro analyze
--parallel``.

The analysis is a diagnostic: the engine evaluates the paper's serial
fixpoint (Section 3.2) in one process, and nothing executes a
certificate (EXPERIMENTS.md, E22, records why).

Three sources of safe concurrency are certified, per scheduled stage:

* **conflict-free rule groups** within a stratum — rules partitioned by
  read/write and write/write overlap on the stratum's written symbols
  (relations, class extents ``P``, value planes ``^P``). Because a
  stratum *is* one SCC of the dependency graph, its conflict graph is
  connected in all but degenerate programs; conflicts that fuse every
  rule into one unpartitionable group are reported as ``IQL801`` and the
  stratum stays serial,
* **incomparable strata** of the same stage — the SCC condensation is a
  DAG, and two strata with no path between them neither read nor write
  each other's symbols (reads of common ancestors observe extents that
  are complete before either starts), so their fixpoints commute and may
  run on concurrent workers. The certificate records the stratum DAG and
  its topological levels,
* **hash-partitioned delta rounds** of a single rule — a rule in the
  delta-staged fragment (:func:`repro.analysis.effects.delta_body`) with
  at least one relation generator can split each round's delta across
  workers: derivations land in worker-local staging sets merged at the
  round barrier, the blocking read (``value not in existing``) observes
  extents that are frozen within a round, and inflationary semantics
  makes the merge order-insensitive. Invention, weak assignment,
  deletion and choose are *partition hazards* (``IQL802``): their
  firings observe or mutate global state (the oid counter, ν, the
  instance itself) in step order, so the stratum runs serial — and runs
  *exclusively*, never concurrent with a sibling.

``IQL804`` (info) reports the certified concurrency width of each stage:
the most strata, or delta partitions, that the plan lets run at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.depgraph import (
    Schedule,
    StageGraph,
    compute_schedule,
    program_graphs,
)
from repro.analysis.effects import RuleEffects, delta_body, is_plane
from repro.diagnostics import Diagnostic, diagnostic
from repro.iql.program import Program
from repro.iql.rules import Rule
from repro.schema.schema import Schema

# -- fallback taxonomy ---------------------------------------------------------------
#
# Every stratum the certificate refuses to parallelize carries one tag
# (possibly with detail appended after ": "). The plan keeps any tagged
# stratum serial-and-exclusive; the IQL801/802 tags are also diagnostics.

FALLBACK_CONFLICTS = "IQL801 rule conflicts serialize the stratum"
FALLBACK_HAZARD = "IQL802 partition hazard"
FALLBACK_UNSCHEDULED = "unscheduled stage"
FALLBACK_SINGLETON = "single serial unit"  # informational: nothing to split

WRITE_WRITE = "write-write"
READ_WRITE = "read-write"


# -- plan records --------------------------------------------------------------------


@dataclass(frozen=True)
class RuleConflict:
    """One conflicting rule pair of a stratum: the overlap that forces
    both rules into the same group."""

    a: str  # rule labels
    b: str
    kind: str  # WRITE_WRITE | READ_WRITE
    symbols: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "rules": [self.a, self.b],
            "kind": self.kind,
            "symbols": list(self.symbols),
        }


@dataclass(frozen=True)
class PartitionPlan:
    """Hash-partitionability of one rule's delta rounds.

    ``key_variables`` are the variables bound by the delta-driven
    relation generators — the bound join attributes any fact-hash
    partition of the delta keys the rule's writes by. ``reason`` names
    the blocker when the rule is not partitionable.
    """

    rule: str
    partitionable: bool
    delta_positions: Tuple[int, ...]
    key_variables: Tuple[str, ...]
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "partitionable": self.partitionable,
            "delta_positions": list(self.delta_positions),
            "key_variables": list(self.key_variables),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class StratumPlan:
    """The parallel plan of one stratum of one scheduled stage."""

    stage: int  # 0-based stage index
    index: int  # stratum index within the stage (schedule order)
    rules: Tuple[str, ...]  # labels, in stratum order
    writes: Tuple[str, ...]
    reads: Tuple[str, ...]
    groups: Tuple[Tuple[int, ...], ...]  # conflict-free groups of rule indexes
    conflicts: Tuple[RuleConflict, ...]
    partitions: Tuple[PartitionPlan, ...]  # one entry per rule
    depends_on: Tuple[int, ...]  # earlier strata this one reads from
    hazards: Tuple[str, ...]  # IQL802 hazard descriptions, per offending rule
    fallback: Optional[str]  # taxonomy tag, None when parallel-safe
    class_writes: Tuple[str, ...] = ()  # written class extents / ^P planes

    @property
    def parallel_safe(self) -> bool:
        """May this stratum run concurrently with an incomparable sibling?"""
        return self.fallback is None or self.fallback.startswith(FALLBACK_SINGLETON)

    @property
    def partitionable(self) -> bool:
        return self.fallback is None and any(p.partitionable for p in self.partitions)

    def to_json(self) -> dict:
        return {
            "stage": self.stage + 1,
            "stratum": self.index + 1,
            "rules": list(self.rules),
            "writes": list(self.writes),
            "reads": list(self.reads),
            "groups": [list(g) for g in self.groups],
            "conflicts": [c.to_json() for c in self.conflicts],
            "partitions": [p.to_json() for p in self.partitions],
            "depends_on": [d + 1 for d in self.depends_on],
            "hazards": list(self.hazards),
            "fallback": self.fallback,
            "class_writes": list(self.class_writes),
            "parallel_safe": self.parallel_safe,
            "partitionable": self.partitionable,
        }


@dataclass(frozen=True)
class StagePlan:
    """The parallel plan of one stage: its strata, their dependency DAG
    (as topological levels), and the certified concurrency width."""

    index: int
    scheduled: bool
    fallback: Optional[str]  # for unscheduled stages
    strata: Tuple[StratumPlan, ...]
    levels: Tuple[Tuple[int, ...], ...]  # stratum indexes per DAG depth

    @property
    def width(self) -> int:
        """The certified concurrency width: the widest batch of strata
        that may run at once (after the one-class-writer-per-batch
        split), counting a lone partitionable stratum as width ≥ 2 (its
        partition fan-out is bounded by workers and host, not by the
        program)."""
        width = 1
        for batch in concurrent_batches(self):
            width = max(width, len(batch))
            if len(batch) == 1 and self.strata[batch[0]].partitionable:
                width = max(width, 2)
        return width

    def to_json(self) -> dict:
        return {
            "stage": self.index + 1,
            "scheduled": self.scheduled,
            "fallback": self.fallback,
            "strata": [s.to_json() for s in self.strata],
            "levels": [[i + 1 for i in level] for level in self.levels],
            "batches": [[i + 1 for i in batch] for batch in concurrent_batches(self)],
            "width": self.width,
        }


def concurrent_batches(stage: "StagePlan") -> List[Tuple[int, ...]]:
    """The concurrent schedule of a stage: batches of stratum indexes,
    in order; all strata of one batch may run concurrently.

    Derived from the dependency levels with two splits the soundness
    argument requires:

    * a hazard stratum (IQL801/IQL802 fallback) runs in a batch of its
      own — serial *and* exclusive,
    * at most one class-extent/plane-writing stratum per batch: the
      ``_class_of`` disjointness check of ``Instance.add_class_member``
      is check-then-act, so two class writers run side by side against
      separate replicas could each pass a check that serial evaluation
      fails.
    """
    batches: List[Tuple[int, ...]] = []
    for level in stage.levels:
        safe = [i for i in level if stage.strata[i].parallel_safe]
        unsafe = [i for i in level if not stage.strata[i].parallel_safe]
        class_writers = [i for i in safe if stage.strata[i].class_writes]
        plain = [i for i in safe if not stage.strata[i].class_writes]
        if class_writers:
            head, rest = class_writers[0], class_writers[1:]
            if plain or not rest:
                batches.append(tuple(plain + [head]))
            else:
                batches.append((head,))
            batches.extend((i,) for i in rest)
        elif plain:
            batches.append(tuple(plain))
        batches.extend((i,) for i in unsafe)
    return batches


# -- the certificate -----------------------------------------------------------------


@dataclass(frozen=True)
class ParallelCertificate:
    """The whole program's parallel plan: only the per-stratum plans
    marked safe admit concurrency."""

    stages: Tuple[StagePlan, ...]

    @property
    def width(self) -> int:
        """The program's certified concurrency width (max over stages)."""
        return max((s.width for s in self.stages), default=1)

    @property
    def clean(self) -> bool:
        """No IQL801/802 anywhere: every stage scheduled and every stratum
        parallel-safe — the whole program may parallelize."""
        return all(
            stage.scheduled and all(s.fallback is None for s in stage.strata)
            for stage in self.stages
        )

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "width": self.width,
            "stages": [s.to_json() for s in self.stages],
        }


# -- building the plan ---------------------------------------------------------------


def _rule_hazards(eff: RuleEffects) -> List[str]:
    """The IQL802 partition hazards of one rule (empty = hazard-free)."""
    hazards: List[str] = []
    if eff.invention_classes:
        hazards.append(
            f"{eff.rule.display_label()}: invents oids into "
            f"{{{', '.join(sorted(eff.invention_classes))}}} — the shared "
            f"oid factory and the blocking condition are step-ordered"
        )
    if eff.is_assignment:
        hazards.append(
            f"{eff.rule.display_label()}: weak assignment (★) — whether an "
            f"assignment sticks depends on which step derived it"
        )
    if eff.is_delete:
        hazards.append(
            f"{eff.rule.display_label()}: IQL* deletion — steps are not "
            f"monotone, merges are order-sensitive"
        )
    if eff.has_choose:
        hazards.append(
            f"{eff.rule.display_label()}: IQL+ choose observes the whole "
            f"instance (genericity)"
        )
    from repro.iql.sublanguages import is_range_restricted  # noqa: PLC0415

    if not is_range_restricted(eff.rule):
        hazards.append(
            f"{eff.rule.display_label()}: not range-restricted — the "
            f"enumeration fallback reads constants(I) of the whole "
            f"instance, an undeclared read of every symbol"
        )
    return hazards


def _partition_plan(rule: Rule, eff: RuleEffects, schema: Schema) -> PartitionPlan:
    """Decide hash-partitionability of one rule's delta rounds."""
    label = rule.display_label()
    hazards = _rule_hazards(eff)
    if hazards:
        return PartitionPlan(label, False, (), (), reason=hazards[0])
    from repro.iql.seminaive import rule_eligible  # noqa: PLC0415

    if not rule_eligible(rule, schema):
        return PartitionPlan(
            label, False, (), (),
            reason="outside the delta-staged fragment (no round-boundary "
            "staging point to merge at)",
        )
    shape = delta_body(rule, schema)
    assert shape is not None  # rule_eligible implies a fragment shape
    if not shape.relation_positions:
        return PartitionPlan(
            label, False, (), (),
            reason="no relation generator: the rule has no delta to split "
            "(class extents and ν are constant within the stratum)",
        )
    keys: Set[str] = set()
    for literal in shape.relation_generators:
        keys |= {var.name for var in literal.element.variables()}
    return PartitionPlan(
        label,
        True,
        shape.relation_positions,
        tuple(sorted(keys)),
    )


def _conflict_groups(
    effects: Sequence[RuleEffects],
    stratum_writes: FrozenSet[str],
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[RuleConflict, ...]]:
    """Partition a stratum's rules into conflict-free groups.

    Two rules conflict when their write sets overlap, or one reads a
    symbol the other writes — counting only symbols written *by this
    stratum* (reads of earlier strata's symbols observe completed,
    frozen extents and never conflict). Groups are the connected
    components of the conflict graph.
    """
    n = len(effects)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    conflicts: List[RuleConflict] = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = effects[i], effects[j]
            ww = a.writes & b.writes & stratum_writes
            rw = ((a.reads & b.writes) | (b.reads & a.writes)) & stratum_writes
            if ww:
                kind, symbols = WRITE_WRITE, ww
            elif rw:
                kind, symbols = READ_WRITE, rw
            else:
                continue
            union(i, j)
            conflicts.append(
                RuleConflict(
                    a.rule.display_label(),
                    b.rule.display_label(),
                    kind,
                    tuple(sorted(symbols)),
                )
            )
    members: Dict[int, List[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    groups = tuple(
        tuple(group) for group in sorted(members.values(), key=lambda g: g[0])
    )
    return groups, tuple(conflicts)


def _stratum_plan(
    graph: StageGraph,
    stratum_index: int,
    schema: Schema,
    stratum_writes_by_index: Sequence[FrozenSet[str]],
) -> StratumPlan:
    rule_indexes = graph.strata[stratum_index]
    rules = [graph.rules[r] for r in rule_indexes]
    effects = [graph.effects[r] for r in rule_indexes]
    writes: Set[str] = set()
    reads: Set[str] = set()
    for eff in effects:
        writes |= eff.writes
        reads |= eff.reads
    stratum_writes = frozenset(writes)

    groups, conflicts = _conflict_groups(effects, stratum_writes)
    partitions = tuple(
        _partition_plan(rule, eff, schema) for rule, eff in zip(rules, effects)
    )
    hazards: List[str] = []
    for eff in effects:
        hazards.extend(_rule_hazards(eff))

    depends_on = tuple(
        earlier
        for earlier in range(stratum_index)
        if reads & stratum_writes_by_index[earlier]
    )

    fallback: Optional[str] = None
    if hazards:
        fallback = f"{FALLBACK_HAZARD}: {hazards[0]}"
    elif (
        len(rules) > 1
        and len(groups) == 1
        and not any(p.partitionable for p in partitions)
    ):
        fused = sorted({s for c in conflicts for s in c.symbols})
        fallback = (
            f"{FALLBACK_CONFLICTS}: {len(conflicts)} conflict(s) on "
            f"{{{', '.join(fused)}}} fuse all {len(rules)} rules into one "
            f"group and no rule's delta is partitionable"
        )
    elif len(rules) == 1 and not any(p.partitionable for p in partitions):
        # A lone serial unit is still safe to run *concurrently* with an
        # incomparable sibling — only its internal rounds stay serial.
        fallback = f"{FALLBACK_SINGLETON}: {partitions[0].reason}"

    class_writes = tuple(
        sorted(s for s in writes if is_plane(s) or not schema.is_relation(s))
    )
    return StratumPlan(
        stage=graph.index,
        index=stratum_index,
        rules=tuple(rule.display_label() for rule in rules),
        writes=tuple(sorted(writes)),
        reads=tuple(sorted(reads)),
        groups=groups,
        conflicts=conflicts,
        partitions=partitions,
        depends_on=depends_on,
        hazards=tuple(hazards),
        fallback=fallback,
        class_writes=class_writes,
    )


def _stage_plan(graph: StageGraph, scheduled: bool, reason: Optional[str],
                schema: Schema) -> StagePlan:
    if not scheduled:
        # The schedule engine runs the stage as one monolithic fixpoint;
        # there is no stratum structure to parallelize. Rule-level
        # hazards are still reported (IQL802) so `repro analyze
        # --parallel` explains *why* divergent_invention cannot split.
        hazards: List[str] = []
        for eff in graph.effects:
            hazards.extend(_rule_hazards(eff))
        plan = StratumPlan(
            stage=graph.index,
            index=0,
            rules=tuple(rule.display_label() for rule in graph.rules),
            writes=tuple(sorted(graph.writes)),
            reads=tuple(sorted(
                frozenset().union(*(eff.reads for eff in graph.effects))
                if graph.effects else frozenset()
            )),
            groups=(tuple(range(len(graph.rules))),),
            conflicts=(),
            partitions=tuple(
                PartitionPlan(
                    rule.display_label(), False, (), (),
                    reason=f"{FALLBACK_UNSCHEDULED}: {reason}",
                )
                for rule in graph.rules
            ),
            depends_on=(),
            hazards=tuple(hazards),
            fallback=(
                f"{FALLBACK_HAZARD}: {hazards[0]}"
                if hazards
                else f"{FALLBACK_UNSCHEDULED}: {reason}"
            ),
        )
        return StagePlan(
            index=graph.index,
            scheduled=False,
            fallback=reason,
            strata=(plan,),
            levels=((0,),),
        )

    stratum_writes_by_index: List[FrozenSet[str]] = []
    for rule_indexes in graph.strata:
        writes: Set[str] = set()
        for r in rule_indexes:
            writes |= graph.effects[r].writes
        stratum_writes_by_index.append(frozenset(writes))

    strata = tuple(
        _stratum_plan(graph, i, schema, stratum_writes_by_index)
        for i in range(len(graph.strata))
    )

    # Topological levels of the stratum DAG (depth = longest dependency
    # chain). Strata in one level are pairwise incomparable and may run
    # concurrently when both are parallel-safe.
    depth: List[int] = []
    for plan in strata:
        depth.append(
            1 + max((depth[d] for d in plan.depends_on), default=-1)
        )
    levels: List[List[int]] = [[] for _ in range(max(depth, default=-1) + 1)]
    for i, d in enumerate(depth):
        levels[d].append(i)
    return StagePlan(
        index=graph.index,
        scheduled=True,
        fallback=None,
        strata=strata,
        levels=tuple(tuple(level) for level in levels),
    )


def build_parallel_certificate(
    program: Program,
    schema: Optional[Schema] = None,
    graphs: Optional[List[StageGraph]] = None,
    schedule: Optional[Schedule] = None,
) -> ParallelCertificate:
    """The parallel certificate of ``program``.

    ``graphs``/``schedule`` may be supplied to share work with the other
    analysis passes.
    """
    schema = schema if schema is not None else program.schema
    if graphs is None:
        graphs = program_graphs(program, schema)
    if schedule is None:
        schedule = compute_schedule(program, schema)
    stages = tuple(
        _stage_plan(
            graph,
            schedule.stages[graph.index].scheduled,
            schedule.stages[graph.index].fallback_reason,
            schema,
        )
        for graph in graphs
    )
    return ParallelCertificate(stages=stages)


# -- the IQL8xx diagnostics pass -----------------------------------------------------


def parallel_pass(
    program: Program,
    schema: Optional[Schema] = None,
    certificate: Optional[ParallelCertificate] = None,
) -> List[Diagnostic]:
    """IQL801, IQL802 and IQL804 diagnostics from the parallel certificate.

    * ``IQL801`` — conflicts fuse a multi-rule stratum into one group
      with no partitionable delta: the stratum stays serial,
    * ``IQL802`` — a partition hazard (invention, ★, deletion, choose)
      forces its stratum (or unscheduled stage) serial-and-exclusive,
    * ``IQL804`` — info: the certified concurrency width of each stage
      that admits any parallelism.
    """
    schema = schema if schema is not None else program.schema
    if certificate is None:
        certificate = build_parallel_certificate(program, schema)
    out: List[Diagnostic] = []

    for stage in certificate.stages:
        stage_no = stage.index + 1
        for plan in stage.strata:
            if plan.fallback is None or plan.fallback.startswith(FALLBACK_SINGLETON):
                continue
            if plan.fallback.startswith(FALLBACK_CONFLICTS):
                out.append(
                    diagnostic(
                        "IQL801",
                        f"stage {stage_no} stratum {plan.index + 1} "
                        f"({', '.join(plan.rules)}) stays serial: "
                        f"{plan.fallback[len(FALLBACK_CONFLICTS) + 2:]}",
                        rule_label=plan.rules[0] if plan.rules else None,
                    )
                )
            elif plan.hazards:
                for hazard in plan.hazards:
                    out.append(
                        diagnostic(
                            "IQL802",
                            f"stage {stage_no} runs serial-and-exclusive: "
                            f"{hazard}",
                        )
                    )
            else:
                out.append(
                    diagnostic(
                        "IQL802",
                        f"stage {stage_no} stratum {plan.index + 1} stays "
                        f"serial: {plan.fallback}",
                    )
                )
        if stage.scheduled and stage.width > 1:
            partitionable = sum(
                1 for plan in stage.strata if plan.partitionable
            )
            out.append(
                diagnostic(
                    "IQL804",
                    f"stage {stage_no} admits concurrency width "
                    f"{stage.width}: {len(stage.strata)} stratum/strata "
                    f"across {len(stage.levels)} level(s), "
                    f"{partitionable} partitionable",
                )
            )
    return out


# -- renderings ----------------------------------------------------------------------


def render_parallel_text(certificate: ParallelCertificate) -> str:
    """The ``repro analyze --parallel`` text listing."""
    lines: List[str] = []
    lines.append(
        f"parallel certificate: width {certificate.width}"
        f"{', clean' if certificate.clean else ''}"
    )
    for stage in certificate.stages:
        if not stage.scheduled:
            lines.append(
                f"stage {stage.index + 1}: unscheduled — {stage.fallback}"
            )
            for plan in stage.strata:
                for hazard in plan.hazards:
                    lines.append(f"    hazard: {hazard}")
            continue
        lines.append(
            f"stage {stage.index + 1}: width {stage.width}, "
            f"levels {[[i + 1 for i in level] for level in stage.levels]}"
        )
        for plan in stage.strata:
            status = (
                "partitionable" if plan.partitionable
                else "concurrent-safe" if plan.parallel_safe
                else "serial"
            )
            deps = (
                f" ← strata {[d + 1 for d in plan.depends_on]}"
                if plan.depends_on else ""
            )
            lines.append(
                f"  stratum {plan.index + 1} [{status}] "
                f"writes {{{', '.join(plan.writes)}}}{deps}"
            )
            for g, group in enumerate(plan.groups):
                labels = [plan.rules[i] for i in group]
                lines.append(f"    group {g + 1}: {'; '.join(labels)}")
            for conflict in plan.conflicts:
                lines.append(
                    f"    conflict ({conflict.kind} on "
                    f"{', '.join(conflict.symbols)}): {conflict.a} ⇄ {conflict.b}"
                )
            for part in plan.partitions:
                if part.partitionable:
                    lines.append(
                        f"    partition {part.rule}: delta positions "
                        f"{list(part.delta_positions)}, keyed by "
                        f"{{{', '.join(part.key_variables)}}}"
                    )
            if plan.fallback is not None:
                lines.append(f"    fallback: {plan.fallback}")
    return "\n".join(lines)


def parallel_to_dot(certificate: ParallelCertificate) -> str:
    """GraphViz DOT of the stratum DAGs: one cluster per stage, one box
    per stratum (doubled borders when partitionable, filled grey when
    serial), edges for the stratum dependencies the levels respect."""
    lines = ["digraph parallel {", "  rankdir=LR;", "  node [shape=box];"]
    for stage in certificate.stages:
        lines.append(f"  subgraph cluster_stage{stage.index + 1} {{")
        label = f"stage {stage.index + 1}"
        if not stage.scheduled:
            label += " (unscheduled)"
        else:
            label += f" width {stage.width}"
        lines.append(f'    label="{label}";')
        for plan in stage.strata:
            node = f"s{stage.index}_{plan.index}"
            attrs = [f'label="stratum {plan.index + 1}\\n{{{", ".join(plan.writes)}}}"']
            if plan.partitionable:
                attrs.append("peripheries=2")
            if not plan.parallel_safe:
                attrs.append("style=filled")
                attrs.append("fillcolor=lightgrey")
            lines.append(f"    {node} [{', '.join(attrs)}];")
            for dep in plan.depends_on:
                lines.append(f"    s{stage.index}_{dep} -> {node};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
