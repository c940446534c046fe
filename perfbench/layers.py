"""The traced run: per-layer metrics from spans around each layer's
public calls, made from the benchmark's own code.

The window is split in two. The first half runs the workload untraced;
the second half runs it with spans and per-operation counters, so the
difference between the two halves' p50 is the tracing overhead. After the
window, calls the operations do not make on their own -- scheduling and
certificate analysis, ``Evaluator`` construction, planning every rule
body, and a replay of one evaluation stage by stage through
``Evaluator.solve_stratum`` -- are timed ``aux_repeats`` times each and
reported as medians. Every span is written to one JSON file at the end.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from loops import (
    Clock,
    HostSpeed,
    SetUps,
    maintain_loop,
    ms,
    p50,
    p90,
    query_loop,
    stat_snapshot,
)
from repro import Evaluator, evaluate_full
from repro.analysis.depgraph import compute_schedule
from repro.analysis.maintenance import build_certificates, validate_certificate
from repro.iql.invention import CountingOidFactory
from repro.iql.valuation import plan_body
from repro.values import intern
from spans import Tracer
from workloads import check_closure, check_objects

RESULTS = Path(__file__).resolve().parent / "results"

#: How many ``evaluator.stage_ms.<i>`` metrics the benchmark declares.
STAGE_METRICS = 4


class TimedOidFactory(CountingOidFactory):
    """The default factory's oids, with the time spent inventing them."""

    def __init__(self) -> None:
        super().__init__()
        self.seconds = 0.0

    def invent(self, class_name):
        started = time.perf_counter()
        oid = super().invent(class_name)
        self.seconds += time.perf_counter() - started
        return oid


def _sum(rows: List[Dict[str, float]], key: str) -> float:
    return sum(row.get(key, 0.0) for row in rows)


def _mean(rows: List[Dict[str, float]], key: str) -> float:
    return _sum(rows, key) / len(rows) if rows else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stage_units(program, evaluator) -> List[Sequence]:
    """The rule sets ``Evaluator.run`` solves one fixpoint each for: the
    certified strata of a scheduled engine, else whole stages."""
    schedule = compute_schedule(program) if getattr(evaluator, "schedule", True) else None
    units: List[Sequence] = []
    for index, stage in enumerate(program.stages):
        plan = schedule.stages[index] if schedule is not None else None
        if plan is not None and plan.scheduled:
            units.extend(plan.strata)
        else:
            units.append(tuple(stage))
    return units


def replay(program, source, tracer: Tracer):
    """Evaluate ``program`` on ``source`` one stage (or stratum) at a time;
    returns the full instance and the seconds of each unit."""
    with tracer.span("evaluator.replay"):
        evaluator = Evaluator(program)
        working = source.with_schema(program.schema)
        seconds = []
        for index, rules in enumerate(stage_units(program, evaluator)):
            with tracer.span(f"evaluator.stage.{index}") as span:
                evaluator.solve_stratum(working, rules)
            seconds.append(span["end"] - span["start"])
    return working, seconds


def _aux(workload, tracer: Tracer, final, source, repeats: int) -> Dict[str, float]:
    """Median times of the layer calls the operations do not make alone,
    and the stage replay checked against the workload's oracle.

    ``evaluator.run`` (one ``evaluate_full`` of ``source``) and the stage
    replay of the same input are timed back to back and both scaled to
    the reference host speed. ``coverage`` is the median of the replay's
    share of the run over the repeats, ``coverage_spread`` the distance
    between the shares' first and third quartile."""
    program = workload.program
    maintain = workload.name.startswith("maintain_")
    times: Dict[str, List[float]] = {}
    runs: List[float] = []
    stage_seconds: List[List[float]] = []
    shares: List[float] = []
    evictions: Dict[str, float] = {}
    replay_ok = True

    def timed(name, fn):
        with tracer.span(name) as span:
            value = fn()
        times.setdefault(name, []).append(span["end"] - span["start"])
        return value

    def certificates():
        for cert in build_certificates(program):
            validate_certificate(program, cert)

    def plan_all():
        for rule in program.rules:
            plan_body(rule.body, frozenset(), final, costed=True)

    for k in range(repeats):
        tracer.op = f"aux{k}"
        timed("analysis.schedule", lambda: compute_schedule(program))
        timed("analysis.certificates", certificates)
        timed("evaluator.construct", lambda: Evaluator(program))
        timed("planner.plan", plan_all)
        base = timed("instance.copy", source.copy)
        gc.collect()
        speed = HostSpeed()
        with tracer.span("evaluator.run") as span:
            result = evaluate_full(program, base)
        runs.append((span["end"] - span["start"]) * speed.factor())
        full, seconds = replay(program, source, tracer)
        factor = speed.factor()
        stage_seconds.append([s * factor for s in seconds])
        shares.append(sum(stage_seconds[-1]) / runs[-1])
        if maintain:
            # The recompute a delete batch competes with; its stats carry
            # the per-rule cache eviction totals of the whole run.
            for key in ("kernel_cache_evictions", "plan_cache_evictions"):
                evictions["caches." + key] = float(getattr(result.stats, key, 0))
            timed("instance.project", workload.mp.output)
        output = full.project(program.output_schema)
        if workload.name == "objects":
            replay_ok &= check_objects(output, workload.edges)
        elif workload.name == "closure":
            replay_ok &= check_closure(output, workload.expected, workload.params["objects"])
        else:
            replay_ok &= all(
                full.relations[n] == workload.mp.instance.relations[n] for n in ("T", "F")
            )
    medians = {name: ms(statistics.median(values)) for name, values in times.items()}
    medians["evaluator.run"] = ms(statistics.median(runs))
    per_unit = [statistics.median(column) for column in zip(*stage_seconds)]
    for index in range(STAGE_METRICS):
        medians[f"stage.{index}"] = ms(per_unit[index]) if index < len(per_unit) else 0.0
    medians["coverage"] = statistics.median(shares)
    q1, _, q3 = statistics.quantiles(shares, n=4)
    medians["coverage_spread"] = q3 - q1
    medians.update(evictions)
    medians["replay_ok"] = replay_ok
    return medians


# -- traced operation loops ----------------------------------------------------------


def traced_queries(workload, clock: Clock, setups: SetUps, tracer: Tracer):
    """Query operations inside spans, with their counters."""
    rows: List[Dict[str, float]] = []
    spans: Dict[str, List[float]] = {"instance.copy": [], "instance.project": []}
    last = []

    def run(workload, source):
        tracer.op = f"op{len(rows)}"
        factory = TimedOidFactory()
        hits0, misses0, fast0 = intern.counters()
        with tracer.span("op"):
            with tracer.span("evaluator.run") as span:
                result = evaluate_full(workload.program, source, oid_factory=factory)
            hits1, misses1, fast1 = intern.counters()
            # The loop copied the input before the window; time one more.
            with tracer.span("instance.copy") as copy:
                workload.instance.copy()
            with tracer.span("instance.project") as project:
                result.full.project(workload.program.output_schema)
        spans["instance.copy"].append(copy["end"] - copy["start"])
        spans["instance.project"].append(project["end"] - project["start"])
        row = stat_snapshot(result.stats)
        row.update(
            intern_hits=hits1 - hits0,
            intern_misses=misses1 - misses0,
            intern_fast=fast1 - fast0,
            invent_seconds=factory.seconds,
        )
        rows.append(row)
        last[:] = [result]
        return result, span["end"] - span["start"]

    _, scaled, failed = query_loop(workload, clock, setups, run)
    stats = last[0].stats
    extra = {
        "instance.copy": ms(p50(spans["instance.copy"])),
        "instance.project": ms(p50(spans["instance.project"])),
        "invention.invent_ms": ms(p50([r["invent_seconds"] for r in rows])),
        "caches.kernel_cache_evictions": float(getattr(stats, "kernel_cache_evictions", 0)),
        "caches.plan_cache_evictions": float(getattr(stats, "plan_cache_evictions", 0)),
    }
    return rows, scaled, failed, last[0].full, extra


def traced_maintain(workload, clock: Clock, setups: SetUps, tracer: Tracer):
    """Maintenance operations inside spans, with per-operation counter
    deltas of ``MaterializedProgram.stats``."""
    mp = workload.mp
    rows: List[Dict[str, float]] = []

    def run(workload, gone, new):
        tracer.op = f"op{len(rows)}"
        before = stat_snapshot(mp.stats)
        hits0, misses0, fast0 = intern.counters()
        with tracer.span("op"):
            with tracer.span("ivm.apply_delta.delete") as first:
                mp.apply_delta(deletes=[gone])
            gc.collect()
            with tracer.span("ivm.apply_delta.insert") as second:
                mp.apply_delta(inserts=[new])
        hits1, misses1, fast1 = intern.counters()
        after = stat_snapshot(mp.stats)
        row = {key: after[key] - before[key] for key in after}
        row.update(
            intern_hits=hits1 - hits0, intern_misses=misses1 - misses0, intern_fast=fast1 - fast0
        )
        rows.append(row)
        return first["end"] - first["start"], second["end"] - second["start"]

    times, failed = maintain_loop(workload, clock, setups, run)
    return rows, times, failed


# -- the run -------------------------------------------------------------------------


def traced(workload, args, cfg, started: float) -> dict:
    tracer = Tracer()
    setups = SetUps(workload, tracer, cfg["setups"]).finish()
    raw_setups = setups.raw
    half = args.seconds / 2
    maintain = workload.name.startswith("maintain_")

    # Untraced half: the overhead baseline (latencies at reference speed).
    clock = Clock(half, 1, started)
    if maintain:
        times, failed = maintain_loop(workload, clock, setups)
        untraced = times[workload.timed + "_scaled"]
    else:
        _, untraced, failed = query_loop(workload, clock, setups)

    clock = Clock(half, 1, started)
    extra: Dict[str, float] = {}
    deletes: List[float] = []
    inserts: List[float] = []
    if maintain:
        rows, times, more_failed = traced_maintain(workload, clock, setups, tracer)
        deletes, inserts = times["delete"], times["insert"]
        traced_latency = times[workload.timed + "_scaled"]
        final, source = workload.mp.instance, workload.mp.base
    else:
        rows, traced_latency, more_failed, final, extra = traced_queries(
            workload, clock, setups, tracer
        )
        source = workload.instance
    failed += more_failed

    aux = _aux(workload, tracer, final, source, cfg["aux_repeats"])
    if not aux.pop("replay_ok"):
        print("stage replay disagrees with the oracle", file=sys.stderr)
        failed += 1
    if maintain:
        for key in ("caches.kernel_cache_evictions", "caches.plan_cache_evictions"):
            extra[key] = aux[key]
        extra["instance.copy"] = aux["instance.copy"]
        extra["instance.project"] = aux["instance.project"]
        extra["invention.invent_ms"] = 0.0
    run_ms = aux["evaluator.run"]

    hits = _sum(rows, "plan_cache_hits")
    lookups = hits + _sum(rows, "plan_cache_misses")
    ihits, imisses = _sum(rows, "intern_hits"), _sum(rows, "intern_misses")
    untraced_p50, traced_p50 = ms(p50(untraced)), ms(p50(traced_latency))
    live_tuples, live_sets = intern.table_sizes()
    setup_spans = {
        name: ms(statistics.median(tracer.durations(name)))
        for name in ("parser.parse", "typecheck.check", "io.load")
    }
    values: Dict[str, float] = {
        "parser.parse_ms": setup_spans["parser.parse"],
        "typecheck.check_ms": setup_spans["typecheck.check"],
        "io.load_ms": setup_spans["io.load"],
        "io.input_bytes": float(len(workload.document.encode("utf-8"))),
        "analysis.schedule_ms": aux["analysis.schedule"],
        "analysis.certificates_ms": aux["analysis.certificates"],
        "evaluator.construct_ms": aux["evaluator.construct"],
        "evaluator.run_ms": run_ms,
        "evaluator.stage_coverage": aux["coverage"],
        "planner.plan_ms": aux["planner.plan"],
        "planner.plan_cache_hit_ratio": _ratio(hits, lookups),
        "planner.plan_cache_lookups": _ratio(lookups, len(rows)),
        "compile.compile_ms": ms(_mean(rows, "compile_seconds")),
        "caches.kernel_cache_evictions": extra["caches.kernel_cache_evictions"],
        "caches.plan_cache_evictions": extra["caches.plan_cache_evictions"],
        "invention.invent_ms": extra["invention.invent_ms"],
        "intern.hits": _ratio(ihits, len(rows)),
        "intern.misses": _ratio(imisses, len(rows)),
        "intern.hit_ratio": _ratio(ihits, ihits + imisses),
        "intern.eq_fast_paths": _mean(rows, "intern_fast"),
        "intern.live_nodes": float(live_tuples + live_sets),
        "instance.copy_ms": extra["instance.copy"],
        "instance.project_ms": extra["instance.project"],
        "ivm.materialize_ms": ms(p50(tracer.durations("ivm.materialize"))),
        "ivm.insert_ms_p50": ms(p50(inserts)),
        "ivm.insert_ms_p90": ms(p90(inserts)),
        "ivm.delete_ms_p50": ms(p50(deletes)),
        "ivm.delete_ms_p90": ms(p90(deletes)),
        "ivm.rederive_ratio": _ratio(_sum(rows, "ivm.rederived"), _sum(rows, "ivm.overdeleted")),
        "supports.total": float(workload.mp.supports.total()) if maintain else 0.0,
        "trace.ops": float(len(rows)),
        "trace.spans": float(len(tracer.spans)),
        "trace.untraced_op_ms_p50": untraced_p50,
        "trace.traced_op_ms_p50": traced_p50,
        "trace.overhead": _ratio(traced_p50, untraced_p50) - 1.0 if untraced_p50 else 0.0,
    }
    for index in range(STAGE_METRICS):
        values[f"evaluator.stage_ms.{index}"] = aux[f"stage.{index}"]
    for key in (
        "evaluator.steps", "evaluator.valuations_considered", "evaluator.facts_added",
        "evaluator.rules_skipped_clean", "evaluator.schedule_fallbacks",
        "planner.plans_costed", "planner.plan_replans", "planner.estimate_drifts",
        "indexes.probes", "indexes.scans_avoided", "compile.rules_compiled",
        "compile.fallbacks", "invention.oids_invented", "ivm.supports_adjusted",
        "ivm.overdeleted", "ivm.rederived", "ivm.maintenance_fallbacks",
    ):
        values[key] = _mean(rows, key)

    # On closure the stage replay must account for evaluator.run_ms: its
    # share may miss 1 by no more than the tracing overhead plus the
    # spread of the share over the repeats.
    tolerance = abs(values["trace.overhead"]) + aux["coverage_spread"]
    coverage = values["evaluator.stage_coverage"]
    if workload.name == "closure" and abs(coverage - 1.0) > tolerance:
        print(f"stage replay covers {coverage:.2%} of evaluator.run_ms", file=sys.stderr)
        failed += 1

    out = Path(args.trace_out) if args.trace_out else (
        RESULTS / f"trace-{workload.name}-seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(
        out,
        {"workload": workload.name, "seed": args.seed, "params": workload.params, "metrics": values},
    )
    plain_ops = len(untraced)
    attempted = max(plain_ops + len(rows), 1)
    lines = [
        f"set-up: median of {len(raw_setups)}: {statistics.median(raw_setups):.4f} s wall",
        f"untraced p50 {untraced_p50:.3f} ms over {plain_ops} operations; "
        f"traced p50 {traced_p50:.3f} ms over {len(rows)} (reference speed); "
        f"overhead {values['trace.overhead']:+.2%}",
        f"stage replay covers {coverage:.2%} of evaluator.run_ms "
        f"(overhead plus spread: {tolerance:.2%})",
        f"spans: {len(tracer.spans)} written to {out}",
        f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}",
    ]
    units = metric_units()
    metrics = {name: (float(value), units[name]) for name, value in values.items()}
    return {"lines": lines, "attempted": attempted, "failed": failed, "metrics": metrics}


def metric_units() -> Dict[str, str]:
    """Per-layer metric units, as declared in ``BENCHMARK.json``."""
    import json

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in doc["per_layer"]}
