"""Command-line driver: run IQL programs against JSON instances.

Usage::

    python -m repro run PROGRAM.iql --input data.json [--output out.json]
    python -m repro maintain PROGRAM.iql --input data.json  # live IVM REPL
    python -m repro check PROGRAM.iql [--json]   # type check + classify
    python -m repro lint PROGRAM.iql [--format text|json] [--strict]
    python -m repro analyze PROGRAM.iql [--format text|json|dot] [--stats]
    python -m repro analyze PROGRAM.iql --plans [--input data.json]
    python -m repro impact PROGRAM.iql [--symbol R] [--op insert|delete]
    python -m repro fmt PROGRAM.iql              # parse + pretty-print
    python -m repro validate data.json           # instance legality
    python -m repro demo                         # the Example 1.2 pipeline

Programs are in the surface syntax (see repro.parser); instances in the
JSON format of repro.io. ``lint`` runs the full repro.analysis pipeline
and exits non-zero on error-severity diagnostics (``--strict`` promotes
warnings to the same treatment, for CI gating). ``analyze`` renders the
per-stage dependency graphs, SCC strata, effect summaries, and the
certified schedule in text, JSON, or GraphViz DOT (``--stats`` adds
per-pass analysis timings on stderr). ``impact`` renders the
update-impact analysis: per updatable base symbol, the affected cone,
the counting/DRed/recompute maintenance classification, and the
machine-checkable maintenance certificates (IQL701–IQL704).

``maintain`` keeps a fixpoint *live*: it loads the instance, evaluates
once, then reads update commands from stdin — ``+R <value>`` stages an
insert, ``-R <value>`` a delete (several ``;``-separated ops on one
line form one batch), ``?R`` prints an extent, ``stats`` the IVM
counters, ``certs`` the per-update-class strategies, ``output`` the
output instance as JSON. Values use the JSON value syntax of repro.io;
for class extents a bare string names an oid (an existing one, or a
fresh one on insert).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import io
from repro.errors import InstanceError, ReproError
from repro.iql.evaluator import Evaluator, EvaluatorLimits
from repro.iql.sublanguages import classify
from repro.iql.typecheck import check_program
from repro.parser.grammar import program_from_source


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return program_from_source(handle.read())


def cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import io_schema_pass

    program = _load_program(args.program)
    errors = check_program(program)
    # An input or output schema that is not closed (IQL110) cannot run.
    unclosed = [d for d in io_schema_pass(program) if d.severity == "error"]
    report = classify(program)
    if getattr(args, "json", False):
        from repro.analysis import analyze

        doc = analyze(program).to_json(filename=args.program)
        doc["classification"] = report.summary()
        print(json.dumps(doc, indent=2))
        return 1 if errors or unclosed else 0
    for error in errors:
        print(f"type error: {error}", file=sys.stderr)
    for diag in unclosed:
        print(diag.render(args.program), file=sys.stderr)
    print(f"rules: {len(program.rules)} in {len(program.stages)} stage(s)")
    print(f"classification: {report.summary()}")
    if program.uses_choose():
        print("features: choose (IQL+)")
    if program.uses_deletion():
        print("features: deletion (IQL*)")
    return 1 if errors or unclosed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_source

    with open(args.program, "r", encoding="utf-8") as handle:
        text = handle.read()
    report = analyze_source(text, filename=args.program)
    strict_failed = args.strict and bool(report.warnings)
    if args.format == "json":
        doc = report.to_json(filename=args.program)
        if args.strict:
            doc["strict"] = True
            doc["ok"] = doc["ok"] and not strict_failed
        print(json.dumps(doc, indent=2))
    else:
        print(report.render_text(filename=args.program))
        if strict_failed:
            print(
                f"strict mode: {len(report.warnings)} warning(s) treated as errors"
            )
    return 0 if report.ok and not strict_failed else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    import time

    from repro.analysis import (
        analyze,
        compute_schedule,
        graphs_to_dot,
        impact_pass,
        program_cones,
        program_graphs,
        render_graphs_text,
        rule_effects,
    )

    program = _load_program(args.program)
    if args.plans:
        return _dump_plans(program, args)
    timings = {}
    t0 = time.perf_counter()
    for rule in program.rules:
        rule_effects(rule, program.schema)
    timings["effects"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    graphs = program_graphs(program)
    schedule = compute_schedule(program)
    timings["depgraph"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = analyze(program)
    timings["lint"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cones = program_cones(program)
    impact_diagnostics = impact_pass(program, cones=cones)
    timings["impact"] = time.perf_counter() - t0
    if args.stats:
        print(
            "analysis timings:\n"
            + "\n".join(
                f"  {name:<10} {seconds * 1000:8.2f}ms"
                for name, seconds in timings.items()
            ),
            file=sys.stderr,
        )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "file": args.program,
                    "stages": [graph.to_json() for graph in graphs],
                    "schedule": schedule.to_json(),
                    "diagnostics": [d.to_json() for d in report.diagnostics],
                    "impact": {
                        "cones": [cone.to_json() for cone in cones],
                        "diagnostics": [
                            d.to_json() for d in impact_diagnostics
                        ],
                    },
                    "timings_ms": {
                        name: seconds * 1000 for name, seconds in timings.items()
                    },
                },
                indent=2,
            )
        )
    elif args.format == "dot":
        print(graphs_to_dot(graphs))
    else:
        print(render_graphs_text(graphs, schedule))
        for diag in report.diagnostics:
            if diag.code.startswith("IQL6"):
                print(diag.render(args.program))
        for diag in impact_diagnostics:
            print(diag.render(args.program))
    return 0 if report.ok else 1


def _dump_plans(program, args: argparse.Namespace) -> int:
    """``repro analyze --plans``: each rule's cost-based body plan.

    Plans are computed against the ``--input`` instance when given (the
    cardinalities the evaluator would see at stage start), else against
    an empty instance — estimates then reflect sizes of zero, which is
    exactly what the optimizer knows before any facts exist.
    """
    from repro.iql.literals import Choose
    from repro.iql.stats import describe_plan
    from repro.iql.valuation import plan_body
    from repro.schema.instance import Instance

    if args.input:
        instance = io.load(args.input).project(program.input_schema).with_schema(
            program.schema
        )
        source = args.input
    else:
        instance = Instance(program.schema)
        source = "(empty instance)"
    print(f"body plans against {source}, cost-based:")
    for rule in program.rules:
        literals = tuple(
            lit for lit in rule.body if not isinstance(lit, Choose)
        )
        plan = plan_body(literals, frozenset(), instance)
        print(f"\n{rule.display_label()}")
        for line in describe_plan(plan):
            print(f"  {line}")
    return 0


def cmd_impact(args: argparse.Namespace) -> int:
    from repro.analysis import (
        build_certificate,
        impact_pass,
        impact_to_dot,
        program_cones,
        program_graphs,
        render_impact_text,
    )
    from repro.analysis.impact import UPDATE_OPS

    program = _load_program(args.program)
    if args.symbol is not None and args.symbol not in program.input_names:
        print(
            f"error: {args.symbol!r} is not an input symbol of the program "
            f"(inputs: {', '.join(program.input_names) or 'none'})",
            file=sys.stderr,
        )
        return 2
    symbols = [args.symbol] if args.symbol is not None else None
    cones = program_cones(program, symbols=symbols)
    ops = [args.op] if args.op is not None else list(UPDATE_OPS)
    certificates = [
        build_certificate(program, cone, op) for cone in cones for op in ops
    ]
    diagnostics = impact_pass(program, cones=cones)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "file": args.program,
                    "certificates": [c.to_json() for c in certificates],
                    "diagnostics": [d.to_json() for d in diagnostics],
                },
                indent=2,
            )
        )
    elif args.format == "dot":
        print(impact_to_dot(cones, program_graphs(program)))
    else:
        print(render_impact_text(cones))
        for diag in diagnostics:
            print(diag.render(args.program))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    errors = check_program(program)
    if errors:
        for error in errors:
            print(f"type error: {error}", file=sys.stderr)
        return 1
    instance = io.load(args.input, schema=program.input_schema if args.strict else None)
    if args.strict and instance.schema != program.input_schema:
        print("input does not match the program's input schema", file=sys.stderr)
        return 1
    if not args.strict:
        instance = instance.project(program.input_schema)
    instance.validate()
    limits = EvaluatorLimits(max_steps=args.max_steps)
    result = Evaluator(
        program, limits=limits, choose_mode=args.choose_mode, naive=args.naive
    ).run(instance)
    stats = result.stats
    print(
        f"fixpoint in {stats.steps} step(s); +{stats.facts_added} facts, "
        f"-{stats.facts_deleted}, {stats.oids_invented} oids invented",
        file=sys.stderr,
    )
    if args.stats:
        from repro.values import intern

        plan_total = stats.plan_cache_hits + stats.plan_cache_misses
        live_tuples, live_sets = intern.table_sizes()
        fallbacks = ""
        if stats.compile_fallback_reasons:
            inner = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(stats.compile_fallback_reasons.items())
            )
            fallbacks = f" ({inner})"
        print(
            "evaluation stats:\n"
            f"  steps                {stats.steps}\n"
            f"  per-stage steps      {stats.per_stage_steps}\n"
            f"  facts added          {stats.facts_added}\n"
            f"  facts deleted        {stats.facts_deleted}\n"
            f"  oids invented        {stats.oids_invented}\n"
            f"  valuations           {stats.valuations_considered}\n"
            f"  plan cache           {stats.plan_cache_hits}/{plan_total} hits, "
            f"{stats.plan_cache_entries} entries\n"
            f"  plans costed         {stats.plans_costed}\n"
            f"  plan replans         {stats.plan_replans}\n"
            f"  rules compiled       {stats.rules_compiled}\n"
            f"  rules interpreted    {stats.rules_interpreted}\n"
            f"  compile fallbacks    {stats.compile_fallbacks}{fallbacks}\n"
            f"  compile time         {stats.compile_time * 1000:.1f}ms\n"
            f"  kernel cache         {stats.kernel_cache_entries} entries\n"
            f"  intern hits          {stats.intern_hits}\n"
            f"  intern misses        {stats.intern_misses}\n"
            f"  intern live nodes    {live_tuples} tuples, {live_sets} sets\n"
            f"  strata               {stats.strata}\n"
            f"  rules skipped clean  {stats.rules_skipped_clean}\n"
            f"  schedule fallbacks   {stats.schedule_fallbacks}",
            file=sys.stderr,
        )
    text = io.dumps(result.output)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def cmd_maintain(args: argparse.Namespace) -> int:
    """The live-fixpoint REPL over :class:`repro.iql.ivm.MaterializedProgram`."""
    import time

    from repro.io import _oid_names, value_from_json, value_to_json
    from repro.iql.ivm import MaterializedProgram
    from repro.typesys.interpretation import member
    from repro.values.ovalues import Oid

    program = _load_program(args.program)
    errors = check_program(program)
    if errors:
        for error in errors:
            print(f"type error: {error}", file=sys.stderr)
        return 1
    instance = io.load(args.input).project(program.input_schema)
    instance.validate()
    evaluator = Evaluator(program, limits=EvaluatorLimits(max_steps=args.max_steps))
    started = time.perf_counter()
    mp = MaterializedProgram(program, instance, evaluator=evaluator)
    print(
        f"materialized in {(time.perf_counter() - started) * 1000:.1f}ms: "
        f"{mp.instance.fact_count()} facts; strategies: "
        + ", ".join(
            f"{base}:{mp.certificates[(base, 'insert')].strategy}"
            for base in program.input_names
        ),
        file=sys.stderr,
    )
    schema = program.schema

    def parse_value(symbol: str, text: str):
        doc = json.loads(text)
        names = {name: oid for oid, name in _oid_names(mp.instance).items()}
        if schema.is_class(symbol) and isinstance(doc, str):
            return names.get(doc, Oid(doc))
        if isinstance(doc, dict) and set(doc) not in ({"oid"}, {"tuple"}, {"set"}):
            doc = {"tuple": doc}  # REPL shorthand: a bare attribute map
        value = value_from_json(doc, names)
        if schema.is_relation(symbol):
            expected = schema.relations[symbol]
            if not member(value, expected, mp.instance.classes):
                raise InstanceError(
                    f"ρ({symbol}) member {value!r} is not of type {expected!r}"
                )
        return value

    def show_extent(symbol: str) -> None:
        try:
            extent = mp.extent(symbol)
        except ReproError as exc:
            print(f"error: {exc}")
            return
        names = _oid_names(mp.instance)
        docs = [value_to_json(v, names) for v in extent]
        print(json.dumps(sorted(docs, key=json.dumps), default=str))

    source = open(args.script, "r", encoding="utf-8") if args.script else sys.stdin
    try:
        for line in source:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("quit", "exit"):
                break
            if line == "stats":
                s = mp.stats
                print(
                    f"deltas applied       {s.deltas_applied}\n"
                    f"supports adjusted    {s.supports_adjusted}\n"
                    f"overdeleted          {s.overdeleted}\n"
                    f"rederived            {s.rederived}\n"
                    f"rederive reruns      {s.rederive_reruns}\n"
                    f"fallbacks            {s.maintenance_fallbacks}\n"
                    f"facts +{s.facts_added} -{s.facts_deleted}"
                )
                continue
            if line == "certs":
                for (base, op), cert in sorted(mp.certificates.items()):
                    print(f"{base} {op}: {cert.strategy}")
                continue
            if line == "output":
                try:
                    print(io.dumps(mp.output()))
                except ReproError as exc:
                    print(f"error: {exc}")
                continue
            if line.startswith("?"):
                show_extent(line[1:].strip())
                continue
            inserts, deletes = [], []
            try:
                for op in line.split(";"):
                    op = op.strip()
                    if not op or op[0] not in "+-":
                        raise ValueError(
                            f"unknown command {op!r} (try +R <value>, -R <value>, "
                            f"?R, stats, certs, output, quit)"
                        )
                    symbol, _, text = op[1:].strip().partition(" ")
                    value = parse_value(symbol, text)
                    (inserts if op[0] == "+" else deletes).append((symbol, value))
                before = (
                    mp.stats.supports_adjusted,
                    mp.stats.overdeleted,
                    mp.stats.rederived,
                    mp.stats.maintenance_fallbacks,
                    mp.stats.deltas_applied,
                )
                t0 = time.perf_counter()
                mp.apply_delta(inserts=inserts, deletes=deletes)
                elapsed = (time.perf_counter() - t0) * 1000
                s = mp.stats
                print(
                    f"ok: {s.deltas_applied - before[4]} net update(s) in "
                    f"{elapsed:.2f}ms (supports {s.supports_adjusted - before[0]:+d}, "
                    f"overdeleted {s.overdeleted - before[1]}, "
                    f"rederived {s.rederived - before[2]}, "
                    f"fallbacks {s.maintenance_fallbacks - before[3]})"
                )
            except (ReproError, ValueError, json.JSONDecodeError) as exc:
                print(f"error: {exc}")
    finally:
        if source is not sys.stdin:
            source.close()
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    from repro.parser.unparse import program_to_source

    program = _load_program(args.program)
    print(program_to_source(program))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    instance = io.load(args.instance)
    instance.validate()
    print(f"legal instance: {instance.fact_count()} ground facts")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.iql.evaluator import evaluate
    from repro.transform.encodings import graph_instance, graph_to_class_program

    edges = {("a", "b"), ("b", "c"), ("c", "a")}
    print(f"input graph: {sorted(edges)}")
    output = evaluate(graph_to_class_program(), graph_instance(edges))
    print("\nExample 1.2 — the graph as mutually-referring objects:")
    print(output)
    print("\nas JSON:")
    print(io.dumps(output))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type check and classify a program")
    p_check.add_argument("program")
    p_check.add_argument(
        "--json",
        action="store_true",
        help="emit the full analysis report as JSON instead of the text summary",
    )
    p_check.set_defaults(func=cmd_check)

    p_lint = sub.add_parser(
        "lint", help="run all static analyses; non-zero exit on errors"
    )
    p_lint.add_argument("program")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warning-severity diagnostics as errors (non-zero exit)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="render the per-stage dependency graphs, strata, and schedule",
    )
    p_analyze.add_argument("program")
    p_analyze.add_argument(
        "--format", choices=["text", "json", "dot"], default="text"
    )
    p_analyze.add_argument(
        "--stats",
        action="store_true",
        help="print per-pass analysis timings (lint, effects, depgraph, impact)",
    )
    p_analyze.add_argument(
        "--plans",
        action="store_true",
        help="dump each rule's cost-based body plan with cardinality estimates",
    )
    p_analyze.add_argument(
        "--input",
        help="with --plans: estimate against this JSON instance's cardinalities",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_impact = sub.add_parser(
        "impact",
        help="update-impact analysis: affected cones and maintenance certificates",
    )
    p_impact.add_argument("program")
    p_impact.add_argument(
        "--symbol", help="restrict to one updatable base symbol (default: all inputs)"
    )
    p_impact.add_argument(
        "--op",
        choices=["insert", "delete"],
        help="restrict certificates to one update class (default: both)",
    )
    p_impact.add_argument(
        "--format", choices=["text", "json", "dot"], default="text"
    )
    p_impact.set_defaults(func=cmd_impact)

    p_run = sub.add_parser("run", help="evaluate a program on an instance")
    p_run.add_argument("program")
    p_run.add_argument("--input", required=True, help="JSON instance document")
    p_run.add_argument("--output", help="write the output instance here")
    p_run.add_argument("--max-steps", type=int, default=10_000)
    p_run.add_argument(
        "--choose-mode",
        choices=["verify", "trusted", "nondeterministic"],
        default="verify",
    )
    p_run.add_argument(
        "--strict",
        action="store_true",
        help="require the input document's schema to equal Sin exactly",
    )
    p_run.add_argument(
        "--stats",
        action="store_true",
        help="print full evaluation statistics (plan cache, compilation, ...)",
    )
    p_run.add_argument(
        "--naive",
        action="store_true",
        help="run the Section 3.2 reference engine (joins in written "
        "order, no planner, scheduling or compilation) instead of the "
        "production engine",
    )
    p_run.set_defaults(func=cmd_run)

    p_maintain = sub.add_parser(
        "maintain",
        help="incremental view maintenance: evaluate once, stream updates",
    )
    p_maintain.add_argument("program")
    p_maintain.add_argument("--input", required=True, help="JSON instance document")
    p_maintain.add_argument("--max-steps", type=int, default=10_000)
    p_maintain.add_argument(
        "--script",
        help="read update commands from this file instead of stdin",
    )
    p_maintain.set_defaults(func=cmd_maintain)

    p_fmt = sub.add_parser("fmt", help="parse and pretty-print a program")
    p_fmt.add_argument("program")
    p_fmt.set_defaults(func=cmd_fmt)

    p_val = sub.add_parser("validate", help="check an instance document")
    p_val.add_argument("instance")
    p_val.set_defaults(func=cmd_validate)

    p_demo = sub.add_parser("demo", help="run the Example 1.2 pipeline")
    p_demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
