"""Run every experiment sweep and print the consolidated report.

This regenerates the tables recorded in EXPERIMENTS.md::

    python benchmarks/run_all.py                      # everything (~2-4 minutes)
    python benchmarks/run_all.py E2 E10               # a subset by experiment id
    python benchmarks/run_all.py --json BENCH.json    # + machine-readable trajectory
    python benchmarks/run_all.py --smoke E2 E11       # CI-sized sweeps (<60s)

Each module's ``main()`` returns its primary series as ``{size: seconds}``;
``--json`` collects those into ``{experiment: {size: seconds}}`` so runs can
be diffed across commits (the BENCH_PR*.json trajectory files at the repo
root). ``--smoke`` asks modules that define ``SMOKE_SIZES`` to sweep only
those sizes — small enough for a CI smoke job.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time

#: experiment id → bench entry point, as ``module`` or ``module:function``
#: (default function: ``main``).
EXPERIMENTS = {
    "E1": "bench_instances",
    "E1b": "bench_isomorphism",
    "E2": "bench_graph_encoding",
    "E3": "bench_nest_unnest",
    "E4": "bench_powerset",
    "E5": "bench_union_encoding",
    "E6": "bench_determinacy",
    "E7": "bench_quadrangle",
    "E8": "bench_quadrangle:copy_elimination",
    "E9": "bench_deletion",
    "E10": "bench_ptime",
    "E11": "bench_datalog",
    "E12": "bench_inheritance",
    "E13": "bench_valuebased",
    "E14": "bench_types",
    "E16": "bench_algebra",
    "E19": "bench_scheduling",
    "E20": "bench_ivm",
    "E21": "bench_planner",
    "E24": "bench_replan",
}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    parser.add_argument(
        "--json", metavar="PATH", help="write {experiment: {size: seconds}} here"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use each module's SMOKE_SIZES (CI-sized sweeps)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="sweep N times and keep the point-wise minimum — the standard "
        "noise-robust estimator for a shared machine (default 1)",
    )
    args = parser.parse_args(argv)
    selected = set(args.experiments) if args.experiments else set(EXPERIMENTS)
    unknown = selected - set(EXPERIMENTS)
    if unknown:
        print(f"unknown experiment ids: {sorted(unknown)}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    trajectory = {}
    for _round in range(max(1, args.repeat)):
        for exp_id, module_name in EXPERIMENTS.items():
            if exp_id not in selected:
                continue
            print(f"\n{'=' * 72}\n{exp_id}: {module_name}\n{'=' * 72}")
            # Experiments leave cyclic garbage (instances reference their
            # indexes and vice versa) that would otherwise be collected
            # inside a *later* experiment's timed region. Collect at the
            # boundary so each sweep starts with a clean heap.
            gc.collect()
            module_name, _, func_name = module_name.partition(":")
            module = importlib.import_module(module_name)
            entry = getattr(module, func_name or "main")
            if args.smoke and hasattr(module, "SMOKE_SIZES"):
                series = entry(sizes=module.SMOKE_SIZES)
            else:
                series = entry()
            merged = trajectory.setdefault(exp_id, {})
            for k, v in (series or {}).items():
                key = str(k)
                if key not in merged or v < merged[key]:
                    merged[key] = v
    print(f"\ntotal: {time.perf_counter() - started:.1f}s")
    if args.json:
        payload = dict(trajectory)
        # "__"-prefixed keys are metadata, not experiment series.
        payload["__host__"] = {"cpu_count": usable_cpus()}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"trajectory written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    sys.exit(main(sys.argv[1:]))
