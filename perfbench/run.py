"""One benchmark run: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0

Workloads (parameters and reasons in ``perfbench/spec.json``):
``closure``, ``objects``, ``maintain_delete`` and ``maintain_insert``.
Each is a closed loop with a single client: the next operation starts
when the previous one returns. The two maintenance workloads run the
same delete-then-insert stream; each times one of the two batches.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: per-operation latency (p50, p90 over at least 100
operations), set-up time (median of several set-ups spread over the
window, each from program text plus input JSON to a first answer) and
peak resident memory. Times
are scaled to a reference host speed by a calibration loop timed around
each operation (see ``perfbench/loops.py``). With
``--trace 1`` it reports the per-layer metrics instead, timed by spans
around calls into each layer (``perfbench/spans.py``) and written, with
every span, to ``--trace-out`` (default ``perfbench/results/``).

Every operation's output is checked by an independent oracle outside the
timed region. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--smoke`` runs tiny
inputs for the benchmark's own tests. The exit code is 2, with no result
line, when the engine under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from loops import Clock, SetUps, maintain_loop, ms, p50, p90, peak_rss_mb, query_loop
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def end_to_end(workload, args, cfg, started: float) -> dict:
    """The untraced run: the end-to-end metrics."""
    setups = SetUps(workload, Tracer(), cfg["setups"])
    clock = Clock(args.seconds, cfg["min_ops"], started)
    lines = []
    if workload.name.startswith("maintain_"):
        times, failed = maintain_loop(workload, clock, setups)
        raw, ops = times[workload.timed], times[workload.timed + "_scaled"]
        for kind in ("delete", "insert"):
            scaled = times[kind + "_scaled"]
            lines.append(
                f"{kind} batch: p50 {ms(p50(scaled)):.3f} ms, p90 {ms(p90(scaled)):.3f} ms "
                f"at reference speed"
            )
    else:
        raw, ops, failed = query_loop(workload, clock, setups)
    setups.finish()
    lines.append(
        f"set-up: median of {len(setups.scaled)}: {statistics.median(setups.scaled):.4f} s at "
        f"reference speed ({statistics.median(setups.raw):.4f} s wall)"
    )
    attempted = max(len(ops), 1)
    lines.append(
        f"operation: p50 {ms(p50(ops)):.3f} ms, p90 {ms(p90(ops)):.3f} ms at reference speed "
        f"(wall: p50 {ms(p50(raw)):.3f} ms, p90 {ms(p90(raw)):.3f} ms) over {len(ops)} operations"
    )
    lines.append(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    metrics = {
        "op_ms_p50": (ms(p50(ops)), "ms"),
        "op_ms_p90": (ms(p90(ops)), "ms"),
        "setup_s": (statistics.median(setups.scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {"lines": lines, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--trace-out", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the engine from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from layers import traced

    spec = SPEC["workloads"][args.workload]
    params = spec["smoke" if args.smoke else "params"]
    run = SPEC["run"]
    prefix = "smoke_" if args.smoke else ""
    cfg = {
        "setups": run[prefix + "setups"],
        "min_ops": run[prefix + "min_ops"],
        "aux_repeats": run[prefix + "aux_repeats"],
    }
    workload = workloads.make(args.workload, params, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, params {json.dumps(params)}")
    result = (traced if args.trace else end_to_end)(workload, args, cfg, started)
    for line in result["lines"]:
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
