"""Shared helpers for the benchmark harness.

Every benchmark module in this directory corresponds to one experiment of
DESIGN.md's index (E1-E15) and offers two entry points:

* pytest-benchmark tests (``pytest benchmarks/ --benchmark-only``) for
  timing single configurations,
* a ``main()`` that sweeps the experiment's parameter range and prints the
  paper-style series (growth shapes, who-wins factors) — these outputs are
  recorded in EXPERIMENTS.md.

The absolute numbers are a pure-Python naive evaluator's, not the paper's
(the paper has no measured numbers at all — it is a theory paper); what
the benchmarks validate are the *shapes* the theorems predict: polynomial
scaling for IQLpr/IQLrr (Theorem 5.4), exponential blowup for powerset
(Example 3.4.2), constant small factors for the embeddings.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Callable, Sequence, Tuple

from repro.schema import Instance, Schema
from repro.values import OTuple


def edge_instance(schema: Schema, edges) -> Instance:
    return Instance(
        schema.project(["E"]),
        relations={"E": [OTuple(A01=a, A02=b) for a, b in edges]},
    )


def time_call(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    """Time one call with the cyclic collector paused (as ``timeit`` does).

    Earlier experiments in a sweep leave cyclic garbage; without the pause
    a full collection can land inside an unrelated timed region and charge
    it for tens of thousands of weakref callbacks. Refcount-driven frees
    (the common case) still happen during the call."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, result


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) — the empirical
    polynomial degree. A PTIME claim predicts a modest constant; an
    exponential blowup shows as a slope that grows with x."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    n = len(pts)
    if n < 2:
        return float("nan")
    mean_x = sum(p[0] for p in pts) / n
    mean_y = sum(p[1] for p in pts) / n
    num = sum((px - mean_x) * (py - mean_y) for px, py in pts)
    den = sum((px - mean_x) ** 2 for px, py in pts)
    return num / den if den else float("nan")


def print_series(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    print(f"\n## {title}")
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0)) for i, h in enumerate(header)]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print("  " + " | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms"
