"""Measurement helpers shared by the untraced and the traced run:
percentiles, the measuring window, set-up and the operation loops."""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from typing import Dict, List

#: Measuring stops here whatever the window, so a run ends well inside
#: the 180 s it may take.
HARD_STOP_S = 140.0

#: Per-operation counters read off ``EvaluationStats`` (maintain: off the
#: per-operation delta of ``MaterializedProgram.stats``).
STAT_COUNTERS = {
    "evaluator.steps": "steps",
    "evaluator.valuations_considered": "valuations_considered",
    "evaluator.facts_added": "facts_added",
    "evaluator.rules_skipped_clean": "rules_skipped_clean",
    "evaluator.schedule_fallbacks": "schedule_fallbacks",
    "planner.plans_costed": "plans_costed",
    "planner.plan_replans": "plan_replans",
    "planner.estimate_drifts": "estimate_drifts",
    "indexes.probes": "index_probes",
    "indexes.scans_avoided": "index_scans_avoided",
    "compile.rules_compiled": "rules_compiled",
    "compile.fallbacks": "compile_fallbacks",
    "invention.oids_invented": "oids_invented",
    "ivm.supports_adjusted": "supports_adjusted",
    "ivm.overdeleted": "overdeleted",
    "ivm.rederived": "rederived",
    "ivm.maintenance_fallbacks": "maintenance_fallbacks",
    "plan_cache_hits": "plan_cache_hits",
    "plan_cache_misses": "plan_cache_misses",
    "compile_seconds": "compile_time",
}


def ms(seconds: float) -> float:
    return seconds * 1000.0


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stat_snapshot(stats) -> Dict[str, float]:
    # getattr: a counter an engine version no longer keeps reads as 0.
    return {key: float(getattr(stats, field, 0) or 0) for key, field in STAT_COUNTERS.items()}


class Clock:
    """The measuring window: at least ``seconds`` and ``min_ops``
    operations, never past the hard stop."""

    def __init__(self, seconds: float, min_ops: int, started: float):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.min_ops = min_ops
        self.hard_stop = started + HARD_STOP_S

    def share(self) -> float:
        """The share of the window gone by."""
        return (time.perf_counter() - self.start) / self.seconds

    def more(self, done: int) -> bool:
        now = time.perf_counter()
        if now >= self.hard_stop:
            return False
        return now - self.start < self.seconds or done < self.min_ops


# -- host speed ----------------------------------------------------------------------
#
# On a shared host the CPU's speed drifts in phases of seconds by up to
# half its value (a fixed pure-Python loop measured 22 ms in one phase and
# 33 ms in the next), which moved the median latency of identical runs by
# ~30%. Every timed interval is therefore scaled by the host's current
# speed: a fixed loop that allocates nothing (so it never triggers the
# garbage collector) is timed right before and right after each
# operation, and the interval is reported in milliseconds at the speed at
# which that loop takes REFERENCE_CAL_S. The raw wall times are printed too.

#: Iterations of the calibration loop (about 5 ms).
CAL_LOOPS = 60_000

#: The calibration loop's time on an idle 2-CPU 2.1 GHz host.
REFERENCE_CAL_S = 0.0045


def calibrate() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


class HostSpeed:
    """Scale factors for consecutive intervals, each from the calibration
    loops just before and just after it."""

    def __init__(self) -> None:
        self.last = calibrate()

    def factor(self) -> float:
        now = calibrate()
        factor = REFERENCE_CAL_S / ((self.last + now) / 2)
        self.last = now
        return factor


# -- set-up --------------------------------------------------------------------------


class SetUps:
    """``repeats`` set-ups of a workload, each checked after its timing.

    The first runs at once and leaves the engine the operations use. The
    others run when :meth:`due` finds their time in the measuring window
    has come, at even intervals, each replacing the live engine, so that
    their median samples the same host phases as the operations do; the
    host's speed drifts within a window (see above)."""

    def __init__(self, workload, tracer, repeats: int):
        self.workload = workload
        self.tracer = tracer
        self.repeats = repeats
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self.run()

    def run(self) -> None:
        gc.collect()
        speed = HostSpeed()
        self.tracer.op = f"setup{len(self.raw)}"
        with self.tracer.span("setup") as span:
            answer = self.workload.setup(self.tracer)
        self.raw.append(span["end"] - span["start"])
        self.scaled.append(self.raw[-1] * speed.factor())
        if not self.workload.check(answer):
            raise AssertionError(f"{self.workload.name}: the first answer is wrong")

    def due(self, clock: "Clock") -> bool:
        """Run the set-ups due by now in ``clock``'s window; true if any ran."""
        ran = False
        while len(self.raw) < self.repeats and clock.share() >= len(self.raw) / self.repeats:
            self.run()
            ran = True
        return ran

    def finish(self) -> "SetUps":
        while len(self.raw) < self.repeats:
            self.run()
        return self


# -- operation loops -----------------------------------------------------------------


def timed_query(workload, source):
    """One untraced query: the result and its wall seconds."""
    from repro import evaluate_full

    started = time.perf_counter()
    result = evaluate_full(workload.program, source)
    return result, time.perf_counter() - started


def query_loop(workload, clock: Clock, setups: SetUps, run=timed_query):
    """Query operations, with the set-ups that fall due between them;
    every answer is checked after its timing. Returns raw and scaled
    latencies and the failure count."""
    raw: List[float] = []
    scaled: List[float] = []
    failed = 0
    speed = HostSpeed()
    while clock.more(len(raw)):
        if setups.due(clock):
            speed = HostSpeed()
        # Every operation starts from the same collector state; the
        # collections it triggers itself stay inside its time.
        gc.collect()
        source = workload.instance.copy()
        try:
            result, seconds = run(workload, source)
        except Exception as exc:  # an engine error fails the operation
            print(f"operation raised: {exc!r}", file=sys.stderr)
            failed += 1
            speed = HostSpeed()
            continue
        raw.append(seconds)
        scaled.append(seconds * speed.factor())
        if not workload.check(result):
            failed += 1
    return raw, scaled, failed


def timed_batches(workload, gone, new):
    """One untraced maintenance operation: the delete and the insert
    batch's wall seconds. The garbage the delete leaves is collected
    between the two, outside both timings."""
    mp = workload.mp
    t0 = time.perf_counter()
    mp.apply_delta(deletes=[gone])
    deleted = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    mp.apply_delta(inserts=[new])
    return deleted, time.perf_counter() - t0


def maintain_loop(workload, clock: Clock, setups: SetUps, run=timed_batches):
    """Delete-then-insert operations; the live fixpoint is checked every
    ``check_every`` operations, and a failed check fails every operation
    since the previous one. Set-ups that fall due run right after a check,
    so no operation goes unchecked. Returns raw and scaled delete and
    insert batch times and the failure count."""
    every = workload.params["check_every"]
    times: Dict[str, List[float]] = {
        "delete": [], "insert": [], "delete_scaled": [], "insert_scaled": []
    }
    failed = unchecked = 0
    speed = HostSpeed()
    while clock.more(len(times["delete"])):
        gone, new = map(workload.fact, workload.next_update())
        gc.collect()
        try:
            deleted, inserted = run(workload, gone, new)
        except Exception as exc:  # an engine error fails the operation
            print(f"operation raised: {exc!r}", file=sys.stderr)
            failed += 1
            speed = HostSpeed()
            continue
        factor = speed.factor()
        times["delete"].append(deleted)
        times["insert"].append(inserted)
        times["delete_scaled"].append(deleted * factor)
        times["insert_scaled"].append(inserted * factor)
        unchecked += 1
        if unchecked >= every:
            if not workload.check_live():
                failed += unchecked
            unchecked = 0
            setups.due(clock)
            speed = HostSpeed()
    if not workload.check_final():
        failed += max(unchecked, 1)
    return times, failed
