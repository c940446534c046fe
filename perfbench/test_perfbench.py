"""The benchmark's own tests: small-size smoke runs of every workload
(untraced and traced), the oracles, and the result-line contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def run_bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        BENCH["command"] + list(extra), cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(name, trace, tmp_path):
    out = tmp_path / "spans.json"
    done = run_bench(
        "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--smoke", "--trace-out", str(out),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.ops"] >= 1 and metrics["evaluator.stage_ms.0"] > 0
    assert 0.5 < metrics["evaluator.stage_coverage"] < 2.0
    doc = json.loads(out.read_text())
    assert len(doc["spans"]) == metrics["trace.spans"]
    assert {"op", "evaluator.replay", "parser.parse"} <= set(doc["summary"])
    if name.startswith("maintain_"):
        assert metrics["ivm.delete_ms_p50"] > 0 and metrics["ivm.insert_ms_p50"] > 0
    else:
        assert metrics["evaluator.run_ms"] > 0 and metrics["instance.copy_ms"] > 0


def smoke(name: str, seed: int = 5):
    return workloads.make(name, SPEC["workloads"][name]["smoke"], seed)


def test_closure_oracle_rejects_a_missing_fact():
    from repro import evaluate_full

    w = smoke("closure")
    w.setup(Tracer())
    result = evaluate_full(w.program, w.instance.copy())
    assert w.check(result)
    result.output.relations["T"].pop()
    assert not w.check(result)


def test_objects_oracle_holds_up_to_renaming_and_rejects_a_wrong_edge():
    from repro import evaluate_full
    from repro.values import OSet, OTuple

    w = smoke("objects")
    w.setup(Tracer())
    result = evaluate_full(w.program, w.instance.copy())
    assert w.check(result)
    oid = next(iter(result.output.classes["P"]))
    value = result.output.nu[oid]
    result.output.nu[oid] = OTuple(A1=value["A1"], A2=OSet())
    assert not w.check(result)


def test_maintain_oracle_rejects_a_stale_fixpoint():
    w = smoke("maintain_delete")
    w.setup(Tracer())
    assert w.check_live() and w.check_final()
    w.live.add(("l0_0", "l3_0"))  # an edge the live fixpoint never saw
    assert not w.check_live()


def test_maintain_workloads_share_their_input_and_stream():
    delete, insert = smoke("maintain_delete"), smoke("maintain_insert")
    assert (delete.timed, insert.timed) == ("delete", "insert")
    assert delete.document == insert.document
    for _ in range(6):
        assert delete.next_update() == insert.next_update()
    assert delete.live == delete.initial


def test_maintain_stream_keeps_degrees_and_returns_to_the_input():
    w = smoke("maintain_delete")
    gone, new = w.next_update()
    assert gone in w.initial and new not in w.initial and gone[0] == new[0]
    assert len(w.live) == len(w.initial)
    assert w.next_update() == (new, gone) and w.live == w.initial


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_come_from_the_seed(name):
    assert smoke(name, 7).document == smoke(name, 7).document
    assert smoke(name, 7).document != smoke(name, 8).document


def test_without_the_engine_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results"))
    done = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_spec_and_benchmark_agree():
    declared = [m["name"] for m in BENCH["per_layer"]]
    mapped = [m for layer in SPEC["layers"].values() for m in layer["metrics"]]
    assert declared == mapped
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for layer in SPEC["layers"].values():
        for metric, names in layer["moves"].items():
            assert metric in end_to_end and set(names) <= set(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: w["why"] for name, w in SPEC["workloads"].items()
    }


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    own = tracer.self_times()
    outer, inner = tracer.spans
    assert own[inner["id"]] == pytest.approx(inner["end"] - inner["start"])
    assert own[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )
