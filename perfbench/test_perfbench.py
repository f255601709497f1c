"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import harness, run  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

TINY = harness.Sizes(
    hidden_dim=8,
    materials_samples=16,
    warmup_steps=1,
    request_pool=16,
    replay_requests=16,
    screen_candidates=16,
    screen_top_k=4,
    screen_batch=8,
    relax_steps=1,
    parent_pool=4,
    min_rounds=1,
    min_b1_calls=1,
    setup_repeats=2,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _tiny_run(tmp_path, workload="finetune-mp", trace=False):
    return run.run_benchmark(
        workload, seed=3, seconds=0.01, trace=trace, sizes=TINY, out_dir=str(tmp_path)
    )


def _expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# --------------------------------------------------------------------------- #
def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    record = _tiny_run(tmp_path, workload)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _expected("end_to_end")
    assert all(np.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    assert record["environment"]["nproc"] >= 1
    # One cold set-up in this process, one in a fresh process.
    assert len(record["setup"]["cold_s"]) == TINY.setup_repeats
    # Every timing carries the host factor of its own phase.
    samples = record["samples"]
    factors = samples["host_factors"]
    for e, steps in samples["step_s"].items():
        assert len(factors[f"step.{e}"]) == len(steps)
    for name, key in (("b1", "b1_latency_s"), ("b8", "b8_call_s"),
                      ("replay", "replay_s"), ("screen", "screen_s")):
        assert len(factors[name]) == len(samples[key])


def test_failed_or_late_set_up_process_is_left_out(tmp_path):
    sizes = dataclasses.asdict(TINY)
    late = run.cold_set_ups_in_children("finetune-mp", 3, sizes, str(tmp_path), 1, 0.0)
    assert late == ([], ["run budget spent"])
    sizes["no_such_size"] = 1
    done, skipped = run.cold_set_ups_in_children(
        "finetune-mp", 3, sizes, str(tmp_path), 1, run.time.perf_counter() + 60
    )
    assert done == [] and len(skipped) == 1 and "exited 1" in skipped[0]


def test_traced_run_emits_every_per_layer_metric_and_spans(tmp_path):
    record = _tiny_run(tmp_path, "serve-screen", trace=True)
    result = record["result"]
    assert result["correct"], record["failures"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _expected("per_layer")
    with open(os.path.join(ROOT, record["spans_file"])) as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"id", "name", "start", "end", "parent", "workload"}
    assert first["workload"] == "serve-screen"


def test_perturbed_batch8_prediction_is_counted_failed(tmp_path, monkeypatch):
    from repro.serving.servable import Servable

    original = Servable.predict

    def perturbed(self, samples):
        out = original(self, samples)
        if len(samples) == 8:
            out = out.copy()
            out[0] = np.nextafter(out[0], np.inf)
        return out

    monkeypatch.setattr(Servable, "predict", perturbed)
    result = _tiny_run(tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] > 0


def test_perturbed_ranking_is_counted_failed(tmp_path, monkeypatch):
    original = harness.run_screening
    calls = []

    def flipping(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) % 2:
            return result
        return dataclasses.replace(result, ranked=list(reversed(result.ranked)))

    monkeypatch.setattr(harness, "run_screening", flipping)
    # serve-screen runs two screening passes per round.
    result = _tiny_run(tmp_path, "serve-screen")["result"]
    assert not result["correct"]
    assert result["failed"] > 0


def test_traced_loss_mismatch_is_counted_failed():
    plain, traced, out = harness.Measured(), harness.Measured(), harness.Measured()
    plain.losses = {"egnn": [1.0, 2.0]}
    traced.losses = {"egnn": [1.0, float(np.nextafter(2.0, 3.0))]}
    harness.compare_passes(plain, traced, out)
    assert out.failed == 1 and out.attempted >= 3


def test_self_time_subtracts_child_cover():
    rec = SpanRecorder("w")
    rec.names = ["root", "a", "b", "a.child"]
    rec.starts = [0.0, 1.0, 4.0, 1.5]
    rec.ends = [10.0, 3.0, 6.0, 2.0]
    rec.parents = [-1, 0, 0, 1]
    assert rec.self_times() == pytest.approx([6.0, 1.5, 2.0, 0.5])
    totals = rec.totals()
    assert totals["root"]["total"] == pytest.approx(10.0)
    assert totals["root"]["self"] == pytest.approx(6.0)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune-mp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
