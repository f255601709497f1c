"""The repository benchmark: one command, seeded workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload finetune-mp --seed 1 --seconds 24 --trace 0

``--trace 0`` measures with no spans and prints the end-to-end metrics;
``--trace 1`` runs the same untraced pass, then replays its exact work
with spans recorded around every layer call and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, modeled numbers, span totals) and, when traced, the
spans themselves go to ``.perfbench_out/`` under the repository root.

The exit code is 0 only when every checked output is correct.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("finetune-mp", "serve-screen")
#: The contract allows a run 180 s; the set-up processes that follow the
#: pass get what is left of this budget, so a stalled one cannot run past it.
RUN_BUDGET_S = 150


def cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_threads() -> None:
    """One BLAS/OpenMP thread unless a lower-or-equal setting is given.

    Must run before NumPy is imported; threadpoolctl is not available, so
    the environment variables are the settings.  Unset variables become 1:
    on a small shared host, a second BLAS thread competes with neighbours
    and made same-seed runs differ by up to 40%.  Settings above the CPU
    count are lowered to it.
    """
    nproc = cpu_count()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))
    # The tape compiler stays off: training runs the eager step.
    os.environ["REPRO_COMPILE"] = "0"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over ``src/`` (paths and bytes): identifies the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        from repro.kernels.dispatch import fused_enabled

        fused = bool(fused_enabled())
    except ImportError:
        fused = None
    return {
        "nproc": cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "repro_fused_env": os.environ.get("REPRO_FUSED"),
        "repro_fused": fused,
        "repro_compile_env": os.environ.get("REPRO_COMPILE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def calm_p99(latencies) -> float:
    """p99 of the calmest of three consecutive stretches of the run.

    Each stretch holds at least ``P99_STRETCH_CALLS`` calls, so at least 10
    lie beyond its p99.  Most calls beyond p99 are host stalls of about
    0.5 ms, not heavy requests, and they come in bursts lasting seconds:
    a burst lifts one or two stretches, and the calmest one keeps the tail
    the program makes on a quiet host.  A change that slows the tail of
    every call lifts every stretch, so it shows.
    """
    from perfbench.harness import P99_STRETCH_CALLS, P99_STRETCHES

    windows = max(1, min(P99_STRETCHES, len(latencies) // P99_STRETCH_CALLS))
    bounds = [len(latencies) * i // windows for i in range(windows + 1)]
    return min(_percentile(latencies[a:b], 99) for a, b in zip(bounds[:-1], bounds[1:]))


def end_to_end_metrics(measured, setup_s: float, sizes, scaled: bool = True) -> dict:
    """End-to-end figures, at the nominal host speed when ``scaled``.

    Each timing is scaled by the host factor the reference kernel measured
    around its own phase (see ``hostspeed``); ``setup_s`` comes scaled
    already.  The p99 latency is left as measured: the host's slow spells
    scale the typical call, not the rare stalls that set the tail.
    """
    from perfbench.harness import BATCH_SIZE, ENCODERS

    def median(name: str, times) -> float:
        if scaled:
            times = [t * f for t, f in zip(times, measured.factors[name])]
        return statistics.median(times)

    metrics = {}
    steps = {e: median(f"step.{e}", measured.step_times[e]) for e in ENCODERS}
    metrics["train.samples_per_s"] = _metric(
        len(ENCODERS) * BATCH_SIZE / sum(steps.values()), "1/s"
    )
    for e in ENCODERS:
        metrics[f"train.{e}.samples_per_s"] = _metric(BATCH_SIZE / steps[e], "1/s")
    metrics["serve.b1.p50_ms"] = _metric(median("b1", measured.b1_latency) * 1e3, "ms")
    metrics["serve.b1.p99_ms"] = _metric(calm_p99(measured.b1_latency) * 1e3, "ms")
    metrics["serve.b8.requests_per_s"] = _metric(
        8 / median("b8", measured.b8_call_time), "1/s"
    )
    metrics["serve.replay.requests_per_s"] = _metric(
        sizes.replay_requests / median("replay", measured.replay_time), "1/s"
    )
    metrics["screen.candidates_per_s"] = _metric(
        sizes.screen_candidates / median("screen", measured.screen_time), "1/s"
    )
    metrics["setup_s"] = _metric(setup_s, "s")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return metrics


def per_layer_metrics(recorder, traced, plain, replay_requests: int) -> dict:
    """Per-layer figures from the traced pass's spans and counts.

    Times are scaled to the nominal host speed by the traced pass's host
    factor; the overhead compares the two passes, each at nominal speed.
    """
    from perfbench.harness import ENCODERS, NUM_LAYERS
    from perfbench.hostspeed import host_factor

    totals = recorder.totals()

    def total(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    metrics = {}
    steps = {e: len(traced.step_times[e]) for e in ENCODERS}
    all_steps = sum(steps.values())
    featurize = sum(total(f"data.{e}.featurize") for e in ENCODERS)
    featurized = sum(calls(f"data.{e}.featurize") for e in ENCODERS)
    metrics["data.featurize_us_per_graph"] = _metric(featurize / featurized * 1e6, "us")
    metrics["data.load_ms_per_step"] = _metric(
        sum(total(f"data.{e}.load") for e in ENCODERS) / all_steps * 1e3, "ms"
    )
    metrics["data.collate_ms_per_step"] = _metric(
        sum(total(f"data.{e}.collate") for e in ENCODERS) / all_steps * 1e3, "ms"
    )
    metrics["data.nodes_per_step"] = _metric(recorder.counts["data.nodes"] / all_steps, "count")
    metrics["data.edges_per_step"] = _metric(recorder.counts["data.edges"] / all_steps, "count")

    coverage = []
    for e in ENCODERS:
        n = steps[e]
        per_step = {
            f"models.{e}.embed_fwd_ms": total(f"models.{e}.embed"),
            **{
                f"models.{e}.block{i}_fwd_ms": total(f"models.{e}.block{i}")
                for i in range(NUM_LAYERS)
            },
            f"models.{e}.readout_fwd_ms": own(f"models.{e}.encoder"),
            f"tasks.{e}.head_fwd_ms": total(f"tasks.{e}.head"),
            f"tasks.{e}.loss_fwd_ms": own(f"tasks.{e}.step"),
            f"autograd.{e}.backward_ms": total(f"autograd.{e}.backward"),
            f"optim.{e}.step_ms": total(f"optim.{e}.step"),
        }
        for name, seconds in per_step.items():
            metrics[name] = _metric(seconds / n * 1e3, "ms")
        metrics[f"models.{e}.activation_bytes"] = _metric(
            recorder.counts[f"models.{e}.activation_bytes"] / n, "bytes"
        )
        step = f"train.{e}.step"
        coverage.append(1.0 - own(step) / total(step))

    b1_requests = calls("serve.b1.call")
    b8_requests = 8 * calls("serve.b8.call")
    requests = b1_requests + b8_requests
    metrics["serving.featurize_us_per_request"] = _metric(
        (total("serving.b1.featurize") + total("serving.b8.featurize")) / requests * 1e6, "us"
    )
    metrics["serving.collate_us_per_request"] = _metric(
        (own("serving.b1.predict") + own("serving.b8.predict")) / requests * 1e6, "us"
    )
    metrics["serving.forward_us_per_request.b1"] = _metric(
        total("serving.b1.forward") / b1_requests * 1e6, "us"
    )
    metrics["serving.forward_us_per_request.b8"] = _metric(
        total("serving.b8.forward") / b8_requests * 1e6, "us"
    )
    replayed = len(traced.replay_time) * replay_requests
    metrics["serving.loop_us_per_request"] = _metric(
        (total("serve.replay.run") - total("serving.replay.predict")) / replayed * 1e6, "us"
    )
    metrics["serving.mean_batch_size"] = _metric(
        statistics.mean(traced.replay_batch), "count"
    )

    candidates = traced.screen_offered
    stages = ("generate", "featurize", "relax", "predict", "rank")
    for stage in stages:
        metrics[f"screening.{stage}_us_per_candidate"] = _metric(
            total(f"screening.{stage}") / candidates * 1e6, "us"
        )
    metrics["screening.topk_admit_ratio"] = _metric(
        traced.screen_admitted / candidates, "ratio"
    )
    factor = host_factor(traced.probe_s)
    for metric in metrics.values():
        if metric["unit"] in ("ms", "us"):
            metric["value"] *= factor
    metrics["trace.overhead_pct"] = _metric(
        100.0 * traced.elapsed * factor / (plain.elapsed * host_factor(plain.probe_s)), "%"
    )
    metrics["trace.train_coverage_pct"] = _metric(100.0 * min(coverage), "%")
    metrics["trace.screen_coverage_pct"] = _metric(
        100.0 * sum(total(f"screening.{s}") for s in stages) / total("screening.run"), "%"
    )
    return metrics


# --------------------------------------------------------------------------- #
def cold_set_up(seed: int, sizes: dict, workdir: str):
    """Import the program and set up one rig, as a fresh process does first.

    ``sizes`` holds the fields of ``harness.Sizes`` (empty for the
    defaults); it is a dict so that nothing imports the program before the
    clock starts.  Returns the rig, the wall time from the first import of
    the program to the warm rig, and the host factor sampled meanwhile.
    Every one-off cost of a process (imports, first calls, the generator's
    parent pool) lands in that time.
    """
    from perfbench.hostspeed import HostProbe, host_factor

    probe = HostProbe()
    t0 = time.perf_counter()
    from perfbench.harness import Sizes, set_up

    rig = set_up(seed, Sizes(**sizes), workdir, probe)
    return rig, time.perf_counter() - t0, host_factor(probe.samples)


def cold_set_ups_in_children(workload: str, seed: int, sizes: dict, workdir: str,
                              count: int, deadline: float):
    """Up to ``count`` ``cold_set_up``s, each in a fresh Python process.

    Returns the (seconds, factor) of each that finished before ``deadline``
    (a ``time.perf_counter`` value) and a note for each that did not.  A
    set-up process that fails or stalls is left out, not fatal: the
    measuring process ran the same set-up and the checked pass after it,
    so what is left out is the host's trouble, not the program's.
    """
    payload = {"sizes": sizes, "workdir": workdir}
    done, skipped = [], []
    for _ in range(count):
        left = deadline - time.perf_counter()
        if left <= 0:
            skipped.append("run budget spent")
            continue
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--setup-child", json.dumps(payload)],
                cwd=ROOT, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            skipped.append(f"set-up process killed after {left:.1f} s")
            continue
        if proc.returncode != 0:
            skipped.append(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        done.append((child["seconds"], child["host_factor"]))
    return done, skipped


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes=None, out_dir: str = OUT_DIR) -> dict:
    """Set up, measure, check; returns the result record (see module doc).

    ``setup_s`` is the median of ``sizes.setup_repeats`` cold set-ups, each
    scaled by its own host factor: this process's own, then, after the
    pass, the others in fresh processes (untraced runs only; traced runs do
    not report it).
    """
    started = time.perf_counter()
    fields = dataclasses.asdict(sizes) if sizes is not None else {}
    os.makedirs(out_dir, exist_ok=True)
    rig, took, factor = cold_set_up(seed, fields, out_dir)
    sizes = rig.sizes
    cold = [(took, factor)]

    from perfbench.harness import WORKLOADS, Measured, compare_passes, drive, instrument, set_up
    from perfbench.hostspeed import HostProbe, host_factor
    from perfbench.spans import SpanRecorder

    mix = WORKLOADS[workload]
    env = environment()
    plain = drive(rig, mix, seconds=seconds)
    checks = Measured()
    checks.attempted, checks.failed = plain.attempted, plain.failed
    checks.failures = list(plain.failures)
    # The pass is done with the rig: a traced run builds another one.
    del rig
    skipped = []
    if not trace:
        more, skipped = cold_set_ups_in_children(
            workload, seed, fields, out_dir, sizes.setup_repeats - 1, started + RUN_BUDGET_S
        )
        cold += more
        for note in skipped:
            print(f"perfbench: cold set-up left out: {note}", file=sys.stderr)
    setup_s = statistics.median(t * f for t, f in cold)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "setup": {
            "note": "cold set-ups, the first in this process, the rest in fresh ones",
            "cold_s": [t for t, _ in cold],
            "cold_host_factor": [f for _, f in cold],
            "left_out": skipped,
        },
        "rounds": plain.rounds,
        "steps": {e: len(t) for e, t in plain.step_times.items()},
        "b1_calls": len(plain.b1_latency),
        "modeled": {
            "note": "simulated-clock serving numbers; not measurements",
            "replay_sim_throughput_req_per_s": statistics.median(
                plain.replay_modeled_throughput
            ),
        },
    }
    record["host_factor"] = host_factor(plain.probe_s)
    if not trace:
        metrics = end_to_end_metrics(plain, setup_s, sizes)
        record["unscaled_metrics"] = end_to_end_metrics(
            plain, statistics.median(t for t, _ in cold), sizes, scaled=False
        )
    else:
        # The traced pass replays the untraced one on a fresh rig from the
        # same seed.
        t0 = time.perf_counter()
        rig = set_up(seed, sizes, out_dir, HostProbe())
        record["setup"]["traced_rig_warm_s"] = time.perf_counter() - t0
        recorder = SpanRecorder(workload)
        instrument(rig, recorder)
        traced = drive(rig, mix, rounds=plain.rounds, recorder=recorder)
        checks.attempted += traced.attempted
        checks.failed += traced.failed
        checks.failures += traced.failures
        compare_passes(plain, traced, checks)
        metrics = per_layer_metrics(recorder, traced, plain, sizes.replay_requests)
        spans_path = os.path.join(out_dir, f"{workload}-seed{seed}-spans.jsonl")
        recorder.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["span_totals_s"] = recorder.totals()
        record["activation_bytes_note"] = "computed from block output shapes"
    record["samples"] = {
        "round_ends_s": plain.round_ends,
        "probe_s": plain.probe_s,
        "host_factors": plain.factors,
        "step_s": plain.step_times,
        "b1_latency_s": plain.b1_latency,
        "b8_call_s": plain.b8_call_time,
        "replay_s": plain.replay_time,
        "screen_s": plain.screen_time,
    }
    record["failures"] = checks.failures
    record["result"] = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return record


def _setup_child(seed: int, payload: dict) -> int:
    _, took, factor = cold_set_up(seed, payload["sizes"], payload["workdir"])
    print(json.dumps({"seconds": took, "host_factor": factor}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one cold set-up and print its time (see cold_set_ups_in_children).
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.setup_child is not None:
        return _setup_child(args.seed, json.loads(args.setup_child))
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    print(json.dumps({"environment": record["environment"]}))
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
