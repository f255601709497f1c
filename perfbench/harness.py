"""Workloads of the repository benchmark: set-up, the timed mix, checks.

Every workload drives the same public entry points the system runs:

* ``Trainer.fit`` on each of the four encoders (egnn, schnet, gaanet,
  megnet) over a shuffled loader, no validation;
* a closed-loop client calling ``Servable.prepare`` -> ``Servable.predict``
  with 1-request and 8-request calls (batch-invariant kernels);
* a seeded Poisson trace replayed through ``InferenceServer.serve``,
  timed in wall-clock time;
* ``run_screening`` with force-field relaxation.

A workload is a traffic mix: how much of each phase one *round* holds and
which dataset the encoders train on.  Rounds repeat until the time budget
is spent, so a burst of host noise lands on every phase alike, and each
metric is a median over many rounds.

Set-up (datasets, trainees, demo servable training and load, the
candidate generator and its parent pool, warm-up) is timed separately.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.data.transforms.features import TargetNormalizer
from repro.core.pipeline import make_train_loader
from repro.datasets import MaterialsProjectSurrogate
from repro.models import build_encoder
from repro.nn.containers import ModuleList
from repro.optim import AdamW
from repro.screening import (
    CandidateGenerator,
    ForceFieldRelaxer,
    ScreenConfig,
    TopK,
    run_screening,
)
from repro.serving import BatchPolicy, InferenceServer, ModelRegistry
from repro.serving.demo import DEMO_MODEL_NAME, fit_demo_servable
from repro.serving.traffic import make_requests, poisson_arrivals
from repro.tasks import ScalarRegressionTask
from repro.training import Callback, Trainer, TrainerConfig

from perfbench.hostspeed import PROBE_REPEATS, HostProbe, host_factor
from perfbench.spans import CallProxy, SpanRecorder, trace_method, traced_class_method

ENCODERS = ("egnn", "schnet", "gaanet", "megnet")
#: Encoder depth and batch size of every trainee; the per-layer metrics
#: name blocks 0..NUM_LAYERS-1.
NUM_LAYERS = 3
BATCH_SIZE = 16
#: Replay traffic: Poisson arrivals per simulated second, and the server's
#: batching policy (full at 8, or 10 ms after the oldest arrival).
REPLAY_RATE = 400.0
REPLAY_MAX_BATCH = 8
REPLAY_MAX_WAIT = 0.01
#: Replays cycle through this many arrival traces, consecutive stretches of
#: one seeded Poisson stream.  With a single trace per seed, the replay
#: figure followed how that trace bunched its arrivals (correlation 0.6-0.7
#: with its simulated-clock throughput over ten seeds); the median over
#: several traces does not hinge on one.
REPLAY_TRACES = 8
#: Graph cutoff of the finetuning workflow (repro.core.workflows).
MATERIALS_CUTOFF = 4.5
#: Seed of the fixed training corpus.
CORPUS_SEED = 0
#: Request structures are candidates from this index on, disjoint from
#: the candidates the screening phase ranks.
REQUEST_INDEX_BASE = 1_000_000
#: Plain callables an encoder holds for edge featurization; their time is
#: booked to the embedding stage.
EDGE_FEATURIZERS = ("smearing", "features")
#: ``serve.b1.p99_ms`` splits a pass's batch-1 calls into ``P99_STRETCHES``
#: consecutive stretches of at least ``P99_STRETCH_CALLS`` calls, so at
#: least 10 lie beyond each stretch's p99.
P99_STRETCH_CALLS = 1000
P99_STRETCHES = 3


@dataclass(frozen=True)
class Sizes:
    """Problem sizes shared by every workload; the tests run them shrunk."""

    hidden_dim: int = 32
    materials_samples: int = 64
    warmup_steps: int = 3
    request_pool: int = 512
    replay_requests: int = 256
    screen_candidates: int = 128
    screen_top_k: int = 8
    screen_batch: int = 16
    relax_steps: int = 4
    parent_pool: int = 32
    min_rounds: int = 3
    #: A pass also runs until it has timed this many batch-1 calls.
    min_b1_calls: int = P99_STRETCHES * P99_STRETCH_CALLS
    #: Cold set-ups (each in a fresh process) behind ``setup_s``.
    setup_repeats: int = 3


@dataclass(frozen=True)
class Mix:
    """One round of a workload: the work each phase does in it.

    Every workload runs every phase, so every metric is measured on every
    workload; the mix decides which phase holds most of the time.
    """

    train_steps: int  # per encoder
    b1_calls: int
    b8_calls: int
    replays: int
    screens: int


#: Each mix makes about 3,000 batch-1 calls or more in a 24-second run (the
#: three p99 stretches) and keeps most of a round on the phase
#: the workload is named after.
WORKLOADS: Dict[str, Mix] = {
    "finetune-mp": Mix(train_steps=6, b1_calls=112, b8_calls=16, replays=1, screens=1),
    "serve-screen": Mix(train_steps=2, b1_calls=160, b8_calls=32, replays=2, screens=2),
}


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
@dataclass
class Trainee:
    name: str
    task: object
    optimizer: AdamW
    loader: object


@dataclass
class Rig:
    """Everything one measured pass needs, built from the seed alone."""

    trainees: List[Trainee]
    servable: object
    relaxer: ForceFieldRelaxer
    generator: CandidateGenerator
    screen_config: ScreenConfig
    requests: List[object]  # raw request structures
    graphs: List[object]  # the same requests, prepared
    reference: List[np.ndarray]  # batch-1 prediction of each request
    traces: List[np.ndarray]  # replay arrival times, each from 0
    sizes: Sizes


def _training_data(sizes: Sizes):
    """The band-gap corpus, the task head and the graph transform.

    The corpus is the same for every seed, like a fixed benchmark
    dataset, so the figures do not hinge on which graphs a seed happened
    to draw.  The seed drives the shuffle order and the initialisation.
    """
    data = MaterialsProjectSurrogate(sizes.materials_samples, seed=CORPUS_SEED).materialize()
    normalizer = TargetNormalizer(["band_gap"]).fit(data[i] for i in range(len(data)))

    def make_task(encoder, rng):
        return ScalarRegressionTask(
            encoder, target="band_gap", hidden_dim=sizes.hidden_dim,
            num_blocks=2, normalizer=normalizer, rng=rng,
        )

    return data, StructureToGraph(cutoff=MATERIALS_CUTOFF), make_task


def _encoder_kwargs(name: str, sizes: Sizes) -> dict:
    kwargs = {"hidden_dim": sizes.hidden_dim, "num_layers": NUM_LAYERS}
    if name == "egnn":
        kwargs["position_dim"] = 16
    return kwargs


def set_up(seed: int, sizes: Sizes, workdir: str, probe: HostProbe) -> Rig:
    """Build and warm one rig; a pure function of (seed, sizes).

    ``probe`` is sampled between the set-up stages, so that the set-up time
    can be scaled to the nominal host speed like the pass's timings.
    """
    probe.sample()
    data, transform, make_task = _training_data(sizes)
    trainees = []
    for offset, name in enumerate(ENCODERS):
        rng = np.random.default_rng((seed, offset))
        encoder = build_encoder(name, rng=rng, **_encoder_kwargs(name, sizes))
        task = make_task(encoder, rng)
        trainees.append(
            Trainee(
                name=name,
                task=task,
                optimizer=AdamW(task.parameters(), lr=1e-3, weight_decay=1e-4),
                loader=make_train_loader(data, BATCH_SIZE, transform, seed=seed + offset),
            )
        )

    probe.sample()
    registry_root = tempfile.mkdtemp(prefix="servable-", dir=workdir)
    try:
        fit_demo_servable(registry_root)
        servable = ModelRegistry(registry_root).load(DEMO_MODEL_NAME)
    finally:
        shutil.rmtree(registry_root, ignore_errors=True)

    probe.sample()
    generator = CandidateGenerator(seed=seed, base_samples=sizes.parent_pool)
    screen_config = ScreenConfig(
        n_candidates=sizes.screen_candidates,
        top_k=sizes.screen_top_k,
        batch_size=sizes.screen_batch,
        relax_steps=sizes.relax_steps,
        seed=seed,
        base_samples=sizes.parent_pool,
    )
    relaxer = ForceFieldRelaxer.from_spec(
        servable.spec, step_size=screen_config.relax_step_size
    )
    requests = [
        generator.candidate(REQUEST_INDEX_BASE + i).structure
        for i in range(sizes.request_pool)
    ]
    graphs = [servable.prepare(s) for s in requests]
    rig = Rig(
        trainees=trainees,
        servable=servable,
        relaxer=relaxer,
        generator=generator,
        screen_config=screen_config,
        requests=requests,
        graphs=graphs,
        reference=[servable.predict([g]) for g in graphs],
        traces=_arrival_traces(seed, sizes.replay_requests),
        sizes=sizes,
    )
    probe.sample()
    _warm_up(rig)
    probe.sample()
    return rig


def _arrival_traces(seed: int, requests: int) -> List[np.ndarray]:
    """``REPLAY_TRACES`` consecutive stretches of one stream, each from 0."""
    stream = poisson_arrivals(REPLAY_RATE, REPLAY_TRACES * requests, seed=seed)
    starts = np.concatenate([[0.0], stream[requests - 1:-1:requests]])
    return [stream[k * requests:(k + 1) * requests] - starts[k] for k in range(REPLAY_TRACES)]


def _warm_up(rig: Rig) -> None:
    """First calls in a process run several times slower; pay them here.

    Training warm-up steps change the trainees' state, but identically in
    every rig built from the same seed.  The screening pass fills the
    generator's parent pool.
    """
    for trainee in rig.trainees:
        _fit(trainee, rig.sizes.warmup_steps, callbacks=[])
    rig.servable.predict(rig.graphs[:8])
    server, requests = _replay(rig, 0)
    server.serve(requests)
    run_screening(rig.servable, rig.screen_config, relaxer=rig.relaxer, generator=rig.generator)


def _fit(trainee: Trainee, steps: int, callbacks, collate_fn=collate_graphs) -> None:
    trainer = Trainer(
        TrainerConfig(max_epochs=10**9, max_steps=steps),
        callbacks=callbacks,
        collate_fn=collate_fn,
    )
    trainer.fit(trainee.task, trainee.loader, None, trainee.optimizer)


def _replay(rig: Rig, trace: int):
    """A fresh server and a replay trace (built outside the timed region)."""
    requests = make_requests(rig.graphs, rig.traces[trace % len(rig.traces)], num_clients=1)
    server = InferenceServer(
        rig.servable,
        batch=BatchPolicy(max_batch_size=REPLAY_MAX_BATCH, max_wait=REPLAY_MAX_WAIT),
    )
    return server, requests


# --------------------------------------------------------------------------- #
# The timed mix
# --------------------------------------------------------------------------- #
@dataclass
class Measured:
    """Raw observations of one pass over the mix."""

    rounds: int = 0
    elapsed: float = 0.0
    round_ends: List[float] = field(default_factory=list)
    #: Reference-kernel times taken between the phases (see hostspeed).
    probe_s: List[float] = field(default_factory=list)
    #: Per timed series (``step.<encoder>``, ``b1``, ``b8``, ``replay``,
    #: ``screen``), the host factor around the phase each timing came from.
    factors: Dict[str, List[float]] = field(default_factory=dict)
    step_times: Dict[str, List[float]] = field(default_factory=dict)
    losses: Dict[str, List[float]] = field(default_factory=dict)
    b1_latency: List[float] = field(default_factory=list)
    b8_call_time: List[float] = field(default_factory=list)
    replay_time: List[float] = field(default_factory=list)
    replay_batch: List[float] = field(default_factory=list)
    replay_modeled_throughput: List[float] = field(default_factory=list)
    screen_time: List[float] = field(default_factory=list)
    screen_offered: int = 0
    screen_admitted: int = 0
    rankings: List[list] = field(default_factory=list)
    #: Prediction per request-pool index, from this pass's batch-1 calls.
    predictions: Dict[int, np.ndarray] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class _StepClock(Callback):
    """Per-step wall time and loss; optionally a ``step`` span per step.

    A step runs from the end of the previous one (or the start of ``fit``)
    to ``on_step_end``, so loader fetches and epoch turnover are inside it.
    """

    def __init__(self, times: List[float], losses: List[float],
                 recorder: Optional[SpanRecorder] = None, span_name: str = ""):
        self.times = times
        self.losses = losses
        self.recorder = recorder
        self.span_name = span_name
        self._last = 0.0
        self._open = -1

    def on_train_start(self, trainer, task) -> None:
        if self.recorder is not None:
            self._open = self.recorder.open(self.span_name)
        self._last = time.perf_counter()

    def on_step_end(self, trainer, task, step, loss, metrics) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last)
        self.losses.append(loss)
        if self.recorder is not None:
            self.recorder.close(self._open)
            self._open = self.recorder.open(self.span_name)
        self._last = time.perf_counter()

    def on_train_end(self, trainer, task) -> None:
        if self.recorder is not None:
            self.recorder.abandon(self._open)


class _TracedLoader:
    """Iterates a loader, recording each fetch as a span."""

    def __init__(self, loader, recorder: SpanRecorder, name: str):
        self._loader = loader
        self._recorder = recorder
        self._name = name

    def __getattr__(self, attr):
        return getattr(self._loader, attr)

    def __iter__(self):
        it = iter(self._loader)
        while True:
            index = self._recorder.open(self._name)
            try:
                samples = next(it)
            except StopIteration:
                self._recorder.close(index)
                return
            self._recorder.close(index)
            yield samples


def _output_bytes(result) -> int:
    parts = result if isinstance(result, tuple) else (result,)
    return sum(p.data.nbytes for p in parts if isinstance(p, Tensor))


def instrument(rig: Rig, recorder: SpanRecorder) -> None:
    """Shadow the rig's layer entry points with traced instance attributes."""
    for trainee in rig.trainees:
        e = trainee.name
        loader = trainee.loader
        loader.transform = recorder.wrap(loader.transform, f"data.{e}.featurize")
        trainee.loader = _TracedLoader(loader, recorder, f"data.{e}.load")
        trace_method(recorder, trainee.task, "training_step", f"tasks.{e}.step")
        trace_method(recorder, trainee.task.head, "forward", f"tasks.{e}.head")
        trace_method(recorder, trainee.optimizer, "step", f"optim.{e}.step")
        encoder = trainee.task.encoder
        trace_method(recorder, encoder, "forward", f"models.{e}.encoder")
        for child, module in encoder._modules.items():
            if isinstance(module, ModuleList):
                for i, block in enumerate(module):
                    name = f"models.{e}.block{i}"
                    trace_method(
                        recorder, block, "forward", name,
                        after=lambda out, e=e: recorder.count(
                            f"models.{e}.activation_bytes", _output_bytes(out)
                        ),
                    )
            elif child.endswith("embedding"):
                trace_method(recorder, module, "forward", f"models.{e}.embed")
        for attr in EDGE_FEATURIZERS:
            target = getattr(encoder, attr, None)
            if target is not None:
                object.__setattr__(
                    encoder, attr,
                    CallProxy(target, recorder.wrap(target, f"models.{e}.embed")),
                )
    trace_method(recorder, rig.generator, "candidate", "screening.generate")
    trace_method(recorder, rig.relaxer, "relax", "screening.relax")


def _trace_servable(rig: Rig, recorder: SpanRecorder, phase: str) -> None:
    servable = rig.servable
    trace_method(recorder, servable, "prepare", f"{phase}.featurize")
    trace_method(recorder, servable, "predict", f"{phase}.predict")
    trace_method(recorder, servable, "predict_batch", f"{phase}.forward")


def _span(recorder: Optional[SpanRecorder], name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _patched(recorder: Optional[SpanRecorder], cls, attr: str, name: str):
    if recorder is None:
        return contextlib.nullcontext()
    return traced_class_method(recorder, cls, attr, name)


def _train(rig: Rig, mix: Mix, out: Measured, recorder) -> None:
    """A few ``Trainer.fit`` steps on each encoder in turn."""
    for trainee in rig.trainees:
        e = trainee.name
        clock = _StepClock(out.step_times[e], out.losses[e], recorder, f"train.{e}.step")
        collate = collate_graphs
        if recorder is not None:
            collate = recorder.wrap(_counting_collate(recorder), f"data.{e}.collate")
        with _patched(recorder, Tensor, "backward", f"autograd.{e}.backward"):
            _fit(trainee, mix.train_steps, [clock], collate_fn=collate)


def _closed_loop(rig: Rig, calls: int, size: int, cursor: int, out: Measured,
                 recorder, times: List[float]) -> int:
    """``calls`` closed-loop calls of ``size`` requests; returns the new cursor.

    The first call of a burst re-warms caches after the other phases; it
    is checked but not timed.
    """
    pool = len(rig.requests)
    if recorder is not None:
        _trace_servable(rig, recorder, f"serving.b{size}")
    for call in range(calls + 1):
        idx = [(cursor + k) % pool for k in range(size)]
        cursor += size
        with _span(recorder, f"serve.b{size}.call"):
            t0 = time.perf_counter()
            values = rig.servable.predict([rig.servable.prepare(rig.requests[i]) for i in idx])
            took = time.perf_counter() - t0
        if call:
            times.append(took)
        for i, value in zip(idx, values):
            if size == 1:
                out.predictions[i] = value
            out.check(
                np.array_equal(value, rig.reference[i][0]),
                f"batch-{size} request {i} != its batch-1 prediction",
            )
    return cursor


def _replay_phase(rig: Rig, replays: int, out: Measured, recorder) -> None:
    """Replays of the seeded Poisson trace through ``InferenceServer.serve``."""
    if recorder is not None:
        _trace_servable(rig, recorder, "serving.replay")
    for _ in range(replays):
        server, requests = _replay(rig, len(out.replay_time))
        with _span(recorder, "serve.replay.run"):
            t0 = time.perf_counter()
            report = server.serve(requests)
            out.replay_time.append(time.perf_counter() - t0)
        out.replay_batch.append(report.mean_batch_size)
        out.replay_modeled_throughput.append(report.throughput)
        out.check(report.ok == len(requests), "replay: not every request answered ok")
        for response in report.responses:
            ref = rig.reference[response.request_id % len(rig.requests)]
            out.check(
                response.ok and np.array_equal(np.float64(response.value), ref[0]),
                f"replayed request {response.request_id} != its batch-1 prediction",
            )


def _screen(rig: Rig, screens: int, out: Measured, recorder) -> None:
    """``run_screening`` passes; every pass must rank like the first."""
    if recorder is not None:
        _trace_servable(rig, recorder, "screening")
    for _ in range(screens):
        with _span(recorder, "screening.run"), _patched(recorder, TopK, "offer", "screening.rank"):
            t0 = time.perf_counter()
            result = run_screening(
                rig.servable, rig.screen_config, relaxer=rig.relaxer, generator=rig.generator
            )
            out.screen_time.append(time.perf_counter() - t0)
        out.screen_offered += result.candidates
        out.screen_admitted += result.admitted
        ranking = [entry.key for entry in result.ranked]
        out.check(
            not out.rankings or ranking == out.rankings[0],
            "screening ranking changed between passes",
        )
        out.rankings.append(ranking)


def drive(
    rig: Rig,
    mix: Mix,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    recorder: Optional[SpanRecorder] = None,
) -> Measured:
    """Repeat rounds of ``mix`` for ``seconds`` (or exactly ``rounds``).

    A timed pass also runs at least ``sizes.min_rounds`` rounds and
    ``sizes.min_b1_calls`` timed batch-1 calls.

    The host probe is sampled between the phases (see hostspeed).
    """
    out = Measured()
    series = {"b1": out.b1_latency, "b8": out.b8_call_time,
              "replay": out.replay_time, "screen": out.screen_time}
    for trainee in rig.trainees:
        out.step_times[trainee.name] = []
        out.losses[trainee.name] = []
        series[f"step.{trainee.name}"] = out.step_times[trainee.name]
    probe = HostProbe()
    out.probe_s = probe.samples

    def phase(names, run, *args):
        """``run(*args)``; books the host factor around it to its timings."""
        lengths = [len(series[n]) for n in names]
        before = probe.samples[-PROBE_REPEATS:]
        result = run(*args)
        probe.sample()
        factor = host_factor(before + probe.samples[-PROBE_REPEATS:])
        for name, length in zip(names, lengths):
            out.factors.setdefault(name, []).extend([factor] * (len(series[name]) - length))
        return result

    train = [f"step.{t.name}" for t in rig.trainees]
    cursor = 0
    start = time.perf_counter()
    probe.sample()
    while True:
        phase(train, _train, rig, mix, out, recorder)
        cursor = phase(["b1"], _closed_loop, rig, mix.b1_calls, 1, cursor, out, recorder,
                       out.b1_latency)
        cursor = phase(["b8"], _closed_loop, rig, mix.b8_calls, 8, cursor, out, recorder,
                       out.b8_call_time)
        phase(["replay"], _replay_phase, rig, mix.replays, out, recorder)
        phase(["screen"], _screen, rig, mix.screens, out, recorder)

        out.rounds += 1
        out.elapsed = time.perf_counter() - start
        out.round_ends.append(out.elapsed)
        if rounds is not None:
            if out.rounds >= rounds:
                break
        elif (
            out.rounds >= rig.sizes.min_rounds
            and out.elapsed >= seconds
            and len(out.b1_latency) >= rig.sizes.min_b1_calls
        ):
            break

    for e, losses in out.losses.items():
        for step, loss in enumerate(losses):
            out.check(bool(np.isfinite(loss)), f"{e} step {step} loss {loss!r} not finite")
    return out


def _counting_collate(recorder: SpanRecorder):
    """``collate_graphs`` that also counts nodes and edges per batch."""

    def counted(samples):
        batch = collate_graphs(samples)
        recorder.count("data.nodes", len(batch.species))
        recorder.count("data.edges", batch.num_edges)
        return batch

    return counted


def compare_passes(plain: Measured, traced: Measured, out: Measured) -> None:
    """The traced pass must reproduce the untraced one exactly."""
    for e, losses in plain.losses.items():
        other = traced.losses[e]
        out.check(len(other) == len(losses), f"{e}: traced pass ran another step count")
        for step, (a, b) in enumerate(zip(losses, other)):
            out.check(
                np.array_equal(np.float64(a), np.float64(b)),
                f"{e} step {step}: traced loss {b!r} != untraced {a!r}",
            )
    out.check(
        len(plain.rankings) == len(traced.rankings),
        "traced pass ran another number of screening passes",
    )
    for a, b in zip(plain.rankings, traced.rankings):
        out.check(a == b, "screening ranking differs between traced and untraced pass")
    for i, ref in plain.predictions.items():
        other = traced.predictions.get(i)
        out.check(
            other is not None and np.array_equal(ref, other),
            f"request {i}: traced prediction differs",
        )
