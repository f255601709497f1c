"""Buffer ownership, memory and determinism properties of the eager step.

Fused backward kernels hand freshly built gradient arrays to the tape
through ``Tensor._accumulate_owned``, which adopts them without a copy,
and some fused forwards work in place on fresh buffers (``linear_act``'s
bias add and silu).  Property bar:

* **exclusivity** — after backward no two gradients share a buffer, no
  gradient aliases a forward value, and backward never writes into a
  forward value, over random fuzz programs and the real pretraining step;
* **economy** — on the real pretraining step the fused kernels hold fewer
  live bytes at peak than the reference compositions, and every tensor
  the step created is freed once the loss is released;
* **ownership** — the in-place fused kernels really run on the fused
  step, leave gradients bitwise equal to the reference step's, and no
  fused kernel runs at all with ``use_fused(False)``;
* **stability** — one training step's fingerprint (loss and every
  parameter gradient, hashed) is identical across processes and across
  identically seeded twins, and it tracks the batch.

The module and test names date from the tape compiler's memory planner,
which these properties replaced when the compiler was removed.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.kernels.dispatch import use_fused
from repro.models import EGNN
from repro.observability.opprofile import OpProfiler
from repro.tasks import MultiClassClassificationTask
from tests.kernel_calls import count_kernel_calls
from tests.test_compiler_fuzz import _build_leaves, _execute, generate

_INPLACE_FUSED = {"linear_act", "rms_norm", "layer_norm"}
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _make_task(seed: int = 5, dropout: float = 0.2) -> MultiClassClassificationTask:
    rng = np.random.default_rng(seed)
    enc = EGNN(hidden_dim=10, num_layers=2, position_dim=4, num_species=4, rng=rng)
    return MultiClassClassificationTask(
        enc,
        num_classes=4,
        hidden_dim=8,
        num_blocks=1,
        dropout=dropout,
        rng=np.random.default_rng(seed + 1),
    )


def _make_batch(seed: int = 5, n: int = 8):
    ds = SymmetryPointCloudDataset(n, seed=seed, group_names=["C1", "C2", "C4", "D2"])
    tf = StructureToGraph(cutoff=2.5)
    return collate_graphs([tf(ds[i]) for i in range(n)])


def _step(task, batch):
    """One eager training step: forward, backward -> (loss, metrics)."""
    task.zero_grad()
    loss, metrics = task.training_step(batch)
    loss.backward()
    return loss, metrics


def step_fingerprint(task, batch) -> str:
    """sha256 over one step's loss and every parameter gradient."""
    loss, _ = _step(task, batch)
    digest = hashlib.sha256(loss.data.tobytes())
    for name, p in task.named_parameters():
        digest.update(name.encode())
        if p.grad is not None:
            digest.update(p.grad.tobytes())
    return digest.hexdigest()


def _assert_exclusive(grads, values) -> None:
    """No two gradients share memory, and none aliases a forward value."""
    grads = [(name, g) for name, g in grads if g is not None]
    for i, (name_a, a) in enumerate(grads):
        for name_b, b in grads[i + 1 :]:
            assert not np.shares_memory(a, b), f"{name_a} and {name_b} share a buffer"
        for j, v in enumerate(values):
            assert not np.shares_memory(a, v), f"{name_a} aliases forward value {j}"


# --------------------------------------------------------------------------- #
# Exclusivity over random programs
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(25))
def test_no_live_interval_shares_a_buffer_fuzz(seed):
    desc = generate(seed)
    leaves = _build_leaves(desc, seed)
    values = []
    with use_fused(True):
        loss, _ = _execute(desc, leaves, values)
        tensors = [t for t in values if t is not None]
        snapshots = [t.data.copy() for t in tensors]
        loss.backward()
    for i, (t, before) in enumerate(zip(tensors, snapshots)):
        assert t.data.tobytes() == before.tobytes(), f"backward wrote into value {i}"
    grads = [(f"v{i}", t.grad) for i, t in enumerate(values) if t is not None]
    _assert_exclusive(grads, [t.data for t in tensors])


# --------------------------------------------------------------------------- #
# The real pretraining step
# --------------------------------------------------------------------------- #


def _profiled_step(fused: bool):
    """Peak and leftover live tensor bytes of one step under one mode."""
    task, batch = _make_task(), _make_batch()
    with use_fused(fused):
        with OpProfiler() as prof:
            _step(task, batch)
            gc.collect()
            leftover = prof.live_bytes
    return task, prof, leftover


class TestPretrainStepPlan:
    @pytest.fixture(scope="class")
    def profiled(self):
        return {fused: _profiled_step(fused) for fused in (True, False)}

    def test_arena_is_nonempty(self, profiled):
        task, prof, _ = profiled[True]
        assert prof.peak_live_bytes > 0
        assert any(p.grad is not None for p in task.parameters())

    def test_exclusive_buffers(self):
        task, batch = _make_task(), _make_batch()
        with use_fused(True):
            _step(task, batch)
        params = list(task.named_parameters())
        _assert_exclusive(
            [(name, p.grad) for name, p in params], [p.data for _, p in params]
        )

    def test_plan_peak_never_exceeds_eager_accounting(self, profiled):
        fused_peak = profiled[True][1].peak_live_bytes
        reference_peak = profiled[False][1].peak_live_bytes
        assert fused_peak <= reference_peak, (
            f"fused peak {fused_peak} exceeds reference peak {reference_peak}"
        )

    def test_plan_peak_below_profiled_eager_watermark(self, profiled):
        for fused, (_, prof, leftover) in profiled.items():
            assert prof.peak_live_bytes > 0
            assert leftover == 0, (
                f"{leftover} live bytes survive the step (fused={fused})"
            )


def test_parallel_branches_share_one_buffer():
    """Three parallel ``x + y`` branches: every add hands one upstream
    array to both parents, yet each of the six leaves must own its own
    gradient buffer — a second backward accumulates in place and would
    double-count through any shared buffer."""
    rng = np.random.default_rng(17)
    leaves = [Tensor(rng.uniform(-1, 1, size=(6, 5)), requires_grad=True)
              for _ in range(6)]

    def fn():
        s1 = (leaves[0] + leaves[1]).sum()
        s2 = (leaves[2] + leaves[3]).sum()
        s3 = (leaves[4] + leaves[5]).sum()
        return s1 + s2 + s3

    fn().backward()
    _assert_exclusive([(f"x{i}", t.grad) for i, t in enumerate(leaves)], [])
    fn().backward()
    for t in leaves:
        assert np.array_equal(t.grad, np.full((6, 5), 2.0))


# --------------------------------------------------------------------------- #
# Ownership: the in-place fused kernels
# --------------------------------------------------------------------------- #


class TestOwnsBuffers:
    def test_fused_trace_pins_inplace_kernels(self):
        """The in-place fused kernels run on the fused step and leave the
        same bits as the reference compositions."""
        fused_task, reference_task = _make_task(), _make_task()
        batch = _make_batch()
        with use_fused(True), count_kernel_calls() as calls:
            loss_f, _ = _step(fused_task, batch)
        assert _INPLACE_FUSED & set(calls["fused"]), calls
        with use_fused(False):
            loss_r, _ = _step(reference_task, batch)
        assert loss_f.data.tobytes() == loss_r.data.tobytes()
        for (name, pf), (_, pr) in zip(
            fused_task.named_parameters(), reference_task.named_parameters()
        ):
            assert (pf.grad is None) == (pr.grad is None), name
            if pf.grad is not None:
                assert pf.grad.tobytes() == pr.grad.tobytes(), name

    def test_rewritten_trace_pins_synthetic_fused_nodes(self):
        """``use_fused(False)`` is honoured everywhere: the step runs only
        reference compositions."""
        with use_fused(False), count_kernel_calls() as calls:
            _step(_make_task(), _make_batch())
        assert not calls["fused"], calls
        assert _INPLACE_FUSED & set(calls["reference"]), calls


# --------------------------------------------------------------------------- #
# Step fingerprint stability across processes
# --------------------------------------------------------------------------- #

_KEY_SCRIPT = """
from tests.test_compiler_planner import _make_batch, _make_task, step_fingerprint
print(step_fingerprint(_make_task(), _make_batch()))
"""


def _subprocess_key() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(_REPO, "src"), _REPO])
    proc = subprocess.run(
        [sys.executable, "-c", _KEY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=_REPO,
        check=True,
    )
    return proc.stdout.strip()


class TestPlanKeyStability:
    def test_identical_across_processes(self):
        first = _subprocess_key()
        second = _subprocess_key()
        assert first and first == second

    def test_matches_in_process_key(self):
        assert step_fingerprint(_make_task(), _make_batch()) == _subprocess_key()

    def test_key_tracks_batch_content(self):
        task = _make_task()
        assert step_fingerprint(task, _make_batch(seed=5)) != step_fingerprint(
            task, _make_batch(seed=6)
        )

    def test_key_tracks_param_shapes_not_values(self):
        batch = _make_batch()
        a, b = _make_task(seed=5), _make_task(seed=9)
        # Same architecture, different init: identical parameter layout,
        # but the fingerprint hashes values, so the steps must differ.
        assert [(n, p.data.shape) for n, p in a.named_parameters()] == [
            (n, p.data.shape) for n, p in b.named_parameters()
        ]
        assert step_fingerprint(a, batch) != step_fingerprint(b, batch)


# --------------------------------------------------------------------------- #
# Repeated steps against an identically seeded twin
# --------------------------------------------------------------------------- #


class TestCompiledStepCache:
    def test_replay_hits_match_eager_twin_stepwise(self):
        """Same batch repeated: dropout draws from each module's live rng
        stream every step, so two identically seeded twins — one on fused
        kernels, one on the reference compositions — must agree bitwise on
        loss, metrics and every parameter gradient at every step, while the
        loss itself moves from step to step."""
        fused_task, reference_task = _make_task(), _make_task()
        batch = _make_batch()
        losses = []
        for step in range(3):
            with use_fused(True):
                loss_f, metrics_f = _step(fused_task, batch)
            with use_fused(False):
                loss_r, metrics_r = _step(reference_task, batch)
            assert loss_f.data.tobytes() == loss_r.data.tobytes(), step
            assert metrics_f == metrics_r, step
            for (name, pf), (_, pr) in zip(
                fused_task.named_parameters(), reference_task.named_parameters()
            ):
                if pr.grad is None:
                    assert pf.grad is None, (step, name)
                else:
                    assert pf.grad.tobytes() == pr.grad.tobytes(), (step, name)
            losses.append(float(loss_f.data))
        assert len(set(losses)) == 3, losses
