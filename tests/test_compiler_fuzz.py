"""Differential fuzzing of the eager autograd engine.

A seeded random-program generator builds small autograd graphs —
broadcasting binaries, size-1 dims, empty batches, shared
subexpressions, unused outputs, dropout, ``linear_act`` chains,
``lstm_cell`` recurrences, row gathers and segment sums — and every
program is checked in both ``REPRO_FUSED`` dispatch modes:

* **rerun**: rebuilding the leaves and running the program again
  reproduces the loss, every output and every leaf gradient bitwise
  (dropout included: each dropout op seeds its own generator);
* **cross-dispatch**: the forward under one mode equals the forward under
  the other bitwise (fused forwards are pinned to their reference
  compositions), and leaf gradients agree to 1e-12; how many programs
  also agree bitwise in every gradient is tallied for
  :func:`test_fusion_validation_rate`;
* **numerics**: every leaf gradient matches central differences.

A failure shrinks to a minimal program (greedy consumer-cone removal) and
prints it.  The module and test names date from the tape compiler, which
replayed these programs against the eager engine; the compiler is gone,
and the same programs now pin the eager engine itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.autograd.gradcheck import numerical_gradient
from repro.kernels import dispatch as K
from repro.kernels.dispatch import use_fused

N_SEEDS = 60  # x2 fused modes = 120 fuzz runs

# --------------------------------------------------------------------------- #
# Program description: pure data, so a failing case can be shrunk + printed.
# One flat entry list in creation order; ids index it.  An entry is
# ("leaf", shape) or ("op", kind, arg-ids, params); removed ops become None
# placeholders so ids stay stable under shrinking.
# --------------------------------------------------------------------------- #

_ACTS = {
    "silu": F.silu,
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "softplus": F.softplus,
    "abs": F.abs,
}


class Desc:
    __slots__ = ("entries", "loss_ids", "output_ids")

    def __init__(self, entries, loss_ids, output_ids):
        self.entries = entries
        self.loss_ids = loss_ids
        self.output_ids = output_ids

    def __repr__(self):
        lines = []
        for i, entry in enumerate(self.entries):
            if entry is None:
                continue
            if entry[0] == "leaf":
                lines.append(f"  v{i} = leaf{entry[1]}")
            else:
                _, kind, args, params = entry
                lines.append(f"  v{i} = {kind}{tuple(args)} {params}")
        lines.append(f"loss_ids={self.loss_ids} output_ids={self.output_ids}")
        return "\n".join(lines)


def _leaf_data(seed: int, index: int, shape) -> np.ndarray:
    rng = np.random.default_rng(1_000_000 * (seed + 1) + index)
    return rng.uniform(-2.0, 2.0, size=shape)


def _build_leaves(desc: Desc, seed: int) -> Dict[int, Tensor]:
    return {
        i: Tensor(_leaf_data(seed, i, entry[1]), requires_grad=True)
        for i, entry in enumerate(desc.entries)
        if entry is not None and entry[0] == "leaf"
    }


def _execute(desc: Desc, leaves: Dict[int, Tensor], values=None):
    """Run the described program on live tensors -> (loss, outputs).

    ``values``, if given, receives every entry's tensor (None for removed
    entries) in creation order.
    """
    vals: List[Optional[Tensor]] = [None] * len(desc.entries)
    for i, t in leaves.items():
        vals[i] = t
    for i, entry in enumerate(desc.entries):
        if entry is None or entry[0] == "leaf":
            continue
        _, kind, args, params = entry
        a = vals[args[0]]
        if kind == "add":
            out = a + vals[args[1]]
        elif kind == "sub":
            out = a - vals[args[1]]
        elif kind == "mul":
            out = a * vals[args[1]]
        elif kind == "div_safe":
            out = a / (F.abs(vals[args[1]]) + 0.5)
        elif kind == "addc":
            out = a + params["c"]
        elif kind == "rsubc":
            out = params["c"] - a
        elif kind == "mulc":
            out = a * params["c"]
        elif kind == "powi":
            out = a ** 2
        elif kind == "neg":
            out = -a
        elif kind == "exp_tanh":
            out = F.exp(F.tanh(a))
        elif kind == "log_safe":
            out = F.log(a * a + 0.5)
        elif kind == "sqrt_safe":
            out = F.sqrt(a * a + 0.25)
        elif kind in _ACTS:
            out = _ACTS[kind](a)
        elif kind == "sum_all":
            out = a.sum()
        elif kind == "sum0":
            out = a.sum(axis=0)
        elif kind == "sumk":
            out = a.sum(axis=-1, keepdims=True)
        elif kind == "reshape_flat":
            out = a.reshape(-1)
        elif kind == "transpose":
            out = a.transpose()
        elif kind == "getitem_head":
            out = a[: params["stop"]]
        elif kind == "softmax":
            out = F.softmax(a, axis=-1)
        elif kind == "log_softmax":
            out = F.log_softmax(a, axis=-1)
        elif kind == "linear":
            out = K.linear_act(a, vals[args[1]], vals[args[2]], params["act"])
        elif kind == "concat":
            out = F.concat([a, vals[args[1]]], axis=0)
        elif kind == "lstm_cell":
            out = K.lstm_cell(
                a, vals[args[1]], vals[args[2]],
                vals[args[3]], vals[args[4]], vals[args[5]],
            )
        elif kind == "index_select":
            out = K.index_select(a, np.asarray(params["index"]))
        elif kind == "segment_sum":
            out = K.segment_sum(
                a, np.asarray(params["ids"]), params["num_segments"]
            )
        elif kind == "dropout":
            out = F.dropout(
                a, params["p"], np.random.default_rng(params["seed"]), training=True
            )
        else:  # pragma: no cover - generator/vocabulary mismatch
            raise AssertionError(f"unknown op kind {kind!r}")
        vals[i] = out

    loss = None
    for vid in desc.loss_ids:
        term = vals[vid].sum() if vals[vid].data.shape != () else vals[vid]
        loss = term if loss is None else loss + term
    outputs = {f"o{vid}": vals[vid] for vid in desc.output_ids}
    if values is not None:
        values[:] = vals
    return loss, outputs


# --------------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------------- #

_LEAF_SHAPES = [(3, 4), (4,), (3, 1), (1, 4), (2, 3), (0, 3), (1,), (5,), (2, 1)]

_UNARY = [
    "addc", "rsubc", "mulc", "powi", "neg", "exp_tanh", "log_safe",
    "sqrt_safe", "silu", "relu", "tanh", "sigmoid", "softplus", "abs",
    "sum_all", "sum0", "sumk", "reshape_flat",
]
_BINARY = ["add", "sub", "mul", "div_safe"]


def generate(seed: int) -> Desc:
    rng = np.random.default_rng(77_000 + seed)
    entries: List[tuple] = []
    shapes: List[Tuple[int, ...]] = []

    def leaf(shape) -> int:
        entries.append(("leaf", tuple(shape)))
        shapes.append(tuple(shape))
        return len(entries) - 1

    def emit(kind, args, params, out_shape) -> int:
        entries.append(("op", kind, list(args), params))
        shapes.append(tuple(out_shape))
        return len(entries) - 1

    for _ in range(int(rng.integers(2, 5))):
        leaf(_LEAF_SHAPES[int(rng.integers(len(_LEAF_SHAPES)))])

    def pick(pred=None) -> Optional[int]:
        candidates = [
            i for i, s in enumerate(shapes) if pred is None or pred(s)
        ]
        if not candidates:
            return None
        return int(candidates[int(rng.integers(len(candidates)))])

    n_ops = int(rng.integers(4, 12))
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.30:  # binary with a broadcast-compatible partner
            a = pick()
            for _ in range(6):
                b = pick()
                try:
                    out = np.broadcast_shapes(shapes[a], shapes[b])
                    break
                except ValueError:
                    continue
            else:
                continue
            kind = _BINARY[int(rng.integers(len(_BINARY)))]
            emit(kind, (a, b), {}, out)
        elif roll < 0.40:  # linear (+ maybe activation): the fusion target
            a = pick(lambda s: len(s) == 2)
            if a is None:
                continue
            d = shapes[a][1]
            e = int(rng.integers(1, 5))
            w_id = leaf((d, e))
            b_id = leaf((e,))
            act = ["identity", "silu", "relu", "tanh", "sigmoid"][
                int(rng.integers(5))
            ]
            emit("linear", (a, w_id, b_id), {"act": act}, (shapes[a][0], e))
        elif roll < 0.45:  # lstm_cell recurrence (the MEGNet readout core)
            a = pick(lambda s: len(s) == 2)
            if a is None:
                continue
            n, din = shapes[a]
            d = int(rng.integers(1, 4))
            h_id = leaf((n, d))
            c_id = leaf((n, d))
            wx_id = leaf((din, 4 * d))
            wh_id = leaf((d, 4 * d))
            b_id = leaf((4 * d,))
            emit(
                "lstm_cell", (a, h_id, c_id, wx_id, wh_id, b_id), {},
                (n, 2 * d),
            )
        elif roll < 0.50:  # structure ops on 2-D values
            a = pick(lambda s: len(s) == 2 and s[0] > 0)
            if a is None:
                continue
            n = shapes[a][0]
            sub = rng.random()
            if sub < 0.34:
                index = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
                emit(
                    "index_select", (a,), {"index": index.tolist()},
                    (len(index), shapes[a][1]),
                )
            elif sub < 0.67:
                k = int(rng.integers(1, 4))
                ids = np.sort(rng.integers(0, k, size=n))
                emit(
                    "segment_sum", (a,),
                    {"ids": ids.tolist(), "num_segments": k},
                    (k, shapes[a][1]),
                )
            else:
                emit("softmax" if rng.random() < 0.5 else "log_softmax", (a,), {},
                     shapes[a])
        elif roll < 0.58:  # concat of two same-shape values
            a = pick(lambda s: len(s) >= 1)
            if a is None:
                continue
            b = pick(lambda s: s == shapes[a])
            if b is None:
                continue
            out = (shapes[a][0] + shapes[b][0],) + tuple(shapes[a][1:])
            emit("concat", (a, b), {}, out)
        elif roll < 0.64:  # slicing
            a = pick(lambda s: len(s) >= 1 and s[0] > 1)
            if a is None:
                continue
            stop = int(rng.integers(1, shapes[a][0]))
            emit("getitem_head", (a,), {"stop": stop}, (stop,) + tuple(shapes[a][1:]))
        elif roll < 0.70:  # dropout (impure: pins the node + its rng)
            a = pick()
            emit("dropout", (a,), {"p": 0.3, "seed": 55_000 + seed}, shapes[a])
        elif roll < 0.76:
            a = pick(lambda s: len(s) == 2)
            if a is None:
                continue
            emit("transpose", (a,), {}, (shapes[a][1], shapes[a][0]))
        else:
            a = pick()
            kind = _UNARY[int(rng.integers(len(_UNARY)))]
            if kind == "sum_all":
                out = ()
            elif kind == "sum0":
                if not shapes[a]:
                    continue
                out = tuple(shapes[a][1:])
            elif kind == "sumk":
                if not shapes[a]:
                    continue
                out = tuple(shapes[a][:-1]) + (1,)
            elif kind == "reshape_flat":
                out = (int(np.prod(shapes[a], dtype=int)),)
            else:
                out = shapes[a]
            params = {}
            if kind in ("addc", "rsubc", "mulc"):
                params["c"] = float(rng.uniform(-1.5, 1.5))
            emit(kind, (a,), params, out)

    op_ids = [i for i, e in enumerate(entries) if e[0] == "op"]
    if not op_ids:  # degenerate roll sequence: fall back to one op
        op_ids = [emit("powi", (0,), {}, shapes[0])]
    # Loss over a random non-empty subset; shared subexpressions arise from
    # multi-consumed values, dead code from values in no subset.
    k = int(rng.integers(1, min(3, len(op_ids)) + 1))
    loss_ids = sorted(
        int(i) for i in rng.choice(op_ids, size=k, replace=False)
    )
    output_ids = sorted(
        int(i)
        for i in rng.choice(op_ids, size=int(rng.integers(0, 2)), replace=False)
        if int(i) not in loss_ids
    )
    return Desc(entries, loss_ids, output_ids)


# --------------------------------------------------------------------------- #
# Differential checks + shrinking
# --------------------------------------------------------------------------- #


def _leaf_ids(desc: Desc) -> List[int]:
    return [
        i for i, e in enumerate(desc.entries) if e is not None and e[0] == "leaf"
    ]


def run_program(desc: Desc, seed: int):
    """Fresh leaves, forward, backward -> (loss, outputs, leaf grads)."""
    leaves = _build_leaves(desc, seed)
    loss, outputs = _execute(desc, leaves)
    loss.backward()
    grads = {
        i: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for i, t in leaves.items()
    }
    return loss, outputs, grads


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_forward(first, second) -> bool:
    loss_a, outputs_a, _ = first
    loss_b, outputs_b, _ = second
    return _bitwise(loss_a.data, loss_b.data) and all(
        _bitwise(t.data, outputs_b[name].data) for name, t in outputs_a.items()
    )


def _same_grads(first, second, exact: bool) -> bool:
    grads_a, grads_b = first[2], second[2]
    if exact:
        return all(_bitwise(g, grads_b[i]) for i, g in grads_a.items())
    return all(
        g.shape == grads_b[i].shape
        and np.allclose(g, grads_b[i], rtol=1e-12, atol=1e-12)
        for i, g in grads_a.items()
    )


def _numerics_ok(desc: Desc, seed: int, grads) -> bool:
    ids = _leaf_ids(desc)
    arrays = [_leaf_data(seed, i, desc.entries[i][1]) for i in ids]

    def fn(*tensors):
        return _execute(desc, dict(zip(ids, tensors)))[0]

    for k, i in enumerate(ids):
        numeric = numerical_gradient(fn, [x.copy() for x in arrays], wrt=k)
        if not np.allclose(grads[i], numeric, atol=1e-5, rtol=1e-4):
            return False
    return True


def run_case(desc: Desc, seed: int, fused: bool) -> Dict[str, bool]:
    """Every check for one program under one dispatch mode."""
    with use_fused(fused):
        first = run_program(desc, seed)
        again = run_program(desc, seed)
    with use_fused(not fused):
        other = run_program(desc, seed)
    with use_fused(fused):
        numerics_ok = _numerics_ok(desc, seed, first[2])
    return {
        "rerun_ok": _same_forward(first, again) and _same_grads(first, again, True),
        "forward_ok": _same_forward(first, other),
        "grads_close": _same_grads(first, other, False),
        "grads_bitwise": _same_grads(first, other, True),
        "numerics_ok": numerics_ok,
    }


def shrink(desc: Desc, failing) -> Desc:
    """Greedy cone removal: drop any op (plus its consumer cone) while the
    failure still reproduces."""
    current = desc
    progress = True
    while progress:
        progress = False
        for i in range(len(current.entries)):
            entry = current.entries[i]
            if entry is None or entry[0] == "leaf":
                continue
            trial_entries = list(current.entries)
            dead = {i}
            trial_entries[i] = None
            for j in range(i + 1, len(trial_entries)):
                e = trial_entries[j]
                if e is not None and e[0] == "op" and any(a in dead for a in e[2]):
                    dead.add(j)
                    trial_entries[j] = None
            loss_ids = [v for v in current.loss_ids if v not in dead]
            if not loss_ids:
                continue
            output_ids = [v for v in current.output_ids if v not in dead]
            trial = Desc(trial_entries, loss_ids, output_ids)
            try:
                if failing(trial):
                    current = trial
                    progress = True
            except Exception:
                continue
    return current


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #

_FUSION_PASSES = {True: [0, 0], False: [0, 0]}  # fused-mode -> [bitwise, total]


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_compiled_matches_eager(seed, fused):
    desc = generate(seed)
    verdict = run_case(desc, seed, fused)
    for check in ("rerun_ok", "forward_ok", "grads_close", "numerics_ok"):
        if not verdict[check]:
            minimal = shrink(
                desc, lambda d, check=check: not run_case(d, seed, fused)[check]
            )
            pytest.fail(
                f"{check} failed (seed={seed}, fused={fused});\n"
                f"minimal program:\n{minimal!r}"
            )
    stats = _FUSION_PASSES[fused]
    stats[0] += int(verdict["grads_bitwise"])
    stats[1] += 1


def test_fuzz_covers_enough_seeds():
    assert 2 * N_SEEDS >= 100


def test_fusion_validation_rate():
    """Fused backward kernels replay the reference chain's accumulation
    order, so gradients should agree across dispatch modes bit for bit.

    Runs after the sweep (file order).  The sweep itself only demands
    agreement to 1e-12; this holds the bitwise share high, so a kernel
    that quietly reorders its accumulation shows up here.
    """
    for fused, (passed, total) in _FUSION_PASSES.items():
        if total:
            assert passed / total > 0.8, (
                f"bitwise cross-dispatch gradient rate {passed}/{total} "
                f"(fused={fused})"
            )
