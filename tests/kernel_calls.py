"""Count calls into the fused and reference kernel modules.

``repro.kernels.dispatch`` looks each kernel up on its module at call
time, so patching the module attributes sees every dispatched call.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Dict, Iterator

import pytest

from repro.kernels import fused, reference

KERNELS = (
    "linear_act",
    "rms_norm",
    "layer_norm",
    "softmax_cross_entropy",
    "gather_diff",
    "row_sq_norm",
    "mul_segment_sum",
    "gather_pair_concat",
    "index_select",
    "segment_sum",
    "lstm_cell",
)


@contextlib.contextmanager
def count_kernel_calls() -> Iterator[Dict[str, Counter]]:
    """Yield ``{"fused": Counter, "reference": Counter}`` of kernel calls."""
    counts = {"fused": Counter(), "reference": Counter()}
    with pytest.MonkeyPatch.context() as mp:
        for side, module in (("fused", fused), ("reference", reference)):
            for name in KERNELS:
                fn = getattr(module, name)

                def counted(*args, _fn=fn, _name=name, _calls=counts[side], **kw):
                    _calls[_name] += 1
                    return _fn(*args, **kw)

                mp.setattr(module, name, counted)
        yield counts
