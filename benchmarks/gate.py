"""Benchmark-regression gate: compare a bench run against a committed baseline.

The gate reads two ``repro-bench-v1`` JSON files (see
:mod:`benchmarks.common`) and fails when a tracked entry regresses by more
than ``threshold`` (default 25%) relative to the baseline:

* ``speedup`` entries regress when the current ratio drops below
  ``baseline * (1 - threshold)``.  Ratios are machine-portable — the two
  arms run on the same machine in the same process — so these are compared
  by default.
* ``time`` entries regress when the current time exceeds
  ``baseline * (1 + threshold)``.  Absolute times only transfer between
  runs on the same machine, so they are compared only when
  ``absolute=True`` (the ``--absolute`` CLI flag).
* ``metric`` entries are informational and never gated.
* A baseline entry of any kind that the current run does not emit, or
  emits under a different kind, gets a ``missing`` verdict, which counts
  as a regression: a bench that stops reporting an entry must not pass.
  Entries only the current run has are new and enter the baseline on the
  next ``--update-baseline``.

A missing baseline file is not an error: the gate bootstraps by writing
the current results as the new baseline and passing — that is how
``benchmarks/BENCH_hotpaths.json`` was first created.

Exit codes (mirrored by :func:`main`): 0 pass/bootstrap, 1 regression,
2 usage error (bad schema, unreadable file).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from benchmarks.common import load_bench_json, write_bench_json

#: Default tolerated slowdown before the gate fails.
DEFAULT_THRESHOLD = 0.25

EXIT_PASS = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2


def _index(results: Sequence[Dict]) -> Dict[str, Dict]:
    return {r["name"]: r for r in results}


def compare_results(
    current: Sequence[Dict],
    baseline: Sequence[Dict],
    threshold: float = DEFAULT_THRESHOLD,
    absolute: bool = False,
) -> List[Dict]:
    """Per-entry verdicts, in baseline order.

    Returns a list of ``{name, kind, current, baseline, ratio, regressed,
    limit, missing}`` dicts: one per gated entry present in both runs, and
    one ``missing`` verdict (``regressed`` set, ``current`` None) per
    baseline entry the current run lacks or reports under another kind.
    Entries only the current run has are skipped.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    cur = _index(current)
    verdicts: List[Dict] = []
    for ref in baseline:
        entry = cur.get(ref["name"])
        kind = ref["kind"]
        if entry is None or entry["kind"] != kind:
            verdicts.append(
                {
                    "name": ref["name"],
                    "kind": kind,
                    "current": None,
                    "baseline": float(ref["value"]),
                    "ratio": None,
                    "limit": None,
                    "regressed": True,
                    "missing": True,
                }
            )
            continue
        if kind == "metric":
            continue
        if kind == "time" and not absolute:
            continue
        cur_v, base_v = float(entry["value"]), float(ref["value"])
        if kind == "speedup":
            limit = base_v * (1.0 - threshold)
            regressed = cur_v < limit
        else:  # time
            limit = base_v * (1.0 + threshold)
            regressed = cur_v > limit
        verdicts.append(
            {
                "name": entry["name"],
                "kind": kind,
                "current": cur_v,
                "baseline": base_v,
                "ratio": cur_v / base_v if base_v else float("inf"),
                "limit": limit,
                "regressed": regressed,
                "missing": False,
            }
        )
    return verdicts


def format_verdicts(verdicts: Sequence[Dict]) -> str:
    """Human-readable gate report, one line per compared entry."""
    lines = [f"{'name':<34} {'kind':<8} {'baseline':>10} {'current':>10} {'status':>10}"]
    for v in verdicts:
        if v["missing"]:
            status, current = "MISSING", "-"
        else:
            status = "REGRESSED" if v["regressed"] else "ok"
            current = f"{v['current']:.4f}"
        lines.append(
            f"{v['name']:<34} {v['kind']:<8} {v['baseline']:>10.4f} "
            f"{current:>10} {status:>10}"
        )
    return "\n".join(lines)


def run_gate(
    results: Sequence[Dict],
    baseline_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    absolute: bool = False,
    update_baseline: bool = False,
    meta: Optional[Dict] = None,
) -> int:
    """Gate ``results`` against ``baseline_path``; returns an exit code.

    Bootstraps (writes the baseline and passes) when the baseline file does
    not exist; rewrites it when ``update_baseline`` is set.
    """
    if update_baseline or not os.path.exists(baseline_path):
        write_bench_json(baseline_path, results, meta=meta)
        action = "updated" if update_baseline else "bootstrapped"
        print(f"gate: {action} baseline at {baseline_path}")
        return EXIT_PASS
    try:
        payload = load_bench_json(baseline_path)
    except (ValueError, OSError) as exc:
        print(f"gate: cannot read baseline: {exc}")
        return EXIT_USAGE
    verdicts = compare_results(
        results, payload["results"], threshold=threshold, absolute=absolute
    )
    print(format_verdicts(verdicts))
    missing = sum(v["missing"] for v in verdicts)
    slower = sum(v["regressed"] and not v["missing"] for v in verdicts)
    if missing or slower:
        print(
            f"gate: FAIL — {slower} regressed beyond {threshold:.0%}, "
            f"{missing} missing from this run"
        )
        return EXIT_REGRESSION
    print(f"gate: pass — {len(verdicts)} entries within {threshold:.0%} of baseline")
    return EXIT_PASS
