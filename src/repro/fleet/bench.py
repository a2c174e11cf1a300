"""Benchmark-trajectory regression tracking (``repro-fleet bench-diff``).

The repo commits its benchmark outcomes as ``BENCH_*.json`` trajectory
files (engine speedups, farm scaling, serve warm/cold, obs overhead).
This module compares a **fresh** run of the same benchmark against the
committed file and flags regressions — the ratchet that keeps "the
native engine is no slower than reference" true across PRs.

The one idea that makes the comparison honest: committed numbers were
recorded on *some* machine, the fresh run happens on *this* machine, so
every extracted metric is classified:

* **flags** (``bit_identical``, ``drain_clean``) — hard invariants;
  ``True`` → ``False`` is always a regression, no threshold.
* **portable numbers** (speedup ratios, overhead multipliers) — both
  sides of the ratio were measured on the same host in the same run, so
  they transfer across machines; compared against the committed value
  with a relative noise ``threshold`` (default 25%), directional
  (a *speedup* regresses downward, an *overhead multiplier* regresses
  upward).
* **rates** (``instr_per_s``, wall seconds) — machine-bound absolutes;
  **skipped** by default and reported informationally, compared only
  under ``--include-rates`` (useful when the runner hardware is pinned,
  as in a dedicated CI fleet).

Extractors recognize each trajectory family by shape, so
``bench-diff`` needs no registry of benchmark names; an unrecognized
file still diffs its flags and top-level numbers conservatively.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import FleetError

#: Default relative noise tolerance for portable ratio comparisons.
DEFAULT_THRESHOLD = 0.25


class Metric:
    """One comparable number or flag extracted from a trajectory."""

    __slots__ = ("key", "kind", "better", "portable", "value")

    def __init__(self, key: str, value: Any, kind: str = "number",
                 better: str = "higher", portable: bool = True):
        self.key = key
        self.kind = kind            # "flag" | "number"
        self.better = better        # "higher" | "lower"
        self.portable = portable    # False => machine-bound rate
        self.value = value


def load_bench_file(path: str) -> Dict[str, Any]:
    """Read one ``BENCH_*.json`` (raises FleetError on any failure)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise FleetError(
            f"cannot read trajectory file {path}: {exc}") from exc
    except ValueError as exc:
        raise FleetError(
            f"trajectory file {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FleetError(f"trajectory file {path} must hold an object")
    return doc


# ------------------------------------------------------------------ extractors

def _extract_engine(doc: Dict[str, Any]) -> List[Metric]:
    out: List[Metric] = []
    for name, wl in sorted(doc.get("workloads", {}).items()):
        out.append(Metric(f"{name}.bit_identical",
                          wl.get("bit_identical"), kind="flag"))
        out.append(Metric(f"{name}.engine_speedup",
                          wl.get("engine_speedup")))
        out.append(Metric(f"{name}.end_to_end_speedup",
                          wl.get("end_to_end_speedup")))
        for variant in ("reference", "native"):
            rate = (wl.get(variant) or {}).get("engine_instr_per_s")
            out.append(Metric(f"{name}.{variant}.engine_instr_per_s",
                              rate, portable=False))
    out.append(Metric("passed", doc.get("passed", True), kind="flag"))
    return out


def _extract_farm(doc: Dict[str, Any]) -> List[Metric]:
    out = [Metric("bit_identical", doc.get("bit_identical"), kind="flag")]
    for row in doc.get("curve", ()):
        jobs = row.get("jobs")
        out.append(Metric(f"jobs{jobs}.local_speedup",
                          row.get("local_speedup"), portable=False))
        out.append(Metric(f"jobs{jobs}.distributed_speedup",
                          row.get("distributed_speedup"), portable=False))
    out.append(Metric("baseline_wall_s", doc.get("baseline_wall_s"),
                      better="lower", portable=False))
    return out


def _extract_serve(doc: Dict[str, Any]) -> List[Metric]:
    return [
        Metric("bit_identical_to_direct_sim",
               doc.get("bit_identical_to_direct_sim"), kind="flag"),
        Metric("drain_clean", doc.get("drain_clean"), kind="flag"),
        # Warm/cold spread depends on the host's process-spawn cost —
        # a ratio, but not a portable one.
        Metric("speedup_cold_over_warm",
               doc.get("speedup_cold_over_warm"), portable=False),
        Metric("warm_roundtrip_s", doc.get("warm_roundtrip_s"),
               better="lower", portable=False),
        Metric("warm_p50_s", doc.get("warm_p50_s"),
               better="lower", portable=False),
    ]


def _extract_obs(doc: Dict[str, Any]) -> List[Metric]:
    out: List[Metric] = []
    for engine, row in sorted(doc.get("engines", {}).items()):
        # Overhead multipliers are same-host ratios: portable, and they
        # regress *upward*.
        out.append(Metric(f"{engine}.enabled_overhead_x",
                          row.get("enabled_overhead_x"), better="lower"))
        out.append(Metric(f"{engine}.energy_overhead_x",
                          row.get("energy_overhead_x"), better="lower"))
        out.append(Metric(f"{engine}.disabled_instr_per_s",
                          row.get("disabled_instr_per_s"),
                          portable=False))
    return out


def _extract_generic(doc: Dict[str, Any]) -> List[Metric]:
    """Fallback: booleans are flags, numbers are non-portable (the
    conservative read for an unknown file — never a false alarm)."""
    out: List[Metric] = []
    for key, value in sorted(doc.items()):
        if isinstance(value, bool):
            out.append(Metric(key, value, kind="flag"))
        elif isinstance(value, (int, float)):
            out.append(Metric(key, value, portable=False))
    return out


def extract_metrics(doc: Dict[str, Any]) -> List[Metric]:
    """Pick the extractor by trajectory shape."""
    if "workloads" in doc:
        return _extract_engine(doc)
    if doc.get("benchmark") == "farm_scaling_curve":
        return _extract_farm(doc)
    if doc.get("benchmark") == "serve_warm_vs_cold":
        return _extract_serve(doc)
    if "engines" in doc and "floor_instr_per_s" in doc:
        return _extract_obs(doc)
    return _extract_generic(doc)


# ------------------------------------------------------------------- the diff

def diff_trajectory(committed: Dict[str, Any], fresh: Dict[str, Any],
                    threshold: float = DEFAULT_THRESHOLD,
                    include_rates: bool = False) -> Dict[str, Any]:
    """Compare a fresh benchmark run against the committed trajectory.

    Returns ``{"ok", "regressions", "comparisons", "skipped"}`` where
    each comparison row carries the key, both values, the relative
    change, and its verdict.  ``ok`` is False when any flag flipped
    false or any compared number moved past ``threshold`` in its bad
    direction.
    """
    if threshold < 0:
        raise FleetError("bench-diff threshold must be >= 0")
    old = {m.key: m for m in extract_metrics(committed)}
    new = {m.key: m for m in extract_metrics(fresh)}
    comparisons: List[Dict[str, Any]] = []
    skipped: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for key in sorted(old):
        before = old[key]
        after = new.get(key)
        row: Dict[str, Any] = {"key": key, "kind": before.kind,
                               "committed": before.value,
                               "fresh": after.value if after else None}
        if after is None or after.value is None:
            if before.value is None:
                continue  # absent on both sides: nothing to say
            row["verdict"] = "missing"
            regressions.append(key)
            comparisons.append(row)
            continue
        if before.value is None:
            row["verdict"] = "new"
            comparisons.append(row)
            continue
        if before.kind == "flag":
            row["verdict"] = "ok"
            if bool(before.value) and not bool(after.value):
                row["verdict"] = "regressed"
                regressions.append(key)
            comparisons.append(row)
            continue
        if not before.portable and not include_rates:
            row["verdict"] = "skipped (machine-bound rate)"
            skipped.append(row)
            continue
        old_value = float(before.value)
        new_value = float(after.value)
        change = ((new_value - old_value) / abs(old_value)
                  if old_value else 0.0)
        row["relative_change"] = round(change, 4)
        worse = (change < -threshold if before.better == "higher"
                 else change > threshold)
        row["verdict"] = "regressed" if worse else "ok"
        if worse:
            regressions.append(key)
        comparisons.append(row)
    return {"ok": not regressions,
            "threshold": threshold,
            "regressions": regressions,
            "comparisons": comparisons,
            "skipped": skipped}
