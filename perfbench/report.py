"""Summaries of raw samples, the printed table, and the result line."""

from __future__ import annotations

import json
from statistics import median
from typing import Dict, List, Sequence, Tuple

#: End-to-end metrics: ``(name, unit, better)``.  ``BENCHMARK.json``
#: lists the same names (checked by the tests).
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("minstr_per_s", "Minstr/s", "higher"),
    ("wall_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def tail(samples: Sequence[float], better: str) -> float:
    """The highest percentile with at least ten samples beyond it (on the
    worse side); with fewer than eleven samples, the worst sample."""
    ordered = sorted(samples, reverse=(better == "higher"))
    return ordered[max(0, len(ordered) - 11)] if len(ordered) >= 11 \
        else ordered[-1]


def summarise(samples: Dict[str, List[float]],
              raw: Dict[str, List[float]]) -> List[dict]:
    """One row per end-to-end metric: value, median, tail and sample
    count of the calibrated samples, and the median as measured."""
    return [{"name": name, "unit": unit, "value": median(samples[name]),
             "tail": tail(samples[name], better), "n": len(samples[name]),
             "measured": median(raw.get(name) or samples[name])}
            for name, unit, better in END_TO_END]


def print_table(workload: str, rows: List[dict]) -> None:
    print(f"# {workload}: metric, unit, median, tail, samples, "
          "median as measured (uncalibrated)")
    for row in rows:
        print(f"  {row['name']:<13} {row['unit']:<9} {row['value']:>12.6g} "
              f"{row['tail']:>12.6g} {row['n']:>6} {row['measured']:>12.6g}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
