"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload base_l8 --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric from a separate traced run.  The exit status is 0 only when every
operation succeeded and matched its expected statistics digest.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from layers import PER_LAYER
    from report import print_table, result_line, summarise
    from workloads import WORKLOADS, Sizes

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    outcome = workload.run(workload, args.seed, args.seconds,
                           bool(args.trace), digests, Sizes())
    for message in outcome.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    if args.trace:
        metrics = {name: (outcome.layers[name], unit)
                   for name, unit, _ in PER_LAYER}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {unit:<12} {value:.6g}")
    else:
        rows = summarise(outcome.samples, outcome.raw)
        print_table(workload.name, rows)
        metrics = {row["name"]: (row["value"], row["unit"]) for row in rows}
    print(f"# attempted {outcome.attempted}, failed {outcome.failed}")
    correct = outcome.failed == 0
    print(result_line(correct, outcome.attempted, outcome.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
