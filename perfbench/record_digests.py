"""Record the reference statistics digests the benchmark checks against.

    python3 perfbench/record_digests.py --seeds 16

Writes ``perfbench/digests.json``: for every input set of seeds
``0..N-1`` of every workload, the ``stats_sha256`` of an in-process
reference-engine run (one digest per simulation, one per grid label for
the fig5 grid).  Re-record only when a change is meant to alter
simulated statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import INPUT_SETS, WORKLOADS, Sizes, reference_digests

    digests = {
        name: {str(input_set): reference_digests(workload, input_set,
                                                 Sizes())
               for input_set in range(args.seeds * INPUT_SETS)}
        for name, workload in WORKLOADS.items()}
    (HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
