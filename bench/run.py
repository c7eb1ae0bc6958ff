"""dftmc benchmark: end-to-end run metrics of one workload, or its per-layer split.

Run from the repository root:

    python3 bench/run.py --workload demo_pand --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name the environment, the input tree's sha256, the outcome
mix and each metric with its unit.  ``--workload all`` runs every workload
in turn, each ending in its own JSON line; peak_rss_mb is then the process's
high-water mark so far, so it is exact only for the first workload.

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    args.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = args.parse_args(argv)

    if not (SRC / "dftmc" / "__init__.py").is_file():
        print(f"error: no dftmc sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure.run(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
