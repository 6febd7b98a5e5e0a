"""One measurement: one workload, one seed, one JSON result line.

    python3 perfbench/measure.py --workload lone_small --seed 1 --seconds 20 --trace 0

``run.py`` starts this as its child, with the same arguments, and reaps
every process it leaves behind; run the benchmark through ``run.py``.
Runs from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run stamp (host, versions, server flags, seed, sample counts).  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = workloads.run_traced if args.trace else workloads.run_end_to_end
    out = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(out.metrics) != sorted(wanted):
        print(f"metrics {sorted(out.metrics)} do not match BENCHMARK.json "
              f"{sorted(wanted)}", file=sys.stderr)
        return 3
    for problem in out.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(out.stamp))
    print(json.dumps(out.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
