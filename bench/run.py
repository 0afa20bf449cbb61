"""Benchmark of the crossdock-sim CLI.

    python3 bench/run.py --workload optimize-crn --seed 1 --seconds 20 --trace 0

Runs one workload's CLI commands in this process, checks every report
against the outputs recorded in bench/reference/, prints each metric by
name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1, the per-layer ones from a separate traced run. The
end-to-end timings of commands are scaled to a reference core by a
pacing loop timed between commands (see pace.py). A timed
run that uses every reference seed before --seconds is up exits with
code 3 and prints no result.
Workloads are defined, with the reason for each, in bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import sys

from source import MissingSource, use_checkout_source


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = harness.traced(workload, args.seed)
        else:
            result = harness.untraced(workload, args.seed, args.seconds)
    except harness.PoolExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    tally = result.tally
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for note in result.notes:
        print(f"  note: {note}")
    for error in tally.errors:
        print(f"  FAILED {error}")
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':34s} {tally.failed / tally.attempted:14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} commands)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
