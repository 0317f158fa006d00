"""Benchmark of the eitdisk CLI pipeline: forward, sample, extract, impedance.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload readme --seed 0 --seconds 20 --trace 0

``--trace 0`` times untraced passes and prints every end-to-end metric;
``--trace 1`` wraps the library layers in spans, prints the per-layer metrics
and writes the spans to ``perfbench/out/``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the metrics that ``BENCHMARK.json`` declares).  The lines before it give
every metric with its median, high percentile and sample count, the accuracy
gates, and the run environment.

BLAS and OpenMP are pinned to one thread here, before numpy is imported.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("readme", "fine-grid", "many-nodes"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    args = parse_args(argv)
    from perfbench import THREAD_VARS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from perfbench import harness

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        ledger, report, extras = harness.run(args.workload, args.seed, args.seconds,
                                             bool(args.trace), ROOT)
    except harness.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(harness.environment(ROOT), sort_keys=True))
    units = {m["name"]: m["unit"] for m in declared}
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"{args.workload} seed {args.seed}: {kind} metrics (median, high, n, unit)")
    for name, s in sorted(report.items()):
        high = next(f"{k}={_fmt(v)}" for k, v in s.items() if k not in ("median", "n", "unit"))
        print(f"  {name:42s} {_fmt(s['median']):>12s}  {high:>18s}  n={s['n']:<4d} "
              f"{s.get('unit') or units.get(name, '')}")
    for metric, gate in extras.get("gates", {}).items():
        print(f"gate {metric} <= {gate['tolerance']}: "
              f"{'passed' if gate['passed'] else 'FAILED'}, median {gate['median']:.4g}, "
              f"{gate['passes_above']} pass(es) above")
    if "spans" in extras:
        path = harness.write_spans(args.workload, args.seed, extras["spans"])
        print(f"spans written to {os.path.relpath(path, ROOT)}; untraced pipeline_s (scaled) "
              f"{extras['untraced_pipeline_s']:.4f}")
    for problem, times in Counter(ledger.problems).items():
        print(f"problem: {problem}" + (f" ({times} times)" if times > 1 else ""))
    print("report " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "metrics": report}, sort_keys=True))

    missing = [m["name"] for m in declared if m["name"] not in report]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": report[m["name"]]["median"], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
