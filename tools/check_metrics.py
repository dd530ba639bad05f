#!/usr/bin/env python3
"""check_metrics: check that a metrics snapshot answers its two questions.

A telemetered run's "anton.metrics.v1" snapshot must say where host time
went and where simulated time went.  scripts/check.sh and CI run it on the
snapshot of `quickstart atoms=1500 nodes=8 steps=4 --metrics PATH`:

  * the schema is "anton.metrics.v1";
  * host time per layer: md.step.seconds, the MD phases
    md.phase.{bonded,pair,fft,constraints,integrate}.seconds and the
    machine-model layers machine.phase.{workload,graph,replay_full,
    replay_short}.seconds are present;
  * simulated time per phase: des.step.makespan_ns, des.critical.wait_ns
    and at least one des.phase.<phase>.busy_ns are present;
  * no hardware-counter sample: no name ends in .ipc, .llc_miss_rate or
    .perf.available.

md.phase.nlist.seconds is not required: quickstart builds the neighbour
list before its telemetry attaches.

Exit status: 0 if the snapshot passes, 1 if not, 2 on usage error.
Stdlib only.
"""

import json
import sys

REQUIRED = (
    ["md.step.seconds"]
    + [f"md.phase.{p}.seconds"
       for p in ("bonded", "pair", "fft", "constraints", "integrate")]
    + [f"machine.phase.{p}.seconds"
       for p in ("workload", "graph", "replay_full", "replay_short")]
    + ["des.step.makespan_ns", "des.critical.wait_ns"]
)
FORBIDDEN_SUFFIXES = (".ipc", ".llc_miss_rate", ".perf.available")


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    return 1


def check(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: cannot parse: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != "anton.metrics.v1":
        return fail(f"{path}: schema is not 'anton.metrics.v1'")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return fail(f"{path}: metrics snapshot is empty")

    missing = [name for name in REQUIRED if name not in metrics]
    if missing:
        return fail(f"{path}: missing {', '.join(missing)}")
    if not any(name.startswith("des.phase.") and name.endswith(".busy_ns")
               for name in metrics):
        return fail(f"{path}: no des.phase.<phase>.busy_ns metric")
    sampled = sorted(name for name in metrics
                     if name.endswith(FORBIDDEN_SUFFIXES))
    if sampled:
        return fail(f"{path}: hardware-counter metrics {', '.join(sampled)}")

    print(f"check_metrics: OK: {path}: {len(metrics)} metrics")
    return 0


def main(argv):
    if len(argv) != 2:
        print("usage: check_metrics.py METRICS.json", file=sys.stderr)
        return 2
    return check(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
