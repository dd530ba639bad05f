#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at the tiny size (a 3,000-atom system on 8 nodes), with
tracing off and on, and checks that:

  * the last line is {"correct", "attempted", "failed", "metrics"} with
    correct == true and failed == 0;
  * every metric BENCHMARK.json names is printed with the unit it declares
    (end-to-end ones untraced, per-layer ones traced), and the human-readable
    lines name the product-specific metrics (estimate_ms_p50, md_step_ms_p50,
    md_ns_per_day, failed_frac, ...);
  * the traced run's span file passes tools/validate_trace.py (run.py's
    correctness check runs it, so correct == true covers this);
  * a corrupted reference value (one flipped bit of sim.us_per_day, a drift
    band of zero) makes the correctness check fail;
  * a run with ANTON_PERF set is refused without printing a result.

Exit status 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, extra=(), env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       env=env, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    human = {
        "estimate_dhfr512": ("estimate_ms_p50", "estimate_ms_tail",
                             "estimates_per_s"),
        "estimate_stmv512": ("estimate_ms_p50", "estimate_ms_tail",
                             "estimates_per_s"),
        "md_dhfr": ("md_step_ms_p50", "md_step_ms_tail", "md_ns_per_day"),
    }
    names = [w["name"] for w in spec["workloads"]]
    for w in names:
        for trace in (0, 1):
            p, res = bench(w, trace)
            tag = f"{w} trace={trace}"
            check(res is not None, f"{tag}: exits 0 with a JSON last line")
            if res is None:
                sys.stderr.write(p.stderr[-2000:])
                continue
            check(sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"], f"{tag}: result keys")
            check(res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1, f"{tag}: correct, none failed")
            want = declared[bool(trace)]
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: every declared metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in res["metrics"].values()),
                  f"{tag}: every value is a number")
            text = p.stdout
            for word in human[w] + ("setup_s", "peak_rss_mb", "failed_frac",
                                    "fingerprint"):
                check(word in text, f"{tag}: prints {word}")
            if trace:
                for word in ("estimate.unexplained_ms", "md.unexplained_ms"
                             if w == "md_dhfr" else "unexplained_ms",
                             "tracing overhead"):
                    check(word in text, f"{tag}: prints {word}")

    # Corrupted references must fail the correctness check.
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        ref = json.load(f)
    entry = ref["estimates"]["estimate_dhfr512/tiny"]["2014"]
    bits = int(entry["us_per_day"], 16) ^ 1
    entry["us_per_day"] = f"0x{bits:016x}"
    ref["md_energy_drift_band"] = 0.0
    bad = os.path.join(SCRATCH, "reference-corrupted.json")
    with open(bad, "w", encoding="utf-8") as f:
        json.dump(ref, f)
    for w in ("estimate_dhfr512", "md_dhfr"):
        p, res = bench(w, 0, extra=("--reference", bad))
        check(res is not None and res["correct"] is False
              and res["failed"] >= 1,
              f"{w}: a corrupted reference fails the check")

    env = dict(os.environ, ANTON_PERF="1")
    p, res = bench("estimate_dhfr512", 0, env=env)
    check(p.returncode != 0 and res is None,
          "a run with ANTON_PERF set is refused")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
