#!/usr/bin/env python3
"""End-to-end benchmark of anton2sim's two products.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Workloads (see perfbench/WORKLOADS.md for why each was chosen):

  estimate_dhfr512  AntonMachine::estimate() of the DHFR-class system on a
                    512-node Anton 2 (the paper's headline configuration)
  estimate_stmv512  the same call on the 1,066,628-atom STMV-class system
  md_dhfr           host md::Simulation step of the DHFR-class system (F4)

Each run builds perfbench/ (CMake, into .bench_build/perfbench), runs the
perfbench binary once as a single closed-loop caller for --seconds, checks
the outputs, prints human-readable lines, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer split, and a
Chrome trace of the benchmark's spans is written next to the build.

--seed selects one of 16 stored inputs (seed mod 16): system seed 2014 + k
and velocity seed 1 + k (md_dhfr keeps system seed 2014).  Seed 0 is the
configuration the paper tables and F4 use.  Every estimate is checked bit for bit against perfbench/
reference.json; regenerate it with --update-reference after a change that
is meant to move simulated results.

Runs with ANTON_DES_SHARDS, ANTON_SWEEP_THREADS or ANTON_PERF set are
refused: each changes the program being measured.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
VALIDATE_TRACE = os.path.join(ROOT, "tools", "validate_trace.py")

WORKLOADS = ("estimate_dhfr512", "estimate_stmv512", "md_dhfr")
ESTIMATE_WORKLOADS = WORKLOADS[:2]
REFUSED_ENV = ("ANTON_DES_SHARDS", "ANTON_SWEEP_THREADS", "ANTON_PERF")
SEED_SLOTS = 16

# End-to-end metrics (--trace 0), with their units.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (--trace 1), with their units.
PER_LAYER = {
    "workload.build_ms": "ms",
    "workload.pairs": "count",
    "workload.ns_per_pair": "ns",
    "workload.tiles": "count",
    "graph.build_ms": "ms",
    "graph.tasks": "count",
    "graph.messages": "count",
    "runner.setup_ms": "ms",
    "replay.ms": "ms",
    "replay.tasks": "count",
    "replay.ns_per_task": "ns",
    "noc.messages": "count",
    "noc.bytes": "B",
    "estimate.unexplained_ms": "ms",
    "nlist.build_ms": "ms",
    "nlist.builds_per_100_steps": "count",
    "nlist.pairs": "count",
    "pair.ms": "ms",
    "pair.ns_per_pair": "ns",
    "shake.ms": "ms",
    "shake.iterations": "count",
    "gse.ms": "ms",
    "bonded.ms": "ms",
    "nlist.speedup": "x",
    "pair.speedup": "x",
    "shake.speedup": "x",
    "gse.speedup": "x",
    "unexplained_ms": "ms",
    "sim.us_per_day": "us/day",
    "sim.full_step_ns": "ns",
    "sim.short_step_ns": "ns",
    "sim.critical_wait_ns": "ns",
    "trace.overhead_ms": "ms",
}

SIM_FIELDS = ("us_per_day", "full_step_ns", "short_step_ns",
              "critical_wait_ns", "tasks")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def seeds(workload, seed):
    """(system seed, velocity seed) of input slot seed mod 16.  md_dhfr
    keeps the seed-0 system: after F4's 200-step minimisation the other
    synthetic systems are not stable enough to step (see WORKLOADS.md)."""
    slot = seed % SEED_SLOTS
    return 2014 + (0 if workload == "md_dhfr" else slot), 1 + slot


def build():
    """Configures once, then builds incrementally; returns True if it ran
    the configure step (a cold build)."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die(f"no library sources at {os.path.join(ROOT, 'src')}; run from a "
            "full checkout of the repository")
    cold = not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
    steps = []
    if cold:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    # Keep the compilers' temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            die("build failed", 1)
    return cold


def run_binary(args, timeout_s):
    try:
        p = subprocess.run([BINARY] + args, capture_output=True, text=True,
                           timeout=timeout_s)
    except subprocess.TimeoutExpired:
        die(f"perfbench binary exceeded {timeout_s:.0f} s", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        die(f"perfbench binary exited with {p.returncode}", 1)
    lines = p.stdout.strip().splitlines()
    if not lines:
        die("perfbench binary printed nothing", 1)
    return json.loads(lines[-1])


def tail(xs):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank); the median when there are too few samples."""
    s = sorted(xs)
    n = len(s)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, s[rank - 1]
    return 50, statistics.median(s)


def med(layers, key):
    return statistics.median(layers[key])


def sim_mismatch(sim, ref):
    """Names of the fields of one estimate that differ from the reference."""
    bad = [f for f in SIM_FIELDS if sim.get(f) != ref[f]]
    if "pairs" in sim and sim["pairs"] != ref["pairs"]:
        bad.append("pairs")
    return bad


def check_trace(path):
    """Runs tools/validate_trace.py on the span file; None when it passes."""
    p = subprocess.run([sys.executable, VALIDATE_TRACE, path],
                       capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        return (p.stderr.strip() or p.stdout.strip() or
                f"validate_trace.py exited with {p.returncode}")
    return None


def layer_metrics(workload, res, op_ms):
    """Reduces the traced run's layer samples to the per-layer metrics."""
    L = res["layers"]
    m = {}
    # Machine-model layers: per-op samples, aligned across keys.
    ctor, graph = L["runner.ctor_ms"], L["graph.build_ms"]
    m["workload.build_ms"] = med(L, "workload.build_ms")
    m["workload.pairs"] = med(L, "workload.pairs")
    m["workload.ns_per_pair"] = m["workload.build_ms"] * 1e6 / m["workload.pairs"]
    m["workload.tiles"] = med(L, "workload.tiles")
    m["graph.build_ms"] = med(L, "graph.build_ms")
    m["graph.tasks"] = med(L, "graph.tasks")
    m["graph.messages"] = med(L, "graph.messages")
    m["runner.setup_ms"] = statistics.median(
        c - g for c, g in zip(ctor, graph))
    m["replay.ms"] = med(L, "replay.ms")
    m["replay.tasks"] = med(L, "replay.tasks")
    m["replay.ns_per_task"] = m["replay.ms"] * 1e6 / m["replay.tasks"]
    m["noc.messages"] = med(L, "noc.messages")
    m["noc.bytes"] = med(L, "noc.bytes")
    m["estimate.unexplained_ms"] = statistics.median(
        e - b - c - r for e, b, c, r in zip(
            L["estimate.ms"], L["workload.build_ms"], ctor, L["replay.ms"]))
    # MD layers.
    m["nlist.build_ms"] = med(L, "nlist.build_ms")
    m["nlist.pairs"] = med(L, "nlist.pairs")
    m["pair.ms"] = med(L, "pair.ms")
    m["pair.ns_per_pair"] = m["pair.ms"] * 1e6 / m["nlist.pairs"]
    m["shake.ms"] = med(L, "shake.ms")
    m["shake.iterations"] = med(L, "shake.iterations")
    m["gse.ms"] = med(L, "gse.ms")
    m["bonded.ms"] = med(L, "bonded.ms")
    for layer in ("nlist.build", "pair", "shake", "gse"):
        key = layer + "_ms" if layer == "nlist.build" else layer + ".ms"
        name = layer.split(".")[0] + ".speedup"
        m[name] = med(L, key + ".serial") / med(L, key)
    if workload == "md_dhfr":
        md = res["md"]
        per_step_builds = md["nlist_builds"] / md["steps"]
        m["nlist.builds_per_100_steps"] = 100 * per_step_builds
        explained = (m["nlist.build_ms"] * per_step_builds + m["pair.ms"] +
                     m["shake.ms"] + m["gse.ms"] / md["respa_k"] +
                     m["bonded.ms"])
        m["md.unexplained_ms"] = statistics.median(op_ms) - explained
        m["unexplained_ms"] = m["md.unexplained_ms"]
    else:
        m["nlist.builds_per_100_steps"] = 0  # no MD steps on this workload
        m["unexplained_ms"] = m["estimate.unexplained_ms"]
    for k in ("us_per_day", "full_step_ns", "short_step_ns",
              "critical_wait_ns"):
        m["sim." + k] = med(L, "sim." + k)
    m["trace.overhead_ms"] = res["trace_overhead_ms"] / len(op_ms)
    return m


def update_reference(size):
    ref = load_reference(REFERENCE)
    slots = range(SEED_SLOTS) if size == "full" else range(1)
    for w in ESTIMATE_WORKLOADS:
        key = w if size == "full" else f"{w}/tiny"
        table = ref["estimates"].setdefault(key, {})
        for slot in slots:
            system_seed, _ = seeds(w, slot)
            out = run_binary(["--workload", w, "--size", size,
                              "--system-seed", str(system_seed),
                              "--reference"], 3600)["reference"]
            table[str(system_seed)] = {
                f: out[f] for f in SIM_FIELDS + ("pairs", "us_per_day_value")}
            print(f"{key} system seed {system_seed}: "
                  f"{out['us_per_day_value']:.6f} us/day, "
                  f"{out['pairs']} pairs, {out['tasks']} tasks", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def load_reference(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a 3,000-atom system on 8 nodes (self-test)")
    ap.add_argument("--reference", default=REFERENCE,
                    help="reference file to check outputs against")
    ap.add_argument("--update-reference", action="store_true",
                    help="regenerate reference.json for --size and exit")
    a = ap.parse_args()
    started = time.monotonic()

    refused = [k for k in REFUSED_ENV if os.environ.get(k)]
    if refused:
        die(f"refusing to run with {', '.join(refused)} set: it changes the "
            "program being measured")
    if not a.update_reference and a.workload is None:
        die("--workload is required")

    cold = build()
    if a.update_reference:
        update_reference(a.size)
        return

    system_seed, velocity_seed = seeds(a.workload, a.seed)
    trace_path = os.path.join(
        BUILD, f"trace-{a.workload}-{a.size}-seed{a.seed}.json")
    args = ["--workload", a.workload, "--size", a.size,
            "--system-seed", str(system_seed),
            "--velocity-seed", str(velocity_seed),
            "--seconds", str(a.seconds)]
    if a.trace:
        args += ["--trace-path", trace_path]
    # --seconds of measuring plus a margin for set-up, the last operation
    # and the traced run's extra layer calls; a cold build may take longer.
    margin = 870 if cold else 155
    budget = a.seconds + margin - (time.monotonic() - started)
    res = run_binary(args, max(budget, 10))

    ref = load_reference(a.reference)
    op_ms = res["op_ms"]
    attempted = len(op_ms)
    problems = []
    failed = 0
    if a.workload in ESTIMATE_WORKLOADS:
        key = a.workload if a.size == "full" else f"{a.workload}/tiny"
        want = ref["estimates"].get(key, {}).get(str(system_seed))
        if want is None:
            problems.append(f"no reference for {key} system seed "
                            f"{system_seed}")
            failed = attempted
        for i, sim in enumerate(res["sims"]):
            bad = sim_mismatch(sim, want) if want else []
            if bad:
                failed += 1
                problems.append(f"estimate {i}: {', '.join(bad)} differ "
                                "from the reference")
    else:
        md = res["md"]
        band = ref["md_energy_drift_band"]
        over = [d for d in md["energy_drift"] if d is None or not d <= band]
        failed += len(res["errors"]) + len(over)
        if over:
            problems.append(f"{len(over)} segment(s) drifted beyond "
                            f"|dE|/KE = {band:g} (or not finite)")
        if md["validate_error"]:
            failed += 1
            problems.append("NeighborList::validate: " + md["validate_error"])
    problems += res["errors"]
    failed = min(failed, attempted)
    if a.trace:
        bad_trace = check_trace(trace_path)
        if bad_trace:
            problems.append(bad_trace)

    env = {k: v for k, v in sorted(os.environ.items())
           if k.startswith("ANTON_")}
    print(f"perfbench: workload {a.workload}, seed {a.seed} (system seed "
          f"{system_seed}, velocity seed {velocity_seed}), size {a.size}, "
          f"{a.seconds:g} s, trace {a.trace}")
    print("fingerprint: " + json.dumps(dict(res["fingerprint"], env=env)))

    md_work = a.workload == "md_dhfr"
    op = "md_step_ms" if md_work else "estimate_ms"
    pct, tail_ms = tail(op_ms)
    e2e = {
        "setup_s": statistics.median(res["setup_s"]),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": attempted / (sum(op_ms) / 1e3),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if md_work:
        print(f"setup_s = {e2e['setup_s']:.4f} s (median system build + "
              "minimisation calls x their median + velocities and first "
              "Simulation; max force after minimisation "
              f"{res['md']['minimize_max_force']:.1f} kcal/mol/A)")
    else:
        print(f"setup_s = {e2e['setup_s']:.4f} s (median of "
              f"{len(res['setup_s'])} system builds)")
    print(f"{op}_p50 = {e2e['op_ms_p50']:.3f} ms  [op_ms_p50]  "
          f"(n = {attempted})")
    if pct > 50:
        why = (f"p{pct}: the highest percentile with >= 10 of {attempted} "
               "samples beyond it")
    else:
        why = f"too few samples for a tail: the median of {attempted}"
    print(f"{op}_tail = {tail_ms:.3f} ms  [op_ms_tail]  ({why})")
    if md_work:
        ns_day = res["md"]["dt_fs"] * e2e["ops_per_s"] * 86400 * 1e-6
        print(f"md_ns_per_day = {ns_day:.4f} ns/day  "
              f"({e2e['ops_per_s']:.3f} steps/s [ops_per_s])")
    else:
        print(f"estimates_per_s = {e2e['ops_per_s']:.4f} 1/s  [ops_per_s]")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    print(f"failed_frac = {failed / attempted:g} ({failed} failed of "
          f"{attempted} attempted)")

    if a.trace:
        metrics = layer_metrics(a.workload, res, op_ms)
        print(f"traced {op}_p50 = {statistics.median(op_ms):.3f} ms; "
              f"tracing overhead {metrics['trace.overhead_ms']:.4f} ms/op")
        for k in sorted(metrics):
            unit = PER_LAYER.get(k, "ms")
            print(f"  {k} = {metrics[k]:.6g} {unit}")
        out = {k: {"value": metrics[k], "unit": PER_LAYER[k]}
               for k in PER_LAYER}
    else:
        out = {k: {"value": e2e[k], "unit": END_TO_END[k]} for k in END_TO_END}

    for p in problems[:20]:
        print("CHECK FAILED: " + p)
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
