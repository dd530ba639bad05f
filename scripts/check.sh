#!/usr/bin/env bash
# Pre-PR gate: default build + full ctest + anton-lint + callgraph + sanitizer
# passes.
#
# Usage:
#   scripts/check.sh                  # everything: build, ctest, lint,
#                                     # callgraph, scalar backend, ASan + UBSan
#   scripts/check.sh --fast           # inner-loop subset: default build,
#                                     # ctest, lint (+ fixtures), callgraph
#                                     # gate; skips the scalar-backend
#                                     # rebuild, force-parity diff, telemetry
#                                     # smoke, bench smoke, perfbench
#                                     # self-test and estimate exactness
#                                     # gate, and all sanitizer trees
#                                     # (minutes -> seconds of rebuild)
#   ANTON_CHECK_SANITIZERS="address undefined thread" scripts/check.sh
#   ANTON_CHECK_SANITIZERS="" scripts/check.sh   # skip sanitizer builds
#
# Each sanitizer preset builds into its own directory (build-<preset>) so the
# instrumented trees never collide with the default build/.  TSan is not in
# the default list because it is an order of magnitude slower; add it via
# ANTON_CHECK_SANITIZERS before merging thread-pool or kernel changes.
# The callgraph gate builds its own tree too (build-cg/, GCC -O0 with
# -fcallgraph-info=su) — see tools/anton_callgraph.py.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
  esac
done

JOBS="${ANTON_CHECK_JOBS:-$(nproc)}"
SANITIZERS="${ANTON_CHECK_SANITIZERS-address undefined}"

step() { printf '\n==> %s\n' "$*"; }

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

step "default build (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

step "ctest (default build)"
ctest --test-dir build --output-on-failure -j"$JOBS"

step "anton-lint (src/ must be clean, fixtures must fail, suppressions hold)"
python3 tools/anton_lint.py src
if python3 tools/anton_lint.py -q tools/lint_fixtures; then
  echo "error: lint fixtures passed — anton_lint.py has rotted into a no-op" >&2
  exit 1
fi
echo "lint fixtures correctly rejected"
python3 tools/anton_lint.py -q tools/lint_fixtures/passing
echo "lint suppression fixtures correctly accepted"

step "callgraph purity gate (build-cg/, -DANTON_CALLGRAPH=ON)"
cmake -B build-cg -S . -DANTON_CALLGRAPH=ON >/dev/null
cmake --build build-cg -j"$JOBS"
ctest --test-dir build-cg --output-on-failure -j"$JOBS" -R 'anton_callgraph'

if [ "$FAST" = 1 ]; then
  step "fast gate passed (scalar backend, telemetry, bench, perfbench, estimate exactness and sanitizer passes skipped)"
  exit 0
fi

step "scalar-backend build (build-scalar/, ANTON_SIMD=scalar)"
cmake -B build-scalar -S . -DANTON_SIMD=scalar >/dev/null
cmake --build build-scalar -j"$JOBS"

step "ctest (scalar backend)"
ctest --test-dir build-scalar --output-on-failure -j"$JOBS"

step "cross-backend force and trajectory parity (native vs scalar, bitwise)"
./build/examples/force_hash > "$SCRATCH/force_hash_native.txt"
./build-scalar/examples/force_hash > "$SCRATCH/force_hash_scalar.txt"
diff "$SCRATCH/force_hash_native.txt" "$SCRATCH/force_hash_scalar.txt"
echo "force and trajectory digests byte-identical across SIMD backends:"
grep -E 'force_digest|position_digest|velocity_digest' \
  "$SCRATCH/force_hash_native.txt"

# The snapshot must say where host time went (MD phases, machine-model
# layers) and where simulated time went (DES makespan, critical wait, phase
# busy time), and carry no hardware-counter sample.
step "telemetry smoke (trace + metrics round-trip)"
./build/examples/quickstart atoms=1500 nodes=8 steps=4 \
  --trace "$SCRATCH/trace.json" --metrics "$SCRATCH/metrics.json" >/dev/null
python3 tools/validate_trace.py "$SCRATCH/trace.json"
python3 tools/check_metrics.py "$SCRATCH/metrics.json"

step "flight-recorder smoke (exit dump must validate as a flight trace)"
ANTON_FLIGHT_EXIT_DUMP=1 ANTON_FLIGHT_PATH="$SCRATCH/flight.json" \
  ./build/examples/quickstart atoms=1500 nodes=8 steps=2 >/dev/null
python3 tools/validate_trace.py --flight "$SCRATCH/flight.json"

# ctest -R matches the gtest names, so name the suites of test_md_threaded,
# test_determinism, test_fft and test_md_constraints, and NeighborList
# (GoldenCsrDigest pins the CSR serially and at pools of 2, 3, 4 and 7).
step "threaded parity (serial vs threaded kernels, bitwise where promised)"
ctest --test-dir build --output-on-failure -j"$JOBS" \
  -R '^(Threaded|Determinism|FftPlan|Fft3D|Shake|Rattle|Constraints|ConstraintSolver|NeighborList)\.'

step "DES core (zero-allocation steady state, sweep parity, masked short step)"
ctest --test-dir build --output-on-failure -j"$JOBS" \
  -R 'DesNoAlloc|SweepRunner|EventQueue|TaskGraph|Timestep'

# The thread pool, sweep runner, flight recorder, threaded MD kernels, the
# threaded pair pass of Workload::build, the threaded neighbour-list build
# and the constraint groups split across the pool make concurrency claims
# that are only as good as their TSan run, so they get a targeted
# thread-sanitizer pass even though full-tree TSan stays opt-in via
# ANTON_CHECK_SANITIZERS.
step "targeted TSan pass (build-thread/, threaded suites only)"
cmake -B build-thread -S . -DANTON_SANITIZE=thread -DANTON_SIMD=scalar \
      >/dev/null
cmake --build build-thread -j"$JOBS" --target test_threadpool test_sweep \
  test_flightrecorder test_md_threaded test_determinism test_workload \
  test_md_nonbonded test_md_constraints
ctest --test-dir build-thread --output-on-failure -j"$JOBS" \
  -L sanitize-thread \
  -R 'ThreadPool|SweepRunner|FlightRecorder|Threaded|Determinism|Workload|NeighborList|Shake|Rattle|Constraint'

step "bench smoke (BENCH_f6.json, BENCH_f8.json) and the SIMD floor"
cmake --build build --target bench-smoke -j"$JOBS"
# On an AVX2 build the production pair path (the SIMD kernel on the erfc
# table, BM_NonbondedPairs/1) must run >= 3x faster than the library's exact
# scalar kernel (BM_PairKernelExact), both serial on the same list, best of
# the 40 repetitions each.  Losing the vectorization or the table drops the
# ratio below 3.
python3 - <<'EOF'
import json
doc = json.load(open('build/BENCH_f6.json'))
best, avx2 = {}, 0
for b in doc['benchmarks']:
    if b.get('run_type') == 'aggregate':
        continue
    best[b['name']] = min(best.get(b['name'], float('inf')), b['real_time'])
    avx2 = max(avx2, int(b.get('simd_avx2', 0)))
if avx2:
    exact, simd = best['BM_PairKernelExact'], best['BM_NonbondedPairs/1']
    ratio = exact / simd
    print(f'exact/SIMD pair-kernel ratio: {ratio:.2f}x '
          f'(exact {exact:.2f} ms, SIMD {simd:.2f} ms)')
    assert ratio >= 3.0, f'SIMD pair kernel below its floor: {ratio:.2f}x < 3x'
else:
    print('scalar SIMD backend: SIMD floor not applicable, skipped')
EOF

# perfbench builds src/*/*.cc with its own CMake tree (.bench_build/), which
# no other step here compiles.
step "perfbench self-test (.bench_build/)"
python3 perfbench/selftest.py

# The machine model's exactness gate at full size, as CI's
# perfbench-reference job runs it: one DHFR/512 and one STMV/512 estimate's
# us/day, both step makespans, critical wait and task count must equal
# perfbench/reference.json bit for bit.
for workload in estimate_dhfr512 estimate_stmv512; do
  step "estimate exactness ($workload against perfbench/reference.json)"
  python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 2 \
    --trace 0 | tee "$SCRATCH/perfbench.log"
  tail -n 1 "$SCRATCH/perfbench.log" | python3 -c '
import json, sys
sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'
done

# Sanitizer trees use the scalar SIMD backend: instrumentation composes
# poorly with wide intrinsics (ASan shadow checks on 32-byte lanes), and the
# scalar path exercises identical per-lane semantics by construction.
for san in $SANITIZERS; do
  step "sanitizer pass: $san (build-$san/, ANTON_SIMD=scalar)"
  cmake -B "build-$san" -S . -DANTON_SANITIZE="$san" \
        -DANTON_SIMD=scalar >/dev/null
  cmake --build "build-$san" -j"$JOBS"
  ctest --test-dir "build-$san" --output-on-failure -j"$JOBS" \
    -L "sanitize-$san"
done

step "all checks passed"
