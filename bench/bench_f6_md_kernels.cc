// F6 — Commodity-baseline kernel throughput on this host (google-benchmark).
// Grounds the F4 comparison: these are the kernels a commodity platform runs
// in software that Anton executes in silicon.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "chem/builder.h"
#include "common/simd.h"
#include "common/threadpool.h"
#include "fft/fft.h"
#include "md/constraints.h"
#include "md/engine.h"
#include "md/gse.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"
#include "md/workspace.h"
#include "obs/flightrecorder.h"

namespace anton::md {
namespace {

// Crash forensics for bench runs: a kill or invariant failure mid-run dumps
// the flight-recorder rings (tools/validate_trace.py reads the dump).
const bool g_flight_armed = [] {
  obs::flight::install_crash_handler();
  return true;
}();

const System& water4k() {
  static const System sys = build_water_box(1331, 7);  // 3,993 atoms
  return sys;
}

// Arg(0) = the number of worker threads; 1 runs the serial path.  The
// parallel build produces bit-identical CSR output for every thread count.
void BM_NeighborListBuild(benchmark::State& state) {
  const System& sys = water4k();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  ThreadPool pool(threads);
  ThreadPool* p = threads > 1 ? &pool : nullptr;
  NeighborList nlist(9.0, 1.0);
  for (auto _ : state) {
    nlist.build(sys.box(), sys.positions(), sys.topology(), p);
    benchmark::DoNotOptimize(nlist.num_pairs());
  }
  state.counters["pairs"] = static_cast<double>(nlist.num_pairs());
}
BENCHMARK(BM_NeighborListBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Steady-state short-range pair evaluation: persistent workspace (premixed
// LJ table, prescaled charges, the erfc table when tabulated) and
// per-thread force buffers, so iterations after the first perform zero heap
// allocation.
void run_pairs(benchmark::State& state, ThreadPool* p, bool tabulate_erfc) {
  const System& sys = water4k();
  NeighborList nlist(9.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology(), p);
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  ForceWorkspace ws;
  {
    // Untimed warm-up: fills the workspace and sizes all scratch so the
    // loop below measures the allocation-free steady state only.
    EnergyReport e;
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, p, false, &ws, tabulate_erfc);
  }
  for (auto _ : state) {
    EnergyReport e;
    std::fill(f.begin(), f.end(), Vec3{});
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, p, /*shift_at_cutoff=*/false, &ws, tabulate_erfc);
    benchmark::DoNotOptimize(e.lj);
  }
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(nlist.num_pairs()), benchmark::Counter::kIsRate);
}

// The production pair path: the SIMD kernel on the erfc table.
void BM_NonbondedPairs(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  ThreadPool pool(threads);
  run_pairs(state, threads > 1 ? &pool : nullptr, /*tabulate_erfc=*/true);
}
BENCHMARK(BM_NonbondedPairs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The SIMD floor's reference: the library's exact scalar kernel
// (tabulate_erfc = false, the reference the tests compare the table
// against), serial like BM_NonbondedPairs/1.  The "simd_avx2" counter tells
// scripts/check.sh whether its floor applies: on an AVX2 build the
// production path must run >= 3x faster than this.
void BM_PairKernelExact(benchmark::State& state) {
  run_pairs(state, nullptr, /*tabulate_erfc=*/false);
  state.counters["simd_avx2"] = simd::kAvx2 ? 1.0 : 0.0;
}
BENCHMARK(BM_PairKernelExact)->Unit(benchmark::kMillisecond);

void BM_GseMesh(benchmark::State& state) {
  const System& sys = water4k();
  GseMesh gse(sys.box(), 0.35, 1.1, 1.2);
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  for (auto _ : state) {
    EnergyReport e;
    std::fill(f.begin(), f.end(), Vec3{});
    gse.compute(sys.topology(), sys.positions(), f, e);
    benchmark::DoNotOptimize(e.coulomb_kspace);
  }
  state.counters["mesh"] = static_cast<double>(gse.mesh_points());
}
BENCHMARK(BM_GseMesh)->Unit(benchmark::kMillisecond);

// The real-to-complex round trip GseMesh::compute runs on its charge mesh.
void BM_Fft3D(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Fft3D fft(n, n, n);
  std::vector<double> mesh(fft.num_points());
  Rng rng(4, 0);
  for (double& v : mesh) v = rng.uniform();
  std::vector<Complex> spectrum(fft.half_points());
  for (auto _ : state) {
    fft.forward_real(mesh, spectrum);
    fft.inverse_real(spectrum, mesh);
    benchmark::DoNotOptimize(mesh.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// Arg(0) = the number of worker threads, as in BM_NeighborListBuild.  One
// persistent solver, as Simulation keeps: the constraint groups are found
// once, outside the timed loop.
void BM_ShakeWater(benchmark::State& state) {
  const System& sys = water4k();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  ThreadPool pool(threads);
  ThreadPool* p = threads > 1 ? &pool : nullptr;
  const ConstraintSolver solver(sys.topology_ptr());
  std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  std::vector<Vec3> pos(ref.size());
  std::vector<Vec3> vel(ref.size());
  Rng rng(3, 0);
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < pos.size(); ++i) {
      pos[i] = ref[i] + 0.02 * rng.gaussian_vec3();
    }
    std::fill(vel.begin(), vel.end(), Vec3{});
    state.ResumeTiming();
    const auto stats =
        solver.shake(sys.box(), ref, pos, vel, 0.01, 1e-8, 200, p);
    benchmark::DoNotOptimize(stats.iterations);
  }
  state.counters["constraints"] =
      static_cast<double>(sys.topology().constraints().size());
}
BENCHMARK(BM_ShakeWater)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_FullStep(benchmark::State& state) {
  MdParams p;
  p.cutoff = 9.0;
  p.skin = 1.0;
  p.dt_fs = 2.5;
  p.respa_k = 2;
  p.long_range = LongRangeMethod::kMesh;
  System sys = water4k();
  Simulation sim(std::move(sys), p);
  sim.step(2);
  // One full RESPA cycle (respa_k inner steps) per iteration, so every
  // iteration does the same work regardless of step parity.
  for (auto _ : state) {
    sim.step(p.respa_k);
    benchmark::DoNotOptimize(sim.step_count());
  }
  state.counters["atoms"] = static_cast<double>(sim.system().num_atoms());
  state.counters["steps_per_iter"] = static_cast<double>(p.respa_k);
}
BENCHMARK(BM_FullStep)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace anton::md

BENCHMARK_MAIN();
