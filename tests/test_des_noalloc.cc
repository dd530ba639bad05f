// Zero-allocation guarantee for the discrete-event core.
//
// This binary links the counting allocator (alloc_counter.cc) so the
// steady-state tests can assert that a warmed event queue, torus, and
// TimestepRunner perform no heap allocation at all while simulating — the
// DES analogue of the short-range pipeline's guarantee in
// test_md_threaded.cc.  Every schedule draws a pooled arena slot, every
// delivery recycles it, and replaying a step graph touches only memory the
// first run left warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "alloc_counter.h"
#include "arch/config.h"
#include "chem/builder.h"
#include "core/timestep.h"
#include "core/workload.h"
#include "noc/torus.h"
#include "sim/event_queue.h"

namespace anton {
namespace {

using test_support::g_allocs;

// Self-scheduling chain event: each firing frees its arena slot, then
// reclaims it for the follow-up — the torus delivery pattern in miniature.
struct Hopper {
  sim::EventQueue* q;
  int remaining;
  void operator()() const {
    if (remaining > 0) {
      q->schedule_after(1.0 + 0.5 * (remaining % 3),
                        Hopper{q, remaining - 1});
    }
  }
};

TEST(DesNoAlloc, WarmedQueueStormAllocatesNothing) {
  sim::EventQueue q;
  auto storm = [&] {
    for (int c = 0; c < 32; ++c) {
      q.schedule_after(1.0 + 0.25 * c, Hopper{&q, 50});
    }
    q.run();
  };
  storm();  // grows arena + heap to steady-state capacity
  q.check_arena();

  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  storm();
  const std::int64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0) << "steady-state event storm allocated";
  q.check_arena();
  EXPECT_EQ(q.arena_free(), q.arena_slots());
}

struct CountDelivery {
  uint64_t* n;
  void operator()() const { ++*n; }
};

struct CountMcastDelivery {
  uint64_t* n;
  void operator()(int) const { ++*n; }
};

TEST(DesNoAlloc, WarmedTorusTrafficAllocatesNothing) {
  sim::EventQueue q;
  noc::TorusConfig tc;
  tc.nx = tc.ny = tc.nz = 4;
  noc::Torus torus(tc, &q);
  const std::vector<int> dsts{1, 5, 21, 42, 63};
  uint64_t delivered = 0;

  auto storm = [&] {
    for (int i = 0; i < 48; ++i) {
      torus.unicast((i * 7) % 64, (i * 13 + 5) % 64, 256.0,
                    CountDelivery{&delivered});
      if (i % 4 == 0) {
        torus.multicast((i * 11) % 64, dsts, 512.0,
                        CountMcastDelivery{&delivered});
      }
    }
    q.run();
  };
  storm();  // warms route scratch, multicast tree arrays, event arena
  torus.check_quiescent();

  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  storm();
  const std::int64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0) << "steady-state torus traffic allocated";
  torus.check_quiescent();
  EXPECT_EQ(delivered, 2u * (48 + 12 * dsts.size()));
}

TEST(DesNoAlloc, WarmedTimestepRunnerAllocatesNothing) {
  BuilderOptions opt;
  opt.total_atoms = 2048;
  opt.temperature_k = -1;  // positions only; velocities don't affect timing
  const System sys = build_solvated_system(opt);
  const arch::MachineConfig cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload workload = core::Workload::build(sys, cfg);

  core::TimestepRunner runner(workload, cfg, {.include_long_range = true});
  const double first = runner.run_timestep();
  const double second = runner.run_timestep();

  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  const double third = runner.run_timestep();
  const std::int64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0) << "steady-state run_timestep() allocated";

  // Replay is exact, not approximate: same graph, same queue order, same
  // link horizons from t = 0 every run.
  EXPECT_EQ(first, second);
  EXPECT_EQ(second, third);
  EXPECT_GT(third, 0.0);
}

TEST(DesNoAlloc, ShortStepRunnerAllocatesNothing) {
  BuilderOptions opt;
  opt.total_atoms = 2048;
  opt.temperature_k = -1;
  const System sys = build_solvated_system(opt);
  const arch::MachineConfig cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload workload = core::Workload::build(sys, cfg);

  core::TimestepRunner runner(workload, cfg, {.include_long_range = false});
  const double first = runner.run_timestep();
  runner.run_timestep();

  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  const double again = runner.run_timestep();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0);
  EXPECT_EQ(first, again);
}

TEST(DesNoAlloc, AlternatingFullAndShortStepsAllocateNothing) {
  // The machine run loop's steady state: one runner alternating the full
  // and the short step.  Each mode keeps its own stats maps warm, so after
  // one warm-up round neither mode allocates, and every round repeats the
  // first bit for bit.
  BuilderOptions opt;
  opt.total_atoms = 2048;
  opt.temperature_k = -1;
  const System sys = build_solvated_system(opt);
  const arch::MachineConfig cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload workload = core::Workload::build(sys, cfg);

  core::TimestepRunner runner(workload, cfg, {});
  const double full = runner.run_timestep(true);
  const core::ExecStats full_stats = runner.exec();
  const double part = runner.run_timestep(false);
  const core::ExecStats short_stats = runner.exec();
  EXPECT_LT(short_stats.tasks_executed, full_stats.tasks_executed);
  EXPECT_EQ(short_stats.phase_busy_ns.count("fft"), 0u);

  for (int round = 0; round < 3; ++round) {
    const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
    const double f = runner.run_timestep(true);
    const bool full_same = runner.exec().phase_busy_ns ==
                               full_stats.phase_busy_ns &&
                           runner.exec().critical_path_ns ==
                               full_stats.critical_path_ns;
    const double s = runner.run_timestep(false);
    const bool short_same = runner.exec().phase_busy_ns ==
                                short_stats.phase_busy_ns &&
                            runner.exec().critical_path_ns ==
                                short_stats.critical_path_ns;
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0)
        << "round " << round;
    EXPECT_EQ(f, full);
    EXPECT_EQ(s, part);
    EXPECT_TRUE(full_same) << "round " << round;
    EXPECT_TRUE(short_same) << "round " << round;
  }
}

}  // namespace
}  // namespace anton
