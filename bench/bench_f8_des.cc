// F8 — Discrete-event core: the pooled inline-callable queue + 4-ary heap
// on a mixed unicast/multicast event storm, the same queue under the real
// step replay (one warmed TimestepRunner on the DHFR-class system at 512
// nodes, full and RESPA-short step), and the parallel sweep harness vs a
// serial estimate loop.
//
// The sweep section replays the F3 study (event-driven vs BSP across node
// counts) serially and on a 4-thread SweepRunner and checks the merged
// results are bitwise identical — the harness buys wall time, never drift.
//
// Set ANTON_BENCH_SMOKE=1 to shrink repetitions for CI.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <vector>

#include "bench_util.h"
#include "core/timestep.h"
#include "core/workload.h"
#include "obs/profiler.h"
#include "sim/event_queue.h"

namespace anton::bench {
namespace {

// Deterministic per-event jitter so chains interleave and the heap is
// genuinely exercised (uniform delays would degenerate into FIFO order).
double hop_delay(uint32_t chain, int d) {
  const uint32_t salt = chain * 2654435761u + static_cast<uint32_t>(d);
  return 1.0 + 0.25 * static_cast<double>(salt % 7);
}

// The delivery payload the storm carries: a counter plus the (task, sender)
// ids the executor's release callbacks capture.
struct Deliver {
  uint64_t* counter;
  uint64_t task_id;
  uint64_t sender_id;
  void operator()() const { ++*counter; }
};

// Every third hop is multicast-shaped: in a step graph the position-import
// multicasts and the force-return unicasts are comparable in delivery
// count, so a 2:1 unicast:multicast event mix is a conservative stand-in.
// kFanOut = 4 is deliberately conservative: the real 512-node step graph's
// position multicasts reach up to 13 import-region destinations (avg 10.3).
constexpr int kMcastEvery = 3;
constexpr int kFanOut = 4;

// ---- Pooled storm: the delivery callable stays a plain struct captured
// inline, and the multicast callback resolves its dependent through a
// persistent array by index (the executor's shape) — no type-erased
// allocation, no per-call containers.
struct PooledStorm {
  sim::EventQueue q;
  uint64_t delivered = 0;
  int depth = 0;
  std::vector<int> mcast_deps = std::vector<int>(kFanOut, 1);

  void hop(uint32_t chain, int d) {
    if (d % kMcastEvery == kMcastEvery - 1) {
      mcast_hop(chain, d);
      return;
    }
    const Deliver deliver{&delivered, chain, static_cast<uint64_t>(d)};
    q.schedule_after(hop_delay(chain, d), [this, chain, d, deliver] {
      deliver();
      if (d + 1 < depth) hop(chain, d + 1);
    });
  }

  void mcast_hop(uint32_t chain, int d) {
    q.schedule_after(
        hop_delay(chain, d), [this, deps = &mcast_deps, chain, d] {
          delivered += static_cast<uint64_t>(
              (*deps)[static_cast<size_t>(
                  (chain + static_cast<uint32_t>(d)) %
                  static_cast<uint32_t>(deps->size()))]);
          if (d + 1 < depth) hop(chain, d + 1);
        });
  }
};

// Minimum over `reps` full storms (build, schedule, drain), in ms per storm
// — the stable statistic on hosts with bursty background load.
double storm_ms(int reps, int chains, int depth) {
  const uint64_t events =
      static_cast<uint64_t>(chains) * static_cast<uint64_t>(depth);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = obs::wall_seconds();
    {
      PooledStorm storm;
      storm.depth = depth;
      for (int c = 0; c < chains; ++c) {
        storm.hop(static_cast<uint32_t>(c), 0);
      }
      storm.q.run();
      ANTON_CHECK(storm.delivered == events);
    }
    best = std::min(best, obs::wall_seconds() - t0);
  }
  return best * 1e3;
}

// One replay's cost on a warmed runner: minimum over `reps`.
struct ReplayCost {
  uint64_t tasks = 0;
  uint64_t events = 0;       // EventQueue::executed()
  size_t peak_pending = 0;   // arena slots: the most events ever pending
  double ms = 0;
};

ReplayCost replay_cost(core::TimestepRunner& runner, bool full, int reps) {
  runner.run_timestep(full);  // warm this mode's buffers
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = obs::wall_seconds();
    runner.run_timestep(full);
    best = std::min(best, obs::wall_seconds() - t0);
  }
  return {runner.exec().tasks_executed, runner.queue().executed(),
          runner.queue().arena_slots(), best * 1e3};
}

// Runs fn on the caller inside a one-thread ThreadPool dispatch: code that
// checks ThreadPool::in_dispatch() (Workload::build's pair pass) stays
// serial, exactly as it does on a SweepRunner worker.
template <class Fn>
void in_serial_dispatch(Fn&& fn) {
  ThreadPool one(1);
  std::exception_ptr err;
  one.for_each_thread([&](unsigned) {
    try {
      fn();
    } catch (...) {
      err = std::current_exception();
    }
  });
  if (err) std::rethrow_exception(err);
}

}  // namespace
}  // namespace anton::bench

int main() {
  using namespace anton;
  using namespace anton::bench;

  const bool smoke = std::getenv("ANTON_BENCH_SMOKE") != nullptr;
  const int reps = smoke ? 3 : 7;
  const int chains = smoke ? 64 : 512;
  const int depth = smoke ? 250 : 2500;

  print_header("F8", "Discrete-event core and sweep harness");
  BenchReport report("f8");

  {
    std::cout << "\n-- single-queue event storm (" << chains << " chains x "
              << depth << " hops, mixed unicast/multicast) --\n";
    const double ms = storm_ms(reps, chains, depth);
    const double meps =
        static_cast<double>(chains) * static_cast<double>(depth) / (ms * 1e3);
    report.record("queue.meps", meps);
    TextTable t({"ms/storm", "events/us", "ns/event"});
    t.add_row({TextTable::fmt(ms, 2), TextTable::fmt(meps, 2),
               TextTable::fmt(1e3 / meps, 1)});
    t.print(std::cout);
  }

  {
    std::cout << "\n-- step replay, one warmed TimestepRunner (DHFR-class, "
                 "512 nodes) --\n";
    const arch::MachineConfig cfg = machine_preset("anton2", 512);
    const core::Workload w = core::Workload::build(dhfr_system(), cfg);
    TextTable t({"step", "tasks", "events", "events/task", "peak pending",
                 "ms/replay", "ns/event"});
    for (const bool full : {true, false}) {
      // A runner per step, so each one's arena measures its own peak.
      core::TimestepRunner runner(w, cfg);
      const ReplayCost c = replay_cost(runner, full, smoke ? 5 : 20);
      const std::string key = full ? "replay.full." : "replay.short.";
      const double per_task =
          static_cast<double>(c.events) / static_cast<double>(c.tasks);
      const double ns_per_event = c.ms * 1e6 / static_cast<double>(c.events);
      report.record(key + "tasks", static_cast<double>(c.tasks));
      report.record(key + "events", static_cast<double>(c.events));
      report.record(key + "events_per_task", per_task);
      report.record(key + "peak_pending", static_cast<double>(c.peak_pending));
      report.record(key + "ms", c.ms);
      report.record(key + "ns_per_event", ns_per_event);
      t.add_row({full ? "full" : "short", std::to_string(c.tasks),
                 std::to_string(c.events), TextTable::fmt(per_task, 2),
                 std::to_string(c.peak_pending), TextTable::fmt(c.ms, 2),
                 TextTable::fmt(ns_per_event, 1)});
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n-- F3 sweep (event vs BSP), serial vs SweepRunner(4) --\n";
    const System& sys = dhfr_system();
    std::vector<core::EstimatePoint> pts;
    const std::vector<int> node_counts =
        smoke ? std::vector<int>{8, 16} : std::vector<int>{8, 32, 64, 128};
    for (int nodes : node_counts) {
      pts.push_back({machine_preset("anton2", nodes), 2.5, 2});
      pts.push_back({machine_preset("anton2-bsp", nodes), 2.5, 2});
    }

    const core::SweepRunner serial(nullptr);
    ThreadPool pool(4);
    const core::SweepRunner threaded(&pool);

    // The serial loop runs each point on one thread, as a SweepRunner
    // worker does: inside a pool dispatch, where Workload::build stays
    // serial instead of starting a pool of its own.  Warm both paths
    // (system caches, pool threads) before timing.
    std::vector<core::PerfReport> rs;
    in_serial_dispatch([&] { serial.estimate(sys, std::span(pts.data(), 2)); });

    const double t0 = obs::wall_seconds();
    in_serial_dispatch([&] { rs = serial.estimate(sys, pts); });
    const double serial_ms = (obs::wall_seconds() - t0) * 1e3;
    const double t1 = obs::wall_seconds();
    const auto rt = threaded.estimate(sys, pts);
    const double threaded_ms = (obs::wall_seconds() - t1) * 1e3;

    bool match = rs.size() == rt.size();
    for (size_t i = 0; match && i < rs.size(); ++i) {
      match = rs[i].us_per_day() == rt[i].us_per_day() &&
              rs[i].avg_step_ns() == rt[i].avg_step_ns();
    }
    report.record("sweep.points", static_cast<double>(pts.size()));
    report.record("sweep.serial_ms", serial_ms);
    report.record("sweep.threaded_ms", threaded_ms);
    report.record("sweep.speedup", serial_ms / threaded_ms);
    report.record("sweep.match", match ? 1.0 : 0.0);
    TextTable t({"variant", "ms/sweep", "speedup", "bitwise match"});
    t.add_row({"serial loop", TextTable::fmt(serial_ms, 0), "1.00", "-"});
    t.add_row({"SweepRunner, 4 threads", TextTable::fmt(threaded_ms, 0),
               TextTable::fmt(serial_ms / threaded_ms, 2),
               match ? "yes" : "NO"});
    t.print(std::cout);
    if (!match) {
      std::cout << "\nERROR: threaded sweep diverged from serial results\n";
      return 1;
    }
  }

  std::cout << "\nEvery packet delivery and task release in the machine "
               "model rides the event queue,\nso its per-event cost "
               "multiplies through the full simulator.\n";
  return 0;
}
