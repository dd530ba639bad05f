// F8 — Discrete-event core: pooled inline-callable queue + 4-ary heap vs
// the pre-rewrite std::function / std::priority_queue kernel, and the
// parallel sweep harness vs a serial estimate loop.
//
// The storm workload and the compiled-in legacy baseline live together
// below: identical jitter, identical payload shapes and identical FIFO
// tie-breaks keep the comparison honest on any host.
//
// The baseline (namespace `legacy`) is the old event queue: it stored each
// event as a std::function<void()> inside a binary priority_queue, copying
// the top element out on every step.  The torus scheduled deliveries as
// lambdas capturing a user std::function — larger than libstdc++'s 16-byte
// SSO buffer, so every send allocated and every dispatch allocated again
// for the copy.  The storm gives both queues that exact payload shape: a
// per-event delivery callable nested inside the scheduled closure.
//
// The sweep section replays the F3 study (event-driven vs BSP across node
// counts) serially and on a 4-thread SweepRunner and checks the merged
// results are bitwise identical — the harness buys wall time, never drift.
//
// Set ANTON_BENCH_SMOKE=1 to shrink repetitions for CI.
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "bench_util.h"
#include "obs/profiler.h"
#include "sim/event_queue.h"

namespace anton::bench {
namespace {
namespace legacy {

// ---- Pre-rewrite event queue: type-erased heap-allocating callbacks and a
// copy-out-on-pop binary heap.
class EventQueue {
 public:
  void schedule_at(sim::SimTime t, std::function<void()> fn) {
    ANTON_CHECK_MSG(t >= now_ - 1e-9, "event scheduled in the past: t="
                                          << t << " now=" << now_);
    heap_.push(Event{t, seq_++, std::move(fn)});
  }

  void schedule_after(sim::SimTime delay, std::function<void()> fn) {
    ANTON_CHECK(delay >= 0);
    schedule_at(now_ + delay, std::move(fn));
  }

  sim::SimTime now() const { return now_; }

  sim::SimTime run() {
    while (!heap_.empty()) step();
    return now_;
  }

  void step() {
    ANTON_CHECK(!heap_.empty());
    // Top must be copied out before pop so the callback may schedule more.
    Event ev = heap_.top();
    heap_.pop();
    now_ = std::max(now_, ev.time);
    ++executed_;
    ev.fn();
  }

 private:
  struct Event {
    sim::SimTime time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  sim::SimTime now_ = 0;
  uint64_t seq_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace legacy

// Deterministic per-event jitter so chains interleave and the heap is
// genuinely exercised (uniform delays would degenerate into FIFO order).
double hop_delay(uint32_t chain, int d) {
  const uint32_t salt = chain * 2654435761u + static_cast<uint32_t>(d);
  return 1.0 + 0.25 * static_cast<double>(salt % 7);
}

// The delivery payload the storms carry: a counter plus the (task, sender)
// ids the executor's release callbacks capture.  At 24 bytes it exceeds
// libstdc++'s 16-byte std::function SSO buffer — exactly like the old
// taskgraph's [this, dst_task, id] and multicast-map captures did — so the
// legacy queue allocates when the callable is type-erased and again when
// step() copies the top event out of the heap.
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

// ---- Legacy storm: the delivery callable is type-erased into a
// std::function nested inside the scheduled closure, the shape the old
// torus/taskgraph put on the queue for every packet.
struct LegacyStorm {
  legacy::EventQueue q;
  uint64_t delivered = 0;
  int depth = 0;

  void hop(uint32_t chain, int d) {
    if (d % kMcastEvery == kMcastEvery - 1) {
      mcast_hop(chain, d);
      return;
    }
    std::function<void()> deliver =
        Deliver{&delivered, chain, static_cast<uint64_t>(d)};
    q.schedule_after(hop_delay(chain, d),
                     [this, chain, d, fn = std::move(deliver)] {
                       fn();
                       if (d + 1 < depth) hop(chain, d + 1);
                     });
  }

  // The old executor built a node->task map per multicast and captured it
  // by value in the delivery std::function; the old torus then copied that
  // callable into each destination's scheduled closure, and step() deep-
  // copied map and all on every pop.  We charge a single destination's
  // worth of that traffic per multicast hop — an undercount of what the
  // old code paid per fan-out.
  void mcast_hop(uint32_t chain, int d) {
    std::map<int, int> node_to_task;
    for (int k = 0; k < kFanOut; ++k) {
      node_to_task.emplace(static_cast<int>(chain) * kFanOut + k, d + k);
    }
    std::function<void(int)> deliver =
        [this, m = std::move(node_to_task)](int node) {
          delivered += static_cast<uint64_t>(m.count(node));
        };
    q.schedule_after(hop_delay(chain, d),
                     [this, chain, d, fn = std::move(deliver)] {
                       fn(static_cast<int>(chain) * kFanOut);
                       if (d + 1 < depth) hop(chain, d + 1);
                     });
  }
};

// ---- Pooled storm: identical event mix, but the delivery callable stays a
// plain struct captured inline, and the multicast callback resolves its
// dependent through a persistent array by index (the new executor's shape)
// — no type-erased allocation, no per-call containers.
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

struct StormResult {
  double ms = 0;        // per full storm (schedule + drain)
  double final_t = 0;   // queue clock after the drain, for cross-checking
  uint64_t events = 0;
};

template <class Storm>
StormResult run_storm(int reps, int chains, int depth) {
  StormResult r;
  r.events = static_cast<uint64_t>(chains) * static_cast<uint64_t>(depth);
  // Shared min-of-reps statistic (bench_util.h).  Each timed call builds a
  // fresh storm — construction is identical for the legacy and new variants,
  // so the gated ratio is unaffected — then schedules and drains it.
  r.ms = time_min_ms(reps, 1, [&] {
    Storm storm;
    storm.depth = depth;
    for (int c = 0; c < chains; ++c) {
      storm.hop(static_cast<uint32_t>(c), 0);
    }
    r.final_t = storm.q.run();
    ANTON_CHECK(storm.delivered == r.events);
  });
  return r;
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
              << depth << " hops, nested delivery payload) --\n";
    const auto old_r = run_storm<LegacyStorm>(reps, chains, depth);
    const auto new_r = run_storm<PooledStorm>(reps, chains, depth);
    // Identical jitter, identical FIFO tie-breaks: the two kernels must
    // agree on the simulated clock to the last bit.
    ANTON_CHECK(old_r.final_t == new_r.final_t);
    const double old_meps =
        static_cast<double>(old_r.events) / (old_r.ms * 1e3);
    const double new_meps =
        static_cast<double>(new_r.events) / (new_r.ms * 1e3);
    report.record("queue.legacy_meps", old_meps);
    report.record("queue.new_meps", new_meps);
    report.record("queue.speedup", new_meps / old_meps);
    TextTable t({"variant", "ms/storm", "events/us", "speedup"});
    t.add_row({"legacy std::function + binary heap",
               TextTable::fmt(old_r.ms, 2), TextTable::fmt(old_meps, 2),
               "1.00"});
    t.add_row({"pooled inline callables + 4-ary heap",
               TextTable::fmt(new_r.ms, 2), TextTable::fmt(new_meps, 2),
               TextTable::fmt(new_meps / old_meps, 2)});
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

    // Warm both paths (system caches, pool threads) before timing.
    const auto warm = serial.estimate(sys, std::span(pts.data(), 2));
    (void)warm;

    const double t0 = obs::wall_seconds();
    const auto rs = serial.estimate(sys, pts);
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
               "model rides the event queue,\nso the storm speedup "
               "compounds across the full simulator.\n";
  return 0;
}
