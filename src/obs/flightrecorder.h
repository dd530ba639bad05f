// Flight recorder: always-on, per-thread, lock-free last-N-events buffers.
//
// Every thread that records gets its own SPSC ring of fixed-size 32-byte
// POD records (phase spans, DES event executions, NoC sends, invariant
// tags, free-form marks).  The owning thread is the only writer; the dumper
// is the only reader and runs at crash time or on request.  Steady-state
// writes are a masked index computation plus one 32-byte store and a
// release head bump — no heap allocation, no lock, no formatting — so hot
// paths annotated ANTON_HOT_NOALLOC can record without losing their
// callgraph-verified purity (the one-time per-thread ring attach is the
// sanctioned amortized-warmup exception, like the event arena).
//
// The payoff is crash forensics: install_crash_handler() wires the
// recorder into anton::detail::fail (every ANTON_CHECK / invariant
// failure) and into the fatal-signal set (SIGSEGV, SIGABRT, SIGBUS,
// SIGFPE, SIGILL, SIGTERM, SIGINT), so when a run dies the last N records
// per thread dump as a Chrome-trace JSON file — "test died under TSan"
// becomes a replayable timeline loadable in ui.perfetto.dev.  The signal
// path formats with snprintf into a stack buffer and write()s the fd
// directly; no allocator or stdio state is touched after the fault.
//
// Clock domains: wall-clock records (phases, marks, invariants) stamp
// obs::wall_seconds(); DES-side records (event executions, NoC sends)
// reuse the simulated-nanosecond timestamps they already have, costing no
// clock read in the 10M-events/s queue loop.  The dump separates the two
// domains by trace pid (kPidFlightWall / kPidFlightSim).
//
// Each thread's ring holds the last 4096 records (128 KiB/thread).
//
// Environment knobs:
//   ANTON_FLIGHT=0           disable recording entirely
//   ANTON_FLIGHT_PATH=FILE   dump destination (default anton_flight.<pid>.json)
//   ANTON_FLIGHT_EXIT_DUMP=1 also dump on clean process exit (smoke tests)
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "obs/profiler.h"

namespace anton::obs {

// Trace pids for the flight-recorder dump (6..8 reserved for future obs
// tracks; 1..4 are the live TraceWriter domains in obs/trace.h).
inline constexpr int kPidFlightWall = 9;
inline constexpr int kPidFlightSim = 10;

namespace flight {

enum class Kind : uint32_t {
  kMark = 0,       // free-form instant (wall clock)
  kPhase = 1,      // completed profiler scope: t = begin s, payload = dur ns
  kDesEvent = 2,   // DES event executed: t = sim ns, payload = event seq
  kNocSend = 3,    // NoC delivery planned: t = sim ns, payload = src<<32|dst
  kInvariant = 4,  // check failure: label = expr, payload = line
};

struct Record {
  double t;           // wall seconds (kMark/kPhase/kInvariant) or sim ns
  const char* label;  // static string literal; never owned
  uint64_t payload;
  Kind kind;
  uint32_t pad;
};
static_assert(sizeof(Record) == 32, "flight records are 32-byte POD");
static_assert(std::is_trivially_copyable_v<Record>);

// One per-thread ring.  write() is the owner thread only; the release head
// store publishes the record to the (crash-time) reader.
class Ring {
 public:
  void write(Kind k, const char* label, double t, uint64_t payload) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    Record& r = buf_[h & mask_];
    r.t = t;
    r.label = label;
    r.payload = payload;
    r.kind = k;
    r.pad = 0;
    head_.store(h + 1, std::memory_order_release);
  }

  uint64_t written() const { return head_.load(std::memory_order_acquire); }
  uint64_t capacity() const { return mask_ + 1; }

 private:
  friend struct GlobalState;
  Record* buf_ = nullptr;  // owned by the global state; never freed mid-run
  uint64_t mask_ = 0;
  std::atomic<uint64_t> head_{0};
};

namespace detail {
// Cold path: registers this thread's ring (first record on the thread).
// Returns nullptr when recording is disabled or the thread table is full.
Ring* attach_this_thread();
inline thread_local Ring* t_ring = nullptr;
inline thread_local bool t_attach_tried = false;

inline Ring* ring() {
  Ring* r = t_ring;
  if (r != nullptr) return r;
  if (t_attach_tried) return nullptr;
  return attach_this_thread();
}
}  // namespace detail

// Record with an explicit timestamp (t in the kind's clock domain).
inline void record_at(Kind k, const char* label, double t,
                      uint64_t payload = 0) {
  Ring* r = detail::ring();
  if (r != nullptr) r->write(k, label, t, payload);
}

// Wall-clock record (kMark / kInvariant).
inline void record(Kind k, const char* label, uint64_t payload = 0) {
  Ring* r = detail::ring();
  if (r != nullptr) r->write(k, label, wall_seconds(), payload);
}

// Simulated-time record (kDesEvent / kNocSend): no clock read.
inline void record_sim(Kind k, const char* label, double sim_ns,
                       uint64_t payload = 0) {
  record_at(k, label, sim_ns, payload);
}

// Completed phase span from the profiler.
inline void record_phase(const char* label, double t0, double t1) {
  record_at(Kind::kPhase, label, t0,
            static_cast<uint64_t>((t1 - t0) * 1e9));
}

// Arms crash dumping: installs the anton::detail failure hook (ANTON_CHECK
// and invariant failures) and the fatal-signal handlers, and registers the
// exit-dump when ANTON_FLIGHT_EXIT_DUMP=1.  Idempotent; a non-null path
// overrides ANTON_FLIGHT_PATH / the default for subsequent dumps.
void install_crash_handler(const char* path = nullptr);

// The path crash dumps go to (after install_crash_handler resolution).
const char* dump_path();

// Writes all rings as a Chrome-trace JSON file; returns false on I/O error.
// Safe from normal (non-signal) context only.
bool dump(const char* path);

struct Stats {
  int threads = 0;        // rings attached
  uint64_t records = 0;   // total writes (including overwritten)
  uint64_t retained = 0;  // records currently held across all rings
};
Stats stats();

// Test-only: drops every ring, clears the dumped-once latch and the cached
// env config so the next attach re-reads ANTON_FLIGHT*.  Only call when no
// other thread is recording (their thread-local ring pointers would dangle).
void reset_for_testing();

}  // namespace flight
}  // namespace anton::obs
