#include "obs/flightrecorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "common/error.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#define ANTON_FLIGHT_HAVE_SIGNALS 1
#else
#define ANTON_FLIGHT_HAVE_SIGNALS 0
#endif

namespace anton::obs::flight {

// Non-anonymous so Ring's friend declaration resolves.
struct GlobalState {
  static constexpr int kMaxThreads = 128;
  static constexpr uint64_t kDepth = 4096;  // records per ring, a power of 2

  std::mutex mu;                 // guards attach / config / regular dump
  Ring rings[kMaxThreads];
  Record* buffers[kMaxThreads] = {nullptr};
  std::atomic<int> n{0};
  bool config_loaded = false;
  bool enabled = true;
  char path[512] = {0};
  std::atomic<bool> handlers_installed{false};
  std::atomic<bool> fail_dumped{false};

  void load_config_locked() {
    if (config_loaded) return;
    config_loaded = true;
    const char* env = std::getenv("ANTON_FLIGHT");
    enabled = !(env != nullptr && std::strcmp(env, "0") == 0);
    if (path[0] == '\0') {
      const char* p = std::getenv("ANTON_FLIGHT_PATH");
      if (p != nullptr && *p != '\0') {
        std::snprintf(path, sizeof(path), "%s", p);
      } else {
        std::snprintf(path, sizeof(path), "anton_flight.%ld.json",
                      static_cast<long>(getpid()));
      }
    }
  }

  // Ring member access lives here (GlobalState is Ring's only friend).
  Ring* attach_locked() {
    load_config_locked();
    if (!enabled) return nullptr;
    const int i = n.load(std::memory_order_relaxed);
    if (i >= kMaxThreads) return nullptr;
    buffers[i] = new Record[kDepth]();
    rings[i].buf_ = buffers[i];
    rings[i].mask_ = kDepth - 1;
    rings[i].head_.store(0, std::memory_order_relaxed);
    n.store(i + 1, std::memory_order_release);
    return &rings[i];
  }

  void reset_locked() {
    const int count = n.load(std::memory_order_relaxed);
    n.store(0, std::memory_order_release);
    for (int i = 0; i < count; ++i) {
      rings[i].buf_ = nullptr;
      rings[i].mask_ = 0;
      rings[i].head_.store(0, std::memory_order_relaxed);
      delete[] buffers[i];
      buffers[i] = nullptr;
    }
    config_loaded = false;
    path[0] = '\0';
    fail_dumped.store(false, std::memory_order_relaxed);
  }
};

namespace {

GlobalState& g() {
  static GlobalState s;
  return s;
}

// ---------------------------------------------------------------------------
// Dump helpers.  Both writers (buffered and signal-safe) walk the same
// snapshot logic; the formatting differs only in where bytes go.

struct RingView {
  const Ring* ring;
  const Record* buf;
  uint64_t first, count, cap;
  int tid;
};

int snapshot_views(RingView* out, int max) {
  GlobalState& s = g();
  const int n = std::min(s.n.load(std::memory_order_acquire), max);
  for (int i = 0; i < n; ++i) {
    const Ring& r = s.rings[i];
    const uint64_t head = r.written();
    const uint64_t cap = r.capacity();
    const uint64_t count = std::min(head, cap);
    out[i] = RingView{&r, s.buffers[i], head - count, count, cap, i};
  }
  return n;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kMark: return "mark";
    case Kind::kPhase: return "phase";
    case Kind::kDesEvent: return "des.event";
    case Kind::kNocSend: return "noc.send";
    case Kind::kInvariant: return "invariant";
  }
  return "unknown";
}

bool wall_domain(Kind k) {
  return k == Kind::kMark || k == Kind::kPhase || k == Kind::kInvariant;
}

// Minimal JSON string escaping into a bounded buffer (labels are static
// literals — phase names, CHECK expressions — but expressions can contain
// quotes and backslashes).
void escape_label(const char* in, char* out, size_t cap) {
  size_t o = 0;
  for (const char* p = in; *p != '\0' && o + 2 < cap; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      out[o++] = '\\';
      out[o++] = *p;
    } else if (c < 0x20) {
      out[o++] = ' ';
    } else {
      out[o++] = *p;
    }
  }
  out[o] = '\0';
}

// The wall-clock epoch for a dump: the earliest wall-domain timestamp, so
// ts values are small positive microseconds instead of absolute uptimes.
double wall_epoch(const RingView* views, int n) {
  double epoch = 0;
  bool seen = false;
  for (int i = 0; i < n; ++i) {
    for (uint64_t j = views[i].first; j < views[i].first + views[i].count;
         ++j) {
      const Record& r = views[i].buf[j & (views[i].cap - 1)];
      if (wall_domain(r.kind) && (!seen || r.t < epoch)) {
        epoch = r.t;
        seen = true;
      }
    }
  }
  return epoch;
}

// Formats one record as a trace event into buf; returns bytes written.
int format_record(char* buf, size_t cap, const Record& r, int tid,
                  double epoch) {
  char label[256];
  escape_label(r.label != nullptr ? r.label : "?", label, sizeof(label));
  const bool wall = wall_domain(r.kind);
  const int pid = wall ? kPidFlightWall : kPidFlightSim;
  const double ts_us = wall ? (r.t - epoch) * 1e6 : r.t * 1e-3;
  if (r.kind == Kind::kPhase) {
    const double dur_us = static_cast<double>(r.payload) * 1e-3;
    return std::snprintf(
        buf, cap,
        ",\n{\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"kind\":\"phase\"}}",
        label, ts_us, dur_us, pid, tid);
  }
  return std::snprintf(
      buf, cap,
      ",\n{\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"kind\":\"%s\",\"payload\":%" PRIu64 "}}",
      label, ts_us, pid, tid, kind_name(r.kind), r.payload);
}

// Per-(tid, domain) window span so every dump contains at least one "X"
// event and viewers get a track extent even for instant-only rings.
int format_window(char* buf, size_t cap, const RingView& v, bool sim_domain,
                  double epoch) {
  double lo = 0, hi = 0;
  bool seen = false;
  for (uint64_t j = v.first; j < v.first + v.count; ++j) {
    const Record& r = v.buf[j & (v.cap - 1)];
    if (wall_domain(r.kind) == sim_domain) continue;
    const double ts = sim_domain ? r.t * 1e-3 : (r.t - epoch) * 1e6;
    if (!seen) {
      lo = hi = ts;
      seen = true;
    } else {
      lo = std::min(lo, ts);
      hi = std::max(hi, ts);
    }
  }
  if (!seen) return 0;
  return std::snprintf(
      buf, cap,
      ",\n{\"name\":\"flight.window\",\"cat\":\"flight\",\"ph\":\"X\","
      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"records\":%" PRIu64 "}}",
      lo, hi - lo,
      sim_domain ? kPidFlightSim : kPidFlightWall, v.tid, v.count);
}

// Shared dump body over an abstract sink: fn(buf, len) must write len bytes.
template <class Sink>
bool dump_to(Sink&& sink) {
  RingView views[GlobalState::kMaxThreads];
  const int n = snapshot_views(views, GlobalState::kMaxThreads);
  const double epoch = wall_epoch(views, n);

  char buf[1024];
  int len = std::snprintf(
      buf, sizeof(buf),
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"args\":{\"name\":\"flight.wall\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"args\":{\"name\":\"flight.sim\"}}",
      kPidFlightWall, kPidFlightSim);
  if (!sink(buf, len)) return false;

  uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    for (int dom = 0; dom < 2; ++dom) {
      len = format_window(buf, sizeof(buf), views[i], dom == 1, epoch);
      if (len > 0 && !sink(buf, len)) return false;
    }
    for (uint64_t j = views[i].first; j < views[i].first + views[i].count;
         ++j) {
      const Record& r = views[i].buf[j & (views[i].cap - 1)];
      len = format_record(buf, sizeof(buf), r, views[i].tid, epoch);
      if (!sink(buf, len)) return false;
      ++total;
    }
  }

  len = std::snprintf(buf, sizeof(buf),
                      "\n],\n\"flight\":{\"schema\":\"anton.flight.v1\","
                      "\"threads\":%d,\"records\":%" PRIu64 "}}\n",
                      n, total);
  return sink(buf, len);
}

bool dump_to_file(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const bool ok = dump_to([f](const char* b, int len) {
    return std::fwrite(b, 1, static_cast<size_t>(len), f) ==
           static_cast<size_t>(len);
  });
  std::fclose(f);
  return ok;
}

#if ANTON_FLIGHT_HAVE_SIGNALS
// Async-signal-safe dump: open/write/close only, formatting via snprintf
// into stack buffers.  Ring snapshots race against still-running threads;
// a torn record at worst mislabels one event in a crash dump.
void dump_signal_safe(const char* path) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  dump_to([fd](const char* b, int len) {
    ssize_t off = 0;
    while (off < len) {
      const ssize_t w = ::write(fd, b + off, static_cast<size_t>(len - off));
      if (w <= 0) return false;
      off += w;
    }
    return true;
  });
  ::close(fd);
}

void fatal_signal_handler(int sig) {
  dump_signal_safe(g().path);
  // Disposition was installed with SA_RESETHAND: re-raising terminates with
  // the default action (and the correct wait status for the parent).
  raise(sig);
}
#endif  // ANTON_FLIGHT_HAVE_SIGNALS

// Invariant / ANTON_CHECK failure hook: tag the timeline, then dump once
// per process (EXPECT_THROW-style tests would otherwise rewrite the file on
// every caught failure).
void on_check_failure(const char* expr, const char* file, int line) noexcept {
  (void)file;
  record(Kind::kInvariant, expr, static_cast<uint64_t>(line));
  GlobalState& s = g();
  bool expected = false;
  if (s.fail_dumped.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    dump_to_file(s.path);
  }
}

void exit_dump() { dump_to_file(g().path); }

}  // namespace

namespace detail {

Ring* attach_this_thread() {
  t_attach_tried = true;
  GlobalState& s = g();
  std::lock_guard<std::mutex> lk(s.mu);
  t_ring = s.attach_locked();
  return t_ring;
}

}  // namespace detail

void install_crash_handler(const char* path) {
  GlobalState& s = g();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (path != nullptr && *path != '\0') {
      std::snprintf(s.path, sizeof(s.path), "%s", path);
      s.config_loaded = false;  // re-resolve the environment lazily
    }
    s.load_config_locked();
  }
  bool expected = false;
  if (!s.handlers_installed.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;
  }
  anton::detail::set_failure_hook(&on_check_failure);
#if ANTON_FLIGHT_HAVE_SIGNALS
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &fatal_signal_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL, SIGTERM,
                  SIGINT}) {
    sigaction(sig, &sa, nullptr);
  }
#endif
  if (const char* e = std::getenv("ANTON_FLIGHT_EXIT_DUMP")) {
    if (*e != '\0' && std::strcmp(e, "0") != 0) std::atexit(&exit_dump);
  }
}

const char* dump_path() {
  GlobalState& s = g();
  std::lock_guard<std::mutex> lk(s.mu);
  s.load_config_locked();
  return s.path;
}

bool dump(const char* path) {
  GlobalState& s = g();
  std::lock_guard<std::mutex> lk(s.mu);
  return dump_to_file(path);
}

Stats stats() {
  GlobalState& s = g();
  Stats st;
  st.threads = s.n.load(std::memory_order_acquire);
  for (int i = 0; i < st.threads; ++i) {
    const uint64_t head = s.rings[i].written();
    st.records += head;
    st.retained += std::min(head, s.rings[i].capacity());
  }
  return st;
}

void reset_for_testing() {
  GlobalState& s = g();
  std::lock_guard<std::mutex> lk(s.mu);
  s.reset_locked();
  detail::t_ring = nullptr;
  detail::t_attach_tried = false;
}

}  // namespace anton::obs::flight
