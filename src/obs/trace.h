// TraceWriter: streaming Chrome trace-event JSON (chrome://tracing /
// Perfetto "JSON trace" format).
//
// The writer emits the object form {"traceEvents":[...]} with complete ("X"),
// counter ("C"), instant ("i") and metadata ("M") events.  Timestamps and
// durations are microseconds (the unit the format mandates); sub-microsecond
// spans are expressed fractionally, which Perfetto resolves to nanoseconds.
// Two clock domains share one file, separated by pid:
//
//   kPidMd      functional MD engine — wall-clock phases
//   kPidMachine DES task-graph execution — SimTime
//   kPidNoc     torus packet lifecycles and per-link occupancy — SimTime
//   kPidQueue   event-queue depth counter track — SimTime
//   kPidHost    machine-model layers (workload, graph, replay) — wall clock
//
// Events are appended to the output stream under a mutex as they are
// reported, so traces survive crashes up to the last flush and memory use
// is O(1) in trace length.  The closing bracket is written by the
// destructor; tools/validate_trace.py checks emitted files parse.
//
// A null TraceWriter pointer is the disabled state everywhere in the tree:
// instrumentation sites test the pointer and skip all formatting work, so
// default runs pay a branch per site and nothing else.
#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>

namespace anton::obs {

// Process-id namespaces for the subsystems sharing one trace.
inline constexpr int kPidMd = 1;
inline constexpr int kPidMachine = 2;
inline constexpr int kPidNoc = 3;
inline constexpr int kPidQueue = 4;
inline constexpr int kPidHost = 5;

class TraceWriter {
 public:
  // Returns nullptr (telemetry disabled) for an empty path.
  static std::unique_ptr<TraceWriter> open(const std::string& path);

  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  struct Arg {
    const char* key;
    double value;
  };

  // Complete event: a [ts, ts+dur] span on (pid, tid).
  void complete(const char* name, const char* cat, double ts_us, double dur_us,
                int pid, int tid, std::initializer_list<Arg> args = {});
  // Counter track: one series sample at ts.
  void counter(const char* name, double ts_us, int pid, const char* series,
               double value);
  void instant(const char* name, const char* cat, double ts_us, int pid,
               int tid);
  // Metadata: names shown in the Perfetto track list.
  void process_name(int pid, const std::string& name);
  void thread_name(int pid, int tid, const std::string& name);

  void flush();
  uint64_t events_written() const { return events_; }
  const std::string& path() const { return path_; }

  // Offset (µs) added to every subsequent event timestamp.  Subsystems that
  // restart their clock (e.g. a fresh DES event queue per simulated step)
  // set this before emitting so consecutive runs lay out sequentially on
  // the trace timeline instead of stacking at t = 0.
  void set_ts_offset_us(double off_us);
  double ts_offset_us() const;

 private:
  // Writes the leading separator and shared "ph"/"ts" fields; caller holds
  // mu_ and finishes the record.
  void begin_event(char ph, double ts_us);

  mutable std::mutex mu_;
  std::ofstream out_;
  std::string path_;
  uint64_t events_ = 0;
  double ts_offset_us_ = 0;
  bool closed_ = false;
};

}  // namespace anton::obs
