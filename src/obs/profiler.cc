#include "obs/profiler.h"

#include <utility>

#include "obs/flightrecorder.h"

namespace anton::obs {

void PhaseProfiler::enable(MetricsRegistry* registry, std::string prefix,
                           TraceWriter* trace, int trace_pid, int trace_tid) {
  std::lock_guard<std::mutex> lk(mu_);
  registry_ = registry;
  trace_ = trace;
  prefix_ = std::move(prefix);
  pid_ = trace_pid;
  tid_ = trace_tid;
  epoch_ = wall_seconds();
  cache_.clear();
}

void PhaseProfiler::disable() {
  std::lock_guard<std::mutex> lk(mu_);
  registry_ = nullptr;
  trace_ = nullptr;
  cache_.clear();
}

Stat* PhaseProfiler::phase_stat(const char* phase) {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lk(mu_);
  Stat*& stat = cache_[phase];
  if (stat == nullptr) {
    stat = registry_->stat(prefix_ + ".phase." + phase + ".seconds");
  }
  return stat;
}

void PhaseProfiler::record_seconds(const char* phase, double seconds) {
  Stat* s = phase_stat(phase);
  if (s != nullptr) s->add(seconds);
}

void PhaseProfiler::finish(const char* phase, double t0, double t1) {
  Stat* s = phase_stat(phase);
  if (s == nullptr) return;  // disabled between scope open and close
  s->add(t1 - t0);
  flight::record_phase(phase, t0, t1);
  if (trace_ != nullptr) {
    trace_->complete(phase, prefix_.c_str(), (t0 - epoch_) * 1e6,
                     (t1 - t0) * 1e6, pid_, tid_);
  }
}

}  // namespace anton::obs
