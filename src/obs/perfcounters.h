// PerfCounters: a probe for whether this host lets a process open hardware
// counters.
//
// Construction opens one user-space cycles counter on the calling thread
// with perf_event_open and closes it again.  Benchmark fingerprints record
// the answer, so a result measured where counters were blocked says so.
// perf_event_open is routinely refused (kernel.perf_event_paranoid > 2,
// seccomp in containers, non-Linux hosts); unavailable_reason() then says
// why.
#pragma once

#include <string>

namespace anton::obs {

class PerfCounters {
 public:
  // Never throws: a refused syscall leaves available() == false.
  PerfCounters();

  bool available() const { return available_; }
  // Human-readable reason when !available(); empty otherwise.
  const std::string& unavailable_reason() const { return reason_; }

 private:
  bool available_ = false;
  std::string reason_;
};

}  // namespace anton::obs
