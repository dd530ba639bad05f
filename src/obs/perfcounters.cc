#include "obs/perfcounters.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace anton::obs {

#if defined(__linux__)

PerfCounters::PerfCounters() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;  // works at perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  const int fd = static_cast<int>(syscall(SYS_perf_event_open, &attr,
                                          /*pid=*/0, /*cpu=*/-1,
                                          /*group_fd=*/-1, /*flags=*/0UL));
  if (fd < 0) {
    reason_ = std::string("perf_event_open(cycles) failed: ") +
              std::strerror(errno) +
              " (check kernel.perf_event_paranoid or container seccomp)";
    return;
  }
  close(fd);
  available_ = true;
}

#else  // !__linux__

PerfCounters::PerfCounters() : reason_("perf_event_open is Linux-only") {}

#endif  // __linux__

}  // namespace anton::obs
