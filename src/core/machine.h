// AntonMachine: the public facade of the machine model.
//
// Two modes:
//   - estimate(): timing-only — decompose the system, simulate one full and
//     one RESPA-short timestep, report μs/day and the per-phase breakdown.
//   - run(): functional — advance the system with the gold MD engine while
//     accumulating simulated machine time, so users get a real trajectory
//     *and* the machine-clock performance for it.
#pragma once

#include <string>
#include <utility>

#include "arch/config.h"
#include "chem/system.h"
#include "core/timestep.h"
#include "core/workload.h"
#include "md/params.h"

namespace anton::core {

struct PerfReport {
  std::string machine;
  int nodes = 0;
  int atoms = 0;
  double dt_fs = 2.5;
  int respa_k = 2;

  StepTiming full_step;   // with long-range (FFT) phases
  StepTiming short_step;  // RESPA inner step

  double avg_step_ns() const {
    return (full_step.step_ns + (respa_k - 1) * short_step.step_ns) / respa_k;
  }
  double steps_per_second() const { return 1e9 / avg_step_ns(); }
  // Simulated physical time per wall-clock day, microseconds.
  double us_per_day() const {
    return dt_fs * steps_per_second() * 86400.0 * 1e-9;
  }
  double ns_per_day() const { return us_per_day() * 1e3; }
};

// Picks a near-cubic torus (nx, ny, nz) with nx*ny*nz == nodes.
void torus_dims(int nodes, int* nx, int* ny, int* nz);

// The calibrated machine model.  An AntonMachine owns its MachineConfig,
// validated at construction and never mutated afterwards.  estimate()
// and run() are const and build every piece of mutable state (workload,
// task graph, event queue, torus, metrics scope) per call, so any number
// of threads can call estimate() on one machine concurrently without
// synchronization.  Each Workload::build spreads its pair pass over a
// thread pool of its own, unless the caller is itself running a
// ThreadPool chunk (a SweepRunner point), where it stays serial; the
// event-driven replay runs on the calling thread.
class AntonMachine {
 public:
  // Rejects a config the model cannot time (see validate()) with
  // anton::Error.
  explicit AntonMachine(arch::MachineConfig config)
      : config_(std::move(config)) {
    validate(config_);
  }

  const arch::MachineConfig& config() const { return config_; }
  int nodes() const { return config_.noc.num_nodes(); }

  // Timing-only estimate for the system's current configuration.  dt_fs
  // must be positive and finite and respa_k >= 1.
  PerfReport estimate(const System& system, double dt_fs = 2.5,
                      int respa_k = 2) const;

  // Functional run: advances `system` for `steps` MD steps using the gold
  // engine with `md` parameters, while accumulating machine timing.  The
  // workload decomposition refreshes every `workload_refresh` steps.
  PerfReport run(System& system, const MdParams& md, int steps,
                 int workload_refresh = 20) const;

 private:
  // HTIS and GC rates, the cutoff and the mesh spacing must be positive
  // and finite; task overheads, sync costs, the constraint iteration count
  // and the spreading support must be >= 0.  Each failure names the
  // offending field.  The torus parameters are checked by the noc::Torus
  // constructor, the cutoff against the box by Workload::build.
  static void validate(const arch::MachineConfig& config);

  arch::MachineConfig config_;
};

}  // namespace anton::core
