// The host MD engine: constrained velocity-Verlet with impulse RESPA
// multiple time-stepping and an optional Langevin thermostat.
//
// This engine plays two roles in the reproduction:
//   1. Gold model — the machine simulator's functional results are checked
//      against it.
//   2. Commodity baseline — google-benchmark measures its ns/day on the
//      host for the paper's "180× faster than commodity" comparison.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chem/system.h"
#include "common/threadpool.h"
#include "md/constraints.h"
#include "md/forces.h"
#include "md/params.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace anton::md {

class Simulation {
 public:
  Simulation(System system, MdParams params, ThreadPool* pool = nullptr);
  ~Simulation();

  // Advances n timesteps (inner steps; RESPA blocks are handled
  // transparently).
  void step(int n = 1);

  const System& system() const { return system_; }
  System& system() { return system_; }
  const MdParams& params() const { return params_; }
  int64_t step_count() const { return step_count_; }

  // Full-accuracy energies of the *current* configuration (fresh force
  // evaluation; does not advance time).
  EnergyReport energies();

  // Potential-energy terms from the most recent force evaluation (cheap).
  const EnergyReport& last_energy() const { return last_energy_; }

  ForceCompute& forces() { return *force_; }
  const ForceCompute& force_compute() const { return *force_; }

  ShakeStats last_shake() const { return last_shake_; }

  // Redirects telemetry into an externally owned registry/trace (the
  // machine model does this so MD wall-clock spans share the trace with the
  // DES timeline).  Passing nullptrs disables telemetry entirely.
  // Overrides whatever MdParams telemetry knobs set up at construction.
  void use_telemetry(obs::MetricsRegistry* registry, obs::TraceWriter* trace);

  // The active metrics registry: the externally supplied one, the internal
  // one when MdParams enabled telemetry, or nullptr when off.
  obs::MetricsRegistry* metrics() { return metrics_; }

  // Writes the metrics snapshot to MdParams::metrics_path (no-op when the
  // path is empty or telemetry is external).  Also called on destruction.
  void write_metrics() const;

 private:
  void single_step();
  void apply_thermostat(double dt);
  void apply_langevin(double dt);
  void apply_barostat();

  System system_;
  MdParams params_;
  // unique_ptr so the barostat can rebuild the force stack after a box
  // rescale (the GSE mesh and neighbour grid are box-dependent).
  std::unique_ptr<ForceCompute> force_;
  ConstraintSolver constraints_;
  ThreadPool* pool_;
  std::vector<Vec3> f_short_;
  std::vector<Vec3> f_long_;
  std::vector<Vec3> ref_pos_;  // pre-step positions for SHAKE
  EnergyReport last_energy_;
  double last_long_virial_ = 0;  // reciprocal-space virial from the last
                                 // RESPA outer step (see single_step)
  ShakeStats last_shake_;
  int64_t step_count_ = 0;
  double dt_;  // internal units
  bool forces_fresh_ = false;

  // Telemetry.  own_metrics_/own_trace_ back the MdParams knobs;
  // use_telemetry() swaps in external sinks instead.
  obs::MetricsRegistry own_metrics_;
  std::unique_ptr<obs::TraceWriter> own_trace_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::PhaseProfiler profiler_;
  obs::Stat* step_stat_ = nullptr;
};

}  // namespace anton::md
