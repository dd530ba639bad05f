#include "core/machine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.h"
#include "md/engine.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace anton::core {

void torus_dims(int nodes, int* nx, int* ny, int* nz) {
  ANTON_CHECK_MSG(nodes >= 1, "need at least one node");
  // Brute-force near-cubic factorisation: minimise the max dimension, then
  // the surface area.
  int best[3] = {nodes, 1, 1};
  double best_score = 1e300;
  for (int a = 1; a * a * a <= nodes; ++a) {
    if (nodes % a != 0) continue;
    const int rest = nodes / a;
    for (int b = a; b * b <= rest; ++b) {
      if (rest % b != 0) continue;
      const int c = rest / b;
      const double score = static_cast<double>(a) * b + static_cast<double>(b) * c +
                           static_cast<double>(a) * c;
      if (score < best_score) {
        best_score = score;
        best[0] = a;
        best[1] = b;
        best[2] = c;
      }
    }
  }
  // Largest dimension first is conventional for torus wiring diagrams, but
  // the decomposition prefers matching axes to the (cubic) box; order is
  // irrelevant for cubic boxes — return ascending.
  *nx = best[0];
  *ny = best[1];
  *nz = best[2];
}

namespace {

// Names the pid tracks a machine run contributes to a shared trace.
void name_trace_tracks(obs::TraceWriter* trace) {
  if (trace == nullptr) return;
  trace->process_name(obs::kPidMd, "md engine (wall clock)");
  trace->process_name(obs::kPidMachine, "machine model (sim time)");
  trace->process_name(obs::kPidNoc, "torus noc (sim time)");
  trace->process_name(obs::kPidQueue, "event queue (sim time)");
  trace->process_name(obs::kPidHost, "machine model (host wall clock)");
}

// Host time of the machine model's layers: machine.phase.<layer>.seconds
// stats and wall-clock spans, recorded only when the call is telemetered.
void enable_host_profile(obs::PhaseProfiler& prof, obs::MetricsRegistry* reg,
                         obs::TraceWriter* trace) {
  prof.enable(reg, "machine", trace, obs::kPidHost);
}

}  // namespace

void AntonMachine::validate(const arch::MachineConfig& c) {
  // A zero or non-finite rate makes every busy time infinite (or NaN); a
  // negative cost would dispatch tasks before their inputs arrive.
  ANTON_CHECK_MSG(
      c.pair_rate_per_ns() > 0 && std::isfinite(c.pair_rate_per_ns()),
      "pair_rate_per_ns() = ppims_per_node * pairs_per_ppim_cycle * "
      "ppim_clock_ghz must be positive and finite, got "
          << c.ppims_per_node << " * " << c.pairs_per_ppim_cycle << " * "
          << c.ppim_clock_ghz);
  ANTON_CHECK_MSG(
      c.gc_lane_rate_per_ns() > 0 && std::isfinite(c.gc_lane_rate_per_ns()),
      "gc_lane_rate_per_ns() = geometry_cores * gc_simd_width * gc_clock_ghz "
      "must be positive and finite, got "
          << c.geometry_cores << " * " << c.gc_simd_width << " * "
          << c.gc_clock_ghz);
  const std::pair<const char*, double> costs[] = {
      {"htis_task_overhead_ns", c.htis_task_overhead_ns},
      {"gc_task_overhead_ns", c.gc_task_overhead_ns},
      {"sync_trigger_ns", c.sync_trigger_ns},
      {"barrier_base_ns", c.barrier_base_ns},
  };
  for (const auto& [field, value] : costs) {
    ANTON_CHECK_MSG(value >= 0, field << " must be >= 0, got " << value);
  }
  // A zero or NaN cutoff would fail deep inside the cell grid and a
  // negative mesh spacing would still yield a mesh; a negative count would
  // size a task or the spreading stencil below zero.
  const std::pair<const char*, double> lengths[] = {
      {"machine_cutoff", c.machine_cutoff},
      {"mesh_spacing", c.mesh_spacing},
  };
  for (const auto& [field, value] : lengths) {
    ANTON_CHECK_MSG(value > 0 && std::isfinite(value),
                    field << " must be positive and finite, got " << value);
  }
  const std::pair<const char*, int> counts[] = {
      {"constraint_iterations", c.constraint_iterations},
      {"spread_support_cells", c.spread_support_cells},
  };
  for (const auto& [field, value] : counts) {
    ANTON_CHECK_MSG(value >= 0, field << " must be >= 0, got " << value);
  }
}

PerfReport AntonMachine::estimate(const System& system, double dt_fs,
                                  int respa_k) const {
  ANTON_CHECK_MSG(dt_fs > 0 && std::isfinite(dt_fs),
                  "dt_fs must be positive and finite, got " << dt_fs);
  ANTON_CHECK_MSG(respa_k >= 1, "respa_k must be >= 1, got " << respa_k);
  PerfReport r;
  r.machine = config_.name;
  r.nodes = nodes();
  r.atoms = system.num_atoms();
  r.dt_fs = dt_fs;
  r.respa_k = respa_k;

  obs::MetricsRegistry reg;
  std::unique_ptr<obs::TraceWriter> trace =
      obs::TraceWriter::open(config_.trace_path);
  name_trace_tracks(trace.get());
  const bool telemetered = trace != nullptr || !config_.metrics_path.empty();
  obs::PhaseProfiler prof;
  if (telemetered) enable_host_profile(prof, &reg, trace.get());

  const Workload w = [&] {
    const auto s = prof.scope("workload");
    return Workload::build(system, config_);
  }();
  StepOptions opts{.include_long_range = true};
  if (telemetered) {
    opts.metrics = &reg;
    opts.trace = trace.get();
  }
  // One graph and one runner replay both steps.
  std::optional<TimestepRunner> runner;
  {
    const auto s = prof.scope("graph");
    runner.emplace(w, config_, opts);
  }
  {
    const auto s = prof.scope("replay_full");
    runner->run_timestep(true);
  }
  r.full_step = runner->timing();
  // Lay the short step after the full one on the trace timeline.
  runner->set_trace_offset_us(r.full_step.step_ns * 1e-3);
  {
    const auto s = prof.scope("replay_short");
    runner->run_timestep(false);
  }
  r.short_step = runner->timing();

  if (!config_.metrics_path.empty()) reg.save_json(config_.metrics_path);
  return r;
}

PerfReport AntonMachine::run(System& system, const MdParams& md_params,
                             int steps, int workload_refresh) const {
  ANTON_CHECK(steps >= 1 && workload_refresh >= 1);
  md::Simulation sim(system, md_params);

  PerfReport r;
  r.machine = config_.name;
  r.nodes = nodes();
  r.atoms = system.num_atoms();
  r.dt_fs = md_params.dt_fs;
  r.respa_k = md_params.respa_k;

  // One registry and one trace for the whole run: the functional MD engine
  // shares them (wall-clock spans on its own pid) with the machine model
  // (sim-time spans), so a single Perfetto load shows both clock domains.
  obs::MetricsRegistry reg;
  std::unique_ptr<obs::TraceWriter> trace =
      obs::TraceWriter::open(config_.trace_path);
  name_trace_tracks(trace.get());
  const bool telemetered = trace != nullptr || !config_.metrics_path.empty();
  if (telemetered) sim.use_telemetry(&reg, trace.get());
  obs::PhaseProfiler prof;
  if (telemetered) enable_host_profile(prof, &reg, trace.get());

  double full_ns = 0, short_ns = 0;
  int full_n = 0, short_n = 0;
  double sim_time_us = 0;  // trace-timeline cursor over simulated steps
  // Between workload refreshes the step graph is identical, so the runner
  // persists and replays both steps allocation-free; it rebuilds only when
  // the decomposition does.
  std::optional<TimestepRunner> runner;
  for (int s = 0; s < steps; ++s) {
    if (s % workload_refresh == 0) {
      const Workload w = [&] {
        const auto scope = prof.scope("workload");
        return Workload::build(sim.system(), config_);
      }();
      StepOptions opts{.include_long_range = true};
      if (telemetered) {
        opts.metrics = &reg;
        opts.trace = trace.get();
      }
      runner.reset();
      const auto scope = prof.scope("graph");
      runner.emplace(w, config_, opts);
    }
    const bool full = (s % md_params.respa_k == 0);
    if (telemetered) runner->set_trace_offset_us(sim_time_us);
    {
      const auto scope = prof.scope(full ? "replay_full" : "replay_short");
      runner->run_timestep(full);
    }
    const StepTiming t = runner->timing();
    sim_time_us += t.step_ns * 1e-3;
    if (full) {
      full_ns += t.step_ns;
      ++full_n;
      r.full_step = t;
    } else {
      short_ns += t.step_ns;
      ++short_n;
      r.short_step = t;
    }
    sim.step(1);
  }
  // Average over the measured steps; if no short step ran (respa_k == 1),
  // mirror the full-step time so avg_step_ns() stays meaningful.
  if (full_n > 0) r.full_step.step_ns = full_ns / full_n;
  if (short_n > 0) {
    r.short_step.step_ns = short_ns / short_n;
  } else {
    r.short_step.step_ns = r.full_step.step_ns;
  }
  // Copy the evolved state back out.
  system = sim.system();
  if (telemetered) sim.use_telemetry(nullptr, nullptr);
  if (!config_.metrics_path.empty()) reg.save_json(config_.metrics_path);
  return r;
}

}  // namespace anton::core
