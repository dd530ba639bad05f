#include "md/engine.h"

#include <cmath>

#include <algorithm>

#include "common/rng.h"
#include "common/units.h"
#include "md/pressure.h"

namespace anton::md {

Simulation::Simulation(System system, MdParams params, ThreadPool* pool)
    : system_(std::move(system)),
      params_(params),
      force_(std::make_unique<ForceCompute>(system_.topology_ptr(),
                                            system_.box(), params, pool)),
      constraints_(system_.topology_ptr()),
      pool_(pool),
      f_short_(static_cast<size_t>(system_.num_atoms())),
      f_long_(static_cast<size_t>(system_.num_atoms())),
      ref_pos_(static_cast<size_t>(system_.num_atoms())),
      dt_(units::fs_to_internal(params.dt_fs)) {
  ANTON_CHECK_MSG(params_.respa_k >= 1, "respa_k must be >= 1");
  ANTON_CHECK_MSG(params_.dt_fs > 0, "timestep must be positive");
  if (params_.telemetry || !params_.trace_path.empty() ||
      !params_.metrics_path.empty()) {
    own_trace_ = obs::TraceWriter::open(params_.trace_path);
    if (own_trace_ != nullptr) {
      own_trace_->process_name(obs::kPidMd, "md engine (wall clock)");
    }
    metrics_ = &own_metrics_;
    profiler_.enable(metrics_, "md", own_trace_.get(), obs::kPidMd);
    step_stat_ = metrics_->stat("md.step.seconds");
    force_->set_profiler(&profiler_);
    if (params_.perf_counters || obs::PerfCounters::env_enabled()) {
      perf_ = std::make_unique<obs::PerfCounters>();
      profiler_.enable_perf(perf_.get());
    }
  }
  // Build the neighbour list and size all workspace scratch now, so stepping
  // starts allocation-free from the first call.
  force_->warm(system_.positions());
}

Simulation::~Simulation() {
  try {
    write_metrics();
  } catch (...) {
    // Destructor: an unwritable metrics path must not terminate.
  }
}

void Simulation::use_telemetry(obs::MetricsRegistry* registry,
                               obs::TraceWriter* trace) {
  if (registry == nullptr) {
    profiler_.disable();
    force_->set_profiler(nullptr);
    metrics_ = nullptr;
    step_stat_ = nullptr;
    return;
  }
  metrics_ = registry;
  profiler_.enable(metrics_, "md", trace, obs::kPidMd);
  step_stat_ = metrics_->stat("md.step.seconds");
  force_->set_profiler(&profiler_);
  if (perf_ == nullptr &&
      (params_.perf_counters || obs::PerfCounters::env_enabled())) {
    perf_ = std::make_unique<obs::PerfCounters>();
  }
  if (perf_ != nullptr) profiler_.enable_perf(perf_.get());
}

void Simulation::write_metrics() const {
  if (metrics_ == &own_metrics_ && !params_.metrics_path.empty()) {
    own_metrics_.save_json(params_.metrics_path);
  }
}

void Simulation::apply_langevin(double dt) {
  // Ornstein–Uhlenbeck velocity update: v <- c1 v + c2 sigma xi, with the
  // friction expressed per femtosecond in the public parameters.
  const double c1 = std::exp(-params_.langevin_gamma_per_fs *
                             units::internal_to_fs(dt));
  const double c2 = std::sqrt(1.0 - c1 * c1);
  const auto masses = system_.topology().masses();
  auto vel = system_.velocities();
  const uint64_t step_key =
      mix_seed(params_.seed, static_cast<uint64_t>(step_count_) + 0x0A0B);
  for (size_t i = 0; i < vel.size(); ++i) {
    Rng rng(step_key, static_cast<uint64_t>(i));
    const double sigma =
        std::sqrt(units::kBoltzmann * params_.temperature_k / masses[i]);
    vel[i] = c1 * vel[i] + c2 * sigma * rng.gaussian_vec3();
  }
}

void Simulation::apply_thermostat(double dt) {
  ThermostatKind kind = params_.thermostat;
  if (kind == ThermostatKind::kNone && params_.langevin_gamma_per_fs > 0) {
    kind = ThermostatKind::kLangevin;  // legacy shorthand
  }
  switch (kind) {
    case ThermostatKind::kNone:
      return;
    case ThermostatKind::kLangevin:
      apply_langevin(dt);
      return;
    case ThermostatKind::kBerendsen:
    case ThermostatKind::kVelocityRescale: {
      const double t_now = system_.temperature();
      if (t_now <= 0) return;
      const double dt_over_tau =
          units::internal_to_fs(dt) / params_.thermostat_tau_fs;
      double lambda2;
      if (kind == ThermostatKind::kBerendsen) {
        // Weak coupling: relax the temperature toward the target.
        lambda2 = 1.0 + dt_over_tau * (params_.temperature_k / t_now - 1.0);
      } else {
        // Exponential rescale of T itself (deterministic CSVR limit).
        const double t_new =
            params_.temperature_k +
            (t_now - params_.temperature_k) * std::exp(-dt_over_tau);
        lambda2 = t_new / t_now;
      }
      const double lambda = std::sqrt(std::max(0.0, lambda2));
      for (auto& v : system_.velocities()) v *= lambda;
      return;
    }
  }
}

void Simulation::single_step() {
  const double step_t0 =
      step_stat_ != nullptr ? obs::wall_seconds() : 0.0;
  const Topology& top = system_.topology();
  const Box& box = system_.box();
  auto pos = system_.positions();
  auto vel = system_.velocities();
  const auto masses = top.masses();
  const int k = params_.respa_k;
  const int64_t s = step_count_;

  if (!forces_fresh_) {
    last_energy_ = force_->compute_short(pos, f_short_);
    const EnergyReport e_long = force_->compute_long(pos, f_long_);
    last_energy_.coulomb_kspace = e_long.coulomb_kspace;
    last_energy_.coulomb_self = e_long.coulomb_self;
    last_long_virial_ = e_long.virial;
    last_energy_.virial += last_long_virial_;
    forces_fresh_ = true;
  }

  // First half kick: short-range every step; long-range impulse (weight k)
  // at RESPA block boundaries.
  const bool long_kick_in = (s % k == 0);
  {
    obs::PhaseProfiler::Scope sc(&profiler_, "integrate");
    for (size_t i = 0; i < pos.size(); ++i) {
      Vec3 f = f_short_[i];
      if (long_kick_in) f += static_cast<double>(k) * f_long_[i];
      vel[i] += (0.5 * dt_ / masses[i]) * f;
    }

    // Drift.
    std::copy(pos.begin(), pos.end(), ref_pos_.begin());
    for (size_t i = 0; i < pos.size(); ++i) {
      pos[i] += dt_ * vel[i];
    }
  }
  {
    obs::PhaseProfiler::Scope sc(&profiler_, "constraints");
    last_shake_ = constraints_.shake(box, ref_pos_, pos, vel, dt_,
                                     params_.shake_tol,
                                     params_.shake_max_iter, pool_);
  }
  ANTON_CHECK_MSG(last_shake_.converged,
                  "SHAKE failed to converge (max violation "
                      << last_shake_.max_violation << ")");

  // Thermostat between drift and the force evaluation (OBABO-like split).
  {
    obs::PhaseProfiler::Scope sc(&profiler_, "thermostat");
    apply_thermostat(dt_);
  }

  // New forces.
  EnergyReport e = force_->compute_short(pos, f_short_);
  const bool long_kick_out = ((s + 1) % k == 0);
  if (long_kick_out) {
    const EnergyReport e_long = force_->compute_long(pos, f_long_);
    e.coulomb_kspace = e_long.coulomb_kspace;
    e.coulomb_self = e_long.coulomb_self;
    last_long_virial_ = e_long.virial;
  } else {
    e.coulomb_kspace = last_energy_.coulomb_kspace;
    e.coulomb_self = last_energy_.coulomb_self;
  }
  e.virial += last_long_virial_;
  last_energy_ = e;

  // Second half kick.
  {
    obs::PhaseProfiler::Scope sc(&profiler_, "integrate");
    for (size_t i = 0; i < pos.size(); ++i) {
      Vec3 f = f_short_[i];
      if (long_kick_out) f += static_cast<double>(k) * f_long_[i];
      vel[i] += (0.5 * dt_ / masses[i]) * f;
    }
  }

  // RATTLE: remove velocity components along constraints.
  ShakeStats rs;
  {
    obs::PhaseProfiler::Scope sc(&profiler_, "constraints");
    rs = constraints_.rattle(box, pos, vel, params_.shake_tol,
                             params_.shake_max_iter, pool_);
  }
  ANTON_CHECK_MSG(rs.converged, "RATTLE failed to converge");

  ++step_count_;

  if (params_.barostat != BarostatKind::kNone &&
      step_count_ % params_.barostat_interval == 0) {
    obs::PhaseProfiler::Scope sc(&profiler_, "barostat");
    apply_barostat();
  }

  if (step_stat_ != nullptr) {
    step_stat_->add(obs::wall_seconds() - step_t0);
  }
}

void Simulation::apply_barostat() {
  // Instantaneous pressure from the last force evaluation.  With RESPA the
  // reciprocal-space virial refreshes on outer steps only; the barostat's
  // long coupling time averages over that.
  EnergyReport e = last_energy_;
  const double p_now =
      (2.0 * system_.kinetic_energy() + e.virial) /
      (3.0 * system_.box().volume()) * kPressureBar;
  const double dt_eff_fs = params_.dt_fs * params_.barostat_interval;
  double mu3 = 1.0 - params_.compressibility_per_bar *
                         (dt_eff_fs / params_.barostat_tau_fs) *
                         (params_.pressure_bar - p_now);
  // Clamp: a single coupling event never changes the volume by >2%.
  mu3 = std::clamp(mu3, 0.98, 1.02);
  const double mu = std::cbrt(mu3);
  if (std::abs(mu - 1.0) < 1e-12) return;

  // Rescale molecule centres of mass; members translate rigidly so
  // constraints stay satisfied exactly.
  const Topology& top = system_.topology();
  auto pos = system_.positions();
  const auto masses = top.masses();
  for (int m = 0; m < top.num_molecules(); ++m) {
    const auto [begin, end] = top.molecule_range(m);
    Vec3 com{};
    double mass = 0;
    for (int i = begin; i < end; ++i) {
      com += masses[static_cast<size_t>(i)] * pos[static_cast<size_t>(i)];
      mass += masses[static_cast<size_t>(i)];
    }
    com /= mass;
    const Vec3 shift = (mu - 1.0) * com;
    for (int i = begin; i < end; ++i) {
      pos[static_cast<size_t>(i)] += shift;
    }
  }
  system_.set_box(Box(mu * system_.box().lengths()));

  // Rebox the force pipeline in place: the GSE mesh re-derives its k-space
  // tables (skipping everything when dimensions survive), and the neighbour
  // grid is flagged for rebuild on the next evaluation.  The erfc/LJ caches
  // are box-independent, so nothing is reconstructed or reallocated.
  force_->set_box(system_.box());
  forces_fresh_ = false;
}

void Simulation::step(int n) {
  for (int i = 0; i < n; ++i) single_step();
}

EnergyReport Simulation::energies() {
  EnergyReport e = force_->compute_all(system_.positions(), f_short_);
  // compute_all overwrote f_short_ with total forces; mark stale so the next
  // step() re-evaluates the split.
  forces_fresh_ = false;
  e.kinetic = system_.kinetic_energy();
  return e;
}

}  // namespace anton::md
