// Simulation parameters and energy bookkeeping shared by the functional MD
// engine and the machine model.
#pragma once

#include <string>

namespace anton {

enum class ThermostatKind {
  kNone,            // NVE
  kLangevin,        // stochastic, uses langevin_gamma_per_fs
  kBerendsen,       // weak coupling, uses thermostat_tau_fs
  kVelocityRescale, // deterministic exponential rescale to the target
};

enum class BarostatKind {
  kNone,
  kBerendsen,  // weak-coupling isotropic box rescaling
};

enum class LongRangeMethod {
  kNone,    // cutoff-only electrostatics (cheap, for tests)
  kDirect,  // exact Ewald with direct k-space sum (validation gold standard)
  kMesh,    // Gaussian-split Ewald on an FFT mesh (production; what Anton runs)
};

struct MdParams {
  // Pairwise range interactions.
  double cutoff = 9.0;        // Å — LJ and real-space Ewald cutoff
  double skin = 1.0;          // Å — Verlet-list skin
  // Shift pair potentials to zero at the cutoff (removes the energy jump
  // when pairs cross the cutoff; essential for NVE conservation with
  // moderate cutoffs).  Forces are unchanged.
  bool shift_at_cutoff = true;

  // Tabulated screened-Coulomb pair kernel (the production path): the
  // vectorized kernel replaces per-pair std::erfc/std::exp with cubic-Hermite
  // lookups in r² (the software analogue of the PPIM functional tables).
  // One fused table covers r from 1 Å to the cutoff, refined at construction
  // until its measured max relative error is below erfc_table_target_err, so
  // the accuracy budget is explicit (16,384 nodes, 512 KB, at the defaults);
  // pairs under 1 Å are evaluated exactly.  false selects the exact scalar
  // erfc kernel, kept as the reference the tests compare against.
  bool tabulate_erfc = true;
  double erfc_table_target_err = 1e-9;

  // Deterministic force accumulation (the scheme Anton runs in silicon):
  // every contribution whose accumulation order could depend on the thread
  // decomposition is quantized to fixed point before summing — per-pair
  // short-range forces/energies to 32.32, GSE mesh densities to 24.40 and
  // mesh energy/virial sums to 48.16.  Fixed-point addition is exactly
  // associative and commutative, so total (short- plus long-range) forces
  // are bitwise identical for ANY thread count — not merely for a fixed
  // one, as with the default double-precision buffers.  The FFT, the GSE
  // gather and the direct-Ewald sum are data-parallel pure functions and
  // bitwise stable without quantization.  Costs a quantization of ~2^-32
  // per contribution and roughly doubles the step: a DHFR step on 4
  // threads of a 4-vCPU x86 VM took 88.6-90.1 ms against 41.6-43.8 ms on
  // the double path (3 runs of 20 steps each, prepared as perfbench's
  // md_dhfr), its pair phase 3.2x slower.
  bool deterministic_forces = false;

  // Ewald splitting.
  double ewald_alpha = 0.35;  // 1/Å
  LongRangeMethod long_range = LongRangeMethod::kMesh;
  int kspace_nmax = 8;        // direct Ewald: |n_x|,|n_y|,|n_z| <= nmax
  double mesh_spacing = 1.1;  // Å — target GSE mesh spacing (rounded to pow2)
  double gse_sigma = 1.2;     // Å — GSE spreading Gaussian width

  // Integration.
  double dt_fs = 2.5;         // inner timestep, femtoseconds
  int respa_k = 2;            // evaluate k-space every respa_k steps (1 = off)
  // SHAKE/RATTLE (md/constraints.h): each constraint group is solved until
  // every relative violation, |r²-d²|/d² for positions and |v·r|/d² for
  // velocities, is <= shake_tol, for at most shake_max_iter Newton
  // iterations per group.
  double shake_tol = 1e-8;
  int shake_max_iter = 500;

  // Temperature control.  Simulation rejects a nonzero
  // langevin_gamma_per_fs with thermostat == kNone.
  ThermostatKind thermostat = ThermostatKind::kNone;
  double temperature_k = 300.0;
  double langevin_gamma_per_fs = 0.0;
  double thermostat_tau_fs = 100.0;  // Berendsen / rescale coupling time

  // Pressure control (isotropic).  The box and all molecule centres rescale
  // every barostat_interval steps; rigid molecules translate without
  // deformation.  Effective coupling: dV/V = -compressibility *
  // (interval*dt/tau) * (P0 - P).
  BarostatKind barostat = BarostatKind::kNone;
  double pressure_bar = 1.0;
  double barostat_tau_fs = 1000.0;
  int barostat_interval = 10;
  double compressibility_per_bar = 4.5e-5;  // liquid water

  uint64_t seed = 1234;

  // --- telemetry (all off by default; zero cost when off) ---
  // telemetry alone enables the in-memory per-phase profiler (readable via
  // Simulation::metrics()); the paths additionally stream a Chrome trace
  // and write a metrics JSON snapshot when the simulation is destroyed.
  bool telemetry = false;
  std::string trace_path;
  std::string metrics_path;
};

struct EnergyReport {
  double bond = 0;
  double angle = 0;
  double dihedral = 0;
  double lj = 0;
  double pair14 = 0;          // scaled 1-4 LJ + Coulomb
  double restraint = 0;       // position + distance restraints
  double coulomb_real = 0;    // short-range erfc part (or plain if kNone)
  double coulomb_kspace = 0;  // reciprocal part
  double coulomb_self = 0;    // Ewald self-energy (negative)
  double coulomb_excl = 0;    // excluded-pair correction (negative)
  double kinetic = 0;
  // Clausius virial W = sum r_ij . F_ij over all interactions (kcal/mol).
  // Constraint forces are not included; use unconstrained systems for
  // quantitative pressure work.
  double virial = 0;

  double potential() const {
    return bond + angle + dihedral + lj + pair14 + restraint +
           coulomb_real + coulomb_kspace + coulomb_self + coulomb_excl;
  }
  double total() const { return potential() + kinetic; }
};

}  // namespace anton
