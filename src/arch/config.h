// Machine configuration: every architectural parameter of the modelled
// Anton node and interconnect, with presets for Anton 1 and Anton 2.
//
// The presets encode the calibrated assumptions listed in DESIGN.md.  The
// two machines differ in four ways the paper emphasises:
//   1. HTIS width and clock (32 PPIMs @ 800 MHz -> 76 PPIMs @ 1.65 GHz),
//   2. flexible-subsystem throughput (8 scalar GCs -> 64 four-wide GCs),
//   3. network bandwidth and per-hop latency,
//   4. synchronisation: Anton 1 operates bulk-synchronously (coarse phase
//      barriers); Anton 2 is fine-grained event-driven (hardware counters
//      fire tasks the moment their inputs arrive).
#pragma once

#include <string>

#include "noc/torus.h"

namespace anton::arch {

enum class SyncModel {
  kEventDriven,      // Anton 2: per-task hardware countdown triggers
  kBulkSynchronous,  // Anton 1: global barrier between phases
};

struct MachineConfig {
  std::string name;

  // --- high-throughput interaction subsystem (HTIS) ---
  int ppims_per_node = 76;
  double ppim_clock_ghz = 1.65;
  int pairs_per_ppim_cycle = 1;
  double htis_task_overhead_ns = 10.0;  // fixed cost to launch a tile

  // --- flexible subsystem (geometry cores) ---
  int geometry_cores = 64;
  int gc_simd_width = 4;
  double gc_clock_ghz = 1.65;
  double gc_task_overhead_ns = 15.0;  // dispatch cost per software task

  // Per-element cycle costs on one GC lane (calibrated, not RTL-derived).
  double cycles_per_bond = 40;
  double cycles_per_angle = 80;
  double cycles_per_dihedral = 160;
  double cycles_per_pair14 = 60;
  double cycles_per_fft_point = 12;   // per point per 1D stage (5 bf + twiddle)
  double cycles_per_integrate_atom = 30;
  double cycles_per_constraint_iter = 25;
  int constraint_iterations = 6;      // typical M-SHAKE iteration count

  // --- synchronisation ---
  SyncModel sync = SyncModel::kEventDriven;
  double sync_trigger_ns = 4.0;    // event-driven: fire a counter-armed task
  double barrier_base_ns = 400.0;  // BSP: software cost per global barrier

  // --- interconnect ---
  noc::TorusConfig noc;
  // Hardware multicast for position import (ablation: false = unicast to
  // every destination, payload repeated per route).
  bool use_multicast = true;

  // --- data sizes on the wire (Anton compresses aggressively) ---
  double bytes_per_position = 16.0;
  double bytes_per_force = 16.0;
  double bytes_per_mesh_point = 16.0;
  double bytes_per_migrating_atom = 64.0;

  // --- telemetry (zero cost when paths are empty) ---
  // Chrome-trace output: task spans, packet lifecycles, link occupancy and
  // queue-depth tracks for every simulated step (load in Perfetto).
  std::string trace_path;
  // Metrics snapshot ("anton.metrics.v1" JSON) written when the run ends.
  std::string metrics_path;

  // --- MD mapping parameters the machine uses ---
  double machine_cutoff = 9.0;  // Å pairwise cutoff on the HTIS
  double mesh_spacing = 2.0;    // Å target mesh spacing for the GSE grid
  // GSE spreading support radius in mesh cells (the spreading Gaussian's
  // width tracks the mesh spacing, so support is constant in cells).
  int spread_support_cells = 2;

  // Derived throughputs.
  double pair_rate_per_ns() const {
    return ppims_per_node * pairs_per_ppim_cycle * ppim_clock_ghz;
  }
  double gc_lane_rate_per_ns() const {
    return geometry_cores * gc_simd_width * gc_clock_ghz;
  }
  // Time for `cycles` worth of (perfectly parallel) lane work.
  double gc_time_ns(double lane_cycles) const {
    return lane_cycles / gc_lane_rate_per_ns();
  }
  double htis_time_ns(double pairs) const {
    return pairs / pair_rate_per_ns();
  }

  // Presets.  (nx, ny, nz) is the torus size; 8x8x8 = the 512-node machine.
  static MachineConfig anton2(int nx = 8, int ny = 8, int nz = 8);
  static MachineConfig anton1(int nx = 8, int ny = 8, int nz = 8);
  // Anton 2 hardware but bulk-synchronous scheduling — the ablation the
  // event-driven claim rests on.
  static MachineConfig anton2_bsp(int nx = 8, int ny = 8, int nz = 8);
};

}  // namespace anton::arch
