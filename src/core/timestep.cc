#include "core/timestep.h"

#include <algorithm>
#include <array>
#include <map>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace anton::core {

namespace {

// Phase labels (static storage; TaskGraph keeps const char*).
constexpr const char* kPosExport = "pos_export";
constexpr const char* kImport = "import";
constexpr const char* kPairLocal = "pair_local";
constexpr const char* kPairTile = "pair_tile";
constexpr const char* kForceReturn = "force_return";
constexpr const char* kBonded = "bonded";
constexpr const char* kSpread = "spread";
constexpr const char* kFft = "fft";
constexpr const char* kInterp = "interp";
constexpr const char* kIntegrate = "integrate";
constexpr const char* kConstrain = "constrain";
constexpr const char* kMigrate = "migrate";
constexpr const char* kBarrier = "barrier";

// Face-neighbour ranks (6) of a node in the decomposition grid.
std::vector<int> face_neighbors(const DomainDecomp& dd, int rank) {
  std::vector<int> out;
  static const NodeOffset kFaces[6] = {{1, 0, 0},  {-1, 0, 0}, {0, 1, 0},
                                       {0, -1, 0}, {0, 0, 1},  {0, 0, -1}};
  for (const auto& f : kFaces) {
    const int n = dd.neighbor_rank(rank, f);
    if (n != rank && std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(n);
    }
  }
  return out;
}

}  // namespace

double barrier_cost_ns(const arch::MachineConfig& config) {
  const auto& n = config.noc;
  const int depth = n.nx / 2 + n.ny / 2 + n.nz / 2;  // torus radius
  return config.barrier_base_ns +
         2.0 * depth * n.hop_latency_ns;  // reduce + broadcast
}

TaskGraph build_step_graph(const Workload& w,
                           const arch::MachineConfig& config,
                           bool include_long_range) {
  const DomainDecomp& dd = w.decomp();
  const int P = w.num_nodes();
  const bool bsp = config.sync == arch::SyncModel::kBulkSynchronous;
  const bool lr = include_long_range;

  TaskGraph g;

  // --- create per-node tasks ----------------------------------------------
  std::vector<int> t_pos(P), t_pair_local(P), t_bonded_local(P);
  std::vector<int> t_bonded_boundary(P), t_integrate(P), t_constrain(P);
  std::vector<int> t_migrate(P), t_end(P);
  std::vector<int> t_spread(P), t_interp(P);
  std::vector<std::array<int, 6>> t_fft(static_cast<size_t>(P));
  std::vector<std::vector<int>> tile_tasks(static_cast<size_t>(P));

  auto bonded_cycles = [&](const BondedCounts& b) {
    return b.bonds * config.cycles_per_bond +
           b.angles * config.cycles_per_angle +
           b.dihedrals * config.cycles_per_dihedral +
           b.pairs14 * config.cycles_per_pair14;
  };

  const double fft_stage_cycles =
      static_cast<double>(w.mesh_points_per_node()) *
      std::log2(std::max(
          2.0, static_cast<double>(std::max(
                   {w.mesh_dim(0), w.mesh_dim(1), w.mesh_dim(2)})))) *
      config.cycles_per_fft_point;

  for (int v = 0; v < P; ++v) {
    const NodeWork& nw = w.node(v);
    // Position packing/export (GC streams positions to the network).
    t_pos[v] = g.add_task(v, Unit::kGc, config.gc_time_ns(2.0 * nw.atoms),
                          kPosExport);
    // Local pairwise interactions (HTIS).
    t_pair_local[v] =
        g.add_task(v, Unit::kHtis,
                   config.htis_time_ns(static_cast<double>(nw.internal_pairs)),
                   kPairLocal);
    // Bonded terms.
    t_bonded_local[v] = g.add_task(
        v, Unit::kGc, config.gc_time_ns(bonded_cycles(nw.bonded_local)),
        kBonded);
    t_bonded_boundary[v] = g.add_task(
        v, Unit::kGc, config.gc_time_ns(bonded_cycles(nw.bonded_boundary)),
        kBonded);
    // Integration + constraints.
    t_integrate[v] = g.add_task(
        v, Unit::kGc,
        config.gc_time_ns(nw.atoms * config.cycles_per_integrate_atom),
        kIntegrate);
    t_constrain[v] = g.add_task(
        v, Unit::kGc,
        config.gc_time_ns(static_cast<double>(nw.constraints) *
                          config.constraint_iterations *
                          config.cycles_per_constraint_iter),
        kConstrain);
    t_migrate[v] =
        g.add_task(v, Unit::kGc, config.gc_time_ns(4.0 * 30.0), kMigrate);
    t_end[v] = g.add_task(v, Unit::kSync, 0.0, "step_end");

    if (lr) {
      // Charge spreading and force interpolation run on the HTIS: each
      // (atom, mesh-point) pair is one pairwise interaction, exactly as on
      // the real machines.
      const double grid_interactions =
          static_cast<double>(nw.atoms) * w.spread_support_points();
      t_spread[v] = g.add_task(v, Unit::kHtis,
                               config.htis_time_ns(grid_interactions),
                               kSpread);
      for (int s = 0; s < 6; ++s) {
        t_fft[static_cast<size_t>(v)][static_cast<size_t>(s)] =
            g.add_task(v, Unit::kGc, config.gc_time_ns(fft_stage_cycles), kFft);
      }
      t_interp[v] = g.add_task(v, Unit::kHtis,
                               config.htis_time_ns(grid_interactions),
                               kInterp);
    }
  }

  // --- position multicast + import proxies --------------------------------
  // For each node v that exports positions, one zero-cost import proxy per
  // destination node; tiles and boundary bonded work hang off the proxies.
  // proxy_on[u][v] = proxy task on node u for positions arriving from v.
  std::vector<std::map<int, int>> proxy_on(static_cast<size_t>(P));
  for (int v = 0; v < P; ++v) {
    const NodeWork& nw = w.node(v);
    if (nw.pos_destinations.empty()) continue;
    std::vector<int> proxies;
    proxies.reserve(nw.pos_destinations.size());
    for (int u : nw.pos_destinations) {
      const int proxy = g.add_task(u, Unit::kSync, 0.0, kImport);
      proxy_on[static_cast<size_t>(u)][v] = proxy;
      proxies.push_back(proxy);
    }
    const double pos_bytes = nw.atoms * config.bytes_per_position;
    if (config.use_multicast) {
      g.add_multicast(t_pos[v], proxies, pos_bytes);
    } else {
      for (int proxy : proxies) g.add_message(t_pos[v], proxy, pos_bytes);
    }
  }

  // --- pairwise tiles + force return --------------------------------------
  // Incoming force-return proxies per node (for BSP barrier bookkeeping).
  std::vector<std::vector<int>> freturn_proxies(static_cast<size_t>(P));
  for (int u = 0; u < P; ++u) {
    const NodeWork& nw = w.node(u);
    for (const auto& tile : nw.tiles) {
      const NodeOffset& off =
          w.tile_offsets()[static_cast<size_t>(tile.offset_index)];
      const int v = dd.neighbor_rank(u, off);  // remote partner
      const int t_tile = g.add_task(
          u, Unit::kHtis,
          config.htis_time_ns(static_cast<double>(tile.pairs)), kPairTile);
      tile_tasks[static_cast<size_t>(u)].push_back(t_tile);
      // The tile needs v's positions.
      const auto it = proxy_on[static_cast<size_t>(u)].find(v);
      ANTON_CHECK_MSG(it != proxy_on[static_cast<size_t>(u)].end(),
                      "tile without matching import");
      g.add_local_dep(it->second, t_tile);
      // Local force contribution feeds integration directly.
      g.add_local_dep(t_tile, t_integrate[u]);
      // Remote forces return to v.
      const int fprox = g.add_task(v, Unit::kSync, 0.0, kForceReturn);
      freturn_proxies[static_cast<size_t>(v)].push_back(fprox);
      g.add_message(t_tile, fprox,
                    static_cast<double>(tile.remote_atoms) *
                        config.bytes_per_force);
      g.add_local_dep(fprox, t_integrate[v]);
    }
  }

  // --- local dependencies --------------------------------------------------
  for (int v = 0; v < P; ++v) {
    // Boundary bonded terms need every import this node receives.
    for (const auto& [src, proxy] : proxy_on[static_cast<size_t>(v)]) {
      (void)src;
      g.add_local_dep(proxy, t_bonded_boundary[v]);
    }
    g.add_local_dep(t_pair_local[v], t_integrate[v]);
    g.add_local_dep(t_bonded_local[v], t_integrate[v]);
    g.add_local_dep(t_bonded_boundary[v], t_integrate[v]);
    g.add_local_dep(t_integrate[v], t_constrain[v]);
    g.add_local_dep(t_constrain[v], t_migrate[v]);
    g.add_local_dep(t_migrate[v], t_end[v]);
  }

  // --- migration messages (small, face neighbours) -------------------------
  for (int v = 0; v < P; ++v) {
    for (int n : face_neighbors(dd, v)) {
      g.add_message(t_migrate[v], t_end[n],
                    2.0 * config.bytes_per_migrating_atom);
    }
  }

  // --- long-range chain -----------------------------------------------------
  if (lr) {
    const double halo_bytes = w.spread_halo_bytes(config);
    const auto& nc = config.noc;
    const double local_mesh_bytes =
        static_cast<double>(w.mesh_points_per_node()) *
        config.bytes_per_mesh_point;

    for (int v = 0; v < P; ++v) {
      auto& fft = t_fft[static_cast<size_t>(v)];
      // Spread -> halo exchange -> stage X.
      g.add_local_dep(t_spread[v], fft[0]);
      for (int n : face_neighbors(dd, v)) {
        g.add_message(t_spread[v], t_fft[static_cast<size_t>(n)][0],
                      halo_bytes);
      }
      // Forward: X -> (x transpose) -> Y -> (y transpose) -> Z(+multiply).
      // Inverse: Z -> (y transpose) -> Y -> (x transpose) -> X.
      g.add_local_dep(fft[0], fft[1]);
      g.add_local_dep(fft[1], fft[2]);
      g.add_local_dep(fft[2], fft[3]);
      g.add_local_dep(fft[3], fft[4]);
      g.add_local_dep(fft[4], fft[5]);

      int vx, vy, vz;
      dd.coords(v, &vx, &vy, &vz);
      // x-row all-to-all feeding stage 1, and again feeding stage 5.
      for (int x = 0; x < nc.nx; ++x) {
        if (x == vx) continue;
        const int peer = dd.rank(x, vy, vz);
        const double bytes = local_mesh_bytes / std::max(1, nc.nx);
        g.add_message(fft[0], t_fft[static_cast<size_t>(peer)][1], bytes);
        g.add_message(fft[4], t_fft[static_cast<size_t>(peer)][5], bytes);
      }
      // y-column all-to-all feeding stage 2 and stage 4.
      for (int y = 0; y < nc.ny; ++y) {
        if (y == vy) continue;
        const int peer = dd.rank(vx, y, vz);
        const double bytes = local_mesh_bytes / std::max(1, nc.ny);
        g.add_message(fft[1], t_fft[static_cast<size_t>(peer)][2], bytes);
        g.add_message(fft[3], t_fft[static_cast<size_t>(peer)][4], bytes);
      }
      // Interpolation needs the inverse transform plus a potential halo.
      g.add_local_dep(fft[5], t_interp[v]);
      for (int n : face_neighbors(dd, v)) {
        g.add_message(fft[5], t_interp[n], halo_bytes);
      }
      g.add_local_dep(t_interp[v], t_integrate[v]);
    }
  }

  // --- BSP barriers ---------------------------------------------------------
  if (bsp) {
    const double cost = barrier_cost_ns(config);
    auto make_barrier = [&]() {
      return g.add_task(0, Unit::kSync, cost, kBarrier);
    };
    // B1: after position exchange, before anything that consumes imports.
    const int b1 = make_barrier();
    for (int v = 0; v < P; ++v) {
      g.add_barrier_dep(t_pos[v], b1);
      for (const auto& [src, proxy] : proxy_on[static_cast<size_t>(v)]) {
        (void)src;
        g.add_barrier_dep(proxy, b1);
      }
    }
    for (int v = 0; v < P; ++v) {
      g.add_barrier_dep(b1, t_pair_local[v]);
      for (int t : tile_tasks[static_cast<size_t>(v)]) {
        g.add_barrier_dep(b1, t);
      }
      g.add_barrier_dep(b1, t_bonded_local[v]);
      g.add_barrier_dep(b1, t_bonded_boundary[v]);
      if (lr) g.add_barrier_dep(b1, t_spread[v]);
    }

    // B2: after all force computation and force returns, before integration.
    const int b2 = make_barrier();
    for (int v = 0; v < P; ++v) {
      g.add_barrier_dep(t_pair_local[v], b2);
      for (int t : tile_tasks[static_cast<size_t>(v)]) {
        g.add_barrier_dep(t, b2);
      }
      for (int fp : freturn_proxies[static_cast<size_t>(v)]) {
        g.add_barrier_dep(fp, b2);
      }
      g.add_barrier_dep(t_bonded_local[v], b2);
      g.add_barrier_dep(t_bonded_boundary[v], b2);
      if (lr) g.add_barrier_dep(t_interp[v], b2);
    }
    for (int v = 0; v < P; ++v) {
      g.add_barrier_dep(b2, t_integrate[v]);
    }

    // FFT transposes each behave like phases of their own: barrier between
    // consecutive FFT stages.
    if (lr) {
      for (int s = 0; s < 5; ++s) {
        const int bf = make_barrier();
        for (int v = 0; v < P; ++v) {
          g.add_barrier_dep(t_fft[static_cast<size_t>(v)][static_cast<size_t>(s)],
                            bf);
          g.add_barrier_dep(
              bf, t_fft[static_cast<size_t>(v)][static_cast<size_t>(s + 1)]);
        }
      }
    }
  }

  return g;
}

TimestepRunner::TimestepRunner(const Workload& workload,
                               const arch::MachineConfig& config,
                               const StepOptions& options)
    : config_(config),
      options_(options),
      graph_(build_step_graph(workload, config, options.include_long_range)),
      torus_(config.noc, &queue_) {
  obs::MetricsRegistry* reg = options_.metrics;
  obs::TraceWriter* trace = options_.trace;
  if (reg != nullptr || trace != nullptr) {
    sim::QueueTelemetry qt;
    if (reg != nullptr) {
      qt.executed = reg->counter("des.queue.executed");
      qt.depth = reg->histogram("des.queue.depth", 0.0, 4096.0, 64);
      qt.horizon_ns = reg->histogram("des.queue.horizon_ns", 0.0, 50000.0,
                                     100);
    }
    qt.trace = trace;
    queue_.set_telemetry(qt);
    torus_.set_telemetry(reg, "des.noc", trace);
    if (reg != nullptr && obs::PerfCounters::env_enabled()) {
      perf_ = std::make_unique<obs::PerfCounters>();
      reg->gauge("des.perf.available")->set(perf_->available() ? 1.0 : 0.0);
    }
  }
}

double TimestepRunner::run_timestep() {
  // Fresh simulated clock: the queue clock restarts at zero and link
  // busy-until horizons clear, so every replay sees an identical machine.
  queue_.reset();
  torus_.reset_time();
  obs::TraceWriter* trace = options_.trace;
  if (trace != nullptr) trace->set_ts_offset_us(options_.trace_ts_offset_us);

  const bool sample_perf = perf_ != nullptr && perf_->available() &&
                           perf_->owned_by_this_thread();
  obs::PerfSample perf0;
  if (sample_perf) perf0 = perf_->read();

  const ExecStats& ex = executor_.run(graph_, config_, torus_, queue_, trace);
  step_ns_ = ex.makespan_ns;

  if (sample_perf && perf0.valid) {
    const obs::PerfSample d = perf_->read() - perf0;
    if (d.valid && options_.metrics != nullptr) {
      if (d.cycles > 0) options_.metrics->stat("des.host.ipc")->add(d.ipc());
      if (d.llc_loads > 0) {
        options_.metrics->stat("des.host.llc_miss_rate")
            ->add(d.llc_miss_rate());
      }
    }
  }

  if (trace != nullptr) trace->set_ts_offset_us(0.0);
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg != nullptr) {
    reg->stat("des.step.makespan_ns")->add(ex.makespan_ns);
    reg->counter("des.step.tasks")->add(ex.tasks_executed);
    for (const auto& [phase, busy] : ex.phase_busy_ns) {
      reg->stat("des.phase." + phase + ".busy_ns")->add(busy);
    }
    for (const auto& [phase, ns] : ex.critical_path_ns) {
      reg->stat("des.critical." + phase + ".ns")->add(ns);
    }
    reg->stat("des.critical.wait_ns")->add(ex.critical_wait_ns);
    if (ex.makespan_ns > 0) {
      torus_.export_link_occupancy(reg, "des.noc", ex.makespan_ns);
    }
  }
  return step_ns_;
}

StepTiming TimestepRunner::timing() const {
  StepTiming t;
  t.exec = executor_.stats();
  t.step_ns = step_ns_;
  return t;
}

StepTiming simulate_step(const Workload& w, const arch::MachineConfig& config,
                         const StepOptions& options) {
  TimestepRunner runner(w, config, options);
  runner.run_timestep();
  return runner.timing();
}

}  // namespace anton::core
