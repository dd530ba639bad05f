#include "core/timestep.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>
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

// Face-neighbour ranks (up to 6, distinct, excluding the node itself) of a
// node in the decomposition grid.
struct FaceNeighbors {
  std::array<int, 6> rank{};
  int count = 0;
  const int* begin() const { return rank.data(); }
  const int* end() const { return rank.data() + count; }
};

FaceNeighbors face_neighbors(const DomainDecomp& dd, int rank) {
  FaceNeighbors out;
  static const NodeOffset kFaces[6] = {{1, 0, 0},  {-1, 0, 0}, {0, 1, 0},
                                       {0, -1, 0}, {0, 0, 1},  {0, 0, -1}};
  for (const auto& f : kFaces) {
    const int n = dd.neighbor_rank(rank, f);
    if (n != rank && std::find(out.begin(), out.end(), n) == out.end()) {
      out.rank[static_cast<size_t>(out.count++)] = n;
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
  const size_t np = static_cast<size_t>(P);
  const bool bsp = config.sync == arch::SyncModel::kBulkSynchronous;
  const bool lr = include_long_range;

  // Exact upper bounds, so each array is allocated once: 8 tasks per node
  // (16 with the long-range chain), an import proxy per position
  // destination, a tile plus a force-return proxy per tile; the edge counts
  // follow the sections below.
  size_t num_imports = 0, num_tiles = 0;
  for (int v = 0; v < P; ++v) {
    num_imports += w.node(v).pos_destinations.size();
    num_tiles += w.node(v).tiles.size();
  }
  const size_t row_peers =
      static_cast<size_t>(config.noc.nx + config.noc.ny);
  TaskGraph g;
  g.reserve(np * (lr ? 16 : 8) + num_imports + 2 * num_tiles + 8,
            3 * num_tiles + num_imports + np * (lr ? 14 : 6) +
                (bsp ? 9 * np + num_imports + 3 * num_tiles +
                           (lr ? 12 * np : 0)
                     : 0),
            num_tiles + 6 * np + (lr ? np * (12 + 2 * row_peers) : 0) +
                (config.use_multicast ? 0 : num_imports),
            config.use_multicast ? num_imports : 0);

  // --- create per-node tasks ----------------------------------------------
  std::vector<int> t_pos(np), t_pair_local(np), t_bonded_local(np);
  std::vector<int> t_bonded_boundary(np), t_integrate(np), t_constrain(np);
  std::vector<int> t_migrate(np), t_end(np);
  std::vector<int> t_spread(np), t_interp(np);
  std::vector<std::array<int, 6>> t_fft(np);

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
                               kSpread, /*long_range=*/true);
      for (int s = 0; s < 6; ++s) {
        t_fft[static_cast<size_t>(v)][static_cast<size_t>(s)] =
            g.add_task(v, Unit::kGc, config.gc_time_ns(fft_stage_cycles), kFft,
                       /*long_range=*/true);
      }
      t_interp[v] = g.add_task(v, Unit::kHtis,
                               config.htis_time_ns(grid_interactions),
                               kInterp, /*long_range=*/true);
    }
  }

  // --- position multicast + import proxies --------------------------------
  // For each node v that exports positions, one zero-cost import proxy per
  // destination node; tiles and boundary bonded work hang off the proxies.
  // imports[import_off[u] ..] = (v, proxy task on node u for positions
  // arriving from v), ascending in v.
  struct Import {
    int src;
    int proxy;
  };
  std::vector<int> import_off(np + 1, 0);
  for (int v = 0; v < P; ++v) {
    for (int u : w.node(v).pos_destinations) {
      import_off[static_cast<size_t>(u) + 1]++;
    }
  }
  for (size_t u = 0; u < np; ++u) import_off[u + 1] += import_off[u];
  std::vector<Import> imports(num_imports);
  std::vector<int> import_fill(import_off.begin(), import_off.end() - 1);
  std::vector<int> proxies;
  for (int v = 0; v < P; ++v) {
    const NodeWork& nw = w.node(v);
    if (nw.pos_destinations.empty()) continue;
    proxies.clear();
    for (int u : nw.pos_destinations) {
      const int proxy = g.add_task(u, Unit::kSync, 0.0, kImport);
      imports[static_cast<size_t>(import_fill[static_cast<size_t>(u)]++)] = {
          v, proxy};
      proxies.push_back(proxy);
    }
    const double pos_bytes = nw.atoms * config.bytes_per_position;
    if (config.use_multicast) {
      g.add_multicast(t_pos[v], proxies, pos_bytes);
    } else {
      for (int proxy : proxies) g.add_message(t_pos[v], proxy, pos_bytes);
    }
  }
  auto imports_on = [&](int u) {
    return std::span(imports.data() + import_off[static_cast<size_t>(u)],
                     static_cast<size_t>(import_off[static_cast<size_t>(u) + 1] -
                                         import_off[static_cast<size_t>(u)]));
  };

  // --- pairwise tiles + force return --------------------------------------
  // Each tile task is followed by its force-return proxy, so node u's tiles
  // are tasks first_tile[u] + 2k.
  std::vector<int> first_tile(np);
  for (int u = 0; u < P; ++u) {
    const NodeWork& nw = w.node(u);
    first_tile[static_cast<size_t>(u)] = g.num_tasks();
    for (const auto& tile : nw.tiles) {
      const NodeOffset& off =
          w.tile_offsets()[static_cast<size_t>(tile.offset_index)];
      const int v = dd.neighbor_rank(u, off);  // remote partner
      const int t_tile = g.add_task(
          u, Unit::kHtis,
          config.htis_time_ns(static_cast<double>(tile.pairs)), kPairTile);
      // The tile needs v's positions.
      int proxy = -1;
      for (const Import& im : imports_on(u)) {
        if (im.src == v) proxy = im.proxy;
      }
      ANTON_CHECK_MSG(proxy >= 0, "tile without matching import");
      g.add_local_dep(proxy, t_tile);
      // Local force contribution feeds integration directly.
      g.add_local_dep(t_tile, t_integrate[u]);
      // Remote forces return to v.
      const int fprox = g.add_task(v, Unit::kSync, 0.0, kForceReturn);
      g.add_message(t_tile, fprox,
                    static_cast<double>(tile.remote_atoms) *
                        config.bytes_per_force);
      g.add_local_dep(fprox, t_integrate[v]);
    }
  }

  // --- local dependencies --------------------------------------------------
  for (int v = 0; v < P; ++v) {
    // Boundary bonded terms need every import this node receives.
    for (const Import& im : imports_on(v)) {
      g.add_local_dep(im.proxy, t_bonded_boundary[v]);
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
    auto make_barrier = [&](bool long_range) {
      return g.add_task(0, Unit::kSync, cost, kBarrier, long_range);
    };
    auto tiles_of = [&](int u) {
      const int first = first_tile[static_cast<size_t>(u)];
      const int n = static_cast<int>(w.node(u).tiles.size());
      return std::pair{first, first + 2 * n};
    };
    // B1: after position exchange, before anything that consumes imports.
    const int b1 = make_barrier(false);
    for (int v = 0; v < P; ++v) {
      g.add_barrier_dep(t_pos[v], b1);
      for (const Import& im : imports_on(v)) g.add_barrier_dep(im.proxy, b1);
    }
    for (int v = 0; v < P; ++v) {
      g.add_barrier_dep(b1, t_pair_local[v]);
      const auto [lo, hi] = tiles_of(v);
      for (int t = lo; t < hi; t += 2) g.add_barrier_dep(b1, t);
      g.add_barrier_dep(b1, t_bonded_local[v]);
      g.add_barrier_dep(b1, t_bonded_boundary[v]);
      if (lr) g.add_barrier_dep(b1, t_spread[v]);
    }

    // B2: after all force computation and force returns, before integration.
    const int b2 = make_barrier(false);
    for (int v = 0; v < P; ++v) {
      g.add_barrier_dep(t_pair_local[v], b2);
      const auto [lo, hi] = tiles_of(v);
      for (int t = lo; t < hi; t += 2) {
        g.add_barrier_dep(t, b2);
        g.add_barrier_dep(t + 1, b2);  // the tile's force-return proxy
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
        const int bf = make_barrier(true);
        for (int v = 0; v < P; ++v) {
          g.add_barrier_dep(t_fft[static_cast<size_t>(v)][static_cast<size_t>(s)],
                            bf);
          g.add_barrier_dep(
              bf, t_fft[static_cast<size_t>(v)][static_cast<size_t>(s + 1)]);
        }
      }
    }
  }

  g.finalize();
  return g;
}

TimestepRunner::TimestepRunner(const Workload& workload,
                               const arch::MachineConfig& config,
                               const StepOptions& options)
    : config_(config),
      options_(options),
      graph_(build_step_graph(workload, config, /*include_long_range=*/true)),
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
  }
}

double TimestepRunner::run_timestep(bool include_long_range) {
  // Fresh simulated clock: the queue clock restarts at zero and link
  // busy-until horizons clear, so every replay sees an identical machine.
  queue_.reset();
  torus_.reset_time();
  obs::TraceWriter* trace = options_.trace;
  if (trace != nullptr) trace->set_ts_offset_us(options_.trace_ts_offset_us);

  const ExecStats& ex = executor_.run(graph_, config_, torus_, queue_, trace,
                                      obs::kPidMachine, include_long_range);
  step_ns_ = ex.makespan_ns;

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
