// perfbench: the measuring half of the end-to-end benchmark.
//
// run.py builds this binary, runs it once per benchmark run, and turns the
// single JSON line it prints into metrics and correctness verdicts.  The
// binary only measures and records; every statistic, reference comparison
// and pass/fail decision lives in run.py.
//
//   perfbench --workload W --system-seed S --velocity-seed V --seconds T
//             [--trace-path FILE] [--size full|tiny] [--reference]
//
// Workloads (one closed-loop caller; the next operation starts when the
// previous one returns):
//   estimate_dhfr512  AntonMachine::estimate() of the DHFR-class system on a
//                     512-node Anton 2, dt 2.5 fs, RESPA k = 2.
//   estimate_stmv512  the same call on the STMV-class system.
//   md_dhfr           host md::Simulation stepping of the DHFR-class system
//                     after minimisation, one RESPA cycle per operation,
//                     on one ThreadPool of all cores.
//
// With --trace-path the run is traced: it writes benchmark-owned spans
// through obs::TraceWriter and times calls into each layer's public
// functions from here.  The layers of the other product are timed once
// after the loop so every layer metric is measured on every workload: the
// machine model on the configuration md_dhfr reached (F4's Anton 2 side),
// and the MD layers on the freshly built DHFR-class system of the seed.
//
// --reference prints the exact simulated outputs of one estimate plus the
// Workload pair count, for regenerating perfbench/reference.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.h"
#include "chem/builder.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "core/machine.h"
#include "core/taskgraph.h"
#include "core/timestep.h"
#include "core/workload.h"
#include "md/bonded.h"
#include "md/constraints.h"
#include "md/engine.h"
#include "md/gse.h"
#include "md/minimize.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"
#include "md/workspace.h"
#include "obs/json.h"
#include "obs/perfcounters.h"
#include "obs/profiler.h"
#include "obs/trace.h"

using namespace anton;

namespace {

constexpr double kDtFs = 2.5;
constexpr int kRespaK = 2;
constexpr int kTracePid = 10;  // benchmark-owned spans, apart from kPid*

struct Args {
  std::string workload;
  uint64_t system_seed = 2014;
  uint64_t velocity_seed = 1;
  double seconds = 10;
  std::string trace_path;
  bool tiny = false;
  bool reference = false;
};

struct Spec {
  BenchmarkSpec system;
  int nodes = 512;
  bool md = false;
};

Spec spec_for(const Args& a) {
  Spec s;
  s.md = a.workload == "md_dhfr";
  if (a.workload == "estimate_dhfr512" || s.md) {
    s.system = dhfr_spec();
  } else if (a.workload == "estimate_stmv512") {
    s.system = stmv_spec();
  } else {
    throw Error("unknown workload '" + a.workload + "'");
  }
  if (a.tiny) {  // self-test size: same code paths, seconds not minutes
    s.system = {"tiny_3k", 3000, dhfr_spec().solute_fraction};
    s.nodes = 8;
  }
  return s;
}

core::AntonMachine machine_for(int nodes) {
  int nx = 0, ny = 0, nz = 0;
  core::torus_dims(nodes, &nx, &ny, &nz);
  return core::AntonMachine(arch::MachineConfig::anton2(nx, ny, nz));
}

// Named sample lists; run.py reduces each to its median.
using Samples = std::map<std::string, std::vector<double>>;

// Times calls and, when a TraceWriter is attached, records each as a span
// on the benchmark's own track.  Spans of one operation carry its index as
// the "op" argument and nest inside that operation's "op" span; spans
// outside any operation (set-up, layer probes) carry -1.  The time
// spent writing spans is accumulated as the tracing overhead.
class Spans {
 public:
  explicit Spans(obs::TraceWriter* trace)
      : trace_(trace), t0_(obs::wall_seconds()) {
    if (trace_ != nullptr) {
      trace_->process_name(kTracePid, "perfbench");
      trace_->thread_name(kTracePid, 0, "closed-loop caller");
    }
  }

  // Runs fn(); returns its wall time in seconds.
  template <class F>
  double time(const char* name, F&& fn) {
    const double a = obs::wall_seconds();
    fn();
    const double b = obs::wall_seconds();
    record(name, a, b);
    return b - a;
  }

  void record(const char* name, double a, double b) {
    if (trace_ == nullptr) return;
    const double c = obs::wall_seconds();
    trace_->complete(name, "perfbench", (a - t0_) * 1e6, (b - a) * 1e6,
                     kTracePid, 0, {{"op", static_cast<double>(op_)}});
    overhead_s_ += obs::wall_seconds() - c;
  }

  bool on() const { return trace_ != nullptr; }
  void set_op(int op) { op_ = op; }
  double overhead_s() const { return overhead_s_; }

 private:
  obs::TraceWriter* trace_;
  double t0_;
  int op_ = -1;
  double overhead_s_ = 0;
};

// The exact simulated outputs of one estimate (the reference-checked set).
struct SimOut {
  double us_per_day = 0;
  double full_step_ns = 0;
  double short_step_ns = 0;
  double critical_wait_ns = 0;
  uint64_t tasks = 0;  // replayed tasks, full plus short step
  int64_t pairs = -1;  // Workload pair count; -1 when not measured
};

SimOut sim_out(const core::PerfReport& r) {
  SimOut s;
  s.us_per_day = r.us_per_day();
  s.full_step_ns = r.full_step.step_ns;
  s.short_step_ns = r.short_step.step_ns;
  s.critical_wait_ns = r.full_step.exec.critical_wait_ns;
  s.tasks = r.full_step.exec.tasks_executed + r.short_step.exec.tasks_executed;
  return s;
}

std::string bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(u));
  return buf;
}

// One estimate() plus, when traced, the same work done layer by layer:
// Workload::build, build_step_graph (full + short), the TimestepRunner
// constructors (which build their own graphs; runner.setup is the
// remainder) and run_timestep.  The layer replay must reproduce the
// estimate's makespans bit for bit.
SimOut machine_op(const System& sys, const core::AntonMachine& m, Spans& sp,
                  Samples& out, double* op_s) {
  core::PerfReport r;
  *op_s = sp.time("estimate", [&] { r = m.estimate(sys, kDtFs, kRespaK); });
  SimOut s = sim_out(r);
  if (!sp.on()) return s;

  const arch::MachineConfig& cfg = m.config();
  std::optional<core::Workload> w;
  const double build_s =
      sp.time("workload.build", [&] { w.emplace(core::Workload::build(sys, cfg)); });
  core::TaskGraph g_full, g_short;
  const double graph_s = sp.time("graph.build", [&] {
    g_full = core::build_step_graph(*w, cfg, true);
    g_short = core::build_step_graph(*w, cfg, false);
  });
  std::optional<core::TimestepRunner> r_full, r_short;
  const double ctor_s = sp.time("runner.setup", [&] {
    r_full.emplace(*w, cfg, core::StepOptions{.include_long_range = true});
    r_short.emplace(*w, cfg, core::StepOptions{.include_long_range = false});
  });
  const double replay_s = sp.time("replay", [&] {
    r_full->run_timestep();
    r_short->run_timestep();
  });
  if (bits(r_full->step_ns()) != bits(s.full_step_ns) ||
      bits(r_short->step_ns()) != bits(s.short_step_ns)) {
    throw Error("layer-by-layer replay disagrees with estimate()");
  }

  int64_t tiles = 0;
  for (int n = 0; n < w->num_nodes(); ++n) {
    tiles += static_cast<int64_t>(w->node(n).tiles.size());
  }
  int64_t messages = 0;
  for (const core::TaskGraph* g : {&g_full, &g_short}) {
    for (int t = 0; t < g->num_tasks(); ++t) {
      messages += static_cast<int64_t>(g->task(t).sends.size() +
                                       g->task(t).mcast_dependents.size());
    }
  }
  const core::ExecStats& ef = r_full->exec();
  const core::ExecStats& es = r_short->exec();
  s.pairs = w->total_pairs();

  out["estimate.ms"].push_back(*op_s * 1e3);
  out["workload.build_ms"].push_back(build_s * 1e3);
  out["workload.pairs"].push_back(static_cast<double>(s.pairs));
  out["workload.tiles"].push_back(static_cast<double>(tiles));
  out["graph.build_ms"].push_back(graph_s * 1e3);
  out["graph.tasks"].push_back(g_full.num_tasks() + g_short.num_tasks());
  out["graph.messages"].push_back(static_cast<double>(messages));
  out["runner.ctor_ms"].push_back(ctor_s * 1e3);
  out["replay.ms"].push_back(replay_s * 1e3);
  out["replay.tasks"].push_back(
      static_cast<double>(ef.tasks_executed + es.tasks_executed));
  out["noc.messages"].push_back(
      static_cast<double>(ef.noc.messages + es.noc.messages));
  out["noc.bytes"].push_back(ef.noc.total_bytes + es.noc.total_bytes);
  out["sim.us_per_day"].push_back(s.us_per_day);
  out["sim.full_step_ns"].push_back(s.full_step_ns);
  out["sim.short_step_ns"].push_back(s.short_step_ns);
  out["sim.critical_wait_ns"].push_back(s.critical_wait_ns);
  return s;
}

// Times each MD layer's public entry point on one configuration, on the
// pool and on one thread: NeighborList::build, compute_nonbonded,
// GseMesh::compute, compute_all_bonded and md::shake (one drift step from
// the current velocities).  SHAKE has no threaded path; both of its
// timings are serial.
void md_layers(const System& sys, const MdParams& p, ThreadPool& pool,
               Spans& sp, Samples& out) {
  constexpr int kReps = 3;
  const Topology& top = sys.topology();
  const Box& box = sys.box();
  const auto pos = sys.positions();
  const auto vel = sys.velocities();
  const size_t n = pos.size();
  const double alpha = p.ewald_alpha;

  NeighborList nl(p.cutoff, p.skin);
  md::ForceWorkspace ws;
  ws.build_cache(top, alpha, p.cutoff, p.shift_at_cutoff, p.tabulate_erfc,
                 p.erfc_table_target_err);
  ws.ensure_threads(pool.size(), n);
  md::GseMesh mesh(box, alpha, p.mesh_spacing, p.gse_sigma, &pool);
  md::GseMesh mesh_serial(box, alpha, p.mesh_spacing, p.gse_sigma, nullptr);
  std::vector<Vec3> f(n);
  EnergyReport e;

  const double dt = units::fs_to_internal(p.dt_fs);
  std::vector<Vec3> ref(pos.begin(), pos.end());
  std::vector<Vec3> drifted(n), v(n);
  md::ShakeStats shake_stats;

  for (int threaded = 1; threaded >= 0; --threaded) {
    ThreadPool* tp = threaded != 0 ? &pool : nullptr;
    const std::string sfx = threaded != 0 ? "" : ".serial";
    for (int rep = 0; rep < kReps; ++rep) {
      out["nlist.build_ms" + sfx].push_back(
          1e3 * sp.time("nlist.build", [&] { nl.build(box, pos, top, tp); }));
      std::fill(f.begin(), f.end(), Vec3{});
      e = {};
      out["pair.ms" + sfx].push_back(1e3 * sp.time("pair", [&] {
        md::compute_nonbonded(box, top, nl, pos, alpha, f, e, tp,
                              p.shift_at_cutoff, &ws, p.tabulate_erfc,
                              p.deterministic_forces);
      }));
      std::fill(f.begin(), f.end(), Vec3{});
      md::GseMesh& g = threaded != 0 ? mesh : mesh_serial;
      out["gse.ms" + sfx].push_back(1e3 * sp.time("gse", [&] {
        g.compute(top, pos, f, e, p.deterministic_forces);
      }));
      for (size_t i = 0; i < n; ++i) drifted[i] = pos[i] + dt * vel[i];
      std::copy(vel.begin(), vel.end(), v.begin());
      out["shake.ms" + sfx].push_back(1e3 * sp.time("shake", [&] {
        shake_stats = md::shake(box, top, ref, drifted, v, dt, p.shake_tol,
                                p.shake_max_iter);
      }));
      if (!shake_stats.converged) {
        throw Error("probe SHAKE did not converge: violation " +
                    std::to_string(shake_stats.max_violation) + " after " +
                    std::to_string(shake_stats.iterations));
      }
      if (threaded != 0) {
        std::fill(f.begin(), f.end(), Vec3{});
        out["bonded.ms"].push_back(1e3 * sp.time("bonded", [&] {
          md::compute_all_bonded(box, top, pos, f, e);
        }));
      }
    }
  }
  out["nlist.pairs"].push_back(static_cast<double>(nl.num_pairs()));
  out["shake.iterations"].push_back(shake_stats.iterations);
}

bool finite_energies(const EnergyReport& e) {
  return std::isfinite(e.potential()) && std::isfinite(e.kinetic) &&
         std::isfinite(e.virial);
}

// Minimal JSON object writer for the one result line.
class JsonLine {
 public:
  void num(const std::string& k, double v) { field(k, obs::json_double(v)); }
  void str(const std::string& k, const std::string& v) {
    field(k, "\"" + obs::json_escape(v) + "\"");
  }
  void boolean(const std::string& k, bool v) { field(k, v ? "true" : "false"); }
  void raw(const std::string& k, const std::string& v) { field(k, v); }
  std::string done() const { return "{" + body_ + "}"; }

  static std::string list(const std::vector<double>& xs) {
    std::string s = "[";
    for (size_t i = 0; i < xs.size(); ++i) {
      s += (i != 0 ? "," : "") + obs::json_double(xs[i]);
    }
    return s + "]";
  }
  static std::string samples(const Samples& m) {
    JsonLine j;
    for (const auto& [k, v] : m) j.raw(k, list(v));
    return j.done();
  }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + obs::json_escape(k) + "\":" + v;
  }
  std::string body_;
};

std::string sim_json(const SimOut& s) {
  JsonLine j;
  j.str("us_per_day", bits(s.us_per_day));
  j.str("full_step_ns", bits(s.full_step_ns));
  j.str("short_step_ns", bits(s.short_step_ns));
  j.str("critical_wait_ns", bits(s.critical_wait_ns));
  j.num("tasks", static_cast<double>(s.tasks));
  if (s.pairs >= 0) j.num("pairs", static_cast<double>(s.pairs));
  j.num("us_per_day_value", s.us_per_day);
  return j.done();
}

std::string fingerprint(unsigned pool_threads) {
  obs::PerfCounters perf;
  JsonLine j;
  j.num("cores", std::max(1u, std::thread::hardware_concurrency()));
  j.num("pool_threads", pool_threads);
  j.str("simd", PERFBENCH_SIMD);
#if defined(__clang__)
  j.str("compiler", __VERSION__);  // "Clang x.y.z ..."
#else
  j.str("compiler", std::string("gcc ") + __VERSION__);
#endif
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.boolean("perf_counters", perf.available());
  if (!perf.available()) j.str("perf_unavailable", perf.unavailable_reason());
  return j.done();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Closed loop: keep issuing operations while the next one, at the median
// cost so far, is expected to end within the budget.  At least one runs.
bool keep_going(double elapsed_s, const std::vector<double>& op_s,
                double budget_s) {
  return op_s.empty() || elapsed_s + median(op_s) <= budget_s;
}

// What one run measured; written out as the result line.
struct Record {
  std::vector<double> setup_s;
  std::vector<double> op_s;
  std::vector<std::string> errors;  // one per failed operation
  std::vector<SimOut> sims;         // estimate workloads: one per operation
  Samples layers;                   // traced runs only
  std::string md;                   // md_dhfr: segment checks (JSON)
};

void run_estimate(const Args& a, const Spec& spec, ThreadPool& pool,
                  Spans& sp, Record& rec) {
  // Set-up is the system build.  It runs 3 times up front and again before
  // every later operation, untimed as an operation, so that its median
  // samples the host across the whole run: a DHFR build takes about 20 ms,
  // and builds done back to back all land in the same load burst.
  constexpr int kFirstBuilds = 3;
  std::optional<System> sys;
  auto build = [&] {
    sp.set_op(-1);
    sys.reset();
    rec.setup_s.push_back(sp.time("setup.system_build", [&] {
      sys.emplace(build_benchmark_system(spec.system, a.system_seed));
    }));
  };
  for (int i = 0; i < kFirstBuilds; ++i) build();
  const core::AntonMachine m = machine_for(spec.nodes);
  const double t0 = obs::wall_seconds();
  while (keep_going(obs::wall_seconds() - t0, rec.op_s, a.seconds)) {
    if (!rec.op_s.empty()) build();
    sp.set_op(static_cast<int>(rec.op_s.size()));
    const double a0 = obs::wall_seconds();
    double est_s = 0;
    try {
      rec.sims.push_back(machine_op(*sys, m, sp, rec.layers, &est_s));
    } catch (const std::exception& ex) {
      rec.errors.push_back(ex.what());
      rec.sims.push_back(SimOut{});
    }
    sp.record("op", a0, obs::wall_seconds());
    rec.op_s.push_back(est_s > 0 ? est_s : obs::wall_seconds() - a0);
  }
  if (sp.on()) {
    // MD layers: on this system when it is DHFR-sized; the STMV-class
    // neighbour list alone would need gigabytes, so there the DHFR-class
    // system of the same seed stands in.
    const System md_sys =
        spec.system.total_atoms < 100000
            ? *sys
            : build_benchmark_system(dhfr_spec(), a.system_seed);
    sys.reset();
    sp.set_op(-1);
    md_layers(md_sys, MdParams{}, pool, sp, rec.layers);
  }
}

// F4's host measurement.  Preparation: build, clamped steepest descent,
// 300 K velocities.  F4 minimises for 200 steps; that leaves a maximum
// force of 255 kcal/mol/Å on the seed-0 system, which then heats from 300
// to 800 K within 20 steps, and SHAKE fails within F4's own 24 steps for
// some velocity seeds.  300 steps bring the maximum force to 81 and keep
// the total energy flat for 80 steps, so md_dhfr minimises for 300.
// The prepared state is stepped in F4's segments: 2 untimed warm RESPA
// cycles, then 10 timed ones, then a restart from the prepared state, so
// every run times the same stretch of trajectory.  Each segment is
// checked: SHAKE converges on every step (Simulation throws otherwise),
// energies stay finite, the total-energy drift is recorded for run.py's
// band check, and NeighborList::validate() passes at its end.
void run_md(const Args& a, const Spec& spec, ThreadPool& pool, Spans& sp,
            Record& rec) {
  constexpr int kWarmCycles = 2;
  constexpr int kSegmentCycles = 10;
  constexpr int kMinimizeSteps = 300;
  constexpr int kMinimizeChunks = 6;
  constexpr int kSystemBuilds = 3;
  const MdParams p;  // defaults: 9 Å cutoff, 1 Å skin, GSE mesh, RESPA 2
  std::optional<System> prepared;
  std::unique_ptr<md::Simulation> sim;
  auto total_energy = [&] {
    return sim->last_energy().potential() + sim->system().kinetic_energy();
  };
  double e_start = 0, ke_start = 0;
  auto restart = [&] {
    sim = std::make_unique<md::Simulation>(*prepared, p, &pool);
    sim->step(kWarmCycles * p.respa_k);
    e_start = total_energy();
    ke_start = sim->system().kinetic_energy();
  };
  // Set-up is timed in pieces so that its total rests on medians and
  // outlasts the host's load bursts: the system build is repeated (its
  // median counts once) and the minimisation runs in equal chunks (the
  // median chunk counts kMinimizeChunks times); velocities and the first
  // Simulation are timed once.
  std::vector<double> build_s, chunk_s;
  for (int i = 0; i < kSystemBuilds; ++i) {
    prepared.reset();
    build_s.push_back(sp.time("setup.system_build", [&] {
      prepared.emplace(build_benchmark_system(spec.system, a.system_seed));
    }));
  }
  md::MinimizeResult minimized;
  for (int i = 0; i < kMinimizeChunks; ++i) {
    chunk_s.push_back(sp.time("setup.minimize", [&] {
      minimized = md::minimize_energy(*prepared, p,
                                      kMinimizeSteps / kMinimizeChunks, 0.1,
                                      10.0, &pool);
    }));
  }
  const double start_s = sp.time("setup.start", [&] {
    prepared->assign_velocities(300.0, a.velocity_seed);
    restart();
  });
  rec.setup_s.push_back(median(build_s) + kMinimizeChunks * median(chunk_s) +
                        start_s);

  int64_t steps = 0, builds = 0;
  std::vector<double> drift;  // |ΔE_total| / KE at segment start
  std::string validate_error;
  int cycles = 0;
  int64_t builds0 = sim->force_compute().nlist_builds();
  auto end_segment = [&] {
    builds += sim->force_compute().nlist_builds() - builds0;
    drift.push_back(std::abs(total_energy() - e_start) / ke_start);
    try {
      sim->force_compute().nlist().validate();
    } catch (const std::exception& ex) {
      validate_error = ex.what();
    }
  };
  const double t0 = obs::wall_seconds();
  while (keep_going(obs::wall_seconds() - t0, rec.op_s, a.seconds)) {
    sp.set_op(static_cast<int>(rec.op_s.size()));
    const double a0 = obs::wall_seconds();
    double cycle_s = 0;
    try {
      if (cycles == kSegmentCycles) {
        end_segment();
        sp.time("md.restart", restart);
        builds0 = sim->force_compute().nlist_builds();
        cycles = 0;
      }
      cycle_s = sp.time("md.cycle", [&] { sim->step(p.respa_k); });
      steps += p.respa_k;
      ++cycles;
      if (!finite_energies(sim->last_energy()) ||
          !std::isfinite(sim->system().kinetic_energy())) {
        rec.errors.push_back("non-finite energy at step " +
                             std::to_string(sim->step_count()));
      }
    } catch (const std::exception& ex) {
      rec.errors.push_back(ex.what());
      cycle_s = obs::wall_seconds() - a0;
      cycles = kSegmentCycles;  // the trajectory is unusable; restart it
    }
    rec.op_s.push_back(cycle_s / p.respa_k);
  }
  end_segment();

  JsonLine md;
  md.num("steps", static_cast<double>(steps));
  md.num("nlist_builds", static_cast<double>(builds));
  md.raw("energy_drift", JsonLine::list(drift));
  md.str("validate_error", validate_error);
  md.num("dt_fs", p.dt_fs);
  md.num("respa_k", p.respa_k);
  md.num("minimize_max_force", minimized.max_force);
  rec.md = md.done();

  if (sp.on()) {
    // The layers on the configuration the run reached, then F4's other
    // side: the Anton 2 estimate of that same configuration.
    sp.set_op(-1);
    md_layers(sim->system(), p, pool, sp, rec.layers);
    double est_s = 0;
    machine_op(sim->system(), machine_for(spec.nodes), sp, rec.layers,
               &est_s);
  }
}

int run(const Args& a) {
  const Spec spec = spec_for(a);
  ThreadPool pool;
  JsonLine res;
  res.raw("fingerprint", fingerprint(pool.size()));

  if (a.reference) {
    const System sys = build_benchmark_system(spec.system, a.system_seed);
    const core::AntonMachine m = machine_for(spec.nodes);
    SimOut s = sim_out(m.estimate(sys, kDtFs, kRespaK));
    s.pairs = core::Workload::build(sys, m.config()).total_pairs();
    res.raw("reference", sim_json(s));
    std::printf("%s\n", res.done().c_str());
    return 0;
  }

  std::unique_ptr<obs::TraceWriter> trace =
      obs::TraceWriter::open(a.trace_path);
  Spans sp(trace.get());
  Record rec;
  if (spec.md) {
    run_md(a, spec, pool, sp, rec);
  } else {
    run_estimate(a, spec, pool, sp, rec);
  }

  std::string errors = "[";
  for (size_t i = 0; i < rec.errors.size(); ++i) {
    errors += (i != 0 ? ",\"" : "\"") + obs::json_escape(rec.errors[i]) + "\"";
  }
  std::string sims = "[";
  for (size_t i = 0; i < rec.sims.size(); ++i) {
    sims += (i != 0 ? "," : "") + sim_json(rec.sims[i]);
  }
  std::vector<double> op_ms;
  for (const double s : rec.op_s) op_ms.push_back(s * 1e3);

  res.raw("setup_s", JsonLine::list(rec.setup_s));
  res.raw("op_ms", JsonLine::list(op_ms));
  res.raw("errors", errors + "]");
  res.raw("sims", sims + "]");
  if (!rec.md.empty()) res.raw("md", rec.md);
  res.num("peak_rss_mb", peak_rss_mb());
  if (sp.on()) {
    res.raw("layers", JsonLine::samples(rec.layers));
    res.num("trace_overhead_ms", sp.overhead_s() * 1e3);
  }
  trace.reset();  // closes the trace file before run.py reads it
  std::printf("%s\n", res.done().c_str());
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--system-seed") a.system_seed = std::stoull(val());
    else if (k == "--velocity-seed") a.velocity_seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace-path") a.trace_path = val();
    else if (k == "--size") a.tiny = val() == "tiny";
    else if (k == "--reference") a.reference = true;
    else throw Error("unknown argument " + k);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
