// Tests for the unified telemetry layer (src/obs/): metrics registry,
// phase profiler, Chrome-trace writer, and their integration with the DES
// machine model and the functional MD engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chem/builder.h"
#include "common/threadpool.h"
#include "core/machine.h"
#include "md/engine.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace anton {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

size_t count_occurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Crude structural JSON balance check: every { has a } and every [ a ],
// ignoring characters inside string literals.
bool braces_balanced(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_str = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_str;
}

TEST(MetricsRegistry, KindsAndIdempotentRegistration) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::Counter* c = reg.counter("a.count");
  obs::Gauge* g = reg.gauge("a.gauge");
  obs::Stat* s = reg.stat("a.stat");
  obs::Histo* h = reg.histogram("a.histo", 0, 10, 5);
  EXPECT_EQ(reg.size(), 4u);

  // Same name, same kind: same object.
  EXPECT_EQ(reg.counter("a.count"), c);
  EXPECT_EQ(reg.gauge("a.gauge"), g);
  EXPECT_EQ(reg.stat("a.stat"), s);
  EXPECT_EQ(reg.histogram("a.histo", 99, 100, 1), h);  // shape fixed by first
  EXPECT_EQ(reg.size(), 4u);

  // Same name, different kind: error.
  EXPECT_THROW(reg.gauge("a.count"), Error);
  EXPECT_THROW(reg.stat("a.gauge"), Error);
  EXPECT_THROW(reg.counter("a.histo"), Error);

  c->add(3);
  g->set(2.5);
  s->add(1.0);
  s->add(3.0);
  h->add(7.0);
  EXPECT_EQ(c->value(), 3u);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  EXPECT_DOUBLE_EQ(s->snapshot().mean(), 2.0);
  EXPECT_EQ(h->snapshot().total(), 1u);

  const std::vector<std::string> names = reg.names();
  EXPECT_EQ(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(MetricsRegistry, SinksAreThreadSafe) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("t.count");
  obs::Gauge* g = reg.gauge("t.gauge");
  obs::Stat* s = reg.stat("t.stat");
  const int kThreads = 4, kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c->add();
        g->add(1.0);
        s->add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(g->value(), kThreads * kIters);
  EXPECT_EQ(s->snapshot().count(), static_cast<uint64_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(s->snapshot().sum(), kThreads * kIters);
}

TEST(MetricsRegistry, JsonSnapshotIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("x.events")->add(7);
  reg.gauge("x.occupancy")->set(0.75);
  reg.stat("x.latency")->add(3.5);
  reg.histogram("x.hops", 0, 8, 8)->add(2);
  // A name needing escaping must not corrupt the document.
  reg.gauge("x.weird\"name\\")->set(1);
  const std::string j = reg.json();
  EXPECT_TRUE(braces_balanced(j)) << j;
  EXPECT_NE(j.find("\"schema\":\"anton.metrics.v1\""), std::string::npos);
  EXPECT_NE(j.find("\"x.events\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"stat\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(PhaseProfiler, DisabledScopesAreNoOps) {
  obs::PhaseProfiler prof;
  EXPECT_FALSE(prof.enabled());
  {
    auto s = prof.scope("pair");  // must not crash or allocate sinks
  }
  prof.record_seconds("pair", 1.0);
  EXPECT_EQ(prof.phase_stat("pair"), nullptr);
}

TEST(PhaseProfiler, AccumulatesPhaseStats) {
  obs::MetricsRegistry reg;
  obs::PhaseProfiler prof;
  prof.enable(&reg, "md");
  for (int i = 0; i < 3; ++i) {
    auto s = prof.scope("pair");
    // Do a little work so the span is non-negative but tiny.
    volatile double x = 0;
    for (int k = 0; k < 100; ++k) x = x + k;
  }
  prof.record_seconds("fft", 0.25);
  const RunningStat pair =
      reg.stat("md.phase.pair.seconds")->snapshot();
  EXPECT_EQ(pair.count(), 3u);
  EXPECT_GE(pair.sum(), 0.0);
  const RunningStat fft = reg.stat("md.phase.fft.seconds")->snapshot();
  EXPECT_EQ(fft.count(), 1u);
  EXPECT_DOUBLE_EQ(fft.sum(), 0.25);

  prof.disable();
  EXPECT_FALSE(prof.enabled());
  { auto s = prof.scope("pair"); }
  EXPECT_EQ(reg.stat("md.phase.pair.seconds")->snapshot().count(), 3u);
}

TEST(TraceWriter, EmptyPathMeansDisabled) {
  EXPECT_EQ(obs::TraceWriter::open(""), nullptr);
}

TEST(TraceWriter, WritesValidChromeTrace) {
  const std::string path = "test_obs_trace.json";
  {
    auto tw = obs::TraceWriter::open(path);
    ASSERT_NE(tw, nullptr);
    tw->process_name(obs::kPidMd, "md engine");
    tw->thread_name(obs::kPidMd, 0, "main");
    tw->complete("pair", "md", 10.0, 5.0, obs::kPidMd, 0,
                 {{"atoms", 125.0}});
    tw->complete("fft", "md", 15.0, -1.0, obs::kPidMd, 0);  // dur clamps to 0
    tw->counter("queue.pending", 3.0, obs::kPidQueue, "events", 42.0);
    tw->instant("rebuild", "md", 20.0, obs::kPidMd, 0);
    EXPECT_EQ(tw->events_written(), 6u);
  }  // destructor closes the JSON
  const std::string s = slurp(path);
  EXPECT_TRUE(braces_balanced(s)) << s;
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"C\""), 1u);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"M\""), 2u);
  EXPECT_NE(s.find("\"dur\":0"), std::string::npos);  // clamped span
  std::remove(path.c_str());
}

TEST(TraceWriter, TimestampOffsetAppliesToEventsNotMetadata) {
  const std::string path = "test_obs_trace_offset.json";
  {
    auto tw = obs::TraceWriter::open(path);
    tw->set_ts_offset_us(1000.0);
    tw->complete("task", "des", 5.0, 1.0, obs::kPidMachine, 0);
    tw->process_name(obs::kPidMachine, "machine");
    EXPECT_DOUBLE_EQ(tw->ts_offset_us(), 1000.0);
  }
  const std::string s = slurp(path);
  EXPECT_NE(s.find("\"ts\":1005"), std::string::npos) << s;
  // Metadata stays at ts 0 so track names anchor the timeline.
  EXPECT_NE(s.find("\"ph\":\"M\",\"ts\":0"), std::string::npos) << s;
  std::remove(path.c_str());
}

// --- integration: DES machine model -----------------------------------------

System small_system() {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.1;
  o.seed = 77;
  o.temperature_k = -1;
  return build_solvated_system(o);
}

TEST(DesTelemetry, CriticalPathPartitionsMakespanExactly) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload w = core::Workload::build(sys, cfg);
  obs::MetricsRegistry reg;
  core::StepOptions opt;
  opt.include_long_range = true;
  opt.metrics = &reg;
  const core::StepTiming t = core::simulate_step(w, cfg, opt);

  double path_sum = 0;
  for (const auto& [phase, ns] : t.exec.critical_path_ns) path_sum += ns;
  EXPECT_GT(t.exec.makespan_ns, 0.0);
  EXPECT_NEAR(t.exec.critical_wait_ns + path_sum, t.exec.makespan_ns,
              1e-6 * t.exec.makespan_ns);
  EXPECT_GE(t.exec.critical_wait_ns, 0.0);

  // The registry carries the DES breakdown under the "des." prefix.
  EXPECT_EQ(reg.stat("des.step.makespan_ns")->snapshot().count(), 1u);
  EXPECT_DOUBLE_EQ(reg.stat("des.step.makespan_ns")->snapshot().sum(),
                   t.exec.makespan_ns);
  EXPECT_EQ(reg.counter("des.step.tasks")->value(), t.exec.tasks_executed);
  // The queue also executes NoC delivery and transfer events, so its count
  // dominates the task count.
  EXPECT_GE(reg.counter("des.queue.executed")->value(),
            t.exec.tasks_executed);
  EXPECT_GT(reg.histogram("des.noc.latency_ns", 0, 1, 1)->snapshot().total(),
            0u);
  // Per-phase critical attribution matches ExecStats.
  for (const auto& [phase, ns] : t.exec.critical_path_ns) {
    const std::string name = "des.critical." + phase + ".ns";
    EXPECT_DOUBLE_EQ(reg.stat(name)->snapshot().sum(), ns) << name;
  }
}

TEST(DesTelemetry, TelemetryDoesNotPerturbTiming) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload w = core::Workload::build(sys, cfg);
  const core::StepTiming plain =
      core::simulate_step(w, cfg, {.include_long_range = true});
  obs::MetricsRegistry reg;
  core::StepOptions opt;
  opt.include_long_range = true;
  opt.metrics = &reg;
  const core::StepTiming observed = core::simulate_step(w, cfg, opt);
  EXPECT_DOUBLE_EQ(plain.step_ns, observed.step_ns);
  EXPECT_EQ(plain.exec.tasks_executed, observed.exec.tasks_executed);
}

TEST(DesTelemetry, StepTraceHasSpansForEveryTask) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload w = core::Workload::build(sys, cfg);
  const std::string path = "test_obs_des_trace.json";
  uint64_t tasks = 0;
  {
    auto tw = obs::TraceWriter::open(path);
    obs::MetricsRegistry reg;
    core::StepOptions opt;
    opt.include_long_range = true;
    opt.metrics = &reg;
    opt.trace = tw.get();
    tasks = core::simulate_step(w, cfg, opt).exec.tasks_executed;
    EXPECT_GT(tw->events_written(), tasks);  // tasks + packets + metadata
  }
  const std::string s = slurp(path);
  EXPECT_TRUE(braces_balanced(s));
  EXPECT_GE(count_occurrences(s, "\"ph\":\"X\""), tasks);
  EXPECT_GT(count_occurrences(s, "\"name\":\"packet\""), 0u);
  EXPECT_GT(count_occurrences(s, "\"name\":\"ser\""), 0u);
  std::remove(path.c_str());
}

// Count of the stat `name` in a metrics JSON snapshot; -1 when absent.
long long stat_count(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":{\"type\":\"stat\",\"count\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size()));
}

TEST(MachineTelemetry, HostTimeStatsPerLayer) {
  // A telemetered estimate() or run() records the host seconds of each
  // machine-model layer — workload, graph, full and short replay — as
  // machine.phase.<layer>.seconds stats and spans on the host track.  The
  // counts are exact; no timing ratio is asserted.
  const std::string metrics = "test_obs_machine_metrics.json";
  const std::string trace = "test_obs_machine_trace.json";
  auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  cfg.metrics_path = metrics;
  cfg.trace_path = trace;
  core::AntonMachine(cfg).estimate(small_system());
  std::string j = slurp(metrics);
  for (const char* layer :
       {"workload", "graph", "replay_full", "replay_short"}) {
    EXPECT_EQ(stat_count(j, std::string("machine.phase.") + layer + ".seconds"),
              1)
        << layer;
  }
  const std::string t = slurp(trace);
  EXPECT_TRUE(braces_balanced(t));
  EXPECT_EQ(count_occurrences(t, "\"name\":\"replay_short\""), 1u);
  EXPECT_NE(t.find("machine model (host wall clock)"), std::string::npos);

  // run(): 6 steps, RESPA k = 2, a workload refresh every 4 steps.
  cfg.trace_path.clear();
  System water = build_water_box(216, 88);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 2;
  p.long_range = LongRangeMethod::kMesh;
  core::AntonMachine(cfg).run(water, p, 6, 4);
  j = slurp(metrics);
  EXPECT_EQ(stat_count(j, "machine.phase.workload.seconds"), 2);
  EXPECT_EQ(stat_count(j, "machine.phase.graph.seconds"), 2);
  EXPECT_EQ(stat_count(j, "machine.phase.replay_full.seconds"), 3);
  EXPECT_EQ(stat_count(j, "machine.phase.replay_short.seconds"), 3);
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

// --- integration: functional MD engine ---------------------------------------

TEST(MdTelemetry, PhaseBreakdownCoversStepTime) {
  System sys = build_water_box(125, 11);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 1;
  p.long_range = LongRangeMethod::kMesh;
  p.mesh_spacing = 1.1;
  p.telemetry = true;
  ThreadPool pool(2);
  md::Simulation sim(std::move(sys), p, &pool);
  obs::MetricsRegistry* reg = sim.metrics();
  ASSERT_NE(reg, nullptr);
  auto phase_seconds = [reg] {
    double sum = 0;
    for (const std::string& name : reg->names()) {
      if (name.rfind("md.phase.", 0) == 0) {
        sum += reg->stat(name)->snapshot().sum();
      }
    }
    return sum;
  };
  // The constructor's list build is timed outside any step.
  const double before = phase_seconds();
  sim.step(20);

  const RunningStat total = reg->stat("md.step.seconds")->snapshot();
  EXPECT_EQ(total.count(), 20u);
  auto count = [reg](const char* phase) {
    return reg->stat(std::string("md.phase.") + phase + ".seconds")
        ->snapshot()
        .count();
  };
  EXPECT_EQ(count("integrate"), 40u);    // two half kicks per step
  EXPECT_EQ(count("constraints"), 40u);  // SHAKE and RATTLE
  EXPECT_EQ(count("thermostat"), 20u);
  // One force evaluation per step at respa_k = 1, plus the first step's
  // initial one.
  for (const char* phase : {"bonded", "pair", "fft"}) {
    EXPECT_EQ(count(phase), 21u) << phase;
  }
  EXPECT_EQ(count("nlist"),
            static_cast<uint64_t>(sim.forces().nlist_builds()));
  // Every phase scope is disjoint from the others and lies between its
  // step's two clock reads, so the phases cannot outlast the steps.
  const double during = phase_seconds() - before;
  EXPECT_GT(during, 0.0);
  EXPECT_LE(during, total.sum());
  // The threaded pair kernel reports per-worker spans for imbalance.
  EXPECT_GT(reg->stat("md.pair.thread_seconds")->snapshot().count(), 0u);
}

TEST(MdTelemetry, DisabledByDefault) {
  System sys = build_water_box(125, 12);
  MdParams p;
  p.cutoff = 6.0;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kNone;
  md::Simulation sim(std::move(sys), p);
  sim.step(2);
  EXPECT_EQ(sim.metrics(), nullptr);
}

TEST(MdTelemetry, ExternalRegistryViaUseTelemetry) {
  System sys = build_water_box(125, 13);
  MdParams p;
  p.cutoff = 6.0;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kNone;
  md::Simulation sim(std::move(sys), p);
  obs::MetricsRegistry reg;
  sim.use_telemetry(&reg, nullptr);
  sim.step(3);
  EXPECT_EQ(sim.metrics(), &reg);
  EXPECT_EQ(reg.stat("md.step.seconds")->snapshot().count(), 3u);
  sim.use_telemetry(nullptr, nullptr);
  sim.step(2);
  EXPECT_EQ(sim.metrics(), nullptr);
  EXPECT_EQ(reg.stat("md.step.seconds")->snapshot().count(), 3u);
}

// ---------------------------------------------------------------------------
// Histogram summary fields.

TEST(MetricsRegistry, HistogramExportsP95InJsonAndCsv) {
  obs::MetricsRegistry reg;
  obs::Histo* h = reg.histogram("h.lat", 0, 100, 100);
  for (int i = 0; i < 100; ++i) h->add(i + 0.5);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"p95\":"), std::string::npos);
  // p95 of a uniform 0..100 fill lands in the mid-nineties bin.
  const Histogram snap = h->snapshot();
  EXPECT_GT(snap.quantile(0.95), 90.0);
  EXPECT_LT(snap.quantile(0.95), 100.0);
}

TEST(MetricsRegistry, HistogramExportsP99InJsonAndCsv) {
  obs::MetricsRegistry reg;
  obs::Histo* h = reg.histogram("query.latency_ms", 0, 100, 100);
  // Bimodal latency: dense fast mode, 1% slow tail — the shape p99 exists
  // to expose (p95 sits in the fast mode, p99 at its very edge).
  for (int i = 0; i < 990; ++i) h->add(2.5);
  for (int i = 0; i < 10; ++i) h->add(80.5);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"p99\":"), std::string::npos);
  const Histogram snap = h->snapshot();
  EXPECT_LT(snap.quantile(0.95), 4.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 3.0);  // exact top of the fast bin
  EXPECT_GT(snap.quantile(0.999), 80.0);
}

// ---------------------------------------------------------------------------
// The hardware-counter probe that benchmark fingerprints record.

TEST(PerfCounters, HostCountersEitherWorkOrExplain) {
  const obs::PerfCounters pc;
  const std::string& reason = pc.unavailable_reason();
  if (pc.available()) {
    EXPECT_TRUE(reason.empty()) << reason;
    return;
  }
#if defined(__linux__)
  // Fingerprints carry this string verbatim.
  EXPECT_EQ(reason.rfind("perf_event_open(cycles) failed: ", 0), 0u) << reason;
  EXPECT_NE(
      reason.find(" (check kernel.perf_event_paranoid or container seccomp)"),
      std::string::npos)
      << reason;
#else
  EXPECT_EQ(reason, "perf_event_open is Linux-only");
#endif
}

}  // namespace
}  // namespace anton
