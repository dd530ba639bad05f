// Flight recorder: ring semantics, concurrency, crash dumps, and the
// zero-allocation steady state.
//
// Like test_des_noalloc.cc, this binary links the counting allocator
// (alloc_counter.cc): after the one-time per-thread ring attach, recording
// into the flight buffer must perform no heap allocation at all — that is
// the property that lets ANTON_HOT_NOALLOC paths (the DES queue loop, the
// NoC delivery path) record without losing their callgraph-verified purity.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "common/error.h"
#include "obs/flightrecorder.h"

namespace anton {
namespace {

using test_support::g_allocs;

namespace flight = obs::flight;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Records each thread's ring keeps.
constexpr uint64_t kDepth = 4096;

// Each test owns the recorder's global state: reset, then pin the env knobs
// it relies on (the config is re-read on the first attach after a reset).
void fresh() {
  flight::reset_for_testing();
  unsetenv("ANTON_FLIGHT");
  unsetenv("ANTON_FLIGHT_PATH");
}

TEST(FlightRecorder, RingWrapKeepsOnlyTheLastDepthRecords) {
  fresh();
  constexpr int kRecords = static_cast<int>(kDepth) + 200;
  for (int i = 0; i < kRecords; ++i) {
    flight::record(flight::Kind::kMark, "wrap",
                   static_cast<uint64_t>(i));
  }
  const flight::Stats st = flight::stats();
  EXPECT_EQ(st.threads, 1);
  EXPECT_EQ(st.records, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(st.retained, kDepth);

  const std::string path = "flight_wrap.json";
  ASSERT_TRUE(flight::dump(path.c_str()));
  const std::string d = slurp(path);
  EXPECT_NE(d.find("\"anton.flight.v1\""), std::string::npos);
  // Retained window is payloads 200..4295: the oldest survivor is 200.
  EXPECT_NE(d.find("\"payload\":4295}"), std::string::npos);
  EXPECT_NE(d.find("\"payload\":200}"), std::string::npos);
  EXPECT_EQ(d.find("\"payload\":199}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, ConcurrentPerThreadWritersNeverInterleave) {
  fresh();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        flight::record_sim(flight::Kind::kDesEvent, "evt",
                           1000.0 * t + i, static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : writers) th.join();
  const flight::Stats st = flight::stats();
  EXPECT_EQ(st.threads, kThreads);  // main never recorded
  EXPECT_EQ(st.records, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.retained, static_cast<uint64_t>(kThreads) * kDepth);

  const std::string path = "flight_threads.json";
  ASSERT_TRUE(flight::dump(path.c_str()));
  const std::string d = slurp(path);
  EXPECT_NE(d.find("\"threads\":4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SteadyStateRecordingIsAllocationFree) {
  fresh();
  // Warm-up: the first record on this thread attaches the ring (the one
  // sanctioned allocation, amortized like the event arena).
  flight::record(flight::Kind::kMark, "warm");
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    flight::record_sim(flight::Kind::kDesEvent, "evt", 10.0 * i,
                       static_cast<uint64_t>(i));
    flight::record_at(flight::Kind::kNocSend, "noc", 10.0 * i + 1, 7);
  }
  const std::int64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "flight recording allocated on the hot path";
  EXPECT_EQ(flight::stats().records, 20001u);
}

TEST(FlightRecorder, DisabledViaEnvRecordsNothing) {
  flight::reset_for_testing();
  setenv("ANTON_FLIGHT", "0", 1);
  flight::record(flight::Kind::kMark, "ignored");
  flight::record(flight::Kind::kMark, "ignored");
  const flight::Stats st = flight::stats();
  EXPECT_EQ(st.threads, 0);
  EXPECT_EQ(st.records, 0u);
  unsetenv("ANTON_FLIGHT");
  flight::reset_for_testing();
}

TEST(FlightRecorder, InvariantFailureDumpsOnceWithTheFailedExpression) {
  fresh();
  const std::string path = "flight_invariant.json";
  std::remove(path.c_str());
  flight::install_crash_handler(path.c_str());
  flight::record(flight::Kind::kMark, "before-failure");
  EXPECT_THROW(ANTON_CHECK(1 == 2), anton::Error);
  const std::string d = slurp(path);
  ASSERT_FALSE(d.empty()) << "no dump written on ANTON_CHECK failure";
  EXPECT_NE(d.find("\"anton.flight.v1\""), std::string::npos);
  EXPECT_NE(d.find("\"kind\":\"invariant\""), std::string::npos);
  EXPECT_NE(d.find("1 == 2"), std::string::npos);
  EXPECT_NE(d.find("before-failure"), std::string::npos);

  // Once per process: a second caught failure must not rewrite the file.
  std::remove(path.c_str());
  EXPECT_THROW(ANTON_CHECK(2 == 3), anton::Error);
  EXPECT_TRUE(slurp(path).empty());
}

TEST(FlightRecorder, DumpPathReflectsInstallOverride) {
  fresh();
  flight::install_crash_handler("flight_custom_path.json");
  EXPECT_STREQ(flight::dump_path(), "flight_custom_path.json");
}

TEST(FlightRecorderDeathTest, FatalSignalDumpsBeforeDying) {
  fresh();
  const std::string path = "flight_sigterm.json";
  std::remove(path.c_str());
  flight::install_crash_handler(path.c_str());
  flight::record(flight::Kind::kMark, "pre-kill", 42);
  EXPECT_EXIT(std::raise(SIGTERM), testing::KilledBySignal(SIGTERM), "");
  // The dump happened in the death-test child, before the re-raise killed
  // it; the file lands in the shared working directory.
  const std::string d = slurp(path);
  ASSERT_FALSE(d.empty()) << "no dump written by the SIGTERM handler";
  EXPECT_NE(d.find("\"anton.flight.v1\""), std::string::npos);
  EXPECT_NE(d.find("pre-kill"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anton
