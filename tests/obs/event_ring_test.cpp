// The shared event ring under concurrency: four threads drive the API
// with the trace, the flight recorder and the decision audit all on,
// while a reader renders GxB_Explain and GxB_FlightRecorder_dump in a
// loop.  Every view must see whole events only, every measured outcome
// must join the decision record with its seq, and the trace counters
// must account for every trace event recorded.
//
// Compiled into grb_obs_tests (telemetry_test.cpp owns main()), so it
// carries the tsan label and runs under -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "obs/decision.hpp"
#include "obs/telemetry.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

size_t count_substr(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

uint64_t stat(const char* name) {
  uint64_t v = ~0ull;
  EXPECT_TRUE(grb::obs::stats_get(name, &v)) << name;
  return v;
}

GrB_Matrix path_matrix(GrB_Index n) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < n; ++i)
    EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + 1), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  return a;
}

// One GxB_Explain record line, as decision_explain renders it.
struct ExplainRow {
  char op[64], site[32], chosen[32], rejected[32];
  double predicted = 0, alternative = 0;
  bool measured = false;
  unsigned long long measured_units = 0;
};

bool parse_explain_row(const std::string& line, ExplainRow* r) {
  unsigned long long seq = 0, ctx = 0, ns = 0;
  if (std::sscanf(line.c_str(),
                  "  [#%llu] %63s %31s ctx=%llu: chose %31s over %31s "
                  "(predicted %lf vs %lf units)",
                  &seq, r->op, r->site, &ctx, r->chosen, r->rejected,
                  &r->predicted, &r->alternative) != 8)
    return false;
  const size_t m = line.find("; measured ");
  r->measured = m != std::string::npos;
  return !r->measured ||
         std::sscanf(line.c_str() + m, "; measured %llu ns, %llu units", &ns,
                     &r->measured_units) == 2;
}

const std::set<std::string> kFlightKinds = {
    "api-enter",   "api-error",   "deferred-exec", "poison",  "fusion-plan",
    "fusion-exec", "enqueue",     "watchdog",      "decision"};
const std::set<std::string> kSites = {"exec_path",       "spgemm_accum",
                                      "masked_dot",      "format_adapt",
                                      "transpose_cache", "fusion_plan"};

TEST(EventRingTest, ConcurrentViewsSeeWholeJoinedEvents) {
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);  // the decision audit too
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  const std::string trace = ::testing::TempDir() + "grb_event_ring.json";
  const std::string flight = ::testing::TempDir() + "grb_event_ring.txt";
  ASSERT_EQ(GxB_Trace_start(trace.c_str()), GrB_SUCCESS);

  // Thread t multiplies a path of 6 + 2t vertices by itself: 4 + 2t
  // flops in, 4 + 2t entries out, so each spgemm_accum record's
  // predicted and measured units are equal and name their thread.  The
  // writers keep going until the reader has rendered a few rounds.
  constexpr int kThreads = 4;
  constexpr int kMinIters = 50;
  constexpr int kMaxIters = 2000;
  std::atomic<int> running{kThreads};
  std::atomic<int> rounds{0};
  int iters[kThreads] = {};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &running, &rounds, &iters] {
      const GrB_Index n = 6 + 2 * t;
      GrB_Matrix a = path_matrix(n);
      int& i = iters[t];
      for (; i < kMaxIters &&
             (i < kMinIters || rounds.load(std::memory_order_relaxed) < 3);
           ++i) {
        GrB_Matrix c = nullptr;
        EXPECT_EQ(GrB_Matrix_new(&c, GrB_FP64, n, n), GrB_SUCCESS);
        EXPECT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL,
                          GrB_PLUS_TIMES_SEMIRING_FP64, a, a, GrB_NULL),
                  GrB_SUCCESS);
        EXPECT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
        GrB_free(&c);
      }
      GrB_free(&a);
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // The reader renders both views until the writers are done, and once
  // more after, checking every line it gets.
  std::thread reader([&] {
    std::vector<char> buf(1 << 20);
    for (bool last = false; !last;
         rounds.fetch_add(1, std::memory_order_relaxed)) {
      last = running.load(std::memory_order_acquire) == 0;
      GrB_Index len = buf.size();
      ASSERT_EQ(GxB_Explain(GrB_NULL, buf.data(), &len), GrB_SUCCESS);
      ASSERT_LE(len, buf.size());
      std::istringstream explain(buf.data());
      for (std::string line; std::getline(explain, line);) {
        if (line.rfind("  [#", 0) != 0) continue;
        ExplainRow r;
        ASSERT_TRUE(parse_explain_row(line, &r)) << line;
        EXPECT_TRUE(kSites.count(r.site)) << line;
        if (std::strcmp(r.site, "spgemm_accum") != 0 || !r.measured) continue;
        // A joined outcome is the outcome of this record.
        EXPECT_EQ(static_cast<double>(r.measured_units), r.predicted) << line;
        EXPECT_EQ(line.find("MISPREDICT"), std::string::npos) << line;
      }
      ASSERT_EQ(GxB_FlightRecorder_dump(flight.c_str()), GrB_SUCCESS);
      std::istringstream dump(slurp(flight));
      for (std::string line; std::getline(dump, line);) {
        if (line.rfind("  #", 0) != 0) continue;
        char kind[32], name[128];
        unsigned long long seq, ts;
        unsigned tid;
        ASSERT_EQ(std::sscanf(line.c_str(), "  #%llu %llu %x %31s %127s",
                              &seq, &ts, &tid, kind, name),
                  5)
            << line;
        EXPECT_TRUE(kFlightKinds.count(kind)) << line;
      }
    }
  });
  for (auto& w : writers) w.join();
  reader.join();
  EXPECT_GE(rounds.load(), 3);

  // Every mxm's decision is in the ring, measured, and joined to its own
  // outcome: each thread's unit count appears once per iteration.
  std::vector<grb::obs::DecisionRecord> rows(1 << 16);
  const int n =
      grb::obs::decision_snapshot(rows.data(), 1 << 16, "GrB_mxm", 0);
  std::map<uint64_t, int> by_units;
  std::set<uint64_t> seqs;
  for (int i = 0; i < n; ++i) {
    const grb::obs::DecisionRecord& r = rows[i];
    EXPECT_TRUE(seqs.insert(r.seq).second) << r.seq;
    if (r.site != grb::obs::DecisionSite::kSpgemmAccum) continue;
    ASSERT_TRUE(r.measured) << r.seq;
    EXPECT_EQ(static_cast<double>(r.measured_units), r.predicted_cost);
    ++by_units[r.measured_units];
  }
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(by_units[4 + 2 * t], iters[t]) << "thread " << t;

  // The trace accounts for every trace event: the live counters match
  // the dump, and every mxm span is in it.
  const uint64_t events = stat("trace.events");
  const uint64_t dropped = stat("trace.dropped");
  ASSERT_EQ(GxB_Trace_dump(GrB_NULL), GrB_SUCCESS);
  const std::string json = slurp(trace);
  EXPECT_EQ(count_substr(json, "\"ph\":"), events);
  EXPECT_NE(json.find("\"droppedEvents\":" + std::to_string(dropped) + ","),
            std::string::npos);
  EXPECT_EQ(stat("trace.events") + stat("trace.dropped"), events + dropped);
  EXPECT_EQ(count_substr(json, "\"name\":\"GrB_mxm\",\"cat\":\"api\""),
            static_cast<size_t>(iters[0] + iters[1] + iters[2] + iters[3]));
  std::remove(trace.c_str());
  std::remove(flight.c_str());

  ASSERT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
}

}  // namespace
