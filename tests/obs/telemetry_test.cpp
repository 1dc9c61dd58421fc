// Telemetry subsystem tests: exact counter oracles, queue-depth gauges,
// Chrome-trace output, GRB_STATS/GRB_TRACE env activation, the op-named
// deferred-error diagnostics, and a multithreaded counter-consistency
// check (this binary is labeled tsan, so the ThreadSanitizer preset runs
// it to prove the hooks race-free).
//
// This suite owns its main(): each test performs its own GrB_init /
// GrB_finalize so the env-activation tests can set GRB_STATS/GRB_TRACE
// before library initialization (the shared test_main.cpp environment
// initializes once per process, which would pin the env state).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "exec/fusion.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "ops/spgemm.hpp"

namespace {

// Pins the deferred-op fusion planner off for oracles that count one
// deferred execution (and one flop tally) per queued method — under
// fusion a later full-replace mxm/mxv legitimately eliminates its
// predecessors as dead writes.
class FusionGuard {
 public:
  explicit FusionGuard(bool on = false) : saved_(grb::fusion_enabled()) {
    grb::set_fusion_enabled(on);
  }
  ~FusionGuard() { grb::set_fusion_enabled(saved_); }

 private:
  bool saved_;
};

// A SpGEMM dense budget under the dense-SPA footprint of the 8-column
// products below: every row takes the hash accumulator.  The default
// budget keeps them under the always-dense cap instead.
constexpr size_t kHashOnlyBudget = 64;

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

uint64_t counter(const char* name) {
  uint64_t v = ~0ull;
  EXPECT_EQ(GxB_Stats_get(name, &v), GrB_SUCCESS) << name;
  return v;
}

// Per-test library lifecycle with telemetry left clean on exit.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  }
  void TearDown() override {
    EXPECT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
    EXPECT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
    EXPECT_EQ(GrB_finalize(), GrB_SUCCESS);
  }
};

// A small materialized n x n path matrix: A(i, i+1) = 1.
GrB_Matrix path_matrix(GrB_Index n) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < n; ++i)
    EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + 1), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  return a;
}

GrB_Vector ones_vector(GrB_Index n) {
  GrB_Vector v = nullptr;
  EXPECT_EQ(GrB_Vector_new(&v, GrB_FP64, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    EXPECT_EQ(GrB_Vector_setElement(v, 1.0, i), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);
  return v;
}

TEST_F(ObsTest, CountersExactForKnownOpSequence) {
  FusionGuard fusion_off;
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 8), GrB_SUCCESS);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // The scripted sequence: 2x mxm, 1x mxv, 2x wait.
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);

  EXPECT_EQ(counter("GrB_mxm.calls"), 2u);
  EXPECT_EQ(counter("GrB_mxv.calls"), 1u);
  EXPECT_EQ(counter("GrB_wait.calls"), 2u);
  EXPECT_EQ(counter("GrB_mxm.errors"), 0u);
  // Nonblocking mode: each op executed as a deferred method.
  EXPECT_EQ(counter("GrB_mxm.deferred"), 2u);
  EXPECT_EQ(counter("GrB_mxv.deferred"), 1u);
  // flops: A is an 8-node path (7 entries); A*A chains i->i+2, so the
  // Gustavson expansion is 6 multiplies per mxm; mxv counts nnz(A).
  EXPECT_EQ(counter("GrB_mxm.flops"), 12u);
  EXPECT_EQ(counter("GrB_mxv.flops"), 7u);
  // Scalars written through the writeback choke point.
  EXPECT_GT(counter("GrB_mxm.scalars"), 0u);
  EXPECT_GT(counter("GrB_mxv.scalars"), 0u);
  // Tiny problem: every serial-fallback gate decision picked serial.
  EXPECT_GT(counter("GrB_mxm.serial"), 0u);
  EXPECT_EQ(counter("GrB_mxm.parallel"), 0u);
  // Timers ran.
  EXPECT_GT(counter("GrB_mxm.ns"), 0u);
  EXPECT_GT(counter("GrB_mxm.deferred_ns"), 0u);

  // Unknown counters: GrB_NO_VALUE, value forced to 0.
  uint64_t v = 42;
  EXPECT_EQ(GxB_Stats_get("GrB_mxm.nope", &v), GrB_NO_VALUE);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(GxB_Stats_get("no_such_op.calls", &v), GrB_NO_VALUE);

  GrB_free(&a);
  GrB_free(&c);
  GrB_free(&u);
  GrB_free(&w);
}

// The adaptive SpGEMM engine reports which accumulator each output row
// used, its symbolic flop estimate, and whether per-thread scratch was
// reused from the arena or freshly grown.
TEST_F(ObsTest, SpgemmAccumulatorAndArenaCounters) {
  const size_t saved_budget = grb::spgemm_dense_budget();
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // A budget under the 8-column dense footprint: the 6 productive rows
  // of A*A (path matrix, rows 0..5 have one flop each) all use the hash
  // accumulator.
  grb::set_spgemm_dense_budget(kHashOnlyBudget);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("spgemm.rows_hash"), 6u);
  EXPECT_EQ(counter("spgemm.rows_dense"), 0u);
  // Same symbolic estimate the flops counter uses: 6 multiplies.
  EXPECT_EQ(counter("spgemm.flops_estimated"), 6u);
  // First multiply after reset: the hash scratch had to be grown.
  EXPECT_GT(counter("arena.reuse_misses"), 0u);

  // The default budget puts the same product under the always-dense
  // footprint, flipping every row to the dense accumulator; it reuses
  // the arena buffers grown above.
  grb::set_spgemm_dense_budget(0);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("spgemm.rows_hash"), 6u);
  EXPECT_EQ(counter("spgemm.rows_dense"), 6u);
  EXPECT_EQ(counter("spgemm.flops_estimated"), 12u);

  // Re-running the hash multiply now hits warm scratch.
  grb::set_spgemm_dense_budget(kHashOnlyBudget);
  uint64_t hits_before = counter("arena.reuse_hits");
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_GT(counter("arena.reuse_hits"), hits_before);

  // The counters surface through the JSON report as well.  A generous
  // fixed buffer rather than the two-call sizing protocol: the dump's
  // own op entry and ns counters grow between a sizing call and a
  // filling call, which would truncate the tail fields under test.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  ASSERT_LE(len, buf.size());
  std::string json(buf.data());
  EXPECT_NE(json.find("\"spgemm.rows_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"spgemm.rows_dense\""), std::string::npos);
  EXPECT_NE(json.find("\"spgemm.flops_estimated\""), std::string::npos);
  EXPECT_NE(json.find("\"arena.reuse_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"arena.reuse_misses\""), std::string::npos);

  grb::set_spgemm_dense_budget(saved_budget);
  GrB_free(&a);
  GrB_free(&c);
}

// The decision audit mirrors the accumulator question with exact
// numbers: one mxm on the 8-node path emits one spgemm_accum record
// whose predicted cost is the 6-flop symbolic estimate and whose
// measured outcome is the 6 output entries — a perfect prediction, so
// the mispredict counter stays zero.
TEST_F(ObsTest, DecisionCountersExactForPathMxm) {
  FusionGuard fusion_off;
  const size_t saved_budget = grb::spgemm_dense_budget();
  grb::set_spgemm_dense_budget(kHashOnlyBudget);
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);

  // GxB_Stats_enable turns the decision audit on with it: counters
  // without their why are half an answer.
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);

  EXPECT_EQ(counter("decision.spgemm_accum.records"), 1u);
  EXPECT_EQ(counter("decision.spgemm_accum.measured"), 1u);
  EXPECT_EQ(counter("decision.spgemm_accum.mispredicts"), 0u);
  EXPECT_EQ(counter("decision.spgemm_accum.predicted_units"), 6u);
  EXPECT_EQ(counter("decision.spgemm_accum.measured_units"), 6u);
  // Sites that had no adaptive choice to make stay silent: no mask (so
  // no masked-dot strategy), fusion pinned off, no transpose view.
  EXPECT_EQ(counter("decision.masked_dot.records"), 0u);
  EXPECT_EQ(counter("decision.fusion_plan.records"), 0u);
  EXPECT_EQ(counter("decision.transpose_cache.records"), 0u);
  EXPECT_EQ(counter("decision.mispredicts"), 0u);
  EXPECT_GT(counter("decision.ring_capacity"), 0u);

  // The audit reaches the JSON report as a nested block.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"decisions\":{"), std::string::npos);
  EXPECT_NE(json.find("\"spgemm_accum\":{\"records\":1,\"measured\":1,"
                      "\"mispredicts\":0,\"predicted_units\":6,"
                      "\"measured_units\":6}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"prof\":{"), std::string::npos);

  grb::set_spgemm_dense_budget(saved_budget);
  GrB_free(&a);
  GrB_free(&c);
}

// The masked-dot site of C<L> = L*L' worked out by hand from the rows
// of the strictly lower adjacency L: the average-degree model, the
// Gustavson flops it competes with, and the exact merge-list work the
// dot kernel does (B = L', so B' = L).
struct DotAudit {
  bool dot;
  uint64_t predicted, measured;
  bool mispredict;
};
DotAudit masked_dot_by_hand(const std::vector<std::vector<GrB_Index>>& l) {
  const uint64_t n = l.size();
  uint64_t nnz = 0;
  std::vector<uint64_t> col_count(n, 0);
  for (const auto& row : l) {
    nnz += row.size();
    for (GrB_Index k : row) ++col_count[k];
  }
  const uint64_t avg = nnz / n + 1;  // A's rows and B's columns alike
  const uint64_t model = nnz * (avg + avg) + nnz;
  uint64_t gustavson = 0, merge = nnz;
  for (const auto& row : l) {
    for (GrB_Index k : row) {
      gustavson += col_count[k];         // nnz(L'(k,:))
      merge += row.size() + l[k].size();  // |A(i,:)| + |B'(j,:)|
    }
  }
  DotAudit d;
  d.dot = model < gustavson;
  d.predicted = d.dot ? model : gustavson;
  d.measured = d.dot ? merge : gustavson;
  d.mispredict = d.measured > 2 * d.predicted || 2 * d.measured < d.predicted;
  return d;
}

// Counts triangles with C<L> = L*L' on the graph whose strictly lower
// adjacency is `l`.
uint64_t triangle_count(const std::vector<std::vector<GrB_Index>>& l) {
  const GrB_Index n = l.size();
  GrB_Matrix lm = nullptr, c = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&lm, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    for (GrB_Index j : l[i])
      EXPECT_EQ(GrB_Matrix_setElement(lm, 1.0, i, j), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_new(&c, GrB_FP64, n, n), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c, lm, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, lm, lm,
                    GrB_DESC_ST1),
            GrB_SUCCESS);
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&nv, c), GrB_SUCCESS);
  std::vector<GrB_Index> ri(nv), ci(nv);
  std::vector<double> v(nv);
  EXPECT_EQ(GrB_Matrix_extractTuples(ri.data(), ci.data(), v.data(), &nv, c),
            GrB_SUCCESS);
  double total = 0;
  for (double x : v) total += x;
  GrB_free(&lm);
  GrB_free(&c);
  return static_cast<uint64_t>(total);
}

// The masked-dot audit predicts and measures in one unit, merge-list
// work, so its mispredicts are model errors, not unit errors.  A fan
// (hub 0 joined to a path 1..15) fits the average-degree model; a K8
// among 56 isolated vertices puts every mask entry on rows far above
// the average degree, which the model underestimates more than 2x.
TEST_F(ObsTest, MaskedDotDecisionExactForTriangleCount) {
  FusionGuard fusion_off;
  std::vector<std::vector<GrB_Index>> fan(16), clique(64);
  for (GrB_Index i = 1; i < 16; ++i) {
    fan[i].push_back(0);
    if (i >= 2) fan[i].push_back(i - 1);
  }
  for (GrB_Index i = 0; i < 8; ++i)
    for (GrB_Index j = 0; j < i; ++j) clique[i].push_back(j);
  const DotAudit f = masked_dot_by_hand(fan);
  const DotAudit k = masked_dot_by_hand(clique);
  // Hand values: fan 29 entries, model 29*(2+2)+29 = 145 < 239 Gustavson
  // flops, merge work 84+29 = 113; K8 28 entries, model 28*(1+1)+28 = 84
  // < 140, merge work 196+28 = 224 > 2*84.
  ASSERT_TRUE(f.dot && k.dot);
  EXPECT_EQ(f.predicted, 145u);
  EXPECT_EQ(f.measured, 113u);
  EXPECT_FALSE(f.mispredict);
  EXPECT_EQ(k.predicted, 84u);
  EXPECT_EQ(k.measured, 224u);
  EXPECT_TRUE(k.mispredict);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  EXPECT_EQ(triangle_count(fan), 14u);
  EXPECT_EQ(triangle_count(clique), 56u);
  EXPECT_EQ(counter("decision.masked_dot.records"), 2u);
  EXPECT_EQ(counter("decision.masked_dot.measured"), 2u);
  EXPECT_EQ(counter("decision.masked_dot.predicted_units"),
            f.predicted + k.predicted);
  EXPECT_EQ(counter("decision.masked_dot.measured_units"),
            f.measured + k.measured);
  EXPECT_EQ(counter("decision.masked_dot.mispredicts"),
            uint64_t{f.mispredict} + uint64_t{k.mispredict});
}

// Just enough JSON to follow a key path through stats_json: skips one
// value starting at `i`.
size_t json_skip(std::string_view doc, size_t i) {
  if (doc[i] == '"') {
    for (++i; doc[i] != '"'; ++i)
      if (doc[i] == '\\') ++i;
    return i + 1;
  }
  if (doc[i] == '{' || doc[i] == '[') {
    int depth = 0;
    do {
      if (doc[i] == '"') {
        i = json_skip(doc, i);
        continue;
      }
      if (doc[i] == '{' || doc[i] == '[') ++depth;
      if (doc[i] == '}' || doc[i] == ']') --depth;
      ++i;
    } while (depth > 0);
    return i;
  }
  while (doc[i] != ',' && doc[i] != '}' && doc[i] != ']') ++i;
  return i;
}

// The number at `path` (object keys, or decimal indices into arrays).
std::optional<uint64_t> json_at(std::string_view doc,
                                const std::vector<std::string>& path) {
  size_t i = 0;
  for (const std::string& step : path) {
    const bool array = doc[i] == '[';
    if (!array && doc[i] != '{') return std::nullopt;
    size_t index = 0;
    for (++i;;) {
      if (doc[i] == '}' || doc[i] == ']') return std::nullopt;
      std::string key = std::to_string(index++);
      if (!array) {
        size_t end = json_skip(doc, i);
        key = std::string(doc.substr(i + 1, end - i - 2));
        i = end + 1;  // past the ':'
      }
      if (key == step) break;
      i = json_skip(doc, i);
      if (doc[i] == ',') ++i;
    }
  }
  return std::stoull(std::string(doc.substr(i, json_skip(doc, i) - i)));
}

// Cross-surface parity: every cell of the metric table (a row read for
// one instance of its dimension) reads the same through the dotted-name
// lookup, at its JSON path and as its Prometheus sample.  The counters
// are frozen (stats off) and read through the obs layer directly, so the
// reads themselves bump nothing (a GxB_* call would add flight events).
TEST_F(ObsTest, EveryMetricRowAgreesAcrossSurfaces) {
  FusionGuard fusion_off;
  const size_t saved_budget = grb::spgemm_dense_budget();
  grb::set_spgemm_dense_budget(kHashOnlyBudget);
  GrB_Context child = nullptr;
  ASSERT_EQ(GrB_Context_new(&child, GrB_NONBLOCKING, nullptr, nullptr),
            GrB_SUCCESS);
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 8), GrB_SUCCESS);
  GrB_Vector t = nullptr;
  ASSERT_EQ(GrB_Vector_new(&t, GrB_FP64, 8, child), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  grb::obs::prof_set_enabled(true);

  // The scripted sequence of CountersExactForKnownOpSequence, plus a
  // tenant's setElement burst in a child context.
  for (int rep = 0; rep < 2; ++rep)
    ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                      a, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  for (GrB_Index i = 0; i < 3; ++i)
    ASSERT_EQ(GrB_Vector_setElement(t, 1.0, i), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(t, GrB_MATERIALIZE), GrB_SUCCESS);
  GrB_ContextConfig cfg;
  cfg.nthreads = 2;
  cfg.chunk = 8;
  GrB_Context pooled = nullptr;
  ASSERT_EQ(GrB_Context_new(&pooled, GrB_NONBLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  pooled->parallel_for(0, 1000, [](grb::Index, grb::Index) {});
  grb::obs::prof_set_enabled(false);
  ASSERT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);

  const std::string json = grb::obs::stats_json();
  std::map<std::string, uint64_t> prom;
  std::istringstream lines(grb::obs::stats_prometheus());
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    prom[line.substr(0, sp)] = std::stoull(line.substr(sp + 1));
  }

  size_t in_json = 0, in_prom = 0, by_ctx = 0;
  for (const grb::obs::MetricCell& cell : grb::obs::metric_cells()) {
    uint64_t got = ~0ull;
    bool ok = cell.get_ctx >= 0
                  ? grb::obs::stats_get_ctx(
                        static_cast<uint64_t>(cell.get_ctx),
                        cell.get_name.c_str(), &got)
                  : grb::obs::stats_get(cell.get_name.c_str(), &got);
    ASSERT_TRUE(ok) << cell.get_name;
    EXPECT_EQ(got, cell.value) << cell.get_name;
    if (!cell.json_path.empty()) {
      EXPECT_EQ(json_at(json, cell.json_path), std::optional<uint64_t>(got))
          << cell.get_name;
      ++in_json;
    }
    if (!cell.prom_series.empty()) {
      auto it = prom.find(cell.prom_series);
      ASSERT_NE(it, prom.end()) << cell.prom_series;
      EXPECT_EQ(it->second, got) << cell.prom_series;
      ++in_prom;
    }
    by_ctx += cell.get_ctx >= 0;
  }
  // Every dimension took part: process rows, ops (flat and per context,
  // both contexts), locks, decision sites and profiler regions.
  EXPECT_GT(in_json, 0u);
  EXPECT_GT(in_prom, 0u);
  EXPECT_GT(by_ctx, 0u);
  for (const char* dim : {"locks", "pools", "contexts"})
    EXPECT_NE(json.find(std::string("\"") + dim + "\":{\""),
              std::string::npos)
        << dim << " " << json;
  EXPECT_NE(prom.find("grb_prof_regions_total{op=\"GrB_mxm\",strategy="
                      "\"hash\",context=\"1\"}"),
            prom.end());
  uint64_t v = 0;
  EXPECT_TRUE(grb::obs::stats_get_ctx(
      child->obs_id(), "GrB_Vector_setElement<double>.calls", &v));
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(json_at(json, {"decisions", "sites", "spgemm_accum", "records"}),
            std::optional<uint64_t>(2));
  EXPECT_EQ(json_at(json, {"prof", "regions_total"}),
            std::optional<uint64_t>(
                [] {
                  uint64_t n = 0;
                  grb::obs::stats_get("prof.regions", &n);
                  return n;
                }()));

  GrB_free(&a);
  GrB_free(&c);
  GrB_free(&u);
  GrB_free(&w);
  GrB_free(&t);
  GrB_free(&child);
  GrB_free(&pooled);
  grb::set_spgemm_dense_budget(saved_budget);
}

TEST_F(ObsTest, QueueDepthHighWaterMatchesScriptedBuildWait) {
  FusionGuard fusion_off;
  GrB_Matrix a = path_matrix(8);
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 8), GrB_SUCCESS);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Three deferred methods stack up on w's sequence before the wait
  // drains them: depth samples 1, 2, 3.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                      GrB_NULL),
              GrB_SUCCESS);
  }
  EXPECT_EQ(counter("queue.high_water"), 3u);
  EXPECT_EQ(counter("queue.enqueued"), 3u);
  EXPECT_EQ(counter("queue.drained"), 0u);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("queue.drained"), 3u);
  EXPECT_EQ(counter("GrB_mxv.deferred"), 3u);

  // Pending-tuple gauge: setElement fast path counts tuples per object.
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  for (GrB_Index i = 0; i < 5; ++i)
    ASSERT_EQ(GrB_Vector_setElement(w, 1.0, i), GrB_SUCCESS);
  EXPECT_EQ(counter("pending.high_water"), 5u);

  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

// Exact oracles for the fusion planner's counters on hand-built chains
// whose plan is fully predictable.
TEST_F(ObsTest, FusionCountersExactForHandBuiltChain) {
  FusionGuard fusion_on(true);
  GrB_Matrix a = path_matrix(8);
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = ones_vector(8);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Three plain self-applies queue three fusable map nodes; the wait
  // plans them as one chain executed in a single pass.
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_ABS_FP64, w, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("fusion.chains"), 1u);
  EXPECT_EQ(counter("fusion.ops_fused"), 3u);
  EXPECT_EQ(counter("fusion.dead_writes_eliminated"), 0u);
  // Each fused node still tallies a deferred execution for op parity.
  EXPECT_EQ(counter("GrB_apply.deferred"), 3u);

  // Two plain full-replace mxv's: the planner eliminates the first as a
  // dead write (its output is overwritten wholesale before any read).
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("fusion.dead_writes_eliminated"), 1u);
  // Opaque kernel nodes never fuse into chains.
  EXPECT_EQ(counter("fusion.chains"), 1u);
  EXPECT_EQ(counter("fusion.ops_fused"), 3u);
  // The dead mxv never executed: one deferred tally, not two.
  EXPECT_EQ(counter("GrB_mxv.deferred"), 1u);

  // The counters surface through the JSON report.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"fusion.chains\""), std::string::npos);
  EXPECT_NE(json.find("\"fusion.ops_fused\""), std::string::npos);
  EXPECT_NE(json.find("\"fusion.dead_writes_eliminated\""),
            std::string::npos);

  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

// Exact oracles for the storage-format counters (DESIGN.md §15):
// format.switches counts publish-time format changes, the transpose
// counters count cached-view hits vs counting-sort rebuilds, and
// format.csr_conversions counts lazy canonical expansions.
TEST_F(ObsTest, FormatCountersExactForKnownSequence) {
  FusionGuard fusion_off;
  GrB_Matrix a = path_matrix(8);
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = ones_vector(8);
  grb::set_transpose_cache_enabled(true);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Two T0 reads of one unchanged snapshot: the first pays the counting
  // sort (miss), the second returns the cached view (hit).
  for (int rep = 0; rep < 2; ++rep) {
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_DESC_T0),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  }
  EXPECT_EQ(counter("format.transpose_cache_misses"), 1u);
  EXPECT_EQ(counter("format.transpose_cache_hits"), 1u);

  // With the cache disabled every read recomputes: one more miss, no
  // new hit.
  grb::set_transpose_cache_enabled(false);
  ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, u, GrB_DESC_T0),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("format.transpose_cache_misses"), 2u);
  EXPECT_EQ(counter("format.transpose_cache_hits"), 1u);
  grb::set_transpose_cache_enabled(true);

  // No publish changed a stored format yet.
  EXPECT_EQ(counter("format.switches"), 0u);

  // Three pins = three stored-format changes (csr->bitmap->hyper->csr).
  ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, GxB_FORMAT_BITMAP),
            GrB_SUCCESS);
  ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, GxB_FORMAT_HYPER),
            GrB_SUCCESS);
  ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, GxB_FORMAT_CSR),
            GrB_SUCCESS);
  EXPECT_EQ(counter("format.switches"), 3u);

  // A generic read of a non-CSR block expands it lazily exactly once;
  // the second read reuses the cached canonical view.
  ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, GxB_FORMAT_BITMAP),
            GrB_SUCCESS);
  uint64_t conv_before = counter("format.csr_conversions");
  GrB_Index ri[8], ci[8];
  double vals[8];
  for (int rep = 0; rep < 2; ++rep) {
    GrB_Index n = 8;
    ASSERT_EQ(GrB_Matrix_extractTuples(ri, ci, vals, &n, a), GrB_SUCCESS);
    EXPECT_EQ(n, 7u);
  }
  EXPECT_EQ(counter("format.csr_conversions"), conv_before + 1);

  // The counters surface through both exposition formats.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"format.switches\""), std::string::npos);
  EXPECT_NE(json.find("\"format.transpose_cache_hits\""),
            std::string::npos);
  EXPECT_NE(json.find("\"format.transpose_cache_misses\""),
            std::string::npos);
  EXPECT_NE(json.find("\"format.csr_conversions\""), std::string::npos);
  len = buf.size();
  ASSERT_EQ(GxB_Stats_prometheus(buf.data(), &len), GrB_SUCCESS);
  std::string prom(buf.data());
  EXPECT_NE(prom.find("grb_format_switches_total"), std::string::npos);
  EXPECT_NE(prom.find(
                "grb_format_transpose_cache_total{outcome=\"hit\"}"),
            std::string::npos);
  EXPECT_NE(prom.find(
                "grb_format_transpose_cache_total{outcome=\"miss\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("grb_format_csr_conversions_total"),
            std::string::npos);

  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

// The always-on flight recorder must show the plan before the fused
// execution, and the fused execution before the per-node deferred-exec
// events it wraps — the causal order a post-mortem reader relies on.
TEST_F(ObsTest, FlightRecorderLogsFusionInCausalOrder) {
  FusionGuard fusion_on(true);
  GrB_Vector w = ones_vector(8);
  uint64_t before = grb::obs::ring_events();
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_GT(grb::obs::ring_events(), before);

  std::string text = grb::obs::fr_text(0);
  size_t plan = text.rfind("fusion-plan");
  size_t exec = text.rfind("fusion-exec");
  ASSERT_NE(plan, std::string::npos) << text;
  ASSERT_NE(exec, std::string::npos) << text;
  EXPECT_LT(plan, exec);
  // The fused group's nodes log deferred-exec after the group event.
  size_t deferred = text.find("deferred-exec", exec);
  EXPECT_NE(deferred, std::string::npos) << text;

  GrB_free(&w);
}

TEST_F(ObsTest, TraceJsonParsesWithMatchedCompleteEvents) {
  std::string path = ::testing::TempDir() + "grb_obs_trace_test.json";
  ASSERT_EQ(GxB_Trace_start(path.c_str()), GrB_SUCCESS);

  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_COMPLETE), GrB_SUCCESS);
  ASSERT_EQ(GxB_Trace_dump(nullptr), GrB_SUCCESS);

  std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Spans are self-closing "X" (complete) events: every one carries a
  // duration, so begin/end pairing is matched by construction.  No
  // unterminated "B" events may appear.
  size_t spans = count_substr(json, "\"ph\":\"X\"");
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(count_substr(json, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_substr(json, "\"ph\":\"E\""), 0u);
  EXPECT_EQ(spans, count_substr(json, "\"dur\":"));
  // The mxm API span and its deferred execution (with the gap arg).
  EXPECT_NE(json.find("\"name\":\"GrB_mxm\",\"cat\":\"api\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"GrB_mxm\",\"cat\":\"deferred\""),
            std::string::npos);
  EXPECT_NE(json.find("\"gap_us\":"), std::string::npos);
  // Queue-depth gauge samples ride along as counter events.
  EXPECT_NE(json.find("\"name\":\"queue.depth\",\"ph\":\"C\""),
            std::string::npos);

  std::remove(path.c_str());
  GrB_free(&a);
  GrB_free(&c);
}

TEST_F(ObsTest, DeferredErrorNamesOriginatingOp) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {1, 1};
  double vals[] = {1, 2};
  // Duplicates with a NULL dup op fail at deferred execution time.
  GrB_Info info = GrB_Vector_build(v, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(v, GrB_COMPLETE);
  EXPECT_EQ(info, GrB_INVALID_VALUE);
  const char* msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, v), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  // The diagnostic names the originating method, not just the code.
  EXPECT_NE(std::string(msg).find("GrB_Vector_build"), std::string::npos)
      << msg;
  EXPECT_NE(std::string(msg).find("GrB_INVALID_VALUE"), std::string::npos)
      << msg;
  GrB_free(&v);
}

TEST_F(ObsTest, MultithreadedCounterConsistency) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 64), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([v] {
      for (int i = 0; i < kIters; ++i) {
        GrB_Index n = 0;
        EXPECT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
      }
    });
  }
  for (auto& t : threads) t.join();

  // No lost updates: the relaxed per-counter atomics must still sum
  // exactly under contention.
  EXPECT_EQ(counter("GrB_Vector_nvals.calls"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(counter("GrB_Vector_nvals.errors"), 0u);
  GrB_free(&v);

  // A parallel workload on a pooled context: idle workers are billed
  // once, as pool parks, and never as lock contention.
  GrB_ContextConfig cfg;
  cfg.nthreads = 4;
  cfg.chunk = 8;
  GrB_Context ctx = nullptr;
  ASSERT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  std::vector<std::atomic<int>> hits(1000);
  for (int rep = 0; rep < 8 && counter("pool.parks") == 0; ++rep) {
    ctx->parallel_for(0, 1000, [&](grb::Index lo, grb::Index hi) {
      for (grb::Index i = lo; i < hi; ++i)
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(counter("pool.parks"), 0u);
  EXPECT_GT(counter("pool.chunks"), 0u);
  uint64_t park_locks = 0;
  EXPECT_EQ(GxB_Stats_get("lock.ThreadPool::park.contended", &park_locks),
            GrB_NO_VALUE);
  EXPECT_EQ(grb::obs::stats_json().find("ThreadPool::park"),
            std::string::npos);
  GrB_free(&ctx);
}

TEST_F(ObsTest, ExtensionRegistryIntrospection) {
  GrB_Index n = 0;
  ASSERT_EQ(GxB_Extension_count(&n), GrB_SUCCESS);
  EXPECT_EQ(n, GxB_EXTENSION_COUNT);
  bool saw_stats_get = false;
  for (GrB_Index i = 0; i < n; ++i) {
    const char* name = nullptr;
    ASSERT_EQ(GxB_Extension_name(&name, i), GrB_SUCCESS);
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(std::string(name).rfind("GxB_", 0), 0u) << name;
    if (std::string(name) == "GxB_Stats_get") saw_stats_get = true;
  }
  EXPECT_TRUE(saw_stats_get);
  const char* name = nullptr;
  EXPECT_EQ(GxB_Extension_name(&name, n), GrB_INVALID_INDEX);
  EXPECT_EQ(GxB_Extension_count(nullptr), GrB_NULL_POINTER);

  // Stats JSON sizing contract.
  GrB_Index len = 0;
  ASSERT_EQ(GxB_Stats_json(nullptr, &len), GrB_SUCCESS);
  ASSERT_GT(len, 2u);
  std::vector<char> buf(len);
  GrB_Index len2 = len;
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len2), GrB_SUCCESS);
  EXPECT_EQ(len2, len);
  EXPECT_EQ(buf[0], '{');
  EXPECT_NE(std::string(buf.data()).find("\"global\""), std::string::npos);
}

// Env activation needs its own fixture-free tests: the variables must be
// set before GrB_init.
TEST(ObsEnvTest, GrbStatsEnvEnablesCounters) {
  ASSERT_EQ(setenv("GRB_STATS", "1", 1), 0);
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  GrB_Index n = 0;
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  uint64_t calls = 0;
  EXPECT_EQ(GxB_Stats_get("GrB_Vector_nvals.calls", &calls), GrB_SUCCESS);
  EXPECT_GE(calls, 1u);
  GrB_free(&v);
  // Finalize prints the summary to stderr and deactivates env stats.
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
  ASSERT_EQ(unsetenv("GRB_STATS"), 0);

  // With the variable gone, a fresh cycle starts with stats off.
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  uint64_t after = 0;
  GrB_Info info = GxB_Stats_get("GrB_Vector_nvals.calls", &after);
  EXPECT_TRUE(info == GrB_NO_VALUE || after == 0u);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
}

TEST(ObsEnvTest, GrbTraceEnvDumpsChromeTraceAtFinalize) {
  std::string path = ::testing::TempDir() + "grb_obs_env_trace.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("GRB_TRACE", path.c_str(), 1), 0);
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
  ASSERT_EQ(unsetenv("GRB_TRACE"), 0);

  std::string json = slurp(path);
  ASSERT_FALSE(json.empty()) << path;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_GT(count_substr(json, "\"ph\":\"X\""), 0u);
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
