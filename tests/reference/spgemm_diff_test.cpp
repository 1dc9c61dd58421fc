// Differential oracle for the semiring kernel layer.
//
// The SpGEMM engine promises bitwise-identical results for every
// accumulator choice (hash SPA, dense SPA, or the auto per-row mix, all
// steered here through the dense budget), every mxm strategy override,
// and any thread count.  The typed runners promise the results of the
// type-erased function-pointer runner on every kernel.  This harness
// fixes random real-valued inputs — where any change in floating-point
// fold order would show — and requires exact equality.  The SpGEMM
// oracle is ref::mxm + ref::writeback (tests/reference/dense_ref.hpp):
// it folds each entry's products in ascending k starting from the first
// product, the order Gustavson and the masked dot both use.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/global.hpp"
#include "ops/spgemm.hpp"
#include "tests/grb_test_util.hpp"
#include "util/prng.hpp"

namespace {

struct ThresholdGuard {
  size_t saved;
  ThresholdGuard() : saved(grb::parallel_threshold()) {
    grb::set_parallel_threshold(1);
  }
  ~ThresholdGuard() { grb::set_parallel_threshold(saved); }
};

struct BudgetGuard {
  size_t saved;
  explicit BudgetGuard(size_t bytes) : saved(grb::spgemm_dense_budget()) {
    grb::set_spgemm_dense_budget(bytes);
  }
  ~BudgetGuard() { grb::set_spgemm_dense_budget(saved); }
};

struct StrategyGuard {
  grb::MxmStrategy saved;
  explicit StrategyGuard(grb::MxmStrategy s) : saved(grb::mxm_strategy()) {
    grb::set_mxm_strategy(s);
  }
  ~StrategyGuard() { grb::set_mxm_strategy(saved); }
};

// Counts the rows each SpGEMM accumulator ran while it is alive.
struct AccumRows {
  AccumRows() {
    EXPECT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
    EXPECT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  }
  ~AccumRows() { EXPECT_EQ(GxB_Stats_enable(0), GrB_SUCCESS); }
  uint64_t read(const char* name) const {
    uint64_t v = 0;
    EXPECT_EQ(GxB_Stats_get(name, &v), GrB_SUCCESS) << name;
    return v;
  }
  uint64_t hash() const { return read("spgemm.rows_hash"); }
  uint64_t dense() const { return read("spgemm.rows_dense"); }
};

// Under any output's dense-SPA footprint, so every row takes the hash
// SPA.  The default budget keeps the small-ncols outputs below under
// the always-dense cap, so every row takes the dense SPA.
constexpr size_t kHashBudget = 64;
constexpr size_t kDefaultBudget = 0;  // set_spgemm_dense_budget(0) resets

struct Leg {
  const char* name;
  size_t budget;
};
constexpr Leg kAccumLegs[] = {{"dense", kDefaultBudget},
                              {"hash", kHashBudget}};

GrB_Context make_ctx(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  cfg.chunk = 4;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_BLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

ref::Mat real_mat(GrB_Index nr, GrB_Index nc, double density,
                  uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return m;
}

ref::Vec real_vec(GrB_Index n, double density, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Vec v(n);
  for (auto& c : v.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return v;
}

ref::Mat mask_mat(GrB_Index nr, GrB_Index nc, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells)
    if (rng.uniform() < 0.3) c = rng.below(2) ? 1.0 : 0.0;
  return m;
}

struct Config {
  bool mask;
  bool structural;
  bool accum;
  bool replace;
};

std::vector<Config> all_configs() {
  return {
      {false, false, false, false},  // plain
      {false, false, true, false},   // accum only
      {true, false, false, false},   // valued mask
      {true, true, false, false},    // structural mask
      {true, true, true, true},      // structural mask + accum + replace
  };
}

GrB_Descriptor desc_for(const Config& c) {
  if (c.replace && c.structural) return GrB_DESC_RS;
  if (c.replace) return GrB_DESC_R;
  if (c.structural) return GrB_DESC_S;
  return GrB_NULL;
}

std::string config_name(const Config& c) {
  std::string s;
  s += c.mask ? (c.structural ? "maskS" : "maskV") : "nomask";
  s += c.accum ? "+accum" : "";
  s += c.replace ? "+replace" : "";
  return s;
}

// A semiring as the library sees it and as the dense oracle computes it.
struct Ring {
  GrB_Semiring semiring;
  ref::BinFn add, mul;
};

const Ring kPlusTimes{GrB_PLUS_TIMES_SEMIRING_FP64, testutil::fn_plus,
                      testutil::fn_times};
const Ring kMinPlus{GrB_MIN_PLUS_SEMIRING_FP64, testutil::fn_min,
                    testutil::fn_plus};

// C<M> (+)= A*B as the dense oracle computes it.
ref::Mat expected_mxm(const Config& cfg, const Ring& ring,
                      const ref::Mat& rc0, const ref::Mat& ra,
                      const ref::Mat& rb, const ref::Mat& rm) {
  ref::Spec spec;
  spec.have_mask = cfg.mask;
  spec.structure = cfg.structural;
  spec.replace = cfg.replace;
  if (cfg.accum) spec.accum = testutil::fn_plus;
  return ref::writeback(rc0, ref::mxm(ra, rb, ring.add, ring.mul),
                        cfg.mask ? &rm : nullptr, spec);
}

// Runs C<M> (+)= A*B with the current engine overrides in an
// nthreads-context and returns C's final contents.
ref::Mat run_mxm(int nthreads, const Config& cfg, GrB_Semiring semiring,
                 const ref::Mat& rc0, const ref::Mat& ra, const ref::Mat& rb,
                 const ref::Mat& rm) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Matrix c = testutil::make_matrix(rc0, ctx);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  GrB_Matrix m = cfg.mask ? testutil::make_matrix(rm, ctx) : nullptr;
  EXPECT_EQ(GrB_mxm(c, m, cfg.accum ? GrB_PLUS_FP64 : GrB_NULL, semiring, a,
                    b, desc_for(cfg)),
            GrB_SUCCESS);
  ref::Mat out = testutil::to_ref(c);
  GrB_free(&c);
  GrB_free(&a);
  GrB_free(&b);
  if (m != nullptr) GrB_free(&m);
  GrB_free(&ctx);
  return out;
}

// Rectangular dims so row/column index mixups cannot cancel out.
constexpr GrB_Index kM = 40, kK = 56, kN = 32;

void sweep_engine(uint64_t seed, const Ring& ring) {
  ThresholdGuard threshold;
  ref::Mat rc0 = real_mat(kM, kN, 0.25, seed + 1);
  ref::Mat ra = real_mat(kM, kK, 0.2, seed + 2);
  ref::Mat rb = real_mat(kK, kN, 0.25, seed + 3);
  ref::Mat rm = mask_mat(kM, kN, seed + 4);

  for (const Config& cfg : all_configs()) {
    const ref::Mat expect = expected_mxm(cfg, ring, rc0, ra, rb, rm);
    for (const Leg& leg : kAccumLegs) {
      BudgetGuard budget(leg.budget);
      AccumRows rows;
      for (int nthreads : {1, 4}) {
        ref::Mat got = run_mxm(nthreads, cfg, ring.semiring, rc0, ra, rb, rm);
        EXPECT_TRUE(testutil::mats_equal(expect, got))
            << config_name(cfg) << " " << leg.name
            << " nthreads=" << nthreads;
      }
      // The leg ran the accumulator it names, and only that one (a
      // structural mask may send the product to the masked dot instead).
      const bool hash = leg.budget == kHashBudget;
      EXPECT_EQ(hash ? rows.dense() : rows.hash(), 0u)
          << config_name(cfg) << " " << leg.name;
      if (!cfg.structural) {
        EXPECT_GT(hash ? rows.hash() : rows.dense(), 0u)
            << config_name(cfg) << " " << leg.name;
      }
    }
  }
}

TEST(SpgemmDiff, PlusTimesAllModes) { sweep_engine(4100, kPlusTimes); }

TEST(SpgemmDiff, MinPlusAllModes) { sweep_engine(4200, kMinPlus); }

// Strategy overrides on a structural-masked multiply: Gustavson (through
// the adaptive engine) and masked-dot must agree with the oracle.  Under
// the hash budget B' is unaffordable, so a pinned masked dot falls back
// to Gustavson.
TEST(SpgemmDiff, StrategyOverrides) {
  ThresholdGuard threshold;
  ref::Mat rc0 = real_mat(kM, kN, 0.25, 4401);
  ref::Mat ra = real_mat(kM, kK, 0.2, 4402);
  ref::Mat rb = real_mat(kK, kN, 0.25, 4403);
  ref::Mat rm = mask_mat(kM, kN, 4404);
  Config cfg{true, true, false, false};
  const ref::Mat expect = expected_mxm(cfg, kPlusTimes, rc0, ra, rb, rm);
  for (grb::MxmStrategy s :
       {grb::MxmStrategy::kAuto, grb::MxmStrategy::kGustavson,
        grb::MxmStrategy::kMaskedDot}) {
    for (const Leg& leg : kAccumLegs) {
      StrategyGuard strat(s);
      BudgetGuard budget(leg.budget);
      for (int nthreads : {1, 4}) {
        ref::Mat got =
            run_mxm(nthreads, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra,
                    rb, rm);
        EXPECT_TRUE(testutil::mats_equal(expect, got))
            << "strategy=" << static_cast<int>(s) << " " << leg.name
            << " nthreads=" << nthreads;
      }
    }
  }
}

// A wide output (ncols past the always-dense footprint) makes the auto
// policy genuinely mix hash and dense rows in one product: most rows are
// sparse, a few heavy rows of A cross the flop threshold.
TEST(SpgemmDiff, AutoMixesAccumulators) {
  ThresholdGuard threshold;
  constexpr GrB_Index kRows = 24, kInner = 48, kWide = 20000;
  ref::Mat rc0(kRows, kWide);
  ref::Mat ra = real_mat(kRows, kInner, 0.15, 4501);
  // Two heavy rows: dense rows of A expand into every row of B.
  for (GrB_Index k = 0; k < kInner; ++k) {
    ra.cells[3 * kInner + k] = 1.5;
    ra.cells[17 * kInner + k] = -0.75;
  }
  ref::Mat rb = real_mat(kInner, kWide, 0.002, 4502);
  ref::Mat rm(kRows, kWide);
  Config cfg{false, false, false, false};
  const ref::Mat expect = expected_mxm(cfg, kPlusTimes, rc0, ra, rb, rm);
  for (const Leg& leg :
       {Leg{"auto", kDefaultBudget}, Leg{"hash", kHashBudget}}) {
    BudgetGuard budget(leg.budget);
    AccumRows rows;
    for (int nthreads : {1, 4}) {
      ref::Mat got =
          run_mxm(nthreads, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra, rb,
                  rm);
      EXPECT_TRUE(testutil::mats_equal(expect, got))
          << leg.name << " nthreads=" << nthreads;
    }
    EXPECT_GT(rows.hash(), 0u) << leg.name;
    if (leg.budget == kHashBudget) {
      EXPECT_EQ(rows.dense(), 0u);
    } else {
      EXPECT_GT(rows.dense(), 0u);
    }
  }
}

// ---- typed runners vs the function-pointer runner --------------------------

void user_plus(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, sizeof a);
  std::memcpy(&b, y, sizeof b);
  double r = a + b;
  std::memcpy(z, &r, sizeof r);
}
void user_times(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, sizeof a);
  std::memcpy(&b, y, sizeof b);
  double r = a * b;
  std::memcpy(z, &r, sizeof r);
}
void user_min(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, sizeof a);
  std::memcpy(&b, y, sizeof b);
  double r = a < b ? a : b;
  std::memcpy(z, &r, sizeof r);
}

// <add, mul> over FP64 from user-defined operators: no opcode, so every
// kernel runs it through the type-erased SemiringRunner.
struct UserRing {
  GrB_BinaryOp add_op = nullptr, mul_op = nullptr;
  GrB_Monoid add = nullptr;
  GrB_Semiring ring = nullptr;

  UserRing(GrB_binary_function add_fn, double identity,
           GrB_binary_function mul_fn) {
    EXPECT_EQ(GrB_BinaryOp_new(&add_op, add_fn, GrB_FP64, GrB_FP64,
                               GrB_FP64),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_BinaryOp_new(&mul_op, mul_fn, GrB_FP64, GrB_FP64,
                               GrB_FP64),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_Monoid_new(&add, add_op, identity), GrB_SUCCESS);
    EXPECT_EQ(GrB_Semiring_new(&ring, add, mul_op), GrB_SUCCESS);
  }
  ~UserRing() {
    GrB_free(&ring);
    GrB_free(&add);
    GrB_free(&add_op);
    GrB_free(&mul_op);
  }
};

// Every kernel entry of the layer, run with one semiring in an
// nthreads-context.  A 1-thread vxm takes the push SPA, a 4-thread one
// the pull dot kernel over A'.
struct KernelOutputs {
  ref::Mat gustavson, masked_dot;
  ref::Vec vxm, mxv_csr, mxv_hyper;
};

KernelOutputs run_kernels(int nthreads, GrB_Semiring ring, const ref::Mat& ra,
                          const ref::Mat& rb, const ref::Mat& rm,
                          const ref::Vec& ru) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  GrB_Matrix m = testutil::make_matrix(rm, ctx);
  GrB_Vector u = testutil::make_vector(ru, ctx);
  KernelOutputs out;

  GrB_Matrix c = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&c, GrB_FP64, kM, kN, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, ring, a, b, GrB_NULL),
            GrB_SUCCESS);
  out.gustavson = testutil::to_ref(c);
  {
    StrategyGuard strat(grb::MxmStrategy::kMaskedDot);
    EXPECT_EQ(GrB_mxm(c, m, GrB_NULL, ring, a, b, GrB_DESC_RS), GrB_SUCCESS);
    out.masked_dot = testutil::to_ref(c);
  }
  GrB_free(&c);

  GrB_Vector w = nullptr;
  EXPECT_EQ(GrB_Vector_new(&w, GrB_FP64, kK, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_vxm(w, GrB_NULL, GrB_NULL, ring, u, a, GrB_NULL),
            GrB_SUCCESS);
  out.vxm = testutil::to_ref(w);
  GrB_free(&w);

  // mxv over A' (kK rows): first as CSR, then pinned hypersparse.
  GrB_Matrix at = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&at, GrB_FP64, kK, kM, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_transpose(at, GrB_NULL, GrB_NULL, a, GrB_NULL), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_new(&w, GrB_FP64, kK, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, ring, at, u, GrB_NULL),
            GrB_SUCCESS);
  out.mxv_csr = testutil::to_ref(w);
  EXPECT_EQ(GxB_Matrix_Option_set(at, GxB_FORMAT, GxB_FORMAT_HYPER),
            GrB_SUCCESS);
  GxB_Format fmt = GxB_FORMAT_AUTO;
  EXPECT_EQ(GxB_Matrix_Option_get(at, GxB_FORMAT, &fmt), GrB_SUCCESS);
  EXPECT_EQ(fmt, GxB_FORMAT_HYPER);
  EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, ring, at, u, GrB_NULL),
            GrB_SUCCESS);
  out.mxv_hyper = testutil::to_ref(w);
  GrB_free(&w);
  GrB_free(&at);

  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&m);
  GrB_free(&u);
  GrB_free(&ctx);
  return out;
}

// Builtin PLUS_TIMES / MIN_PLUS FP64 take the typed runners; the same
// semirings built from user-defined operators take the function-pointer
// runner.  Both must produce the same bits on every kernel entry.
TEST(SpgemmDiff, FastpathMatchesGeneric) {
  ThresholdGuard threshold;
  ref::Mat ra = real_mat(kM, kK, 0.2, 4601);
  // Columns 5..9 of A stay empty, so the hypersparse A' of the mxv legs
  // has empty rows to skip.
  for (GrB_Index i = 0; i < kM; ++i)
    for (GrB_Index k = 5; k < 10; ++k) ra.at(i, k).reset();
  ref::Mat rb = real_mat(kK, kN, 0.25, 4602);
  ref::Mat rm = mask_mat(kM, kN, 4603);
  ref::Vec ru = real_vec(kM, 0.5, 4604);
  UserRing user_plus_times(&user_plus, 0.0, &user_times);
  UserRing user_min_plus(&user_min, INFINITY, &user_plus);
  const std::pair<GrB_Semiring, GrB_Semiring> pairs[] = {
      {GrB_PLUS_TIMES_SEMIRING_FP64, user_plus_times.ring},
      {GrB_MIN_PLUS_SEMIRING_FP64, user_min_plus.ring},
  };
  for (const auto& [builtin, user] : pairs) {
    for (int nthreads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "nthreads=" << nthreads);
      KernelOutputs typed = run_kernels(nthreads, builtin, ra, rb, rm, ru);
      KernelOutputs generic = run_kernels(nthreads, user, ra, rb, rm, ru);
      EXPECT_GT(typed.gustavson.nvals(), 0u);
      EXPECT_GT(typed.masked_dot.nvals(), 0u);
      EXPECT_GT(typed.vxm.nvals(), 0u);
      EXPECT_GT(typed.mxv_hyper.nvals(), 0u);
      EXPECT_TRUE(testutil::mats_equal(typed.gustavson, generic.gustavson));
      EXPECT_TRUE(testutil::mats_equal(typed.masked_dot, generic.masked_dot));
      EXPECT_TRUE(testutil::vecs_equal(typed.vxm, generic.vxm));
      EXPECT_TRUE(testutil::vecs_equal(typed.mxv_csr, generic.mxv_csr));
      EXPECT_TRUE(testutil::vecs_equal(typed.mxv_hyper, generic.mxv_hyper));
      EXPECT_TRUE(testutil::vecs_equal(typed.mxv_csr, typed.mxv_hyper));
    }
  }
}

}  // namespace
