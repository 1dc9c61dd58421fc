// Experiment M5 (ablation, DESIGN.md): the adaptive SpGEMM engine's
// accumulator choice on three workload shapes, each run under the
// default dense budget (auto per-row choice) and, where it differs,
// under a budget too small for any dense SPA (every row on the hash
// accumulator):
//
//   Uniform      — square ER-like squaring, modest ncols: every row's
//                  flop count justifies the dense accumulator, so this
//                  guards the "auto must not regress the easy case"
//                  bound.
//   Skewed       — A has R-MAT power-law out-degrees (per-row flop
//                  counts vary by orders of magnitude), B is sparse and
//                  wide (2^23 columns): heavy rows may justify the dense
//                  SPA, light ones get a hash accumulator sized by their
//                  flop estimate.
//   Hypersparse  — ncols = 2^24 with ~50K entries in B (ncols >> nvals):
//                  a per-call O(ncols) scratch (~150 MB, zeroed) would
//                  dwarf the real work; the byte budget pushes every row
//                  onto the hash path, so there is only the auto leg.
//
// A² on power-law graphs is deliberately absent from the skewed leg:
// its output fill-in (~60M entries at scale 15) makes writeback dominate
// every leg equally, hiding the accumulator ablation this experiment
// exists to measure.  The small budget of the hash legs also keeps the
// output out of bitmap and dense storage.  BENCH_m5_spgemm_adaptive.json
// captures the ablation; tools/bench_compare.py diffs two runs.
#include "bench/bench_util.hpp"

#include "ops/spgemm.hpp"

namespace {

// Dense budget of the hash legs: under any output's dense footprint.
constexpr size_t kHashBudget = 64;

struct BudgetGuard {
  explicit BudgetGuard(size_t bytes) { grb::set_spgemm_dense_budget(bytes); }
  ~BudgetGuard() { grb::set_spgemm_dense_budget(0); }  // the default
};

// n x n with exactly entries_per_row uniform-random columns per row.
GrB_Matrix uniform_matrix(GrB_Index nrows, GrB_Index ncols,
                          GrB_Index entries_per_row, uint64_t seed) {
  grb::Prng rng(seed);
  GrB_Matrix a = nullptr;
  BENCH_TRY(GrB_Matrix_new(&a, GrB_FP64, nrows, ncols));
  for (GrB_Index i = 0; i < nrows; ++i)
    for (GrB_Index e = 0; e < entries_per_row; ++e)
      BENCH_TRY(GrB_Matrix_setElement(a, rng.uniform() + 0.5, i,
                                      rng.below(ncols)));
  BENCH_TRY(GrB_wait(a, GrB_MATERIALIZE));
  return a;
}

GrB_Matrix scatter_matrix(GrB_Index nrows, GrB_Index ncols, GrB_Index nnz,
                          uint64_t seed) {
  grb::Prng rng(seed);
  GrB_Matrix a = nullptr;
  BENCH_TRY(GrB_Matrix_new(&a, GrB_FP64, nrows, ncols));
  for (GrB_Index e = 0; e < nnz; ++e)
    BENCH_TRY(GrB_Matrix_setElement(a, rng.uniform() + 0.5,
                                    rng.below(nrows), rng.below(ncols)));
  BENCH_TRY(GrB_wait(a, GrB_MATERIALIZE));
  return a;
}

// budget 0 = the default budget (the auto legs).
void run_product(benchmark::State& state, GrB_Matrix a, GrB_Matrix b,
                 size_t budget) {
  BudgetGuard guard(budget);
  GrB_Index nrows, ncols, flops_proxy;
  BENCH_TRY(GrB_Matrix_nrows(&nrows, a));
  BENCH_TRY(GrB_Matrix_ncols(&ncols, b));
  BENCH_TRY(GrB_Matrix_nvals(&flops_proxy, a));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, GrB_FP64, nrows, ncols));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, b, GrB_DESC_R));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * flops_proxy);
  GrB_free(&c);
}

// --- Uniform: 2048 x 2048 squaring, 16 entries/row; footprint under the
// always-dense cap, so auto keeps every row on the dense accumulator. --

GrB_Matrix uniform_input() {
  static GrB_Matrix a = uniform_matrix(2048, 2048, 16, 501);
  return a;
}

void BM_Uniform_Hash(benchmark::State& state) {
  run_product(state, uniform_input(), uniform_input(), kHashBudget);
}
void BM_Uniform_Auto(benchmark::State& state) {
  run_product(state, uniform_input(), uniform_input(), 0);
}
BENCHMARK(BM_Uniform_Hash)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Uniform_Auto)->Unit(benchmark::kMillisecond);

// --- Skewed: power-law row weights (R-MAT scale 15, edge factor 8)
// against a sparse 32768 x 2^23 operand.  Per-row flop counts span
// orders of magnitude while the output dimension prices a dense SPA at
// ~80 MB; the adaptive engine sizes hash accumulators by each row's flop
// estimate instead. -------------------------------------------------------

GrB_Matrix skewed_a() {
  static GrB_Matrix a = benchutil::rmat(15, 8);
  return a;
}
GrB_Matrix skewed_b() {
  static GrB_Matrix b =
      uniform_matrix(32768, GrB_Index(1) << 23, 2, 503);
  return b;
}

void BM_Skewed_Hash(benchmark::State& state) {
  run_product(state, skewed_a(), skewed_b(), kHashBudget);
}
void BM_Skewed_Auto(benchmark::State& state) {
  run_product(state, skewed_a(), skewed_b(), 0);
}
BENCHMARK(BM_Skewed_Hash)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Skewed_Auto)->Unit(benchmark::kMillisecond);

// --- Hypersparse: 4096 x 2^24 output, ~50K entries in B.  The dense
// budget rejects the ~150 MB SPA outright; hash rows are sized by their
// actual flop counts. ---------------------------------------------------

GrB_Matrix hyper_a() {
  static GrB_Matrix a = uniform_matrix(4096, 4096, 16, 504);
  return a;
}
GrB_Matrix hyper_b() {
  static GrB_Matrix b =
      scatter_matrix(4096, GrB_Index(1) << 24, 50000, 505);
  return b;
}

void BM_Hypersparse_Auto(benchmark::State& state) {
  run_product(state, hyper_a(), hyper_b(), 0);
}
BENCHMARK(BM_Hypersparse_Auto)->Unit(benchmark::kMillisecond);

}  // namespace

GRB_BENCH_MAIN()
