// Hypersparse-dimension regression tests for the adaptive SpGEMM engine.
//
// The seed kernels allocated O(ncols) dense scratch unconditionally, so
// a multiply whose output dimension is 2^40 aborted on allocation.  The
// adaptive engine caps dense scratch by a byte budget and falls back to
// hash accumulators / binary-search probes, so these products must now
// succeed in memory proportional to the actual nonzeros.  Values are
// small integers, making every expected sum exact regardless of fold
// order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "ops/spgemm.hpp"
#include "util/prng.hpp"

namespace {

constexpr GrB_Index kHuge = GrB_Index(1) << 40;

struct BudgetGuard {
  size_t saved_budget;
  BudgetGuard() : saved_budget(grb::spgemm_dense_budget()) {
    grb::set_spgemm_dense_budget(64u << 20);
  }
  ~BudgetGuard() { grb::set_spgemm_dense_budget(saved_budget); }
};

struct Coo {
  std::vector<GrB_Index> rows, cols;
  std::vector<double> vals;
  std::map<std::pair<GrB_Index, GrB_Index>, double> map;

  void add(GrB_Index i, GrB_Index j, double v) {
    auto [it, fresh] = map.emplace(std::make_pair(i, j), v);
    if (!fresh) return;  // keep positions unique; no dup handling needed
    rows.push_back(i);
    cols.push_back(j);
    vals.push_back(v);
  }
};

GrB_Matrix build_matrix(GrB_Index nr, GrB_Index nc, const Coo& coo) {
  GrB_Matrix m = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&m, GrB_FP64, nr, nc), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_build(m, coo.rows.data(), coo.cols.data(),
                             coo.vals.data(), coo.vals.size(),
                             GrB_PLUS_FP64),
            GrB_SUCCESS);
  return m;
}

TEST(SpgemmHypersparse, MxmHugeNcols) {
  BudgetGuard guard;
  const GrB_Index nrows = GrB_Index(1) << 20;
  const GrB_Index inner = 64;
  grb::Prng rng(9001);

  Coo a;  // 2^20 x 64, ~2000 entries
  for (int e = 0; e < 2000; ++e)
    a.add(rng.below(nrows), rng.below(inner),
          static_cast<double>(1 + rng.below(5)));
  Coo b;  // 64 x 2^40, ~512 entries scattered over the huge dimension
  for (int e = 0; e < 512; ++e)
    b.add(rng.below(inner), rng.below(kHuge),
          static_cast<double>(1 + rng.below(5)));

  GrB_Matrix A = build_matrix(nrows, inner, a);
  GrB_Matrix B = build_matrix(inner, kHuge, b);
  GrB_Matrix C = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&C, GrB_FP64, nrows, kHuge), GrB_SUCCESS);

  // The seed dense-SPA kernel would attempt an O(2^40) allocation here.
  ASSERT_EQ(GrB_mxm(C, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, A,
                    B, GrB_NULL),
            GrB_SUCCESS);

  std::map<std::pair<GrB_Index, GrB_Index>, double> expect;
  for (const auto& [aij, av] : a.map)
    for (const auto& [bkj, bv] : b.map)
      if (aij.second == bkj.first)
        expect[{aij.first, bkj.second}] += av * bv;

  GrB_Index nvals = 0;
  ASSERT_EQ(GrB_Matrix_nvals(&nvals, C), GrB_SUCCESS);
  EXPECT_EQ(nvals, expect.size());
  for (const auto& [pos, v] : expect) {
    double got = 0;
    ASSERT_EQ(GrB_Matrix_extractElement(&got, C, pos.first, pos.second),
              GrB_SUCCESS)
        << "missing (" << pos.first << "," << pos.second << ")";
    EXPECT_EQ(got, v);
  }

  GrB_free(&A);
  GrB_free(&B);
  GrB_free(&C);
}

TEST(SpgemmHypersparse, VxmHugeOutputDim) {
  BudgetGuard guard;
  const GrB_Index inner = 64;
  grb::Prng rng(9002);

  Coo a;  // 64 x 2^40
  for (int e = 0; e < 300; ++e)
    a.add(rng.below(inner), rng.below(kHuge),
          static_cast<double>(1 + rng.below(5)));
  GrB_Matrix A = build_matrix(inner, kHuge, a);

  GrB_Vector u = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, inner), GrB_SUCCESS);
  std::map<GrB_Index, double> uvals;
  for (int e = 0; e < 40; ++e) uvals[rng.below(inner)] = 2.0;
  for (const auto& [i, v] : uvals)
    ASSERT_EQ(GrB_Vector_setElement(u, v, i), GrB_SUCCESS);

  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, kHuge), GrB_SUCCESS);
  ASSERT_EQ(GrB_vxm(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, u,
                    A, GrB_NULL),
            GrB_SUCCESS);

  std::map<GrB_Index, double> expect;
  for (const auto& [aij, av] : a.map) {
    auto it = uvals.find(aij.first);
    if (it != uvals.end()) expect[aij.second] += it->second * av;
  }
  GrB_Index nvals = 0;
  ASSERT_EQ(GrB_Vector_nvals(&nvals, w), GrB_SUCCESS);
  EXPECT_EQ(nvals, expect.size());
  for (const auto& [j, v] : expect) {
    double got = 0;
    ASSERT_EQ(GrB_Vector_extractElement(&got, w, j), GrB_SUCCESS);
    EXPECT_EQ(got, v);
  }

  GrB_free(&A);
  GrB_free(&u);
  GrB_free(&w);
}

TEST(SpgemmHypersparse, MxvHugeInputDim) {
  BudgetGuard guard;
  const GrB_Index nrows = 128;
  grb::Prng rng(9003);

  Coo a;  // 128 x 2^40
  for (int e = 0; e < 300; ++e)
    a.add(rng.below(nrows), rng.below(kHuge),
          static_cast<double>(1 + rng.below(5)));

  // Half of u's entries land on columns A actually stores, so the probe
  // exercises both hits and misses.
  std::map<GrB_Index, double> uvals;
  {
    int e = 0;
    for (const auto& [aij, av] : a.map) {
      if (++e % 2 == 0) uvals[aij.second] = 3.0;
    }
    for (int extra = 0; extra < 50; ++extra)
      uvals[rng.below(kHuge)] = 1.0;
  }
  GrB_Matrix A = build_matrix(nrows, kHuge, a);
  GrB_Vector u = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, kHuge), GrB_SUCCESS);
  for (const auto& [j, v] : uvals)
    ASSERT_EQ(GrB_Vector_setElement(u, v, j), GrB_SUCCESS);

  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, nrows), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, A,
                    u, GrB_NULL),
            GrB_SUCCESS);

  std::map<GrB_Index, double> expect;
  for (const auto& [aij, av] : a.map) {
    auto it = uvals.find(aij.second);
    if (it != uvals.end()) expect[aij.first] += av * it->second;
  }
  GrB_Index nvals = 0;
  ASSERT_EQ(GrB_Vector_nvals(&nvals, w), GrB_SUCCESS);
  EXPECT_EQ(nvals, expect.size());
  for (const auto& [i, v] : expect) {
    double got = 0;
    ASSERT_EQ(GrB_Vector_extractElement(&got, w, i), GrB_SUCCESS);
    EXPECT_EQ(got, v);
  }

  GrB_free(&A);
  GrB_free(&u);
  GrB_free(&w);
}

}  // namespace
