// Experiment M2 (Motivation §II): "a function pointer call required for
// each scalar operation" is a real performance penalty.  The same
// kernels run a builtin semiring, which the kernel layer dispatches to a
// statically typed runner, and the same semiring built from
// user-defined operators, which can only ever take the function-pointer
// runner — why 2.0 adds predefined index ops instead of making users
// write unpacking operators.
#include <cmath>
#include <cstring>

#include "bench/bench_util.hpp"

namespace {

void user_plus(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, 8);
  std::memcpy(&b, y, 8);
  double r = a + b;
  std::memcpy(z, &r, 8);
}
void user_times(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, 8);
  std::memcpy(&b, y, 8);
  double r = a * b;
  std::memcpy(z, &r, 8);
}
void user_min(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, 8);
  std::memcpy(&b, y, 8);
  double r = a < b ? a : b;
  std::memcpy(z, &r, 8);
}

// The builtin semiring, or <add, mul> over FP64 from user-defined ops.
class Ring {
 public:
  Ring(bool typed, GrB_Semiring builtin, GrB_binary_function add_fn,
       double identity, GrB_binary_function mul_fn) {
    if (typed) {
      ring_ = builtin;
      return;
    }
    BENCH_TRY(GrB_BinaryOp_new(&add_op_, add_fn, GrB_FP64, GrB_FP64,
                               GrB_FP64));
    BENCH_TRY(GrB_BinaryOp_new(&mul_op_, mul_fn, GrB_FP64, GrB_FP64,
                               GrB_FP64));
    BENCH_TRY(GrB_Monoid_new(&add_, add_op_, identity));
    BENCH_TRY(GrB_Semiring_new(&user_, add_, mul_op_));
    ring_ = user_;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    if (user_ == nullptr) return;
    GrB_free(&user_);
    GrB_free(&add_);
    GrB_free(&add_op_);
    GrB_free(&mul_op_);
  }
  GrB_Semiring get() const { return ring_; }

 private:
  GrB_Semiring ring_ = nullptr;
  GrB_BinaryOp add_op_ = nullptr, mul_op_ = nullptr;
  GrB_Monoid add_ = nullptr;
  GrB_Semiring user_ = nullptr;
};

Ring plus_times(bool typed) {
  return Ring(typed, GrB_PLUS_TIMES_SEMIRING_FP64, &user_plus, 0.0,
              &user_times);
}

void run_mxm(benchmark::State& state, bool typed) {
  Ring ring = plus_times(typed);
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, GrB_FP64, n, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, GrB_NULL, GrB_NULL, ring.get(), a, a, GrB_NULL));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  state.counters["typed"] = typed ? 1 : 0;
  GrB_free(&a);
  GrB_free(&c);
}

void BM_Mxm_TypedRunner(benchmark::State& state) { run_mxm(state, true); }
void BM_Mxm_FunctionPointerPath(benchmark::State& state) {
  run_mxm(state, false);
}
BENCHMARK(BM_Mxm_TypedRunner)->Arg(10)->Arg(12)->Arg(14);
BENCHMARK(BM_Mxm_FunctionPointerPath)->Arg(10)->Arg(12)->Arg(14);

void run_mxv(benchmark::State& state, bool typed) {
  Ring ring = plus_times(typed);
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Vector u = benchutil::dense_vector(n, 3);
  GrB_Vector w = nullptr;
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxv(w, GrB_NULL, GrB_NULL, ring.get(), a, u, GrB_NULL));
    BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  state.counters["typed"] = typed ? 1 : 0;
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

void BM_Mxv_TypedRunner(benchmark::State& state) { run_mxv(state, true); }
void BM_Mxv_FunctionPointerPath(benchmark::State& state) {
  run_mxv(state, false);
}
BENCHMARK(BM_Mxv_TypedRunner)->Arg(12)->Arg(15)->Arg(17);
BENCHMARK(BM_Mxv_FunctionPointerPath)->Arg(12)->Arg(15)->Arg(17);

void run_vxm(benchmark::State& state, bool typed) {
  Ring ring(typed, GrB_MIN_PLUS_SEMIRING_FP64, &user_min, INFINITY,
            &user_plus);
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Vector u = benchutil::sparse_vector(n, n / 16, 4);
  GrB_Vector w = nullptr;
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_vxm(w, GrB_NULL, GrB_NULL, ring.get(), u, a, GrB_NULL));
    BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * (nnz / 16));
  state.counters["typed"] = typed ? 1 : 0;
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

void BM_Vxm_TypedRunner(benchmark::State& state) { run_vxm(state, true); }
void BM_Vxm_FunctionPointerPath(benchmark::State& state) {
  run_vxm(state, false);
}
BENCHMARK(BM_Vxm_TypedRunner)->Arg(12)->Arg(15)->Arg(17);
BENCHMARK(BM_Vxm_FunctionPointerPath)->Arg(12)->Arg(15)->Arg(17);

}  // namespace

GRB_BENCH_MAIN()
