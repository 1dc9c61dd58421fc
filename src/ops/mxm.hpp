// The semiring kernel layer behind mxm, vxm and mxv: the runners that
// carry the semiring's scalar ops into a kernel, the one dispatch that
// picks a runner, and the dot-product kernels.  The row-wise SpGEMM
// accumulators and the adaptive engine live in ops/spgemm.hpp.
#pragma once

#include <cmath>
#include <type_traits>

#include "ops/common.hpp"
#include "ops/op_apply.hpp"
#include "ops/spgemm.hpp"

namespace grb {

// The fusion node of a product into `out`.  A plain replace (no mask, no
// accumulator, no complement) rebuilds `out` from the snapshots without
// reading its old state (a self-input completed at snapshot time), so
// earlier queued writes to it are dead.  Opaque to chain fusion.
inline FuseNode product_node(bool plain) {
  FuseNode node;
  node.reads_out = !plain;
  node.full_replace = plain;
  return node;
}

// Publishes the product T into `out` through the mask/accum write-back.
// Identity write-back: with no mask and no accumulator Z = T replaces
// the output wholesale, so when no cast is needed T itself is published
// and the per-element merged rebuild is skipped.  The kernels emit
// sorted deduplicated rows, so T is already a valid materialized object.
template <class Out, class Data>
void publish_product(Out* out, Context* ctx, std::shared_ptr<Data> t,
                     const Data* mask, const WritebackSpec& spec) {
  auto old = out->current_canonical();
  if (mask == nullptr && spec.accum == nullptr && t->type == old->type) {
    if (obs::stats_enabled()) obs::add_scalars(t->nvals());
    out->publish(std::move(t));
  } else if constexpr (std::is_same_v<Data, VectorData>) {
    out->publish(writeback_vector(ctx, *old, *t, mask, spec));
  } else {
    out->publish(writeback_matrix(ctx, *old, *t, mask, spec));
  }
}

// Generic semiring runner over type-erased values: multiply casts the
// stored x/y values into the multiplier's domains, add folds a ztype
// product into a ztype accumulator with the monoid.  This is the
// "function-pointer call per scalar operation" path the paper's §II
// motivation describes; TypedRunner below replaces it for hot (semiring,
// type) pairs.
class SemiringRunner {
 public:
  SemiringRunner(const Semiring* s, const Type* xtype, const Type* ytype)
      : mul_(s->mul(), xtype, ytype),
        add_(s->add()->op(), s->mul()->ztype(), s->mul()->ztype()) {}

  // z (mul ztype) = x * y
  void mul(void* z, const void* x, const void* y) { mul_.run(z, x, y); }
  // acc = acc (+) z, both in mul ztype
  void add(void* acc, const void* z) { add_.run(acc, acc, z); }

 private:
  BinRunner mul_;
  BinRunner add_;
};

// The typed functors compute exactly what the builtin binary ops of
// core/binary_op.cpp do, so a semiring's answer does not depend on
// whether it takes a typed runner: integer Plus/Times wrap through the
// unsigned type (signed overflow would be UB), floating Min/Max are
// fmin/fmax (a NaN operand yields the other operand).
namespace semiring_ops {

template <class T>
struct Times {
  T operator()(T a, T b) const {
    if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
    } else {
      return a * b;
    }
  }
};
template <class T>
struct Plus {
  T operator()(T a, T b) const {
    if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
    } else {
      return a + b;
    }
  }
};
template <class T>
struct Second {
  T operator()(T, T b) const { return b; }
};
template <class T>
struct First {
  T operator()(T a, T) const { return a; }
};
template <class T>
struct Land {
  T operator()(T a, T b) const { return a && b; }
};
template <class T>
struct Min {
  T operator()(T a, T b) const {
    if constexpr (std::is_floating_point_v<T>) return std::fmin(a, b);
    else return a < b ? a : b;
  }
};
template <class T>
struct Max {
  T operator()(T a, T b) const {
    if constexpr (std::is_floating_point_v<T>) return std::fmax(a, b);
    else return a > b ? a : b;
  }
};
template <class T>
struct Lor {
  T operator()(T a, T b) const { return a || b; }
};

}  // namespace semiring_ops

// Statically typed runner: the same mul/add interface as SemiringRunner
// with the arithmetic inlined into the kernel body.
template <class T, class Mul, class Add>
class TypedRunner {
 public:
  void mul(void* z, const void* x, const void* y) {
    T a, b;
    std::memcpy(&a, x, sizeof(T));
    std::memcpy(&b, y, sizeof(T));
    T r = Mul()(a, b);
    std::memcpy(z, &r, sizeof(T));
  }
  void add(void* acc, const void* z) {
    T a, b;
    std::memcpy(&a, acc, sizeof(T));
    std::memcpy(&b, z, sizeof(T));
    T r = Add()(a, b);
    std::memcpy(acc, &r, sizeof(T));
  }
};

// True when the semiring is exactly <add, mul> over T with no casts.
template <class T>
bool semiring_is(const Semiring* s, BinOpCode add, BinOpCode mul,
                 const Type* xtype, const Type* ytype) {
  const Type* t = type_of<T>();
  return s->add()->op()->opcode() == add && s->mul()->opcode() == mul &&
         s->mul()->ztype() == t && s->mul()->xtype() == t &&
         s->mul()->ytype() == t && xtype == t && ytype == t;
}

// Calls f once with the runner for semiring s over stored x/y operands
// of types xtype/ytype: a TypedRunner when (add, mul, T) is one of the
// hot builtin combinations below, a SemiringRunner otherwise.  Each
// kernel f reaches is instantiated once per combination plus once
// generically, in the calling translation unit.
template <class F>
auto with_semiring_runner(const Semiring* s, const Type* xtype,
                          const Type* ytype, F&& f) {
  using namespace semiring_ops;
#define GRB_TRY_COMBO(T, ADDC, MULC, ADDF, MULF)                        \
  if (semiring_is<T>(s, BinOpCode::ADDC, BinOpCode::MULC, xtype, ytype)) \
    return f(TypedRunner<T, MULF<T>, ADDF<T>>{});
  GRB_TRY_COMBO(double, kPlus, kTimes, Plus, Times)
  GRB_TRY_COMBO(float, kPlus, kTimes, Plus, Times)
  GRB_TRY_COMBO(int64_t, kPlus, kTimes, Plus, Times)
  GRB_TRY_COMBO(int32_t, kPlus, kTimes, Plus, Times)
  GRB_TRY_COMBO(uint64_t, kPlus, kTimes, Plus, Times)
  GRB_TRY_COMBO(double, kMin, kPlus, Min, Plus)
  GRB_TRY_COMBO(int64_t, kMin, kPlus, Min, Plus)
  GRB_TRY_COMBO(int32_t, kMin, kPlus, Min, Plus)
  GRB_TRY_COMBO(double, kMax, kPlus, Max, Plus)
  GRB_TRY_COMBO(int64_t, kMax, kPlus, Max, Plus)
  GRB_TRY_COMBO(double, kMin, kSecond, Min, Second)
  GRB_TRY_COMBO(double, kMin, kFirst, Min, First)
  GRB_TRY_COMBO(double, kPlus, kSecond, Plus, Second)
  GRB_TRY_COMBO(bool, kLor, kLand, Lor, Land)
#undef GRB_TRY_COMBO
  return f(SemiringRunner(s, xtype, ytype));
}

// Two-pass dot-product kernel behind mxv (A*u) and the parallel vxm
// (u^T*A, run over the rows of A').  Output entry r folds the products
// of row r of `a` with u in ascending column order; over A' that is the
// ascending row order the serial SPA accumulates in, which makes the
// two vxm paths bitwise-identical even for non-associative
// floating-point rounding.  kVecFirst says whether mul takes u's value
// as its x operand (vxm) or as its y (mxv).  `rows`, when given, is the
// row-id list of a hypersparse `a` (a.hrow; ptr is compacted to one
// entry per listed row), so only its nonempty rows are visited, in
// ascending id; otherwise row positions are row ids.  u is probed
// through the budget-gated VecProbe (dense gather when affordable,
// binary search for hypersparse dimensions).
template <bool kVecFirst, class Runner>
std::shared_ptr<VectorData> dot_kernel(Context* ctx, const MatrixData& a,
                                       const Index* rows,
                                       const VectorData& u,
                                       const Type* ztype,
                                       const Runner& proto) {
  auto t = std::make_shared<VectorData>(ztype, a.nrows);
  size_t zsize = ztype->size();
  const Index nr = a.ptr.size() - 1;  // stored rows
  VecProbe probe;
  probe.init(u);
  // Structural pass: does stored row r hit any entry of u?
  std::vector<uint8_t> hit(nr, 0);
  ctx->parallel_for(0, nr, [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      for (size_t ka = a.ptr[r]; ka < a.ptr[r + 1]; ++ka) {
        if (probe.find(a.col[ka]) != nullptr) {
          hit[r] = 1;
          break;
        }
      }
    }
  });
  std::vector<Index> slot(nr + 1, 0);
  for (Index r = 0; r < nr; ++r) slot[r + 1] = slot[r] + hit[r];
  t->ind.resize(slot[nr]);
  t->vals.resize(slot[nr]);
  ctx->parallel_for(0, nr, [&](Index lo, Index hi) {
    Runner runner = proto;
    auto mul = [&runner](void* z, const void* aval, const void* uval) {
      if constexpr (kVecFirst) {
        runner.mul(z, uval, aval);
      } else {
        runner.mul(z, aval, uval);
      }
    };
    ValueBuf acc(zsize), prod(zsize);
    for (Index r = lo; r < hi; ++r) {
      if (!hit[r]) continue;
      bool first = true;
      for (size_t ka = a.ptr[r]; ka < a.ptr[r + 1]; ++ka) {
        const void* uval = probe.find(a.col[ka]);
        if (uval == nullptr) continue;
        if (first) {
          mul(acc.data(), a.vals.at(ka), uval);
          first = false;
        } else {
          mul(prod.data(), a.vals.at(ka), uval);
          runner.add(acc.data(), prod.data());
        }
      }
      Index s = slot[r];
      t->ind[s] = rows != nullptr ? rows[r] : r;
      t->vals.set(s, acc.data());
    }
  });
  return t;
}

// Masked dot-product SpGEMM: computes T only at the structural-mask
// positions, C(i,j) = A(i,:) . B(:,j), via sorted-intersection merges of
// A's row i and B'(j,:).  This is the kernel masked multiplies like
// triangle counting want: work is O(nnz(M) * avg-row) instead of the
// full Gustavson expansion.  `bt` is B transposed (CSR of B').
template <class Runner>
std::shared_ptr<MatrixData> mxm_masked_dot_kernel(Context* ctx,
                                                  const MatrixData& a,
                                                  const MatrixData& bt,
                                                  const MatrixData& mask,
                                                  const Type* ztype,
                                                  const Runner& proto) {
  auto t = std::make_shared<MatrixData>(ztype, a.nrows, bt.nrows);
  Index nrows = a.nrows;
  size_t zsize = ztype->size();

  // Pass 1: which mask positions have a nonempty intersection?
  std::vector<Index> counts(nrows, 0);
  auto intersects = [&](Index i, Index j) {
    size_t ka = a.ptr[i], ea = a.ptr[i + 1];
    size_t kb = bt.ptr[j], eb = bt.ptr[j + 1];
    while (ka < ea && kb < eb) {
      if (a.col[ka] == bt.col[kb]) return true;
      if (a.col[ka] < bt.col[kb]) {
        ++ka;
      } else {
        ++kb;
      }
    }
    return false;
  };
  ctx->parallel_for(0, nrows, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      Index n = 0;
      if (i < mask.nrows) {
        for (size_t km = mask.ptr[i]; km < mask.ptr[i + 1]; ++km) {
          Index j = mask.col[km];
          if (j < bt.nrows && intersects(i, j)) ++n;
        }
      }
      counts[i] = n;
    }
  });
  for (Index i = 0; i < nrows; ++i) t->ptr[i + 1] = t->ptr[i] + counts[i];
  t->col.resize(t->ptr[nrows]);
  t->vals.resize(t->ptr[nrows]);

  // Pass 2: dot products straight into place.
  ctx->parallel_for(0, nrows, [&](Index lo, Index hi) {
    Runner runner = proto;
    ValueBuf acc(zsize), prod(zsize);
    for (Index i = lo; i < hi; ++i) {
      if (i >= mask.nrows) continue;
      size_t w = t->ptr[i];
      for (size_t km = mask.ptr[i]; km < mask.ptr[i + 1]; ++km) {
        Index j = mask.col[km];
        if (j >= bt.nrows) continue;
        size_t ka = a.ptr[i], ea = a.ptr[i + 1];
        size_t kb = bt.ptr[j], eb = bt.ptr[j + 1];
        bool first = true;
        while (ka < ea && kb < eb) {
          if (a.col[ka] == bt.col[kb]) {
            if (first) {
              runner.mul(acc.data(), a.vals.at(ka), bt.vals.at(kb));
              first = false;
            } else {
              runner.mul(prod.data(), a.vals.at(ka), bt.vals.at(kb));
              runner.add(acc.data(), prod.data());
            }
            ++ka;
            ++kb;
          } else if (a.col[ka] < bt.col[kb]) {
            ++ka;
          } else {
            ++kb;
          }
        }
        if (!first) {
          t->col[w] = j;
          std::memcpy(t->vals.at(w), acc.data(), zsize);
          ++w;
        }
      }
    }
  });
  return t;
}

}  // namespace grb
