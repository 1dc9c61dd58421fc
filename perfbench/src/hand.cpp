#include "hand.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

Tuples rmat_tuples(int scale, uint64_t edge_factor, uint64_t seed,
                   bool symmetrize, bool drop_self_loops) {
  const double a = 0.57, b = 0.19, c = 0.19;
  Tuples t;
  t.n = uint64_t{1} << scale;
  uint64_t draws = edge_factor * t.n;
  t.rows.reserve(symmetrize ? 2 * draws : draws);
  t.cols.reserve(symmetrize ? 2 * draws : draws);
  Rng rng(seed);
  for (uint64_t e = 0; e < draws; ++e) {
    uint64_t i = 0, j = 0;
    for (int bit = 0; bit < scale; ++bit) {
      double r = rng.uniform();
      int q = r < a ? 0 : r < a + b ? 1 : r < a + b + c ? 2 : 3;
      i = (i << 1) | static_cast<uint64_t>(q >> 1);
      j = (j << 1) | static_cast<uint64_t>(q & 1);
    }
    if (drop_self_loops && i == j) continue;
    t.rows.push_back(i);
    t.cols.push_back(j);
    if (symmetrize) {
      t.rows.push_back(j);
      t.cols.push_back(i);
    }
  }
  return t;
}

Csr csr_from_tuples(const Tuples& t) {
  Csr a;
  a.n = t.n;
  a.ptr.assign(t.n + 1, 0);
  for (uint64_t r : t.rows) ++a.ptr[r + 1];
  for (uint64_t i = 0; i < t.n; ++i) a.ptr[i + 1] += a.ptr[i];
  std::vector<uint64_t> idx(t.rows.size());
  std::vector<uint64_t> fill(a.ptr.begin(), a.ptr.end() - 1);
  for (size_t e = 0; e < t.rows.size(); ++e) idx[fill[t.rows[e]]++] = t.cols[e];
  // Sort and deduplicate each row, compacting in place.
  uint64_t out = 0;
  for (uint64_t i = 0; i < t.n; ++i) {
    auto first = idx.begin() + static_cast<std::ptrdiff_t>(a.ptr[i]);
    auto last = idx.begin() + static_cast<std::ptrdiff_t>(a.ptr[i + 1]);
    std::sort(first, last);
    last = std::unique(first, last);
    a.ptr[i] = out;
    for (auto it = first; it != last; ++it) idx[out++] = *it;
  }
  a.ptr[t.n] = out;
  idx.resize(out);
  a.idx = std::move(idx);
  return a;
}

Csr transpose(const Csr& a) {
  Csr t;
  t.n = a.n;
  t.ptr.assign(a.n + 1, 0);
  for (uint64_t j : a.idx) ++t.ptr[j + 1];
  for (uint64_t i = 0; i < a.n; ++i) t.ptr[i + 1] += t.ptr[i];
  t.idx.resize(a.idx.size());
  std::vector<uint64_t> fill(t.ptr.begin(), t.ptr.end() - 1);
  for (uint64_t i = 0; i < a.n; ++i) {
    for (uint64_t k = a.ptr[i]; k < a.ptr[i + 1]; ++k) t.idx[fill[a.idx[k]]++] = i;
  }
  return t;
}

std::vector<uint64_t> out_degrees(const Csr& a) {
  std::vector<uint64_t> d(a.n);
  for (uint64_t i = 0; i < a.n; ++i) d[i] = a.ptr[i + 1] - a.ptr[i];
  return d;
}

void hand_pagerank(const Csr& at, const std::vector<uint64_t>& outdeg,
                   double damping, int iters, std::vector<double>* rank) {
  const uint64_t n = at.n;
  const double dn = static_cast<double>(n);
  std::vector<double>& r = *rank;
  r.assign(n, 1.0 / dn);
  std::vector<double> scaled(n);
  for (int it = 0; it < iters; ++it) {
    double dangling = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      if (outdeg[i] == 0) {
        dangling += r[i];
        scaled[i] = 0.0;
      } else {
        scaled[i] = r[i] / static_cast<double>(outdeg[i]);
      }
    }
    const double base = (1.0 - damping) / dn + damping * dangling / dn;
    for (uint64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (uint64_t k = at.ptr[j]; k < at.ptr[j + 1]; ++k) sum += scaled[at.idx[k]];
      r[j] = base + damping * sum;
    }
  }
}

uint64_t hand_triangles(const Csr& a) {
  // lower_end[i] = end of the strict-lower prefix of row i.
  std::vector<uint64_t> lower_end(a.n);
  for (uint64_t i = 0; i < a.n; ++i) {
    const uint64_t* row = a.idx.data() + a.ptr[i];
    const uint64_t len = a.ptr[i + 1] - a.ptr[i];
    lower_end[i] = a.ptr[i] + static_cast<uint64_t>(
                                  std::lower_bound(row, row + len, i) - row);
  }
  uint64_t count = 0;
  for (uint64_t i = 0; i < a.n; ++i) {
    for (uint64_t k = a.ptr[i]; k < lower_end[i]; ++k) {
      uint64_t j = a.idx[k];
      uint64_t p = a.ptr[i], pe = lower_end[i];
      uint64_t q = a.ptr[j], qe = lower_end[j];
      while (p < pe && q < qe) {
        uint64_t x = a.idx[p], y = a.idx[q];
        count += x == y;
        p += x <= y;
        q += y <= x;
      }
    }
  }
  return count;
}

void hand_bfs(const Csr& a, uint64_t src, std::vector<int32_t>* level,
              std::vector<uint64_t>* queue) {
  std::vector<int32_t>& lv = *level;
  std::vector<uint64_t>& q = *queue;
  lv.assign(a.n, -1);
  q.resize(a.n);
  uint64_t head = 0, tail = 0;
  lv[src] = 0;
  q[tail++] = src;
  while (head < tail) {
    uint64_t u = q[head++];
    for (uint64_t k = a.ptr[u]; k < a.ptr[u + 1]; ++k) {
      uint64_t v = a.idx[k];
      if (lv[v] < 0) {
        lv[v] = lv[u] + 1;
        q[tail++] = v;
      }
    }
  }
}

bool pagerank_ok(const std::vector<uint64_t>& idx,
                 const std::vector<double>& val,
                 const std::vector<double>& expect, double tol) {
  if (idx.size() != expect.size() || val.size() != expect.size()) return false;
  double l1 = 0.0;
  for (size_t k = 0; k < idx.size(); ++k) {
    if (idx[k] >= expect.size()) return false;
    l1 += std::fabs(val[k] - expect[idx[k]]);
  }
  return l1 <= tol;  // false for NaN as well
}

bool bfs_ok(const std::vector<uint64_t>& idx, const std::vector<int32_t>& val,
            uint64_t count, const std::vector<int32_t>& expect) {
  uint64_t reached = 0;
  for (int32_t l : expect) reached += l >= 0;
  if (count != reached || idx.size() < count || val.size() < count) return false;
  for (uint64_t k = 0; k < count; ++k) {
    if (idx[k] >= expect.size() || expect[idx[k]] != val[k]) return false;
  }
  return true;
}

namespace {

uint64_t tuple_hash(uint64_t row, uint64_t col, double val) {
  uint64_t bits = 0;
  std::memcpy(&bits, &val, sizeof bits);
  Rng h(row * 0x9e3779b97f4a7c15ull ^ (col + 0x632be59bd9b4e019ull) ^
        (bits * 0xc2b2ae3d27d4eb4full));
  return h.next();
}

}  // namespace

uint64_t tuple_checksum(const uint64_t* rows, const uint64_t* cols,
                        const double* vals, uint64_t n) {
  uint64_t sum = 0;
  for (uint64_t k = 0; k < n; ++k) sum += tuple_hash(rows[k], cols[k], vals[k]);
  return sum;
}

WriterPlan writer_plan(int scale, int batches, int batch_size, uint64_t seed) {
  WriterPlan p;
  p.n = uint64_t{1} << scale;
  const uint64_t total = static_cast<uint64_t>(batches) *
                         static_cast<uint64_t>(batch_size);
  // Edge factor chosen so the R-MAT draw count equals the batch total.
  Tuples t = rmat_tuples(scale, (total + p.n - 1) / p.n, seed, false, false);
  std::unordered_set<uint64_t> seen;
  seen.reserve(2 * total);
  uint64_t checksum = 0;
  size_t e = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<std::pair<uint64_t, uint64_t>> batch;
    batch.reserve(static_cast<size_t>(batch_size));
    for (int k = 0; k < batch_size; ++k, ++e) {
      uint64_t i = t.rows[e], j = t.cols[e];
      batch.emplace_back(i, j);
      if (seen.insert(i * p.n + j).second) checksum += tuple_hash(i, j, 1.0);
    }
    p.batches.push_back(std::move(batch));
    p.nvals.push_back(seen.size());
    p.checksum.push_back(checksum);
  }
  return p;
}

}  // namespace perfbench
