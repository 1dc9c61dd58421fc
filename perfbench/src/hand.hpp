// Benchmark-side inputs, hand-written baselines and output checks.
//
// Nothing here calls the library: the R-MAT generator feeds
// GrB_Matrix_build, the single-threaded CSR loops are the denominator of
// the abstraction tax, and the same loops are the oracle every library
// result is checked against.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// Independent streams derived from the one --seed, so that the graph,
// the BFS sources and the writer's batches never share draws.
enum Stream : uint64_t { kGraph = 1, kSources = 2, kWriter = 3 };
inline uint64_t stream_seed(uint64_t seed, Stream s) {
  return Rng(seed * 0x100000001b3ull + static_cast<uint64_t>(s)).next();
}

struct Tuples {
  uint64_t n = 0;
  std::vector<uint64_t> rows, cols;
};

// R-MAT edge tuples (a, b, c = 0.57, 0.19, 0.19), edge_factor * 2^scale
// draws; duplicates are kept (GrB_Matrix_build merges them).
// `symmetrize` adds (j, i) for every (i, j); `drop_self_loops` skips i == j.
Tuples rmat_tuples(int scale, uint64_t edge_factor, uint64_t seed,
                   bool symmetrize, bool drop_self_loops);

// Compressed sparse rows with sorted, duplicate-free column lists.
struct Csr {
  uint64_t n = 0;
  std::vector<uint64_t> ptr, idx;
  uint64_t nvals() const { return idx.size(); }
};

Csr csr_from_tuples(const Tuples& t);
Csr transpose(const Csr& a);

// Pull PageRank over at = A' (a row of `at` lists a vertex's in-neighbours),
// with the library's dangling rule: the rank of vertices without
// out-edges is spread uniformly.  Exactly `iters` iterations.
void hand_pagerank(const Csr& at, const std::vector<uint64_t>& outdeg,
                   double damping, int iters, std::vector<double>* rank);
// Out-degree of each vertex of A (row lengths).
std::vector<uint64_t> out_degrees(const Csr& a);

// Triangles of a symmetric graph without self loops: sorted merge of the
// strict-lower rows, L(i,:) being the prefix of A(i,:) below the diagonal.
uint64_t hand_triangles(const Csr& a);

// Queue BFS; level[v] = hops from src, -1 when unreached.
void hand_bfs(const Csr& a, uint64_t src, std::vector<int32_t>* level,
              std::vector<uint64_t>* queue);

// ---- checks (each returns true when the output is right) ---------------

// L1 distance between a library rank vector, given as (index, value)
// tuples, and the hand ranks is at most `tol`; every vertex is present.
bool pagerank_ok(const std::vector<uint64_t>& idx,
                 const std::vector<double>& val,
                 const std::vector<double>& expect, double tol);

// The library's BFS level vector (tuples) equals the hand levels exactly.
bool bfs_ok(const std::vector<uint64_t>& idx, const std::vector<int32_t>& val,
            uint64_t count, const std::vector<int32_t>& expect);

// Order-independent checksum of a (row, col, value) tuple set.
uint64_t tuple_checksum(const uint64_t* rows, const uint64_t* cols,
                        const double* vals, uint64_t n);

// The writer's expected state after each batch of one epoch.
struct WriterPlan {
  uint64_t n = 0;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> batches;
  std::vector<uint64_t> nvals;     // distinct edges after batch b
  std::vector<uint64_t> checksum;  // tuple_checksum after batch b
};
WriterPlan writer_plan(int scale, int batches, int batch_size, uint64_t seed);

}  // namespace perfbench
