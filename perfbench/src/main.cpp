// perfbench — closed-loop workloads through the public GraphBLAS API.
//
//   perfbench --workload pagerank|triangles|tenants --seed N --seconds S
//             [--trace 0|1] [--span-file PATH] [--toy] [--corrupt KIND]
//
// Prints environment lines, then one raw JSON report as the last line of
// standard output: every sample and counter the metrics are computed
// from (perfbench/run.py turns it into the named metrics).  Exits 1 if
// any library call failed or any output disagreed with its check.
//
// Inputs are generated here from --seed and reach the library only
// through GrB_Matrix_build and GrB_Matrix_setElement; every library knob
// stays at its default.  --toy shrinks every graph for the self-test;
// --corrupt perturbs one kind of library result before its check, so the
// self-test can show that each check trips.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "graphblas/GraphBLAS.h"
#include "hand.hpp"
#include "spans.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string corrupt;  // "", rank, triangles, bfs, writer, checkpoint
  std::string span_file;
};

// ---- run-wide bookkeeping ------------------------------------------------

struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> notes;  // first few failures; guarded by mu
};
Tally g_tally;

// Records one attempt; `ok` false counts it as failed.  Thread-safe.
bool attempt(bool ok, const char* what, long long info = 0) {
  g_tally.attempted.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    g_tally.failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(g_tally.mu);
    if (g_tally.notes.size() < 8)
      g_tally.notes.push_back(std::string(what) + " (info " + std::to_string(info) + ")");
  }
  return ok;
}

double ms_since(uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

// ---- raw report ------------------------------------------------------------

std::string json_quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return q + "\"";
}

class Report {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const char* key, const std::string& v) { field(key, json_quote(v)); }
  void arr(const char* key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    field(key, s + "]");
  }
  void raw(const char* key, const std::string& json) { field(key, json); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += v;
  }
  std::string body_;
};

// ---- workload shapes -------------------------------------------------------

// This machine's speed drifts over seconds, so everything a ratio or a
// median compares is spread over the whole run instead of taken in one
// burst: the hand loop runs after the first and then every `hand_every`-th
// library call of a caller, single-caller workloads rebuild the graph kBuildsPerWindow
// times spread over their window, and half of the set-ups run after it.
struct Shape {
  int scale;
  int edge_factor;
  int setup_reps;
  int hand_every;
  int writer_batch;  // tenants only
};

Shape shape_of(const Options& o) {
  if (o.workload == "pagerank") return o.toy ? Shape{10, 8, 2, 1, 0} : Shape{16, 8, 7, 1, 0};
  if (o.workload == "triangles") return o.toy ? Shape{10, 8, 2, 4, 0} : Shape{15, 8, 7, 4, 0};
  return o.toy ? Shape{10, 8, 2, 4, 256} : Shape{15, 8, 7, 4, 4096};
}

// One closed-loop caller: library call latencies, plus the hand loop and
// builds interleaved with them.  Its throughput counts library calls per
// second of the window not spent on the interleaved work.
struct Caller {
  std::vector<double> lat_ms, hand_ms, build_ms;
  double side_s = 0;
  double ops_per_s(double window_s) const {
    return static_cast<double>(lat_ms.size()) / (window_s - side_s);
  }
};

constexpr int kBuildsPerWindow = 12;
constexpr double kDamping = 0.85;
constexpr int kPagerankIters = 20;
constexpr int kNumSources = 64;
constexpr int kWriterBatches = 64;     // one epoch; the graph resets after it
constexpr int kCheckpointEvery = 8;

// ---- environment -----------------------------------------------------------

bool grb_env_set() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GRB_", 4) == 0) {
      std::fprintf(stderr, "perfbench: refusing a timed run with %s set\n", *e);
      found = true;
    }
  }
  return found;
}

void print_env(const Options& o, const std::vector<std::pair<std::string, int>>& threads) {
  std::printf("env: nproc=%ld l1d=%ld l2=%ld l3=%ld build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), sysconf(_SC_LEVEL1_DCACHE_SIZE),
              sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
              PERFBENCH_BUILD_TYPE);
  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d toy=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.toy ? 1 : 0);
  for (const auto& t : threads)
    std::printf("env: context %s nthreads=%d\n", t.first.c_str(), t.second);
}

uint64_t peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

std::string stats_json() {
  std::string buf(1 << 16, '\0');
  for (;;) {
    GrB_Index len = buf.size();
    if (GxB_Stats_json(buf.data(), &len) != GrB_SUCCESS) return "null";
    if (len <= buf.size()) {
      buf.resize(len > 0 ? len - 1 : 0);
      return buf;
    }
    buf.assign(len + 4096, '\0');  // the dump grew; retry with room
  }
}

// The traced part of a --trace 1 run.  First a bench loop of
// GrB_Vector_nvals on a completed vector homed in `ctx` (ns per call, with
// telemetry still off), then `window` with GxB stats and the benchmark's
// spans on.  Returns the stats dump taken right after the window.
template <class Window>
std::string traced_run(GrB_Context ctx, GrB_Index n, std::vector<double>* nvals_ns,
                       Window window) {
  GrB_Vector v = nullptr;
  GrB_Vector_new(&v, GrB_FP64, n, ctx);
  GrB_assign(v, GrB_NULL, GrB_NULL, 1.0, GrB_ALL, n, GrB_NULL);
  GrB_wait(v, GrB_COMPLETE);
  GrB_Index nv = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const int calls = 100000;
    uint64_t t0 = now_ns();
    for (int k = 0; k < calls; ++k) GrB_Vector_nvals(&nv, v);
    nvals_ns->push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  GrB_free(&v);
  GxB_Stats_reset();
  GxB_Stats_enable(1);
  spans_enable(true);
  window();
  spans_enable(false);
  GxB_Stats_enable(0);
  return stats_json();
}

// Exports `a` in CSR form (span io.export) and checks it equals `oracle`.
Csr export_csr(GrB_Matrix a, const Csr& oracle, bool is_bool, double* ms) {
  Csr c;
  c.n = oracle.n;
  uint64_t t0 = now_ns();
  {
    Span s("io.export");
    GrB_Index np = 0, ni = 0, nv = 0;
    GrB_Info info = GrB_Matrix_exportSize(&np, &ni, &nv, GrB_CSR_MATRIX, a);
    c.ptr.resize(np);
    c.idx.resize(ni);
    std::vector<unsigned char> vals(nv * (is_bool ? sizeof(bool) : sizeof(double)));
    if (info == GrB_SUCCESS)
      info = GrB_Matrix_export(c.ptr.data(), c.idx.data(), vals.data(), GrB_CSR_MATRIX, a);
    attempt(info == GrB_SUCCESS, "GrB_Matrix_export", info);
  }
  *ms = ms_since(t0);
  attempt(c.ptr == oracle.ptr && c.idx == oracle.idx, "exported CSR differs from the generated graph");
  return c;
}

// Builds `t` into a new n x n matrix (span containers.build): build plus
// the first materialize.  `vals` holds one bool or double per tuple,
// prepared outside the timed set-up.
GrB_Matrix build_matrix(const Tuples& t, const void* vals, bool is_bool, double* ms) {
  GrB_Matrix a = nullptr;
  uint64_t t0 = now_ns();
  Span s("containers.build");
  GrB_Info info = GrB_Matrix_new(&a, is_bool ? GrB_BOOL : GrB_FP64, t.n, t.n);
  if (info == GrB_SUCCESS) {
    info = is_bool ? GrB_Matrix_build(a, t.rows.data(), t.cols.data(),
                                      static_cast<const bool*>(vals), t.rows.size(), GrB_LOR)
                   : GrB_Matrix_build(a, t.rows.data(), t.cols.data(),
                                      static_cast<const double*>(vals), t.rows.size(),
                                      GrB_FIRST_FP64);
  }
  if (info == GrB_SUCCESS) info = GrB_wait(a, GrB_MATERIALIZE);
  attempt(info == GrB_SUCCESS, "GrB_Matrix_build", info);
  *ms = ms_since(t0);
  return a;
}

// ---- single-caller workloads: pagerank and triangles ----------------------

struct Solver {
  // One library solve on `a`, result read back: the timed part.
  virtual GrB_Info run(GrB_Matrix a) = 0;
  // Checks the result of the last run against the hand oracle.
  virtual bool check() = 0;
  // Untimed preparation of the exported CSR for hand().
  virtual void prepare(const Csr&) {}
  // One hand solve on the exported CSR.
  virtual void hand(const Csr& a) = 0;
  virtual const char* name() const = 0;
  virtual ~Solver() = default;
};

class PagerankSolver : public Solver {
 public:
  PagerankSolver(const Csr& oracle, bool corrupt)
      : corrupt_(corrupt), idx_(oracle.n), val_(oracle.n) {
    hand_pagerank(transpose(oracle), out_degrees(oracle), kDamping,
                  kPagerankIters, &expect_);
  }
  GrB_Info run(GrB_Matrix a) override {
    GrB_Vector r = nullptr;
    GrB_Info info = grb_algo::pagerank(&r, a, kDamping, kPagerankIters, 0.0);
    got_ = idx_.size();
    if (info == GrB_SUCCESS) info = GrB_Vector_extractTuples(idx_.data(), val_.data(), &got_, r);
    GrB_free(&r);
    return info;
  }
  bool check() override {
    std::vector<uint64_t> idx(idx_.begin(), idx_.begin() + static_cast<long>(got_));
    std::vector<double> val(val_.begin(), val_.begin() + static_cast<long>(got_));
    if (corrupt_ && !val.empty()) val[val.size() / 2] += 1e-6;
    return pagerank_ok(idx, val, expect_, 1e-9);
  }
  // The transpose stands in for the library's cached one; out-degrees
  // are recomputed per call, as the library does.
  void prepare(const Csr& a) override { at_ = transpose(a); }
  void hand(const Csr& a) override {
    hand_pagerank(at_, out_degrees(a), kDamping, kPagerankIters, &scratch_);
  }
  const char* name() const override { return "algorithms.pagerank"; }

 private:
  bool corrupt_;
  std::vector<double> expect_, scratch_;
  std::vector<uint64_t> idx_;
  std::vector<double> val_;
  GrB_Index got_ = 0;
  Csr at_;
};

class TriangleSolver : public Solver {
 public:
  TriangleSolver(const Csr& oracle, bool corrupt)
      : corrupt_(corrupt), expect_(hand_triangles(oracle)) {}
  GrB_Info run(GrB_Matrix a) override { return grb_algo::triangle_count(&got_, a); }
  bool check() override { return got_ + (corrupt_ ? 1 : 0) == expect_; }
  void hand(const Csr& a) override { sink_ += hand_triangles(a); }
  const char* name() const override { return "algorithms.triangle_count"; }

 private:
  bool corrupt_;
  uint64_t expect_;
  uint64_t got_ = 0;
  uint64_t sink_ = 0;
};

// Times one solve (span named after the algorithm) and checks it.
double timed_solve(Solver& solver, GrB_Matrix a) {
  uint64_t t0 = now_ns();
  GrB_Info info;
  {
    Span s(solver.name());
    info = solver.run(a);
  }
  double ms = ms_since(t0);
  if (info != GrB_SUCCESS) attempt(false, solver.name(), info);
  else attempt(solver.check(), "solve disagrees with the hand oracle");
  return ms;
}

void single_caller(const Options& o, Report& rep) {
  const Shape sh = shape_of(o);
  const bool pr = o.workload == "pagerank";
  Tuples t = rmat_tuples(sh.scale, static_cast<uint64_t>(sh.edge_factor),
                         stream_seed(o.seed, kGraph), /*symmetrize=*/!pr,
                         /*drop_self_loops=*/!pr);
  Csr oracle = csr_from_tuples(t);
  const std::vector<double> ones(t.rows.size(), 1.0);
  std::unique_ptr<Solver> solver;
  if (pr) solver = std::make_unique<PagerankSolver>(oracle, o.corrupt == "rank");
  else solver = std::make_unique<TriangleSolver>(oracle, o.corrupt == "triangles");
  std::printf("graph: n=%llu tuples=%zu entries=%llu\n",
              static_cast<unsigned long long>(oracle.n), t.rows.size(),
              static_cast<unsigned long long>(oracle.nvals()));

  spans_enable(o.trace);
  std::vector<double> setup_s;
  GrB_Matrix a = nullptr;
  uint64_t op = 0;
  // Set-up from GrB_init to the end of the first warm-up solve.
  auto setup = [&]() {
    spans_set_op(++op);
    Span s("setup");
    uint64_t t0 = now_ns();
    attempt(GrB_init(GrB_NONBLOCKING) == GrB_SUCCESS, "GrB_init");
    double bms = 0;
    a = build_matrix(t, ones.data(), false, &bms);
    timed_solve(*solver, a);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  auto teardown = [&]() {
    GrB_free(&a);
    GrB_finalize();
  };
  const int setups_before = (sh.setup_reps + 1) / 2;
  for (int r = 0; r < setups_before; ++r) {
    if (r > 0) teardown();
    setup();
  }
  print_env(o, {{"top", grb::top_context()->effective_nthreads()}});

  double export_ms = 0;
  Csr exported = export_csr(a, oracle, false, &export_ms);
  solver->prepare(exported);

  // One closed-loop window: solves, with the hand loop and rebuilds
  // interleaved.
  auto window = [&](double seconds, Caller* c) {
    uint64_t start = now_ns();
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t build_every = static_cast<uint64_t>(seconds * 1e9) / kBuildsPerWindow;
    uint64_t next_build = start + build_every;
    for (int i = 1; now_ns() < deadline; ++i) {
      spans_set_op(++op);
      c->lat_ms.push_back(timed_solve(*solver, a));
      uint64_t t0 = now_ns();
      if ((i - 1) % sh.hand_every == 0) {  // the first call always has one
        solver->hand(exported);
        c->hand_ms.push_back(ms_since(t0));
      }
      if (now_ns() >= next_build) {
        double ms = 0;
        GrB_Matrix b = build_matrix(t, ones.data(), false, &ms);
        GrB_free(&b);
        c->build_ms.push_back(ms);
        next_build += build_every;
      }
      c->side_s += ms_since(t0) / 1e3;
    }
    return static_cast<double>(now_ns() - start) / 1e9;
  };
  // Untraced window: the whole run, or its first half when tracing.
  spans_enable(false);
  Caller main_caller, traced;
  std::vector<double> nvals_ns;
  double window_s = window(o.trace ? o.seconds / 2 : o.seconds, &main_caller);
  std::string stats = "null";
  if (o.trace) {
    stats = traced_run(GrB_NULL, oracle.n, &nvals_ns,
                       [&] { window(o.seconds / 2, &traced); });
  }
  spans_enable(o.trace);
  for (int r = setups_before; r < sh.setup_reps; ++r) {
    teardown();
    setup();
  }
  teardown();

  rep.arr("setup_s", setup_s);
  rep.arr("build_ms", main_caller.build_ms);
  rep.num("build_edges", static_cast<double>(t.rows.size()));
  rep.num("export_ms", export_ms);
  rep.arr("lat_ms", main_caller.lat_ms);
  rep.num("window_s", window_s);
  rep.num("ops_per_s", main_caller.ops_per_s(window_s));
  rep.arr("hand_ms", main_caller.hand_ms);
  if (o.trace) {
    rep.arr("traced_lat_ms", traced.lat_ms);
    rep.num("traced_units", static_cast<double>(traced.lat_ms.size()));
    rep.arr("nvals_ns", nvals_ns);
    rep.raw("stats", stats);
  }
}

// ---- tenants ---------------------------------------------------------------

struct TenantSetup {
  GrB_Context readers[2] = {nullptr, nullptr};
  GrB_Context writer = nullptr;
  GrB_Matrix shared = nullptr;  // top context, completed before readers run
  // Each reader's handle on the shared graph, homed in the reader's
  // context: a GrB_Matrix_dup shares the immutable storage block, and all
  // objects of one method must share a context (paper section IV).
  GrB_Matrix views[2] = {nullptr, nullptr};
  GrB_Matrix graph = nullptr;   // the writer's private graph
  GrB_Vector degree = nullptr;  // the writer's row degrees
};

// One BFS-level query in `ctx`, written from GrB_assign, GrB_vxm and
// GrB_Vector_nvals (vectors live in the reader's context), followed by
// reading the levels out; `reached` receives the number of levels read.
GrB_Info bfs_query(GrB_Context ctx, GrB_Matrix a, GrB_Index n, uint64_t src,
                   std::vector<uint64_t>* idx, std::vector<int32_t>* val,
                   GrB_Index* reached) {
  GrB_Vector v = nullptr, q = nullptr;
  GrB_Info info = GrB_Vector_new(&v, GrB_INT32, n, ctx);
  if (info == GrB_SUCCESS) info = GrB_Vector_new(&q, GrB_BOOL, n, ctx);
  if (info == GrB_SUCCESS) info = GrB_Vector_setElement(q, true, src);
  for (int32_t depth = 0; info == GrB_SUCCESS; ++depth) {
    GrB_Index nq = 0;
    {
      Span s("containers.nvals");
      info = GrB_Vector_nvals(&nq, q);
    }
    if (info != GrB_SUCCESS || nq == 0) break;
    {
      Span s("ops.assign");
      info = GrB_assign(v, q, GrB_NULL, depth, GrB_ALL, n, GrB_DESC_S);
    }
    if (info != GrB_SUCCESS) break;
    Span s("ops.vxm");
    info = GrB_vxm(q, v, GrB_NULL, GrB_LOR_LAND_SEMIRING_BOOL, q, a, GrB_DESC_RSC);
  }
  if (info == GrB_SUCCESS) {
    Span s("capi.extractTuples");
    *reached = n;
    info = GrB_Vector_extractTuples(idx->data(), val->data(), reached, v);
  }
  GrB_free(&v);
  GrB_free(&q);
  return info;
}

struct WriterOut {
  uint64_t edges = 0;
  double loop_s = 0;
  uint64_t batches = 0;
  std::vector<double> bytes_per_entry;
};

struct Tenants {
  const Options& o;
  const Shape sh;
  Tuples shared_t;
  std::unique_ptr<bool[]> shared_ones;
  Csr oracle;
  std::vector<uint64_t> sources;
  std::vector<std::vector<int32_t>> expect;  // levels per source
  WriterPlan plan;
  TenantSetup st;
  Csr exported;  // the shared graph as GrB_Matrix_export returns it
  std::atomic<uint64_t> next_op{1};

  explicit Tenants(const Options& opt) : o(opt), sh(shape_of(opt)) {
    shared_t = rmat_tuples(sh.scale, static_cast<uint64_t>(sh.edge_factor),
                           stream_seed(o.seed, kGraph), true, true);
    oracle = csr_from_tuples(shared_t);
    shared_ones = std::make_unique<bool[]>(shared_t.rows.size());
    std::fill_n(shared_ones.get(), shared_t.rows.size(), true);
    Rng rng(stream_seed(o.seed, Stream::kSources));
    while (sources.size() < kNumSources) {
      uint64_t v = rng.next() % oracle.n;
      if (oracle.ptr[v + 1] > oracle.ptr[v]) sources.push_back(v);
    }
    std::vector<uint64_t> queue;
    expect.resize(kNumSources);
    for (int k = 0; k < kNumSources; ++k) hand_bfs(oracle, sources[k], &expect[k], &queue);
    plan = writer_plan(sh.scale, kWriterBatches, sh.writer_batch,
                       stream_seed(o.seed, kWriter));
    std::printf("graph: n=%llu tuples=%zu entries=%llu writer_batches=%d x %d\n",
                static_cast<unsigned long long>(oracle.n), shared_t.rows.size(),
                static_cast<unsigned long long>(oracle.nvals()), kWriterBatches,
                sh.writer_batch);
  }

  bool check_query(GrB_Info info, const std::vector<uint64_t>& idx,
                   std::vector<int32_t>& val, GrB_Index reached, int k) {
    if (info != GrB_SUCCESS) return attempt(false, "BFS query", info);
    if (o.corrupt == "bfs" && reached > 0) val[reached / 2] += 1;
    return attempt(bfs_ok(idx, val, reached, expect[static_cast<size_t>(k)]),
                   "BFS levels differ from the hand levels");
  }

  // Set-up from GrB_init to the end of the first warm-up query; returns
  // the build time of the shared graph in ms.
  double setup() {
    double build_ms = 0;
    attempt(GrB_init(GrB_NONBLOCKING) == GrB_SUCCESS, "GrB_init");
    GrB_ContextConfig cfg;
    cfg.nthreads = 1;
    for (auto& r : st.readers)
      attempt(GrB_Context_new(&r, GrB_NONBLOCKING, GrB_NULL, &cfg) == GrB_SUCCESS, "GrB_Context_new");
    attempt(GrB_Context_new(&st.writer, GrB_NONBLOCKING, GrB_NULL, &cfg) == GrB_SUCCESS, "GrB_Context_new");
    st.shared = build_matrix(shared_t, shared_ones.get(), true, &build_ms);
    {
      Span s("exec.wait_complete");
      attempt(GrB_wait(st.shared, GrB_COMPLETE) == GrB_SUCCESS, "GrB_wait(COMPLETE)");
    }
    for (int r = 0; r < 2; ++r) {
      GrB_Info info = GrB_Matrix_dup(&st.views[r], st.shared);
      if (info == GrB_SUCCESS) info = GrB_Context_switch(st.views[r], st.readers[r]);
      attempt(info == GrB_SUCCESS, "reader view of the shared graph", info);
    }
    attempt(GrB_Matrix_new(&st.graph, GrB_FP64, plan.n, plan.n, st.writer) == GrB_SUCCESS, "GrB_Matrix_new");
    attempt(GrB_Vector_new(&st.degree, GrB_FP64, plan.n, st.writer) == GrB_SUCCESS, "GrB_Vector_new");
    // First warm-up query, from the main thread in reader 0's context.
    std::vector<uint64_t> idx(oracle.n);
    std::vector<int32_t> val(oracle.n);
    GrB_Index reached = 0;
    Span s("tenants.query");
    GrB_Info info = bfs_query(st.readers[0], st.views[0], oracle.n, sources[0], &idx, &val, &reached);
    check_query(info, idx, val, reached, 0);
    return build_ms;
  }

  void teardown() {
    GrB_free(&st.degree);
    GrB_free(&st.graph);
    for (auto& v : st.views) GrB_free(&v);
    GrB_free(&st.shared);
    for (auto& r : st.readers) GrB_free(&r);
    GrB_free(&st.writer);
    GrB_finalize();
  }

  void reader(int r, uint64_t deadline, Caller* out) {
    std::vector<uint64_t> idx(oracle.n);
    std::vector<int32_t> val(oracle.n), level;
    std::vector<uint64_t> queue;
    for (uint64_t q = 0; now_ns() < deadline; ++q) {
      int k = static_cast<int>((2 * q + static_cast<uint64_t>(r)) % kNumSources);
      spans_set_op(next_op.fetch_add(1));
      GrB_Index reached = 0;
      uint64_t t0 = now_ns();
      GrB_Info info;
      {
        Span s("tenants.query");
        info = bfs_query(st.readers[r], st.views[r], oracle.n, sources[static_cast<size_t>(k)], &idx, &val, &reached);
      }
      out->lat_ms.push_back(ms_since(t0));
      check_query(info, idx, val, reached, k);
      if (q % static_cast<uint64_t>(sh.hand_every) == 0) {
        t0 = now_ns();
        hand_bfs(exported, sources[static_cast<size_t>(k)], &level, &queue);
        out->hand_ms.push_back(ms_since(t0));
        out->side_s += out->hand_ms.back() / 1e3;
      }
    }
  }

  void writer(uint64_t deadline, WriterOut* out) {
    std::vector<unsigned char> buf;
    std::vector<uint64_t> rows, cols;
    std::vector<double> vals;
    uint64_t loop_ns = 0;
    for (int b = 0; now_ns() < deadline; b = (b + 1) % kWriterBatches) {
      spans_set_op(next_op.fetch_add(1));
      Span batch_span("tenants.writer_batch");
      const auto& batch = plan.batches[static_cast<size_t>(b)];
      GrB_Info info = GrB_SUCCESS;
      uint64_t t0 = now_ns();
      {
        Span s("capi.setElement");
        for (const auto& e : batch) {
          GrB_Info i = GrB_Matrix_setElement(st.graph, 1.0, e.first, e.second);
          if (i != GrB_SUCCESS) info = i;
        }
      }
      {
        Span s("exec.wait");
        if (info == GrB_SUCCESS) info = GrB_wait(st.graph, GrB_MATERIALIZE);
      }
      double degree_sum = -1;
      {
        Span s("ops.reduce");
        if (info == GrB_SUCCESS)
          info = GrB_reduce(st.degree, GrB_NULL, GrB_NULL, GrB_PLUS_MONOID_FP64, st.graph, GrB_NULL);
        if (info == GrB_SUCCESS)
          info = GrB_reduce(&degree_sum, GrB_NULL, GrB_PLUS_MONOID_FP64, st.degree, GrB_NULL);
      }
      loop_ns += now_ns() - t0;
      GrB_Index nv = 0;
      if (info == GrB_SUCCESS) info = GrB_Matrix_nvals(&nv, st.graph);
      if (o.corrupt == "writer") nv += 1;
      const uint64_t want = plan.nvals[static_cast<size_t>(b)];
      attempt(info == GrB_SUCCESS && nv == want && degree_sum == static_cast<double>(want),
              "writer graph disagrees with the expected edge count", info);
      out->edges += batch.size();
      ++out->batches;

      if (b % kCheckpointEvery == kCheckpointEvery - 1) {
        GrB_Matrix copy = nullptr;
        GrB_Index size = 0;
        uint64_t t4 = now_ns();
        {
          Span s("io.serialize");
          info = GrB_Matrix_serializeSize(&size, st.graph);
          buf.resize(size);
          if (info == GrB_SUCCESS) info = GrB_Matrix_serialize(buf.data(), &size, st.graph);
        }
        {
          Span s("io.deserialize");
          if (info == GrB_SUCCESS) info = GrB_Matrix_deserialize(&copy, GrB_FP64, buf.data(), size);
        }
        loop_ns += now_ns() - t4;
        if (info == GrB_SUCCESS) info = GrB_Context_switch(copy, st.writer);
        GrB_Index cn = 0;
        if (info == GrB_SUCCESS) info = GrB_Matrix_nvals(&cn, copy);
        rows.resize(cn);
        cols.resize(cn);
        vals.resize(cn);
        if (info == GrB_SUCCESS) info = GrB_Matrix_extractTuples(rows.data(), cols.data(), vals.data(), &cn, copy);
        if (o.corrupt == "checkpoint" && cn > 0) cols[cn / 2] ^= 1;
        attempt(info == GrB_SUCCESS && cn == want &&
                    tuple_checksum(rows.data(), cols.data(), vals.data(), cn) ==
                        plan.checksum[static_cast<size_t>(b)],
                "checkpoint differs from its source", info);
        if (cn > 0) out->bytes_per_entry.push_back(static_cast<double>(size) / static_cast<double>(cn));
        GrB_free(&copy);
      }
      if (b == kWriterBatches - 1)
        attempt(GrB_Matrix_clear(st.graph) == GrB_SUCCESS, "GrB_Matrix_clear");
    }
    out->loop_s = static_cast<double>(loop_ns) / 1e9;
    // Leave the graph empty for the next window.
    attempt(GrB_Matrix_clear(st.graph) == GrB_SUCCESS, "GrB_Matrix_clear");
  }

  // Runs two readers and the writer for `seconds`; returns elapsed s.
  double window(double seconds, Caller* ro, WriterOut* wo) {
    uint64_t start = now_ns();
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::thread r0([&] { reader(0, deadline, &ro[0]); });
    std::thread r1([&] { reader(1, deadline, &ro[1]); });
    std::thread w([&] { writer(deadline, wo); });
    r0.join();
    r1.join();
    w.join();
    return static_cast<double>(now_ns() - start) / 1e9;
  }

  void run(Report& rep) {
    std::vector<double> setup_s, build_ms;
    auto timed_setup = [&]() {
      spans_set_op(next_op.fetch_add(1));
      Span s("setup");
      uint64_t t0 = now_ns();
      build_ms.push_back(setup());
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    };
    spans_enable(o.trace);
    const int setups_before = (sh.setup_reps + 1) / 2;
    for (int r = 0; r < setups_before; ++r) {
      if (r > 0) teardown();
      timed_setup();
    }
    print_env(o, {{"top", grb::top_context()->effective_nthreads()},
                  {"reader0", st.readers[0]->effective_nthreads()},
                  {"reader1", st.readers[1]->effective_nthreads()},
                  {"writer", st.writer->effective_nthreads()}});
    double export_ms = 0;
    exported = export_csr(st.shared, oracle, true, &export_ms);

    spans_enable(false);
    Caller ro[2];
    WriterOut wo;
    double window_s = window(o.trace ? o.seconds / 2 : o.seconds, ro, &wo);
    std::vector<double> lat = ro[0].lat_ms, hand_ms = ro[0].hand_ms;
    lat.insert(lat.end(), ro[1].lat_ms.begin(), ro[1].lat_ms.end());
    hand_ms.insert(hand_ms.end(), ro[1].hand_ms.begin(), ro[1].hand_ms.end());

    std::string stats = "null";
    Caller tro[2];
    WriterOut two;
    std::vector<double> nvals_ns;
    if (o.trace) {
      stats = traced_run(st.readers[0], oracle.n, &nvals_ns,
                         [&] { window(o.seconds / 2, tro, &two); });
    }

    std::vector<double> ctx_ids = {
        static_cast<double>(st.readers[0]->obs_id()),
        static_cast<double>(st.readers[1]->obs_id())};
    spans_enable(o.trace);
    for (int r = setups_before; r < sh.setup_reps; ++r) {
      teardown();
      timed_setup();
    }
    teardown();

    rep.arr("setup_s", setup_s);
    rep.arr("build_ms", build_ms);
    rep.num("build_edges", static_cast<double>(shared_t.rows.size()));
    rep.num("export_ms", export_ms);
    rep.arr("lat_ms", lat);
    rep.num("window_s", window_s);
    rep.num("ops_per_s", ro[0].ops_per_s(window_s) + ro[1].ops_per_s(window_s));
    rep.arr("hand_ms", hand_ms);
    rep.num("ingest_edges", static_cast<double>(wo.edges));
    rep.num("ingest_s", wo.loop_s);
    rep.num("writer_batches", static_cast<double>(wo.batches));
    rep.num("writer_batch", sh.writer_batch);
    if (o.trace) {
      std::vector<double> tlat = tro[0].lat_ms;
      tlat.insert(tlat.end(), tro[1].lat_ms.begin(), tro[1].lat_ms.end());
      rep.arr("traced_lat_ms", tlat);
      rep.num("traced_units", static_cast<double>(tlat.size()));
      rep.num("traced_writer_batches", static_cast<double>(two.batches));
      rep.arr("bytes_per_entry", two.bytes_per_entry);
      rep.arr("reader_ctx_ids", ctx_ids);
      rep.arr("nvals_ns", nvals_ns);
      rep.raw("stats", stats);
    }
  }
};

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--toy") {
      o->toy = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--span-file" || a == "--corrupt") &&
               (v = val()) != nullptr) {
      if (a == "--workload") o->workload = v;
      else if (a == "--seed") o->seed = std::strtoull(v, nullptr, 10);
      else if (a == "--seconds") o->seconds = std::strtod(v, nullptr);
      else if (a == "--trace") o->trace = std::strcmp(v, "0") != 0;
      else if (a == "--span-file") o->span_file = v;
      else o->corrupt = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", a.c_str());
      return false;
    }
  }
  if (o->workload != "pagerank" && o->workload != "triangles" && o->workload != "tenants") {
    std::fprintf(stderr, "perfbench: --workload must be pagerank, triangles or tenants\n");
    return false;
  }
  if (!(o->seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!parse(argc, argv, &o)) return 2;
  if (grb_env_set()) return 2;

  Report rep;
  rep.str("workload", o.workload);
  rep.num("seed", static_cast<double>(o.seed));
  rep.num("trace", o.trace ? 1 : 0);
  if (o.workload == "tenants") {
    Tenants(o).run(rep);
  } else {
    single_caller(o, rep);
  }
  rep.num("peak_rss_kb", static_cast<double>(peak_rss_kb()));
  if (o.trace && !o.span_file.empty()) {
    int64_t n = spans_write(o.span_file);
    if (n < 0) attempt(false, "cannot write the span file");
    std::printf("spans: %lld written to %s\n", static_cast<long long>(n), o.span_file.c_str());
    rep.str("span_file", o.span_file);
  }
  const uint64_t failed = g_tally.failed.load();
  rep.num("attempted", static_cast<double>(g_tally.attempted.load()));
  rep.num("failed", static_cast<double>(failed));
  std::string notes;
  for (const std::string& n : g_tally.notes) notes += (notes.empty() ? "" : ",") + json_quote(n);
  rep.raw("failures", "[" + notes + "]");
  std::printf("%s\n", rep.done().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
