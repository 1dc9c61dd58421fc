#include "obs/telemetry.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/decision.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/memory.hpp"
#include "obs/profiler.hpp"

namespace grb {
namespace obs {

namespace detail {
std::atomic<uint32_t> g_flags{0};
}  // namespace detail

namespace {

// --- time -----------------------------------------------------------------

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

uint32_t this_tid() {
  static thread_local const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffu);
  return tid;
}

void bump_high_water(std::atomic<uint64_t>& hw, uint64_t v) {
  uint64_t cur = hw.load(std::memory_order_relaxed);
  while (cur < v &&
         !hw.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --- latency histograms ---------------------------------------------------
// Log2-bucketed duration histograms.  Bucket b holds durations v with
// bit_width(v) == b, i.e. v in [2^(b-1), 2^b); a quantile reports its
// bucket's inclusive upper bound (2^b - 1) clamped to the exact max, so
// it is an upper bound with at most 2x quantization that never exceeds
// the largest sample.  Op writes go to a per-thread shard (relaxed,
// lock-free) and are merged on read; 44 buckets cover durations past two
// hours.

constexpr int kHistBuckets = 44;
constexpr int kHistShards = 8;

int hist_bucket(uint64_t ns) {
  return std::min(static_cast<int>(std::bit_width(ns)), kHistBuckets - 1);
}

uint64_t ld(const std::atomic<uint64_t>& v) {
  return v.load(std::memory_order_relaxed);
}

// Relaxed-merged read view of one histogram and its exact max.
struct HistAgg {
  uint64_t counts[kHistBuckets] = {};
  uint64_t max_ns = 0;

  void merge_max(uint64_t m) {
    if (m > this->max_ns) this->max_ns = m;
  }
  uint64_t samples() const {
    uint64_t n = 0;
    for (uint64_t c : counts) n += c;
    return n;
  }
  // Ceil-rank quantile: the upper bound of the bucket holding the
  // pct-th percentile sample, clamped to the observed max.
  uint64_t quantile(uint64_t pct) const {
    uint64_t target = (samples() * pct + 99) / 100;
    if (target == 0) return 0;
    uint64_t cum = 0;
    int b = 0;
    for (; b < kHistBuckets - 1; ++b) {
      cum += counts[b];
      if (cum >= target) break;
    }
    uint64_t upper = b == 0 ? 0 : (uint64_t{1} << b) - 1;
    return upper < this->max_ns ? upper : this->max_ns;
  }
};

// --- counters -------------------------------------------------------------
// Each counter set is an enum-indexed array of relaxed atomics, so reset,
// context drain, aggregation and the metric-table readers are loops over
// one field list.

enum OpField : int {
  kCalls, kNs, kErrors, kScalars, kFlops, kSerial, kParallel, kDeferred,
  kDeferredNs, kOpFields
};

struct OpCounters {
  std::atomic<uint64_t> fields[kOpFields] = {};
  std::atomic<uint64_t> max_ns{0};
  std::atomic<uint64_t> hist[kHistShards][kHistBuckets] = {};

  void add(OpField f, uint64_t n) {
    fields[f].fetch_add(n, std::memory_order_relaxed);
  }

  void hist_add(uint64_t dur_ns) {
    hist[this_tid() & (kHistShards - 1)][hist_bucket(dur_ns)].fetch_add(
        1, std::memory_order_relaxed);
    bump_high_water(max_ns, dur_ns);
  }

  void reset() {
    // Relaxed stores: reset carries no ordering obligation — readers
    // tolerate torn resets the same way they tolerate concurrent bumps.
    for (auto& c : fields) c.store(0, std::memory_order_relaxed);
    max_ns.store(0, std::memory_order_relaxed);
    for (auto& shard : hist)
      for (auto& bucket : shard) bucket.store(0, std::memory_order_relaxed);
  }

  // Context rollup on free: exchange-based drain so a bump racing the
  // drain lands either in the source (moved now) or the destination
  // (arriving after the exchange) — never lost, never double-counted.
  // The object itself stays alive (registry entries are never deleted),
  // so a late bump against a retired context still has a home and is
  // folded into the ancestor at read time.
  void drain_into(OpCounters& dst) {
    for (int f = 0; f < kOpFields; ++f)
      dst.fields[f].fetch_add(fields[f].exchange(0, std::memory_order_relaxed),
                              std::memory_order_relaxed);
    for (int sh = 0; sh < kHistShards; ++sh)
      for (int b = 0; b < kHistBuckets; ++b)
        dst.hist[sh][b].fetch_add(
            hist[sh][b].exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
    bump_high_water(dst.max_ns, max_ns.exchange(0, std::memory_order_relaxed));
  }
};

// Relaxed-merged snapshot of one (context, op) entry — or of several,
// when dead contexts fold into a live ancestor or contexts merge into
// the flat per-op view.
struct OpAgg : HistAgg {
  uint64_t fields[kOpFields] = {};

  void add(const OpCounters& c) {
    for (int f = 0; f < kOpFields; ++f) fields[f] += ld(c.fields[f]);
    merge_max(ld(c.max_ns));
    for (const auto& shard : c.hist)
      for (int b = 0; b < kHistBuckets; ++b) counts[b] += ld(shard[b]);
  }
  void merge(const OpAgg& a) {
    for (int f = 0; f < kOpFields; ++f) fields[f] += a.fields[f];
    merge_max(a.max_ns);
    for (int b = 0; b < kHistBuckets; ++b) counts[b] += a.counts[b];
  }
  // An op row with no calls and no deferred residue carries no
  // information, only bytes (stats_json's trim_zero_rows drops it).
  bool all_zero() const {
    for (uint64_t v : fields)
      if (v != 0) return false;
    return this->max_ns == 0;
  }
};

// busy is a live gauge owned by in-flight parallel_for calls, so it sits
// past the fields that stats_reset zeroes.
enum PoolField : int {
  kSubmitted,      // chunks handed to parallel_for
  kChunks,         // chunks executed (any lane)
  kSteals,         // chunks executed by worker lanes
  kParks,          // idle cv-wait episodes
  kParkNs,         // total idle cv-wait duration
  kBusyHighWater,  // high-water of busy
  kBusy,           // currently-running lanes
  kPoolFields
};

struct PoolCounters {
  std::atomic<uint64_t> fields[kPoolFields] = {};
};

// Process-wide counters.  The trace counters are set when a trace ends
// (trace_dump / trace_stop) and pool_busy (the sum over pools, for the
// trace's counter event) is live, so they sit past kResetGlobals.
enum GlobalCounter : int {
  kQueueEnqueued, kQueueHighWater, kQueueDrained, kPendingHighWater,
  // SpGEMM engine decisions and scratch-arena reuse outcomes.
  kSpgemmRowsHash, kSpgemmRowsDense, kSpgemmFlopsEst, kArenaHits,
  kArenaMisses,
  // Fusion-planner outcomes across materialization batches.
  kFusionChains, kFusionOpsFused, kFusionDeadWrites,
  // Storage-format layer: publish-time switches, descriptor-transpose
  // cache outcomes, lazy canonical-view expansions.
  kFormatSwitches, kFormatTransHits, kFormatTransMisses,
  kFormatCsrConversions,
  kResetGlobals,
  kTraceEvents = kResetGlobals, kTraceDropped, kPoolBusy, kGlobals
};

std::atomic<uint64_t> g_globals[kGlobals] = {};

void global_add(GlobalCounter g, uint64_t n) {
  g_globals[g].fetch_add(n, std::memory_order_relaxed);
}

// --- context-keyed op registry --------------------------------------------
// One entry per context id ever observed (registered by context.cpp or
// implicitly created by a bump).  Entries are never erased: a retired
// context's OpCounters objects stay alive so a racing or late bump
// never writes through a dangling reference; ctx_retire drains their
// values into the nearest live ancestor and read paths re-resolve, so
// retired entries stay logically empty.  std::map keeps stats_json
// deterministic; lookups happen only on enabled paths, so a lock per
// hook is acceptable there.

struct CtxEntry {
  uint64_t parent = 0;
  bool dead = false;
  std::map<std::string, std::unique_ptr<OpCounters>> ops;
};

std::mutex& reg_mu() {
  static std::mutex mu;
  return mu;
}
std::map<uint64_t, CtxEntry>& ctx_registry() {
  static auto* reg = new std::map<uint64_t, CtxEntry>();
  return *reg;
}
std::map<int, std::unique_ptr<PoolCounters>>& pool_registry() {
  static auto* reg = new std::map<int, std::unique_ptr<PoolCounters>>();
  return *reg;
}

// Nearest live ancestor of `id` (id itself when live or unregistered).
// Caller holds reg_mu.
uint64_t resolve_live(uint64_t id) {
  auto& reg = ctx_registry();
  uint64_t cur = id;
  for (int hop = 0; hop < 64; ++hop) {
    auto it = reg.find(cur);
    if (it == reg.end() || !it->second.dead) return cur;
    if (it->second.parent == cur) return cur;
    cur = it->second.parent;
  }
  return cur;
}

OpCounters& op_counters(uint64_t ctx_id, const char* name) {
  std::lock_guard<std::mutex> lock(reg_mu());
  auto& slot = ctx_registry()[ctx_id].ops[name];
  if (slot == nullptr) slot = std::make_unique<OpCounters>();
  return *slot;
}

OpCounters& op_counters(const char* name) {
  return op_counters(current_ctx(), name);
}

PoolCounters& pool_counters(int pool_id) {
  std::lock_guard<std::mutex> lock(reg_mu());
  auto& slot = pool_registry()[pool_id];
  if (slot == nullptr) slot = std::make_unique<PoolCounters>();
  return *slot;
}

// --- lock-contention profiler ---------------------------------------------
// Fixed open-addressed table keyed by the site-name string POINTER (a
// function-name literal), so recording is allocation-free and safe
// while arbitrary library mutexes are held — the exact property the
// no-alloc-under-lock analyzer rule exists to protect.  Two literals
// with identical text in different translation units claim separate
// slots; read paths merge by strcmp.  Hist is unsharded: contended
// acquisitions are orders of magnitude rarer than op bumps.

enum LockField : int {
  kAcquires, kContended, kWaitNs, kMaxWaitNs, kLockFields
};

struct LockSiteSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> fields[kLockFields] = {};
  std::atomic<uint64_t> hist[kHistBuckets] = {};
};

constexpr size_t kLockSiteCap = 256;  // power of two
LockSiteSlot g_lock_sites[kLockSiteCap];

LockSiteSlot* lock_site_slot(const char* site) {
  size_t h = (reinterpret_cast<uintptr_t>(site) >> 3) * 0x9E3779B97F4A7C15ull;
  h >>= 48;
  for (size_t probe = 0; probe < kLockSiteCap; ++probe) {
    LockSiteSlot& s = g_lock_sites[(h + probe) & (kLockSiteCap - 1)];
    const char* cur = s.name.load(std::memory_order_acquire);
    if (cur == site) return &s;
    if (cur == nullptr) {
      if (s.name.compare_exchange_strong(cur, site,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
        return &s;
      if (cur == site) return &s;  // lost the race to ourselves
    }
  }
  return nullptr;  // table full: drop the sample (bounded by design)
}

struct LockAgg : HistAgg {
  uint64_t fields[kMaxWaitNs] = {};
};

// Name-merged read view of the site table (no lock needed: slots are
// all-atomic and never deleted).
std::map<std::string, LockAgg> lock_view() {
  std::map<std::string, LockAgg> view;
  for (const LockSiteSlot& s : g_lock_sites) {
    const char* name = s.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;
    LockAgg& a = view[name];
    for (int f = 0; f < kMaxWaitNs; ++f) a.fields[f] += ld(s.fields[f]);
    a.merge_max(ld(s.fields[kMaxWaitNs]));
    for (int b = 0; b < kHistBuckets; ++b) a.counts[b] += ld(s.hist[b]);
  }
  return view;
}

void lock_sites_reset() {
  for (LockSiteSlot& s : g_lock_sites) {
    if (s.name.load(std::memory_order_acquire) == nullptr) continue;
    for (auto& c : s.fields) c.store(0, std::memory_order_relaxed);
    for (auto& b : s.hist) b.store(0, std::memory_order_relaxed);
  }
}

// --- stall table + watchdog ------------------------------------------------

const char* const kStallClaimed = "(claiming)";

struct StallSlot {
  std::atomic<const char*> what{nullptr};  // null = free
  std::atomic<uint32_t> kind{0};
  std::atomic<uint64_t> ctx{0};
  std::atomic<uint64_t> since_ns{0};
  std::atomic<const LockOwnerInfo*> holder{nullptr};
  std::atomic<uint64_t> reported{0};  // since_ns value already tripped
};

constexpr int kStallCap = 64;
StallSlot g_stalls[kStallCap];

std::atomic<uint64_t> g_watchdog_deadline_ns{0};
std::atomic<uint64_t> g_watchdog_trips{0};

struct Watchdog {
  std::thread th;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
};

std::mutex& watchdog_ctl_mu() {
  static std::mutex mu;
  return mu;
}
Watchdog*& watchdog_instance() {
  static Watchdog* w = nullptr;
  return w;
}

void watchdog_scan() {
  const uint64_t deadline = g_watchdog_deadline_ns.load(
      std::memory_order_relaxed);
  if (deadline == 0) return;
  const uint64_t now = now_ns();
  for (StallSlot& s : g_stalls) {
    const char* what = s.what.load(std::memory_order_acquire);
    if (what == nullptr || what == kStallClaimed) continue;
    uint64_t since = s.since_ns.load(std::memory_order_relaxed);
    if (since == 0 || now <= since || now - since < deadline) continue;
    uint64_t rep = s.reported.load(std::memory_order_relaxed);
    if (rep == since) continue;  // this episode already reported
    if (!s.reported.compare_exchange_strong(rep, since,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed))
      continue;
    const uint64_t ctx = s.ctx.load(std::memory_order_relaxed);
    const uint32_t kind = s.kind.load(std::memory_order_relaxed);
    const uint64_t age_ms = (now - since) / 1000000u;
    g_watchdog_trips.fetch_add(1, std::memory_order_relaxed);
    char reason[256];
    const LockOwnerInfo* holder =
        s.holder.load(std::memory_order_relaxed);
    const char* hsite =
        holder != nullptr ? holder->site.load(std::memory_order_relaxed)
                          : nullptr;
    if (hsite != nullptr) {
      std::snprintf(reason, sizeof reason,
                    "watchdog: %s \"%s\" blocked %llums (ctx=%llu) "
                    "holder=%s (ctx=%llu)",
                    kind == kStallLockWait ? "lock-wait" : "completion",
                    what, static_cast<unsigned long long>(age_ms),
                    static_cast<unsigned long long>(ctx), hsite,
                    static_cast<unsigned long long>(
                        holder->ctx.load(std::memory_order_relaxed)));
    } else {
      std::snprintf(reason, sizeof reason,
                    "watchdog: %s \"%s\" blocked %llums (ctx=%llu)",
                    kind == kStallLockWait ? "lock-wait" : "completion",
                    what, static_cast<unsigned long long>(age_ms),
                    static_cast<unsigned long long>(ctx));
    }
    if (flight_enabled())
      record(EventKind::kWatchdog, what,
             age_ms > 0x7fffffff ? 0x7fffffff : static_cast<int32_t>(age_ms),
             {.ctx = ctx});
    fr_auto_dump(reason);
  }
}

void watchdog_loop() {
  Watchdog* w = watchdog_instance();  // stable: stop() joins before delete
  for (;;) {
    uint64_t deadline = g_watchdog_deadline_ns.load(
        std::memory_order_relaxed);
    uint64_t period_ns = deadline / 4;
    if (period_ns < 1000000u) period_ns = 1000000u;  // >= 1ms
    {
      std::unique_lock<std::mutex> lock(w->mu);
      w->cv.wait_for(lock, std::chrono::nanoseconds(period_ns));
      if (w->stop) return;
    }
    watchdog_scan();
  }
}

// --- trace ------------------------------------------------------------------
// The trace is the trace kinds of the event ring (obs/event_ring.hpp)
// from the seq trace_start returned.  A running trace reserves 2^21
// slots: the oldest trace events are overwritten once the ring wraps,
// and trace.dropped counts them.

constexpr uint64_t kTraceSlots = uint64_t{1} << 21;

// trace_start / trace_dump / trace_stop only; recording never takes it.
std::mutex& trace_ctl_mu() {
  static std::mutex mu;
  return mu;
}
std::string& trace_path() {
  static auto* path = new std::string();
  return *path;
}
std::atomic<uint64_t> g_trace_from{0};      // first seq of the trace
std::atomic<uint64_t> g_trace_recorded{0};  // trace events recorded

void trace_event(EventKind kind, const char* name, int32_t info,
                 const EventFields& f) {
  record(kind, name, info, f);
  g_trace_recorded.fetch_add(1, std::memory_order_relaxed);
}

// Trace events of the running trace that the ring has overwritten (the
// scan runs only once the ring has wrapped since trace_start).
uint64_t trace_lost() {
  const uint64_t from = g_trace_from.load(std::memory_order_relaxed);
  if (ring_head() - from <= ring_capacity()) return 0;
  uint64_t kept = 0;
  scan(from, false, [&](const Event& e) {
    kept += is_trace_kind(e.kind) ? 1 : 0;
    return true;
  });
  const uint64_t n = g_trace_recorded.load(std::memory_order_relaxed);
  return n > kept ? n - kept : 0;
}

void set_flag(uint32_t flag, bool on) {
  if (on) {
    detail::g_flags.fetch_or(flag, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~flag, std::memory_order_relaxed);
  }
}

// --- env activation state ---------------------------------------------------

bool g_env_stats = false;
bool g_env_trace = false;
std::string& env_metrics_path() {
  static auto* path = new std::string();
  return *path;
}
std::string& env_stats_json_path() {
  static auto* path = new std::string();
  return *path;
}

}  // namespace

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

// --- current op / current context -------------------------------------------

namespace detail {
constinit thread_local const char* t_current_op = nullptr;
constinit thread_local uint64_t t_current_ctx = 0;
}  // namespace detail

// --- context registry -------------------------------------------------------

void ctx_register(uint64_t ctx_id, uint64_t parent_id) {
  std::lock_guard<std::mutex> lock(reg_mu());
  CtxEntry& e = ctx_registry()[ctx_id];
  e.parent = parent_id;
  e.dead = false;
}

void ctx_retire(uint64_t ctx_id) {
  std::lock_guard<std::mutex> lock(reg_mu());
  auto& reg = ctx_registry();
  CtxEntry& e = reg[ctx_id];  // upsert: retire-before-bump is legal
  e.dead = true;
  uint64_t target = resolve_live(e.parent);
  if (target == ctx_id) return;  // no live ancestor: keep as-is
  for (auto& okv : e.ops) {
    auto& slot = reg[target].ops[okv.first];
    if (slot == nullptr) slot = std::make_unique<OpCounters>();
    okv.second->drain_into(*slot);
  }
}

// --- hooks ------------------------------------------------------------------

void api_return(const char* op, uint64_t t0, bool failed) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  uint64_t t1 = now_ns();
  if ((f & kStatsFlag) != 0) {
    OpCounters& c = op_counters(op);
    c.add(kCalls, 1);
    c.add(kNs, t1 - t0);
    c.hist_add(t1 - t0);
    if (failed) c.add(kErrors, 1);
  }
  if ((f & kTraceFlag) != 0) {
    trace_event(EventKind::kSpanApi, op, failed ? 1 : 0,
                {.ts = t0, .ctx = current_ctx(), .a = t1 - t0});
  }
}

void deferred_return(const char* op, uint64_t t0, uint64_t enq_ns,
                     bool failed) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  uint64_t t1 = now_ns();
  if ((f & kStatsFlag) != 0) {
    OpCounters& c = op_counters(op);
    c.add(kDeferred, 1);
    c.add(kDeferredNs, t1 - t0);
    c.hist_add(t1 - t0);
    if (failed) c.add(kErrors, 1);
  }
  if ((f & kTraceFlag) != 0) {
    uint64_t gap_us =
        (enq_ns != 0 && t0 > enq_ns) ? (t0 - enq_ns) / 1000u : 0;
    trace_event(EventKind::kSpanDeferred, op, 0,
                {.ts = t0, .ctx = current_ctx(), .a = t1 - t0, .b = gap_us});
  }
}

void latency_record(const char* op, uint64_t ns) {
  if (!stats_enabled()) return;
  op_counters(op).hist_add(ns);
}

void count_path(bool parallel) {
  if (!stats_enabled()) return;
  op_counters(current_op()).add(parallel ? kParallel : kSerial, 1);
}

void add_scalars(uint64_t n) {
  if (!stats_enabled()) return;
  op_counters(current_op()).add(kScalars, n);
}

void add_flops(uint64_t n) {
  if (!stats_enabled()) return;
  op_counters(current_op()).add(kFlops, n);
}

void spgemm_rows(uint64_t rows_hash, uint64_t rows_dense) {
  if (!stats_enabled()) return;
  if (rows_hash != 0) global_add(kSpgemmRowsHash, rows_hash);
  if (rows_dense != 0) global_add(kSpgemmRowsDense, rows_dense);
}

void spgemm_flops_estimated(uint64_t n) {
  if (!stats_enabled()) return;
  global_add(kSpgemmFlopsEst, n);
}

void arena_request(bool hit) {
  if (!stats_enabled()) return;
  global_add(hit ? kArenaHits : kArenaMisses, 1);
}

void fusion_plan(uint64_t chains, uint64_t ops_fused, uint64_t dead_writes) {
  if (!stats_enabled()) return;
  if (chains != 0) global_add(kFusionChains, chains);
  if (ops_fused != 0) global_add(kFusionOpsFused, ops_fused);
  if (dead_writes != 0) global_add(kFusionDeadWrites, dead_writes);
}

void fusion_span(const char* name, uint64_t t0) {
  if (!trace_enabled()) return;
  trace_event(EventKind::kSpanFusion, name, 0,
              {.ts = t0, .ctx = current_ctx(), .a = now_ns() - t0});
}

void format_switch() {
  if (!stats_enabled()) return;
  global_add(kFormatSwitches, 1);
}

void format_transpose_cache(bool hit) {
  if (!stats_enabled()) return;
  global_add(hit ? kFormatTransHits : kFormatTransMisses, 1);
}

void format_csr_convert() {
  if (!stats_enabled()) return;
  global_add(kFormatCsrConversions, 1);
}

// --- causal flow linking ----------------------------------------------------

uint64_t next_flow_id() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void flow_begin(const char* op, uint64_t flow_id) {
  if (!trace_enabled() || flow_id == 0) return;
  trace_event(EventKind::kFlowBegin, op, 0,
              {.ctx = current_ctx(), .a = flow_id});
}

void flow_step(const char* op, uint64_t flow_id) {
  if (!trace_enabled() || flow_id == 0) return;
  trace_event(EventKind::kFlowStep, op, 0,
              {.ctx = current_ctx(), .a = flow_id});
}

void queue_depth_sample(size_t depth) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  global_add(kQueueEnqueued, 1);
  bump_high_water(g_globals[kQueueHighWater], depth);
  if ((f & kTraceFlag) != 0) {
    trace_event(EventKind::kGauge, "queue.depth", 0, {.a = depth});
  }
}

void queue_drained(size_t batch) {
  if (!telemetry_enabled()) return;
  global_add(kQueueDrained, batch);
}

void pending_tuples_sample(size_t count) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  bump_high_water(g_globals[kPendingHighWater], count);
  if ((f & kTraceFlag) != 0) {
    trace_event(EventKind::kGauge, "pending.tuples", 0, {.a = count});
  }
}

int next_pool_id() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void pool_submit(int pool_id, uint64_t nchunks) {
  if (!telemetry_enabled()) return;
  pool_counters(pool_id).fields[kSubmitted].fetch_add(
      nchunks, std::memory_order_relaxed);
}

void pool_chunk(int pool_id, bool worker_lane) {
  if (!telemetry_enabled()) return;
  PoolCounters& c = pool_counters(pool_id);
  c.fields[kChunks].fetch_add(1, std::memory_order_relaxed);
  if (worker_lane) c.fields[kSteals].fetch_add(1, std::memory_order_relaxed);
}

void pool_park(int pool_id, uint64_t wait_ns) {
  if (!telemetry_enabled()) return;
  PoolCounters& c = pool_counters(pool_id);
  c.fields[kParks].fetch_add(1, std::memory_order_relaxed);
  c.fields[kParkNs].fetch_add(wait_ns, std::memory_order_relaxed);
}

void pool_busy_enter(int pool_id) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  PoolCounters& c = pool_counters(pool_id);
  uint64_t busy =
      c.fields[kBusy].fetch_add(1, std::memory_order_relaxed) + 1;
  bump_high_water(c.fields[kBusyHighWater], busy);
  uint64_t total =
      g_globals[kPoolBusy].fetch_add(1, std::memory_order_relaxed) + 1;
  if ((f & kTraceFlag) != 0) {
    trace_event(EventKind::kGauge, "pool.busy", 0, {.a = total});
  }
}

void pool_busy_exit(int pool_id) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  pool_counters(pool_id).fields[kBusy].fetch_sub(1,
                                                 std::memory_order_relaxed);
  uint64_t total =
      g_globals[kPoolBusy].fetch_sub(1, std::memory_order_relaxed) - 1;
  if ((f & kTraceFlag) != 0) {
    trace_event(EventKind::kGauge, "pool.busy", 0, {.a = total});
  }
}

// --- lock-contention profiler -----------------------------------------------

void lock_acquired(const char* site) {
  if (!stats_enabled()) return;
  LockSiteSlot* s = lock_site_slot(site);
  if (s != nullptr)
    s->fields[kAcquires].fetch_add(1, std::memory_order_relaxed);
}

void lock_wait(const char* site, uint64_t wait_ns) {
  if (!stats_enabled()) return;
  LockSiteSlot* s = lock_site_slot(site);
  if (s == nullptr) return;
  s->fields[kAcquires].fetch_add(1, std::memory_order_relaxed);
  s->fields[kContended].fetch_add(1, std::memory_order_relaxed);
  s->fields[kWaitNs].fetch_add(wait_ns, std::memory_order_relaxed);
  s->hist[hist_bucket(wait_ns)].fetch_add(1, std::memory_order_relaxed);
  bump_high_water(s->fields[kMaxWaitNs], wait_ns);
}

// --- stall table + watchdog -------------------------------------------------

int stall_begin(StallKind kind, const char* what, uint64_t ctx_id,
                const LockOwnerInfo* holder) {
  for (int i = 0; i < kStallCap; ++i) {
    const char* expected = nullptr;
    if (!g_stalls[i].what.compare_exchange_strong(
            expected, kStallClaimed, std::memory_order_acquire,
            std::memory_order_relaxed))
      continue;
    StallSlot& s = g_stalls[i];
    s.kind.store(kind, std::memory_order_relaxed);
    s.ctx.store(ctx_id, std::memory_order_relaxed);
    s.since_ns.store(now_ns(), std::memory_order_relaxed);
    s.holder.store(holder, std::memory_order_relaxed);
    s.reported.store(0, std::memory_order_relaxed);
    s.what.store(what, std::memory_order_release);
    return i;
  }
  return -1;  // table full: this wait is invisible to the watchdog
}

void stall_end(int token) {
  if (token < 0) return;
  g_stalls[token].what.store(nullptr, std::memory_order_release);
}

void watchdog_start(uint64_t deadline_ms) {
  if (deadline_ms == 0) return;
  std::lock_guard<std::mutex> lock(watchdog_ctl_mu());
  g_watchdog_deadline_ns.store(deadline_ms * 1000000ull,
                               std::memory_order_relaxed);
  if (watchdog_instance() != nullptr) return;  // re-arm: new deadline only
  auto* w = new Watchdog();
  watchdog_instance() = w;
  set_flag(kWatchdogFlag, true);
  w->th = std::thread(&watchdog_loop);
}

void watchdog_stop() {
  std::lock_guard<std::mutex> lock(watchdog_ctl_mu());
  Watchdog* w = watchdog_instance();
  if (w == nullptr) return;
  set_flag(kWatchdogFlag, false);
  {
    std::lock_guard<std::mutex> l(w->mu);
    w->stop = true;
  }
  w->cv.notify_all();
  w->th.join();
  delete w;
  watchdog_instance() = nullptr;
  g_watchdog_deadline_ns.store(0, std::memory_order_relaxed);
}

uint64_t watchdog_trips() {
  return g_watchdog_trips.load(std::memory_order_relaxed);
}

// --- control / introspection ------------------------------------------------

void stats_set_enabled(bool on) {
  set_flag(kStatsFlag, on);
  // Counters without their why are half an answer: the decision audit
  // rides the same switch, so GxB_Stats_enable always yields an
  // explainable plan.  (Disabling stats disables the audit too; the
  // profiler stays independent — it has real per-region cost.)
  decision_set_enabled(on);
}

void stats_reset() {
  std::lock_guard<std::mutex> lock(reg_mu());
  for (auto& ckv : ctx_registry())
    for (auto& okv : ckv.second.ops) okv.second->reset();
  for (auto& kv : pool_registry())
    for (int f = 0; f < kBusy; ++f)
      kv.second->fields[f].store(0, std::memory_order_relaxed);
  lock_sites_reset();
  g_watchdog_trips.store(0, std::memory_order_relaxed);
  for (int g = 0; g < kResetGlobals; ++g)
    g_globals[g].store(0, std::memory_order_relaxed);
  decision_reset();
  prof_reset();
}

// --- the metric table -------------------------------------------------------
// The rows of this module; the decision audit and the profiler contribute
// their own.  The read surfaces below are views of one walk over them.

namespace {

constexpr auto kCounter = MetricKind::kCounter;
constexpr auto kGauge = MetricKind::kGauge;
constexpr auto kSummary = MetricKind::kSummary;

template <int G>
uint64_t global_value(const Process&) { return ld(g_globals[G]); }
template <uint64_t (*F)()>
uint64_t fn_value(const Process&) { return F(); }
// While a trace runs its counts are live; trace_dump freezes them.
uint64_t trace_kept(const Process&) {
  if (!trace_enabled()) return ld(g_globals[kTraceEvents]);
  return ld(g_trace_recorded) - trace_lost();
}
uint64_t trace_dropped(const Process&) {
  return trace_enabled() ? trace_lost() : ld(g_globals[kTraceDropped]);
}
uint64_t watchdog_deadline_ms(const Process&) {
  return g_watchdog_deadline_ns.load(std::memory_order_relaxed) / 1000000u;
}
template <int F>
uint64_t op_value(const OpAgg& a) { return a.fields[F]; }
uint64_t op_total_ns(const OpAgg& a) {
  return a.fields[kNs] + a.fields[kDeferredNs];
}
template <int F>
uint64_t pool_value(const PoolCounters& c) { return ld(c.fields[F]); }
template <int F>
uint64_t lock_value(const LockAgg& a) { return a.fields[F]; }
template <class A, int Pct>
uint64_t quantile_value(const A& a) { return a.quantile(Pct); }
template <class A>
uint64_t samples_value(const A& a) { return a.samples(); }
template <class A>
uint64_t max_value(const A& a) { return a.max_ns; }

const Metric<Process> kGlobalMetrics[] = {
    {"queue.enqueued", "grb_queue_enqueued_total", "", kCounter,
     "Deferred methods enqueued.", &global_value<kQueueEnqueued>},
    {"queue.high_water", "grb_queue_high_water", "", kGauge,
     "Deepest deferred queue observed.", &global_value<kQueueHighWater>},
    {"queue.drained", "grb_queue_drained_total", "", kCounter,
     "Deferred methods drained by completion.", &global_value<kQueueDrained>},
    {"pending.high_water", "grb_pending_tuples_high_water", "", kGauge,
     "Most pending tuples on one object.", &global_value<kPendingHighWater>},
    {"trace.events", "grb_trace_events_total", "", kCounter,
     "Trace events the running (or last dumped) trace holds.", &trace_kept},
    {"trace.dropped", "grb_trace_dropped_total", "", kCounter,
     "Oldest trace events overwritten when the ring wrapped.",
     &trace_dropped},
    {"spgemm.rows_hash", "grb_spgemm_rows_total", "accumulator=\"hash\"",
     kCounter, "SpGEMM output rows by accumulator.",
     &global_value<kSpgemmRowsHash>},
    {"spgemm.rows_dense", "grb_spgemm_rows_total", "accumulator=\"dense\"",
     kCounter, "", &global_value<kSpgemmRowsDense>},
    {"spgemm.flops_estimated", "grb_spgemm_flops_estimated_total", "", kCounter,
     "Symbolic-pass flop estimates.", &global_value<kSpgemmFlopsEst>},
    {"arena.reuse_hits", "grb_arena_reuse_total", "outcome=\"hit\"", kCounter,
     "Scratch-arena requests by reuse outcome.", &global_value<kArenaHits>},
    {"arena.reuse_misses", "grb_arena_reuse_total", "outcome=\"miss\"",
     kCounter, "", &global_value<kArenaMisses>},
    {"fusion.chains", "grb_fusion_chains_total", "", kCounter,
     "Fused chains selected by the planner.", &global_value<kFusionChains>},
    {"fusion.ops_fused", "grb_fusion_ops_fused_total", "", kCounter,
     "Nodes run inside fused chains.", &global_value<kFusionOpsFused>},
    {"fusion.dead_writes_eliminated", "grb_fusion_dead_writes_eliminated_total",
     "", kCounter, "Dead deferred writes eliminated.",
     &global_value<kFusionDeadWrites>},
    {"format.switches", "grb_format_switches_total", "", kCounter,
     "Publish-time storage-format conversions.",
     &global_value<kFormatSwitches>},
    {"format.transpose_cache_hits", "grb_format_transpose_cache_total",
     "outcome=\"hit\"", kCounter,
     "Descriptor-transpose reads by cache outcome.",
     &global_value<kFormatTransHits>},
    {"format.transpose_cache_misses", "grb_format_transpose_cache_total",
     "outcome=\"miss\"", kCounter, "", &global_value<kFormatTransMisses>},
    {"format.csr_conversions", "grb_format_csr_conversions_total", "", kCounter,
     "Lazy canonical-view expansions of non-CSR blocks.",
     &global_value<kFormatCsrConversions>},
    {"mem.live_bytes", "grb_memory_live_bytes", "", kGauge,
     "Tracked bytes currently allocated.", &fn_value<&mem_live_total>},
    {"mem.peak_bytes", "grb_memory_peak_bytes", "", kGauge,
     "High-water mark of tracked bytes.", &fn_value<&mem_peak_total>},
    {"mem.arena_live_bytes", "grb_arena_live_bytes", "", kGauge,
     "Scratch-arena bytes currently held.", &fn_value<&mem_arena_live>},
    {"mem.arena_peak_bytes", "grb_arena_peak_bytes", "", kGauge,
     "Scratch-arena high-water mark.", &fn_value<&mem_arena_peak>},
    {"mem.objects", "grb_objects", "", kGauge, "Live GrB containers.",
     &fn_value<&mem_object_count>},
    {"flight.events", "grb_flight_recorder_events_total", "", kCounter,
     "Events recorded into the event ring since it came up.",
     &fn_value<&ring_events>},
    {"flight.overwrites", "grb_flight_recorder_overwrites_total", "", kCounter,
     "Ring events lost to wrap or to a shrinking resize.",
     &fn_value<&ring_overwrites>},
    {"flight.capacity", "grb_flight_recorder_capacity", "", kGauge,
     "Event-ring slots (flight, trace and decision events share them).",
     &fn_value<&ring_capacity>},
    {"watchdog.trips", "grb_watchdog_trips_total", "", kCounter,
     "Stall-watchdog deadline violations detected.",
     &fn_value<&watchdog_trips>},
    {"watchdog.deadline_ms", "grb_watchdog_deadline_ms", "", kGauge,
     "Armed stall-watchdog deadline (0 = off).", &watchdog_deadline_ms},
};

// Per (context, op); GxB_Stats_get sums an op over every context.
const Metric<OpAgg> kOpMetrics[] = {
    {"calls", "grb_op_calls_total", "", kCounter,
     "C API entry-point invocations.", &op_value<kCalls>},
    {"ns", "grb_op_ns_total", "", kCounter, "Nanoseconds inside entry points.",
     &op_value<kNs>},
    {"errors", "grb_op_errors_total", "", kCounter,
     "Entry points returning an error.", &op_value<kErrors>},
    {"scalars", "grb_op_scalars_total", "", kCounter,
     "Scalars written back by the op.", &op_value<kScalars>},
    {"flops", "grb_op_flops_total", "", kCounter,
     "Multiply work of mxm / mxv / vxm.", &op_value<kFlops>},
    {"serial", "grb_op_path_total", "path=\"serial\"", kCounter,
     "Serial-fallback gate decisions by path taken.", &op_value<kSerial>},
    {"parallel", "grb_op_path_total", "path=\"parallel\"", kCounter, "",
     &op_value<kParallel>},
    {"deferred", "grb_op_deferred_total", "", kCounter,
     "Deferred executions of queued methods.", &op_value<kDeferred>},
    {"deferred_ns", "grb_op_deferred_ns_total", "", kCounter,
     "Nanoseconds in deferred executions.", &op_value<kDeferredNs>},
    {"p50_ns", "grb_op_latency_ns", "quantile=\"0.5\"", kSummary,
     "Per-op latency by context (log2-bucket quantile upper bounds, clamped "
     "to the max).", &quantile_value<OpAgg, 50>},
    {"p90_ns", "grb_op_latency_ns", "quantile=\"0.9\"", kSummary, "",
     &quantile_value<OpAgg, 90>},
    {"p99_ns", "grb_op_latency_ns", "quantile=\"0.99\"", kSummary, "",
     &quantile_value<OpAgg, 99>},
    {"total_ns", "grb_op_latency_ns_sum", "", kSummary, "", &op_total_ns},
    {"samples", "grb_op_latency_ns_count", "", kSummary, "",
     &samples_value<OpAgg>},
    {"max_ns", "grb_op_latency_max_ns", "", kGauge, "Exact worst-case latency.",
     &max_value<OpAgg>},
};

// A live context (dead ones fold into their nearest live ancestor): its
// ops, and the memory of the containers homed there.
struct CtxView {
  uint64_t parent = 0;
  bool live = true;
  CtxMemSlice mem;
  std::map<std::string, OpAgg> ops;
};

const Metric<CtxView> kContextMetrics[] = {
    {"mem.live_bytes", "grb_context_memory_live_bytes", "", kGauge,
     "Tracked bytes homed in each context.",
     [](const CtxView& c) { return c.mem.live_bytes; }},
    {"mem.peak_bytes", "grb_context_memory_peak_bytes", "", kGauge,
     "Sum of per-object peak bytes homed in each context.",
     [](const CtxView& c) { return c.mem.peak_bytes; }},
    {"mem.objects", "grb_context_objects", "", kGauge,
     "Live GrB containers homed in each context.",
     [](const CtxView& c) { return c.mem.objects; }},
};

const Metric<PoolCounters> kPoolMetrics[] = {
    {"submitted", "grb_pool_chunks_submitted_total", "", kCounter,
     "Chunks handed to parallel_for.", &pool_value<kSubmitted>},
    {"chunks", "grb_pool_chunks_executed_total", "", kCounter,
     "Chunks executed on any lane.", &pool_value<kChunks>},
    {"steals", "grb_pool_steals_total", "", kCounter,
     "Chunks executed by worker lanes.", &pool_value<kSteals>},
    {"parks", "grb_pool_parks_total", "", kCounter,
     "Idle episodes of pool workers.", &pool_value<kParks>},
    {"park_ns", "grb_pool_park_ns_total", "", kCounter,
     "Nanoseconds pool workers spent idle.", &pool_value<kParkNs>},
    {"busy_high_water", "grb_pool_busy_high_water", "", kGauge,
     "Most pool lanes running at once.", &pool_value<kBusyHighWater>},
};

const Metric<LockAgg> kLockMetrics[] = {
    {"acquires", "grb_lock_acquisitions_total", "", kCounter,
     "Scoped-lock acquisitions by site.", &lock_value<kAcquires>},
    {"contended", "grb_lock_contended_total", "", kCounter,
     "Acquisitions that blocked.", &lock_value<kContended>},
    {"p50_ns", "grb_lock_wait_ns", "quantile=\"0.5\"", kSummary,
     "Blocked-acquisition wait time by site (log2-bucket quantile upper "
     "bounds, clamped to the max).", &quantile_value<LockAgg, 50>},
    {"p90_ns", "grb_lock_wait_ns", "quantile=\"0.9\"", kSummary, "",
     &quantile_value<LockAgg, 90>},
    {"p99_ns", "grb_lock_wait_ns", "quantile=\"0.99\"", kSummary, "",
     &quantile_value<LockAgg, 99>},
    {"wait_ns", "grb_lock_wait_ns_sum", "", kSummary, "", &lock_value<kWaitNs>},
    {"samples", "grb_lock_wait_ns_count", "", kSummary, "",
     &samples_value<LockAgg>},
    {"max_ns", "grb_lock_wait_max_ns", "", kGauge,
     "Exact worst blocked wait by site.", &max_value<LockAgg>},
};

// --- dimensions -------------------------------------------------------------

// Prometheus label-value escaping (exposition format 0.0.4): backslash,
// double-quote and newline must be escaped inside label values.
void prom_escape(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '\\' || c == '"') out->push_back('\\');
    if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

// Appends key="value" to a label body.
std::string label(const char* key, std::string_view value,
                  std::string body = {}) {
  if (!body.empty()) body.push_back(',');
  body.append(key).append("=\"");
  prom_escape(&body, value);
  body.push_back('"');
  return body;
}

// One member of a dimension: its get-name segment, the JSON object its
// rows land in, its Prometheus labels, the context of its stats_get_ctx
// spelling (-1: none), and what the rows read.
template <class T>
struct Instance {
  std::string key;
  std::vector<std::string> path;
  std::string labels;
  const T* value;
  int64_t ctx = -1;
};
template <class T>
using Instances = std::vector<Instance<T>>;

// The parts of the table: a surface reads all of them, a dotted-name
// lookup only the one its name resolves to (see part_of).
enum Part : unsigned {
  kProcessPart = 1u << 0,    // process rows (read live, nothing to gather)
  kOpsPart = 1u << 1,        // op rows summed over contexts
  kContextsPart = 1u << 2,   // per-context op and memory rows
  kPoolsPart = 1u << 3,      // "pool." rows
  kLocksPart = 1u << 4,      // "lock." rows
  kDecisionsPart = 1u << 5,  // "decision." rows (read live)
  kProfPart = 1u << 6,       // "prof." rows
  kAllParts = (1u << 7) - 1,
};

// Everything the read surfaces show, read once: memory slices first
// (obj_mu strictly before reg_mu), profiler regions, then the registry.
struct Snapshot {
  std::map<uint64_t, CtxView> contexts;
  std::map<std::string, OpAgg> ops;  // merged over contexts
  std::map<int, const PoolCounters*> pools;
  std::map<std::string, LockAgg> locks;
  std::vector<ProfRegion> prof;
};

// `trim_zero_rows` drops all-zero op rows and contexts left with
// neither ops nor memory.  Only the sources of `parts` are read, and
// only the op `op` when one is named.
Snapshot take_snapshot(bool trim_zero_rows, unsigned parts = kAllParts,
                       std::string_view op = {}) {
  Snapshot s;
  std::vector<CtxMemSlice> mem;
  if (parts & kContextsPart) mem = mem_by_ctx();
  if (parts & kProfPart) s.prof = prof_regions();
  if (parts & kLocksPart) s.locks = lock_view();
  std::lock_guard<std::mutex> lock(reg_mu());
  if (parts & kPoolsPart)
    for (auto& [id, p] : pool_registry()) s.pools[id] = p.get();
  if (!(parts & (kOpsPart | kContextsPart))) return s;
  for (auto& [id, entry] : ctx_registry()) {
    if (entry.ops.empty()) continue;
    CtxView& c = s.contexts[resolve_live(id)];
    for (auto& [name, counters] : entry.ops)
      if (op.empty() || name == op) c.ops[name].add(*counters);
  }
  for (const CtxMemSlice& sl : mem) {
    CtxMemSlice& dst = s.contexts[resolve_live(sl.ctx)].mem;
    dst.live_bytes += sl.live_bytes;
    dst.peak_bytes += sl.peak_bytes;
    dst.objects += sl.objects;
  }
  for (auto it = s.contexts.begin(); it != s.contexts.end();) {
    CtxView& c = it->second;
    auto reg = ctx_registry().find(it->first);
    if (reg != ctx_registry().end()) {
      c.parent = reg->second.parent;
      c.live = !reg->second.dead;
    }
    if (trim_zero_rows)
      std::erase_if(c.ops, [](const auto& kv) { return kv.second.all_zero(); });
    for (const auto& [op, a] : c.ops) s.ops[op].merge(a);
    bool empty = c.ops.empty() && c.mem.live_bytes == 0 && c.mem.objects == 0;
    it = trim_zero_rows && empty ? s.contexts.erase(it) : std::next(it);
  }
  return s;
}

// Get-only profiler names: the region count ("regions_total" in the
// JSON) and the backend id (a label in the exposition).
uint64_t prof_region_total(const Snapshot& s) {
  uint64_t n = 0;
  for (const ProfRegion& r : s.prof) n += r.n[kProfCount];
  return n;
}
const Metric<Snapshot> kProfAliases[] = {
    {"regions", "", "", kCounter, "", &prof_region_total},
    {"backend", "", "", kGauge, "",
     [](const Snapshot&) { return static_cast<uint64_t>(prof_backend()); }},
};

// --- the walk ---------------------------------------------------------------
// Reads every row for every instance of its dimension, row-major so a
// Prometheus family's samples stay contiguous; the surfaces visit it.
// A dimension's `get_prefix` starts its get names, `json` / `prom` say
// whether the document / exposition carry it, and with `totals` a bare
// "<prefix><field>" names a counter's sum over the instances.
struct Dim {
  std::string_view get_prefix;
  bool json = true;
  bool prom = true;
  bool totals = false;
};

// visit(dim, row, &instance, value), or a nullptr instance for a total.
template <class T, class Visit>
void visit_rows(const Dim& d, MetricTable<T> rows, const Instances<T>& insts,
                Visit& visit) {
  for (const Metric<T>& m : rows) {
    uint64_t total = 0;
    for (const Instance<T>& in : insts) {
      const uint64_t value = m.read(*in.value);
      total += value;
      visit(d, m, &in, value);
    }
    if (d.totals && m.kind != kSummary)
      visit(d, m, static_cast<const Instance<T>*>(nullptr), total);
  }
}

// The get-name prefixes of the parts that have one; every other
// process-wide name is a process or op row.
constexpr std::pair<std::string_view, Part> kPrefixedParts[] = {
    {"pool.", kPoolsPart},
    {"lock.", kLocksPart},
    {"decision.", kDecisionsPart},
    {"prof.", kProfPart},
};

// The part a process-wide get name reads.
unsigned part_of(std::string_view name) {
  for (const auto& [prefix, part] : kPrefixedParts)
    if (name.starts_with(prefix)) return part;
  return kProcessPart | kOpsPart;
}

template <class Visit>
void walk(const Snapshot& s, Visit&& visit, unsigned parts = kAllParts) {
  static const Process kProcess;
  if (parts & kProcessPart) {
    const Instances<Process> process = {{"", {"global"}, "", &kProcess}};
    visit_rows<Process>({""}, kGlobalMetrics, process, visit);
  }

  if (parts & kOpsPart) {
    Instances<OpAgg> flat;
    for (const auto& [op, a] : s.ops)
      flat.push_back({op, {"ops", op}, "", &a});
    visit_rows<OpAgg>({"", true, false}, kOpMetrics, flat, visit);
  }
  if (parts & kContextsPart) {
    Instances<OpAgg> by_ctx;
    Instances<CtxView> contexts;
    for (const auto& [id, c] : s.contexts) {
      std::string key = std::to_string(id);
      auto ctx = static_cast<int64_t>(id);
      contexts.push_back(
          {"", {"contexts", key}, label("context", key), &c, ctx});
      for (const auto& [op, a] : c.ops)
        by_ctx.push_back({op, {"contexts", key, "ops", op},
                          label("context", key, label("op", op)), &a, ctx});
    }
    visit_rows<OpAgg>({""}, kOpMetrics, by_ctx, visit);
    visit_rows<CtxView>({""}, kContextMetrics, contexts, visit);
  }

  if (parts & kPoolsPart) {
    Instances<PoolCounters> pools;
    for (const auto& [id, p] : s.pools) {
      std::string key = std::to_string(id);
      pools.push_back({key, {"pools", key}, label("pool", key), p});
    }
    visit_rows<PoolCounters>({"pool.", true, true, true}, kPoolMetrics, pools,
                             visit);
  }

  if (parts & kLocksPart) {
    Instances<LockAgg> locks;
    for (const auto& [site, a] : s.locks)
      locks.push_back({site, {"locks", site}, label("site", site), &a});
    visit_rows<LockAgg>({"lock.", true, true, true}, kLockMetrics, locks,
                        visit);
  }

  if (parts & kDecisionsPart) {
    const Instances<Process> ring = {{"", {"decisions"}, "", &kProcess}};
    visit_rows<Process>({"decision."}, decision_ring_metrics(), ring, visit);
    static const auto kSites = [] {
      std::array<DecisionSite, kDecisionSiteCount> a{};
      for (int i = 0; i < kDecisionSiteCount; ++i)
        a[i] = static_cast<DecisionSite>(i);
      return a;
    }();
    Instances<DecisionSite> sites;
    for (const DecisionSite& site : kSites) {
      const char* name = decision_site_name(site);
      sites.push_back({name, {"decisions", "sites", name}, label("site", name),
                       &site});
    }
    visit_rows<DecisionSite>({"decision.", true, true, true},
                             decision_site_metrics(), sites, visit);
  }

  if (parts & kProfPart) {
    // Regions are keyed by position, as in the JSON "prof.regions" array.
    Instances<ProfRegion> regions;
    for (size_t i = 0; i < s.prof.size(); ++i) {
      const ProfRegion& r = s.prof[i];
      std::string key = std::to_string(i);
      regions.push_back(
          {key, {"prof", "regions", key},
           label("context", std::to_string(r.ctx),
                 label("strategy", r.strategy, label("op", r.op))),
           &r});
    }
    visit_rows<ProfRegion>({"prof.", true, true, true}, prof_region_metrics(),
                           regions, visit);
    visit_rows<Snapshot>({"prof.", false, false}, kProfAliases,
                         {{"", {}, "", &s}}, visit);
  }
}

bool strip_prefix(std::string_view* s, std::string_view prefix) {
  if (!s->starts_with(prefix)) return false;
  s->remove_prefix(prefix.size());
  return true;
}

// Looks `name` up among the cells of context `ctx` (-1: the
// process-wide spellings) in `parts`, comparing it piece by piece.
bool find_cell(const Snapshot& s, int64_t ctx, const char* name,
               unsigned parts, uint64_t* value) {
  *value = 0;
  bool found = false;
  walk(s, [&](const Dim& d, const auto& m, const auto* in, uint64_t v) {
    std::string_view rest = name == nullptr ? "" : name;
    if (found || (in != nullptr ? in->ctx : -1) != ctx ||
        !strip_prefix(&rest, d.get_prefix))
      return;
    if (in != nullptr && !in->key.empty() &&
        !(strip_prefix(&rest, in->key) && strip_prefix(&rest, ".")))
      return;
    if (rest != m.name) return;
    *value = v;
    found = true;
  }, parts);
  return found;
}

constexpr const char* kTypeName[] = {"counter", "gauge", "summary"};

// family{instance labels,row labels}
template <class T>
std::string prom_series(const Metric<T>& m, const Instance<T>& in) {
  std::string series = m.family;
  if (in.labels.empty() && m.labels[0] == '\0') return series;
  series.append("{").append(in.labels);
  if (!in.labels.empty() && m.labels[0] != '\0') series.push_back(',');
  return series.append(m.labels).append("}");
}

// --- JSON -------------------------------------------------------------------

void json_escape(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

// stats_json's document: a leaf holds its rendered value, an object or
// array its members in first-insertion order.
struct JsonNode {
  std::string leaf;
  bool array = false;
  std::vector<std::string> keys;
  std::vector<JsonNode> members;

  JsonNode& at(std::string_view key) {
    for (size_t i = 0; i < keys.size(); ++i)
      if (keys[i] == key) return members[i];
    keys.emplace_back(key);
    return members.emplace_back();
  }
  JsonNode& at(const std::vector<std::string>& path) {
    JsonNode* n = this;
    for (const std::string& key : path) n = &n->at(key);
    return *n;
  }

  void render(std::string* out) const {
    if (!leaf.empty()) {
      out->append(leaf);
      return;
    }
    out->push_back(array ? '[' : '{');
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out->push_back(',');
      if (!array) {
        json_escape(out, keys[i]);
        out->push_back(':');
      }
      members[i].render(out);
    }
    out->push_back(array ? ']' : '}');
  }
};

}  // namespace

std::vector<MetricCell> metric_cells() {
  std::vector<MetricCell> cells;
  walk(take_snapshot(false),
       [&](const Dim& d, const auto& m, const auto* in, uint64_t v) {
         MetricCell c{std::string(d.get_prefix), -1, {}, "", v};
         if (in != nullptr) {
           if (!in->key.empty()) c.get_name.append(in->key).push_back('.');
           c.get_ctx = in->ctx;
           if (d.json) c.json_path = in->path;
           if (d.json) c.json_path.emplace_back(m.name);
           if (d.prom) c.prom_series = prom_series(m, *in);
         }
         c.get_name.append(m.name);
         cells.push_back(std::move(c));
       });
  return cells;
}

// A lookup resolves its name to one part and reads only that part; an
// op row "<op>.<field>" reads only that op (op fields have no dots).
std::string_view op_of(std::string_view name) {
  return name.substr(0, std::min(name.rfind('.'), name.size()));
}

bool stats_get(const char* name, uint64_t* value) {
  const std::string_view n = name == nullptr ? "" : name;
  const unsigned parts = part_of(n);
  return find_cell(take_snapshot(false, parts, op_of(n)), -1, name, parts,
                   value);
}

bool stats_get_ctx(uint64_t ctx_id, const char* name, uint64_t* value) {
  const std::string_view n = name == nullptr ? "" : name;
  Snapshot s = take_snapshot(false, kContextsPart, op_of(n));
  s.contexts[ctx_id];  // a context nothing was attributed to still answers
  return find_cell(s, static_cast<int64_t>(ctx_id), name, kContextsPart,
                   value);
}

std::string stats_json(bool trim_zero_rows) {
  Snapshot s = take_snapshot(trim_zero_rows);
  // The blocks and the members that are not metrics come first; the
  // cells fill in the rest.
  JsonNode doc;
  for (const char* block : {"ops", "global", "pools", "contexts", "locks"})
    doc.at(block);
  doc.at("decisions").at("enabled").leaf =
      decision_enabled() ? "true" : "false";
  JsonNode& prof = doc.at("prof");
  json_escape(&prof.at("backend").leaf, prof_backend_name());
  prof.at("enabled").leaf = prof_enabled() ? "true" : "false";
  prof.at("regions_total").leaf = std::to_string(prof_region_total(s));
  prof.at("regions").array = true;
  for (const auto& [id, c] : s.contexts) {
    JsonNode& ctx = doc.at("contexts").at(std::to_string(id));
    ctx.at("parent").leaf = std::to_string(c.parent);
    ctx.at("live").leaf = c.live ? "true" : "false";
    ctx.at("ops");
  }
  for (size_t i = 0; i < s.prof.size(); ++i) {
    JsonNode& r = prof.at("regions").at(std::to_string(i));
    r.at("ctx").leaf = std::to_string(s.prof[i].ctx);
    json_escape(&r.at("op").leaf, s.prof[i].op);
    json_escape(&r.at("strategy").leaf, s.prof[i].strategy);
  }
  walk(s, [&](const Dim& d, const auto& m, const auto* in, uint64_t v) {
    if (d.json && in != nullptr)
      doc.at(in->path).at(m.name).leaf = std::to_string(v);
  });
  std::string out;
  doc.render(&out);
  return out;
}

std::string stats_prometheus() {
  std::string out;
  const void* row = nullptr;
  walk(take_snapshot(false),
       [&](const Dim& d, const auto& m, const auto* in, uint64_t v) {
         if (!d.prom || in == nullptr) return;
         if (&m != row && m.help[0] != '\0') {
           out.append("# HELP ").append(m.family).append(" ").append(m.help);
           out.append("\n# TYPE ").append(m.family).append(" ");
           out.append(kTypeName[static_cast<int>(m.kind)]).push_back('\n');
         }
         row = &m;
         out.append(prom_series(m, *in)).append(" ");
         out.append(std::to_string(v)).push_back('\n');
       });
  out.append("# HELP grb_prof_backend_info Live hardware-profiler backend "
             "(1 = active).\n# TYPE grb_prof_backend_info gauge\n"
             "grb_prof_backend_info{")
      .append(label("backend", prof_backend_name()))
      .append("} 1\n");
  return out;
}

bool trace_start(const char* path) {
  std::lock_guard<std::mutex> lock(trace_ctl_mu());
  trace_path() = path != nullptr ? path : "";
  g_trace_recorded.store(0, std::memory_order_relaxed);
  g_trace_from.store(ring_reserve(RingUser::kTrace, kTraceSlots),
                     std::memory_order_relaxed);
  set_flag(kTraceFlag, true);
  return true;
}

namespace {

// Writes one trace-kind event as a Chrome trace-event JSON object.
void write_trace_event(std::FILE* f, const Event& e) {
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  const double ts = e.f.ts / 1000.0;
  switch (e.kind) {
    case EventKind::kSpanApi:
    case EventKind::kSpanDeferred:
    case EventKind::kSpanFusion: {
      const char* cat = e.kind == EventKind::kSpanApi        ? "api"
                        : e.kind == EventKind::kSpanDeferred ? "deferred"
                                                             : "fusion";
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                   e.name, cat, e.tid, ts, e.f.a / 1000.0);
      // One optional arg: "failed" on an api span, "gap_us" (the
      // deferral gap) on a deferred one; then the tenant context.
      const bool failed = e.kind == EventKind::kSpanApi && e.info != 0;
      const bool gap = e.kind == EventKind::kSpanDeferred;
      if (failed || gap || e.f.ctx != 0) {
        std::fputs(",\"args\":{", f);
        if (failed) std::fputs("\"failed\":1", f);
        if (gap) std::fprintf(f, "\"gap_us\":%llu", u(e.f.b));
        if (e.f.ctx != 0)
          std::fprintf(f, "%s\"ctx\":%llu", failed || gap ? "," : "",
                       u(e.f.ctx));
        std::fputs("}", f);
      }
      std::fputs("}", f);
      break;
    }
    case EventKind::kFlowBegin:
    case EventKind::kFlowStep:
      // Same name/cat/id on both ends so the viewer draws the arrow from
      // the enqueue ("s") to the execution ("t"), each binding to its
      // enclosing slice by (tid, ts).
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"%c\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                   e.name, e.kind == EventKind::kFlowBegin ? 's' : 't',
                   u(e.f.a), e.tid, ts);
      if (e.f.ctx != 0) std::fprintf(f, ",\"args\":{\"ctx\":%llu}", u(e.f.ctx));
      std::fputs("}", f);
      break;
    default:  // kGauge
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"args\":{\"value\":%llu}}",
                   e.name, e.tid, ts, u(e.f.a));
  }
}

// Ends the running trace: freezes trace.events / trace.dropped at the
// `kept` events written and drops the ring reservation.
void trace_end(uint64_t kept) {
  const uint64_t n = g_trace_recorded.load(std::memory_order_relaxed);
  g_globals[kTraceEvents].store(kept, std::memory_order_relaxed);
  g_globals[kTraceDropped].store(n > kept ? n - kept : 0,
                                 std::memory_order_relaxed);
  ring_reserve(RingUser::kTrace, 0);
  trace_path().clear();
}

}  // namespace

bool trace_dump(const char* path) {
  std::lock_guard<std::mutex> lock(trace_ctl_mu());
  set_flag(kTraceFlag, false);
  std::string target = path != nullptr ? path : trace_path();
  if (target.empty()) return false;
  std::FILE* f = std::fopen(target.c_str(), "w");
  if (f == nullptr) return false;
  // droppedEvents lets consumers (grb_trace_summarize.py) warn loudly
  // when the ring overwrote the oldest part of the recording.
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":%llu,"
                  "\"traceEvents\":[",
               static_cast<unsigned long long>(trace_lost()));
  uint64_t written = 0;
  const auto write = [&](const Event& e) {
    if (!is_trace_kind(e.kind)) return true;
    std::fputs(written++ == 0 ? "\n" : ",\n", f);
    write_trace_event(f, e);
    return true;
  };
  scan(g_trace_from.load(std::memory_order_relaxed), false, write);
  std::fputs("\n]}\n", f);
  bool ok = std::fclose(f) == 0;
  trace_end(written);
  return ok;
}

void trace_stop() {
  std::lock_guard<std::mutex> lock(trace_ctl_mu());
  set_flag(kTraceFlag, false);
  trace_end(ld(g_trace_recorded) - trace_lost());
}

void env_activate() {
  const char* stats = std::getenv("GRB_STATS");
  if (stats != nullptr && stats[0] != '\0' &&
      std::strcmp(stats, "0") != 0) {
    stats_set_enabled(true);
    g_env_stats = true;
  }
  const char* trace = std::getenv("GRB_TRACE");
  if (trace != nullptr && trace[0] != '\0') {
    trace_start(trace);
    g_env_trace = true;
  }
  // GRB_METRICS=path.prom: counters on now, Prometheus text exposition
  // written at finalize.
  const char* metrics = std::getenv("GRB_METRICS");
  if (metrics != nullptr && metrics[0] != '\0') {
    env_metrics_path() = metrics;
    stats_set_enabled(true);
  }
  // GRB_WATCHDOG=ms: arm the stall watchdog.
  const char* wd = std::getenv("GRB_WATCHDOG");
  if (wd != nullptr && wd[0] != '\0') {
    watchdog_start(std::strtoull(wd, nullptr, 10));
  }
  // GRB_STATS_JSON=path: counters on now, the full stats_json document
  // (including the decisions / prof blocks) written at finalize — the
  // input side of tools/grb_prof_report.py.
  const char* sjson = std::getenv("GRB_STATS_JSON");
  if (sjson != nullptr && sjson[0] != '\0') {
    env_stats_json_path() = sjson;
    stats_set_enabled(true);
  }
  // GRB_DECISIONS=1 / GRB_PROF=1: decision audit and hardware profiler.
  decision_env_activate();
  prof_env_activate();
  // GRB_FLIGHT_RECORDER / GRB_FLIGHT_DUMP; default-on (4096 events).
  fr_env_activate();
}

namespace {

// Writes one GrB_finalize dump to `*path` (then forgets the path).
void write_dump(std::string* path, std::string (*render)(), const char* var) {
  if (path->empty()) return;
  std::FILE* f = std::fopen(path->c_str(), "w");
  if (f != nullptr) {
    std::fputs(render().c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "grb-obs: failed to write %s file\n", var);
  }
  path->clear();
}

}  // namespace

void env_finalize() {
  watchdog_stop();
  if (g_env_trace) {
    if (!trace_dump(nullptr)) {
      std::fprintf(stderr, "grb-obs: failed to write GRB_TRACE file\n");
    }
    g_env_trace = false;
  }
  const bool dumped =
      !env_metrics_path().empty() || !env_stats_json_path().empty();
  write_dump(&env_metrics_path(), &stats_prometheus, "GRB_METRICS");
  write_dump(&env_stats_json_path(), [] { return stats_json() + "\n"; },
             "GRB_STATS_JSON");
  if (dumped && !g_env_stats) {
    stats_set_enabled(false);
    stats_reset();
  }
  if (g_env_stats) {
    std::fprintf(stderr, "GRB_STATS %s\n", stats_json().c_str());
    stats_set_enabled(false);
    stats_reset();
    g_env_stats = false;
  }
}

}  // namespace obs
}  // namespace grb
