#include "obs/event_ring.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <thread>

#include "obs/telemetry.hpp"

namespace grb {
namespace obs {

namespace {

// One ring slot: eight words, one cache line (the ring is page-aligned),
// so an event write touches exactly one line.  The words are plain so a
// fresh ring is untouched zero pages (a 2^21-slot trace ring costs
// memory only where it is written); every access goes through
// std::atomic_ref, so writers that lap each other onto one slot stay
// data-race-free.  Word 0 brackets the rest: 0 while the slot is being
// written, seq + 1 once it is published.
struct Slot {
  uint64_t w[8];  // seq + 1, ts, info << 32 | kind << 24 | tid, name,
                  // ctx, a, b, c
};
static_assert(sizeof(Slot) == 64);

uint64_t get(uint64_t& w) {
  return std::atomic_ref<uint64_t>(w).load(std::memory_order_relaxed);
}
void put(uint64_t& w, uint64_t v) {
  std::atomic_ref<uint64_t>(w).store(v, std::memory_order_relaxed);
}

struct Ring {
  Slot* slots = nullptr;
  uint64_t mask = 0;
};

constexpr uint64_t kMaxCapacity = uint64_t{1} << 24;

std::atomic<Ring*> g_ring{nullptr};
std::atomic<uint64_t> g_head{0};  // global seq, never reset

// Control state, written under ctl_mu() only; the atomics let stats
// readers see it without the lock.
std::mutex& ctl_mu() {
  static std::mutex mu;
  return mu;
}
Ring g_pool[25];  // one ring per power of two up to kMaxCapacity
uint64_t g_reserved[3] = {};
std::atomic<uint64_t> g_base{0};    // head when the ring came up
std::atomic<uint64_t> g_window{0};  // oldest seq the current ring took
std::atomic<uint64_t> g_lost{0};    // events dropped by earlier resizes

uint32_t this_tid() {
  static thread_local const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffu);
  return tid;
}

// The one write path: invalidate, fill, publish.
void fill_slot(Slot& s, const Event& e) {
  const uint64_t v[7] = {
      e.f.ts,
      static_cast<uint64_t>(static_cast<uint32_t>(e.info)) << 32 |
          static_cast<uint64_t>(e.kind) << 24 | e.tid,
      reinterpret_cast<uintptr_t>(e.name), e.f.ctx, e.f.a, e.f.b, e.f.c};
  put(s.w[0], 0);
  std::atomic_thread_fence(std::memory_order_release);
  for (int i = 0; i < 7; ++i) put(s.w[i + 1], v[i]);
  std::atomic_ref<uint64_t>(s.w[0]).store(e.seq + 1,
                                          std::memory_order_release);
}

// The one read path: false when slot `seq` is torn, lapped or stale.
bool load_slot(const Ring& r, uint64_t seq, Event* e) {
  Slot& s = r.slots[seq & r.mask];
  if (std::atomic_ref<uint64_t>(s.w[0]).load(std::memory_order_acquire) !=
      seq + 1)
    return false;
  uint64_t v[7];
  for (int i = 0; i < 7; ++i) v[i] = get(s.w[i + 1]);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (get(s.w[0]) != seq + 1 || v[2] == 0) return false;
  e->seq = seq;
  e->info = static_cast<int32_t>(static_cast<uint32_t>(v[1] >> 32));
  e->kind = static_cast<EventKind>((v[1] >> 24) & 0xffu);
  e->tid = static_cast<uint32_t>(v[1] & 0xffffffu);
  e->name = reinterpret_cast<const char*>(static_cast<uintptr_t>(v[2]));
  e->f = EventFields{v[0], v[3], v[4], v[5], v[6]};
  return true;
}

Ring* pooled(uint64_t cap) {
  Ring& r = g_pool[std::countr_zero(cap)];
  if (r.slots == nullptr) {
    void* p = mmap(nullptr, cap * sizeof(Slot), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) return nullptr;
    r.slots = static_cast<Slot*>(p);
    r.mask = cap - 1;
  }
  return &r;
}

// Swaps in `next` (null = no ring) and copies the newest events across.
// A writer that loaded the old ring just before the swap lands its
// event there and it is lost; resizes are rare control events.
void switch_ring(Ring* next) {
  Ring* old = g_ring.exchange(next, std::memory_order_acq_rel);
  const uint64_t head = g_head.load(std::memory_order_acquire);
  if (old == nullptr) {
    g_base.store(head, std::memory_order_relaxed);
    g_window.store(head, std::memory_order_relaxed);
    g_lost.store(0, std::memory_order_relaxed);
    return;
  }
  const uint64_t window = g_window.load(std::memory_order_relaxed);
  const uint64_t held = std::min(head - window, old->mask + 1);
  const uint64_t keep = next == nullptr ? 0 : std::min(held, next->mask + 1);
  Event e;
  for (uint64_t seq = head - keep; seq < head; ++seq)
    if (load_slot(*old, seq, &e)) fill_slot(next->slots[seq & next->mask], e);
  g_lost.fetch_add(head - window - keep, std::memory_order_relaxed);
  g_window.store(head - keep, std::memory_order_relaxed);
  // The old ring stays mapped for late writers; its pages go back to
  // the OS (a late write faults in a fresh zero page).
  madvise(old->slots, (old->mask + 1) * sizeof(Slot), MADV_DONTNEED);
}

}  // namespace

uint64_t record(EventKind kind, const char* name, int32_t info,
                const EventFields& f) {
  Ring* r = g_ring.load(std::memory_order_acquire);
  if (r == nullptr) return 0;
  Event e{g_head.fetch_add(1, std::memory_order_relaxed), kind, info,
          this_tid(), name, f};
  if (e.f.ts == 0) e.f.ts = now_ns();
  fill_slot(r->slots[e.seq & r->mask], e);
  return e.seq + 1;
}

void scan(uint64_t from, bool newest_first,
          const std::function<bool(const Event&)>& visit) {
  Ring* r = g_ring.load(std::memory_order_acquire);
  if (r == nullptr) return;
  const uint64_t head = g_head.load(std::memory_order_acquire);
  const uint64_t lo = std::max(from, head > r->mask ? head - r->mask - 1 : 0);
  Event e;
  for (uint64_t i = lo; i < head; ++i) {
    const uint64_t seq = newest_first ? head - 1 - (i - lo) : i;
    if (load_slot(*r, seq, &e) && !visit(e)) return;
  }
}

uint64_t ring_reserve(RingUser user, uint64_t slots) {
  std::lock_guard<std::mutex> lock(ctl_mu());
  g_reserved[static_cast<int>(user)] = std::min(slots, kMaxCapacity);
  const uint64_t most =
      *std::max_element(std::begin(g_reserved), std::end(g_reserved));
  Ring* next = most == 0 ? nullptr : pooled(std::bit_ceil(most));
  if (next != g_ring.load(std::memory_order_relaxed) &&
      (most == 0 || next != nullptr))
    switch_ring(next);
  return g_head.load(std::memory_order_relaxed);
}

uint64_t ring_head() { return g_head.load(std::memory_order_relaxed); }

uint64_t ring_capacity() {
  Ring* r = g_ring.load(std::memory_order_acquire);
  return r == nullptr ? 0 : r->mask + 1;
}

uint64_t ring_events() {
  if (ring_capacity() == 0) return 0;
  return ring_head() - g_base.load(std::memory_order_relaxed);
}

uint64_t ring_overwrites() {
  const uint64_t cap = ring_capacity();
  if (cap == 0) return 0;
  const uint64_t since = ring_head() - g_window.load(std::memory_order_relaxed);
  return g_lost.load(std::memory_order_relaxed) +
         (since > cap ? since - cap : 0);
}

}  // namespace obs
}  // namespace grb
