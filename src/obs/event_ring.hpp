// The event ring (DESIGN.md §11): one lock-free ring of typed events
// holds the library's causal history.  The flight recorder, the Chrome
// trace and the decision audit are views that filter it by kind:
//
//   flight kinds    kApiEnter .. kDecision   fr_text, fr_trace_json and
//                                            the poison/PANIC dumps
//   trace kinds     kSpanApi .. kFlowStep    trace_dump, from the seq
//                                            trace_start returned
//   decision kinds  kDecision,               decision_snapshot and
//                   kDecisionMeasured        decision_explain
//
// Writing an event is one relaxed fetch_add on the global sequence
// counter plus relaxed stores into the claimed 64-byte slot; its seq word
// brackets the payload (0 while it is written, seq + 1 once published)
// so a reader skips torn or lapped slots.  No lock is taken on the
// write path.  Callers gate on their own flag (kFlightFlag, kTraceFlag,
// kDecisionFlag) before they record.
//
// Sizing: each consumer reserves the slots it needs and the ring holds
// the largest reservation, rounded up to a power of two: the flight
// recorder GRB_FLIGHT_RECORDER=N (default 4096), a running trace 2^21,
// the decision audit 256.  With no reservation there is no ring and
// record() is a no-op.  A resize copies the newest events across, so a
// trace starting or ending does not blank the flight history.  Rings
// are pooled by capacity and never unmapped, so a writer preempted
// mid-record never touches freed memory, and a ring that is switched
// out returns its pages to the OS; memory stays bounded however often
// traces start and stop.
#pragma once

#include <cstdint>
#include <functional>

namespace grb {
namespace obs {

enum class EventKind : uint8_t {
  kApiEnter = 0,      // a GrB_*/GxB_* entry point was invoked
  kApiError = 1,      // an entry point returned an execution error
  kDeferredExec = 2,  // a deferred method ran during complete()
  kPoison = 3,        // an object recorded its first deferred error
  kFusionPlan = 4,    // the fusion planner selected chains / dead writes
  kFusionExec = 5,    // a fused group ran (info = node count)
  kEnqueue = 6,       // a method was deferred (info = queue depth)
  kWatchdog = 7,      // the stall watchdog tripped (info = stalled ms)
  kDecision = 8,      // an adaptive cost-model branch chose a strategy
  kDecisionMeasured = 9,  // the measured outcome of one kDecision
  kSpanApi = 10,      // trace "X" span of an entry point
  kSpanDeferred = 11,  // trace "X" span of a deferred execution
  kSpanFusion = 12,   // trace "X" span of fusion planning / a fused group
  kGauge = 13,        // trace "C" counter sample
  kFlowBegin = 14,    // trace "s" flow start (enqueue)
  kFlowStep = 15,     // trace "t" flow step (the execution it produced)
};

inline bool is_flight_kind(EventKind k) { return k <= EventKind::kDecision; }
inline bool is_trace_kind(EventKind k) { return k >= EventKind::kSpanApi; }

// The kind-specific payload of an event.  By kind:
//   flight kinds       ctx, a = enqueue->exec flow id
//   kDecision          info = site, ctx, a / b = chosen / rejected (static
//                      strings), c = predicted | alternative << 32 (the
//                      two costs as float bit patterns)
//   kDecisionMeasured  info = mispredict, a = the kDecision's seq + 1,
//                      b = measured ns, c = measured units
//   span kinds         info = failed (api), ts = start, ctx, a = duration
//                      ns, b = gap_us (deferred)
//   kGauge             a = sampled value
//   flow kinds         ctx, a = flow id
struct EventFields {
  uint64_t ts = 0;   // now_ns() stamp; 0 = stamped when recorded
  uint64_t ctx = 0;  // owning obs context id (0 = unattributed)
  uint64_t a = 0, b = 0, c = 0;
};

struct Event {
  uint64_t seq = 0;  // global sequence number, 0-based
  EventKind kind = EventKind::kApiEnter;
  int32_t info = 0;
  uint32_t tid = 0;  // 24-bit hash of the recording thread's id
  const char* name = nullptr;  // entry point / op / gauge (static string)
  EventFields f;
};

// Records one event and returns its seq + 1 (0 when there is no ring).
// `name` and any string in the payload must have static storage
// duration.
uint64_t record(EventKind kind, const char* name, int32_t info,
                const EventFields& f = {});

// Visits the published events with seq >= `from` still in the ring,
// oldest first (or newest first), until `visit` returns false.
void scan(uint64_t from, bool newest_first,
          const std::function<bool(const Event&)>& visit);

// The consumers that size the ring.  ring_reserve(user, 0) drops a
// reservation.  Returns the sequence counter after the resize: events
// recorded from then on have seq >= the returned value.
enum class RingUser : uint8_t { kFlight, kTrace, kDecision };
uint64_t ring_reserve(RingUser user, uint64_t slots);

uint64_t ring_head();        // the next seq to be claimed
uint64_t ring_capacity();    // slots (0 = no ring)
uint64_t ring_events();      // events recorded since the ring came up
uint64_t ring_overwrites();  // of those, events no longer in the ring

}  // namespace obs
}  // namespace grb
