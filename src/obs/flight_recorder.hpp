// Always-on flight recorder (DESIGN.md §11).
//
// The 2.0 error model makes failures temporally detached from their
// cause: a method call validates, defers, and succeeds; the execution
// error surfaces later, from whatever call happened to force completion.
// The flight recorder closes that gap with the flight kinds of the
// event ring (obs/event_ring.hpp) — every C API entry point, every
// deferred method execution, every error transition and every
// decision-audit record — at a cost of one clock read, one relaxed
// fetch_add and a handful of relaxed stores per event.
//
// Sizing: 4096 events by default; GRB_FLIGHT_RECORDER=N resizes (rounded
// up to a power of two), GRB_FLIGHT_RECORDER=0 turns the flight kinds
// off.  The flight views show at most the newest N flight events.  When
// the ring wraps, the oldest events are overwritten; "flight.events",
// "flight.overwrites" and "flight.capacity" in GxB_Stats_json describe
// the shared ring.
//
// Dumps: whenever an object is poisoned or an entry point returns
// GrB_PANIC, the recorder renders the flight tail as annotated text
// (stderr, throttled after the first few) and — when GRB_FLIGHT_DUMP
// names a path — as Chrome trace-event JSON.  GxB_FlightRecorder_dump
// writes on demand (".json" suffix selects the trace form).
#pragma once

#include <cstdint>
#include <string>

#include "obs/event_ring.hpp"

namespace grb {
namespace obs {

// Sizes the flight reservation of the event ring.  0 turns the flight
// kinds off (and clears the kFlightFlag gate); any other capacity rounds
// up to a power of two and (re)enables them.
void fr_resize(uint64_t capacity);

// C API veneer hook for an entry point that returned an execution
// error (`info` < 0): records an api-error event and auto-dumps on
// GrB_PANIC.
void fr_api_error(const char* op, int32_t info);

// Renders the newest `max_events` flight events (0 = the whole flight
// window) as annotated text, oldest first.
std::string fr_text(uint64_t max_events);

// The same events as Chrome trace-event JSON instant events.
std::string fr_trace_json();

// Writes fr_text (or, when `path` ends in ".json", fr_trace_json) to
// `path`; nullptr writes the text to stderr.  Returns false on I/O error.
bool fr_dump_file(const char* path);

// Automatic post-mortem dump (poison / PANIC paths).  Always renders and
// retains the text (fr_last_dump_text); prints to stderr only for the
// first few triggers per process so cascading poisons cannot flood logs.
void fr_auto_dump(const char* reason);

// The text of the most recent automatic dump ("" when none happened).
std::string fr_last_dump_text();

// Env plumbing, called from env_activate/env_finalize:
// GRB_FLIGHT_RECORDER sizes the ring (default 4096), GRB_FLIGHT_DUMP
// redirects automatic dumps (a path for trace JSON, "0" to silence).
void fr_env_activate();

}  // namespace obs
}  // namespace grb
