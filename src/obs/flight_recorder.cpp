#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "core/info.hpp"
#include "obs/telemetry.hpp"

namespace grb {
namespace obs {

namespace {

// Control-path state (dump path, last dump text); recording never takes
// this lock.
std::mutex& ctl_mu() {
  static std::mutex mu;
  return mu;
}
std::string& dump_path() {
  static auto* p = new std::string();
  return *p;
}
std::string& last_dump() {
  static auto* s = new std::string();
  return *s;
}
int g_auto_dumps = 0;
std::atomic<uint64_t> g_flight_window{0};  // flight events a view shows

constexpr uint64_t kDefaultCapacity = 4096;
constexpr uint64_t kAutoDumpTail = 256;  // events rendered per auto-dump
constexpr int kAutoDumpStderrBudget = 4;

// Indexed by EventKind; the flight views show flight kinds only.
constexpr const char* kKindNames[] = {
    "api-enter",   "api-error", "deferred-exec", "poison",  "fusion-plan",
    "fusion-exec", "enqueue",   "watchdog",      "decision"};

// The flow id of a flight event (a decision's `a` is its strategy).
uint64_t flow_of(const Event& e) {
  return e.kind == EventKind::kDecision ? 0 : e.f.a;
}

// The flight view: the newest `max_events` flight events (0 = the
// flight window), oldest first.
std::vector<Event> flight_events(uint64_t max_events) {
  uint64_t n = g_flight_window.load(std::memory_order_relaxed);
  if (max_events != 0 && (n == 0 || max_events < n)) n = max_events;
  std::vector<Event> out;
  scan(0, true, [&](const Event& e) {
    if (is_flight_kind(e.kind)) out.push_back(e);
    return out.size() < n;
  });
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace

void fr_resize(uint64_t capacity) {
  if (capacity == 0)
    detail::g_flags.fetch_and(~kFlightFlag, std::memory_order_relaxed);
  ring_reserve(RingUser::kFlight, capacity);
  g_flight_window.store(capacity, std::memory_order_relaxed);
  if (capacity != 0)
    detail::g_flags.fetch_or(kFlightFlag, std::memory_order_relaxed);
}

void fr_api_error(const char* op, int32_t info) {
  if (!flight_enabled()) return;
  record(EventKind::kApiError, op, info);
  if (info == static_cast<int32_t>(Info::kPanic))
    fr_auto_dump("GrB_PANIC returned");
}

std::string fr_text(uint64_t max_events) {
  char line[192];
  std::string out;
  std::snprintf(line, sizeof line,
                "  events=%llu capacity=%llu overwrites=%llu\n",
                static_cast<unsigned long long>(ring_events()),
                static_cast<unsigned long long>(ring_capacity()),
                static_cast<unsigned long long>(ring_overwrites()));
  out.append(line);
  for (const Event& e : flight_events(max_events)) {
    std::snprintf(line, sizeof line, "  #%-8llu %12llu  %06x  %-13s %s",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.f.ts), e.tid,
                  kKindNames[static_cast<int>(e.kind)], e.name);
    out.append(line);
    if (e.f.ctx != 0 || flow_of(e) != 0)
      out.append(" ctx=").append(std::to_string(e.f.ctx));
    if (flow_of(e) != 0) out.append(" flow=").append(std::to_string(flow_of(e)));
    if (e.info < 0) {
      out.push_back(' ');
      out.append(info_name(static_cast<Info>(e.info)));
    }
    out.push_back('\n');
  }
  return out;
}

std::string fr_trace_json() {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char line[256];
  bool first = true;
  for (const Event& e : flight_events(0)) {
    out.append(first ? "\n" : ",\n");
    first = false;
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"i\","
                  "\"s\":\"t\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"args\":{\"kind\":\"%s\",\"seq\":%llu,\"info\":%d,"
                  "\"ctx\":%llu,\"flow\":%llu}}",
                  e.name, e.tid, e.f.ts / 1000.0,
                  kKindNames[static_cast<int>(e.kind)],
                  static_cast<unsigned long long>(e.seq), e.info,
                  static_cast<unsigned long long>(e.f.ctx),
                  static_cast<unsigned long long>(flow_of(e)));
    out.append(line);
  }
  out.append("\n]}\n");
  return out;
}

bool fr_dump_file(const char* path) {
  const size_t n = path == nullptr ? 0 : std::strlen(path);
  const bool json = n > 5 && std::strcmp(path + n - 5, ".json") == 0;
  const std::string body =
      json ? fr_trace_json() : "flight recorder dump\n" + fr_text(0);
  std::FILE* f = path == nullptr ? stderr : std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fputs(body.c_str(), f);
  return f == stderr || std::fclose(f) == 0;
}

void fr_auto_dump(const char* reason) {
  if ((flags() & kFlightFlag) == 0) return;
  std::string text = std::string("flight recorder dump: ") + reason + "\n" +
                     fr_text(kAutoDumpTail);
  std::lock_guard<std::mutex> lock(ctl_mu());
  last_dump() = text;
  ++g_auto_dumps;
  const std::string& path = dump_path();
  if (path == "0") return;  // GRB_FLIGHT_DUMP=0 silences auto-dumps
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fputs(fr_trace_json().c_str(), f);
      std::fclose(f);
    }
  }
  if (g_auto_dumps <= kAutoDumpStderrBudget) {
    // A wrapped ring means the dump below is missing the oldest events
    // — say so loudly, once per dump, with the fix spelled out.
    const uint64_t lost = ring_overwrites(), cap = ring_capacity();
    if (cap != 0 && lost >= cap) {
      std::fprintf(stderr,
                   "flight recorder: ring wrapped %llu times its capacity "
                   "(%llu events lost) -- the history below is truncated; "
                   "set GRB_FLIGHT_RECORDER=N to enlarge the ring\n",
                   static_cast<unsigned long long>(lost / cap),
                   static_cast<unsigned long long>(lost));
    }
    std::fputs(text.c_str(), stderr);
    if (g_auto_dumps == kAutoDumpStderrBudget) {
      std::fputs(
          "flight recorder: further automatic dumps suppressed "
          "(use GxB_FlightRecorder_dump)\n",
          stderr);
    }
  }
}

std::string fr_last_dump_text() {
  std::lock_guard<std::mutex> lock(ctl_mu());
  return last_dump();
}

void fr_env_activate() {
  const char* dump = std::getenv("GRB_FLIGHT_DUMP");
  if (dump != nullptr) {
    std::lock_guard<std::mutex> lock(ctl_mu());
    dump_path() = dump;
  }
  const char* size = std::getenv("GRB_FLIGHT_RECORDER");
  uint64_t cap = kDefaultCapacity;
  if (size != nullptr && size[0] != '\0') {
    cap = std::strtoull(size, nullptr, 10);
  }
  fr_resize(cap);
}

}  // namespace obs
}  // namespace grb
