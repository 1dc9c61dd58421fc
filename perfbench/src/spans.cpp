#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // slot in the same thread's buffer, -1 for a root
  uint64_t op_id;
};

struct ThreadLog {
  int thread = 0;
  std::vector<Record> records;
  std::vector<int64_t> open;  // stack of open slots
  uint64_t op_id = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu

ThreadLog& local_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->thread = static_cast<int>(g_logs.size()) - 1;
    log->records.reserve(1 << 16);
  }
  return *log;
}

}  // namespace

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spans_enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool spans_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void spans_set_op(uint64_t op_id) {
  if (spans_enabled()) local_log().op_id = op_id;
}

Span::Span(const char* name) {
  if (!spans_enabled()) return;
  ThreadLog& log = local_log();
  int64_t parent = log.open.empty() ? -1 : log.open.back();
  slot_ = static_cast<int64_t>(log.records.size());
  log.records.push_back({name, now_ns(), 0, parent, log.op_id});
  log.open.push_back(slot_);
}

Span::~Span() {
  if (slot_ < 0) return;
  ThreadLog& log = local_log();
  log.records[static_cast<size_t>(slot_)].end_ns = now_ns();
  log.open.pop_back();
}

int64_t spans_write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::lock_guard<std::mutex> lock(g_mu);
  int64_t written = 0;
  std::fputs("[\n", f);
  for (const auto& log : g_logs) {
    // Children of one parent never overlap (a thread's spans nest), so
    // self time is the duration minus the summed child durations.
    std::vector<uint64_t> child_ns(log->records.size(), 0);
    for (const Record& r : log->records) {
      if (r.parent >= 0)
        child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
    for (size_t i = 0; i < log->records.size(); ++i) {
      const Record& r = log->records[i];
      uint64_t dur = r.end_ns - r.start_ns;
      char parent[48] = "null";
      if (r.parent >= 0)
        std::snprintf(parent, sizeof parent, "\"%d.%lld\"", log->thread,
                      static_cast<long long>(r.parent));
      std::fprintf(f,
                   "%s{\"id\":\"%d.%zu\",\"parent\":%s,\"name\":\"%s\","
                   "\"op\":%llu,\"thread\":%d,\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"self_ns\":%llu}",
                   written == 0 ? "" : ",\n", log->thread, i, parent, r.name,
                   static_cast<unsigned long long>(r.op_id), log->thread,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns),
                   static_cast<unsigned long long>(dur - child_ns[i]));
      ++written;
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0 ? written : -1;
}

}  // namespace perfbench
