// Benchmark-side spans around calls into the library's layers.
//
// Spans are recorded only while tracing is on, kept in per-thread
// in-memory buffers and written once, at exit.  Each span carries its
// name, start, end, parent span and the id of the solve or query it
// belongs to; self time (duration minus the part covered by child spans)
// is computed when the file is written.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

uint64_t now_ns();

// Global switch; off by default.  Flip it only while no span is open.
void spans_enable(bool on);
bool spans_enabled();

// Sets the solve/query id stamped on spans opened by this thread.
void spans_set_op(uint64_t op_id);

// RAII span.  `name` must be a string literal (stored by pointer).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t slot_ = -1;
};

// Writes every recorded span as one JSON array to `path`; returns the
// number written, or -1 if the file cannot be written.
int64_t spans_write(const std::string& path);

}  // namespace perfbench
