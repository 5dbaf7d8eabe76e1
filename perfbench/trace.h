// Span recorder for the traced perfbench run.
//
// Spans are recorded from the benchmark's own code around each call into a
// simulator layer, kept in memory, and written once at exit as Chrome
// trace-event JSON (chrome://tracing, Perfetto). Per-layer self time is a
// span's duration minus the part of it that its child spans cover.
#ifndef MRMSIM_PERFBENCH_TRACE_H_
#define MRMSIM_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal: span names are static
  double start_s = 0.0;   // seconds since the tracer's origin
  double end_s = 0.0;
  int parent = -1;        // index into the span list, -1 for a root
  std::int64_t id = 0;    // engine step or campaign day the span belongs to
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, std::int64_t id);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); open_.clear(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t id)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Per span name: the summed self time in seconds (duration minus the union
// of its direct children's intervals, clipped to the span).
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans);

// Per span name: every span's full duration in seconds, in record order.
std::map<std::string, std::vector<double>> Durations(const std::vector<Span>& spans);

// Writes `spans` as a Chrome trace-event JSON object ("X" complete events,
// microsecond timestamps). At most `max_spans` are written; the count left
// out is recorded under otherData. Returns false when the file cannot be
// written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::size_t max_spans);

}  // namespace perfbench

#endif  // MRMSIM_PERFBENCH_TRACE_H_
