#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::Begin(const char* name, std::int64_t id) {
  Span span;
  span.name = name;
  span.start_s = SecondsBetween(origin_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = SecondsBetween(origin_, Clock::now());
  // Spans close in LIFO order (ScopedSpan); pop through `index` regardless.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) {
      break;
    }
  }
}

std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals clipped to the parent, so overlapping or
    // overhanging children are never subtracted twice.
    double covered = 0.0;
    double reach = span.start_s;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end_s);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[span.name] += (span.end_s - span.start_s) - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> Durations(const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> durations;
  for (const Span& span : spans) {
    durations[span.name].push_back(span.end_s - span.start_s);
  }
  return durations;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::size_t max_spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::size_t written = std::min(max_spans, spans.size());
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < written; ++i) {
    const Span& span = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name, span.start_s * 1e6,
                 (span.end_s - span.start_s) * 1e6, static_cast<long long>(span.id),
                 span.parent);
  }
  std::fprintf(file, "],\"otherData\":{\"spans\":%zu,\"spans_not_written\":%zu}}\n",
               spans.size(), spans.size() - written);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
