// The benchmark's own tests: the percentile rule, span self time, and the
// thread-count independence of decode_hbm's digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(values, 50), 3);
  EXPECT_EQ(Percentile(values, 0), 1);
  EXPECT_EQ(Percentile(values, 100), 5);
  EXPECT_EQ(Percentile(values, 80), 4);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({7, 9}), 7);
}

TEST(Percentile, TailRuleLeavesTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 50);
  EXPECT_EQ(TailPercentile(99), 50);     // p90 would leave 9 beyond
  EXPECT_EQ(TailPercentile(100), 90);    // exactly 10 beyond p90
  EXPECT_EQ(TailPercentile(999), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(9999), 99);
  EXPECT_EQ(TailPercentile(10000), 99.9);  // rank 9990 exactly
  EXPECT_EQ(TailPercentile(1000000), 99.9);
}

Span MakeSpan(const char* name, double start, double end, int parent) {
  Span span;
  span.name = name;
  span.start_s = start;
  span.end_s = end;
  span.parent = parent;
  return span;
}

TEST(SelfSeconds, SubtractsTheUnionOfChildIntervals) {
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 10, -1),
      MakeSpan("child", 1, 3, 0),
      MakeSpan("child", 2, 5, 0),    // overlaps the first child: covered once
      MakeSpan("child", 8, 12, 0),   // overhangs the root: clipped at 10
      MakeSpan("leaf", 1, 1.5, 1),   // a grandchild counts against its parent only
  };
  const auto self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 10 - 4 - 2);
  EXPECT_DOUBLE_EQ(self.at("child"), (2 - 0.5) + 3 + 4);
  EXPECT_DOUBLE_EQ(self.at("leaf"), 0.5);
}

TEST(Tracer, NestsSpansAndWritesChromeTrace) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 3);
    ScopedSpan inner(&tracer, "inner", 3);
  }
  { ScopedSpan next(&tracer, "next", 4); }
  ScopedSpan untraced(nullptr, "ignored", 0);
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_LE(spans[1].end_s, spans[0].end_s);
  EXPECT_EQ(spans[2].id, 4);

  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(WriteChromeTrace(path, spans, 2));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)), {});
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"inner\",\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(text.find("\"name\":\"next\""), std::string::npos);  // past max_spans
  EXPECT_NE(text.find("\"spans_not_written\":1"), std::string::npos);
}

TEST(Workloads, DecodeHbmDigestIsIndependentOfSimThreads) {
  const WorkloadInfo* workload = FindWorkload("decode_hbm");
  ASSERT_NE(workload, nullptr);
  IterationOptions options;
  options.sim_threads = 1;
  const IterationResult serial = RunIteration(*workload, options);
  options.sim_threads = 2;
  const IterationResult parallel = RunIteration(*workload, options);
  EXPECT_TRUE(serial.errors.empty());
  EXPECT_TRUE(parallel.errors.empty());
  EXPECT_NE(serial.digest, 0u);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.counters.at("sim.events"), parallel.counters.at("sim.events"));
}

}  // namespace
}  // namespace perfbench
