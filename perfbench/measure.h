// Host-time measurement helpers shared by every perfbench workload.
//
// One clock for all timing: Clock is monotonic, so a measured interval
// never goes negative when the wall clock is adjusted mid-run.
#ifndef MRMSIM_PERFBENCH_MEASURE_H_
#define MRMSIM_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

double Median(const std::vector<double>& values);

// The reporting rule for tail latency: the highest percentile of the ladder
// 90, 99, 99.9 that leaves at least ten of `samples` beyond it. Below 100
// samples no tail percentile qualifies and the rule falls back to the
// median (50).
double TailPercentile(std::size_t samples);

}  // namespace perfbench

#endif  // MRMSIM_PERFBENCH_MEASURE_H_
