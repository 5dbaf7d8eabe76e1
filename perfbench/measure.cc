#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace perfbench {
namespace {

// Nearest rank ceil(p/100 * n) in integer per-mille arithmetic, so that
// e.g. p99.9 of 10000 samples is rank 9990 exactly (0.999 is inexact).
std::size_t Rank(double p, std::size_t n) {
  const auto per_mille = static_cast<std::uint64_t>(std::llround(p * 10.0));
  return static_cast<std::size_t>((per_mille * n + 999) / 1000);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = std::clamp<std::size_t>(Rank(p, values.size()), 1, values.size());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) { return Percentile(values, 50.0); }

double TailPercentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 90.0}) {
    if (samples - Rank(p, samples) >= 10) {
      return p;
    }
  }
  return 50.0;
}

}  // namespace perfbench
