// perfbench: runs one workload for a fixed host-time budget and prints every
// metric by name with its unit, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--work-dir <dir>] [--reference <file>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced iterations and reports the per-layer metrics, taking host
// times from the traced iterations' spans. Every iteration of a run must
// produce the same digest, and the digest must match the reference file's
// entry for the workload and seed when there is one.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;  // NOLINT: benchmark driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".";
  std::string reference;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--reference") {
      args->reference = value;
    } else {
      return false;
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Reference file lines: "<workload> <seed> <digest hex>"; '#' starts a comment.
bool LookupReference(const std::string& path, const std::string& workload, std::uint64_t seed,
                     std::uint64_t* digest) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::uint64_t ref_seed = 0;
    std::string hex;
    if (fields >> name >> ref_seed >> hex && name == workload && ref_seed == seed) {
      *digest = std::strtoull(hex.c_str(), nullptr, 16);
      return true;
    }
  }
  return false;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Median across iterations of one per-iteration quantity.
template <typename F>
double MedianOf(const std::vector<IterationResult>& runs, F f) {
  std::vector<double> values;
  for (const IterationResult& run : runs) {
    values.push_back(f(run));
  }
  return Median(values);
}

std::vector<Metric> EndToEndMetrics(const WorkloadInfo& workload,
                                    const std::vector<IterationResult>& runs,
                                    const std::vector<double>& setup_s) {
  const std::size_t steps = runs.front().step_ms.size();
  const double tail = TailPercentile(steps);
  char tail_label[16];
  std::snprintf(tail_label, sizeof(tail_label), "p%g", tail);
  const std::string per_iter = std::to_string(runs.size()) + " iterations";
  double sim_s = 0.0;
  double host_s = 0.0;
  for (const IterationResult& run : runs) {
    sim_s += run.sim_seconds;
    host_s += run.timed_s;
  }
  const std::string step_note = std::string(workload.step_unit) + "; " +
                                std::to_string(steps) + " samples per iteration, median of " +
                                per_iter;
  return {
      {"sim_s_per_host_s", sim_s / host_s, "s/s",
       "simulated seconds per host second, summed over the closed loops of " + per_iter},
      {"step_ms_p50",
       MedianOf(runs, [](const IterationResult& r) { return Percentile(r.step_ms, 50.0); }),
       "ms", "p50 host ms per " + step_note},
      {"step_ms_tail",
       MedianOf(runs, [tail](const IterationResult& r) { return Percentile(r.step_ms, tail); }),
       "ms", std::string(tail_label) + " host ms per " + step_note},
      {"setup_s", Median(setup_s), "s",
       "scenario + backend/stack build; median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"peak_rss_mb", PeakRssMb(), "MB", "ru_maxrss of this process"},
  };
}

// Host-time aggregates of one traced iteration, from its spans.
std::map<std::string, double> TracedHostTimes(const std::vector<Span>& spans,
                                              const IterationResult& result) {
  const std::map<std::string, double> self = SelfSeconds(spans);
  const std::map<std::string, std::vector<double>> durations = Durations(spans);
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto p50_of = [&durations](const char* name) {
    const auto it = durations.find(name);
    return it == durations.end() ? 0.0 : Median(it->second);
  };
  return {
      // The closed-loop caller's own time: the engine, or the campaign loop.
      {"workload.self_s", self_of("engine.run") + self_of("campaign.day")},
      {"driver.submit_s", self_of("driver.submit_step")},
      {"sim.run_until_s", self_of("sim.run_until")},
      {"mrm.append_s", self_of("mrm.append")},
      {"mrm.append_us_p50", p50_of("mrm.append") * 1e6},
      {"mrm.read_issue_s", self_of("mrm.read")},
      {"mrm.free_s", self_of("mrm.free")},
      {"snapshot.save_s", self_of("snapshot.save")},
      {"snapshot.save_ms_p50", p50_of("snapshot.save") * 1e3},
      {"snapshot.load_ms", result.snapshot_load_ms},
      {"setup.scenario_s", self_of("setup.scenario")},
      {"setup.backend_s", self_of("setup.backend")},
  };
}

std::string PerLayerUnit(const std::string& name) {
  static const std::map<std::string, std::string> units = {
      {"workload.self_s", "s"},          {"driver.submit_s", "s"},
      {"sim.run_until_s", "s"},          {"mrm.append_s", "s"},
      {"mrm.append_us_p50", "us"},       {"mrm.read_issue_s", "s"},
      {"mrm.free_s", "s"},               {"snapshot.save_s", "s"},
      {"snapshot.save_ms_p50", "ms"},    {"snapshot.load_ms", "ms"},
      {"setup.scenario_s", "s"},         {"setup.backend_s", "s"},
      {"sim.ns_per_event", "ns"},        {"trace.overhead_frac", "ratio"},
      {"mem.row_hit_rate", "ratio"},     {"driver.dram_bytes", "bytes"},
      {"snapshot.bytes", "bytes"},
  };
  const auto it = units.find(name);
  return it == units.end() ? "count" : it->second;
}

// `host` holds one vector per host-time aggregate, one entry per traced
// iteration; each reports its median.
std::vector<Metric> PerLayerMetrics(const std::vector<IterationResult>& untraced,
                                    const std::vector<IterationResult>& traced,
                                    const std::map<std::string, std::vector<double>>& host) {
  std::map<std::string, double> m = traced.front().counters;
  for (const auto& [name, values] : host) {
    m[name] = Median(values);
  }
  // Host time of the calls that drive the event loop, per executed event.
  const double events = m.at("sim.events");
  m["sim.ns_per_event"] =
      events > 0.0 ? (m.at("driver.submit_s") + m.at("sim.run_until_s")) / events * 1e9 : 0.0;
  const auto timed = [](const IterationResult& r) { return r.timed_s; };
  m["trace.overhead_frac"] = MedianOf(traced, timed) / MedianOf(untraced, timed) - 1.0;
  std::vector<Metric> metrics;
  for (const auto& [name, value] : m) {
    metrics.push_back({name, value, PerLayerUnit(name), ""});
  }
  return metrics;
}

void PrintJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--work-dir <dir>] [--reference <file>]\n");
    return 2;
  }
  const WorkloadInfo* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::uint64_t reference = 0;
  const bool has_reference =
      !args.reference.empty() && LookupReference(args.reference, args.workload, args.seed,
                                                 &reference);

  std::printf("perfbench: workload %s, seed %" PRIu64 ", %g s budget, trace %d\n",
              workload->name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("  why: %s\n", workload->why);
  std::printf("  clock: std::chrono::steady_clock (monotonic host time); one process, "
              "one workload, closed loop\n");

  IterationOptions options;
  options.seed = args.seed;
  options.work_dir = args.work_dir;
  Tracer tracer;

  // Set-up samples come from a dedicated phase before the closed loop, so
  // every run takes them in the same fresh-process state. Set-up is cheap
  // next to a closed loop (microseconds to a tenth of a second): repeat it
  // until the median rests on at least kMinSetupSamples samples and
  // kSetupBudgetS of set-up time, or on kMaxSetupSamples.
  constexpr std::size_t kMinSetupSamples = 15;
  constexpr std::size_t kMaxSetupSamples = 2000;
  constexpr double kSetupBudgetS = 0.5;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMaxSetupSamples &&
         (setup_s.size() < kMinSetupSamples || setup_total_s < kSetupBudgetS)) {
    const IterationResult setup = SetupOnly(*workload, options);
    if (!setup.errors.empty()) {
      std::printf("  set-up FAILED: %s\n", setup.errors.front().c_str());
      PrintJson(false, 1, 1, {});
      return 0;
    }
    setup_s.push_back(setup.setup_s());
    setup_total_s += setup.setup_s();
  }

  std::vector<IterationResult> untraced;
  std::vector<IterationResult> traced;
  std::map<std::string, std::vector<double>> traced_host;
  std::vector<Span> first_trace;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t run_digest = 0;
  // The traced mode alternates untraced and traced iterations so that the
  // tracing overhead is measured under the same conditions.
  // Whole iterations only: another one starts while the run is expected to
  // end nearer the budget with it than without it.
  const std::size_t min_iterations = args.trace ? 2 : 1;
  const Clock::time_point start = Clock::now();
  const auto want_more = [&] {
    const double elapsed = SecondsBetween(start, Clock::now());
    const double mean = attempted == 0 ? 0.0 : elapsed / static_cast<double>(attempted);
    return attempted < min_iterations || elapsed + mean / 2.0 < args.seconds;
  };
  while (want_more()) {
    const bool trace_this = args.trace && attempted % 2 == 1;
    options.tracer = trace_this ? &tracer : nullptr;
    tracer.Clear();
    IterationResult result = RunIteration(*workload, options);
    ++attempted;
    if (attempted == 1) {
      run_digest = result.digest;
    }
    if (result.digest != run_digest) {
      result.errors.push_back("digest differs from this run's first iteration");
    }
    if (has_reference && result.digest != reference) {
      result.errors.push_back("digest differs from the reference");
    }
    std::printf("  iteration %zu%s: %.3f s closed loop, %.4f s set-up\n", attempted,
                trace_this ? " (traced)" : "", result.timed_s, result.setup_s());
    for (const std::string& error : result.errors) {
      std::printf("  iteration %zu FAILED: %s\n", attempted, error.c_str());
    }
    if (!result.errors.empty()) {
      ++failed;
      continue;
    }
    if (trace_this) {
      for (const auto& [name, value] : TracedHostTimes(tracer.spans(), result)) {
        traced_host[name].push_back(value);
      }
      if (traced.empty()) {
        first_trace = tracer.spans();
      }
      traced.push_back(std::move(result));
    } else {
      untraced.push_back(std::move(result));
    }
  }
  const double loop_s = SecondsBetween(start, Clock::now());

  std::printf("  iterations: %zu attempted, %zu failed, fail_frac %.4f, %.2f s measured\n",
              attempted, failed,
              static_cast<double>(failed) / static_cast<double>(attempted), loop_s);
  std::printf("  digest: %016" PRIx64 " (%s)\n", run_digest,
              has_reference ? "checked against the stored reference"
                            : "no stored reference for this seed; compare across commits");
  const bool measured = !untraced.empty() && (!args.trace || !traced.empty());
  if (!measured) {
    PrintJson(false, attempted, failed, {});
    return 0;
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(untraced, traced, traced_host);
    if (!args.trace_out.empty()) {
      constexpr std::size_t kMaxTraceSpans = 100000;
      if (!WriteChromeTrace(args.trace_out, first_trace, kMaxTraceSpans)) {
        std::fprintf(stderr, "perfbench: cannot write trace '%s'\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("  trace: %s (%zu spans recorded in the first traced iteration)\n",
                  args.trace_out.c_str(), first_trace.size());
    }
  } else {
    metrics = EndToEndMetrics(*workload, untraced, setup_s);
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %16.6g %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
  double work = 0.0;
  double host_s = 0.0;
  for (const IterationResult& result : untraced) {
    work += result.work;
    host_s += result.timed_s;
  }
  std::printf("  headline: %s %.6g (%g per iteration, untraced iterations)\n", workload->headline,
              work / host_s * workload->headline_scale, untraced.back().work);
  PrintJson(failed == 0, attempted, failed, metrics);
  return 0;
}
