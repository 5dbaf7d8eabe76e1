// The perfbench workloads: each iteration builds its stack, runs one
// deterministic closed-loop workload through the simulator's public entry
// points, and reports host times (measured from outside each call), the
// layers' own counters, and a digest of every simulated output.
#ifndef MRMSIM_PERFBENCH_WORKLOADS_H_
#define MRMSIM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct WorkloadInfo {
  const char* name;
  const char* why;
  // What one closed-loop step is ("engine step", "simulated day").
  const char* step_unit;
  // The workload's headline rate: IterationResult::work per host second,
  // times headline_scale (60 turns days per second into days per minute).
  const char* headline;
  double headline_scale;
};

const std::vector<WorkloadInfo>& Workloads();
const WorkloadInfo* FindWorkload(const std::string& name);

struct IterationOptions {
  std::uint64_t seed = 1;
  // Worker threads for the sharded DRAM engine; 0 = the workload's own.
  int sim_threads = 0;
  // Directory for aging_f2's checkpoints (created and emptied per iteration).
  std::string work_dir = ".";
  Tracer* tracer = nullptr;  // null = untraced
};

struct IterationResult {
  // Invariant violations and errors; empty when the iteration is sound.
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  double setup_scenario_s = 0.0;  // scenario/config build
  double setup_backend_s = 0.0;   // backend or stack construction
  double timed_s = 0.0;           // the closed loop, setup excluded
  double sim_seconds = 0.0;       // simulated time the closed loop covered
  std::vector<double> step_ms;    // host ms per closed-loop step
  double work = 0.0;              // decode tokens, or simulated days
  double snapshot_load_ms = 0.0;  // Load + Apply of the final checkpoint
  // Deterministic per-layer counts (bytes for names ending in "bytes", a
  // fraction for mem.row_hit_rate), the same names for every workload.
  std::map<std::string, double> counters;

  double setup_s() const { return setup_scenario_s + setup_backend_s; }
};

IterationResult RunIteration(const WorkloadInfo& workload, const IterationOptions& options);

// Builds and tears down the workload's stack without running it; returns
// {scenario seconds, backend seconds}. Adds set-up samples cheaply.
IterationResult SetupOnly(const WorkloadInfo& workload, const IterationOptions& options);

}  // namespace perfbench

#endif  // MRMSIM_PERFBENCH_WORKLOADS_H_
