#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>

#include "src/common/config.h"
#include "src/driver/builders.h"
#include "src/driver/sim_backend.h"
#include "src/fault/fault_config.h"
#include "src/fault/fault_injector.h"
#include "src/mrm/control_plane.h"
#include "src/mrm/mrm_device.h"
#include "src/sim/simulator.h"
#include "src/snapshot/checkpoint.h"
#include "src/snapshot/codec.h"
#include "src/snapshot/format.h"
#include "src/workload/inference_engine.h"
#include "src/workload/request_generator.h"

namespace perfbench {
namespace {

using namespace mrm;  // NOLINT: benchmark driver

// ---------------------------------------------------------------------------
// Digest: every simulated output of an iteration, folded in a fixed order.

class Digest {
 public:
  void U64(std::uint64_t v) { fp_.MixU64(v); }
  void F64(double v) { fp_.MixDouble(v); }
  void Hist(const Histogram& h) {
    Histogram::SavedState state;
    h.SaveState(&state);
    U64(state.buckets.size());
    for (const std::uint64_t bucket : state.buckets) {
      U64(bucket);
    }
    U64(state.count);
    U64(state.underflow);
    F64(state.sum);
    F64(state.min);
    F64(state.max);
  }
  void Bytes(const std::vector<std::uint8_t>& bytes) {
    U64(bytes.size());
    for (const std::uint8_t b : bytes) {
      U64(b);
    }
  }
  std::uint64_t value() const { return fp_.digest(); }

 private:
  snapshot::Fingerprint fp_;
};

void DigestSummary(const workload::EngineSummary& s, Digest* d) {
  for (const std::uint64_t v :
       {s.steps, s.prefill_tokens, s.decode_tokens, s.requests_completed, s.requests_rejected,
        s.weight_read_bytes, s.kv_read_bytes, s.kv_write_bytes, s.activation_read_bytes,
        s.activation_write_bytes, s.decode_read_bytes, s.decode_write_bytes, s.kv_moved_bytes,
        s.memory_bound_steps}) {
    d->U64(v);
  }
  for (const double v : {s.duration_s, s.memory_seconds, s.compute_seconds, s.backend_energy_j,
                         s.peak_kv_bytes, s.mean_batch}) {
    d->F64(v);
  }
  d->Hist(s.ttft_ms);
  d->Hist(s.e2e_latency_s);
}

void DigestSystem(const mem::SystemStats& s, Digest* d) {
  for (const std::uint64_t v :
       {s.reads_completed, s.writes_completed, s.bytes_read, s.bytes_written, s.row_hits,
        s.row_misses, s.refreshes, s.injected_stalls, s.dropped_completions}) {
    d->U64(v);
  }
  d->Hist(s.read_latency_ns);
  d->Hist(s.write_latency_ns);
  const mem::EnergyReport& e = s.energy;
  for (const double v :
       {e.activate_pj, e.read_pj, e.write_pj, e.io_pj, e.refresh_pj, e.background_pj}) {
    d->F64(v);
  }
}

void DigestPlane(const mrmcore::ControlPlaneStats& s, Digest* d) {
  for (const std::uint64_t v :
       {s.appends, s.scrub_rewrites, s.scrub_bytes, s.drops, s.zones_reclaimed,
        s.allocation_failures, s.read_retries, s.retry_successes, s.emergency_scrubs,
        s.uncorrectable_drops, s.zones_retired, s.blocks_remapped, s.accounting_errors}) {
    d->U64(v);
  }
}

void DigestDevice(const mrmcore::MrmDeviceStats& s, Digest* d) {
  for (const std::uint64_t v :
       {s.blocks_written, s.blocks_read, s.bytes_written, s.bytes_read, s.expired_reads,
        s.endurance_failures, s.read_preemptions, s.decoded_reads, s.corrected_reads,
        s.uncorrectable_reads, s.silent_corruptions, s.stuck_blocks, s.zone_failures}) {
    d->U64(v);
  }
  for (const double v : {s.write_energy_pj, s.read_energy_pj, s.io_energy_pj}) {
    d->F64(v);
  }
  d->Hist(s.read_latency_us);
  d->Hist(s.write_latency_us);
}

void DigestFaults(const fault::FaultStats& s, Digest* d) {
  for (const std::uint64_t v :
       {s.read_rolls, s.reads_corrected, s.reads_uncorrectable, s.reads_silent, s.stuck_blocks,
        s.zone_failures, s.channel_stalls, s.dropped_completions, s.resolutions}) {
    d->U64(v);
  }
}

// Every per-layer counter, zero where a workload does not reach the layer,
// so all workloads report the same names.
void FillCounters(const sim::Simulator& simulator, driver::SimBackend* backend,
                  const mrmcore::ControlPlane* plane, const mrmcore::MrmDevice* device,
                  const fault::FaultInjector* injector, std::map<std::string, double>* out) {
  auto& c = *out;
  // Layers only some workloads reach; the caller may have set them already.
  for (const char* name : {"workload.steps", "workload.decode_tokens", "workload.prefill_tokens",
                           "workload.mean_batch", "snapshot.bytes"}) {
    c.emplace(name, 0.0);
  }
  c["sim.events"] = static_cast<double>(simulator.events_executed());
  const sim::EpochSchedStats& sched = simulator.epoch_sched_stats();
  c["sim.epochs"] = static_cast<double>(sched.epochs);
  c["sim.dispatches"] = static_cast<double>(sched.dispatches);
  c["sim.hub_steps"] = static_cast<double>(sched.hub_steps);
  c["sim.batch_guard_stops"] = static_cast<double>(sched.batch_guard_stops);
  c["sim.spec_epochs"] = static_cast<double>(sched.spec_epochs);
  mem::SystemStats system;
  mem::SpecStats spec;
  driver::SimBackendStats lowering;
  if (backend != nullptr) {
    system = backend->memory_system()->GetStats();
    spec = backend->memory_system()->GetSpecStats();
    lowering = backend->sim_stats();
  }
  c["sim.rollbacks"] = static_cast<double>(spec.rollbacks);
  c["sim.rolled_back_events"] = static_cast<double>(spec.rolled_back_events);
  c["mem.reads"] = static_cast<double>(system.reads_completed);
  c["mem.writes"] = static_cast<double>(system.writes_completed);
  c["mem.row_hit_rate"] = system.row_hit_rate();
  c["mem.refreshes"] = static_cast<double>(system.refreshes);
  c["driver.submit_calls"] = static_cast<double>(lowering.steps);
  c["driver.dram_segments"] = static_cast<double>(lowering.dram_segments);
  c["driver.dram_bytes"] = static_cast<double>(lowering.dram_bytes);
  c["driver.mrm_blocks_read"] = static_cast<double>(lowering.mrm_blocks_read);
  c["driver.mrm_blocks_written"] = static_cast<double>(lowering.mrm_blocks_written);
  c["driver.mrm_fill_blocks"] = static_cast<double>(lowering.mrm_fill_blocks);
  c["driver.mrm_read_failures"] = static_cast<double>(lowering.mrm_read_failures);
  mrmcore::ControlPlaneStats ps;
  if (plane != nullptr) {
    ps = plane->stats();
  }
  c["mrm.appends"] = static_cast<double>(ps.appends);
  c["mrm.scrub_rewrites"] = static_cast<double>(ps.scrub_rewrites);
  c["mrm.read_retries"] = static_cast<double>(ps.read_retries);
  c["mrm.retry_successes"] = static_cast<double>(ps.retry_successes);
  c["mrm.emergency_scrubs"] = static_cast<double>(ps.emergency_scrubs);
  c["mrm.uncorrectable_drops"] = static_cast<double>(ps.uncorrectable_drops);
  c["mrm.zones_retired"] = static_cast<double>(ps.zones_retired);
  mrmcore::MrmDeviceStats ds;
  if (device != nullptr) {
    ds = device->stats();
  }
  c["mrm.blocks_read"] = static_cast<double>(ds.blocks_read);
  c["mrm.blocks_written"] = static_cast<double>(ds.blocks_written);
  c["mrm.corrected_reads"] = static_cast<double>(ds.corrected_reads);
  fault::FaultStats fs;
  if (injector != nullptr) {
    fs = injector->stats();
  }
  c["fault.injected"] = static_cast<double>(fs.injected_total());
  c["fault.resolutions"] = static_cast<double>(fs.resolutions);
  c["fault.unresolved"] =
      static_cast<double>(fs.injected_total()) - static_cast<double>(fs.resolutions);
}

// ---------------------------------------------------------------------------
// Closed-loop decode workloads (decode_hbm, serve_mrm_dcm).

// Times every SubmitStep from outside: one host-time sample and one
// driver.submit_step span per engine step.
class TimedBackend final : public workload::MemoryBackend {
 public:
  TimedBackend(workload::MemoryBackend* inner, Tracer* tracer, std::vector<double>* step_ms)
      : inner_(inner), tracer_(tracer), step_ms_(step_ms) {}

  using workload::MemoryBackend::SubmitStep;
  std::string name() const override { return inner_->name(); }
  workload::StepCost SubmitStep(const std::vector<workload::Transfer>& transfers) override {
    ScopedSpan span(tracer_, "driver.submit_step", static_cast<std::int64_t>(step_ms_->size()));
    const Clock::time_point start = Clock::now();
    const workload::StepCost cost = inner_->SubmitStep(transfers);
    step_ms_->push_back(SecondsBetween(start, Clock::now()) * 1e3);
    return cost;
  }
  void AccountTime(double seconds) override { inner_->AccountTime(seconds); }
  double EnergyJoules() const override { return inner_->EnergyJoules(); }
  std::uint64_t KvCapacityBytes() const override { return inner_->KvCapacityBytes(); }
  void OnKvFreed(std::uint64_t bytes) override { inner_->OnKvFreed(bytes); }

 private:
  workload::MemoryBackend* inner_;
  Tracer* tracer_;
  std::vector<double>* step_ms_;
};

struct DecodeSpec {
  const char* config;  // BuildScenario keys shared by every seed
  int requests;
  int sim_threads;
};

// Arrivals at 10^4/s put every request within a few engine steps of t=0:
// the engine's batch slots are the only admission limit.
constexpr const char* kDecodeHbmConfig = R"(
model             = llama2-70b
hbm.preset        = hbm3e
hbm.devices       = 8
backend           = sim
engine.max_batch  = 8
engine.tflops     = 1000
workload.profile  = splitwise-conversation
workload.rate     = 10000
)";

constexpr const char* kServeMrmDcmConfig = R"(
model             = llama2-70b
hbm.preset        = hbm3e
hbm.devices       = 2
mrm.technology    = stt-mram
mrm.channels      = 96
placement.weights = mrm
placement.kv_hot_fraction = 0.15
policy.preset     = dcm
backend           = sim
engine.max_batch  = 16
engine.tflops     = 1000
workload.profile  = splitwise-conversation
workload.rate     = 10000
)";

// Each workload serves at most max_batch requests, so all of them are
// admitted by the first step and arrival order cannot reshape the schedule.
// The counts keep one iteration's steps between 100 and 1000, where the tail
// rule reports p90: about 350 steps (16 s of host time) for decode_hbm and
// about 730 (0.6 s) for serve_mrm_dcm.
DecodeSpec DecodeSpecFor(const std::string& name) {
  if (name == "decode_hbm") {
    return {kDecodeHbmConfig, 4, 2};
  }
  return {kServeMrmDcmConfig, 16, 1};
}

Config DecodeConfig(const DecodeSpec& spec, const IterationOptions& options) {
  Config config = Config::Parse(spec.config).value();
  config.Set("workload.requests", std::to_string(spec.requests));
  config.Set("workload.seed", std::to_string(options.seed));
  config.Set("sim.threads",
             std::to_string(options.sim_threads > 0 ? options.sim_threads : spec.sim_threads));
  return config;
}

// Quantile-matched draw from the scenario's profile: kPoolPerRequest
// candidates per request come from the seeded generator. The served requests
// are the candidates at the middle of each output-length stratum, in arrival
// order, and the i-th shortest output is given the middle of the i-th
// prompt-length stratum. Every seed thus serves the profile's output and
// prompt quantiles, as its own draw estimates them. A raw draw makes host
// time per step a property of the seed (with random pairing, serve_mrm_dcm's
// DRAM traffic differed twofold between seeds), and its heavy tail (outputs
// reach 4096 tokens) could stretch one iteration to minutes of host time.
constexpr int kPoolPerRequest = 256;

std::vector<workload::InferenceRequest> QuantileMatchedRequests(
    const driver::Scenario& scenario) {
  workload::RequestGenerator generator(scenario.profile, scenario.arrivals_per_s, scenario.seed);
  std::vector<workload::InferenceRequest> pool;
  for (int i = 0; i < scenario.request_count * kPoolPerRequest; ++i) {
    pool.push_back(generator.Next());
  }
  // Pool indices of the middle element of each stratum, ascending by `key`.
  const auto strata_middles = [&pool, &scenario](auto key) {
    std::vector<std::size_t> order(pool.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return key(pool[a]) < key(pool[b]); });
    std::vector<std::size_t> middles;
    for (int i = 0; i < scenario.request_count; ++i) {
      middles.push_back(order[static_cast<std::size_t>(i * kPoolPerRequest + kPoolPerRequest / 2)]);
    }
    return middles;
  };
  const std::vector<std::size_t> outputs =
      strata_middles([](const workload::InferenceRequest& r) { return r.output_tokens; });
  const std::vector<std::size_t> prompts =
      strata_middles([](const workload::InferenceRequest& r) { return r.prompt_tokens; });
  std::vector<std::pair<std::size_t, workload::InferenceRequest>> served;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    workload::InferenceRequest request = pool[outputs[i]];
    request.prompt_tokens = pool[prompts[i]].prompt_tokens;
    served.emplace_back(outputs[i], request);
  }
  std::sort(served.begin(), served.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<workload::InferenceRequest> requests;
  for (const auto& entry : served) {
    requests.push_back(entry.second);
  }
  return requests;
}

struct DecodeStack {
  driver::Scenario scenario;
  std::unique_ptr<workload::MemoryBackend> backend;
};

DecodeStack BuildDecodeStack(const WorkloadInfo& workload, const IterationOptions& options,
                             IterationResult* result) {
  const Config config = DecodeConfig(DecodeSpecFor(workload.name), options);
  DecodeStack stack;
  {
    ScopedSpan span(options.tracer, "setup.scenario", 0);
    const Clock::time_point start = Clock::now();
    auto scenario = driver::BuildScenario(config);
    result->setup_scenario_s = SecondsBetween(start, Clock::now());
    if (!scenario.ok()) {
      result->errors.push_back("BuildScenario: " + scenario.error().message());
      return stack;
    }
    stack.scenario = std::move(scenario.value());
  }
  ScopedSpan span(options.tracer, "setup.backend", 0);
  const Clock::time_point start = Clock::now();
  auto backend = driver::MakeBackend(stack.scenario);
  result->setup_backend_s = SecondsBetween(start, Clock::now());
  if (!backend.ok()) {
    result->errors.push_back("MakeBackend: " + backend.error().message());
    return stack;
  }
  stack.backend = std::move(backend.value());
  return stack;
}

IterationResult RunDecode(const WorkloadInfo& workload, const IterationOptions& options) {
  IterationResult result;
  DecodeStack stack = BuildDecodeStack(workload, options, &result);
  auto* sim_backend = dynamic_cast<driver::SimBackend*>(stack.backend.get());
  if (sim_backend == nullptr) {
    result.errors.push_back("scenario did not build the cycle-level backend");
    return result;
  }
  const std::vector<workload::InferenceRequest> requests = QuantileMatchedRequests(stack.scenario);
  TimedBackend timed(sim_backend, options.tracer, &result.step_ms);
  workload::InferenceEngine engine(stack.scenario.engine, &timed);
  workload::EngineSummary summary;
  {
    ScopedSpan span(options.tracer, "engine.run", 0);
    const Clock::time_point start = Clock::now();
    summary = engine.Run(requests);
    result.timed_s = SecondsBetween(start, Clock::now());
  }
  result.sim_seconds = summary.memory_seconds;
  result.work = static_cast<double>(summary.decode_tokens);

  mrmcore::ControlPlane* plane = sim_backend->control_plane();
  mrmcore::MrmDevice* device = sim_backend->mrm_device();
  FillCounters(*sim_backend->simulator(), sim_backend, plane, device, nullptr,
               &result.counters);
  result.counters["workload.steps"] = static_cast<double>(summary.steps);
  result.counters["workload.decode_tokens"] = static_cast<double>(summary.decode_tokens);
  result.counters["workload.prefill_tokens"] = static_cast<double>(summary.prefill_tokens);
  result.counters["workload.mean_batch"] = summary.mean_batch;

  Digest digest;
  DigestSummary(summary, &digest);
  DigestSystem(sim_backend->memory_system()->GetStats(), &digest);
  const driver::SimBackendStats& lowering = sim_backend->sim_stats();
  for (const std::uint64_t v :
       {lowering.steps, lowering.dram_segments, lowering.dram_bytes, lowering.mrm_blocks_written,
        lowering.mrm_blocks_read, lowering.mrm_fill_blocks, lowering.mrm_read_failures}) {
    digest.U64(v);
  }
  if (plane != nullptr) {
    DigestPlane(plane->stats(), &digest);
    DigestDevice(device->stats(), &digest);
    if (plane->stats().accounting_errors != 0) {
      result.errors.push_back("control plane accounting_errors != 0");
    }
  }
  result.digest = digest.value();

  if (summary.requests_completed != requests.size()) {
    result.errors.push_back("completed " + std::to_string(summary.requests_completed) + " of " +
                            std::to_string(requests.size()) + " requests");
  }
  return result;
}

// ---------------------------------------------------------------------------
// aging_f2: the F2 fault-ladder KV-churn campaign with durable checkpoints.

constexpr double kTicksPerSecond = 1e9;
constexpr double kDayS = 86400.0;
constexpr double kBatchPeriodS = 600.0;
// Batches run at a half-slot phase so they never share a tick with the
// hourly scrub, and the day boundary drains before the checkpoint.
constexpr double kBatchOffsetS = 300.0;
constexpr double kDrainS = 1.0;
constexpr double kDataLifetimeS = 7200.0;
constexpr int kBlocksPerBatch = 16;
constexpr int kReadsPerBatch = 24;
constexpr double kScrubPeriodS = 3600.0;
constexpr double kFaultRate = 3e-4;
constexpr int kBatchesPerDay = static_cast<int>(kDayS / kBatchPeriodS);
constexpr int kCampaignDays = 100;
constexpr int kCheckpointEveryDays = 5;

mrmcore::MrmDeviceConfig AgingDeviceConfig() {
  mrmcore::MrmDeviceConfig config;
  config.technology = cell::Technology::kSttMram;
  config.channels = 4;
  config.zones = 64;
  config.zone_blocks = 32;
  config.block_bytes = 64 * 1024;
  config.ecc_t = 16;
  config.ecc_codeword_bits = 4096;
  return config;
}

fault::FaultConfig AgingFaultConfig(std::uint64_t seed) {
  fault::FaultConfig config;
  config.seed = seed;
  config.transient_rber = kFaultRate;
  config.stuck_block_prob = kFaultRate;
  config.stuck_wear_fraction = 0.0;
  config.zone_failure_prob = kFaultRate * 0.1;
  return config;
}

struct Churn {
  std::uint64_t appends_ok = 0;
  std::uint64_t appends_failed = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_lost = 0;  // model output under fault injection, not a failure
  std::uint64_t read_cursor = 0;
  std::vector<std::pair<double, mrmcore::LogicalId>> live;  // (expiry_s, id)
};

std::vector<std::uint8_t> EncodeChurn(const Churn& churn) {
  snapshot::Encoder enc;
  enc.PutU64(churn.appends_ok);
  enc.PutU64(churn.appends_failed);
  enc.PutU64(churn.reads_ok);
  enc.PutU64(churn.reads_lost);
  enc.PutU64(churn.read_cursor);
  enc.PutU64(churn.live.size());
  for (const auto& [expiry, id] : churn.live) {
    enc.PutDouble(expiry);
    enc.PutU64(id);
  }
  return enc.TakeBytes();
}

struct AgingStack {
  sim::Simulator simulator;
  mrmcore::MrmDevice device;
  mrmcore::ControlPlane plane;
  fault::FaultInjector injector;

  explicit AgingStack(std::uint64_t seed)
      : simulator(kTicksPerSecond),
        device(&simulator, AgingDeviceConfig()),
        plane(&simulator, &device,
              [] {
                mrmcore::ControlPlaneOptions options;
                options.scrub_period_s = kScrubPeriodS;
                return options;
              }()),
        injector(AgingFaultConfig(seed)) {
    plane.SetFaultInjector(&injector);
  }
};

std::uint64_t AgingFingerprint(std::uint64_t seed) {
  const mrmcore::MrmDeviceConfig device = AgingDeviceConfig();
  snapshot::Fingerprint fp;
  fp.MixString("perfbench.aging_f2");
  fp.MixU64(seed);
  fp.MixU32(device.zones);
  fp.MixU32(device.zone_blocks);
  fp.MixU64(device.block_bytes);
  fp.MixDouble(kFaultRate);
  return fp.digest();
}

// One simulated day of churn; on return every read has drained and the
// scrub firing is the only pending event (the checkpoint's quiescent point).
void RunDay(AgingStack* stack, Churn* churn, int day, Tracer* tracer) {
  for (int batch = 0; batch < kBatchesPerDay; ++batch) {
    const double t = day * kDayS + kBatchOffsetS + batch * kBatchPeriodS;
    {
      ScopedSpan span(tracer, "sim.run_until", day);
      stack->simulator.RunUntil(stack->simulator.SecondsToTicks(t));
    }
    while (!churn->live.empty() && churn->live.front().first <= t) {
      const mrmcore::LogicalId id = churn->live.front().second;
      if (stack->plane.Alive(id)) {
        ScopedSpan span(tracer, "mrm.free", day);
        stack->plane.Free(id);
      }
      churn->live.erase(churn->live.begin());
    }
    for (int i = 0; i < kBlocksPerBatch; ++i) {
      ScopedSpan span(tracer, "mrm.append", day);
      auto id = stack->plane.Append(kDataLifetimeS);
      if (id.ok()) {
        churn->live.emplace_back(t + kDataLifetimeS, id.value());
        ++churn->appends_ok;
      } else {
        ++churn->appends_failed;
      }
    }
    for (int i = 0; i < kReadsPerBatch && !churn->live.empty(); ++i) {
      churn->read_cursor = (churn->read_cursor + 1) % churn->live.size();
      ScopedSpan span(tracer, "mrm.read", day);
      const Status issued =
          stack->plane.Read(churn->live[churn->read_cursor].second, [churn](bool ok) {
            if (ok) {
              ++churn->reads_ok;
            } else {
              ++churn->reads_lost;
            }
          });
      if (!issued.ok()) {
        ++churn->reads_lost;  // dropped before the read (zone failure)
      }
    }
  }
  ScopedSpan span(tracer, "sim.run_until", day);
  stack->simulator.RunUntil(stack->simulator.SecondsToTicks((day + 1) * kDayS + kDrainS));
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

IterationResult RunAging(const IterationOptions& options) {
  namespace fs = std::filesystem;
  IterationResult result;
  const fs::path dir = fs::path(options.work_dir) / "aging_f2";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    result.errors.push_back("cannot create " + dir.string() + ": " + ec.message());
    return result;
  }

  std::uint64_t fingerprint = 0;
  {
    ScopedSpan span(options.tracer, "setup.scenario", 0);
    const Clock::time_point start = Clock::now();
    fingerprint = AgingFingerprint(options.seed);
    result.setup_scenario_s = SecondsBetween(start, Clock::now());
  }
  std::unique_ptr<AgingStack> stack;
  {
    ScopedSpan span(options.tracer, "setup.backend", 0);
    const Clock::time_point start = Clock::now();
    stack = std::make_unique<AgingStack>(options.seed);
    result.setup_backend_s = SecondsBetween(start, Clock::now());
  }

  Churn churn;
  std::string last_checkpoint;
  const Clock::time_point loop_start = Clock::now();
  for (int day = 0; day < kCampaignDays; ++day) {
    ScopedSpan day_span(options.tracer, "campaign.day", day);
    const Clock::time_point day_start = Clock::now();
    RunDay(stack.get(), &churn, day, options.tracer);
    if ((day + 1) % kCheckpointEveryDays == 0) {
      ScopedSpan span(options.tracer, "snapshot.save", day);
      last_checkpoint = (dir / ("day_" + std::to_string(day + 1) + ".snap")).string();
      const snapshot::Error err = snapshot::SaveMrmStack(
          last_checkpoint, fingerprint, stack->simulator, stack->device, stack->plane,
          &stack->injector, EncodeChurn(churn));
      if (!err.ok()) {
        result.errors.push_back("checkpoint: " + err.ToString());
        return result;
      }
    }
    result.step_ms.push_back(SecondsBetween(day_start, Clock::now()) * 1e3);
  }
  result.timed_s = SecondsBetween(loop_start, Clock::now());
  result.sim_seconds = kCampaignDays * kDayS;
  result.work = kCampaignDays;

  // Restore the final checkpoint into a fresh stack; it must re-save to the
  // same bytes.
  const std::vector<std::uint8_t> saved = ReadFileBytes(last_checkpoint);
  {
    ScopedSpan span(options.tracer, "snapshot.load", 0);
    const Clock::time_point start = Clock::now();
    AgingStack restored(options.seed);
    snapshot::MrmStackState state;
    const snapshot::Error loaded =
        snapshot::LoadMrmStack(last_checkpoint, fingerprint, restored.device, &state);
    if (!loaded.ok()) {
      result.errors.push_back("restore: " + loaded.ToString());
      return result;
    }
    snapshot::ApplyMrmStack(state, &restored.simulator, &restored.device, &restored.plane,
                            &restored.injector);
    result.snapshot_load_ms = SecondsBetween(start, Clock::now()) * 1e3;
    const std::string resaved = (dir / "resaved.snap").string();
    const snapshot::Error err =
        snapshot::SaveMrmStack(resaved, fingerprint, restored.simulator, restored.device,
                               restored.plane, &restored.injector, state.workload);
    if (!err.ok() || ReadFileBytes(resaved) != saved) {
      result.errors.push_back("restored checkpoint does not re-save to identical bytes");
    }
  }

  FillCounters(stack->simulator, nullptr, &stack->plane, &stack->device, &stack->injector,
               &result.counters);
  result.counters["snapshot.bytes"] = static_cast<double>(saved.size());

  Digest digest;
  digest.U64(stack->simulator.events_executed());
  DigestPlane(stack->plane.stats(), &digest);
  DigestDevice(stack->device.stats(), &digest);
  DigestFaults(stack->injector.stats(), &digest);
  for (const std::uint64_t v :
       {churn.appends_ok, churn.appends_failed, churn.reads_ok, churn.reads_lost}) {
    digest.U64(v);
  }
  digest.Bytes(saved);
  result.digest = digest.value();
  if (stack->plane.stats().accounting_errors != 0) {
    result.errors.push_back("control plane accounting_errors != 0");
  }
  fs::remove_all(dir, ec);
  return result;
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> workloads = {
      {"decode_hbm",
       "Llama2-70B decode on HBM3e at 2 sim threads: host time is the sharded event core and "
       "the FR-FCFS DRAM controller",
       "engine step", "decode_tok_per_s", 1.0},
      {"serve_mrm_dcm",
       "weights and cold KV on a 96-channel STT-MRAM tier under the DCM policy: MRM block "
       "reads beside control-plane KV appends",
       "engine step", "decode_tok_per_s", 1.0},
      {"aging_f2",
       "100-day F2 fault-ladder KV churn with 5-day durable checkpoints: MRM reliability math, "
       "fault recovery and snapshot saves",
       "simulated day", "sim_days_per_min", 60.0},
  };
  return workloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& workload : Workloads()) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

IterationResult RunIteration(const WorkloadInfo& workload, const IterationOptions& options) {
  if (std::string(workload.name) == "aging_f2") {
    return RunAging(options);
  }
  return RunDecode(workload, options);
}

IterationResult SetupOnly(const WorkloadInfo& workload, const IterationOptions& options) {
  IterationResult result;
  if (std::string(workload.name) == "aging_f2") {
    Clock::time_point start = Clock::now();
    (void)AgingFingerprint(options.seed);
    result.setup_scenario_s = SecondsBetween(start, Clock::now());
    start = Clock::now();
    const auto stack = std::make_unique<AgingStack>(options.seed);
    result.setup_backend_s = SecondsBetween(start, Clock::now());
    return result;
  }
  BuildDecodeStack(workload, options, &result);
  return result;
}

}  // namespace perfbench
