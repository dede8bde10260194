#include "core/driver.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "durability/checkpoint.hpp"
#include "durability/wal.hpp"
#include "faults/faultable_memory.hpp"
#include "faults/trace_checker.hpp"
#include "memmap/expansion.hpp"
#include "pram/serve_context.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace pramsim::core {

void TraceRunResult::merge(const TraceRunResult& other) {
  time.merge(other.time);
  work.merge(other.work);
  live_after_stage1.merge(other.live_after_stage1);
  max_queue.merge(other.max_queue);
  steps += other.steps;
  reliability.merge(other.reliability);
  scrub_passes += other.scrub_passes;
  scrub.merge(other.scrub);
  obs.merge(other.obs);
  if (other.breaking_fault_rate >= 0.0 &&
      (breaking_fault_rate < 0.0 ||
       other.breaking_fault_rate < breaking_fault_rate)) {
    breaking_fault_rate = other.breaking_fault_rate;
  }
}

namespace {

void record_step(TraceRunResult& result, const pram::MemStepCost& cost) {
  result.time.add(static_cast<double>(cost.time));
  result.work.add(static_cast<double>(cost.work));
  result.live_after_stage1.add(static_cast<double>(cost.live_after_stage1));
  result.max_queue.add(static_cast<double>(cost.max_queue));
  ++result.steps;
}

/// Interleaved background-scrub cadence (StressOptions scrub knobs).
struct ScrubCadence {
  std::uint32_t interval = 0;  ///< scrub every this many served steps
  std::uint64_t budget = 0;
  obs::Sink* sink = nullptr;  ///< optional: time passes, count repairs

  [[nodiscard]] bool enabled() const { return interval > 0 && budget > 0; }

  /// Run a pass when the cadence says so; `served` is the number of
  /// steps completed on this memory. Accumulates into `result`.
  void maybe_scrub(pram::MemorySystem& memory, std::size_t served,
                   TraceRunResult& result) const {
    if (!enabled() || served % interval != 0) {
      return;
    }
    ++result.scrub_passes;
    pram::ScrubResult pass;
    {
      obs::ScopedPhase timer(
          sink != nullptr && sink->sample(served) ? &sink->phases : nullptr,
          obs::Phase::kScrub);
      pass = memory.scrub(budget);
    }
    if (sink != nullptr) {
      sink->metrics.add("scrub.passes");
      sink->metrics.add("scrub.scanned", pass.scanned);
      sink->metrics.add("scrub.repaired", pass.repaired);
      sink->metrics.add("scrub.relocated", pass.relocated);
      sink->metrics.add("scrub.work", pass.work);
    }
    result.scrub.merge(pass);
  }
};

/// Serve `trace` through the plan path. With `double_buffer` (and a trace
/// long enough to amortize the thread), a generator thread builds plan
/// N+1 into the spare builder slot while this thread serves plan N —
/// batch combining/grouping fully overlaps engine stepping. Results are
/// identical to the serial loop: plans are served strictly in trace
/// order, and plan building never touches memory state (plan_group_of is
/// immutable by contract). Scrub passes run on the serving thread after
/// a step completes, so they are ordered with serving either way.
TraceRunResult run_trace_pipelined(pram::MemorySystem& memory,
                                   std::span<const pram::AccessBatch> trace,
                                   bool double_buffer,
                                   const ScrubCadence& scrub = {},
                                   util::Executor* executor = nullptr,
                                   obs::Sink* sink = nullptr) {
  TraceRunResult result;
  result.storage_factor = memory.storage_redundancy();
  std::vector<pram::Word> values;
  // Sampling decision for step i+1 (0 = never time), shared by the
  // kPlanBuild and kServe timers around that step.
  const auto timing = [sink](std::size_t step) -> obs::PhaseSet* {
    return sink != nullptr && sink->sample(step) ? &sink->phases : nullptr;
  };
  // One context per run: rebound per step, executor attached when the
  // shard level leaves workers free for intra-step (group) fan-out.
  pram::ServeContext ctx({}, executor);
  if (!double_buffer || trace.size() < 4) {
    PlanBuilder builder;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      obs::PhaseSet* phases = timing(i + 1);
      const pram::AccessPlan* plan;
      {
        obs::ScopedPhase timer(phases, obs::Phase::kPlanBuild);
        plan = &builder.build(trace[i], memory);
      }
      values.resize(plan->reads.size());
      ctx.bind(values);
      {
        obs::ScopedPhase timer(phases, obs::Phase::kServe);
        record_step(result, memory.serve(*plan, ctx));
      }
      scrub.maybe_scrub(memory, i + 1, result);
    }
    return result;
  }

  PlanBuilder slots[2];
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t built = 0;   // plans fully built
  std::size_t served = 0;  // plans fully served (their slot is free)
  std::thread generator([&] {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return i < served + 2; });
      }
      {
        // The generator thread writes ONLY the kPlanBuild row; the
        // serving thread writes kServe/kScrub — distinct PhaseSet slots,
        // single writer each (see obs/phase.hpp).
        obs::ScopedPhase timer(timing(i + 1), obs::Phase::kPlanBuild);
        slots[i % 2].build(trace[i], memory);
      }
      {
        const std::lock_guard lock(mutex);
        built = i + 1;
      }
      cv.notify_all();
    }
  });
  for (std::size_t i = 0; i < trace.size(); ++i) {
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return built > i; });
    }
    const pram::AccessPlan& plan = slots[i % 2].plan();
    values.resize(plan.reads.size());
    ctx.bind(values);
    {
      obs::ScopedPhase timer(timing(i + 1), obs::Phase::kServe);
      record_step(result, memory.serve(plan, ctx));
    }
    scrub.maybe_scrub(memory, i + 1, result);
    {
      const std::lock_guard lock(mutex);
      served = i + 1;
    }
    cv.notify_all();
  }
  generator.join();
  return result;
}

}  // namespace

TraceRunResult run_trace(pram::MemorySystem& memory,
                         std::span<const pram::AccessBatch> trace) {
  return run_trace_pipelined(memory, trace, /*double_buffer=*/false);
}

SimulationPipeline::SimulationPipeline(SchemeSpec spec)
    : spec_(spec), instance_(make_scheme(spec)) {}

pram::MemStepCost SimulationPipeline::run_batch(const pram::AccessBatch& batch) {
  const pram::AccessPlan& plan = builder_.build(batch, *instance_.memory);
  std::vector<pram::Word> values(plan.reads.size());
  pram::ServeContext ctx(values, &executor_);
  return instance_.memory->serve(plan, ctx);
}

TraceRunResult SimulationPipeline::run_stress(
    const StressOptions& options) const {
  return run_stress_impl(options, nullptr);
}

TraceRunResult SimulationPipeline::run_with_faults(
    const faults::FaultSpec& fault_spec, const StressOptions& options) const {
  return run_stress_impl(options, &fault_spec);
}

TraceRunResult SimulationPipeline::run_stress_impl(
    const StressOptions& options, const faults::FaultSpec* fault_spec) const {
  // Per-run setup hoisted out of the shard loop (it used to be re-derived
  // inside every trial): the family list — including the
  // exclusive_trace_families() default — is resolved exactly once;
  // per-shard setup below only shifts seeds.
  const std::vector<pram::TraceFamily>& families =
      options.families.empty() ? pram::exclusive_trace_families()
                               : options.families;
  const std::uint32_t n = spec_.n;
  const std::uint64_t m = instance_.m;
  const std::size_t trials = std::max<std::size_t>(options.trials, 1);
  // Within-trial sharding: every (trial, family) pair — plus each trial's
  // adversarial phase — is one shard, so trials = 1 workloads spread over
  // the host's threads too.
  const std::size_t stages =
      families.size() + (options.include_map_adversarial ? 1 : 0);
  // Overlap plan building with serving — and hand shards an executor
  // for intra-step group fan-out — only when the shard level is not
  // already saturating the host's cores: a generator thread (or a group
  // worker pool) per shard on top of a full parallel_for would just
  // oversubscribe.
  const bool shard_level_serial =
      util::parallel_workers(trials * stages) == 1;
  const bool double_buffer = options.double_buffer && shard_level_serial;

  std::vector<TraceRunResult> shards(trials * stages);
  util::parallel_for(0, trials * stages, [&](std::size_t s) {
    const std::size_t trial = s / stages;
    const std::size_t stage = s % stages;
    // Fresh memory per shard (same scheme seed: the map under test is
    // fixed; the traffic stream derives from (seed, trial, family)).
    // Under fault injection every shard of a trial shares the trial's
    // fault seed: one machine's static fault set, observed per family.
    auto instance = make_scheme(spec_);
    std::unique_ptr<pram::MemorySystem> memory = std::move(instance.memory);
    if (fault_spec != nullptr) {
      faults::FaultSpec trial_faults = *fault_spec;
      trial_faults.seed += trial * 0xC2B2AE3D27D4EB4FULL;
      memory = std::make_unique<faults::FaultableMemory>(std::move(memory),
                                                         trial_faults);
    }
    util::Rng rng(options.seed + trial * 0x9E3779B97F4A7C15ULL);
    util::Executor executor;
    TraceRunResult& shard = shards[s];
    // Shard-local sink, folded into the merged result in shard order
    // below. Kept outside `shard` while serving: the family stage
    // assigns the whole TraceRunResult at once.
    obs::Sink sink(obs::SinkOptions{options.obs_sample_interval,
                                    options.obs_journal_capacity});
    obs::Sink* obs_sink =
        obs::kEnabled && options.obs_enabled ? &sink : nullptr;
    if (obs_sink != nullptr) {
      memory->set_observer(obs_sink);
    }
    if (stage < families.size()) {
      // Reach this family's stream: family f uses the (f+1)-th split of
      // the trial generator, exactly as the sequential loop drew them.
      for (std::size_t f = 0; f < stage; ++f) {
        (void)rng.split();
      }
      auto family_rng = rng.split();
      const auto trace = pram::make_trace(families[stage], n, m,
                                          options.steps_per_family,
                                          family_rng, options.trace);
      shard = run_trace_pipelined(
          *memory, trace, double_buffer,
          ScrubCadence{options.scrub_interval, options.scrub_budget,
                       obs_sink},
          shard_level_serial ? &executor : nullptr, obs_sink);
    } else {
      for (std::size_t f = 0; f < families.size(); ++f) {
        (void)rng.split();
      }
      // Map-crafted congestion batches when the scheme exposes its map;
      // otherwise the scheme's own adversary (e.g. the hashed baseline's
      // known-hash preimage attack). Schemes with neither are skipped.
      // Generation stays interleaved with serving — never pre-built or
      // double-buffered — so a state-dependent adversary (virtual
      // adversarial_vars) keeps tracking any placement change serving
      // causes (e.g. a rehashing backend redrawing its hash).
      const memmap::MemoryMap* map = memory->memory_map();
      shard.storage_factor = memory->storage_redundancy();
      const ScrubCadence scrub{options.scrub_interval, options.scrub_budget,
                               obs_sink};
      PlanBuilder builder;
      std::vector<pram::Word> values;
      pram::ServeContext ctx({}, shard_level_serial ? &executor : nullptr);
      for (std::size_t step = 0; step < options.steps_per_family; ++step) {
        const auto vars =
            map != nullptr ? memmap::adversarial_batch(*map, n, rng.next())
                           : memory->adversarial_vars(n, rng.next());
        if (vars.empty()) {
          break;
        }
        pram::AccessBatch batch;
        batch.reserve(vars.size());
        for (std::uint32_t i = 0; i < vars.size(); ++i) {
          batch.push_back({ProcId(i % n), pram::AccessOp::kRead, vars[i], 0});
        }
        obs::PhaseSet* phases = obs_sink != nullptr &&
                                        obs_sink->sample(step + 1)
                                    ? &obs_sink->phases
                                    : nullptr;
        const pram::AccessPlan* plan;
        {
          obs::ScopedPhase timer(phases, obs::Phase::kPlanBuild);
          plan = &builder.build(batch, *memory);
        }
        values.resize(plan->reads.size());
        ctx.bind(values);
        {
          obs::ScopedPhase timer(phases, obs::Phase::kServe);
          record_step(shard, memory->serve(*plan, ctx));
        }
        scrub.maybe_scrub(*memory, step + 1, shard);
      }
    }
    shard.reliability = memory->reliability();
    if (obs_sink != nullptr) {
      memory->set_observer(nullptr);
      sink.journal.flush();
      shard.obs = std::move(sink);
    }
  });

  // Deterministic merge in (trial, family, step) order — shard order is
  // fixed by construction, so the fold is identical at any thread count.
  TraceRunResult merged;
  merged.storage_factor = instance_.memory->storage_redundancy();
  if (obs::kEnabled && options.obs_enabled) {
    // Same ring bound for the merged journal as for each shard's.
    merged.obs = obs::Sink(obs::SinkOptions{options.obs_sample_interval,
                                            options.obs_journal_capacity});
  }
  for (const auto& shard : shards) {
    merged.merge(shard);
  }
  merged.obs.journal.flush();
  return merged;
}

FaultSweepResult SimulationPipeline::run_fault_sweep(
    const FaultSweepOptions& options) const {
  FaultSweepResult result;
  result.total.storage_factor = instance_.memory->storage_redundancy();
  for (const double rate : options.rates) {
    const auto level_spec = faults::at_rate(options.proto, rate);
    FaultLevelResult level;
    level.rate = rate;
    level.run = run_with_faults(level_spec, options.stress);
    if (level.run.reliability.wrong_reads > 0) {
      level.run.breaking_fault_rate = rate;
    }
    if (result.first_uncorrectable_rate < 0.0 &&
        level.run.reliability.uncorrectable > 0) {
      result.first_uncorrectable_rate = rate;
    }
    if (options.measure_recovery && !level_spec.inert()) {
      level.recovery_steps =
          run_recovery(level_spec, options.recovery).recovery_steps;
      if (level.recovery_steps > result.worst_recovery_steps) {
        result.worst_recovery_steps = level.recovery_steps;
      }
    }
    result.total.merge(level.run);
    result.levels.push_back(std::move(level));
  }
  return result;
}

const char* to_string(KillPoint point) {
  switch (point) {
    case KillPoint::kCleanShutdown: return "clean_shutdown";
    case KillPoint::kMidWalAppend: return "mid_wal_append";
    case KillPoint::kAfterWalFlush: return "after_wal_flush";
    case KillPoint::kMidCheckpoint: return "mid_checkpoint";
    case KillPoint::kAfterCheckpointPreTruncate:
      return "after_checkpoint_pre_truncate";
  }
  return "unknown";
}

std::vector<KillPoint> all_kill_points() {
  return {KillPoint::kCleanShutdown, KillPoint::kMidWalAppend,
          KillPoint::kAfterWalFlush, KillPoint::kMidCheckpoint,
          KillPoint::kAfterCheckpointPreTruncate};
}

CrashRecoveryResult SimulationPipeline::run_crash_recovery(
    const CrashRecoveryOptions& options,
    const faults::FaultSpec* fault_spec) const {
  namespace fs = std::filesystem;
  CrashRecoveryResult result;
  const DurabilityOptions& dur = options.durability;
  PRAMSIM_ASSERT_MSG(!dur.directory.empty(),
                     "CrashRecoveryOptions needs a durability directory");
  fs::create_directories(dur.directory);
  const std::string wal_path =
      (fs::path(dur.directory) / "wal.log").string();
  // A crash run owns its directory: stale files from a previous run must
  // not leak into this run's recovery.
  fs::remove(wal_path);
  for (const auto& entry : fs::directory_iterator(dur.directory)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      fs::remove(entry.path());
    }
  }

  const std::size_t steps = std::max<std::size_t>(options.steps, 1);
  // The kill step derives from the seed (decorrelated from the traffic
  // stream), so a matrix sweep over seeds covers kill positions all over
  // the run without hand-picking them.
  util::Rng kill_rng(options.seed ^ 0xD1B54A32D192ED03ULL);
  const std::uint64_t kill =
      options.kill_step != 0
          ? std::min<std::uint64_t>(options.kill_step, steps)
          : 1 + kill_rng.below(steps);
  result.kill_step = kill;

  util::Rng trace_rng(options.seed);
  const auto trace = pram::make_trace(options.family, spec_.n, instance_.m,
                                      steps, trace_rng, options.trace);

  obs::Sink sink(obs::SinkOptions{options.obs_sample_interval,
                                  options.obs_journal_capacity});
  obs::Sink* obs_sink =
      obs::kEnabled && options.obs_enabled ? &sink : nullptr;

  // The crashed run, the recovered machine, and the reference run must
  // be three instances of the SAME configuration (scheme seed and fault
  // seed included), or restore/compare would be meaningless.
  const auto build_memory = [&]() -> std::unique_ptr<pram::MemorySystem> {
    auto instance = make_scheme(spec_);
    std::unique_ptr<pram::MemorySystem> memory =
        std::move(instance.memory);
    if (fault_spec != nullptr) {
      memory = std::make_unique<faults::FaultableMemory>(std::move(memory),
                                                         *fault_spec);
    }
    return memory;
  };

  durability::Wal::RecordSpan torn_span;
  {
    auto memory = build_memory();
    if (obs_sink != nullptr) {
      memory->set_observer(obs_sink);
    }
    // Fault-onset acknowledgements: the durable run logs each realized
    // onset once the step clock crosses it, so the post-crash log shows
    // which failures the run had already acknowledged.
    std::span<const faults::ModuleOnset> onsets;
    if (fault_spec != nullptr) {
      onsets = static_cast<faults::FaultableMemory*>(memory.get())
                   ->model()
                   .onset_schedule();
    }
    std::size_t onset_cursor = 0;

    durability::Wal wal({wal_path, dur.wal_flush_interval}, obs_sink);
    durability::Checkpointer checkpointer(
        {dur.directory, dur.keep_checkpoints}, obs_sink);

    PlanBuilder builder;
    std::vector<pram::Word> values;
    util::Executor executor;
    pram::ServeContext ctx({}, &executor);
    for (std::uint64_t step = 1; step <= kill; ++step) {
      const pram::AccessPlan* plan;
      plan = &builder.build(trace[step - 1], *memory);
      values.resize(plan->reads.size());
      ctx.bind(values);
      (void)memory->serve(*plan, ctx);
      while (onset_cursor < onsets.size() &&
             onsets[onset_cursor].step <= step) {
        wal.append_onset(step, onsets[onset_cursor].module.index());
        ++onset_cursor;
      }
      wal.append_step(step, plan->writes);
      if (step == kill) {
        break;
      }
      wal.maybe_flush(step);
      if (dur.checkpoint_interval != 0 &&
          step % dur.checkpoint_interval == 0) {
        wal.flush();
        checkpointer.write(*memory, step);
        wal.truncate_through(step);
      }
    }

    switch (options.kill_point) {
      case KillPoint::kCleanShutdown:
        wal.flush();
        checkpointer.write(*memory, kill);
        wal.truncate_through(kill);
        break;
      case KillPoint::kMidWalAppend:
        // Flush everything, then (post-scope) cut the file inside the
        // final record's byte span: the classic torn final write.
        wal.flush();
        torn_span = wal.last_record();
        break;
      case KillPoint::kAfterWalFlush:
        wal.flush();
        break;
      case KillPoint::kMidCheckpoint: {
        // The WAL is durable through the kill step; the checkpoint that
        // was being written when the process died is a torn prefix on
        // disk. Recovery must reject it and fall back.
        wal.flush();
        const std::vector<std::uint8_t> image =
            durability::Checkpointer::file_image(*memory, kill);
        const std::size_t cut = 1 + kill_rng.below(image.size() - 1);
        const std::string path =
            durability::Checkpointer::path_for(dur.directory, kill);
        std::FILE* file = std::fopen(path.c_str(), "wb");
        PRAMSIM_ASSERT(file != nullptr);
        PRAMSIM_ASSERT(std::fwrite(image.data(), 1, cut, file) == cut);
        std::fclose(file);
        break;
      }
      case KillPoint::kAfterCheckpointPreTruncate:
        // Checkpoint durable, truncate never ran: the log still holds
        // records the checkpoint covers; replay must filter them.
        wal.flush();
        checkpointer.write(*memory, kill);
        break;
    }
    result.checkpoint_bytes = checkpointer.last_bytes();
    if (obs_sink != nullptr) {
      memory->set_observer(nullptr);
    }
  }  // the crash: Wal closes here WITHOUT flushing any buffered tail

  if (options.kill_point == KillPoint::kMidWalAppend &&
      torn_span.length > 1) {
    fs::resize_file(wal_path, torn_span.offset + 1 +
                                  kill_rng.below(torn_span.length - 1));
  }
  result.wal_bytes = fs::exists(wal_path) ? fs::file_size(wal_path) : 0;

  // Restart: a fresh machine recovers from what survived on disk.
  auto recovered = build_memory();
  if (obs_sink != nullptr) {
    recovered->set_observer(obs_sink);
  }
  util::Stopwatch timer;
  result.recovery = durability::recover(*recovered, wal_path,
                                        dur.directory, dur.scrub_budget,
                                        obs_sink);
  result.recovery_seconds = timer.elapsed_seconds();
  result.durable_step = result.recovery.recovered_step;
  if (obs_sink != nullptr) {
    recovered->set_observer(nullptr);
  }

  // Reference: an uninterrupted run of the same trace, stopped at the
  // durable horizon. Its committed-write trace doubles as the oracle for
  // the zero-lost-durable-writes check.
  auto reference = build_memory();
  faults::TraceChecker committed;
  {
    PlanBuilder builder;
    std::vector<pram::Word> values;
    util::Executor executor;
    pram::ServeContext ctx({}, &executor);
    for (std::uint64_t step = 1; step <= result.durable_step; ++step) {
      const pram::AccessPlan* plan =
          &builder.build(trace[step - 1], *reference);
      values.resize(plan->reads.size());
      ctx.bind(values);
      (void)reference->serve(*plan, ctx);
      for (const pram::VarWrite& write : plan->writes) {
        committed.record_write(write.var, write.value);
      }
    }
  }

  result.bit_exact = true;
  const std::uint64_t m = reference->size();
  for (std::uint64_t v = 0; v < m; ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    if (reference->peek(var) != recovered->peek(var)) {
      result.bit_exact = false;
    }
    ++result.vars_checked;
  }
  // Under fault injection peek is fault-aware (a dead module's loss is
  // visible in BOTH instances), so the ideal-value comparison is only
  // meaningful fault-free; the bit_exact reference comparison above is
  // the authoritative check either way.
  if (fault_spec == nullptr) {
    for (const auto& [var, value] : committed.ideal()) {
      if (recovered->peek(VarId(static_cast<std::uint32_t>(var))) !=
          value) {
        ++result.lost_committed_writes;
      }
    }
  }
  if (obs_sink != nullptr) {
    sink.journal.flush();
    result.obs = std::move(sink);
  }
  return result;
}

RecoveryResult SimulationPipeline::run_recovery(
    const faults::FaultSpec& fault_spec,
    const RecoveryOptions& options) const {
  RecoveryResult result;
  // One fresh machine, wrapped for injection + oracle checking; the whole
  // probe is served on this thread so the trajectory is bit-identical at
  // any worker-thread count.
  auto instance = make_scheme(spec_);
  const std::uint64_t m = instance.m;
  auto memory = std::make_unique<faults::FaultableMemory>(
      std::move(instance.memory), fault_spec);
  result.onset_step =
      static_cast<std::int64_t>(memory->model().first_onset());

  obs::Sink* obs_sink = nullptr;
  if (obs::kEnabled && options.obs_enabled) {
    result.obs = obs::Sink(obs::SinkOptions{options.obs_sample_interval,
                                            options.obs_journal_capacity});
    obs_sink = &result.obs;
    memory->set_observer(obs_sink);
  }

  util::Rng rng(options.seed);
  const auto trace = pram::make_trace(options.family, spec_.n, m,
                                      options.steps, rng, options.trace);
  const ScrubCadence scrub{options.scrub_interval, options.scrub_budget,
                           obs_sink};

  PlanBuilder builder;
  std::vector<pram::Word> values;
  util::Executor executor;
  pram::ServeContext ctx({}, &executor);
  pram::ReliabilityStats prev;
  result.trajectory.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    obs::PhaseSet* phases =
        obs_sink != nullptr && obs_sink->sample(i + 1) ? &obs_sink->phases
                                                       : nullptr;
    const pram::AccessPlan* plan;
    {
      obs::ScopedPhase timer(phases, obs::Phase::kPlanBuild);
      plan = &builder.build(trace[i], *memory);
    }
    values.resize(plan->reads.size());
    ctx.bind(values);
    {
      obs::ScopedPhase timer(phases, obs::Phase::kServe);
      (void)memory->serve(*plan, ctx);
    }
    // Scrub AFTER sampling? No: scrub between steps, then sample, so a
    // step's point reflects the reads it served and the repairs that
    // followed it — the next step is the first to benefit.
    TraceRunResult scrub_sink;
    scrub.maybe_scrub(*memory, i + 1, scrub_sink);
    result.scrub.merge(scrub_sink.scrub);

    const pram::ReliabilityStats now = memory->reliability();
    RecoveryPoint point;
    point.step = i + 1;
    point.reads = now.reads_served - prev.reads_served;
    point.masked = now.faults_masked - prev.faults_masked;
    point.uncorrectable = now.uncorrectable - prev.uncorrectable;
    point.wrong = now.wrong_reads - prev.wrong_reads;
    point.repaired = now.units_repaired - prev.units_repaired;
    point.relocated = now.units_relocated - prev.units_relocated;
    point.degraded_rate =
        point.reads > 0 ? static_cast<double>(point.masked +
                                              point.uncorrectable) /
                              static_cast<double>(point.reads)
                        : 0.0;
    prev = now;
    result.trajectory.push_back(point);
  }
  result.reliability = memory->reliability();
  if (obs_sink != nullptr) {
    memory->set_observer(nullptr);
    result.obs.journal.flush();
  }

  // Read the recovery time off the trajectory: the first over-threshold
  // step is the injury, and recovery is the first step from which the
  // degraded rate STAYS at or below the threshold.
  std::int64_t last_bad = -1;
  for (const auto& point : result.trajectory) {
    result.peak_degraded_rate =
        std::max(result.peak_degraded_rate, point.degraded_rate);
    if (point.degraded_rate > options.recovery_threshold) {
      if (result.first_degraded_step < 0) {
        result.first_degraded_step = static_cast<std::int64_t>(point.step);
      }
      last_bad = static_cast<std::int64_t>(point.step);
    }
  }
  if (!result.trajectory.empty()) {
    result.final_degraded_rate = result.trajectory.back().degraded_rate;
  }
  if (result.first_degraded_step >= 0) {
    const auto last_step =
        static_cast<std::int64_t>(result.trajectory.back().step);
    if (last_bad < last_step) {
      result.recovered_step = last_bad + 1;
      result.recovery_steps =
          result.recovered_step - result.first_degraded_step;
    }
  }
  return result;
}

}  // namespace pramsim::core
