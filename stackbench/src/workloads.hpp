// The benchmark's workloads and the round that runs each of them.
//
// A round is one whole, self-contained run of a workload on a freshly
// built stack: the same seed gives the same round, so every round of a
// run yields the same simulated cost and the same checksum, and the
// benchmark measures by repeating whole rounds until its time is used.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cached_memory.hpp"
#include "core/schemes.hpp"
#include "obs/phase.hpp"
#include "pram/memory_system.hpp"
#include "pram/trace.hpp"
#include "reference.hpp"
#include "spans.hpp"

namespace stackbench {

struct Workload {
  std::string name;
  bool sort = false;  ///< bitonic sort through pram::Machine
  pramsim::core::SchemeSpec spec;

  // Fault model: a per-module kill rate plus silent write corruption,
  // each fault switched on at a step inside [onset_min, onset_max].
  double module_kill_rate = 0.0;
  double corruption_rate = 0.0;
  std::uint64_t onset_min = 0;
  std::uint64_t onset_max = 0;

  // Trace workloads: FaultableMemory(CachedMemory(scheme)) with scrub,
  // WAL group commit, checkpoints and a crash with recovery at the end.
  pramsim::pram::TraceFamily family = pramsim::pram::TraceFamily::kUniform;
  pramsim::pram::TraceParams trace;
  std::uint64_t cache_lines = 0;
  std::uint32_t warmup_steps = 0;
  std::uint32_t timed_steps = 0;
  std::uint32_t scrub_interval = 0;
  std::uint64_t scrub_budget = 0;
  std::uint32_t wal_flush_interval = 1;
  std::uint32_t checkpoint_interval = 0;
  std::uint64_t recovery_scrub_budget = 0;
};

[[nodiscard]] const std::vector<Workload>& all_workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);
/// The same workload cut to a few dozen steps, for the self-test.
[[nodiscard]] Workload shortened(const Workload& workload);

/// What every round of a run shares: the inputs generated from the seed
/// (the same seed gives the same inputs, so they are made once per run)
/// and scratch the rounds reset instead of reallocating.
struct RunInputs {
  std::uint64_t seed = 1;
  std::uint64_t m = 0;  ///< shared variables of the assembled scheme
  std::vector<pramsim::pram::AccessBatch> trace;  ///< trace workloads
  std::vector<pramsim::pram::Word> keys;          ///< the sort's input
  ReferenceMemory reference;         ///< reset by every round
  std::vector<std::int32_t> read_slot;  ///< all -1 between steps
};

[[nodiscard]] RunInputs make_inputs(const Workload& workload,
                                    std::uint64_t seed);

struct RoundOptions {
  std::string data_dir;  ///< WAL and checkpoint files of this round
  SpanRecorder* recorder = nullptr;  ///< non-null: the traced variant
  /// Non-zero: a TamperMemory on top of the stack changes one read value
  /// at this step (self-test negative case).
  std::uint64_t tamper_step = 0;
  /// True: the expected sorted output is perturbed at one key (self-test
  /// negative case for the sort workload).
  bool perturb_expected = false;
};

/// Everything one round measured and checked. Counters and costs cover
/// the timed steps only; the checks cover the whole round.
struct RoundResult {
  std::vector<double> step_us;  ///< host time of each timed step
  double timed_s = 0.0;
  /// Building the stack the round runs on, with its WAL and checkpoint
  /// files (and, for the sort, the Machine).
  double setup_s = 0.0;
  double make_scheme_s = 0.0;  ///< the make_scheme part of setup_s
  std::uint64_t checksum = 0;

  std::uint64_t sim_time = 0;
  std::uint64_t sim_work = 0;
  std::uint64_t max_queue = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t flagged_reads = 0;
  std::uint64_t wrong_reads = 0;
  std::uint64_t wrong_final = 0;
  std::uint64_t wrong_recovered = 0;
  std::uint64_t oracle_wrong_reads = 0;
  std::uint64_t oracle_uncorrectable = 0;

  pramsim::cache::CacheStats cache;
  std::uint64_t faults_masked = 0;
  std::uint64_t shares_short = 0;
  pramsim::pram::ScrubResult scrub;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t journal_events = 0;
  pramsim::obs::PhaseSet phases;
  double recover_s = 0.0;
  std::uint64_t replayed_records = 0;
  bool majority = false;  ///< the scheme is a majority-protocol scheme
};

[[nodiscard]] RoundResult run_round(const Workload& workload,
                                    RunInputs& inputs,
                                    const RoundOptions& options);

}  // namespace stackbench
