// Fault vocabulary shared by every storage organization.
//
// The base regime follows Chlebus-Gasieniec-Pelc ("Deterministic
// Computations on a PRAM with Static Processor and Memory Faults"): faults
// are fixed before the computation starts, and come in three flavors at
// the storage layer:
//
//   * dead modules   - a memory module fails entirely; every copy/share/
//                      cell it holds becomes an erasure (known-bad);
//   * stuck-at cells - a single copy/share always reads a fixed garbage
//                      value regardless of writes (detectable only by
//                      disagreement with its peers);
//   * silent write corruption - a store operation commits a corrupted
//                      word (decided per write, undetectable locally).
//
// On top of the static regime sits the DYNAMIC extension: every fault
// carries a deterministic, seed-derived ONSET STEP, and each query takes
// the asking scheme's current P-RAM step. A fault is inactive before its
// onset and active from the onset on (faults never heal by themselves —
// recovery is the job of MemorySystem::scrub, which re-replicates /
// re-disperses lost data onto healthy modules). With every onset at 0 the
// hooks answer exactly as the classic static model did, so static sweeps
// are unchanged bit-for-bit.
//
// Schemes consult a FaultHooks implementation at the COPY/SHARE level, so
// majority voting really sees divergent replicas and IDA reconstruction
// really runs with missing shares — the wrapper never just lies about the
// final value. faults::FaultModel is the seeded deterministic
// implementation; tests craft their own hooks for exact-threshold cases.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "pram/types.hpp"
#include "util/rng.hpp"

namespace pramsim::pram {

/// Copy/share-level fault surface a storage scheme consults while
/// serving accesses. `entity` is the scheme's storage unit index: the
/// variable id for replicated copies and flat cells, the block id for
/// IDA shares. `copy` is the copy/share index within the entity. `step`
/// is the asking scheme's current P-RAM step number (its monotonic step
/// counter; 0 = before any step was served), which gates dynamic-onset
/// faults. Implementations must be deterministic pure functions of their
/// inputs, and MONOTONE in `step`: once a fault is active at step s it is
/// active at every step >= s (failures accumulate; repair happens in the
/// storage layer, never inside the hooks).
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;
  FaultHooks() = default;
  FaultHooks(const FaultHooks&) = delete;
  FaultHooks& operator=(const FaultHooks&) = delete;

  /// Module failed entirely by `step`: its contents are erasures
  /// (known-bad) from the module's onset step onward.
  [[nodiscard]] virtual bool module_dead(ModuleId module,
                                         std::uint64_t step) const = 0;

  /// The latest onset over the modules dead at `step`, or std::nullopt
  /// when none is; a module's onset is the first step module_dead answers
  /// true for it. Must agree with a scan of module_dead over every
  /// module, which per-step callers (the cache's fault epoch) use this
  /// to avoid. The optional keeps "nothing has died" apart from "died at
  /// step 0" (the static regime, where every onset is 0).
  [[nodiscard]] virtual std::optional<std::uint64_t> last_module_death(
      std::uint64_t step) const = 0;

  /// Stuck-at fault active by `step`: reads of this copy/share observe
  /// `value` (set on return true), regardless of what was written.
  [[nodiscard]] virtual bool stuck_at(std::uint64_t entity,
                                      std::uint32_t copy,
                                      std::uint64_t step,
                                      Word& value) const = 0;

  /// Silent corruption of a word being stored. `stamp` is the per-store
  /// re-roll key (each re-write re-rolls the Bernoulli trial); `step` is
  /// the P-RAM step clock gating the fault's onset — the two coincide for
  /// schemes whose store counter is the step counter, but IDA re-rolls
  /// per encode while onsets stay in step units. On return true, `value`
  /// has been replaced by the corrupted word actually committed.
  [[nodiscard]] virtual bool corrupt_write(std::uint64_t entity,
                                           std::uint32_t copy,
                                           std::uint64_t stamp,
                                           std::uint64_t step,
                                           Word& value) const = 0;
};

/// Deterministic relocation target for scrub repair: probe a seeded-hash
/// sequence over the module space until a module is found that is alive
/// at `step` under `hooks` and not already in `taken` (a storage unit
/// must keep its copies/shares on distinct modules). The sequence is a
/// pure function of (salt, entity, unit) — independent of scan order and
/// prior passes — and bounded so a machine with (nearly) every module
/// dead terminates. Returns false when no healthy module was found.
[[nodiscard]] inline bool pick_healthy_module(
    const FaultHooks& hooks, std::uint64_t step, std::uint32_t n_modules,
    std::uint64_t salt, std::uint64_t entity, std::uint32_t unit,
    std::span<const ModuleId> taken, ModuleId& out) {
  util::SplitMix64 probe(salt ^ entity * 0x9E3779B97F4A7C15ULL ^
                         (unit + 1) * 0xBF58476D1CE4E5B9ULL);
  const std::uint64_t attempts = 4ULL * n_modules + 16;
  for (std::uint64_t attempt = 0; attempt < attempts; ++attempt) {
    const ModuleId candidate(
        static_cast<std::uint32_t>(probe.next() % n_modules));
    if (hooks.module_dead(candidate, step)) {
      continue;
    }
    bool clash = false;
    for (const auto module : taken) {
      if (module == candidate) {
        clash = true;
        break;
      }
    }
    if (!clash) {
      out = candidate;
      return true;
    }
  }
  return false;
}

/// Reliability telemetry accumulated by a scheme operating under
/// FaultHooks (all zero when no hooks are installed). The "wrong_reads"
/// field is owned by the trace-consistency checker (faults::TraceChecker
/// via faults::FaultableMemory): a scheme cannot know its vote was wrong.
/// The scrub counters are owned by MemorySystem::scrub implementations.
struct ReliabilityStats {
  std::uint64_t reads_served = 0;   ///< variable reads answered
  std::uint64_t faults_masked = 0;  ///< reads answered despite >=1 bad unit
  std::uint64_t units_faulty = 0;   ///< dead/stuck/corrupt copies|shares met
  std::uint64_t erasures_skipped = 0;  ///< known-dead units excluded
  /// IDA: shares a FAILED decode lacked to reach the threshold b (0 for
  /// every decode that succeeded; survived erasures count in
  /// erasures_skipped instead).
  std::uint64_t shares_short = 0;
  std::uint64_t uncorrectable = 0;  ///< reads below reconstruction threshold
  std::uint64_t wrong_reads = 0;    ///< oracle mismatches (silent failures)
  std::uint64_t writes_dropped = 0; ///< write targets lost to dead modules
  std::uint64_t corrupt_stores = 0; ///< stores that committed a bad word
  std::uint64_t units_repaired = 0; ///< copies/shares restored by scrubbing
  std::uint64_t units_relocated = 0;  ///< copies/shares moved off dead modules

  void merge(const ReliabilityStats& other) {
    reads_served += other.reads_served;
    faults_masked += other.faults_masked;
    units_faulty += other.units_faulty;
    erasures_skipped += other.erasures_skipped;
    shares_short += other.shares_short;
    uncorrectable += other.uncorrectable;
    wrong_reads += other.wrong_reads;
    writes_dropped += other.writes_dropped;
    corrupt_stores += other.corrupt_stores;
    units_repaired += other.units_repaired;
    units_relocated += other.units_relocated;
  }
};

}  // namespace pramsim::pram
