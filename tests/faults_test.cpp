// The reliability gate for the faults subsystem: the fault model is
// deterministic (same seed => same fault set => same telemetry), the
// replicated schemes survive exactly their theoretical tolerance
// (majority: floor((r-1)/2) colluding bad copies; IDA: d-b erasures) and
// break at exactly one more, erasure-only faults NEVER cause silent
// wrong reads on redundant schemes, and the single-copy baselines lose
// data immediately — the paper's redundancy earning its keep.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "fault_scan.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "hashing/mv_memory.hpp"
#include "ida/ida_memory.hpp"
#include "majority/majority_memory.hpp"
#include "memmap/memory_map.hpp"
#include "pram/memory_system.hpp"

namespace pramsim {
namespace {

// Test hooks: kill an explicit module set and/or stick explicit
// (entity, copy) cells at one colluding value — the adversary the
// tolerance theorems quantify over.
class CraftedHooks final : public pram::FaultHooks {
 public:
  std::unordered_set<std::uint32_t> dead;
  std::unordered_set<std::uint64_t> stuck;  ///< entity * 64 + copy
  pram::Word stuck_value = 999;

  [[nodiscard]] bool module_dead(ModuleId module,
                                 std::uint64_t step) const override {
    return step >= onset && dead.count(module.index()) != 0;
  }
  [[nodiscard]] std::optional<std::uint64_t> last_module_death(
      std::uint64_t step) const override {
    if (dead.empty() || step < onset) {
      return std::nullopt;
    }
    return onset;
  }
  [[nodiscard]] bool stuck_at(std::uint64_t entity, std::uint32_t copy,
                              std::uint64_t step,
                              pram::Word& value) const override {
    if (step < onset || stuck.count(entity * 64 + copy) == 0) {
      return false;
    }
    value = stuck_value;
    return true;
  }
  [[nodiscard]] bool corrupt_write(std::uint64_t, std::uint32_t,
                                   std::uint64_t, std::uint64_t,
                                   pram::Word&) const override {
    return false;
  }
  /// Faults activate from this step on (0 = static, always active).
  std::uint64_t onset = 0;
};

pram::Word read_one(pram::MemorySystem& memory, VarId var) {
  const VarId reads[] = {var};
  pram::Word values[] = {0};
  (void)memory.step(reads, values, {});
  return values[0];
}

void write_one(pram::MemorySystem& memory, VarId var, pram::Word value) {
  const pram::VarWrite writes[] = {{var, value}};
  (void)memory.step({}, {}, writes);
}

// ------------------------------------------------ FaultModel ------------

TEST(FaultModel, SameSeedSameFaultSet) {
  const faults::FaultSpec spec{.seed = 42,
                               .dead_modules = 5,
                               .module_kill_rate = 0.1,
                               .stuck_rate = 0.05,
                               .corruption_rate = 0.2};
  const faults::FaultModel a(spec, 64);
  const faults::FaultModel b(spec, 64);
  EXPECT_EQ(a.dead_module_count(), b.dead_module_count());
  EXPECT_GE(a.dead_module_count(), 5u);
  for (std::uint32_t module = 0; module < 64; ++module) {
    EXPECT_EQ(a.module_dead(ModuleId(module), 0),
              b.module_dead(ModuleId(module), 0));
  }
  for (std::uint64_t entity = 0; entity < 200; ++entity) {
    for (std::uint32_t copy = 0; copy < 4; ++copy) {
      pram::Word va = 0;
      pram::Word vb = 0;
      ASSERT_EQ(a.stuck_at(entity, copy, 0, va),
                b.stuck_at(entity, copy, 0, vb));
      ASSERT_EQ(va, vb);
      pram::Word wa = 7;
      pram::Word wb = 7;
      ASSERT_EQ(a.corrupt_write(entity, copy, 3, 0, wa),
                b.corrupt_write(entity, copy, 3, 0, wb));
      ASSERT_EQ(wa, wb);
    }
  }
}

TEST(FaultModel, DifferentSeedsDiverge) {
  const faults::FaultSpec a_spec{.seed = 1, .module_kill_rate = 0.5};
  const faults::FaultSpec b_spec{.seed = 2, .module_kill_rate = 0.5};
  const faults::FaultModel a(a_spec, 256);
  const faults::FaultModel b(b_spec, 256);
  std::uint32_t differing = 0;
  for (std::uint32_t module = 0; module < 256; ++module) {
    differing += a.module_dead(ModuleId(module), 0) !=
                 b.module_dead(ModuleId(module), 0);
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultModel, ExactKillCountAndRateCompose) {
  const faults::FaultModel exact({.seed = 9, .dead_modules = 7}, 32);
  EXPECT_EQ(exact.dead_module_count(), 7u);
  EXPECT_EQ(exact.dead_modules().size(), 7u);
  const faults::FaultModel none({.seed = 9}, 32);
  EXPECT_EQ(none.dead_module_count(), 0u);
  EXPECT_TRUE(none.spec().inert());
}

// The onset schedule answers last_module_death by binary search; it must
// agree with a scan of module_dead over every module at every step, and
// hold exactly the kill set in (onset, module) order.
TEST(FaultModel, LastModuleDeathMatchesModuleScan) {
  constexpr std::uint32_t kModules = 96;
  const faults::FaultSpec specs[] = {
      {.seed = 3, .module_kill_rate = 0.2},                 // static
      {.seed = 5, .module_kill_rate = 0.2,
       .onset_min = 4, .onset_max = 40},                    // dynamic
      {.seed = 9, .dead_modules = 7},                       // exact, static
      {.seed = 9, .dead_modules = 12,
       .onset_min = 10, .onset_max = 13},                   // exact, ties
      {.seed = 11, .dead_modules = 2, .module_kill_rate = 0.1,
       .onset_min = 1, .onset_max = 30},                    // both axes
      {.seed = 13, .stuck_rate = 0.5,
       .onset_min = 16, .onset_max = 24},                   // empty kill set
  };
  for (const auto& spec : specs) {
    const faults::FaultModel model(spec, kModules);
    for (std::uint64_t step = 0; step <= spec.onset_max + 2; ++step) {
      ASSERT_EQ(model.last_module_death(step),
                scan_last_module_death(model, kModules, step))
          << "seed " << spec.seed << " step " << step;
    }

    const auto schedule = model.onset_schedule();
    EXPECT_TRUE(std::is_sorted(schedule.begin(), schedule.end()));
    std::vector<ModuleId> scheduled;
    for (const auto& entry : schedule) {
      EXPECT_EQ(entry.step, model.module_onset(entry.module));
      scheduled.push_back(entry.module);
    }
    std::sort(scheduled.begin(), scheduled.end());
    // Exactly the kill set, each module once: the scan over every module.
    std::vector<ModuleId> dead;
    for (std::uint32_t m = 0; m < kModules; ++m) {
      if (model.module_dead(ModuleId(m), spec.onset_max)) {
        dead.emplace_back(m);
      }
    }
    EXPECT_EQ(scheduled, dead);
    EXPECT_EQ(scheduled, model.dead_modules());
    if (!schedule.empty()) {
      EXPECT_EQ(model.first_onset(), schedule.front().step);
    }
  }
}

TEST(FaultModel, AtRateScalesOnlyRateAxes) {
  const faults::FaultSpec proto{.seed = 5,
                                .dead_modules = 3,
                                .module_kill_rate = 1.0,
                                .stuck_rate = 0.5,
                                .corruption_rate = 1.0};
  const auto scaled = faults::at_rate(proto, 0.1);
  EXPECT_EQ(scaled.seed, 5u);
  EXPECT_EQ(scaled.dead_modules, 3u);
  EXPECT_DOUBLE_EQ(scaled.module_kill_rate, 0.1);
  EXPECT_DOUBLE_EQ(scaled.stuck_rate, 0.05);
  EXPECT_DOUBLE_EQ(scaled.corruption_rate, 0.1);
}

// ------------------------------------- majority tolerance thresholds ----

TEST(MajorityFaults, SurvivesFloorHalfBadCopiesAndBreaksAtOneMore) {
  auto memory = core::make_memory({.kind = core::SchemeKind::kDmmpc,
                                   .n = 16,
                                   .seed = 11});
  auto* majority_mem =
      dynamic_cast<majority::MajorityMemory*>(memory.get());
  ASSERT_NE(majority_mem, nullptr);
  const std::uint32_t r = majority_mem->map().redundancy();
  ASSERT_GE(r, 3u);
  const std::uint32_t tolerance = (r - 1) / 2;
  const VarId var(7);

  // floor((r-1)/2) colluding stuck copies: the vote recovers.
  {
    CraftedHooks hooks;
    for (std::uint32_t copy = 0; copy < tolerance; ++copy) {
      hooks.stuck.insert(var.index() * 64 + copy);
    }
    ASSERT_TRUE(memory->set_fault_hooks(&hooks));
    write_one(*memory, var, 1234);
    EXPECT_EQ(read_one(*memory, var), 1234);
    const auto stats = memory->reliability();
    EXPECT_GE(stats.faults_masked, 1u);
    EXPECT_EQ(stats.uncorrectable, 0u);
  }
  // One more colluding bad copy: the fake majority wins — wrong value.
  {
    CraftedHooks hooks;
    for (std::uint32_t copy = 0; copy < tolerance + 1; ++copy) {
      hooks.stuck.insert(var.index() * 64 + copy);
    }
    ASSERT_TRUE(memory->set_fault_hooks(&hooks));
    write_one(*memory, var, 1234);
    EXPECT_EQ(read_one(*memory, var), hooks.stuck_value);
  }
}

TEST(MajorityFaults, SurvivesAllButOneErasureThenGoesUncorrectable) {
  auto memory = core::make_memory({.kind = core::SchemeKind::kDmmpc,
                                   .n = 16,
                                   .seed = 13});
  const memmap::MemoryMap* map = memory->memory_map();
  ASSERT_NE(map, nullptr);
  const VarId var(3);
  const auto modules = map->copies(var);

  // Kill every module holding a copy except the last: still correct
  // (erasures are known-bad; the lone survivor is trusted).
  CraftedHooks hooks;
  for (std::size_t i = 0; i + 1 < modules.size(); ++i) {
    hooks.dead.insert(modules[i].index());
  }
  ASSERT_TRUE(memory->set_fault_hooks(&hooks));
  write_one(*memory, var, 555);
  EXPECT_EQ(read_one(*memory, var), 555);
  EXPECT_GE(memory->reliability().faults_masked, 1u);
  EXPECT_EQ(memory->reliability().uncorrectable, 0u);

  // Kill the last one too: the variable is gone, and the scheme KNOWS
  // (flagged uncorrectable, not a silent lie).
  hooks.dead.insert(modules.back().index());
  write_one(*memory, var, 777);
  EXPECT_EQ(read_one(*memory, var), 0);
  EXPECT_GE(memory->reliability().uncorrectable, 1u);
}

// ------------------------------------------ IDA tolerance thresholds ----

TEST(IdaFaults, SurvivesDMinusBErasuresAndBreaksAtOneMore) {
  const ida::IdaMemoryConfig config{
      .b = 4, .d = 8, .n_modules = 32, .seed = 21};
  const std::uint64_t m_vars = 64;
  // Reconstruct the share placement the memory uses (same parameters,
  // same seed) to find which modules hold block 0's shares.
  const std::uint64_t n_blocks = (m_vars + config.b - 1) / config.b;
  const memmap::HashedMap placement(n_blocks, config.n_modules, config.d,
                                    config.seed);
  const auto share_modules = placement.copies(VarId(0));
  ASSERT_EQ(share_modules.size(), config.d);
  const VarId var(1);  // lives in block 0

  // d - b erasures: reconstruction from the b survivors is exact.
  {
    ida::IdaMemory memory(m_vars, config);
    CraftedHooks hooks;
    for (std::uint32_t j = 0; j < config.d - config.b; ++j) {
      hooks.dead.insert(share_modules[j].index());
    }
    ASSERT_TRUE(memory.set_fault_hooks(&hooks));
    write_one(memory, var, 4242);
    EXPECT_EQ(read_one(memory, var), 4242);
    const auto stats = memory.reliability();
    EXPECT_GE(stats.faults_masked, 1u);
    EXPECT_EQ(stats.uncorrectable, 0u);
    // Survived erasures count as skipped; shares_short counts only the
    // shortfall of failed decodes.
    EXPECT_GE(stats.erasures_skipped, 1u);
    EXPECT_EQ(stats.shares_short, 0u);
  }
  // One more erasure: below the reconstruction threshold — flagged.
  {
    ida::IdaMemory memory(m_vars, config);
    CraftedHooks hooks;
    for (std::uint32_t j = 0; j < config.d - config.b + 1; ++j) {
      hooks.dead.insert(share_modules[j].index());
    }
    ASSERT_TRUE(memory.set_fault_hooks(&hooks));
    write_one(memory, var, 4242);
    EXPECT_EQ(read_one(memory, var), 0);
    const auto stats = memory.reliability();
    EXPECT_GE(stats.uncorrectable, 1u);
    EXPECT_GE(stats.shares_short, 1u);
  }
}

TEST(IdaFaults, StuckShareSilentlyPoisonsTheBlock) {
  const ida::IdaMemoryConfig config{
      .b = 4, .d = 8, .n_modules = 32, .seed = 23};
  ida::IdaMemory memory(64, config);
  CraftedHooks hooks;
  hooks.stuck.insert(0 * 64 + 0);  // block 0, share 0 stuck
  ASSERT_TRUE(memory.set_fault_hooks(&hooks));
  write_one(memory, VarId(1), 4242);
  // IDA corrects erasures, not errors: the stuck share joins the
  // interpolation and the recovered block is garbage — silently.
  EXPECT_NE(read_one(memory, VarId(1)), 4242);
  EXPECT_EQ(memory.reliability().uncorrectable, 0u);
}

// ---------------------------------------- IDA share checksums -----------

TEST(IdaFaults, CheckSharesTurnStuckPoisonIntoMaskedFault) {
  // Same adversary as StuckShareSilentlyPoisonsTheBlock, but with
  // per-share checksums: the stuck share's value no longer matches the
  // checksum its writer stored, so it is EXCLUDED from the
  // interpolation like an erasure and the surviving 7 >= b shares
  // recover the true block — a masked fault instead of a silent lie.
  ida::IdaMemoryConfig config{.b = 4, .d = 8, .n_modules = 32, .seed = 23};
  config.check_shares = true;
  ida::IdaMemory memory(64, config);
  // Detection is bought with one checksum word per share: 2d/b storage.
  EXPECT_DOUBLE_EQ(memory.storage_redundancy(), 4.0);
  CraftedHooks hooks;
  hooks.stuck.insert(0 * 64 + 0);  // block 0, share 0 stuck
  ASSERT_TRUE(memory.set_fault_hooks(&hooks));
  write_one(memory, VarId(1), 4242);
  EXPECT_EQ(read_one(memory, VarId(1)), 4242);
  EXPECT_GE(memory.reliability().faults_masked, 1u);
  EXPECT_EQ(memory.reliability().uncorrectable, 0u);
}

TEST(IdaFaults, CheckSharesFlagOutageWhenTooFewSharesVerify) {
  // d-b+1 stuck shares: detection rejects them all, fewer than b clean
  // shares remain, and the block is a FLAGGED outage — degraded
  // honestly, never silently.
  ida::IdaMemoryConfig config{.b = 4, .d = 8, .n_modules = 32, .seed = 23};
  config.check_shares = true;
  ida::IdaMemory memory(64, config);
  CraftedHooks hooks;
  for (std::uint32_t j = 0; j < config.d - config.b + 1; ++j) {
    hooks.stuck.insert(0 * 64 + j);
  }
  ASSERT_TRUE(memory.set_fault_hooks(&hooks));
  write_one(memory, VarId(1), 4242);
  EXPECT_EQ(read_one(memory, VarId(1)), 0);
  EXPECT_GE(memory.reliability().uncorrectable, 1u);
}

TEST(IdaFaults, CheckSharesEliminateWrongReadsUnderCorruption) {
  // The ROADMAP quantification, as a gate: under silent write
  // corruption the bare IDA scheme lies (the oracle counts wrong
  // reads); with share checksums every corrupted share is detected on
  // decode, so reads are correct or flagged — wrong_reads drops to 0.
  const faults::FaultSpec corruption{.seed = 7, .corruption_rate = 0.3};
  const core::StressOptions stress{.steps_per_family = 3, .seed = 11,
                                   .trials = 2};
  core::SimulationPipeline bare(
      {.kind = core::SchemeKind::kIda, .n = 16, .seed = 33});
  core::SimulationPipeline checked({.kind = core::SchemeKind::kIda,
                                    .n = 16,
                                    .seed = 33,
                                    .ida_check_shares = true});
  const auto bare_run = bare.run_with_faults(corruption, stress);
  const auto checked_run = checked.run_with_faults(corruption, stress);
  EXPECT_GT(bare_run.reliability.wrong_reads, 0u);
  EXPECT_EQ(checked_run.reliability.wrong_reads, 0u);
  EXPECT_GT(checked_run.reliability.corrupt_stores, 0u);
}

TEST(IdaFaults, CheckSharesTransparentWhenHealthy) {
  // No hooks: checksums are written and never consulted — values match
  // the bare scheme bit-for-bit.
  ida::IdaMemoryConfig config{.b = 4, .d = 8, .n_modules = 32, .seed = 23};
  ida::IdaMemory bare(64, config);
  config.check_shares = true;
  ida::IdaMemory checked(64, config);
  for (std::uint32_t v = 0; v < 64; v += 3) {
    write_one(bare, VarId(v), 1000 + v);
    write_one(checked, VarId(v), 1000 + v);
  }
  for (std::uint32_t v = 0; v < 64; ++v) {
    ASSERT_EQ(read_one(bare, VarId(v)), read_one(checked, VarId(v))) << v;
  }
}

// ---------------------------------------- single-copy fragility ---------

TEST(SingleCopyFaults, HashedBaselineLosesDeadModuleAddressRange) {
  hashing::MvMemory memory(256, {.n_modules = 8, .k_wise = 2, .seed = 3});
  // Find a variable and kill exactly its module.
  const VarId var(17);
  CraftedHooks hooks;
  hooks.dead.insert(memory.module_of(var));
  ASSERT_TRUE(memory.set_fault_hooks(&hooks));
  write_one(memory, var, 99);
  EXPECT_EQ(read_one(memory, var), 0);  // gone: nothing to vote with
  EXPECT_GE(memory.reliability().uncorrectable, 1u);
  EXPECT_GE(memory.reliability().writes_dropped, 1u);
}

// ------------------------------------------- FaultableMemory ------------

TEST(FaultableMemory, OracleCountsSilentWrongReads) {
  // Corruption rate 1: every committed word is wrong, and the
  // single-copy scheme has no redundancy to mask it — the checker must
  // flag the read as silently wrong.
  auto inner = std::make_unique<hashing::MvMemory>(
      64, hashing::MvMemoryConfig{.n_modules = 8, .k_wise = 2, .seed = 5});
  faults::FaultableMemory memory(std::move(inner),
                                 {.seed = 31, .corruption_rate = 1.0});
  EXPECT_TRUE(memory.replica_level_injection());
  write_one(memory, VarId(9), 1000);
  EXPECT_NE(read_one(memory, VarId(9)), 1000);
  const auto stats = memory.reliability();
  EXPECT_GE(stats.corrupt_stores, 1u);
  EXPECT_GE(stats.wrong_reads, 1u);
  EXPECT_EQ(memory.checker().mismatches(), stats.wrong_reads);
}

TEST(FaultableMemory, WrapperLevelFallbackDegradesOpaqueSchemes) {
  // FlatMemory ignores fault hooks; the wrapper degrades it externally.
  // Its one synthetic module dead = the whole memory is an outage —
  // flagged, not silent.
  auto inner = std::make_unique<pram::FlatMemory>(64);
  faults::FaultableMemory memory(std::move(inner),
                                 {.seed = 41, .dead_modules = 1});
  EXPECT_FALSE(memory.replica_level_injection());
  write_one(memory, VarId(5), 77);
  EXPECT_EQ(read_one(memory, VarId(5)), 0);
  const auto stats = memory.reliability();
  EXPECT_GE(stats.writes_dropped, 1u);
  EXPECT_GE(stats.uncorrectable, 1u);
  EXPECT_EQ(stats.wrong_reads, 0u);
}

TEST(FaultableMemory, FlaggedBlockOutagesAreNotCountedAsSilentLies) {
  // Regression: multiple reads of one under-threshold IDA block in a
  // single step are all FLAGGED outages; the oracle must attribute them
  // per read (via flagged_reads), not per block decode, and report zero
  // silent wrong reads under erasure-only faults.
  const ida::IdaMemoryConfig config{
      .b = 4, .d = 8, .n_modules = 8, .seed = 25};
  auto inner = std::make_unique<ida::IdaMemory>(64, config);
  faults::FaultableMemory memory(
      std::move(inner),
      {.seed = 91, .dead_modules = 8});  // every module dead
  ASSERT_TRUE(memory.replica_level_injection());

  const pram::VarWrite writes[] = {
      {VarId(0), 10}, {VarId(1), 11}, {VarId(2), 12}, {VarId(3), 13}};
  (void)memory.step({}, {}, writes);
  const VarId reads[] = {VarId(0), VarId(1), VarId(2), VarId(3)};
  pram::Word values[4] = {0};
  (void)memory.step(reads, values, {});

  const auto stats = memory.reliability();
  EXPECT_GE(stats.uncorrectable, 1u);
  EXPECT_EQ(stats.wrong_reads, 0u);  // all four losses were flagged
}

TEST(FaultableMemory, MajorityMasksWhatSingleCopyCannot) {
  // The same fault spec hits a replicated scheme and the hashed
  // baseline; the replicated scheme answers everything correctly, the
  // baseline has outages. This is the paper's redundancy earning its
  // keep under adversity.
  const faults::FaultSpec spec{.seed = 51, .module_kill_rate = 0.15};
  auto replicated = std::make_unique<faults::FaultableMemory>(
      core::make_memory({.kind = core::SchemeKind::kDmmpc, .n = 16,
                         .seed = 7}),
      spec);
  auto single = std::make_unique<faults::FaultableMemory>(
      core::make_memory({.kind = core::SchemeKind::kHashed, .n = 16,
                         .seed = 7}),
      spec);
  for (std::uint32_t v = 0; v < 64; ++v) {
    write_one(*replicated, VarId(v), 100 + v);
    write_one(*single, VarId(v), 100 + v);
  }
  std::uint32_t replicated_correct = 0;
  std::uint32_t single_correct = 0;
  for (std::uint32_t v = 0; v < 64; ++v) {
    replicated_correct += read_one(*replicated, VarId(v)) == 100 + v;
    single_correct += read_one(*single, VarId(v)) == 100 + v;
  }
  EXPECT_EQ(replicated_correct, 64u);
  EXPECT_LT(single_correct, 64u);
  EXPECT_EQ(replicated->reliability().wrong_reads, 0u);
  EXPECT_GE(single->reliability().uncorrectable, 1u);
}

// ----------------------------------------------- pipeline sweeps --------

TEST(FaultSweep, TelemetryIsDeterministic) {
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  const faults::FaultSpec spec{
      .seed = 61, .module_kill_rate = 0.2, .corruption_rate = 0.05};
  const core::StressOptions stress{
      .steps_per_family = 3, .seed = 17, .trials = 2};
  const auto a = pipeline.run_with_faults(spec, stress);
  const auto b = pipeline.run_with_faults(spec, stress);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.reliability.reads_served, b.reliability.reads_served);
  EXPECT_EQ(a.reliability.faults_masked, b.reliability.faults_masked);
  EXPECT_EQ(a.reliability.erasures_skipped, b.reliability.erasures_skipped);
  EXPECT_EQ(a.reliability.uncorrectable, b.reliability.uncorrectable);
  EXPECT_EQ(a.reliability.wrong_reads, b.reliability.wrong_reads);
  EXPECT_EQ(a.reliability.corrupt_stores, b.reliability.corrupt_stores);
  EXPECT_GT(a.reliability.reads_served, 0u);
}

TEST(FaultSweep, ErasureOnlyFaultsNeverLieOnRedundantSchemes) {
  // Module kills produce outages, never silent wrong values, on both
  // redundancy disciplines: majority votes among survivors that all
  // agree, IDA either reconstructs exactly or flags the block.
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kIda}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    core::FaultSweepOptions options;
    options.rates = {0.0, 0.1, 0.3};
    options.proto = {.seed = 71, .module_kill_rate = 1.0,
                     .corruption_rate = 0.0};
    options.stress = {.steps_per_family = 2, .seed = 19};
    const auto sweep = pipeline.run_fault_sweep(options);
    EXPECT_EQ(sweep.total.reliability.wrong_reads, 0u)
        << core::to_string(kind);
    EXPECT_LT(sweep.total.breaking_fault_rate, 0.0) << core::to_string(kind);
    ASSERT_EQ(sweep.levels.size(), 3u);
    EXPECT_EQ(sweep.levels[0].run.reliability.erasures_skipped, 0u);
  }
}

TEST(FaultSweep, CorruptionBreaksTheUnreplicatedBaselineFirst) {
  // Hotspot traffic (everyone hammers variable 0) under write
  // corruption: the single-copy baseline returns the corrupted word on
  // the next read; the majority scheme's vote still recovers at low
  // rates because corrupt copies don't collude.
  core::StressOptions stress;
  stress.steps_per_family = 4;
  stress.seed = 23;
  stress.families = {pram::TraceFamily::kHotspot};
  stress.include_map_adversarial = false;

  core::FaultSweepOptions options;
  options.rates = {0.0, 1.0};
  options.proto = {.seed = 81, .module_kill_rate = 0.0,
                   .corruption_rate = 1.0};
  options.stress = stress;

  core::SimulationPipeline hashed(
      {.kind = core::SchemeKind::kHashed, .n = 16, .seed = 3});
  const auto hashed_sweep = hashed.run_fault_sweep(options);
  EXPECT_DOUBLE_EQ(hashed_sweep.total.breaking_fault_rate, 1.0);
  EXPECT_GT(hashed_sweep.total.reliability.wrong_reads, 0u);

  options.proto.corruption_rate = 0.02;
  core::SimulationPipeline majority_pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  const auto majority_sweep = majority_pipeline.run_fault_sweep(options);
  EXPECT_EQ(majority_sweep.total.reliability.wrong_reads, 0u);
  EXPECT_LT(majority_sweep.total.breaking_fault_rate, 0.0);
}

}  // namespace
}  // namespace pramsim
