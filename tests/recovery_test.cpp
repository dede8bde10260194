// Gates for the dynamic-fault + background-scrubbing subsystem:
// onset steps gate faults without changing WHICH units fail, scrubbing
// is transparent when nothing is degraded (the fault-rate-0 gate,
// mirroring the equivalence suite's), recovery trajectories are
// bit-identical across reruns and worker-thread counts, and the
// replicated schemes measurably recover after an onset while the
// single-copy baselines stay degraded — the live-system story on top of
// the paper's constant redundancy.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "ida/ida_memory.hpp"
#include "majority/majority_memory.hpp"
#include "memmap/memory_map.hpp"
#include "pram/memory_system.hpp"
#include "util/parallel.hpp"

namespace pramsim {
namespace {

// Crafted hooks with a sharp onset: the fault set activates at `onset`.
class OnsetHooks final : public pram::FaultHooks {
 public:
  std::unordered_set<std::uint32_t> dead;
  std::unordered_set<std::uint64_t> stuck;  ///< entity * 64 + copy
  pram::Word stuck_value = 999;
  std::uint64_t onset = 0;

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

// ------------------------------------------- dynamic FaultModel ---------

TEST(DynamicFaults, OnsetGatesWithoutChangingTheKillSet) {
  faults::FaultSpec spec{.seed = 7, .module_kill_rate = 0.3};
  const faults::FaultModel st(spec, 64);
  spec.onset_min = 10;
  spec.onset_max = 20;
  const faults::FaultModel dyn(spec, 64);

  // Same modules eventually die; the window only decides when.
  EXPECT_EQ(st.dead_module_count(), dyn.dead_module_count());
  EXPECT_GT(dyn.dead_module_count(), 0u);
  for (std::uint32_t m = 0; m < 64; ++m) {
    const ModuleId module(m);
    EXPECT_EQ(st.module_dead(module, 0), dyn.module_dead(module, 1u << 20));
    if (dyn.module_dead(module, 1u << 20)) {
      const std::uint64_t onset = dyn.module_onset(module);
      EXPECT_GE(onset, 10u);
      EXPECT_LE(onset, 20u);
      EXPECT_FALSE(dyn.module_dead(module, onset - 1));
      EXPECT_TRUE(dyn.module_dead(module, onset));   // sharp activation
      EXPECT_TRUE(dyn.module_dead(module, onset + 5));  // monotone
    }
  }
  EXPECT_GE(dyn.first_onset(), 10u);
  EXPECT_LE(dyn.first_onset(), 20u);
}

TEST(DynamicFaults, OnsetZeroIsTimeInvariantStatic) {
  // The classic regime: every fault active at every step, so threading a
  // step through the hooks changes nothing (the bit-identical guarantee
  // static sweeps rely on).
  const faults::FaultSpec spec{.seed = 42,
                               .module_kill_rate = 0.25,
                               .stuck_rate = 0.1,
                               .corruption_rate = 0.2};
  const faults::FaultModel model(spec, 32);
  for (std::uint32_t m = 0; m < 32; ++m) {
    const bool at0 = model.module_dead(ModuleId(m), 0);
    EXPECT_EQ(at0, model.module_dead(ModuleId(m), 1));
    EXPECT_EQ(at0, model.module_dead(ModuleId(m), 1000));
  }
  for (std::uint64_t entity = 0; entity < 64; ++entity) {
    pram::Word a = 0;
    pram::Word b = 0;
    EXPECT_EQ(model.stuck_at(entity, 1, 0, a),
              model.stuck_at(entity, 1, 999, b));
    EXPECT_EQ(a, b);
    pram::Word wa = 5;
    pram::Word wb = 5;
    EXPECT_EQ(model.corrupt_write(entity, 1, 3, 0, wa),
              model.corrupt_write(entity, 1, 3, 999, wb));
    EXPECT_EQ(wa, wb);
  }
}

TEST(DynamicFaults, FirstOnsetFallsBackToWindowStartWithoutDeadModules) {
  // Stuck/corruption-only dynamic specs have no enumerable kill set;
  // first_onset must still report the earliest possible injury step.
  faults::FaultSpec spec{.seed = 9, .stuck_rate = 0.5};
  spec.onset_min = 16;
  spec.onset_max = 24;
  const faults::FaultModel model(spec, 16);
  EXPECT_EQ(model.dead_module_count(), 0u);
  EXPECT_EQ(model.first_onset(), 16u);
  const faults::FaultModel st({.seed = 9, .stuck_rate = 0.5}, 16);
  EXPECT_EQ(st.first_onset(), 0u);
}

TEST(DynamicFaults, StuckAndCorruptionRespectTheirOnsets) {
  faults::FaultSpec spec{.seed = 13, .stuck_rate = 1.0,
                         .corruption_rate = 1.0};
  spec.onset_min = 50;
  spec.onset_max = 50;
  const faults::FaultModel model(spec, 8);
  pram::Word value = 0;
  EXPECT_FALSE(model.stuck_at(3, 0, 49, value));
  EXPECT_TRUE(model.stuck_at(3, 0, 50, value));
  pram::Word word = 7;
  EXPECT_FALSE(model.corrupt_write(3, 0, 1, 49, word));
  EXPECT_EQ(word, 7u);
  EXPECT_TRUE(model.corrupt_write(3, 0, 1, 50, word));
  EXPECT_NE(word, 7u);
}

// --------------------------------------------- scrub transparency -------

TEST(Scrub, NoOpAtFaultRateZeroForEverySchemeKind) {
  // The transparency gate: with hooks installed but nothing failed,
  // scrubbing repairs nothing and every subsequent read is identical to
  // the unscrubbed run.
  const faults::FaultSpec inert{.seed = 3};
  for (const auto kind : core::all_scheme_kinds()) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 5});
    core::StressOptions plain{.steps_per_family = 3, .seed = 21};
    core::StressOptions scrubbed = plain;
    scrubbed.scrub_interval = 1;
    scrubbed.scrub_budget = 1000;
    const auto a = pipeline.run_with_faults(inert, plain);
    const auto b = pipeline.run_with_faults(inert, scrubbed);
    EXPECT_EQ(b.reliability.units_repaired, 0u) << core::to_string(kind);
    EXPECT_EQ(b.reliability.units_relocated, 0u) << core::to_string(kind);
    EXPECT_EQ(b.scrub.repaired, 0u) << core::to_string(kind);
    EXPECT_GT(b.scrub_passes, 0u) << core::to_string(kind);
    // Same service, bit for bit.
    EXPECT_EQ(a.steps, b.steps) << core::to_string(kind);
    EXPECT_DOUBLE_EQ(a.time.mean(), b.time.mean()) << core::to_string(kind);
    EXPECT_EQ(a.reliability.reads_served, b.reliability.reads_served)
        << core::to_string(kind);
    EXPECT_EQ(a.reliability.wrong_reads, b.reliability.wrong_reads)
        << core::to_string(kind);
  }
}

// ----------------------------------------------- determinism ------------

TEST(Scrub, RecoveryTrajectoriesAreBitIdenticalAcrossReruns) {
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 33});
  faults::FaultSpec spec{.seed = 2027, .module_kill_rate = 0.15};
  spec.onset_min = 8;
  spec.onset_max = 8;
  const core::RecoveryOptions options{
      .steps = 32, .seed = 44, .scrub_interval = 4, .scrub_budget = 128};
  const auto a = pipeline.run_recovery(spec, options);
  const auto b = pipeline.run_recovery(spec, options);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].reads, b.trajectory[i].reads);
    EXPECT_EQ(a.trajectory[i].masked, b.trajectory[i].masked);
    EXPECT_EQ(a.trajectory[i].uncorrectable, b.trajectory[i].uncorrectable);
    EXPECT_EQ(a.trajectory[i].repaired, b.trajectory[i].repaired);
    EXPECT_EQ(a.trajectory[i].relocated, b.trajectory[i].relocated);
    EXPECT_DOUBLE_EQ(a.trajectory[i].degraded_rate,
                     b.trajectory[i].degraded_rate);
  }
  EXPECT_EQ(a.recovered_step, b.recovered_step);
  EXPECT_EQ(a.recovery_steps, b.recovery_steps);
}

TEST(Scrub, RecoveryTrajectoryInvariantUnderGroupParallelServe) {
  // Engine API v2 gate: run_recovery serves through the context entry
  // with a live executor, and replica-level FaultableMemory forwards the
  // plan to the inner scheme's native serve — so the group-parallel
  // backend really runs inside the probe. Its trajectory (scrub passes
  // interleaved, dynamic onset mid-run) must reproduce the serial
  // backend's bit-for-bit at any worker override.
  core::SchemeSpec serial_spec{
      .kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 33};
  core::SchemeSpec gp_spec = serial_spec;
  gp_spec.backend = pram::ServeBackend::kGroupParallel;
  faults::FaultSpec fault{.seed = 2027, .module_kill_rate = 0.15};
  fault.onset_min = 8;
  fault.onset_max = 8;
  const core::RecoveryOptions options{
      .steps = 32, .seed = 44, .scrub_interval = 4, .scrub_budget = 128};
  core::SimulationPipeline serial_pipeline(serial_spec);
  core::SimulationPipeline gp_pipeline(gp_spec);
  ASSERT_EQ(gp_pipeline.scheme().backend,
            pram::ServeBackend::kGroupParallel);
  const auto baseline = serial_pipeline.run_recovery(fault, options);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    util::set_parallel_workers_override(workers);
    const auto gp = gp_pipeline.run_recovery(fault, options);
    util::set_parallel_workers_override(0);
    ASSERT_EQ(baseline.trajectory.size(), gp.trajectory.size()) << workers;
    for (std::size_t i = 0; i < baseline.trajectory.size(); ++i) {
      EXPECT_EQ(baseline.trajectory[i].reads, gp.trajectory[i].reads)
          << workers << " step " << i;
      EXPECT_EQ(baseline.trajectory[i].masked, gp.trajectory[i].masked)
          << workers << " step " << i;
      EXPECT_EQ(baseline.trajectory[i].uncorrectable,
                gp.trajectory[i].uncorrectable)
          << workers << " step " << i;
      EXPECT_EQ(baseline.trajectory[i].wrong, gp.trajectory[i].wrong)
          << workers << " step " << i;
      EXPECT_EQ(baseline.trajectory[i].repaired, gp.trajectory[i].repaired)
          << workers << " step " << i;
      EXPECT_EQ(baseline.trajectory[i].relocated,
                gp.trajectory[i].relocated)
          << workers << " step " << i;
      EXPECT_DOUBLE_EQ(baseline.trajectory[i].degraded_rate,
                       gp.trajectory[i].degraded_rate)
          << workers << " step " << i;
    }
    EXPECT_EQ(baseline.recovered_step, gp.recovered_step) << workers;
    EXPECT_EQ(baseline.recovery_steps, gp.recovery_steps) << workers;
    EXPECT_EQ(baseline.reliability.faults_masked,
              gp.reliability.faults_masked)
        << workers;
    EXPECT_EQ(baseline.reliability.wrong_reads, gp.reliability.wrong_reads)
        << workers;
  }
}

TEST(Scrub, FaultedStressWithScrubbingIsWorkerCountInvariant) {
  // Scrub passes run inside each shard, so the (trial, family, step)
  // merge discipline — bit-identical at any worker count — must hold
  // with scrubbing enabled too.
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  faults::FaultSpec spec{.seed = 61, .module_kill_rate = 0.2};
  spec.onset_min = 2;
  spec.onset_max = 6;
  core::StressOptions options{.steps_per_family = 4, .seed = 17,
                              .trials = 2};
  options.scrub_interval = 2;
  options.scrub_budget = 64;

  util::set_parallel_workers_override(1);
  const auto serial = pipeline.run_with_faults(spec, options);
  util::set_parallel_workers_override(8);
  const auto parallel = pipeline.run_with_faults(spec, options);
  util::set_parallel_workers_override(0);

  EXPECT_EQ(serial.steps, parallel.steps);
  EXPECT_DOUBLE_EQ(serial.time.mean(), parallel.time.mean());
  EXPECT_EQ(serial.scrub_passes, parallel.scrub_passes);
  EXPECT_EQ(serial.scrub.repaired, parallel.scrub.repaired);
  EXPECT_EQ(serial.scrub.relocated, parallel.scrub.relocated);
  EXPECT_EQ(serial.reliability.reads_served,
            parallel.reliability.reads_served);
  EXPECT_EQ(serial.reliability.faults_masked,
            parallel.reliability.faults_masked);
  EXPECT_EQ(serial.reliability.units_repaired,
            parallel.reliability.units_repaired);
  EXPECT_EQ(serial.reliability.wrong_reads, parallel.reliability.wrong_reads);
}

// ------------------------------------- scheme-level repair semantics ----

TEST(MajorityScrub, RelocatesAndRepairsAfterAnOnset) {
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 11});
  auto* majority_mem = dynamic_cast<majority::MajorityMemory*>(memory.get());
  ASSERT_NE(majority_mem, nullptr);
  const VarId var(7);
  const auto modules = majority_mem->map().copies(var);

  OnsetHooks hooks;
  hooks.onset = 3;  // the write below lands while everything is healthy
  hooks.dead.insert(modules.front().index());
  ASSERT_TRUE(memory->set_fault_hooks(&hooks));

  write_one(*memory, var, 4242);                 // step 1: healthy write
  EXPECT_EQ(read_one(*memory, var), 4242);       // step 2: still healthy
  EXPECT_EQ(memory->reliability().faults_masked, 0u);

  EXPECT_EQ(read_one(*memory, var), 4242);       // step 3: onset — masked
  const auto degraded = memory->reliability();
  EXPECT_GE(degraded.faults_masked, 1u);
  EXPECT_GE(degraded.erasures_skipped, 1u);

  // Scrub the whole space: the dead module's copy is re-homed and the
  // value re-replicated.
  const auto pass = memory->scrub(memory->size());
  EXPECT_GE(pass.repaired, 1u);
  EXPECT_GE(pass.relocated, 1u);

  // Post-scrub reads see a full healthy copy set again: the masked count
  // stops growing and the value is intact.
  const auto before = memory->reliability();
  EXPECT_EQ(read_one(*memory, var), 4242);
  const auto after = memory->reliability();
  EXPECT_EQ(after.faults_masked, before.faults_masked);
  EXPECT_EQ(after.erasures_skipped, before.erasures_skipped);

  // A second pass finds nothing left to repair for this variable's
  // modules — but more importantly the pass is idempotent on values.
  EXPECT_EQ(read_one(*memory, var), 4242);
}

TEST(IdaScrub, RedispersesReconstructibleBlocksAfterAnOnset) {
  const ida::IdaMemoryConfig config{
      .b = 4, .d = 8, .n_modules = 32, .seed = 21};
  const std::uint64_t m_vars = 64;
  const std::uint64_t n_blocks = (m_vars + config.b - 1) / config.b;
  const memmap::HashedMap placement(n_blocks, config.n_modules, config.d,
                                    config.seed);
  const auto share_modules = placement.copies(VarId(0));
  const VarId var(1);  // lives in block 0

  ida::IdaMemory memory(m_vars, config);
  OnsetHooks hooks;
  hooks.onset = 3;
  // Kill d-b share modules of block 0: reconstructible, degraded.
  for (std::uint32_t j = 0; j < config.d - config.b; ++j) {
    hooks.dead.insert(share_modules[j].index());
  }
  ASSERT_TRUE(memory.set_fault_hooks(&hooks));

  write_one(memory, var, 777);                // step 1: healthy write
  EXPECT_EQ(read_one(memory, var), 777);      // step 2: healthy read
  EXPECT_EQ(memory.reliability().faults_masked, 0u);

  EXPECT_EQ(read_one(memory, var), 777);      // step 3: onset — masked
  EXPECT_GE(memory.reliability().faults_masked, 1u);

  const auto pass = memory.scrub(memory.num_blocks());
  EXPECT_GE(pass.repaired, 1u);
  EXPECT_GE(pass.relocated, static_cast<std::uint64_t>(config.d - config.b));

  const auto before = memory.reliability();
  EXPECT_EQ(read_one(memory, var), 777);
  const auto after = memory.reliability();
  EXPECT_EQ(after.faults_masked, before.faults_masked);
  EXPECT_EQ(after.erasures_skipped, before.erasures_skipped);
}

TEST(MajorityScrub, UntouchedVariablesRepairByRelocationAloneStayingSparse) {
  // A never-written variable's copies all read the initial {0, 0}, which
  // IS its logical value — so restoring redundancy after a module death
  // needs relocation only, and the sparse CopyStore must stay empty.
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 11});
  auto* majority_mem = dynamic_cast<majority::MajorityMemory*>(memory.get());
  ASSERT_NE(majority_mem, nullptr);
  OnsetHooks hooks;
  hooks.dead.insert(majority_mem->map().copies(VarId(0)).front().index());
  ASSERT_TRUE(memory->set_fault_hooks(&hooks));

  EXPECT_EQ(majority_mem->store().touched_vars(), 0u);
  const auto pass = memory->scrub(memory->size());
  EXPECT_GT(pass.relocated, 0u);
  EXPECT_GT(pass.repaired, 0u);
  EXPECT_EQ(majority_mem->store().touched_vars(), 0u);  // still sparse
  // The relocated copies agree with the logical value, so reads of
  // never-written variables are clean zeros with no erasures counted.
  const auto before = memory->reliability();
  EXPECT_EQ(read_one(*memory, VarId(0)), 0u);
  EXPECT_EQ(memory->reliability().faults_masked, before.faults_masked);
}

TEST(MajorityScrub, StuckOnlyDissentReachesSteadyStateNotPerpetualRepair) {
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 11});
  auto* majority_mem = dynamic_cast<majority::MajorityMemory*>(memory.get());
  ASSERT_NE(majority_mem, nullptr);
  const VarId var(7);
  OnsetHooks hooks;
  hooks.stuck.insert(var.index() * 64 + 0);  // copy 0 stuck, no erasures
  ASSERT_TRUE(memory->set_fault_hooks(&hooks));
  write_one(*memory, var, 1234);

  // A store cannot fix a stuck-at read fault, so the pass must not
  // rewrite the variable (now or on any later pass).
  const auto pass = memory->scrub(memory->size());
  EXPECT_EQ(pass.repaired, 0u);

  // Stale-copy dissent IS repairable: corrupt a non-stuck copy's stored
  // word, and exactly one pass fixes it before going quiet again.
  majority_mem->mutable_store().corrupt(var, 1, 31337);
  const auto repair = memory->scrub(memory->size());
  EXPECT_EQ(repair.repaired, 1u);
  const auto steady = memory->scrub(memory->size());
  EXPECT_EQ(steady.repaired, 0u);
  EXPECT_EQ(read_one(*memory, var), 1234);
}

// Same steady-state gate at region width > 1: a stuck cell in the MIDDLE
// of a region must not defeat the scrub's region fast path — the pass
// sees the stored spans unanimous, drops to the per-word ballot for the
// stuck column (hooks fire), finds store-side repair impossible, and goes
// quiet instead of re-repairing the region forever. Stored-word dissent
// elsewhere in the SAME region still gets exactly one repair.
TEST(MajorityScrub, MidRegionStuckCellReachesSteadyStateAtWidthFour) {
  auto memory = core::make_memory({.kind = core::SchemeKind::kDmmpc,
                                   .n = 16,
                                   .seed = 11,
                                   .region_words = 4});
  auto* majority_mem = dynamic_cast<majority::MajorityMemory*>(memory.get());
  ASSERT_NE(majority_mem, nullptr);
  ASSERT_EQ(majority_mem->store().region_words(), 4u);
  const VarId var(7);  // region [4, 8): offset 3, not a region boundary
  OnsetHooks hooks;
  hooks.stuck.insert(var.index() * 64 + 0);  // copy 0 stuck, no erasures
  ASSERT_TRUE(memory->set_fault_hooks(&hooks));
  write_one(*memory, var, 1234);

  const auto pass = memory->scrub(memory->size());
  EXPECT_EQ(pass.repaired, 0u);
  const auto again = memory->scrub(memory->size());
  EXPECT_EQ(again.repaired, 0u);  // stuck-only dissent stays quiet

  // A stale stored word on a NEIGHBOR variable of the same region defeats
  // the region's unanimity memcmp, so the fallback finds and fixes it —
  // once — while the stuck column still stays untouched.
  majority_mem->mutable_store().corrupt(VarId(5), 1, 31337);
  const auto repair = memory->scrub(memory->size());
  EXPECT_EQ(repair.repaired, 1u);
  const auto steady = memory->scrub(memory->size());
  EXPECT_EQ(steady.repaired, 0u);
  EXPECT_EQ(read_one(*memory, var), 1234);
  EXPECT_EQ(read_one(*memory, VarId(5)), 0);  // repaired back to ground truth
}

TEST(IdaScrub, UntouchedBlocksRepairByRelocationAloneStayingSparse) {
  const ida::IdaMemoryConfig config{
      .b = 4, .d = 8, .n_modules = 32, .seed = 21};
  ida::IdaMemory memory(64, config);
  const std::uint64_t n_blocks = memory.num_blocks();
  const memmap::HashedMap placement(n_blocks, config.n_modules, config.d,
                                    config.seed);
  OnsetHooks hooks;
  hooks.dead.insert(placement.copies(VarId(0)).front().index());
  ASSERT_TRUE(memory.set_fault_hooks(&hooks));

  EXPECT_EQ(memory.touched_blocks(), 0u);
  const auto pass = memory.scrub(n_blocks);
  EXPECT_GT(pass.relocated, 0u);
  EXPECT_EQ(memory.touched_blocks(), 0u);  // zero-encoding rows stay shared
  const auto before = memory.reliability();
  EXPECT_EQ(read_one(memory, VarId(0)), 0u);
  EXPECT_EQ(memory.reliability().faults_masked, before.faults_masked);
}

TEST(IdaScrub, BlocksBelowThresholdStayLost) {
  const ida::IdaMemoryConfig config{
      .b = 4, .d = 8, .n_modules = 8, .seed = 25};
  ida::IdaMemory memory(64, config);
  OnsetHooks hooks;  // every module dead from step 0
  for (std::uint32_t m = 0; m < 8; ++m) {
    hooks.dead.insert(m);
  }
  ASSERT_TRUE(memory.set_fault_hooks(&hooks));
  write_one(memory, VarId(1), 4242);
  const auto pass = memory.scrub(memory.num_blocks());
  EXPECT_EQ(pass.repaired, 0u);  // nothing to reconstruct from
  EXPECT_GE(memory.reliability().uncorrectable, 0u);
}

// --------------------------------------- pipeline recovery probe --------

TEST(Recovery, ReplicatedSchemesRecoverAndSingleCopyDoesNot) {
  faults::FaultSpec spec{.seed = 2027, .module_kill_rate = 0.15};
  spec.onset_min = 16;
  spec.onset_max = 16;
  core::RecoveryOptions probe{
      .steps = 64, .seed = 44, .scrub_interval = 4, .scrub_budget = 128};
  core::RecoveryOptions control = probe;
  control.scrub_interval = 0;

  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kIda}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 33});
    const auto scrubbed = pipeline.run_recovery(spec, probe);
    const auto unscrubbed = pipeline.run_recovery(spec, control);
    // The onset degrades service...
    EXPECT_EQ(scrubbed.onset_step, 16) << core::to_string(kind);
    EXPECT_GT(scrubbed.peak_degraded_rate, probe.recovery_threshold)
        << core::to_string(kind);
    // ...scrubbing recovers it (the masked rate drops back under the
    // threshold and stays there)...
    EXPECT_GE(scrubbed.recovered_step, 0) << core::to_string(kind);
    EXPECT_GE(scrubbed.recovery_steps, 0) << core::to_string(kind);
    EXPECT_LE(scrubbed.final_degraded_rate, probe.recovery_threshold)
        << core::to_string(kind);
    EXPECT_GT(scrubbed.scrub.repaired, 0u) << core::to_string(kind);
    // ...while without scrubbing the degradation is permanent.
    EXPECT_LT(unscrubbed.recovered_step, 0) << core::to_string(kind);
    EXPECT_GT(unscrubbed.final_degraded_rate, 0.0) << core::to_string(kind);
    // Erasure-only faults never produce silent lies either way.
    EXPECT_EQ(scrubbed.reliability.wrong_reads, 0u) << core::to_string(kind);
    EXPECT_EQ(unscrubbed.reliability.wrong_reads, 0u)
        << core::to_string(kind);
  }

  core::SimulationPipeline hashed(
      {.kind = core::SchemeKind::kHashed, .n = 16, .seed = 33});
  const auto single = hashed.run_recovery(spec, probe);
  EXPECT_EQ(single.scrub.repaired, 0u);     // nothing to rebuild from
  EXPECT_LT(single.recovered_step, 0);      // never recovers
  EXPECT_GT(single.final_degraded_rate, 0.0);
}

TEST(Recovery, FaultSweepReportsRecoveryAlongsideBreakingPoint) {
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  core::FaultSweepOptions options;
  options.rates = {0.0, 0.3};
  options.proto = {.seed = 71, .module_kill_rate = 1.0,
                   .corruption_rate = 0.0};
  options.proto.onset_min = 8;
  options.proto.onset_max = 8;
  options.stress = {.steps_per_family = 2, .seed = 19};
  options.measure_recovery = true;
  options.recovery = {.steps = 48, .seed = 23, .scrub_interval = 4,
                      .scrub_budget = 128};
  const auto sweep = pipeline.run_fault_sweep(options);
  ASSERT_EQ(sweep.levels.size(), 2u);
  EXPECT_EQ(sweep.levels[0].recovery_steps, -1);  // inert level: skipped
  EXPECT_GE(sweep.levels[1].recovery_steps, 0);   // measured and recovered
  EXPECT_EQ(sweep.worst_recovery_steps, sweep.levels[1].recovery_steps);
  EXPECT_LT(sweep.total.breaking_fault_rate, 0.0);  // erasures never lie
}

}  // namespace
}  // namespace pramsim
