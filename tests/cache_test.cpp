// cache::CachedMemory contract tests: hit/miss/eviction/write-back
// accounting, bit-exactness against FlatMemory under every skewed trace
// family, serve()-vs-step() equivalence, fault-consistent invalidation
// (dead backing modules and scrub relocations), and worker-count
// invariance of the cached pipeline (results AND obs snapshots).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/cached_memory.hpp"
#include "core/driver.hpp"
#include "core/plan_builder.hpp"
#include "core/schemes.hpp"
#include "fault_scan.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "pram/memory_system.hpp"
#include "pram/serve_context.hpp"
#include "pram/snapshot.hpp"
#include "pram/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pramsim {
namespace {

/// Combine a raw batch and serve it through the legacy step() entry.
/// Returns the distinct reads with their values (combine order).
struct StepIo {
  std::vector<VarId> reads;
  std::vector<pram::Word> values;
  std::vector<pram::VarWrite> writes;
};

StepIo run_step(pram::MemorySystem& memory, core::PlanBuilder& builder,
                const pram::AccessBatch& batch) {
  auto combined = builder.combine(batch);
  StepIo io;
  io.reads = std::move(combined.reads);
  io.writes = std::move(combined.writes);
  io.values.assign(io.reads.size(), 0);
  memory.step(io.reads, io.values, io.writes);
  return io;
}

TEST(CachedMemory, HitMissEvictionWriteBackAccounting) {
  auto flat = std::make_unique<pram::FlatMemory>(8);
  pram::FlatMemory* inner = flat.get();
  cache::CachedMemory cached(std::move(flat),
                             cache::CacheConfig{.capacity = 2});

  std::vector<VarId> no_reads;
  std::vector<pram::Word> no_values;
  const std::vector<pram::VarWrite> writes = {{VarId(0), 10},
                                              {VarId(1), 11}};
  cached.step(no_reads, no_values, writes);
  // Dirty lines: the inner memory has not seen the stores yet, but the
  // cache's peek is authoritative.
  EXPECT_EQ(inner->peek(VarId(0)), 0);
  EXPECT_EQ(cached.peek(VarId(0)), 10);
  EXPECT_EQ(cached.occupancy(), 2u);

  std::vector<VarId> reads = {VarId(0), VarId(1)};
  std::vector<pram::Word> values(2, 0);
  const std::vector<pram::VarWrite> no_writes;
  cached.step(reads, values, no_writes);
  EXPECT_EQ(values[0], 10);
  EXPECT_EQ(values[1], 11);
  EXPECT_EQ(cached.stats().hits, 2u);
  EXPECT_EQ(cached.stats().misses, 0u);

  // Two cold reads at capacity 2: both resident lines are evicted and
  // their dirty values written back to the inner memory.
  reads = {VarId(2), VarId(3)};
  values.assign(2, 0);
  cached.step(reads, values, no_writes);
  EXPECT_EQ(values[0], 0);
  EXPECT_EQ(values[1], 0);
  EXPECT_EQ(cached.stats().misses, 2u);
  EXPECT_EQ(cached.stats().evictions, 2u);
  EXPECT_EQ(cached.stats().writebacks, 2u);
  EXPECT_EQ(inner->peek(VarId(0)), 10);
  EXPECT_EQ(inner->peek(VarId(1)), 11);
  EXPECT_EQ(cached.peek(VarId(0)), 10);
  EXPECT_EQ(cached.occupancy(), 2u);
}

// The cache is a pure performance layer: under every trace family —
// including the new skewed ones — a cached FlatMemory must return the
// exact values a bare FlatMemory returns, and the final memory images
// must match cell for cell.
TEST(CachedMemory, BitExactVsFlatMemoryAcrossFamilies) {
  const std::uint32_t n = 16;
  const std::uint64_t m = 256;
  for (const auto family :
       {pram::TraceFamily::kUniform, pram::TraceFamily::kHotspot,
        pram::TraceFamily::kZipfian, pram::TraceFamily::kWorkingSet}) {
    pram::FlatMemory reference(m);
    cache::CachedMemory cached(std::make_unique<pram::FlatMemory>(m),
                               cache::CacheConfig{.capacity = 32});
    util::Rng init(99);
    for (std::uint64_t v = 0; v < m; ++v) {
      const auto word = static_cast<pram::Word>(init.below(1 << 20));
      reference.poke(VarId(static_cast<std::uint32_t>(v)), word);
      cached.poke(VarId(static_cast<std::uint32_t>(v)), word);
    }

    pram::TraceParams params;
    params.write_fraction = 0.4;
    params.working_set_size = 24;
    params.working_set_period = 8;
    util::Rng rng(7);
    const auto trace = pram::make_trace(family, n, m, 60, rng, params);
    core::PlanBuilder builder;
    for (const auto& batch : trace) {
      auto combined = builder.combine(batch);
      std::vector<pram::Word> want(combined.reads.size(), 0);
      std::vector<pram::Word> got(combined.reads.size(), 0);
      reference.step(combined.reads, want, combined.writes);
      cached.step(combined.reads, got, combined.writes);
      ASSERT_EQ(want, got) << pram::to_string(family);
    }
    EXPECT_GT(cached.stats().hits, 0u) << pram::to_string(family);
    EXPECT_GT(cached.stats().misses, 0u) << pram::to_string(family);
    EXPECT_LE(cached.occupancy(), cached.capacity());
    for (std::uint64_t v = 0; v < m; ++v) {
      ASSERT_EQ(reference.peek(VarId(static_cast<std::uint32_t>(v))),
                cached.peek(VarId(static_cast<std::uint32_t>(v))))
          << pram::to_string(family) << " cell " << v;
    }
  }
}

// Tiny capacity + same-step read/write collisions: a variable that
// misses as a read and then has its write bypassed (every slot pinned)
// must still resolve read-before-write. capacity = 1 with 4 processors
// forces the bypass path every step.
TEST(CachedMemory, BypassedWritesStayReadBeforeWrite) {
  const std::uint32_t n = 4;
  const std::uint64_t m = 16;
  pram::FlatMemory reference(m);
  cache::CachedMemory cached(std::make_unique<pram::FlatMemory>(m),
                             cache::CacheConfig{.capacity = 1});
  pram::TraceParams params;
  params.write_fraction = 0.6;
  params.hotspot_fraction = 0.8;
  params.hotset_size = 3;
  util::Rng rng(17);
  const auto trace =
      pram::make_trace(pram::TraceFamily::kHotspot, n, m, 80, rng, params);
  core::PlanBuilder builder;
  for (const auto& batch : trace) {
    auto combined = builder.combine(batch);
    std::vector<pram::Word> want(combined.reads.size(), 0);
    std::vector<pram::Word> got(combined.reads.size(), 0);
    reference.step(combined.reads, want, combined.writes);
    cached.step(combined.reads, got, combined.writes);
    ASSERT_EQ(want, got);
  }
  EXPECT_GT(cached.stats().bypasses, 0u)
      << "capacity 1 under 4 processors should have forced write-through";
  for (std::uint64_t v = 0; v < m; ++v) {
    ASSERT_EQ(reference.peek(VarId(static_cast<std::uint32_t>(v))),
              cached.peek(VarId(static_cast<std::uint32_t>(v))));
  }
}

// Hit rate must grow with the Zipf skew exponent at fixed capacity —
// the steeper the head, the more traffic the hot set captures.
TEST(CachedMemory, HitRateGrowsWithZipfSkew) {
  const std::uint32_t n = 64;
  const std::uint64_t m = 4096;
  std::vector<double> hit_rates;
  for (const double s : {0.2, 0.8, 1.4}) {
    cache::CachedMemory cached(std::make_unique<pram::FlatMemory>(m),
                               cache::CacheConfig{.capacity = 256});
    pram::TraceParams params;
    params.write_fraction = 0.3;
    params.zipf_exponent = s;
    util::Rng rng(23);
    const auto trace =
        pram::make_trace(pram::TraceFamily::kZipfian, n, m, 100, rng,
                         params);
    core::PlanBuilder builder;
    for (const auto& batch : trace) {
      run_step(cached, builder, batch);
    }
    hit_rates.push_back(cached.stats().hit_rate());
  }
  EXPECT_GT(hit_rates[1] + 0.02, hit_rates[0]);
  EXPECT_GT(hit_rates[2] + 0.02, hit_rates[1]);
  EXPECT_GT(hit_rates[2], hit_rates[0] + 0.05)
      << "skew 1.4 vs 0.2 should move the hit rate decisively";
}

// serve(plan, ctx) and the legacy step() funnel must produce identical
// values and identical cache statistics over a mixed trace, with a real
// redundant scheme behind the cache.
TEST(CachedMemory, ServeMatchesStepOverScheme) {
  const std::uint32_t n = 16;
  const core::SchemeSpec spec{
      .kind = core::SchemeKind::kDmmpc, .n = n, .seed = 3};
  cache::CachedMemory by_step(core::make_memory(spec),
                              cache::CacheConfig{.capacity = 32});
  cache::CachedMemory by_serve(core::make_memory(spec),
                               cache::CacheConfig{.capacity = 32});
  const std::uint64_t m = by_step.size();
  ASSERT_EQ(m, by_serve.size());

  pram::TraceParams params;
  params.write_fraction = 0.4;
  util::Rng rng(31);
  const auto trace = pram::make_trace(pram::TraceFamily::kZipfian, n, m,
                                      40, rng, params);
  core::PlanBuilder step_builder;
  core::PlanBuilder serve_builder;
  pram::ServeContext ctx;
  for (const auto& batch : trace) {
    const auto io = run_step(by_step, step_builder, batch);
    const auto& plan = serve_builder.build(batch, by_serve);
    std::vector<pram::Word> serve_values(plan.reads.size(), 0);
    ctx.bind(serve_values);
    by_serve.serve(plan, ctx);
    ASSERT_EQ(io.values, serve_values);
  }
  EXPECT_EQ(by_step.stats().hits, by_serve.stats().hits);
  EXPECT_EQ(by_step.stats().misses, by_serve.stats().misses);
  EXPECT_EQ(by_step.stats().evictions, by_serve.stats().evictions);
  EXPECT_EQ(by_step.stats().writebacks, by_serve.stats().writebacks);
  EXPECT_EQ(by_step.stats().bypasses, by_serve.stats().bypasses);
}

// Production composition under dynamic faults: FaultableMemory wraps the
// cached scheme, modules die mid-run, and the trace-consistency oracle
// must score ZERO wrong reads — hot lines whose backing died since fill
// are invalidated and re-served, never returned stale.
TEST(CachedMemory, DeadBackingInvalidationKeepsOracleClean) {
  auto cached = std::make_unique<cache::CachedMemory>(
      core::make_memory(
          {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3}),
      cache::CacheConfig{.capacity = 128});
  const cache::CachedMemory* cache_view = cached.get();
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.4,
                                     .onset_min = 5,
                                     .onset_max = 30};
  faults::FaultableMemory faulty(std::move(cached), fault_spec);

  pram::TraceParams params;
  params.write_fraction = 0.2;
  params.zipf_exponent = 1.1;
  util::Rng rng(53);
  const auto trace = pram::make_trace(pram::TraceFamily::kZipfian, 16,
                                      faulty.size(), 80, rng, params);
  const auto result = core::run_trace(faulty, trace);
  EXPECT_GT(result.steps, 0u);
  const auto reliability = faulty.reliability();
  EXPECT_GT(reliability.reads_served, 0u);
  EXPECT_EQ(reliability.wrong_reads, 0u);
  EXPECT_GT(cache_view->stats().hits, 0u);
  EXPECT_GT(cache_view->stats().invalidations, 0u)
      << "deaths landed in the onset window but no hot line was dropped";
}

/// Forwards every fault query to a FaultModel but answers
/// last_module_death by scanning module_dead over every module: the
/// reference the cache's schedule-based fault epoch must reproduce.
class ScannedEpochHooks final : public pram::FaultHooks {
 public:
  ScannedEpochHooks(const pram::FaultHooks& model, std::uint32_t n_modules)
      : model_(model), n_modules_(n_modules) {}

  [[nodiscard]] bool module_dead(ModuleId module,
                                 std::uint64_t step) const override {
    return model_.module_dead(module, step);
  }
  [[nodiscard]] std::optional<std::uint64_t> last_module_death(
      std::uint64_t step) const override {
    return scan_last_module_death(model_, n_modules_, step);
  }
  [[nodiscard]] bool stuck_at(std::uint64_t entity, std::uint32_t copy,
                              std::uint64_t step,
                              pram::Word& value) const override {
    return model_.stuck_at(entity, copy, step, value);
  }
  [[nodiscard]] bool corrupt_write(std::uint64_t entity, std::uint32_t copy,
                                   std::uint64_t stamp, std::uint64_t step,
                                   pram::Word& value) const override {
    return model_.corrupt_write(entity, copy, stamp, step, value);
  }

 private:
  const pram::FaultHooks& model_;
  std::uint32_t n_modules_;
};

/// Everything a served run exposes: per-read values and outage flags
/// (step by step), the cache and reliability counters, and the
/// deterministic obs snapshot.
struct ServedRun {
  std::vector<pram::Word> values;
  std::vector<std::uint8_t> flags;
  cache::CacheStats cache;
  pram::ReliabilityStats reliability;
  std::string obs;
};

/// The DeadBackingInvalidation composition served step by step, with a
/// snapshot/restore round trip and a hook re-installation mid-run (each
/// restarts the cache's fault-epoch floor). With `scanned` the cache and
/// the inner scheme consult ScannedEpochHooks instead of the model.
ServedRun run_dead_backing(core::SchemeKind kind, bool scanned) {
  auto cached = std::make_unique<cache::CachedMemory>(
      core::make_memory({.kind = kind, .n = 16, .seed = 3}),
      cache::CacheConfig{.capacity = 128});
  cache::CachedMemory* cache_view = cached.get();
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.4,
                                     .onset_min = 5,
                                     .onset_max = 60};
  faults::FaultableMemory faulty(std::move(cached), fault_spec);
  const ScannedEpochHooks scan(faulty.model(), cache_view->num_modules());
  const pram::FaultHooks* hooks =
      scanned ? static_cast<const pram::FaultHooks*>(&scan) : &faulty.model();
  EXPECT_TRUE(cache_view->set_fault_hooks(hooks));
  obs::Sink sink;
  faulty.set_observer(&sink);

  pram::TraceParams params;
  params.write_fraction = 0.2;
  params.zipf_exponent = 1.1;
  util::Rng rng(53);
  const auto trace = pram::make_trace(pram::TraceFamily::kZipfian, 16,
                                      faulty.size(), 80, rng, params);
  ServedRun run;
  core::PlanBuilder builder;
  pram::ServeContext ctx;
  std::vector<pram::Word> values;
  for (std::size_t step = 0; step < trace.size(); ++step) {
    if (step == 25) {
      pram::BufferSink image;
      faulty.snapshot(image);
      const auto bytes = image.take();
      pram::BufferSource source(bytes);
      EXPECT_TRUE(faulty.restore(source));
    }
    if (step == 45) {
      EXPECT_TRUE(cache_view->set_fault_hooks(hooks));
    }
    const pram::AccessPlan& plan = builder.build(trace[step], faulty);
    values.assign(plan.reads.size(), 0);
    ctx.bind(values);
    (void)faulty.serve(plan, ctx);
    run.values.insert(run.values.end(), values.begin(), values.end());
    const auto flags = ctx.flags();
    run.flags.insert(run.flags.end(), flags.begin(), flags.end());
  }
  run.cache = cache_view->stats();
  run.reliability = faulty.reliability();
  obs::SnapshotOptions snapshot;
  snapshot.include_timings = false;
  run.obs = obs::to_json(sink, snapshot);
  return run;
}

// The fault epoch looked up in the model's onset schedule must serve
// exactly what a scan of every module's death state serves: values,
// flags, every counter, and the journal — across a restore and a
// mid-run hook re-installation. kDmmpc refines suspect lines through its
// memory map; kIda's block map does not cover variables, so every
// suspect line is invalidated.
TEST(CachedMemory, DeadBackingInvalidationIdenticalUnderScannedEpoch) {
  for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const ServedRun model = run_dead_backing(kind, false);
    const ServedRun scan = run_dead_backing(kind, true);
    EXPECT_EQ(model.values, scan.values);
    EXPECT_EQ(model.flags, scan.flags);
    EXPECT_GT(model.cache.hits, 0u);
    EXPECT_GT(model.cache.invalidations, 0u);
    EXPECT_EQ(model.cache.hits, scan.cache.hits);
    EXPECT_EQ(model.cache.misses, scan.cache.misses);
    EXPECT_EQ(model.cache.evictions, scan.cache.evictions);
    EXPECT_EQ(model.cache.writebacks, scan.cache.writebacks);
    EXPECT_EQ(model.cache.invalidations, scan.cache.invalidations);
    EXPECT_EQ(model.cache.bypasses, scan.cache.bypasses);
    const auto& a = model.reliability;
    const auto& b = scan.reliability;
    EXPECT_GT(a.reads_served, 0u);
    EXPECT_EQ(a.wrong_reads, 0u);
    EXPECT_EQ(a.reads_served, b.reads_served);
    EXPECT_EQ(a.faults_masked, b.faults_masked);
    EXPECT_EQ(a.units_faulty, b.units_faulty);
    EXPECT_EQ(a.erasures_skipped, b.erasures_skipped);
    EXPECT_EQ(a.shares_short, b.shares_short);
    EXPECT_EQ(a.uncorrectable, b.uncorrectable);
    EXPECT_EQ(a.wrong_reads, b.wrong_reads);
    EXPECT_EQ(a.writes_dropped, b.writes_dropped);
    EXPECT_EQ(a.corrupt_stores, b.corrupt_stores);
    EXPECT_EQ(a.units_repaired, b.units_repaired);
    EXPECT_EQ(a.units_relocated, b.units_relocated);
    EXPECT_EQ(model.obs, scan.obs);
  }
}

/// FlatMemory plus a scriptable scrub pass, so relocation invalidation
/// is testable without threading a real fault sweep underneath. It
/// accepts (and ignores) replica-level hooks, so the cache runs its
/// fault epoch over a scheme without a memory map.
class RelocatingMemory final : public pram::MemorySystem {
 public:
  explicit RelocatingMemory(std::uint64_t m) : flat_(m) {}

  pram::MemStepCost step(std::span<const VarId> reads,
                         std::span<pram::Word> read_values,
                         std::span<const pram::VarWrite> writes) override {
    return flat_.step(reads, read_values, writes);
  }
  [[nodiscard]] std::uint64_t size() const override { return flat_.size(); }
  [[nodiscard]] pram::Word peek(VarId var) const override {
    return flat_.peek(var);
  }
  void poke(VarId var, pram::Word value) override { flat_.poke(var, value); }
  pram::ScrubResult scrub(std::uint64_t budget) override {
    pram::ScrubResult result;
    result.scanned = budget;
    result.relocated = pending_relocations_;
    pending_relocations_ = 0;
    return result;
  }
  bool set_fault_hooks(const pram::FaultHooks* /*hooks*/) override {
    return true;
  }
  void relocate_on_next_scrub(std::uint64_t n) { pending_relocations_ = n; }

 private:
  pram::FlatMemory flat_;
  std::uint64_t pending_relocations_ = 0;
};

TEST(CachedMemory, ScrubRelocationInvalidatesCleanLinesOnly) {
  auto inner = std::make_unique<RelocatingMemory>(8);
  RelocatingMemory* reloc = inner.get();
  cache::CachedMemory cached(std::move(inner),
                             cache::CacheConfig{.capacity = 4});
  obs::Sink sink;
  cached.set_observer(&sink);

  // Fill a clean line (v0, read) and a dirty line (v1, written).
  std::vector<VarId> reads = {VarId(0)};
  std::vector<pram::Word> values(1, 0);
  const std::vector<pram::VarWrite> writes = {{VarId(1), 77}};
  cached.step(reads, values, writes);
  EXPECT_EQ(values[0], 0);

  // A scrub pass that relocated data: every clean line filled before it
  // is suspect. The inner value "moves" (changes) to make staleness
  // observable as a value, not just a counter.
  reloc->relocate_on_next_scrub(1);
  const auto scrub = cached.scrub(64);
  EXPECT_EQ(scrub.relocated, 1u);
  reloc->poke(VarId(0), 42);

  values.assign(1, 0);
  cached.step(reads, values, {});
  EXPECT_EQ(values[0], 42)
      << "clean line must be re-served from the relocated inner memory";
  EXPECT_EQ(cached.stats().invalidations, 1u);

  // The dirty line is the only up-to-date copy — it must NOT have been
  // invalidated by the relocation stamp.
  reads = {VarId(1)};
  values.assign(1, 0);
  cached.step(reads, values, {});
  EXPECT_EQ(values[0], 77);
  EXPECT_EQ(cached.stats().invalidations, 1u);

  if (obs::kEnabled) {
    sink.journal.flush();
    bool saw_scrub_invalidate = false;
    for (const auto& event : sink.journal.events()) {
      if (event.kind == obs::EventKind::kCacheInvalidateScrub) {
        saw_scrub_invalidate = true;
        EXPECT_EQ(event.entity, 0u);
      }
    }
    EXPECT_TRUE(saw_scrub_invalidate);
  }
}

// A death is dated no earlier than the first step served under the
// hooks that report it: a line filled before the hooks were installed
// cannot vouch for storage they say is dead, even for a static (onset 0)
// death. A line refilled under the hooks is fresh again.
TEST(CachedMemory, DeadBackingInvalidationDatesStaticDeathAtFirstHookedStep) {
  cache::CachedMemory cached(std::make_unique<RelocatingMemory>(8),
                             cache::CacheConfig{.capacity = 4});
  const std::vector<VarId> reads = {VarId(0)};
  std::vector<pram::Word> values(1, 0);
  cached.step(reads, values, {});  // step 1 fills a clean line, no hooks

  const faults::FaultModel model({.seed = 1, .dead_modules = 1}, 1);
  ASSERT_EQ(model.last_module_death(0), std::optional<std::uint64_t>(0));
  ASSERT_TRUE(cached.set_fault_hooks(&model));
  cached.step(reads, values, {});  // step 2: the pre-hook line is suspect
  EXPECT_EQ(cached.stats().invalidations, 1u);
  cached.step(reads, values, {});  // step 3: filled at step 2, a hit
  EXPECT_EQ(cached.stats().invalidations, 1u);
  EXPECT_EQ(cached.stats().hits, 1u);
}

// ----- pipeline: worker-count invariance with the cache enabled -------

void expect_runs_identical(const core::TraceRunResult& a,
                           const core::TraceRunResult& b,
                           const char* what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.time.count(), b.time.count()) << what;
  EXPECT_DOUBLE_EQ(a.time.sum(), b.time.sum()) << what;
  EXPECT_DOUBLE_EQ(a.work.sum(), b.work.sum()) << what;
  EXPECT_DOUBLE_EQ(a.max_queue.max(), b.max_queue.max()) << what;
  EXPECT_EQ(a.reliability.reads_served, b.reliability.reads_served) << what;
  EXPECT_EQ(a.reliability.wrong_reads, b.reliability.wrong_reads) << what;
  EXPECT_EQ(a.reliability.faults_masked, b.reliability.faults_masked)
      << what;
  EXPECT_EQ(a.reliability.uncorrectable, b.reliability.uncorrectable)
      << what;
}

struct WorkerOverrideGuard {
  ~WorkerOverrideGuard() { util::set_parallel_workers_override(0); }
};

// Results AND deterministic obs snapshots of a cached group-parallel
// pipeline run must be bit-identical at 1 worker and at many, including
// the cache's own counters and invalidation events.
TEST(CachedMemory, GroupParallelCachedPipelineBitIdenticalAcrossWorkers) {
  WorkerOverrideGuard guard;
  core::SchemeSpec spec{
      .kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3};
  spec.backend = pram::ServeBackend::kGroupParallel;
  spec.cache_lines = 64;
  core::SimulationPipeline pipeline(spec);
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.25,
                                     .onset_min = 2,
                                     .onset_max = 8};
  core::StressOptions options{.steps_per_family = 6, .seed = 13,
                              .trials = 2};
  options.families = {pram::TraceFamily::kZipfian,
                      pram::TraceFamily::kWorkingSet};
  options.trace.zipf_exponent = 1.1;
  options.scrub_interval = 2;
  options.scrub_budget = 64;
  options.obs_enabled = true;

  obs::SnapshotOptions snapshot;
  snapshot.include_timings = false;

  util::set_parallel_workers_override(1);
  auto serial = pipeline.run_with_faults(fault_spec, options);
  util::set_parallel_workers_override(4);
  auto parallel = pipeline.run_with_faults(fault_spec, options);
  util::set_parallel_workers_override(0);

  EXPECT_GT(serial.reliability.reads_served, 0u);
  EXPECT_EQ(serial.reliability.wrong_reads, 0u);
  expect_runs_identical(serial, parallel, "cached kDmmpc");
  if (obs::kEnabled) {
    const std::string a = obs::to_json(serial.obs, snapshot);
    const std::string b = obs::to_json(parallel.obs, snapshot);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"cache.hits\""), std::string::npos);
  }
}

// Durability regression: snapshot() must write DIRTY LINES BACK to the
// inner memory BEFORE serializing it — the original ordering serialized
// the backing state first and produced checkpoints with stale words
// under every dirty line. The restored cache starts cold with a fully
// up-to-date backing image.
TEST(CachedMemory, SnapshotFlushesDirtyLinesBeforeSerializing) {
  auto flat = std::make_unique<pram::FlatMemory>(8);
  pram::FlatMemory* inner = flat.get();
  cache::CachedMemory cached(std::move(flat),
                             cache::CacheConfig{.capacity = 4});

  std::vector<VarId> no_reads;
  std::vector<pram::Word> no_values;
  const std::vector<pram::VarWrite> writes = {{VarId(0), 10},
                                              {VarId(1), 11},
                                              {VarId(5), 55}};
  cached.step(no_reads, no_values, writes);
  // The lines are dirty: the inner memory is stale by design...
  ASSERT_EQ(inner->peek(VarId(0)), 0);
  ASSERT_EQ(cached.stats().writebacks, 0u);

  // ...but serialization must flush first, so the checkpoint image (and
  // the inner memory it nests) carries the committed values.
  pram::BufferSink sink;
  cached.snapshot(sink);
  const auto bytes = sink.take();
  EXPECT_EQ(inner->peek(VarId(0)), 10);
  EXPECT_EQ(inner->peek(VarId(1)), 11);
  EXPECT_EQ(inner->peek(VarId(5)), 55);
  EXPECT_EQ(cached.stats().writebacks, 3u);
  // Flushing is not eviction: the lines stay resident (now clean).
  EXPECT_EQ(cached.occupancy(), 3u);
  EXPECT_EQ(cached.peek(VarId(5)), 55);

  // Restore into a fresh wrapper: values correct, cache cold.
  cache::CachedMemory restored(std::make_unique<pram::FlatMemory>(8),
                               cache::CacheConfig{.capacity = 4});
  pram::BufferSource source(bytes);
  ASSERT_TRUE(restored.restore(source));
  ASSERT_TRUE(source.exhausted());
  EXPECT_EQ(restored.occupancy(), 0u);
  EXPECT_EQ(restored.peek(VarId(0)), 10);
  EXPECT_EQ(restored.peek(VarId(1)), 11);
  EXPECT_EQ(restored.peek(VarId(5)), 55);
  EXPECT_EQ(restored.peek(VarId(2)), 0);
}

}  // namespace
}  // namespace pramsim
