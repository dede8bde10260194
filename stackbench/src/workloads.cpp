#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/plan_builder.hpp"
#include "decorators.hpp"
#include "durability/checkpoint.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "faults/faultable_memory.hpp"
#include "obs/sink.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "reference.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace stackbench {
namespace {

namespace core = pramsim::core;
namespace pram = pramsim::pram;
namespace fs = std::filesystem;
using pramsim::VarId;
using pramsim::util::Stopwatch;

/// Order-sensitive 64-bit fold (the simulated-cost checksum).
void fold(std::uint64_t& acc, std::uint64_t value) {
  acc ^= value + 0x9E3779B97F4A7C15ULL + (acc << 6) + (acc >> 2);
  acc *= 0xBF58476D1CE4E5B9ULL;
}

void fold_cost(std::uint64_t& acc, const pram::MemStepCost& cost) {
  fold(acc, cost.time);
  fold(acc, cost.work);
  fold(acc, cost.live_after_stage1);
  fold(acc, cost.max_queue);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(Stopwatch::now_ns() - start_ns) * 1e-9;
}

/// Seeds the run's inputs: the traffic, the fault placement and the sort
/// keys all derive from the benchmark's --seed; the scheme's memory map
/// is part of the stack's configuration and stays fixed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t acc = salt;
  fold(acc, seed);
  return acc;
}

pramsim::faults::FaultSpec fault_spec(const Workload& w, std::uint64_t seed) {
  pramsim::faults::FaultSpec spec;
  spec.seed = derive_seed(seed, 0xFA17);
  spec.module_kill_rate = w.module_kill_rate;
  spec.corruption_rate = w.corruption_rate;
  spec.onset_min = w.onset_min;
  spec.onset_max = w.onset_max;
  return spec;
}

/// The shared variables the scheme covers: n^k, as core::make_scheme sizes
/// it. Computed rather than read from a built scheme so that no stack
/// exists before the first round (see peak_heap_mib); build_stack checks it.
std::uint64_t shared_vars(const core::SchemeSpec& spec) {
  const auto m = static_cast<std::uint64_t>(
      std::llround(std::pow(static_cast<double>(spec.n), spec.k)));
  return std::max<std::uint64_t>({m, spec.min_vars, spec.n});
}

/// The layers of one assembled stack, with non-owning handles to the
/// wrappers the round reads telemetry from.
struct Stack {
  std::unique_ptr<pram::MemorySystem> top;
  pramsim::faults::FaultableMemory* faultable = nullptr;
  pramsim::cache::CachedMemory* cached = nullptr;
  bool majority = false;
  double make_scheme_s = 0.0;
};

std::unique_ptr<pram::MemorySystem> timed(
    std::unique_ptr<pram::MemorySystem> inner, SpanRecorder* recorder,
    const char* layer) {
  if (recorder == nullptr) {
    return inner;
  }
  return std::make_unique<TimedMemory>(std::move(inner), *recorder, layer);
}

/// make_scheme -> [CachedMemory] -> FaultableMemory, with a timing
/// decorator between each pair of layers in the traced variant.
Stack build_stack(const Workload& w, std::uint64_t seed,
                  SpanRecorder* recorder) {
  Stack stack;
  const std::uint64_t start = Stopwatch::now_ns();
  core::SchemeInstance instance = core::make_scheme(w.spec);
  stack.make_scheme_s = seconds_since(start);
  if (instance.memory->size() != shared_vars(w.spec)) {
    throw std::runtime_error(w.name + ": the scheme covers " +
                             std::to_string(instance.memory->size()) +
                             " variables, the inputs assume " +
                             std::to_string(shared_vars(w.spec)));
  }
  stack.majority = instance.engine != nullptr;
  std::unique_ptr<pram::MemorySystem> memory =
      timed(std::move(instance.memory), recorder,
            stack.majority ? "majority" : "ida");
  if (w.cache_lines > 0) {
    auto cached = std::make_unique<pramsim::cache::CachedMemory>(
        std::move(memory),
        pramsim::cache::CacheConfig{.capacity = w.cache_lines});
    stack.cached = cached.get();
    memory = timed(std::move(cached), recorder, "cache");
  }
  auto faultable = std::make_unique<pramsim::faults::FaultableMemory>(
      std::move(memory), fault_spec(w, seed));
  stack.faultable = faultable.get();
  stack.top = timed(std::move(faultable), recorder, "faults");
  return stack;
}

/// The last step whose WAL records were made durable: every flush step
/// and every checkpoint step (a checkpoint flushes the log first).
std::uint64_t durable_horizon(const Workload& w, std::uint64_t last_step) {
  std::uint64_t horizon = last_step - last_step % w.wal_flush_interval;
  if (w.checkpoint_interval != 0) {
    horizon = std::max(horizon,
                       last_step - last_step % w.checkpoint_interval);
  }
  return horizon;
}

/// Checks every raw read of `batch` against the reference memory, which
/// still holds the pre-step values: a flagged read or a wrong value is a
/// failed operation.
void check_reads(const pram::AccessBatch& batch, const pram::AccessPlan& plan,
                 std::span<const pram::Word> values,
                 std::span<const std::uint8_t> flags, RunInputs& in,
                 RoundResult& result) {
  for (std::size_t i = 0; i < plan.reads.size(); ++i) {
    in.read_slot[plan.reads[i].index()] = static_cast<std::int32_t>(i);
  }
  for (const auto& access : batch) {
    if (access.op != pram::AccessOp::kRead) {
      continue;
    }
    ++result.attempted;
    const std::int32_t slot = in.read_slot[access.var.index()];
    if (slot >= 0 && !flags.empty() && flags[slot] != 0) {
      ++result.flagged_reads;
      ++result.failed;
    } else if (slot < 0 || values[slot] != in.reference.get(access.var)) {
      ++result.wrong_reads;
      ++result.failed;
    }
  }
  for (const VarId var : plan.reads) {
    in.read_slot[var.index()] = -1;
  }
}

/// Layer counters read when the timed steps begin; the round reports how
/// much each grew over the timed steps.
struct LayerCounters {
  pramsim::cache::CacheStats cache;
  pram::ReliabilityStats reliability;
  pramsim::obs::PhaseSet phases;
  std::uint64_t wal_bytes = 0;
  std::uint64_t events = 0;

  static LayerCounters read(const Stack& stack, pramsim::obs::Sink& sink) {
    LayerCounters c;
    if (stack.cached != nullptr) {
      c.cache = stack.cached->stats();
    }
    c.reliability = stack.top->reliability();
    c.phases = sink.phases;
    c.wal_bytes = sink.metrics.counter("wal.flushed_bytes");
    c.events = sink.journal.recorded();
    return c;
  }

  void record_growth(const LayerCounters& now, RoundResult& result) const {
    result.cache.hits = now.cache.hits - cache.hits;
    result.cache.misses = now.cache.misses - cache.misses;
    result.cache.evictions = now.cache.evictions - cache.evictions;
    result.cache.writebacks = now.cache.writebacks - cache.writebacks;
    result.faults_masked =
        now.reliability.faults_masked - reliability.faults_masked;
    result.shares_short =
        now.reliability.shares_short - reliability.shares_short;
    for (std::size_t p = 0; p < pramsim::obs::kPhaseCount; ++p) {
      result.phases.stats[p].count =
          now.phases.stats[p].count - phases.stats[p].count;
      result.phases.stats[p].total_ns =
          now.phases.stats[p].total_ns - phases.stats[p].total_ns;
    }
    result.wal_bytes = now.wal_bytes - wal_bytes;
    result.journal_events = now.events - events;
  }
};

RoundResult run_trace_round(const Workload& w, RunInputs& in,
                            const RoundOptions& options) {
  RoundResult result;
  SpanRecorder* recorder = options.recorder;
  const std::uint32_t root_name =
      recorder != nullptr ? recorder->intern("step") : 0;
  const auto name = [&](const char* n) {
    return recorder != nullptr ? recorder->intern(n) : 0u;
  };
  const std::uint32_t plan_name = name("core.plan_build");
  const std::uint32_t append_name = name("durability.wal_append");
  const std::uint32_t flush_name = name("durability.wal_flush");
  const std::uint32_t checkpoint_name = name("durability.checkpoint");

  const std::uint64_t total_steps = in.trace.size();
  ReferenceMemory& reference = in.reference;
  reference.reset(in.m);

  fs::create_directories(options.data_dir);
  const std::string wal_path = (fs::path(options.data_dir) / "wal.log").string();
  const auto clear_dir = [&] {
    for (const auto& entry : fs::directory_iterator(options.data_dir)) {
      fs::remove(entry.path());
    }
  };
  clear_dir();

  pramsim::obs::Sink sink;

  {
    const std::uint64_t setup_start = Stopwatch::now_ns();
    Stack stack = build_stack(w, in.seed, recorder);
    if (options.tamper_step != 0) {
      stack.top = std::make_unique<TamperMemory>(std::move(stack.top),
                                                 options.tamper_step);
    }
    pram::MemorySystem& top = *stack.top;
    top.set_observer(&sink);
    pramsim::durability::Wal wal({wal_path, w.wal_flush_interval}, &sink);
    pramsim::durability::Checkpointer checkpointer(
        {options.data_dir, 2}, &sink);
    result.setup_s = seconds_since(setup_start);
    result.make_scheme_s = stack.make_scheme_s;
    result.majority = stack.majority;

    // Fault onsets the WAL acknowledges once the step clock crosses them.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> onsets;
    for (const auto module : stack.faultable->model().dead_modules()) {
      onsets.emplace_back(stack.faultable->model().module_onset(module),
                          static_cast<std::uint32_t>(module.index()));
    }
    std::sort(onsets.begin(), onsets.end());
    std::size_t onset_cursor = 0;

    core::PlanBuilder builder;
    std::vector<pram::Word> values;
    pram::ServeContext ctx;

    LayerCounters at_timed_start;

    for (std::uint64_t step = 1; step <= total_steps; ++step) {
      const bool is_timed = step > w.warmup_steps;
      if (step == std::uint64_t{w.warmup_steps} + 1) {
        at_timed_start = LayerCounters::read(stack, sink);
        if (recorder != nullptr) {
          recorder->set_enabled(true);
        }
      }
      const pram::AccessBatch& batch = in.trace[step - 1];

      // ---- the timed work of one P-RAM step ----
      const std::uint64_t start = Stopwatch::now_ns();
      pram::MemStepCost cost;
      pram::ScrubResult scrubbed;
      const pram::AccessPlan* plan = nullptr;
      {
        const ScopedSpan root(recorder, root_name);
        {
          const ScopedSpan span(recorder, plan_name);
          plan = &builder.build(batch, top);
        }
        values.resize(plan->reads.size());
        ctx.bind(values);
        cost = top.serve(*plan, ctx);
        {
          const ScopedSpan span(recorder, append_name);
          while (onset_cursor < onsets.size() &&
                 onsets[onset_cursor].first <= step) {
            wal.append_onset(step, onsets[onset_cursor].second);
            ++onset_cursor;
          }
          wal.append_step(step, plan->writes);
        }
        if (step % w.wal_flush_interval == 0) {
          const ScopedSpan span(recorder, flush_name);
          wal.flush();
        }
        if (w.scrub_interval != 0 && step % w.scrub_interval == 0) {
          scrubbed = top.scrub(w.scrub_budget);
          if (scrubbed.relocated != 0) {
            const ScopedSpan span(recorder, append_name);
            wal.append_relocation(step, scrubbed.relocated);
          }
        }
        if (w.checkpoint_interval != 0 && step % w.checkpoint_interval == 0) {
          const ScopedSpan span(recorder, checkpoint_name);
          wal.flush();
          checkpointer.write(top, step);
          wal.truncate_through(step);
        }
      }
      const std::uint64_t end = Stopwatch::now_ns();

      // ---- checks and bookkeeping, outside the timed interval ----
      fold_cost(result.checksum, cost);
      for (const pram::Word value : values) {
        fold(result.checksum, static_cast<std::uint64_t>(value));
      }
      check_reads(batch, *plan, values, ctx.flags(), in, result);
      reference.commit(step, batch);

      if (is_timed) {
        result.step_us.push_back(static_cast<double>(end - start) * 1e-3);
        result.timed_s += static_cast<double>(end - start) * 1e-9;
        result.sim_time += cost.time;
        result.sim_work += cost.work;
        result.max_queue += cost.max_queue;
        result.scrub.merge(scrubbed);
      }
    }
    if (recorder != nullptr) {
      recorder->set_enabled(false);
    }

    const LayerCounters at_end = LayerCounters::read(stack, sink);
    at_timed_start.record_growth(at_end, result);
    result.oracle_wrong_reads = at_end.reliability.wrong_reads;
    result.oracle_uncorrectable = at_end.reliability.uncorrectable;
    result.checkpoint_bytes = checkpointer.last_bytes();

    // Final value of every variable the round wrote.
    for (const std::uint64_t var : reference.written()) {
      const VarId id(static_cast<std::uint32_t>(var));
      ++result.attempted;
      if (top.peek(id) != reference.get(id)) {
        ++result.wrong_final;
        ++result.failed;
      }
    }
    top.set_observer(nullptr);
  }  // the crash: the WAL closes without flushing its buffered tail

  // Restart: a fresh stack recovers from what reached the disk.
  Stack recovered = build_stack(w, in.seed, recorder);
  recovered.top->set_observer(&sink);
  const std::uint64_t recover_start = Stopwatch::now_ns();
  const auto outcome = pramsim::durability::recover(
      *recovered.top, wal_path, options.data_dir, w.recovery_scrub_budget,
      &sink);
  result.recover_s = seconds_since(recover_start);
  result.replayed_records = outcome.replayed_records;
  recovered.top->set_observer(nullptr);

  const std::uint64_t horizon = durable_horizon(w, total_steps);
  ++result.attempted;
  if (outcome.recovered_step != horizon) {
    ++result.wrong_recovered;
    ++result.failed;
  }
  reference.rewind_to(horizon);
  for (std::uint64_t v = 0; v < in.m; ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    ++result.attempted;
    if (recovered.top->peek(var) != reference.get(var)) {
      ++result.wrong_recovered;
      ++result.failed;
    }
  }
  clear_dir();
  return result;
}

RoundResult run_sort_round(const Workload& w, RunInputs& in,
                           const RoundOptions& options) {
  RoundResult result;
  SpanRecorder* recorder = options.recorder;
  const std::uint32_t root_name =
      recorder != nullptr ? recorder->intern("step") : 0;
  const std::uint32_t machine_name =
      recorder != nullptr ? recorder->intern("pram.machine") : 0;

  const std::uint32_t n = w.spec.n;
  const std::vector<pram::Word>& keys = in.keys;
  std::vector<pram::Word> expected = keys;
  std::sort(expected.begin(), expected.end());
  if (options.perturb_expected) {
    expected[n / 2] += 1;
  }

  auto program = pram::programs::bitonic_sort(n);
  pramsim::obs::Sink sink;

  const std::uint64_t setup_start = Stopwatch::now_ns();
  Stack stack = build_stack(w, in.seed, recorder);
  if (options.tamper_step != 0) {
    stack.top = std::make_unique<TamperMemory>(std::move(stack.top),
                                               options.tamper_step);
  }
  stack.top->set_observer(&sink);
  pram::Machine machine(
      pram::MachineConfig{.n_processors = n,
                          .m_shared_cells = in.m,
                          .policy = program.min_policy},
      std::move(program.program), std::move(stack.top));
  result.setup_s = seconds_since(setup_start);
  result.make_scheme_s = stack.make_scheme_s;
  result.majority = stack.majority;

  for (std::uint32_t i = 0; i < n; ++i) {
    machine.poke_shared(VarId(i), keys[i]);
  }
  ReferenceMemory& reference = in.reference;
  reference.reset(in.m);
  {
    pram::AccessBatch inputs;
    for (std::uint32_t i = 0; i < n; ++i) {
      inputs.push_back({pramsim::ProcId(0), pram::AccessOp::kWrite, VarId(i),
                        keys[i]});
    }
    reference.commit(0, inputs);
  }

  if (recorder != nullptr) {
    recorder->set_enabled(true);
  }
  const std::uint64_t step_limit = 1'000'000;
  bool machine_failed = false;
  for (std::uint64_t step = 1; !machine.all_halted(); ++step) {
    const std::uint64_t start = Stopwatch::now_ns();
    pram::StepOutcome outcome;
    {
      const ScopedSpan root(recorder, root_name);
      const ScopedSpan span(recorder, machine_name);
      outcome = machine.step();
    }
    const std::uint64_t end = Stopwatch::now_ns();
    if (outcome.status != pram::StepStatus::kOk || step > step_limit) {
      machine_failed = true;
      break;
    }
    result.step_us.push_back(static_cast<double>(end - start) * 1e-3);
    result.timed_s += static_cast<double>(end - start) * 1e-9;
    result.sim_time += outcome.mem_cost.time;
    result.sim_work += outcome.mem_cost.work;
    result.max_queue += outcome.mem_cost.max_queue;

    fold_cost(result.checksum, outcome.mem_cost);
    const pram::AccessBatch& batch = machine.last_raw_batch();
    for (const auto& access : batch) {
      fold(result.checksum, access.proc.index());
      fold(result.checksum, static_cast<std::uint64_t>(access.op));
      fold(result.checksum, access.var.index());
      if (access.op == pram::AccessOp::kRead) {
        ++result.attempted;
      } else {
        fold(result.checksum, static_cast<std::uint64_t>(access.value));
      }
    }
    for (const std::uint8_t flag : machine.memory().flagged_reads()) {
      if (flag != 0) {
        ++result.flagged_reads;
        ++result.failed;
      }
    }
    reference.commit(step, batch);
  }
  if (recorder != nullptr) {
    recorder->set_enabled(false);
  }
  if (machine_failed) {
    ++result.attempted;
    ++result.failed;
  }

  const pram::ReliabilityStats reliability = machine.memory().reliability();
  result.faults_masked = reliability.faults_masked;
  result.oracle_wrong_reads = reliability.wrong_reads;
  result.oracle_uncorrectable = reliability.uncorrectable;
  result.phases = sink.phases;
  result.journal_events = sink.journal.recorded();

  // The sorted output against std::sort of the input, then every
  // variable the program wrote against the reference memory.
  for (std::uint32_t i = 0; i < n; ++i) {
    const pram::Word value = machine.shared(VarId(i));
    fold(result.checksum, static_cast<std::uint64_t>(value));
    ++result.attempted;
    if (value != expected[i]) {
      ++result.wrong_final;
      ++result.failed;
    }
  }
  for (const std::uint64_t var : reference.written()) {
    const VarId id(static_cast<std::uint32_t>(var));
    ++result.attempted;
    if (machine.shared(id) != reference.get(id)) {
      ++result.wrong_final;
      ++result.failed;
    }
  }
  machine.memory().set_observer(nullptr);
  return result;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> list;

    Workload zipf;
    zipf.name = "zipf-dmmpc";
    zipf.spec = core::SchemeSpec{.kind = core::SchemeKind::kDmmpc,
                                 .n = 1024,
                                 .k = 2.0,
                                 .seed = 7};
    zipf.family = pram::TraceFamily::kZipfian;
    zipf.trace.zipf_exponent = 1.1;
    zipf.trace.write_fraction = 0.5;
    zipf.cache_lines = 16384;  // m / 64
    zipf.warmup_steps = 128;
    zipf.timed_steps = 404;
    zipf.module_kill_rate = 0.01;
    zipf.corruption_rate = 0.01;
    zipf.onset_min = zipf.warmup_steps + 1;
    zipf.onset_max = zipf.warmup_steps + zipf.timed_steps / 2;
    zipf.scrub_interval = 16;
    zipf.scrub_budget = 4096;
    zipf.wal_flush_interval = 8;
    zipf.checkpoint_interval = 50;
    zipf.recovery_scrub_budget = 4096;
    list.push_back(zipf);

    Workload ida;
    ida.name = "writeheavy-ida";
    ida.spec = core::SchemeSpec{.kind = core::SchemeKind::kIda,
                                .n = 256,
                                .k = 2.0,
                                .seed = 7,
                                .ida_check_shares = true,
                                .region_words = 8};
    ida.family = pram::TraceFamily::kUniform;
    ida.trace.write_fraction = 0.9;
    ida.cache_lines = 4096;  // m / 16
    ida.warmup_steps = 64;
    ida.timed_steps = 500;
    ida.module_kill_rate = 0.01;
    ida.corruption_rate = 0.01;
    ida.onset_min = ida.warmup_steps + 1;
    ida.onset_max = ida.warmup_steps + ida.timed_steps / 2;
    ida.scrub_interval = 16;
    ida.scrub_budget = 1024;
    ida.wal_flush_interval = 8;
    ida.checkpoint_interval = 50;
    ida.recovery_scrub_budget = 1024;
    list.push_back(ida);

    Workload sort;
    sort.name = "sort-hpmot";
    sort.sort = true;
    sort.spec = core::SchemeSpec{.kind = core::SchemeKind::kHpMot,
                                 .n = 256,
                                 .k = 2.0,
                                 .seed = 7};
    sort.module_kill_rate = 0.01;
    sort.corruption_rate = 0.01;
    sort.onset_min = 50;
    sort.onset_max = 500;
    list.push_back(sort);
    return list;
  }();
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

Workload shortened(const Workload& workload) {
  Workload w = workload;
  if (!w.sort) {
    w.warmup_steps = 8;
    w.timed_steps = 44;
    w.onset_min = w.warmup_steps + 1;
    w.onset_max = w.warmup_steps + w.timed_steps / 2;
    w.checkpoint_interval = 20;
  }
  return w;
}

RunInputs make_inputs(const Workload& workload, std::uint64_t seed) {
  RunInputs in;
  in.seed = seed;
  in.m = shared_vars(workload.spec);
  in.reference.reset(in.m);
  if (workload.sort) {
    pramsim::util::Rng key_rng(derive_seed(seed, 0x5027));
    in.keys.resize(workload.spec.n);
    for (auto& key : in.keys) {
      key = static_cast<pram::Word>(key_rng.below(1'000'000'000));
    }
  } else {
    pramsim::util::Rng trace_rng(derive_seed(seed, 0x7AC3));
    in.trace = pram::make_trace(
        workload.family, workload.spec.n, in.m,
        std::uint64_t{workload.warmup_steps} + workload.timed_steps,
        trace_rng, workload.trace);
    in.read_slot.assign(in.m, -1);
    std::size_t writes = 0;
    for (const pram::AccessBatch& batch : in.trace) {
      for (const auto& access : batch) {
        writes += access.op == pram::AccessOp::kWrite ? 1 : 0;
      }
    }
    in.reference.reserve_history(writes);
  }
  return in;
}

RoundResult run_round(const Workload& workload, RunInputs& inputs,
                      const RoundOptions& options) {
  return workload.sort ? run_sort_round(workload, inputs, options)
                       : run_trace_round(workload, inputs, options);
}

}  // namespace stackbench
