// Benchmark-side decorators placed between the layers of the stack.
//
// ForwardingMemory implements the whole pram::MemorySystem surface by
// forwarding to the wrapped memory, so a decorator is transparent: the
// same plans, values, costs, flags and fault hooks reach every layer as
// without it. TimedMemory adds spans around serve/step/scrub/snapshot;
// TamperMemory changes one read value at one chosen step, the negative
// case that shows the benchmark's read checks are not vacuous.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pram/memory_system.hpp"
#include "spans.hpp"

namespace stackbench {

class ForwardingMemory : public pramsim::pram::MemorySystem {
 public:
  explicit ForwardingMemory(
      std::unique_ptr<pramsim::pram::MemorySystem> inner)
      : inner_(std::move(inner)) {}

  pramsim::pram::MemStepCost step(
      std::span<const pramsim::VarId> reads,
      std::span<pramsim::pram::Word> read_values,
      std::span<const pramsim::pram::VarWrite> writes) override {
    advance_step_clock();
    return inner_->step(reads, read_values, writes);
  }
  pramsim::pram::MemStepCost serve(const pramsim::pram::AccessPlan& plan,
                                   pramsim::pram::ServeContext& ctx) override {
    advance_step_clock();
    return inner_->serve(plan, ctx);
  }
  [[nodiscard]] std::uint64_t plan_group_of(
      pramsim::VarId var) const override {
    return inner_->plan_group_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override {
    return inner_->wants_plan_groups();
  }
  [[nodiscard]] std::uint32_t capabilities() const override {
    return inner_->capabilities();
  }
  pramsim::pram::ServeBackend set_serve_backend(
      pramsim::pram::ServeBackend backend) override {
    return inner_->set_serve_backend(backend);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] pramsim::pram::Word peek(pramsim::VarId var) const override {
    return inner_->peek(var);
  }
  void poke(pramsim::VarId var, pramsim::pram::Word value) override {
    inner_->poke(var, value);
  }
  [[nodiscard]] double storage_redundancy() const override {
    return inner_->storage_redundancy();
  }
  [[nodiscard]] const pramsim::memmap::MemoryMap* memory_map()
      const override {
    return inner_->memory_map();
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return inner_->num_modules();
  }
  bool set_fault_hooks(const pramsim::pram::FaultHooks* hooks) override {
    return inner_->set_fault_hooks(hooks);
  }
  pramsim::pram::ScrubResult scrub(std::uint64_t budget) override {
    return inner_->scrub(budget);
  }
  [[nodiscard]] pramsim::pram::ReliabilityStats reliability()
      const override {
    return inner_->reliability();
  }
  [[nodiscard]] std::span<const std::uint8_t> flagged_reads()
      const override {
    return inner_->flagged_reads();
  }
  [[nodiscard]] std::vector<pramsim::VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const override {
    return inner_->adversarial_vars(count, seed);
  }
  void set_observer(pramsim::obs::Sink* sink) override {
    pramsim::pram::MemorySystem::set_observer(sink);
    inner_->set_observer(sink);
  }

 protected:
  void snapshot_body(pramsim::pram::SnapshotSink& sink) override {
    inner_->snapshot(sink);
  }
  [[nodiscard]] bool restore_body(
      pramsim::pram::SnapshotSource& source) override {
    return inner_->restore(source);
  }

  std::unique_ptr<pramsim::pram::MemorySystem> inner_;
};

/// Records a span named "<layer>.<call>" around every serve, step, scrub
/// and snapshot that passes through it.
class TimedMemory final : public ForwardingMemory {
 public:
  TimedMemory(std::unique_ptr<pramsim::pram::MemorySystem> inner,
              SpanRecorder& recorder, const std::string& layer)
      : ForwardingMemory(std::move(inner)),
        recorder_(&recorder),
        serve_(recorder.intern(layer + ".serve")),
        step_(recorder.intern(layer + ".step")),
        scrub_(recorder.intern(layer + ".scrub")),
        snapshot_(recorder.intern(layer + ".snapshot")) {}

  pramsim::pram::MemStepCost step(
      std::span<const pramsim::VarId> reads,
      std::span<pramsim::pram::Word> read_values,
      std::span<const pramsim::pram::VarWrite> writes) override {
    const ScopedSpan span(recorder_, step_);
    return ForwardingMemory::step(reads, read_values, writes);
  }
  pramsim::pram::MemStepCost serve(const pramsim::pram::AccessPlan& plan,
                                   pramsim::pram::ServeContext& ctx) override {
    const ScopedSpan span(recorder_, serve_);
    return ForwardingMemory::serve(plan, ctx);
  }
  pramsim::pram::ScrubResult scrub(std::uint64_t budget) override {
    const ScopedSpan span(recorder_, scrub_);
    return ForwardingMemory::scrub(budget);
  }

 protected:
  void snapshot_body(pramsim::pram::SnapshotSink& sink) override {
    const ScopedSpan span(recorder_, snapshot_);
    ForwardingMemory::snapshot_body(sink);
  }

 private:
  SpanRecorder* recorder_;
  std::uint32_t serve_;
  std::uint32_t step_;
  std::uint32_t scrub_;
  std::uint32_t snapshot_;
};

/// Adds 1 to the first read value of the first step at or after `at_step`
/// (counted by this decorator's own step clock) that reads anything;
/// every other value passes unchanged.
class TamperMemory final : public ForwardingMemory {
 public:
  TamperMemory(std::unique_ptr<pramsim::pram::MemorySystem> inner,
               std::uint64_t at_step)
      : ForwardingMemory(std::move(inner)), at_step_(at_step) {}

  pramsim::pram::MemStepCost step(
      std::span<const pramsim::VarId> reads,
      std::span<pramsim::pram::Word> read_values,
      std::span<const pramsim::pram::VarWrite> writes) override {
    const auto cost = ForwardingMemory::step(reads, read_values, writes);
    tamper(read_values);
    return cost;
  }
  pramsim::pram::MemStepCost serve(const pramsim::pram::AccessPlan& plan,
                                   pramsim::pram::ServeContext& ctx) override {
    const auto cost = ForwardingMemory::serve(plan, ctx);
    tamper(ctx.read_values());
    return cost;
  }

 private:
  void tamper(std::span<pramsim::pram::Word> values) {
    if (!done_ && steps_served() >= at_step_ && !values.empty()) {
      values[0] += 1;
      done_ = true;
    }
  }

  std::uint64_t at_step_;
  bool done_ = false;
};

}  // namespace stackbench
