#include "faults/fault_model.hpp"

#include <algorithm>
#include <iterator>

#include "util/assert.hpp"

namespace pramsim::faults {

namespace {

/// Map a hash to [0, 1) with 53 uniform bits (Bernoulli trials).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultSpec at_rate(FaultSpec proto, double rate) {
  proto.module_kill_rate *= rate;
  proto.stuck_rate *= rate;
  proto.corruption_rate *= rate;
  return proto;
}

FaultModel::FaultModel(FaultSpec spec, std::uint32_t n_modules)
    : spec_(spec), dead_(std::max(n_modules, 1u), 0) {
  // Exact kills first (sampled without replacement), then the
  // independent per-module kill rate on top; both from the same seed so
  // the set is a pure function of (spec, n_modules).
  const auto M = static_cast<std::uint32_t>(dead_.size());
  const std::uint32_t exact = std::min(spec_.dead_modules, M);
  if (exact > 0) {
    util::Rng rng(spec_.seed ^ 0xDEADC0DEDEADC0DEULL);
    for (const auto module : rng.sample_without_replacement(M, exact)) {
      dead_[module] = 1;
    }
  }
  if (spec_.module_kill_rate > 0.0) {
    for (std::uint32_t module = 0; module < M; ++module) {
      if (to_unit(mix(1, module, 0, 0)) < spec_.module_kill_rate) {
        dead_[module] = 1;
      }
    }
  }
  // Onset steps are drawn INDEPENDENTLY of the kill decision (different
  // mix tag), so widening or moving the onset window never changes which
  // modules die — only when.
  onset_.assign(dead_.size(), 0);
  for (std::uint32_t module = 0; module < M; ++module) {
    if (dead_[module] != 0) {
      onset_[module] = unit_onset(6, module, 0);
      schedule_.push_back({onset_[module], ModuleId(module)});
    }
  }
  std::sort(schedule_.begin(), schedule_.end());
}

std::uint64_t FaultModel::mix(std::uint64_t tag, std::uint64_t a,
                              std::uint64_t b, std::uint64_t c) const {
  util::SplitMix64 sm(spec_.seed ^ (tag * 0x9E3779B97F4A7C15ULL));
  std::uint64_t h = sm.next() ^ (a * 0xBF58476D1CE4E5B9ULL);
  h = util::SplitMix64(h ^ (b * 0x94D049BB133111EBULL)).next();
  return util::SplitMix64(h ^ (c * 0xD6E8FEB86659FD93ULL)).next();
}

std::uint64_t FaultModel::unit_onset(std::uint64_t tag, std::uint64_t a,
                                     std::uint64_t b) const {
  if (!spec_.dynamic()) {
    return 0;
  }
  const std::uint64_t lo = std::min(spec_.onset_min, spec_.onset_max);
  const std::uint64_t hi = std::max(spec_.onset_min, spec_.onset_max);
  return lo + mix(tag, a, b, 0) % (hi - lo + 1);
}

bool FaultModel::module_dead(ModuleId module, std::uint64_t step) const {
  return module.index() < dead_.size() && dead_[module.index()] != 0 &&
         step >= onset_[module.index()];
}

std::optional<std::uint64_t> FaultModel::last_module_death(
    std::uint64_t step) const {
  const auto after = std::upper_bound(
      schedule_.begin(), schedule_.end(), step,
      [](std::uint64_t s, const ModuleOnset& onset) { return s < onset.step; });
  if (after == schedule_.begin()) {
    return std::nullopt;
  }
  return std::prev(after)->step;
}

bool FaultModel::stuck_at(std::uint64_t entity, std::uint32_t copy,
                          std::uint64_t step, pram::Word& value) const {
  if (spec_.stuck_rate <= 0.0) {
    return false;
  }
  const std::uint64_t h = mix(2, entity, copy, 0);
  if (to_unit(h) >= spec_.stuck_rate) {
    return false;
  }
  if (step < unit_onset(7, entity, copy)) {
    return false;  // dynamic fault not yet active
  }
  // The stuck garbage is itself a pure function of the cell.
  value = static_cast<pram::Word>(mix(3, entity, copy, 0));
  return true;
}

bool FaultModel::corrupt_write(std::uint64_t entity, std::uint32_t copy,
                               std::uint64_t stamp, std::uint64_t step,
                               pram::Word& value) const {
  if (spec_.corruption_rate <= 0.0) {
    return false;
  }
  const std::uint64_t h = mix(4, entity, copy, stamp);
  if (to_unit(h) >= spec_.corruption_rate) {
    return false;
  }
  if (step < unit_onset(8, entity, copy)) {
    return false;  // the store path is still healthy before its onset
  }
  // XOR with a nonzero mask guarantees the committed word is wrong.
  value ^= static_cast<pram::Word>(mix(5, entity, copy, stamp) | 1ULL);
  return true;
}

std::vector<ModuleId> FaultModel::dead_modules() const {
  std::vector<ModuleId> out;
  out.reserve(schedule_.size());
  for (const auto& onset : schedule_) {
    out.push_back(onset.module);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t FaultModel::module_onset(ModuleId module) const {
  PRAMSIM_ASSERT(module.index() < onset_.size());
  return onset_[module.index()];
}

std::uint64_t FaultModel::first_onset() const {
  if (!schedule_.empty()) {
    return schedule_.front().step;
  }
  // No module ever dies: stuck/corruption onsets are lazy per-unit
  // hashes we cannot enumerate, so report the earliest possible onset.
  return spec_.dynamic() ? std::min(spec_.onset_min, spec_.onset_max) : 0;
}

}  // namespace pramsim::faults
