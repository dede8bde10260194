// Brute-force reference for pram::FaultHooks::last_module_death: scan
// module_dead over every module. The fault and cache suites compare the
// production answer (FaultModel's onset schedule, and the cache's fault
// epoch built on it) against this scan.
#pragma once

#include <cstdint>
#include <optional>

#include "pram/faults.hpp"

namespace pramsim {

/// The latest onset over the modules dead at `step`, or std::nullopt
/// when none is; a module's onset is the first step module_dead answers
/// true for it (hooks are monotone, so a linear search finds it).
inline std::optional<std::uint64_t> scan_last_module_death(
    const pram::FaultHooks& hooks, std::uint32_t n_modules,
    std::uint64_t step) {
  std::optional<std::uint64_t> latest;
  for (std::uint32_t m = 0; m < n_modules; ++m) {
    const ModuleId module(m);
    if (!hooks.module_dead(module, step)) {
      continue;
    }
    std::uint64_t onset = 0;
    while (!hooks.module_dead(module, onset)) {
      ++onset;
    }
    if (!latest || onset > *latest) {
      latest = onset;
    }
  }
  return latest;
}

}  // namespace pramsim
