// The benchmark's own P-RAM memory, built from the raw access batches
// and nothing else of the program: a dense array of words with the ideal
// machine's step semantics. Reads see the state before the step's
// writes; concurrent writes to one variable resolve to the lowest
// processor id. An undo log lets the caller rewind to an earlier step,
// which gives the expected state at the WAL's durable horizon.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "pram/types.hpp"

namespace stackbench {

class ReferenceMemory {
 public:
  ReferenceMemory() = default;
  explicit ReferenceMemory(std::uint64_t m) { reset(m); }

  /// All m variables back to 0, no history.
  void reset(std::uint64_t m) {
    cells_.assign(m, 0);
    written_.assign(m, 0);
    written_list_.clear();
    undo_.clear();
  }

  /// Touch room for `writes` logged writes up front, so that a round's
  /// growth in resident memory is the stack's and not this log's.
  void reserve_history(std::size_t writes) {
    undo_.resize(writes);
    undo_.clear();
    written_list_.resize(std::min<std::size_t>(writes, cells_.size()));
    written_list_.clear();
  }

  [[nodiscard]] pramsim::pram::Word get(pramsim::VarId var) const {
    return cells_[var.index()];
  }

  /// Apply the writes of step `step` (1-based, increasing).
  void commit(std::uint64_t step, const pramsim::pram::AccessBatch& batch) {
    winners_.clear();
    for (const auto& access : batch) {
      if (access.op == pramsim::pram::AccessOp::kWrite) {
        winners_.emplace_back(access.var.index(), access.proc.index(),
                              access.value);
      }
    }
    std::sort(winners_.begin(), winners_.end());
    for (std::size_t i = 0; i < winners_.size(); ++i) {
      const auto [var, proc, value] = winners_[i];
      (void)proc;
      if (i > 0 && std::get<0>(winners_[i - 1]) == var) {
        continue;  // a higher processor id lost this variable
      }
      undo_.push_back({step, var, cells_[var]});
      cells_[var] = value;
      if (written_[var] == 0) {
        written_[var] = 1;
        written_list_.push_back(var);
      }
    }
  }

  /// Undo every write of the steps after `step`.
  void rewind_to(std::uint64_t step) {
    while (!undo_.empty() && undo_.back().step > step) {
      cells_[undo_.back().var] = undo_.back().old_value;
      undo_.pop_back();
    }
  }

  /// Variables written at least once, in first-write order.
  [[nodiscard]] const std::vector<std::uint64_t>& written() const {
    return written_list_;
  }

 private:
  struct Undo {
    std::uint64_t step;
    std::uint64_t var;
    pramsim::pram::Word old_value;
  };

  std::vector<pramsim::pram::Word> cells_;
  std::vector<std::uint8_t> written_;
  std::vector<std::uint64_t> written_list_;
  std::vector<Undo> undo_;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, pramsim::pram::Word>>
      winners_;
};

}  // namespace stackbench
