// In-memory span recorder for the traced run.
//
// A span is (name, parent, start, end) on the steady clock. Spans nest
// through a stack of open spans, so a span's parent is whatever span was
// open when it began. The recorder keeps every span in memory and writes
// them out once, when the run ends; nothing touches the disk while the
// timed loop runs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/stopwatch.hpp"

namespace stackbench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    std::uint32_t name = 0;  ///< index into names()
    std::uint32_t parent = kNoParent;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// Per-name aggregate over recorded spans: count, total duration, and
  /// self time (duration minus the time covered by child spans).
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Interned id of a span name (stable for the recorder's lifetime).
  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return i;
      }
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Spans are recorded only while enabled (the timed interval).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint32_t begin(std::uint32_t name) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back({name, parent, pramsim::util::Stopwatch::now_ns(), 0});
    open_.push_back(id);
    return id;
  }

  void end(std::uint32_t id) {
    spans_[id].end_ns = pramsim::util::Stopwatch::now_ns();
    open_.pop_back();
  }

  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != kNoParent) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::uint64_t dur = span.end_ns - span.start_ns;
      Totals& t = out[names_[span.name]];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
    }
    return out;
  }

  /// Write every span as one tab-separated line:
  /// id, parent (-1 for roots), name, start_ns, end_ns.
  [[nodiscard]] bool write_tsv(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return false;
    }
    std::fprintf(file, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const long long parent =
          span.parent == kNoParent ? -1 : static_cast<long long>(span.parent);
      std::fprintf(file, "%zu\t%lld\t%s\t%llu\t%llu\n", i, parent,
                   names_[span.name].c_str(),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
    return std::fclose(file) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; inert when the recorder is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::uint32_t name) {
    if (recorder != nullptr && recorder->enabled()) {
      recorder_ = recorder;
      id_ = recorder->begin(name);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->end(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_ = nullptr;
  std::uint32_t id_ = 0;
};

}  // namespace stackbench
