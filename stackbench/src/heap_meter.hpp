// Live-heap accounting for the benchmark process: the global operator
// new/delete are replaced (heap_meter.cpp) by versions that, while the
// meter is on, add and subtract each block's usable size. Every C++
// container in the stack allocates through them, so the peak growth of
// the live bytes is the stack's memory at its fullest. Unlike the
// resident set it does not depend on the allocator's reuse of freed
// pages or on the host's page handling.
#pragma once

#include <cstdint>

namespace stackbench::heap {

/// Turns the meter on, from zero growth.
void start();

/// Turns the meter off and returns the largest growth of the live heap,
/// in bytes, since start().
[[nodiscard]] std::uint64_t stop();

}  // namespace stackbench::heap
