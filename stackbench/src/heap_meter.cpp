#include "heap_meter.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_on{false};
/// Growth since start(): blocks allocated before it may be freed while
/// the meter is on, so it can go below zero.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted(void* p) {
  if (p != nullptr && g_on.load(std::memory_order_relaxed)) {
    const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    std::int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak && !g_peak.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

void* allocate(std::size_t size) {
  void* p = counted(std::malloc(size == 0 ? 1 : size));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return counted(p);
}

void release(void* p) noexcept {
  if (p != nullptr && g_on.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

namespace stackbench::heap {

void start() {
  g_live.store(0, std::memory_order_relaxed);
  g_peak.store(0, std::memory_order_relaxed);
  g_on.store(true, std::memory_order_relaxed);
}

std::uint64_t stop() {
  g_on.store(false, std::memory_order_relaxed);
  return static_cast<std::uint64_t>(
      std::max<std::int64_t>(g_peak.load(std::memory_order_relaxed), 0));
}

}  // namespace stackbench::heap

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
