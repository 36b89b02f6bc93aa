// Counting replacements of the global operator new/delete. Linked into the
// benchmark binary only, so they see every allocation the program makes in
// this process; counting is off until Enable(true) (the traced run turns
// it on for its counted phase only). Counts go to cache-line-padded slots
// picked per thread, so the counter adds no shared-line contention.

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace stepbench {
namespace {

constexpr int kSlots = 64;

struct alignas(64) Slot {
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> bytes{0};
};

Slot g_slots[kSlots];
std::atomic<bool> g_enabled{false};
std::atomic<int> g_next_slot{0};

inline void Count(std::size_t n) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  static thread_local int slot = -1;
  if (slot < 0) {
    slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
  g_slots[slot].bytes.fetch_add(static_cast<int64_t>(n),
                                std::memory_order_relaxed);
}

void* Allocate(std::size_t n) {
  Count(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  Count(n);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n == 0 ? a : (n + a - 1) / a * a);
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void EnableAllocCounting(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

AllocTotals ReadAllocTotals() {
  AllocTotals t;
  for (const Slot& s : g_slots) {
    t.count += s.count.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace stepbench

void* operator new(std::size_t n) { return stepbench::Allocate(n); }
void* operator new[](std::size_t n) { return stepbench::Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return stepbench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return stepbench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return stepbench::AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return stepbench::AllocateAligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
