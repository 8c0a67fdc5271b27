// Per-thread-stripe cells for hot, process-wide statistics.
//
// Every simulated machine's threads record into the same registry metrics,
// so a single atomic word per counter turns each bump into a cache-line
// transfer between cores. Striping gives each thread a home stripe (assigned
// round-robin on the thread's first use) with its own cache line; writers
// touch only their stripe and readers sum every stripe. Threads that share a
// stripe still add atomically, so every sum stays exact.
#ifndef SRC_BASE_STRIPED_H_
#define SRC_BASE_STRIPED_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace frangipani {

inline constexpr size_t kStripes = 16;
inline constexpr size_t kCacheLine = 64;

// The calling thread's stripe, in [0, kStripes).
inline size_t ThisThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

// An exact uint64 sum with one cache line per stripe.
class StripedU64 {
 public:
  void Add(uint64_t n) {
    cells_[ThisThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& c : cells_) {
      c.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLine) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kStripes> cells_{};
};

}  // namespace frangipani

#endif  // SRC_BASE_STRIPED_H_
