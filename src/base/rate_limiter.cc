#include "src/base/rate_limiter.h"

#include <algorithm>
#include <thread>

namespace frangipani {

TimePoint RateLimiter::Acquire(uint64_t bytes) {
  total_bytes_.Add(bytes);
  double rate = bytes_per_sec_.load(std::memory_order_relaxed);
  if (rate <= 0) {
    return kNoReservation;
  }
  std::lock_guard<std::mutex> guard(mu_);
  TimePoint start = std::max(std::chrono::steady_clock::now(), next_free_);
  auto busy = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(static_cast<double>(bytes) / rate));
  next_free_ = start + busy;
  return next_free_;
}

void RateLimiter::Transfer(uint64_t bytes) {
  TimePoint deadline = Acquire(bytes);
  if (deadline > std::chrono::steady_clock::now()) {
    std::this_thread::sleep_until(deadline);
  }
}

void RateLimiter::set_rate(double bytes_per_sec) {
  bytes_per_sec_.store(bytes_per_sec, std::memory_order_relaxed);
}

double RateLimiter::rate() const { return bytes_per_sec_.load(std::memory_order_relaxed); }

uint64_t RateLimiter::total_bytes() const { return total_bytes_.Sum(); }

}  // namespace frangipani
