// FIFO link/disk bandwidth model. A transfer of S bytes over a resource with
// bandwidth B occupies the resource for S/B seconds; concurrent transfers
// queue. Acquire() reserves a slot and returns the completion deadline; the
// caller sleeps until it (real-time dilation: modeled delays are real sleeps,
// which is what makes scaling experiments faithful on a single host).
#ifndef SRC_BASE_RATE_LIMITER_H_
#define SRC_BASE_RATE_LIMITER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "src/base/clock.h"
#include "src/base/striped.h"

namespace frangipani {

class RateLimiter {
 public:
  // bytes_per_sec == 0 means unlimited.
  explicit RateLimiter(double bytes_per_sec = 0) : bytes_per_sec_(bytes_per_sec) {}

  // What Acquire returns on an unlimited resource: no reservation was made
  // and the transfer takes no time. It is earlier than any clock reading,
  // so a caller that computes max(Acquire(n), now) needs no special case;
  // one that can skip its own clock read tests for it.
  static constexpr TimePoint kNoReservation{};

  // Reserves capacity for `bytes` and returns the time at which the transfer
  // completes, or kNoReservation (without taking the mutex or reading the
  // clock) when the resource is unlimited. Does not sleep; callers
  // sleep_until the returned deadline.
  TimePoint Acquire(uint64_t bytes);

  // Blocks the calling thread until the reserved transfer completes.
  void Transfer(uint64_t bytes);

  void set_rate(double bytes_per_sec);
  double rate() const;

  // Total bytes ever pushed through (for utilization accounting in benches).
  uint64_t total_bytes() const;

 private:
  std::atomic<double> bytes_per_sec_;
  std::mutex mu_;  // guards next_free_
  TimePoint next_free_{};
  StripedU64 total_bytes_;
};

}  // namespace frangipani

#endif  // SRC_BASE_RATE_LIMITER_H_
