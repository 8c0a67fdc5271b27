// Latency/throughput statistics accumulator shared by the bench harnesses
// and the metrics registry (src/obs/).
//
// Fixed log-bucket layout: each power-of-two octave is split into 32 linear
// sub-buckets (~3% relative resolution). Record is wait-free (one relaxed
// fetch_add per bucket plus CAS loops for the exact sum/max), so the class
// is safe to hammer from every IO thread. The header fields (count,
// nonpositive, sum, max) live in per-thread-stripe cells (src/base/striped.h)
// that readers fold together, so recording threads do not contend on one
// cache line; the 16 KB bucket array stays shared, since striping it would
// cost kStripes times the memory per histogram. Mean and Max are exact;
// Percentile scans the bucket array once and interpolates inside the winning
// bucket.
#ifndef SRC_BASE_HISTOGRAM_H_
#define SRC_BASE_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/base/striped.h"

namespace frangipani {

class Histogram {
 public:
  static constexpr int kSubBuckets = 32;   // linear sub-buckets per octave
  static constexpr int kMinOctave = -16;   // smaller positive values clamp here
  static constexpr int kMaxOctave = 47;    // larger values clamp here
  static constexpr int kNumBuckets = (kMaxOctave - kMinOctave + 1) * kSubBuckets;

  void Record(double v) {
    Cell& c = cells_[ThisThreadStripe()];
    c.count.fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(c.sum, v);
    AtomicMax(c.max, v);
    if (v > 0 && std::isfinite(v)) {
      buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    } else {
      c.nonpositive.fetch_add(1, std::memory_order_relaxed);
    }
  }

  size_t count() const { return Fold(&Cell::count); }

  double Sum() const {
    double sum = 0;
    for (const Cell& c : cells_) {
      sum += c.sum.load(std::memory_order_relaxed);
    }
    return sum;
  }

  double Mean() const {
    uint64_t n = count();
    if (n == 0) {
      return 0;
    }
    return Sum() / static_cast<double>(n);
  }

  // Same index convention as a sorted-sample lookup: the value of the
  // floor(p * (count - 1))-th sample, interpolated within its bucket.
  double Percentile(double p) const {
    uint64_t n = count();
    if (n == 0) {
      return 0;
    }
    p = std::clamp(p, 0.0, 1.0);
    uint64_t idx = static_cast<uint64_t>(p * static_cast<double>(n - 1));
    uint64_t before = Fold(&Cell::nonpositive);
    if (idx < before) {
      return 0;
    }
    for (int i = 0; i < kNumBuckets; ++i) {
      uint64_t c = buckets_[i].load(std::memory_order_relaxed);
      if (c == 0) {
        continue;
      }
      if (idx < before + c) {
        double lo = BucketLower(i);
        double hi = BucketLower(i + 1);
        double frac = (static_cast<double>(idx - before) + 0.5) / static_cast<double>(c);
        return std::min(lo + frac * (hi - lo), Max());
      }
      before += c;
    }
    return Max();
  }

  double Max() const {
    if (count() == 0) {
      return 0;
    }
    double max = std::numeric_limits<double>::lowest();
    for (const Cell& c : cells_) {
      max = std::max(max, c.max.load(std::memory_order_relaxed));
    }
    return max;
  }

  void Reset() {
    for (Cell& c : cells_) {
      c.count.store(0, std::memory_order_relaxed);
      c.nonpositive.store(0, std::memory_order_relaxed);
      c.sum.store(0, std::memory_order_relaxed);
      c.max.store(std::numeric_limits<double>::lowest(), std::memory_order_relaxed);
    }
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
  }

  // Lower bound of bucket `index`; BucketLower(kNumBuckets) is the overall
  // upper edge. Exposed for exporters that want the raw distribution.
  static double BucketLower(int index) {
    int octave = index / kSubBuckets + kMinOctave;
    int sub = index % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
  }

  uint64_t BucketCount(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  static int BucketIndex(double v) {
    int exp = 0;
    double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5, 1)
    int octave = exp - 1;               // v / 2^octave in [1, 2)
    if (octave < kMinOctave) {
      return 0;
    }
    if (octave > kMaxOctave) {
      return kNumBuckets - 1;
    }
    int sub = static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets);
    sub = std::min(sub, kSubBuckets - 1);
    return (octave - kMinOctave) * kSubBuckets + sub;
  }

  static void AtomicAdd(std::atomic<double>& a, double v) {
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }

  static void AtomicMax(std::atomic<double>& a, double v) {
    double cur = a.load(std::memory_order_relaxed);
    while (cur < v && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  // One stripe's share of the header, alone on its cache line.
  struct alignas(kCacheLine) Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> nonpositive{0};  // v <= 0: sorts before bucket 0
    std::atomic<double> sum{0};
    std::atomic<double> max{std::numeric_limits<double>::lowest()};
  };

  uint64_t Fold(std::atomic<uint64_t> Cell::*field) const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += (c.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::array<Cell, kStripes> cells_{};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

}  // namespace frangipani

#endif  // SRC_BASE_HISTOGRAM_H_
