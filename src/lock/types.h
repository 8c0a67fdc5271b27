// Lock service vocabulary (§6): multiple-reader/single-writer locks organized
// in tables named by ASCII strings; individual locks named by 64-bit
// integers. Clerks obtain a lease on open; the lease identifier doubles as
// the Frangipani server's log slot (§7: "determines which portion of the log
// space to use from the lease identifier").
#ifndef SRC_LOCK_TYPES_H_
#define SRC_LOCK_TYPES_H_

#include <cstdint>

#include "src/base/clock.h"

namespace frangipani {

using LockId = uint64_t;

enum class LockMode : uint8_t {
  kNone = 0,
  kShared = 1,
  kExclusive = 2,
};

// Byte-range extent attached to a lock name (Lustre-style extent locks).
// Metadata locks always use the full range [0, kRangeEnd), which preserves
// the original whole-lock semantics; inode *data* locks carve the file's
// byte space into independently held extents so writers to disjoint ranges
// never conflict.
inline constexpr uint64_t kRangeEnd = ~0ull;

struct LockRange {
  uint64_t start = 0;
  uint64_t end = kRangeEnd;  // exclusive

  bool full() const { return start == 0 && end == kRangeEnd; }
  bool empty() const { return start >= end; }
  bool Overlaps(const LockRange& o) const { return start < o.end && o.start < end; }
  bool Contains(const LockRange& o) const { return start <= o.start && o.end <= end; }
  bool operator==(const LockRange& o) const { return start == o.start && end == o.end; }
};

inline LockRange FullRange() { return LockRange{}; }
inline LockRange MakeRange(uint64_t start, uint64_t end) { return LockRange{start, end}; }

inline const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kNone:
      return "none";
    case LockMode::kShared:
      return "shared";
    case LockMode::kExclusive:
      return "exclusive";
  }
  return "?";
}

// Lease slots: the paper reserves 256 logs, one per active server.
inline constexpr uint32_t kNumLeaseSlots = 256;
inline constexpr uint32_t kInvalidSlot = ~0u;

// The distributed implementation partitions locks into ~100 groups (§6).
inline constexpr uint32_t kNumLockGroups = 100;

inline uint32_t LockGroupOf(LockId lock) {
  uint64_t h = lock * 0x9E3779B97F4A7C15ull;
  return static_cast<uint32_t>((h >> 32) % kNumLockGroups);
}

// Default lease duration (paper: 30 s) and the safety margin a server leaves
// before lease expiry when touching Petal (paper: 15 s). Benchmarks and tests
// scale these down.
inline constexpr Duration kDefaultLeaseDuration{30'000'000};
inline constexpr Duration kDefaultLeaseMargin{15'000'000};

// Wire methods of every lock server flavor (service name "lockd").
// Requests, releases and revokes carry a byte range [start, end); whole-lock
// callers pass [0, kRangeEnd). A request reply returns the granted range,
// which may be larger than the request (grant expansion).
enum LockServerMethod : uint32_t {
  kLockOpen = 1,      // {table}                          -> {slot, lease_us}
  kLockClose = 2,     // {slot}                           -> {}
  kLockRenew = 3,     // {slot}                           -> {ok: bool}
  kLockRequest = 4,   // {slot, lock, mode, start, end}   -> {start, end} granted (blocks)
  kLockRelease = 5,   // {slot, lock, new_mode, start, end} -> {}
  kLockGetAssignment = 6,  // {}                          -> {servers, group map}
  kLockAck = 8,       // {slot, lock}: clerk acknowledges a grant
};

// Methods of the clerk-side callback service (service name "lockclerk").
enum LockClerkMethod : uint32_t {
  kClerkRevoke = 1,         // {lock, new_mode, start, end} -> {} after flush+downgrade
  kClerkRecoverSlot = 2,    // {dead_slot} -> {} after log replay
  kClerkListHeld = 3,       // {} -> [(lock, mode, start, end)] for reconstruction
};

inline bool ModesCompatible(LockMode held, LockMode wanted) {
  return held == LockMode::kShared && wanted == LockMode::kShared;
}

}  // namespace frangipani

#endif  // SRC_LOCK_TYPES_H_
