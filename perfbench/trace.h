// Span recording for the traced benchmark run, kept entirely outside the
// program: the benchmark times calls it makes into the file system's public
// seams (the FrangipaniFs API, BlockDevice, LockProvider, the clerk's revoke
// callback and the node demons) and attributes them to layers.
//
// Each thread appends to its own log, so recording takes no lock. A span
// carries its kind, start and end, the enclosing span on the same thread
// (its parent) and the client cycle it belongs to. Aggregates (count, total
// and self time, bytes, a latency histogram) are kept per kind; raw spans
// are kept up to a cap and written out as JSON lines when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/fs/device.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/lock_provider.h"
#include "src/lock/clerk.h"
#include "src/petal/petal_client.h"
#include "src/server/node.h"

namespace perfbench {

using namespace frangipani;

enum class Kind : uint8_t {
  // fs: FrangipaniFs API calls made by the clients
  kCreate, kWrite, kRead, kStat, kUnlink, kFsync, kDropCaches,
  // fs: clerk on_revoke -> FrangipaniFs::OnLockRevoked
  kRevoke,
  // lock: LockProvider::Acquire
  kAcquire,
  // BlockDevice calls, split by Geometry region
  kWalRead, kWalWrite, kMetaRead, kMetaWrite, kDataRead, kDataWrite, kDecommit,
  // server: node demons
  kSync, kLogFlush, kRenew, kIdleDrop,
  kNumKinds
};
inline constexpr int kNumKinds = static_cast<int>(Kind::kNumKinds);
const char* KindName(Kind kind);
bool IsFsOp(Kind kind);  // a client-issued FrangipaniFs call

// Lock classes, the tag of kAcquire spans.
enum LockClass : uint8_t { kClassInode, kClassData, kClassSegment, kClassLog, kClassOther };
inline constexpr int kNumLockClasses = 5;
LockClass ClassOf(LockId lock);
const char* LockClassName(int cls);

// Log-linear latency histogram over nanoseconds (32 buckets per octave,
// about 2% resolution).
class LatencyHistogram {
 public:
  void Add(int64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double PercentileUs(double p) const;

 private:
  static constexpr int kSub = 32;
  static constexpr int kOctaves = 44;
  std::array<uint64_t, kSub * kOctaves> buckets_{};
  uint64_t count_ = 0;
};

struct KindStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;      // duration minus the same-thread children it covers
  uint64_t bytes = 0;
  int64_t in_fs_op_ns = 0;  // duration of spans whose parent is a client fs call
  std::array<int64_t, kNumLockClasses> class_ns{};  // kAcquire only
  LatencyHistogram hist;
  void Merge(const KindStats& other);
};

struct TraceTotals {
  std::array<KindStats, kNumKinds> kinds;
  const KindStats& operator[](Kind k) const { return kinds[static_cast<size_t>(k)]; }
};

// Process-wide recorder. Spans are recorded only while active.
class Tracer {
 public:
  static Tracer& Get();

  void SetActive(bool on) { active_.store(on, std::memory_order_release); }
  bool active() const { return active_.load(std::memory_order_acquire); }

  // Read only after every thread that recorded has stopped recording (the
  // traced machines are torn down first).
  TraceTotals Totals() const;
  // Writes the kept raw spans as JSON lines; returns the number written.
  size_t WriteSpans(const std::string& path) const;

  // The client cycle the calling thread is working on (0 = none).
  static void SetCycle(uint64_t cycle);

  struct ThreadLog;
  ThreadLog* Local();

 private:
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// Times one call; records nothing when the tracer was inactive at entry.
class ScopedSpan {
 public:
  explicit ScopedSpan(Kind kind, uint8_t tag = 0, uint64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::ThreadLog* log_ = nullptr;
};

// BlockDevice decorator: each call is a span whose kind names the region
// of its start offset (log -> wal, parameters/bitmaps/inodes/directory
// blocks -> meta, file small and large blocks -> data).
class TracedDevice : public BlockDevice {
 public:
  TracedDevice(BlockDevice* inner, const Geometry& geometry)
      : inner_(inner), geometry_(geometry) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override;
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override;
  Status Decommit(uint64_t offset, uint64_t length) override;

  // Small blocks that hold directory entries count as metadata.
  void SetDirectoryBlocks(std::set<uint64_t> addrs);

 private:
  bool IsDirectoryBlock(uint64_t offset) const;
  Kind KindFor(uint64_t offset, bool write) const;

  BlockDevice* inner_;
  Geometry geometry_;
  mutable std::mutex dir_mu_;
  std::set<uint64_t> dir_blocks_;  // guarded by dir_mu_
};

// LockProvider decorator: times Acquire, tagged with the lock's class.
class TracedLocks : public LockProvider {
 public:
  explicit TracedLocks(LockProvider* inner) : inner_(inner) {}

  Status Acquire(LockId lock, LockMode mode, LockRange range = LockRange{}) override;
  void Release(LockId lock, LockRange range = LockRange{}) override {
    inner_->Release(lock, range);
  }
  bool CachedCovers(LockId lock, uint64_t start, uint64_t end, LockMode mode) const override {
    return inner_->CachedCovers(lock, start, end, mode);
  }
  bool LeaseValidFor(Duration margin) const override { return inner_->LeaseValidFor(margin); }
  int64_t LeaseExpiryUs() const override { return inner_->LeaseExpiryUs(); }
  Duration LeaseDuration() const override { return inner_->LeaseDuration(); }
  uint32_t slot() const override { return inner_->slot(); }
  bool poisoned() const override { return inner_->poisoned(); }

 private:
  LockProvider* inner_;
};

// One Frangipani machine assembled from the same public constructors and
// callbacks as FrangipaniNode (PetalClient, LockClerk with DistLockRouter,
// FrangipaniFs, the four demons with the same periods), with the device and
// lock provider wrapped in the decorators above and the revoke callback and
// demon bodies timed.
class TracedNode {
 public:
  TracedNode(Network* net, NodeId node, std::vector<NodeId> petal_servers,
             std::vector<NodeId> lock_servers, VdiskId vdisk, Clock* clock,
             NodeOptions options, const Geometry& geometry);
  ~TracedNode();
  TracedNode(const TracedNode&) = delete;
  TracedNode& operator=(const TracedNode&) = delete;

  Status Mount(const std::string& lock_table);
  Status Unmount();

  FrangipaniFs* fs() { return fs_.get(); }
  TracedDevice* device() { return traced_device_.get(); }

 private:
  void StartDemons();
  void StopDemons();

  Network* net_;
  NodeId node_;
  Clock* clock_;
  NodeOptions options_;
  Duration lease_duration_{kDefaultLeaseDuration};

  std::unique_ptr<PetalClient> petal_;
  std::unique_ptr<PetalDevice> device_;
  std::unique_ptr<TracedDevice> traced_device_;
  std::unique_ptr<LockClerk> clerk_;
  std::unique_ptr<ClerkLockProvider> provider_;
  std::unique_ptr<TracedLocks> traced_locks_;
  std::unique_ptr<FrangipaniFs> fs_;

  std::unique_ptr<PeriodicTask> renew_task_;
  std::unique_ptr<PeriodicTask> log_flush_task_;
  std::unique_ptr<PeriodicTask> sync_task_;
  std::unique_ptr<PeriodicTask> idle_drop_task_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
