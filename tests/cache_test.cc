// Unit tests for the block cache: coherence hooks, write-behind, WAL
// pinning, eviction, prefetch epochs, prefetch coordination, read-ahead on
// the shared IO pool, and the flush paths' claim order, run shape,
// caller-drained waves and log ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "src/fs/block_cache.h"
#include "src/fs/device.h"
#include "src/fs/wal.h"

namespace frangipani {
namespace {

// Passes calls through to `inner`, records which thread wrote each
// address and which addresses were read, counts writes in flight, can hold
// writes to chosen addresses until the test opens the gate, and can make
// every write take a fixed time.
class GatedDevice : public BlockDevice {
 public:
  struct WriteRecord {
    uint64_t offset;
    size_t size;
    std::thread::id thread;
  };

  explicit GatedDevice(BlockDevice* inner) : inner_(inner) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    {
      std::lock_guard<std::mutex> guard(mu_);
      reads_.push_back(offset);
    }
    return inner_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    std::chrono::milliseconds delay;
    {
      std::unique_lock<std::mutex> lk(mu_);
      writes_.push_back({offset, data.size(), std::this_thread::get_id()});
      max_inflight_ = std::max(max_inflight_, ++inflight_);
      cv_.notify_all();
      if (gated_ && gate_addrs_.count(offset) > 0) {
        held_ = true;
        cv_.wait(lk, [&] { return !gated_; });
      }
      delay = delay_;
    }
    std::this_thread::sleep_for(delay);
    Status st = inner_->Write(offset, data, lease_expiry_us);
    std::lock_guard<std::mutex> guard(mu_);
    --inflight_;
    done_.push_back(offset);
    cv_.notify_all();
    return st;
  }
  Status Decommit(uint64_t offset, uint64_t length) override {
    return inner_->Decommit(offset, length);
  }

  // Holds writes to `addr` (in addition to any gated before) until Open.
  void Gate(uint64_t addr) {
    std::lock_guard<std::mutex> guard(mu_);
    gated_ = true;
    gate_addrs_.insert(addr);
  }
  // Blocks until a write to a gated address is being held.
  void WaitHeld() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return held_; });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mu_);
    gated_ = false;
    gate_addrs_.clear();
    cv_.notify_all();
  }
  void set_delay(std::chrono::milliseconds delay) {
    std::lock_guard<std::mutex> guard(mu_);
    delay_ = delay;
  }
  // Waits up to `timeout` for `pred` (called under the device mutex).
  bool WaitFor(std::chrono::milliseconds timeout, const std::function<bool()>& pred) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, pred);
  }
  // Done, max_inflight and inflight read state under the device mutex:
  // call them only from a WaitFor predicate.
  bool Done(uint64_t offset) const {
    return std::find(done_.begin(), done_.end(), offset) != done_.end();
  }
  int max_inflight() const { return max_inflight_; }
  int inflight() const { return inflight_; }
  bool WasRead(uint64_t offset) {
    std::lock_guard<std::mutex> guard(mu_);
    return std::find(reads_.begin(), reads_.end(), offset) != reads_.end();
  }
  std::vector<std::thread::id> writer_threads() {
    std::lock_guard<std::mutex> guard(mu_);
    std::vector<std::thread::id> out;
    for (const WriteRecord& w : writes_) {
      out.push_back(w.thread);
    }
    return out;
  }
  std::vector<WriteRecord> writes() {
    std::lock_guard<std::mutex> guard(mu_);
    return writes_;
  }

 private:
  BlockDevice* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool held_ = false;
  std::set<uint64_t> gate_addrs_;
  std::chrono::milliseconds delay_{0};
  int inflight_ = 0;
  int max_inflight_ = 0;
  std::vector<WriteRecord> writes_;
  std::vector<uint64_t> done_;
  std::vector<uint64_t> reads_;
};

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : device_(1, PhysDiskParams{.timing_enabled = false}) {
    Geometry g;
    g.log_bytes = 64 * 1024;
    wal_ = std::make_unique<LogWriter>(&device_, g, 0, nullptr, nullptr);
    BlockCacheOptions opts;
    opts.capacity_bytes = 64 * 1024;
    opts.dirty_hiwater_bytes = 32 * 1024;
    opts.io_threads = 2;
    cache_ = std::make_unique<BlockCache>(&device_, wal_.get(), opts, nullptr);
  }

  Bytes Block(uint8_t fill, size_t n = 4096) { return Bytes(n, fill); }

  std::unique_ptr<BlockCache> CacheOn(BlockDevice* device) {
    BlockCacheOptions opts;
    opts.capacity_bytes = 64 * 1024;
    opts.dirty_hiwater_bytes = 32 * 1024;
    opts.io_threads = 2;
    return std::make_unique<BlockCache>(device, wal_.get(), opts, nullptr);
  }

  LocalDevice device_;
  std::unique_ptr<LogWriter> wal_;
  std::unique_ptr<BlockCache> cache_;
};

TEST_F(CacheTest, ReadThroughCachesAndHits) {
  Bytes data = Block(0xAA);
  ASSERT_TRUE(device_.Write(0, data, 0).ok());
  auto r1 = cache_->Read(0, 4096, /*lock=*/7);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, data);
  EXPECT_EQ(cache_->misses(), 1u);
  auto r2 = cache_->Read(0, 4096, 7);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache_->hits(), 1u);
}

TEST_F(CacheTest, PutDirtyThenFlushReachesDevice) {
  ASSERT_TRUE(cache_->PutDirty(4096, Block(0xBB), 7, 0).ok());
  EXPECT_GT(cache_->dirty_bytes(), 0u);
  Bytes before;
  ASSERT_TRUE(device_.Read(4096, 4096, &before).ok());
  EXPECT_EQ(before[0], 0);  // not written yet (write-behind)
  ASSERT_TRUE(cache_->FlushLock(7).ok());
  EXPECT_EQ(cache_->dirty_bytes(), 0u);
  Bytes after;
  ASSERT_TRUE(device_.Read(4096, 4096, &after).ok());
  EXPECT_EQ(after[0], 0xBB);
}

TEST_F(CacheTest, WalFlushedBeforePinnedBlock) {
  LogRecord rec;
  LogBlockUpdate u;
  u.addr = 8192;
  u.kind = BlockKind::kMeta4k;
  u.version = 1;
  u.ranges.push_back({0, Bytes(16, 0xCC)});
  rec.updates.push_back(u);
  uint64_t lsn = wal_->Append(std::move(rec));
  ASSERT_TRUE(cache_->PutDirty(8192, Block(0xCC), 9, lsn).ok());
  EXPECT_EQ(wal_->flushed_lsn(), 0u);
  ASSERT_TRUE(cache_->FlushLock(9).ok());
  // Write-ahead rule: flushing the block forced the log out first.
  EXPECT_GE(wal_->flushed_lsn(), lsn);
}

TEST_F(CacheTest, InvalidateDropsEntriesAndBumpsEpoch) {
  ASSERT_TRUE(cache_->PutDirty(0, Block(1), 7, 0).ok());
  ASSERT_TRUE(cache_->FlushLock(7).ok());
  uint64_t epoch = cache_->LockEpoch(7);
  cache_->InvalidateLock(7);
  EXPECT_FALSE(cache_->Cached(0));
  EXPECT_EQ(cache_->LockEpoch(7), epoch + 1);
}

TEST_F(CacheTest, StalePrefetchRejectedAfterInvalidation) {
  uint64_t epoch = cache_->LockEpoch(7);
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  // Invalidation (a revoke) waits for the in-flight prefetch to finish —
  // the wasted-read-ahead delay of Figure 8 — so it runs on another thread.
  std::atomic<bool> invalidated{false};
  std::thread revoker([&] {
    cache_->InvalidateLock(7);
    invalidated.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(invalidated.load());  // still waiting on the prefetch
  cache_->PutPrefetched(0, Block(0xEE), 7, epoch);
  cache_->EndPrefetch(0, 7);
  revoker.join();
  // Either the insert lost to the epoch bump or the invalidation dropped
  // it; in both interleavings no stale data survives.
  EXPECT_FALSE(cache_->Cached(0));
}

TEST_F(CacheTest, FreshPrefetchAccepted) {
  uint64_t epoch = cache_->LockEpoch(7);
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  cache_->PutPrefetched(0, Block(0xEF), 7, epoch);
  cache_->EndPrefetch(0, 7);
  EXPECT_TRUE(cache_->Cached(0));
}

TEST_F(CacheTest, BeginPrefetchDedups) {
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  EXPECT_FALSE(cache_->BeginPrefetch(0, 7));  // already in flight
  cache_->EndPrefetch(0, 7);
  ASSERT_TRUE(cache_->PutDirty(4096, Block(2), 7, 0).ok());
  EXPECT_FALSE(cache_->BeginPrefetch(4096, 7));  // already cached
}

TEST_F(CacheTest, ReadWaitsForInflightPrefetch) {
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  std::atomic<bool> read_done{false};
  std::thread reader([&] {
    auto r = cache_->Read(0, 4096, 7);
    read_done.store(true);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], 0x77);  // saw the prefetched content, no duplicate IO
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(read_done.load());
  cache_->PutPrefetched(0, Block(0x77), 7, cache_->LockEpoch(7));
  cache_->EndPrefetch(0, 7);
  reader.join();
  EXPECT_TRUE(read_done.load());
}

TEST_F(CacheTest, EvictionKeepsCacheBounded) {
  // Capacity 64 KB; insert 32 clean 4 KB blocks twice over.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(device_.Write(i * 4096, Block(static_cast<uint8_t>(i)), 0).ok());
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(cache_->Read(i * 4096, 4096, 7).ok());
  }
  int cached = 0;
  for (int i = 0; i < 32; ++i) {
    if (cache_->Cached(i * 4096)) {
      ++cached;
    }
  }
  EXPECT_LE(cached, 16);  // 64 KB / 4 KB
  EXPECT_GT(cached, 0);
}

TEST_F(CacheTest, DirtyHiwaterThrottlesViaWriteback) {
  // 32 KB hiwater: writing 64 KB of dirty data forces write-behind.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cache_->PutDirty(i * 4096, Block(static_cast<uint8_t>(i)), 7, 0).ok());
  }
  EXPECT_LE(cache_->dirty_bytes(), 32u * 1024);
  // Every block is durable or still dirty; flush the rest and verify all.
  ASSERT_TRUE(cache_->FlushAll().ok());
  for (int i = 0; i < 16; ++i) {
    Bytes back;
    ASSERT_TRUE(device_.Read(i * 4096, 4096, &back).ok());
    EXPECT_EQ(back[0], i) << i;
  }
}

TEST_F(CacheTest, DiscardAllDropsDirtyData) {
  ASSERT_TRUE(cache_->PutDirty(0, Block(0x55), 7, 0).ok());
  cache_->DiscardAll();
  EXPECT_EQ(cache_->dirty_bytes(), 0u);
  EXPECT_FALSE(cache_->Cached(0));
  Bytes back;
  ASSERT_TRUE(device_.Read(0, 4096, &back).ok());
  EXPECT_EQ(back[0], 0);  // never written (lease-loss semantics)
}

TEST_F(CacheTest, DropCleanKeepsDirty) {
  ASSERT_TRUE(cache_->PutDirty(0, Block(1), 7, 0).ok());
  ASSERT_TRUE(device_.Write(4096, Block(2), 0).ok());
  ASSERT_TRUE(cache_->Read(4096, 4096, 7).ok());
  cache_->DropClean();
  EXPECT_TRUE(cache_->Cached(0));    // dirty survives
  EXPECT_FALSE(cache_->Cached(4096));  // clean dropped
}

TEST_F(CacheTest, ShardedConcurrentMixedTraffic) {
  // Threads work in 256 KB-spaced regions (one cache shard each) under
  // their own locks, mixing dirty writes, hits, flushes, invalidations,
  // and prefetches. The tiny capacity/hiwater force cross-shard eviction
  // and write-throttling while this runs. TSan target.
  constexpr int kThreads = 4;
  constexpr int kBlocks = 8;
  constexpr int kRounds = 3;
  constexpr uint64_t kRegion = 256 * 1024;
  std::vector<std::thread> workers;
  std::vector<Status> results(kThreads, Unavailable("not run"));
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const LockId lock = 100 + t;
      const uint64_t base = static_cast<uint64_t>(t) * kRegion;
      for (int r = 0; r < kRounds; ++r) {
        uint8_t fill = static_cast<uint8_t>(1 + t * kRounds + r);
        for (int i = 0; i < kBlocks; ++i) {
          Status st = cache_->PutDirty(base + i * 4096, Block(fill), lock, 0);
          if (!st.ok()) {
            results[t] = st;
            return;
          }
        }
        auto back = cache_->Read(base, 4096, lock);
        if (!back.ok() || (*back)[0] != fill) {
          results[t] = back.ok() ? Internal("readback mismatch") : back.status();
          return;
        }
        Status st = cache_->FlushLock(lock);
        if (!st.ok()) {
          results[t] = st;
          return;
        }
        cache_->InvalidateLock(lock);
        // Prefetch under the post-invalidation epoch must be accepted.
        uint64_t epoch = cache_->LockEpoch(lock);
        if (cache_->BeginPrefetch(base, lock)) {
          cache_->PutPrefetched(base, Block(fill), lock, epoch);
          cache_->EndPrefetch(base, lock);
        }
      }
      results[t] = OkStatus();
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << "thread " << t << ": " << results[t];
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  EXPECT_EQ(cache_->dirty_bytes(), 0u);
  // Every region's final round reached the device intact.
  for (int t = 0; t < kThreads; ++t) {
    uint8_t fill = static_cast<uint8_t>(1 + t * kRounds + (kRounds - 1));
    for (int i = 0; i < kBlocks; ++i) {
      Bytes back;
      ASSERT_TRUE(device_.Read(t * kRegion + i * 4096, 4096, &back).ok());
      EXPECT_EQ(back[0], fill) << "thread " << t << " block " << i;
    }
  }
}

TEST_F(CacheTest, FlushPinnedUpToSelectsByLsn) {
  LogRecord r1, r2;
  LogBlockUpdate u;
  u.addr = 0;
  u.kind = BlockKind::kMeta4k;
  u.version = 1;
  u.ranges.push_back({0, Bytes(8, 1)});
  r1.updates.push_back(u);
  u.addr = 4096;
  r2.updates.push_back(u);
  uint64_t lsn1 = wal_->Append(std::move(r1));
  uint64_t lsn2 = wal_->Append(std::move(r2));
  ASSERT_TRUE(cache_->PutDirty(0, Block(1), 7, lsn1).ok());
  ASSERT_TRUE(cache_->PutDirty(4096, Block(2), 7, lsn2).ok());
  ASSERT_TRUE(cache_->FlushPinnedUpTo(lsn1).ok());
  Bytes back;
  ASSERT_TRUE(device_.Read(0, 4096, &back).ok());
  EXPECT_EQ(back[0], 1);  // lsn1 block flushed
  ASSERT_TRUE(device_.Read(4096, 4096, &back).ok());
  EXPECT_EQ(back[0], 0);  // lsn2 block still dirty in cache
}

TEST_F(CacheTest, OneRunFlushWritesOnCallersThread) {
  GatedDevice gated(&device_);
  auto cache = CacheOn(&gated);
  // Two adjacent blocks coalesce into one run: no handoff to the IO pool.
  ASSERT_TRUE(cache->PutDirty(0, Block(1), 7, 0).ok());
  ASSERT_TRUE(cache->PutDirty(4096, Block(2), 7, 0).ok());
  ASSERT_TRUE(cache->FlushLock(7).ok());
  std::vector<std::thread::id> writers = gated.writer_threads();
  ASSERT_EQ(writers.size(), 1u);
  EXPECT_EQ(writers[0], std::this_thread::get_id());
  Bytes back;
  ASSERT_TRUE(device_.Read(4096, 4096, &back).ok());
  EXPECT_EQ(back[0], 2);
}

// Makes every write of `gated` take 20 ms, as writes against the modeled
// disks and links take milliseconds, and flushes one block so that `cache`
// has seen a slow run write. The delay also makes the writes of one flush
// overlap in time whenever they are issued concurrently.
void MakeDeviceSlow(BlockCache* cache, GatedDevice* gated) {
  constexpr uint64_t kPrimeAddr = 64 << 20;
  constexpr LockId kPrimeLock = 99;
  gated->set_delay(std::chrono::milliseconds(20));
  ASSERT_TRUE(cache->PutDirty(kPrimeAddr, Bytes(4096, 9), kPrimeLock, 0).ok());
  ASSERT_TRUE(cache->FlushLock(kPrimeLock).ok());
}

TEST_F(CacheTest, FastMultiRunFlushStaysOnCallersThread) {
  GatedDevice gated(&device_);
  auto cache = CacheOn(&gated);
  // Three separated blocks: three runs, all written here (the device is fast).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache->PutDirty(i * 3 * 4096, Block(static_cast<uint8_t>(i + 1)), 7, 0).ok());
  }
  ASSERT_TRUE(cache->FlushLock(7).ok());
  std::vector<std::thread::id> writers = gated.writer_threads();
  ASSERT_EQ(writers.size(), 3u);
  EXPECT_EQ(std::count(writers.begin(), writers.end(), std::this_thread::get_id()), 3);
  for (int i = 0; i < 3; ++i) {
    Bytes back;
    ASSERT_TRUE(device_.Read(i * 3 * 4096, 4096, &back).ok());
    EXPECT_EQ(back[0], i + 1);
  }
}

TEST_F(CacheTest, SlowMultiRunFlushCallerWritesLowestRunPoolWritesRest) {
  GatedDevice gated(&device_);
  auto cache = CacheOn(&gated);
  MakeDeviceSlow(cache.get(), &gated);
  const std::vector<uint64_t> addrs = {0, 3 * 4096, 6 * 4096};  // three runs
  for (size_t i = 0; i < addrs.size(); ++i) {
    ASSERT_TRUE(cache->PutDirty(addrs[i], Block(static_cast<uint8_t>(i + 1)), 7, 0).ok());
  }
  gated.Gate(addrs[0]);
  Status st = OkStatus();
  std::thread::id caller;
  std::thread flusher([&] {
    caller = std::this_thread::get_id();
    st = cache->FlushLock(7);
  });
  gated.WaitHeld();
  // While the caller's write of the lowest run is held, the pool writes the
  // other two.
  bool rest_done = gated.WaitFor(std::chrono::seconds(10),
                                 [&] { return gated.Done(addrs[1]) && gated.Done(addrs[2]); });
  EXPECT_TRUE(rest_done) << "the other runs waited for the caller's write";
  gated.Open();
  flusher.join();
  ASSERT_TRUE(st.ok()) << st;
  for (const GatedDevice::WriteRecord& w : gated.writes()) {
    if (w.offset == addrs[0]) {
      EXPECT_EQ(w.thread, caller);
    } else if (w.offset == addrs[1] || w.offset == addrs[2]) {
      EXPECT_NE(w.thread, caller) << w.offset;
    }
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    Bytes back;
    ASSERT_TRUE(device_.Read(addrs[i], 4096, &back).ok());
    EXPECT_EQ(back[0], i + 1);
  }
}

// Read-ahead shares the IO pool with flush helpers. With every pool worker
// a helper held at a gated write, a prefetch waits in the queue; a revoke
// of its lock (FlushLock, then InvalidateLock, which waits for the lock's
// prefetches) must still finish once the writes go through: no pool task
// waits for another task queued behind it.
TEST_F(CacheTest, RevokeFinishesWhileReadaheadIsQueuedBehindFlushHelpers) {
  GatedDevice gated(&device_);
  auto cache = CacheOn(&gated);  // io_threads 2: a pool of 4, 2 helpers per flush
  MakeDeviceSlow(cache.get(), &gated);
  constexpr LockId kFlushA = 7, kFlushC = 8, kRevoked = 9;
  // Two flushes of three runs each: each caller holds its lowest run at
  // the gate and recruits two helpers, which hold the other two.
  for (int i = 0; i < 6; ++i) {
    uint64_t addr = static_cast<uint64_t>(i) * 3 * 4096;
    ASSERT_TRUE(cache->PutDirty(addr, Block(static_cast<uint8_t>(i + 1)), i < 3 ? kFlushA : kFlushC,
                                0).ok());
    gated.Gate(addr);
  }
  constexpr uint64_t kRevokedDirty = 18 * 4096, kPrefetched = 21 * 4096;
  ASSERT_TRUE(cache->PutDirty(kRevokedDirty, Block(0xDD), kRevoked, 0).ok());

  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  std::vector<Status> results(3, OkStatus());
  auto run = [&](int i, std::function<Status()> fn) {
    return std::thread([&, i, fn] {
      Status st = fn();
      std::lock_guard<std::mutex> guard(mu);
      results[i] = st;
      ++finished;
      cv.notify_all();
    });
  };
  std::vector<std::thread> threads;
  threads.push_back(run(0, [&] { return cache->FlushLock(kFlushA); }));
  threads.push_back(run(1, [&] { return cache->FlushLock(kFlushC); }));
  ASSERT_TRUE(gated.WaitFor(std::chrono::seconds(10), [&] { return gated.inflight() == 6; }))
      << "two callers and four pool helpers should hold gated writes";

  ASSERT_TRUE(cache->Prefetch(kPrefetched, 4096, kRevoked, 0));
  threads.push_back(run(2, [&] {
    RETURN_IF_ERROR(cache->FlushLock(kRevoked));
    cache->InvalidateLock(kRevoked);
    return OkStatus();
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(gated.WasRead(kPrefetched));  // queued behind the helpers
  {
    std::lock_guard<std::mutex> guard(mu);
    EXPECT_EQ(finished, 0);  // the revoke waits for the queued prefetch
  }
  gated.Open();
  {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(10), [&] { return finished == 3; })) {
      // Watchdog: a pool task waiting on the queued prefetch would hang the
      // revoke for good, so the process cannot unwind; report and exit.
      std::fprintf(stderr, "revoke hung behind read-ahead queued on the IO pool\n");
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const Status& st : results) {
    EXPECT_TRUE(st.ok()) << st;
  }
  EXPECT_TRUE(gated.WasRead(kPrefetched));
  // Read after the revoke bumped the lock's epoch: dropped as wasted.
  EXPECT_FALSE(cache->Cached(kPrefetched));
  EXPECT_EQ(cache->prefetch_wasted(), 1u);
  EXPECT_EQ(cache->dirty_bytes(), 0u);
}

TEST_F(CacheTest, FlushAllWritesEveryShardInOneWave) {
  GatedDevice gated(&device_);
  auto cache = CacheOn(&gated);
  MakeDeviceSlow(cache.get(), &gated);
  // One block in each of four shards (shards are 256 KB address regions).
  constexpr uint64_t kBase = 16 << 20;
  constexpr uint64_t kRegion = 256 * 1024;
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(cache->PutDirty(kBase + s * kRegion, Block(static_cast<uint8_t>(s + 1)), 7, 0).ok());
  }
  gated.Gate(kBase);
  Status st = OkStatus();
  std::thread flusher([&] { st = cache->FlushAll(); });
  gated.WaitHeld();
  // Shard by shard, the first shard's held write would keep the others from
  // starting.
  bool overlapped =
      gated.WaitFor(std::chrono::seconds(5), [&] { return gated.max_inflight() >= 2; });
  EXPECT_TRUE(overlapped) << "FlushAll wrote one shard at a time";
  gated.Open();
  flusher.join();
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(cache->dirty_bytes(), 0u);
  for (uint64_t s = 0; s < 4; ++s) {
    Bytes back;
    ASSERT_TRUE(device_.Read(kBase + s * kRegion, 4096, &back).ok());
    EXPECT_EQ(back[0], s + 1);
  }
}

TEST_F(CacheTest, FlushRunsStopAtPetalChunkBoundary) {
  GatedDevice gated(&device_);
  auto cache = CacheOn(&gated);
  // Two adjacent 4 KB blocks on either side of a chunk boundary inside one
  // shard region, and one whole-chunk block right after them.
  constexpr uint64_t kBoundary = (16 << 20) + kChunkSize;
  ASSERT_TRUE(cache->PutDirty(kBoundary - 4096, Block(1), 7, 0).ok());
  ASSERT_TRUE(cache->PutDirty(kBoundary, Block(2), 7, 0).ok());
  ASSERT_TRUE(cache->PutDirty(kBoundary + kChunkSize, Block(3, kChunkSize), 7, 0).ok());
  ASSERT_TRUE(cache->FlushLock(7).ok());
  std::vector<GatedDevice::WriteRecord> writes = gated.writes();
  std::sort(writes.begin(), writes.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(writes[0].offset, kBoundary - 4096);
  EXPECT_EQ(writes[0].size, 4096u);
  EXPECT_EQ(writes[1].offset, kBoundary);
  EXPECT_EQ(writes[1].size, 4096u);
  EXPECT_EQ(writes[2].offset, kBoundary + kChunkSize);
  EXPECT_EQ(writes[2].size, kChunkSize);
}

// Three flushers that claim dirty entries in different orders can
// deadlock: FlushPinnedUpTo holds c on the device; FlushLock claims b and
// waits for c; FlushAll claims a and waits for b; once c lands, FlushLock
// waits for a. Addresses are b < c < a, all under one lock in one shard.
// A hash-map claim order puts a before b for one of the two insertion
// orders, so both run. With every path claiming in ascending address
// order, all three must finish.
void RunThreeFlusherInterleaving(BlockDevice* base, LogWriter* wal, bool insert_a_first) {
  constexpr uint64_t kBase = 16 << 20;  // clear of the log area
  constexpr uint64_t b = kBase, c = kBase + 2 * 4096, a = kBase + 4 * 4096;
  constexpr LockId kLock = 7;
  GatedDevice gated(base);
  BlockCacheOptions opts;
  opts.io_threads = 2;
  BlockCache cache(&gated, wal, opts, nullptr);

  LogRecord rec;
  LogBlockUpdate u;
  u.addr = c;
  u.kind = BlockKind::kMeta4k;
  u.version = 1;
  u.ranges.push_back({0, Bytes(8, 3)});
  rec.updates.push_back(u);
  uint64_t lsn = wal->Append(std::move(rec));
  for (uint64_t addr : insert_a_first ? std::vector<uint64_t>{a, b} : std::vector<uint64_t>{b, a}) {
    ASSERT_TRUE(cache.PutDirty(addr, Bytes(4096, addr == a ? 1 : 2), kLock, 0).ok());
  }
  ASSERT_TRUE(cache.PutDirty(c, Bytes(4096, 3), kLock, lsn).ok());

  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  std::vector<Status> results(3, OkStatus());
  auto run = [&](int i, std::function<Status()> fn) {
    return std::thread([&, i, fn] {
      Status st = fn();
      std::lock_guard<std::mutex> guard(mu);
      results[i] = st;
      ++finished;
      cv.notify_all();
    });
  };
  gated.Gate(c);
  std::vector<std::thread> threads;
  threads.push_back(run(0, [&] { return cache.FlushPinnedUpTo(lsn); }));
  gated.WaitHeld();
  threads.push_back(run(1, [&] { return cache.FlushLock(kLock); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  threads.push_back(run(2, [&] { return cache.FlushAll(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated.Open();

  {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(10), [&] { return finished == 3; })) {
      // Watchdog: the flushers are stuck holding the cache, so the process
      // cannot unwind; report and exit.
      std::fprintf(stderr, "flushers deadlocked (insert_a_first=%d)\n", insert_a_first);
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const Status& st : results) {
    EXPECT_TRUE(st.ok()) << st;
  }
  EXPECT_EQ(cache.dirty_bytes(), 0u);
  for (uint64_t addr : {a, b, c}) {
    Bytes back;
    ASSERT_TRUE(base->Read(addr, 4096, &back).ok());
    EXPECT_EQ(back[0], addr == a ? 1 : addr == b ? 2 : 3) << addr;
  }
}

TEST_F(CacheTest, ThreeFlushersDoNotDeadlockInsertingAFirst) {
  RunThreeFlusherInterleaving(&device_, wal_.get(), /*insert_a_first=*/true);
}

TEST_F(CacheTest, ThreeFlushersDoNotDeadlockInsertingBFirst) {
  RunThreeFlusherInterleaving(&device_, wal_.get(), /*insert_a_first=*/false);
}

// The log's reclaim callback (FlushPinnedUpTo) runs while the log flush
// it serves is still open, so it must flush only blocks whose records are
// already on disk. Here it picks blocks a and b (both pinned by a flushed
// record), then waits for a, which another flusher holds on the device.
// Meanwhile b is re-dirtied by a newer record that is not yet flushed. b
// must be skipped: claiming it would flush the log past the reclaim bound
// from inside the log's own flush.
TEST_F(CacheTest, ReclaimSkipsBlockRedirtiedPastTheBoundWhileWaiting) {
  constexpr uint64_t kBase = 16 << 20;  // clear of the log area
  constexpr uint64_t a = kBase, b = kBase + 2 * 4096;
  auto record = [](uint64_t addr) {
    LogRecord rec;
    LogBlockUpdate u;
    u.addr = addr;
    u.kind = BlockKind::kMeta4k;
    u.version = 1;
    u.ranges.push_back({0, Bytes(8, 1)});
    rec.updates.push_back(u);
    return rec;
  };
  GatedDevice gated(&device_);
  auto cache = CacheOn(&gated);
  uint64_t bound = wal_->Append(record(a));
  ASSERT_TRUE(wal_->FlushTo(bound).ok());
  ASSERT_TRUE(cache->PutDirty(a, Block(1), 7, bound).ok());
  ASSERT_TRUE(cache->PutDirty(b, Block(2), 8, bound).ok());

  gated.Gate(a);
  Status holder_st = OkStatus(), reclaim_st = OkStatus();
  std::thread holder([&] { holder_st = cache->FlushLock(7); });
  gated.WaitHeld();
  std::thread reclaim([&] { reclaim_st = cache->FlushPinnedUpTo(bound); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // reclaim waits on a
  uint64_t newer = wal_->Append(record(b));
  ASSERT_TRUE(cache->PutDirty(b, Block(3), 8, newer).ok());
  gated.Open();
  holder.join();
  reclaim.join();

  EXPECT_TRUE(holder_st.ok()) << holder_st;
  EXPECT_TRUE(reclaim_st.ok()) << reclaim_st;
  EXPECT_LT(wal_->flushed_lsn(), newer);
  EXPECT_EQ(cache->dirty_bytes(), 4096u);  // b, still dirty
  Bytes back;
  ASSERT_TRUE(device_.Read(b, 4096, &back).ok());
  EXPECT_EQ(back[0], 0);  // b never written
  ASSERT_TRUE(device_.Read(a, 4096, &back).ok());
  EXPECT_EQ(back[0], 1);
}

// The log's reclaim callback runs while its thread owns the log flush. A
// flusher that claimed a block the reclaim needs and then waited for the log
// would hang both: reclaim waits for the claimed block, the flusher for the
// log. Here the log leader L reclaims blocks c and a (pinned by the oldest
// record) and first waits for c, which G holds on the device. Then F
// flushes lock 8, whose blocks are a and b, b pinned by the record L is
// writing. F must not claim a before the log is flushed: once c lands, L
// claims a, finishes the log write, and F writes b.
TEST_F(CacheTest, LogReclaimDoesNotWaitOnAFlusherWaitingForTheLog) {
  constexpr uint64_t kBase = 16 << 20;  // clear of the log area
  constexpr uint64_t c = kBase, a = kBase + 2 * 4096, b = kBase + 4 * 4096;
  auto record = [](uint64_t addr) {
    LogRecord rec;
    LogBlockUpdate u;
    u.addr = addr;
    u.kind = BlockKind::kMeta4k;
    u.version = 1;
    u.ranges.push_back({0, Bytes(8, 1)});
    rec.updates.push_back(u);
    return rec;
  };
  GatedDevice gated(&device_);
  Geometry g;
  g.log_bytes = 8 * kLogSectorSize;  // eight one-record sectors
  BlockCache* cache_ptr = nullptr;
  LogWriter wal(&device_, g, 0, [&](uint64_t lsn) { return cache_ptr->FlushPinnedUpTo(lsn); },
                nullptr);
  BlockCacheOptions opts;
  opts.io_threads = 2;
  BlockCache cache(&gated, &wal, opts, nullptr);
  cache_ptr = &cache;

  // Fill the log: the next flush must reclaim the two oldest records.
  uint64_t oldest = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t lsn = wal.Append(record(c));
    ASSERT_TRUE(wal.FlushTo(lsn).ok());
    oldest = oldest == 0 ? lsn : oldest;
  }
  ASSERT_EQ(wal.sectors_written(), 8u);
  ASSERT_TRUE(cache.PutDirty(c, Block(3), 7, oldest).ok());
  ASSERT_TRUE(cache.PutDirty(a, Block(1), 8, oldest).ok());
  uint64_t pending = wal.Append(record(b));
  ASSERT_TRUE(cache.PutDirty(b, Block(2), 8, pending).ok());

  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  std::vector<Status> results(3, OkStatus());
  auto run = [&](int i, std::function<Status()> fn) {
    return std::thread([&, i, fn] {
      Status st = fn();
      std::lock_guard<std::mutex> guard(mu);
      results[i] = st;
      ++finished;
      cv.notify_all();
    });
  };
  gated.Gate(c);
  std::vector<std::thread> threads;
  threads.push_back(run(0, [&] { return cache.FlushLock(7); }));  // G
  gated.WaitHeld();
  threads.push_back(run(1, [&] { return wal.FlushTo(pending); }));  // L: reclaim waits on c
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  threads.push_back(run(2, [&] { return cache.FlushLock(8); }));  // F
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated.Open();

  {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(10), [&] { return finished == 3; })) {
      // Watchdog: the log leader and the flusher wait on each other, so the
      // process cannot unwind; report and exit.
      std::fprintf(stderr, "log reclaim and a flusher waiting for the log hung\n");
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const Status& st : results) {
    EXPECT_TRUE(st.ok()) << st;
  }
  EXPECT_GE(wal.flushed_lsn(), pending);
  EXPECT_EQ(cache.dirty_bytes(), 0u);
  for (uint64_t addr : {a, b, c}) {
    Bytes back;
    ASSERT_TRUE(device_.Read(addr, 4096, &back).ok());
    EXPECT_EQ(back[0], addr == a ? 1 : addr == b ? 2 : 3) << addr;
  }
}

}  // namespace
}  // namespace frangipani
