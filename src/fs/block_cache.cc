#include "src/fs/block_cache.h"

#include <algorithm>
#include <chrono>

#include "src/base/logging.h"
#include "src/obs/trace.h"

namespace frangipani {

BlockCache::BlockCache(BlockDevice* device, LogWriter* wal, BlockCacheOptions options,
                       std::function<int64_t()> lease_expiry_us)
    : device_(device),
      wal_(wal),
      options_(options),
      lease_expiry_us_(std::move(lease_expiry_us)),
      shards_(kShards) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  m_hits_ = reg->GetCounter("fs.cache.hits");
  m_misses_ = reg->GetCounter("fs.cache.misses");
  m_cross_shard_evictions_ = reg->GetCounter("fs.cache.cross_shard_evictions");
  m_shard_wait_us_ = reg->GetHistogram("fs.cache.shard_wait_us");
  reg->GetGauge("fs.cache.shards")->Set(static_cast<int64_t>(shards_.size()));
  // io_threads for flush helpers plus as many again for read-ahead.
  io_pool_ = std::make_unique<ThreadPool>(2 * options_.io_threads);
}

BlockCache::~BlockCache() = default;

std::unique_lock<std::mutex> BlockCache::LockShard(const Shard& shard) const {
  std::unique_lock<std::mutex> lk(shard.mu, std::defer_lock);
  obs::LockTimed(lk, m_shard_wait_us_);
  return lk;
}

StatusOr<Bytes> BlockCache::Read(uint64_t addr, uint32_t size, LockId lock,
                                 uint64_t range_off) {
  Shard& shard = ShardFor(addr);
  std::shared_ptr<const Bytes> blob;
  {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    // Ride an in-flight prefetch rather than duplicating its device read.
    shard.cv.wait(lk, [&] { return shard.prefetch_inflight.count(addr) == 0; });
    auto it = shard.entries.find(addr);
    if (it != shard.entries.end()) {
      ++hits_;
      m_hits_->Increment();
      it->second.lru_seq = ++lru_counter_;
      blob = it->second.data;
    } else {
      ++misses_;
      m_misses_->Increment();
    }
  }
  if (blob != nullptr) {
    return *blob;  // copied outside the shard lock
  }
  Bytes data;
  RETURN_IF_ERROR(device_->Read(addr, size, &data));
  blob = std::make_shared<const Bytes>(std::move(data));
  {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    auto it = shard.entries.find(addr);
    if (it != shard.entries.end()) {
      blob = it->second.data;  // someone raced us in; theirs may be dirtier
    } else {
      Entry e;
      e.data = blob;
      e.lock = lock;
      e.range_off = range_off;
      e.lru_seq = ++lru_counter_;
      bytes_ += blob->size();
      shard.entries.emplace(addr, std::move(e));
      shard.by_lock[lock].insert(addr);
      EvictShardLocked(shard, ShardIndex(addr));
    }
  }
  return *blob;
}

Status BlockCache::PutDirty(uint64_t addr, Bytes data, LockId lock, uint64_t pin_lsn,
                            uint64_t range_off) {
  Shard& home = ShardFor(addr);
  {
    std::unique_lock<std::mutex> lk = LockShard(home);
    Entry& e = home.entries[addr];
    if (e.data == nullptr) {
      home.by_lock[lock].insert(addr);
    } else {
      bytes_ -= e.data->size();
      if (e.dirty) {
        dirty_bytes_ -= e.data->size();
      }
    }
    e.lock = lock;
    e.range_off = range_off;
    e.data = std::make_shared<const Bytes>(std::move(data));
    e.dirty = true;
    e.dirty_gen++;
    e.pin_lsn = std::max(e.pin_lsn, pin_lsn);
    e.lru_seq = ++lru_counter_;
    bytes_ += e.data->size();
    dirty_bytes_ += e.data->size();
    EvictShardLocked(home, ShardIndex(addr));
  }

  // Write throttling / write-behind: bring dirty data back under control.
  // Candidates are gathered across all shards (oldest first, globally) and
  // flushed as one wave.
  while (dirty_bytes_.load() > options_.dirty_hiwater_bytes) {
    struct Cand {
      uint64_t lru;
      uint64_t addr;
      size_t size;
    };
    std::vector<Cand> dirty;
    for (Shard& shard : shards_) {
      std::unique_lock<std::mutex> lk = LockShard(shard);
      for (const auto& [a, entry] : shard.entries) {
        if (entry.dirty && !entry.flushing) {
          dirty.push_back({entry.lru_seq, a, entry.data->size()});
        }
      }
    }
    if (dirty.empty()) {
      // Everything dirty is already being flushed; wait for progress. The
      // timeout covers a flush that completed between our scan and the wait.
      std::unique_lock<std::mutex> tlk(throttle_mu_);
      throttle_cv_.wait_for(tlk, std::chrono::milliseconds(1));
      continue;
    }
    std::sort(dirty.begin(), dirty.end(),
              [](const Cand& a, const Cand& b) { return a.lru < b.lru; });
    size_t target = options_.dirty_hiwater_bytes / 2;
    size_t start_dirty = dirty_bytes_.load();
    std::vector<uint64_t> addrs;
    size_t would_free = 0;
    for (const Cand& c : dirty) {
      addrs.push_back(c.addr);
      would_free += c.size;
      if (start_dirty - would_free <= target) {
        break;
      }
    }
    RETURN_IF_ERROR(FlushSet(std::move(addrs)));
  }
  return OkStatus();
}

void BlockCache::PutPrefetched(uint64_t addr, Bytes data, LockId lock, uint64_t epoch,
                               uint64_t range_off) {
  Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lk = LockShard(shard);
  {
    // Epoch check while holding the shard lock: an invalidation bumps the
    // epoch before it sweeps the shards, so either we see the bump here or
    // the sweep (which follows the same shard lock) sees our entry.
    std::lock_guard<std::mutex> eguard(epoch_mu_);
    auto eit = epochs_.find(lock);
    uint64_t current = eit == epochs_.end() ? 0 : eit->second;
    if (current != epoch) {
      return;  // lock was invalidated since the prefetch was issued
    }
  }
  if (shard.entries.count(addr) > 0) {
    return;  // raced with a demand read
  }
  Entry e;
  e.lock = lock;
  e.range_off = range_off;
  e.lru_seq = ++lru_counter_;
  e.data = std::make_shared<const Bytes>(std::move(data));
  bytes_ += e.data->size();
  shard.entries.emplace(addr, std::move(e));
  shard.by_lock[lock].insert(addr);
  EvictShardLocked(shard, ShardIndex(addr));
}

bool BlockCache::Prefetch(uint64_t addr, uint32_t size, LockId lock, uint64_t range_off) {
  if (!BeginPrefetch(addr, lock)) {
    return false;
  }
  uint64_t epoch = LockEpoch(lock);
  io_pool_->Submit([this, addr, size, lock, range_off, epoch,
                    trace_id = obs::CurrentTraceId()] {
    obs::InheritedTraceScope inherit(trace_id);
    Bytes data;
    if (device_->Read(addr, size, &data).ok()) {
      if (LockEpoch(lock) != epoch) {
        // The lock was revoked while we read: wasted work (Figure 8).
        prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
      } else {
        PutPrefetched(addr, std::move(data), lock, epoch, range_off);
      }
    }
    EndPrefetch(addr, lock);
  });
  return true;
}

void BlockCache::DrainIo() { io_pool_->Drain(); }

bool BlockCache::BeginPrefetch(uint64_t addr, LockId lock) {
  Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lk = LockShard(shard);
  if (shard.entries.count(addr) > 0 || shard.prefetch_inflight.count(addr) > 0) {
    return false;
  }
  shard.prefetch_inflight.insert(addr);
  shard.prefetch_by_lock[lock]++;
  return true;
}

void BlockCache::EndPrefetch(uint64_t addr, LockId lock) {
  Shard& shard = ShardFor(addr);
  {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    shard.prefetch_inflight.erase(addr);
    if (--shard.prefetch_by_lock[lock] <= 0) {
      shard.prefetch_by_lock.erase(lock);
    }
  }
  shard.cv.notify_all();
}

uint64_t BlockCache::LockEpoch(LockId lock) const {
  std::lock_guard<std::mutex> guard(epoch_mu_);
  auto it = epochs_.find(lock);
  return it == epochs_.end() ? 0 : it->second;
}

bool BlockCache::Cached(uint64_t addr) const {
  const Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lk = LockShard(shard);
  return shard.entries.count(addr) > 0;
}

Status BlockCache::WriteRuns(const std::vector<Job>& jobs, int64_t fence) {
  // Coalesce address-adjacent dirty blocks into contiguous device writes
  // that never cross a Petal chunk, so each run is one chunk RPC issued on
  // the thread that writes it. A block that fills a chunk (a 64 KB file
  // unit) is written from its cached payload with no merge copy. `jobs` is
  // in address order.
  struct Run {
    size_t first_job;
    size_t num_jobs;
  };
  std::vector<Run> runs;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!runs.empty()) {
      Run& r = runs.back();
      const Job& prev = jobs[i - 1];
      uint64_t last_byte = jobs[i].addr + jobs[i].data->size() - 1;
      if (prev.addr + prev.data->size() == jobs[i].addr &&
          ChunkIndexOf(last_byte) == ChunkIndexOf(jobs[r.first_job].addr)) {
        ++r.num_jobs;
        continue;
      }
    }
    runs.push_back({i, 1});
  }
  auto write = [&](size_t r) -> Status {
    const Run& run = runs[r];
    int64_t t0 = obs::MonotonicNs();
    Status st;
    if (run.num_jobs == 1) {
      const Job& j = jobs[run.first_job];
      st = device_->Write(j.addr, *j.data, fence);
    } else {
      const Job& last = jobs[run.first_job + run.num_jobs - 1];
      Bytes merged;
      merged.reserve(last.addr + last.data->size() - jobs[run.first_job].addr);
      for (size_t k = 0; k < run.num_jobs; ++k) {
        const Bytes& d = *jobs[run.first_job + k].data;
        merged.insert(merged.end(), d.begin(), d.end());
      }
      st = device_->Write(jobs[run.first_job].addr, merged, fence);
    }
    last_run_ns_.store(obs::MonotonicNs() - t0, std::memory_order_relaxed);
    return st;
  };

  if (runs.size() == 1) {
    return write(0);
  }
  // The caller drains the runs in address order. When runs remain and the
  // last run written (by any flush of this cache) took at least kSlowRunNs,
  // up to io_threads pool helpers join it on the same index: against the
  // modeled disks and links that keeps io_threads + 1 chunk writes in
  // flight, while a fast device (timing off) leaves the whole flush on this
  // thread with no handoff.
  struct Drain {
    std::atomic<size_t> next{0};
    size_t count = 0;
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    std::vector<Status> results;

    void Finish(size_t r, Status st) {
      std::lock_guard<std::mutex> guard(mu);
      results[r] = std::move(st);
      if (++done == count) {
        cv.notify_all();
      }
    }
  };
  auto d = std::make_shared<Drain>();
  d->count = runs.size();
  d->results.resize(runs.size());
  bool recruited = false;
  for (size_t r; (r = d->next.fetch_add(1, std::memory_order_relaxed)) < d->count;) {
    if (!recruited && r + 1 < d->count &&
        last_run_ns_.load(std::memory_order_relaxed) >= kSlowRunNs) {
      recruited = true;
      // `write` and the vectors it reads are used only for an index below
      // `count`, and this call returns only once all of those runs are done;
      // a helper that starts later finds the index spent and touches only `d`.
      auto helper = [d, &write, trace_id = obs::CurrentTraceId()] {
        obs::InheritedTraceScope inherit(trace_id);
        for (size_t i; (i = d->next.fetch_add(1, std::memory_order_relaxed)) < d->count;) {
          d->Finish(i, write(i));
        }
      };
      size_t helpers = std::min<size_t>(d->count - r - 1, static_cast<size_t>(options_.io_threads));
      for (size_t h = 0; h < helpers; ++h) {
        io_pool_->Submit(helper);
      }
    }
    d->Finish(r, write(r));
  }
  std::unique_lock<std::mutex> done_lk(d->mu);
  d->cv.wait(done_lk, [&] { return d->done == d->count; });
  for (const Status& st : d->results) {
    RETURN_IF_ERROR(st);
  }
  return OkStatus();
}

Status BlockCache::FlushSet(std::vector<uint64_t> addrs,
                            const std::function<bool(const Entry&)>& want,
                            size_t* flushed_bytes) {
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  size_t bytes_out = 0;
  Status st = OkStatus();
  while (!addrs.empty() && st.ok()) {
    std::vector<uint64_t> deferred;
    st = FlushPass(addrs, want, &deferred, &bytes_out);
    addrs = std::move(deferred);
  }
  if (flushed_bytes != nullptr) {
    *flushed_bytes = st.ok() ? bytes_out : 0;
  }
  return st;
}

Status BlockCache::FlushPass(const std::vector<uint64_t>& addrs,
                             const std::function<bool(const Entry&)>& want,
                             std::vector<uint64_t>* deferred, size_t* bytes_out) {
  // Phase 1: the log first (write-ahead rule), before any claim. The log's
  // reclaim callback runs inside a log flush and claims entries itself, so
  // a flusher that waited for the log while holding claims could hang it.
  // An entry re-dirtied past the flushed bound before it is claimed goes
  // to `deferred` for another pass.
  uint64_t durable = ~0ull;
  if (wal_ != nullptr) {
    uint64_t max_pin = 0;
    Shard* held = nullptr;
    std::unique_lock<std::mutex> lk;
    for (uint64_t addr : addrs) {
      Shard& shard = ShardFor(addr);
      if (&shard != held) {
        if (lk.owns_lock()) {
          lk.unlock();
        }
        lk = LockShard(shard);
        held = &shard;
      }
      auto it = shard.entries.find(addr);
      if (it != shard.entries.end() && it->second.dirty && (!want || want(it->second))) {
        max_pin = std::max(max_pin, it->second.pin_lsn);
      }
    }
    if (lk.owns_lock()) {
      lk.unlock();
    }
    if (max_pin > 0) {
      RETURN_IF_ERROR(wal_->FlushTo(max_pin));
    }
    durable = max_pin;
  }

  // Phase 2: claim every selected dirty entry before writing any, so the
  // whole set turns into one wave of write runs. Claims are taken in
  // ascending address order, and a claim that finds the entry already being
  // flushed waits for that flush while keeping the claims taken so far.
  // Every flush path claims in this one order, so no flusher can wait on an
  // entry whose holder waits on it.
  std::vector<Job> jobs;
  {
    Shard* held = nullptr;
    std::unique_lock<std::mutex> lk;
    for (uint64_t addr : addrs) {
      Shard& shard = ShardFor(addr);
      if (&shard != held) {
        // One shard mutex at a time: address order is not shard order.
        if (lk.owns_lock()) {
          lk.unlock();
        }
        lk = LockShard(shard);
        held = &shard;
      }
      for (;;) {
        auto it = shard.entries.find(addr);
        if (it == shard.entries.end() || !it->second.dirty || (want && !want(it->second))) {
          break;
        }
        if (it->second.flushing) {
          shard.cv.wait(lk);
          continue;  // re-find: the entry may have changed while we waited
        }
        Entry& e = it->second;
        if (e.pin_lsn > durable) {
          deferred->push_back(addr);
          break;
        }
        e.flushing = true;
        jobs.push_back({addr, e.data, e.dirty_gen});
        break;
      }
    }
  }
  if (jobs.empty()) {
    return OkStatus();
  }

  // Phase 3: the runs.
  Status st = WriteRuns(jobs, lease_expiry_us_ ? lease_expiry_us_() : 0);

  // Phase 4: release claims, mark clean.
  Shard* held = nullptr;
  std::unique_lock<std::mutex> lk;
  auto finish_shard = [&] {
    if (held != nullptr) {
      // Dirty data can push the cache past its capacity (dirty entries are
      // not evictable); reclaim now that some entries are clean again.
      EvictShardLocked(*held, static_cast<size_t>(held - shards_.data()));
      held->cv.notify_all();
      lk.unlock();
    }
  };
  for (const Job& j : jobs) {
    *bytes_out += j.data->size();
    Shard& shard = ShardFor(j.addr);
    if (&shard != held) {
      finish_shard();
      lk = LockShard(shard);
      held = &shard;
    }
    auto it = shard.entries.find(j.addr);
    if (it == shard.entries.end()) {
      continue;  // discarded while we wrote (lease loss)
    }
    Entry& e = it->second;
    e.flushing = false;
    if (st.ok() && e.dirty_gen == j.gen) {
      e.dirty = false;
      e.pin_lsn = 0;
      dirty_bytes_ -= e.data->size();
      uint64_t adv = shard.oldest_clean_seq.load(std::memory_order_relaxed);
      if (e.lru_seq < adv) {
        shard.oldest_clean_seq.store(e.lru_seq, std::memory_order_relaxed);
      }
    }
  }
  finish_shard();
  throttle_cv_.notify_all();
  return st;
}

Status BlockCache::FlushLock(LockId lock, uint64_t start, uint64_t end, size_t* flushed_bytes) {
  std::vector<uint64_t> addrs;
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    auto it = shard.by_lock.find(lock);
    if (it != shard.by_lock.end()) {
      addrs.insert(addrs.end(), it->second.begin(), it->second.end());
    }
  }
  // Outside the revoked extent an entry stays dirty and cached.
  return FlushSet(
      std::move(addrs),
      [&](const Entry& e) { return e.range_off < end && e.range_off + e.data->size() > start; },
      flushed_bytes);
}

void BlockCache::InvalidateLock(LockId lock, uint64_t start, uint64_t end) {
  {
    // Bump the epoch before sweeping so a prefetch completing mid-sweep
    // cannot repopulate a shard we already cleaned (PutPrefetched re-checks
    // the epoch under its shard lock).
    std::lock_guard<std::mutex> eguard(epoch_mu_);
    epochs_[lock]++;
  }
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    // Wait out in-flight read-ahead under this lock: the prefetched data
    // will be discarded, and the time to finish reading it delays the
    // handoff.
    shard.cv.wait(lk, [&] { return shard.prefetch_by_lock.count(lock) == 0; });
    auto it = shard.by_lock.find(lock);
    if (it == shard.by_lock.end()) {
      continue;
    }
    for (auto ait = it->second.begin(); ait != it->second.end();) {
      auto eit = shard.entries.find(*ait);
      if (eit == shard.entries.end()) {
        ait = it->second.erase(ait);
        continue;
      }
      if (eit->second.range_off >= end ||
          eit->second.range_off + eit->second.data->size() <= start) {
        ++ait;  // outside the dropped extent: the lock is still held there
        continue;
      }
      // Callers flush before invalidating; anything still dirty here is
      // being dropped deliberately (it must not be written after the lock
      // moves on).
      bytes_ -= eit->second.data->size();
      if (eit->second.dirty) {
        dirty_bytes_ -= eit->second.data->size();
      }
      shard.entries.erase(eit);
      ait = it->second.erase(ait);
    }
    if (it->second.empty()) {
      shard.by_lock.erase(it);
    }
    shard.cv.notify_all();
  }
  throttle_cv_.notify_all();
}

Status BlockCache::FlushAll() { return FlushDirty(nullptr); }

Status BlockCache::FlushPinnedUpTo(uint64_t lsn) {
  return FlushDirty([lsn](const Entry& e) { return e.pin_lsn != 0 && e.pin_lsn <= lsn; });
}

Status BlockCache::FlushDirty(const std::function<bool(const Entry&)>& want) {
  std::vector<uint64_t> addrs;
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (const auto& [addr, e] : shard.entries) {
      if (e.dirty) {
        addrs.push_back(addr);
      }
    }
  }
  // `want` is applied by FlushSet at claim time, under the shard mutex:
  // between this scan and the claim an entry can be re-dirtied with a
  // newer, still unflushed pin (the log's reclaim callback must then
  // skip it, or it would flush the log from inside its own flush).
  return FlushSet(std::move(addrs), want);
}

void BlockCache::DiscardAll() {
  {
    std::lock_guard<std::mutex> eguard(epoch_mu_);
    for (auto& [lock, epoch] : epochs_) {
      ++epoch;
    }
  }
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (const auto& [addr, e] : shard.entries) {
      bytes_ -= e.data->size();
      if (e.dirty) {
        dirty_bytes_ -= e.data->size();
      }
    }
    shard.entries.clear();
    shard.by_lock.clear();
    shard.oldest_clean_seq.store(~0ull, std::memory_order_relaxed);
    shard.cv.notify_all();
  }
  throttle_cv_.notify_all();
}

void BlockCache::DropClean() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (!it->second.dirty && !it->second.flushing) {
        bytes_ -= it->second.data->size();
        shard.by_lock[it->second.lock].erase(it->first);
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
    shard.oldest_clean_seq.store(~0ull, std::memory_order_relaxed);
  }
}

void BlockCache::EvictShardLocked(Shard& shard, size_t self_index) {
  if (bytes_.load() <= options_.capacity_bytes) {
    return;
  }
  std::vector<std::pair<uint64_t, uint64_t>> clean;  // (lru, addr)
  for (const auto& [addr, e] : shard.entries) {
    if (!e.dirty && !e.flushing) {
      clean.emplace_back(e.lru_seq, addr);
    }
  }
  std::sort(clean.begin(), clean.end());
  shard.oldest_clean_seq.store(clean.empty() ? ~0ull : clean.front().first,
                               std::memory_order_relaxed);
  // Global LRU: if another shard advertises a clean entry colder than our
  // oldest victim, evicting here would sacrifice younger data just because
  // it shares a shard with the inserter. Defer to the async sweep instead.
  uint64_t my_oldest = clean.empty() ? ~0ull : clean.front().first;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s != self_index &&
        shards_[s].oldest_clean_seq.load(std::memory_order_relaxed) < my_oldest) {
      ScheduleGlobalSweep();
      return;
    }
  }
  for (const auto& [lru, addr] : clean) {
    if (bytes_.load() <= options_.capacity_bytes) {
      break;
    }
    auto it = shard.entries.find(addr);
    bytes_ -= it->second.data->size();
    shard.by_lock[it->second.lock].erase(addr);
    shard.entries.erase(it);
  }
  // Re-advertise the new local minimum for future global comparisons.
  uint64_t min_seq = ~0ull;
  for (const auto& [addr, e] : shard.entries) {
    if (!e.dirty && !e.flushing) {
      min_seq = std::min(min_seq, e.lru_seq);
    }
  }
  shard.oldest_clean_seq.store(min_seq, std::memory_order_relaxed);
}

void BlockCache::ScheduleGlobalSweep() {
  if (sweep_scheduled_.exchange(true)) {
    return;  // a sweep is already queued or running
  }
  io_pool_->Submit([this] { SweepGlobalLru(); });
}

void BlockCache::SweepGlobalLru() {
  sweep_scheduled_.store(false);
  bool recomputed = false;
  while (bytes_.load() > options_.capacity_bytes) {
    // Pick the shard advertising the globally-coldest clean entry.
    size_t best = shards_.size();
    uint64_t best_seq = ~0ull;
    for (size_t s = 0; s < shards_.size(); ++s) {
      uint64_t seq = shards_[s].oldest_clean_seq.load(std::memory_order_relaxed);
      if (seq < best_seq) {
        best_seq = seq;
        best = s;
      }
    }
    if (best == shards_.size()) {
      // No shard advertises clean entries. Advertisements are approximate,
      // so recompute them once; if there is still nothing, everything is
      // dirty or in flight and the sweep cannot help.
      if (recomputed) {
        return;
      }
      recomputed = true;
      for (Shard& shard : shards_) {
        std::unique_lock<std::mutex> lk = LockShard(shard);
        uint64_t min_seq = ~0ull;
        for (const auto& [addr, e] : shard.entries) {
          if (!e.dirty && !e.flushing) {
            min_seq = std::min(min_seq, e.lru_seq);
          }
        }
        shard.oldest_clean_seq.store(min_seq, std::memory_order_relaxed);
      }
      continue;
    }
    Shard& shard = shards_[best];
    std::unique_lock<std::mutex> lk = LockShard(shard);
    std::vector<std::pair<uint64_t, uint64_t>> clean;
    for (const auto& [addr, e] : shard.entries) {
      if (!e.dirty && !e.flushing) {
        clean.emplace_back(e.lru_seq, addr);
      }
    }
    if (clean.empty()) {
      shard.oldest_clean_seq.store(~0ull, std::memory_order_relaxed);
      continue;
    }
    std::sort(clean.begin(), clean.end());
    uint64_t evicted = 0;
    for (const auto& [lru, addr] : clean) {
      if (bytes_.load() <= options_.capacity_bytes) {
        break;
      }
      auto it = shard.entries.find(addr);
      bytes_ -= it->second.data->size();
      shard.by_lock[it->second.lock].erase(addr);
      shard.entries.erase(it);
      ++evicted;
    }
    uint64_t min_seq = ~0ull;
    for (const auto& [addr, e] : shard.entries) {
      if (!e.dirty && !e.flushing) {
        min_seq = std::min(min_seq, e.lru_seq);
      }
    }
    shard.oldest_clean_seq.store(min_seq, std::memory_order_relaxed);
    if (evicted > 0) {
      m_cross_shard_evictions_->Increment(evicted);
    }
  }
}

}  // namespace frangipani
