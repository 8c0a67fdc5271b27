#include "perfbench/trace.h"

#include <bit>
#include <chrono>
#include <fstream>

#include "src/base/logging.h"
#include "src/fs/layout.h"
#include "src/lock/router.h"

namespace perfbench {

namespace {

constexpr uint32_t kNoSpan = ~0u;
// Raw spans kept for the span file, over all threads. Aggregates cover
// every span regardless.
constexpr size_t kMaxKeptSpans = 50'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local uint64_t tl_cycle = 0;
thread_local Tracer::ThreadLog* tl_log = nullptr;

}  // namespace

const char* KindName(Kind kind) {
  static constexpr const char* kNames[kNumKinds] = {
      "fs.create",   "fs.write",      "fs.read",        "fs.stat",         "fs.unlink",
      "fs.fsync",    "fs.dropcaches", "fs.revoke",      "lock.acquire",    "wal.read",
      "wal.write",   "petal.meta.read", "petal.meta.write", "petal.data.read",
      "petal.data.write", "petal.decommit", "server.sync", "server.logflush",
      "server.renew", "server.idledrop"};
  return kNames[static_cast<int>(kind)];
}

bool IsFsOp(Kind kind) { return kind <= Kind::kDropCaches; }

LockClass ClassOf(LockId lock) {
  if (IsInodeDataLock(lock)) {
    return kClassData;
  }
  if (IsInodeLock(lock)) {
    return kClassInode;
  }
  if (IsSegmentLock(lock)) {
    return kClassSegment;
  }
  if (lock >= kLockBaseLog) {
    return kClassLog;
  }
  return kClassOther;
}

const char* LockClassName(int cls) {
  static constexpr const char* kNames[kNumLockClasses] = {"inode", "data", "segment", "log",
                                                          "other"};
  return kNames[cls];
}

// ---- LatencyHistogram ----

void LatencyHistogram::Add(int64_t ns) {
  uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
  size_t index = v;
  if (v >= kSub) {
    int e = 63 - std::countl_zero(v);  // >= 5
    size_t octave = static_cast<size_t>(e - 4);
    size_t sub = static_cast<size_t>((v >> (e - 5)) - kSub);
    index = octave * kSub + sub;
  }
  if (index >= buckets_.size()) {
    index = buckets_.size() - 1;
  }
  ++buckets_[index];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::PercentileUs(double p) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      if (i < static_cast<size_t>(kSub)) {
        return static_cast<double>(i) / 1e3;
      }
      size_t octave = i / kSub;
      size_t sub = i % kSub;
      int shift = static_cast<int>(octave) - 1;
      double lower = static_cast<double>((kSub + sub) << shift);
      double width = static_cast<double>(uint64_t{1} << shift);
      return (lower + width / 2) / 1e3;
    }
  }
  return 0;
}

void KindStats::Merge(const KindStats& other) {
  count += other.count;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  bytes += other.bytes;
  in_fs_op_ns += other.in_fs_op_ns;
  for (int c = 0; c < kNumLockClasses; ++c) {
    class_ns[c] += other.class_ns[c];
  }
  hist.Merge(other.hist);
}

// ---- Tracer ----

struct Tracer::ThreadLog {
  struct Open {
    int64_t start_ns;
    int64_t child_ns;
    uint32_t stored;  // index into spans, or kNoSpan
    uint32_t parent;  // stored index of the enclosing span, or kNoSpan
    Kind kind;
    uint8_t tag;
    uint64_t bytes;
    uint64_t cycle;
  };
  struct Kept {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t cycle = 0;
    uint64_t bytes = 0;
    uint32_t parent = kNoSpan;
    Kind kind = Kind::kCreate;
    uint8_t tag = 0;
  };

  explicit ThreadLog(uint32_t index) : thread_index(index) {}

  uint32_t thread_index;
  std::vector<Open> stack;
  std::vector<Kept> spans;
  // Per-kind aggregates; histograms are allocated on a kind's first span.
  std::array<KindStats, kNumKinds> stats{};
};

namespace {
std::atomic<size_t> g_kept{0};
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadLog* Tracer::Local() {
  if (tl_log == nullptr) {
    std::lock_guard<std::mutex> guard(mu_);
    logs_.push_back(std::make_unique<ThreadLog>(static_cast<uint32_t>(logs_.size())));
    tl_log = logs_.back().get();
  }
  return tl_log;
}

void Tracer::SetCycle(uint64_t cycle) { tl_cycle = cycle; }

TraceTotals Tracer::Totals() const {
  TraceTotals totals;
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& log : logs_) {
    for (int k = 0; k < kNumKinds; ++k) {
      totals.kinds[k].Merge(log->stats[k]);
    }
  }
  return totals;
}

size_t Tracer::WriteSpans(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return 0;
  }
  int64_t origin = INT64_MAX;
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& log : logs_) {
    for (const auto& s : log->spans) {
      origin = std::min(origin, s.start_ns);
    }
  }
  size_t written = 0;
  char line[256];
  for (const auto& log : logs_) {
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const ThreadLog::Kept& s = log->spans[i];
      if (s.end_ns == 0) {
        continue;  // still open when recording stopped
      }
      long long parent = s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent);
      std::snprintf(line, sizeof(line),
                    "{\"thread\":%u,\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"tag\":%u,"
                    "\"start_us\":%.3f,\"end_us\":%.3f,\"cycle\":%llu,\"bytes\":%llu}\n",
                    log->thread_index, i, parent, KindName(s.kind), s.tag,
                    (s.start_ns - origin) / 1e3, (s.end_ns - origin) / 1e3,
                    static_cast<unsigned long long>(s.cycle),
                    static_cast<unsigned long long>(s.bytes));
      out << line;
      ++written;
    }
  }
  return written;
}

// ---- ScopedSpan ----

ScopedSpan::ScopedSpan(Kind kind, uint8_t tag, uint64_t bytes) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.active()) {
    return;
  }
  log_ = tracer.Local();
  uint32_t parent = log_->stack.empty() ? kNoSpan : log_->stack.back().stored;
  uint32_t stored = kNoSpan;
  if (g_kept.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
    stored = static_cast<uint32_t>(log_->spans.size());
    log_->spans.emplace_back();
  }
  log_->stack.push_back({NowNs(), 0, stored, parent, kind, tag, bytes, tl_cycle});
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) {
    return;
  }
  Tracer::ThreadLog::Open open = log_->stack.back();
  log_->stack.pop_back();
  int64_t end = NowNs();
  int64_t dur = end - open.start_ns;
  KindStats& stats = log_->stats[static_cast<size_t>(open.kind)];
  ++stats.count;
  stats.total_ns += dur;
  stats.self_ns += dur - open.child_ns;
  stats.bytes += open.bytes;
  stats.hist.Add(dur);
  if (open.kind == Kind::kAcquire) {
    stats.class_ns[open.tag] += dur;
  }
  if (!log_->stack.empty()) {
    Tracer::ThreadLog::Open& parent = log_->stack.back();
    parent.child_ns += dur;
    if (IsFsOp(parent.kind)) {
      stats.in_fs_op_ns += dur;
    }
  }
  if (open.stored != kNoSpan) {
    Tracer::ThreadLog::Kept& kept = log_->spans[open.stored];
    kept = {open.start_ns, end, open.cycle, open.bytes, open.parent, open.kind, open.tag};
  }
}

// ---- TracedDevice ----

void TracedDevice::SetDirectoryBlocks(std::set<uint64_t> addrs) {
  std::lock_guard<std::mutex> guard(dir_mu_);
  dir_blocks_ = std::move(addrs);
}

bool TracedDevice::IsDirectoryBlock(uint64_t offset) const {
  uint64_t block = geometry_.small_base +
                   (offset - geometry_.small_base) / kBlockSize * kBlockSize;
  std::lock_guard<std::mutex> guard(dir_mu_);
  return dir_blocks_.count(block) != 0;
}

Kind TracedDevice::KindFor(uint64_t offset, bool write) const {
  const Geometry& g = geometry_;
  uint64_t log_end = g.log_base + uint64_t{g.num_logs} * g.log_stride;
  if (offset >= g.log_base && offset < log_end) {
    return write ? Kind::kWalWrite : Kind::kWalRead;
  }
  bool data = offset >= g.large_base || (offset >= g.small_base && !IsDirectoryBlock(offset));
  if (data) {
    return write ? Kind::kDataWrite : Kind::kDataRead;
  }
  return write ? Kind::kMetaWrite : Kind::kMetaRead;
}

Status TracedDevice::Read(uint64_t offset, uint64_t length, Bytes* out) {
  ScopedSpan span(KindFor(offset, false), 0, length);
  return inner_->Read(offset, length, out);
}

Status TracedDevice::Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) {
  ScopedSpan span(KindFor(offset, true), 0, data.size());
  return inner_->Write(offset, data, lease_expiry_us);
}

Status TracedDevice::Decommit(uint64_t offset, uint64_t length) {
  ScopedSpan span(Kind::kDecommit, 0, length);
  return inner_->Decommit(offset, length);
}

// ---- TracedLocks ----

Status TracedLocks::Acquire(LockId lock, LockMode mode, LockRange range) {
  ScopedSpan span(Kind::kAcquire, ClassOf(lock));
  return inner_->Acquire(lock, mode, range);
}

// ---- TracedNode ----

TracedNode::TracedNode(Network* net, NodeId node, std::vector<NodeId> petal_servers,
                       std::vector<NodeId> lock_servers, VdiskId vdisk, Clock* clock,
                       NodeOptions options, const Geometry& geometry)
    : net_(net), node_(node), clock_(clock), options_(options) {
  options_.fs.node_id = node_;
  petal_ = std::make_unique<PetalClient>(net_, node_, std::move(petal_servers), options_.petal);
  device_ = std::make_unique<PetalDevice>(petal_.get(), vdisk);
  traced_device_ = std::make_unique<TracedDevice>(device_.get(), geometry);

  auto router = std::make_unique<DistLockRouter>(net_, node_, std::move(lock_servers));
  LockClerk::Callbacks callbacks;
  callbacks.on_revoke = [this](LockId lock, LockMode new_mode, LockRange range) {
    if (fs_) {
      ScopedSpan span(Kind::kRevoke, ClassOf(lock));
      fs_->OnLockRevoked(lock, new_mode, range);
    }
  };
  callbacks.on_recover = [this](uint32_t dead_slot) -> Status {
    if (!fs_) {
      return FailedPrecondition("file system not mounted");
    }
    return fs_->RecoverSlot(dead_slot);
  };
  callbacks.on_lease_lost = [this] {
    if (fs_) {
      fs_->OnLeaseLost();
    }
  };
  clerk_ = std::make_unique<LockClerk>(net_, node_, std::move(router), clock_,
                                       std::move(callbacks), options_.clerk);
  provider_ = std::make_unique<ClerkLockProvider>(clerk_.get());
  traced_locks_ = std::make_unique<TracedLocks>(provider_.get());
}

TracedNode::~TracedNode() {
  StopDemons();
  if (fs_ && fs_->mounted()) {
    (void)Unmount();
  }
}

Status TracedNode::Mount(const std::string& lock_table) {
  RETURN_IF_ERROR(petal_->RefreshMap());
  RETURN_IF_ERROR(clerk_->Open(lock_table));
  fs_ = std::make_unique<FrangipaniFs>(traced_device_.get(), traced_locks_.get(), clock_,
                                       options_.fs);
  Status st = fs_->Mount();
  if (!st.ok()) {
    clerk_->Close();
    fs_.reset();
    return st;
  }
  lease_duration_ = clerk_->lease_duration();
  if (options_.start_demons) {
    StartDemons();
  }
  return OkStatus();
}

Status TracedNode::Unmount() {
  StopDemons();
  Status st = OkStatus();
  if (fs_) {
    st = fs_->Unmount();
    clerk_->DropIdle(Duration(0));
    clerk_->Close();
  }
  return st;
}

void TracedNode::StartDemons() {
  Duration renew = options_.renew_period;
  if (renew.count() == 0) {
    renew = lease_duration_ / 3;
  }
  std::string tag = "n" + std::to_string(node_);
  renew_task_ = std::make_unique<PeriodicTask>(renew, [this, tag] {
    SetLogNodeTag(tag);
    ScopedSpan span(Kind::kRenew);
    clerk_->RenewTick();
  });
  log_flush_task_ = std::make_unique<PeriodicTask>(options_.log_flush_period, [this, tag] {
    SetLogNodeTag(tag);
    ScopedSpan span(Kind::kLogFlush);
    (void)fs_->FlushLog();
  });
  sync_task_ = std::make_unique<PeriodicTask>(options_.sync_period, [this, tag] {
    SetLogNodeTag(tag);
    ScopedSpan span(Kind::kSync);
    (void)fs_->SyncAll();
  });
  idle_drop_task_ = std::make_unique<PeriodicTask>(
      std::max(options_.idle_lock_drop / 4, Duration(100'000)), [this, tag] {
        SetLogNodeTag(tag);
        ScopedSpan span(Kind::kIdleDrop);
        clerk_->DropIdle(options_.idle_lock_drop);
      });
}

void TracedNode::StopDemons() {
  renew_task_.reset();
  log_flush_task_.reset();
  sync_task_.reset();
  idle_drop_task_.reset();
}

}  // namespace perfbench
