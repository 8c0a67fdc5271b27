// Edge cases and error paths of the file-system API.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/fs/device.h"
#include "src/fs/fsck.h"
#include "src/fs/lock_provider.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

class FsEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.petal_servers = 3;
    opts.disks_per_petal = 1;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->Start().ok());
    auto node = cluster_->AddFrangipani();
    ASSERT_TRUE(node.ok());
    fs_ = (*node)->fs();
  }

  std::unique_ptr<Cluster> cluster_;
  FrangipaniFs* fs_ = nullptr;
};

TEST_F(FsEdgeTest, PathSyntax) {
  EXPECT_EQ(fs_->Create("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create("/").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create("/a/../b").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create("/./x").status().code(), StatusCode::kInvalidArgument);
  std::string long_name(kDirNameMax + 1, 'x');
  EXPECT_EQ(fs_->Create("/" + long_name).status().code(), StatusCode::kInvalidArgument);
  std::string max_name(kDirNameMax, 'y');
  EXPECT_TRUE(fs_->Create("/" + max_name).ok());
  // Redundant slashes are tolerated.
  EXPECT_TRUE(fs_->Mkdir("//d").ok());
  EXPECT_TRUE(fs_->Create("//d///f").ok());
  EXPECT_TRUE(fs_->Stat("/d/f").ok());
}

TEST_F(FsEdgeTest, SymlinkLoopDetected) {
  ASSERT_TRUE(fs_->Symlink("/b", "/a").ok());
  ASSERT_TRUE(fs_->Symlink("/a", "/b").ok());
  EXPECT_EQ(fs_->Lookup("/a").status().code(), StatusCode::kInvalidArgument);
  // Loop through a directory component.
  EXPECT_EQ(fs_->Stat("/a/child").status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, SymlinkTargetLengthLimit) {
  std::string target(kSymlinkMax + 1, 't');
  EXPECT_FALSE(fs_->Symlink(target, "/toolong").ok());
  std::string ok_target(kSymlinkMax, 't');
  EXPECT_TRUE(fs_->Symlink(ok_target, "/fits").ok());
  auto back = fs_->Readlink("/fits");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), kSymlinkMax);
}

TEST_F(FsEdgeTest, RelativeSymlinkResolvesWithinDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/dir").ok());
  ASSERT_TRUE(fs_->Create("/dir/real").ok());
  ASSERT_TRUE(fs_->Symlink("real", "/dir/alias").ok());
  auto direct = fs_->Lookup("/dir/real");
  auto via = fs_->Lookup("/dir/alias");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via.ok());
  EXPECT_EQ(*via, *direct);
}

TEST_F(FsEdgeTest, ReadWriteOnDirectoryRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  auto ino = fs_->Lookup("/d");
  ASSERT_TRUE(ino.ok());
  Bytes buf;
  EXPECT_EQ(fs_->Read(*ino, 0, 10, &buf).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Write(*ino, 0, Bytes(10, 1)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Truncate(*ino, 0).code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, UnlinkDirectoryAndRmdirFileRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Create("/f").ok());
  EXPECT_EQ(fs_->Unlink("/d").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Rmdir("/f").code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, HardLinkToDirectoryRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_EQ(fs_->Link("/d", "/d2").code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, RenameDirOntoNonEmptyDirRejected) {
  ASSERT_TRUE(fs_->Mkdir("/src").ok());
  ASSERT_TRUE(fs_->Mkdir("/dst").ok());
  ASSERT_TRUE(fs_->Create("/dst/occupied").ok());
  EXPECT_EQ(fs_->Rename("/src", "/dst").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fs_->Unlink("/dst/occupied").ok());
  EXPECT_TRUE(fs_->Rename("/src", "/dst").ok());  // empty dir is replaceable
}

TEST_F(FsEdgeTest, RenameFileOntoDirRejected) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_EQ(fs_->Rename("/f", "/d").code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, RenameToSamePathIsNoOp) {
  auto ino = fs_->Create("/same");
  ASSERT_TRUE(ino.ok());
  EXPECT_TRUE(fs_->Rename("/same", "/same").ok());
  auto attr = fs_->Stat("/same");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->ino, *ino);
}

TEST_F(FsEdgeTest, ZeroLengthIo) {
  auto ino = fs_->Create("/z");
  ASSERT_TRUE(ino.ok());
  EXPECT_TRUE(fs_->Write(*ino, 0, Bytes{}).ok());
  Bytes out;
  auto n = fs_->Read(*ino, 0, 0, &out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  // Reads past EOF return zero bytes, not errors.
  n = fs_->Read(*ino, 100, 50, &out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(FsEdgeTest, HoleZeroSemantics) {
  auto ino = fs_->Create("/holey");
  ASSERT_TRUE(ino.ok());
  // Write only the 3rd small block; blocks 0-1 are holes.
  ASSERT_TRUE(fs_->Write(*ino, 2 * 4096, Bytes(4096, 0xAB)).ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 3 * 4096, &out).ok());
  ASSERT_EQ(out.size(), 3u * 4096);
  for (int i = 0; i < 2 * 4096; ++i) {
    ASSERT_EQ(out[i], 0) << i;
  }
  EXPECT_EQ(out[2 * 4096], 0xAB);
}

TEST_F(FsEdgeTest, TruncateThenRewriteReadsZerosBetween) {
  auto ino = fs_->Create("/t");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(6000, 0xCD)).ok());
  ASSERT_TRUE(fs_->Truncate(*ino, 1000).ok());
  ASSERT_TRUE(fs_->Write(*ino, 3000, Bytes(100, 0xEF)).ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 3100, &out).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(out[i], 0xCD) << i;
  }
  for (int i = 1000; i < 3000; ++i) {
    ASSERT_EQ(out[i], 0) << i;  // no resurrected data
  }
  EXPECT_EQ(out[3000], 0xEF);
}

TEST_F(FsEdgeTest, DirectoryGrowsIntoLargeBlock) {
  // More entries than fit in the 16 small blocks (16 * 63 = 1008).
  ASSERT_TRUE(fs_->Mkdir("/big").ok());
  constexpr int kEntries = 1100;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(fs_->Create("/big/e" + std::to_string(i)).ok()) << i;
  }
  auto entries = fs_->Readdir("/big");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kEntries));
  // The directory's data now spills into its large block; everything still
  // resolves and fsck stays clean.
  EXPECT_TRUE(fs_->Lookup("/big/e1099").ok());
  ASSERT_TRUE(fs_->SyncAll().ok());
  PetalDevice device(cluster_->admin_petal(), cluster_->vdisk());
  FsckReport report = RunFsck(&device, cluster_->geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST_F(FsEdgeTest, DropCachesPreservesData) {
  auto ino = fs_->Create("/persist");
  ASSERT_TRUE(ino.ok());
  Bytes data(10000, 0x42);
  ASSERT_TRUE(fs_->Write(*ino, 0, data).ok());
  ASSERT_TRUE(fs_->DropCaches().ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, data.size(), &out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FsEdgeTest, ApproximateAtimeAdvancesOnRead) {
  auto ino = fs_->Create("/stamped");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(100, 1)).ok());
  auto before = fs_->StatIno(*ino);
  ASSERT_TRUE(before.ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 100, &out).ok());
  auto after = fs_->StatIno(*ino);
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after->atime_us, before->atime_us);
}

TEST_F(FsEdgeTest, StatsCountOperations) {
  auto before = fs_->Stats();
  ASSERT_TRUE(fs_->Create("/counted").ok());
  auto ino = fs_->Lookup("/counted");
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(10, 1)).ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 10, &out).ok());
  auto after = fs_->Stats();
  EXPECT_GE(after.operations, before.operations + 3);
  EXPECT_GE(after.log_records, before.log_records + 1);
}

TEST_F(FsEdgeTest, ReadaheadTracksSequentialReads) {
  auto ino = fs_->Create("/seq");
  ASSERT_TRUE(ino.ok());
  Bytes unit(64 * 1024, 0x11);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs_->Write(*ino, i * unit.size(), unit).ok());
  }
  ASSERT_TRUE(fs_->DropCaches().ok());
  Bytes out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs_->Read(*ino, i * unit.size(), unit.size(), &out).ok());
  }
  EXPECT_GT(fs_->Stats().prefetches, 0u);
  // With read-ahead off, no prefetches are issued.
  fs_->SetReadahead(false);
  uint64_t prefetches = fs_->Stats().prefetches;
  ASSERT_TRUE(fs_->DropCaches().ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs_->Read(*ino, i * unit.size(), unit.size(), &out).ok());
  }
  EXPECT_EQ(fs_->Stats().prefetches, prefetches);
}

TEST_F(FsEdgeTest, UnmountedAndRemountedStatePersists) {
  auto ino = fs_->Create("/durable");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(5000, 0x99)).ok());
  ASSERT_TRUE(cluster_->node(0)->Unmount().ok());
  // Mount a second machine; everything is there.
  auto node = cluster_->AddFrangipani();
  ASSERT_TRUE(node.ok());
  auto found = (*node)->fs()->Lookup("/durable");
  ASSERT_TRUE(found.ok());
  Bytes out;
  ASSERT_TRUE((*node)->fs()->Read(*found, 0, 5000, &out).ok());
  EXPECT_EQ(out, Bytes(5000, 0x99));
}

// A peer that takes the inode lock of a file another machine just unlinked
// revokes that machine's copy, whose flush writes the freed image first.
TEST_F(FsEdgeTest, PeerTakingFreedInodeLockReadsItFree) {
  auto peer = cluster_->AddFrangipani();
  ASSERT_TRUE(peer.ok());
  FrangipaniFs* other = (*peer)->fs();
  auto ino = fs_->Create("/gone");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(3000, 0x42)).ok());
  auto seen = other->StatIno(*ino);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->size, 3000u);
  ASSERT_TRUE(fs_->Unlink("/gone").ok());
  EXPECT_EQ(other->StatIno(*ino).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(other->Stat("/gone").status().code(), StatusCode::kNotFound);
  // Both machines go on allocating; nothing leaks or doubles up.
  ASSERT_TRUE(other->Create("/peer").ok());
  ASSERT_TRUE(fs_->Create("/self").ok());
  ASSERT_TRUE(fs_->SyncAll().ok());
  ASSERT_TRUE(other->SyncAll().ok());
  PetalDevice device(cluster_->admin_petal(), cluster_->vdisk());
  FsckReport report = RunFsck(&device, cluster_->geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Passes every call through to `inner`, counting reads and writes.
class CountingDevice : public BlockDevice {
 public:
  explicit CountingDevice(BlockDevice* inner) : inner_(inner) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    reads_.fetch_add(1);
    return inner_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    writes_.fetch_add(1);
    return inner_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length) override {
    return inner_->Decommit(offset, length);
  }

  int reads() const { return reads_.load(); }
  int writes() const { return writes_.load(); }
  void ResetCounts() {
    reads_.store(0);
    writes_.store(0);
  }

 private:
  BlockDevice* inner_;
  std::atomic<int> reads_{0};
  std::atomic<int> writes_{0};
};

// One machine with local locks and the default asynchronous log, so that
// nothing reaches the device (log included) until the cache or the log is
// flushed. The rule under test: freeing a file or symlink leaves its freed
// inode image dirty in the cache, under the inode lock still held, and drops
// its content; freeing a directory writes and drops everything under its
// inode lock at once.
class FreedInodeTest : public ::testing::Test {
 protected:
  FreedInodeTest() : local_(1, PhysDiskParams{.timing_enabled = false}), counting_(&local_) {}

  void SetUp() override {
    ASSERT_TRUE(FrangipaniFs::Mkfs(&counting_, Geometry{}).ok());
    FsOptions opts;
    opts.fence_writes = false;
    fs_ = std::make_unique<FrangipaniFs>(&counting_, &locks_, SystemClock::Get(), opts);
    ASSERT_TRUE(fs_->Mount().ok());
  }

  void TearDown() override {
    ASSERT_TRUE(fs_->Unmount().ok());
    FsckReport report = RunFsck(&local_, fs_->geometry());
    EXPECT_TRUE(report.ok) << report.Summary();
  }

  // A file with one small block of data, all of it written to the device.
  uint64_t MakeFile(const std::string& path) {
    auto ino = fs_->Create(path);
    EXPECT_TRUE(ino.ok());
    EXPECT_TRUE(fs_->Write(*ino, 0, Bytes(1000, 0x17)).ok());
    EXPECT_TRUE(fs_->SyncAll().ok());
    return *ino;
  }

  // The inode as the device holds it, bypassing the cache.
  Inode OnDevice(uint64_t ino) {
    Bytes raw;
    EXPECT_TRUE(local_.Read(fs_->geometry().InodeAddr(ino), kInodeSize, &raw).ok());
    auto node = Inode::Decode(raw);
    EXPECT_TRUE(node.ok());
    return node.ok() ? *node : Inode{};
  }

  bool Cached(uint64_t addr) { return fs_->cache()->Cached(addr); }
  uint64_t InodeAddr(uint64_t ino) { return fs_->geometry().InodeAddr(ino); }
  uint64_t FirstBlockAddr(const Inode& node) {
    return fs_->geometry().SmallBlockAddr(node.small[0]);
  }

  LocalDevice local_;
  CountingDevice counting_;
  LocalLocks locks_;
  std::unique_ptr<FrangipaniFs> fs_;
};

TEST_F(FreedInodeTest, UnlinkWritesNothing) {
  uint64_t ino = MakeFile("/f");
  Inode before = OnDevice(ino);
  ASSERT_EQ(before.type, FileType::kRegular);
  counting_.ResetCounts();
  ASSERT_TRUE(fs_->Unlink("/f").ok());
  EXPECT_EQ(counting_.writes(), 0) << "the unlink forced the log or the inode to the device";
  EXPECT_EQ(counting_.reads(), 0);
  EXPECT_TRUE(Cached(InodeAddr(ino)));
  EXPECT_FALSE(Cached(FirstBlockAddr(before)));
  EXPECT_EQ(OnDevice(ino).type, FileType::kRegular);
  // The update demon's work writes the freed image.
  ASSERT_TRUE(fs_->SyncAll().ok());
  EXPECT_TRUE(OnDevice(ino).IsFree());
}

TEST_F(FreedInodeTest, UnlinkSymlinkWritesNothing) {
  ASSERT_TRUE(fs_->Symlink("/elsewhere", "/s").ok());
  ASSERT_TRUE(fs_->SyncAll().ok());
  auto attr = fs_->Stat("/s");
  ASSERT_TRUE(attr.ok());
  counting_.ResetCounts();
  ASSERT_TRUE(fs_->Unlink("/s").ok());
  EXPECT_EQ(counting_.writes(), 0);
  EXPECT_TRUE(Cached(InodeAddr(attr->ino)));
  EXPECT_EQ(OnDevice(attr->ino).type, FileType::kSymlink);
}

TEST_F(FreedInodeTest, CreateReusesFreedInodeWithoutDeviceRead) {
  uint64_t ino = MakeFile("/f");
  ASSERT_TRUE(fs_->Unlink("/f").ok());
  counting_.ResetCounts();
  auto again = fs_->Create("/g");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, ino);
  EXPECT_EQ(counting_.reads(), 0) << "the freed inode was read back from the device";
  EXPECT_EQ(counting_.writes(), 0);
}

TEST_F(FreedInodeTest, RmdirWritesAndDropsTheDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Create("/d/x").ok());
  ASSERT_TRUE(fs_->Unlink("/d/x").ok());
  ASSERT_TRUE(fs_->SyncAll().ok());
  auto dir = fs_->Lookup("/d");
  ASSERT_TRUE(dir.ok());
  Inode before = OnDevice(*dir);
  ASSERT_EQ(before.type, FileType::kDirectory);
  ASSERT_NE(before.small[0], 0u);
  ASSERT_TRUE(Cached(FirstBlockAddr(before)));
  ASSERT_TRUE(fs_->Rmdir("/d").ok());
  EXPECT_TRUE(OnDevice(*dir).IsFree());
  EXPECT_FALSE(Cached(InodeAddr(*dir)));
  EXPECT_FALSE(Cached(FirstBlockAddr(before)));
}

TEST_F(FreedInodeTest, RenameOverFileFollowsTheFileRule) {
  uint64_t a = MakeFile("/a");
  uint64_t b = MakeFile("/b");
  Inode old_b = OnDevice(b);
  counting_.ResetCounts();
  ASSERT_TRUE(fs_->Rename("/a", "/b").ok());
  EXPECT_EQ(counting_.writes(), 0);
  EXPECT_TRUE(Cached(InodeAddr(b)));
  EXPECT_FALSE(Cached(FirstBlockAddr(old_b)));
  EXPECT_EQ(OnDevice(b).type, FileType::kRegular);
  auto now_b = fs_->Lookup("/b");
  ASSERT_TRUE(now_b.ok());
  EXPECT_EQ(*now_b, a);
  ASSERT_TRUE(fs_->SyncAll().ok());
  EXPECT_TRUE(OnDevice(b).IsFree());
}

// A shrink frees blocks but no inode: the inode image stays in the cache.
TEST_F(FreedInodeTest, TruncateShrinkLeavesTheInodeCached) {
  auto ino = fs_->Create("/t");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(3 * kBlockSize, 0x33)).ok());
  ASSERT_TRUE(fs_->SyncAll().ok());
  counting_.ResetCounts();
  ASSERT_TRUE(fs_->Truncate(*ino, 100).ok());
  EXPECT_EQ(counting_.writes(), 0);
  EXPECT_TRUE(Cached(InodeAddr(*ino)));
  EXPECT_EQ(OnDevice(*ino).size, 3 * kBlockSize);
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 3 * kBlockSize, &out).ok());
  EXPECT_EQ(out, Bytes(100, 0x33));
}

// Passes calls through to `inner`. Reads at or above `gate_from` (the
// large-block region, where a file's 64 KB read-ahead units live) are
// counted while in flight and when finished, and held while the gate is
// closed.
class ReadGatedDevice : public BlockDevice {
 public:
  ReadGatedDevice(BlockDevice* inner, uint64_t gate_from)
      : inner_(inner), gate_from_(gate_from) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    bool counted = offset >= gate_from_;
    if (counted) {
      std::unique_lock<std::mutex> lk(mu_);
      ++inflight_;
      cv_.notify_all();
      cv_.wait(lk, [&] { return !gated_; });
    }
    Status st = inner_->Read(offset, length, out);
    if (counted) {
      std::lock_guard<std::mutex> guard(mu_);
      --inflight_;
      ++finished_;
      cv_.notify_all();
    }
    return st;
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    return inner_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length) override {
    return inner_->Decommit(offset, length);
  }

  void Gate() {
    std::lock_guard<std::mutex> guard(mu_);
    gated_ = true;
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mu_);
    gated_ = false;
    cv_.notify_all();
  }
  // Waits up to `timeout` until at least `n` counted reads are in flight.
  bool WaitInflight(int n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return inflight_ >= n; });
  }
  int inflight() {
    std::lock_guard<std::mutex> guard(mu_);
    return inflight_;
  }
  int finished() {
    std::lock_guard<std::mutex> guard(mu_);
    return finished_;
  }

 private:
  BlockDevice* inner_;
  const uint64_t gate_from_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  int inflight_ = 0;
  int finished_ = 0;
};

// One machine on a local device with local locks, read-ahead deeper than
// io_threads. A file of one small-block region plus eight 64 KB units is
// written, the cache dropped and the gate closed; reading the small region
// then leaves the read-ahead of the next units held at the device.
class ReadaheadDepthTest : public ::testing::Test {
 protected:
  static constexpr int kIoThreads = 2;
  static constexpr uint32_t kDepth = 2 * kIoThreads;

  ReadaheadDepthTest()
      : local_(1, PhysDiskParams{.timing_enabled = false}), gated_(&local_, Geometry{}.large_base) {}

  void SetUp() override {
    ASSERT_TRUE(FrangipaniFs::Mkfs(&gated_, Geometry{}).ok());
    FsOptions opts;
    opts.io_threads = kIoThreads;
    opts.readahead_units = kDepth;
    opts.fence_writes = false;
    fs_ = std::make_unique<FrangipaniFs>(&gated_, &locks_, SystemClock::Get(), opts);
    ASSERT_TRUE(fs_->Mount().ok());
    auto ino = fs_->Create("/stream");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(kSmallBytesPerFile + 8 * kChunkSize, 0x5A)).ok());
    ASSERT_TRUE(fs_->DropCaches().ok());
    gated_.Gate();
    Bytes out;
    ASSERT_TRUE(fs_->Read(*ino, 0, kSmallBytesPerFile, &out).ok());
    EXPECT_EQ(out, Bytes(kSmallBytesPerFile, 0x5A));
  }

  void TearDown() override {
    gated_.Open();
    fs_.reset();
  }

  LocalDevice local_;
  ReadGatedDevice gated_;
  LocalLocks locks_;
  std::unique_ptr<FrangipaniFs> fs_;
};

// Read-ahead shares the cache's IO pool, which holds 2 x io_threads
// workers: all readahead_units reads are in flight at once, not io_threads.
TEST_F(ReadaheadDepthTest, ReadaheadUnitsInFlightBeyondIoThreads) {
  EXPECT_TRUE(gated_.WaitInflight(kDepth, std::chrono::seconds(5)))
      << "read-ahead reads in flight: " << gated_.inflight() << ", want " << kDepth;
  EXPECT_EQ(fs_->Stats().prefetches, kDepth);
}

TEST_F(ReadaheadDepthTest, UnmountWaitsForReadaheadInFlight) {
  ASSERT_TRUE(gated_.WaitInflight(kIoThreads, std::chrono::seconds(5)));
  std::mutex mu;
  std::condition_variable cv;
  bool returned = false;
  int finished_at_return = -1;
  std::thread unmount([&] {
    ASSERT_TRUE(fs_->Unmount().ok());
    int finished = gated_.finished();
    std::lock_guard<std::mutex> guard(mu);
    returned = true;
    finished_at_return = finished;
    cv.notify_all();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> guard(mu);
    EXPECT_FALSE(returned);  // the read-ahead is still held at the device
  }
  gated_.Open();
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10), [&] { return returned; }));
  }
  unmount.join();
  EXPECT_EQ(finished_at_return, static_cast<int>(kDepth));
}

}  // namespace
}  // namespace frangipani
