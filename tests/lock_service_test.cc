// Clerk + lock-server tests over the simulated network, covering the three
// implementations of §6: centralized, primary/backup, and distributed. The
// protocol cases run against every flavour (LockProtocolTest); the rest
// cover what only one flavour does.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <set>
#include <string>
#include <thread>

#include "src/base/thread_pool.h"

#include "src/lock/centralized_server.h"
#include "src/lock/clerk.h"
#include "src/lock/dist_server.h"
#include "src/lock/primary_backup_server.h"
#include "src/lock/router.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/petal/petal_server.h"
#include "src/server/node.h"

namespace frangipani {
namespace {

struct TestClerk {
  NodeId node = kInvalidNode;
  std::unique_ptr<LockClerk> clerk;
  // Declared after clerk_ so it stops before the clerk is destroyed.
  std::unique_ptr<PeriodicTask> renew;
  std::mutex mu;
  std::vector<std::pair<LockId, LockMode>> revokes;
  std::vector<uint32_t> recovered;
  std::atomic<bool> lease_lost{false};

  void StartRenewals() {
    renew = std::make_unique<PeriodicTask>(Duration(100'000),
                                           [this] { clerk->RenewTick(); });
  }
};

// Builds one lock service of a given flavour on a private network: the
// centralized server, three distributed servers, or a primary and its
// standby over a three-server Petal substrate. Leases are 0.5 s.
class LockServiceTest : public ::testing::Test {
 protected:
  void Build(LockServiceKind kind, int dist_servers = 3) {
    kind_ = kind;
    switch (kind) {
      case LockServiceKind::kCentralized:
        server_node_ = net_.AddNode("lockd");
        server_nodes_ = {server_node_};
        server_ = std::make_unique<CentralizedLockServer>(&net_, server_node_, SystemClock::Get(),
                                                          Duration(500'000));
        all_ = {server_.get()};
        break;
      case LockServiceKind::kDistributed:
        for (int i = 0; i < dist_servers; ++i) {
          server_nodes_.push_back(net_.AddNode("lockd" + std::to_string(i)));
        }
        for (int i = 0; i < dist_servers; ++i) {
          paxos_states_.push_back(std::make_unique<PaxosDurableState>());
          servers_.push_back(std::make_unique<DistLockServer>(
              &net_, server_nodes_[i], server_nodes_, server_nodes_, paxos_states_.back().get(),
              SystemClock::Get(), Duration(500'000)));
          all_.push_back(servers_.back().get());
        }
        break;
      case LockServiceKind::kPrimaryBackup: {
        // Petal substrate for lock-state persistence.
        for (int i = 0; i < 3; ++i) {
          petal_nodes_.push_back(net_.AddNode("petal" + std::to_string(i)));
        }
        for (int i = 0; i < 3; ++i) {
          petal_states_.push_back(std::make_unique<PetalServerDurable>());
          PetalServerOptions opts;
          opts.num_disks = 1;
          opts.disk.timing_enabled = false;
          petal_servers_.push_back(std::make_unique<PetalServer>(
              &net_, petal_nodes_[i], petal_nodes_, petal_nodes_, petal_states_.back().get(), opts,
              SystemClock::Get()));
        }
        primary_node_ = net_.AddNode("lockd-primary");
        backup_node_ = net_.AddNode("lockd-backup");
        server_nodes_ = {primary_node_, backup_node_};
        petal_client_ = std::make_unique<PetalClient>(&net_, primary_node_, petal_nodes_);
        backup_petal_client_ = std::make_unique<PetalClient>(&net_, backup_node_, petal_nodes_);
        ASSERT_TRUE(petal_client_->RefreshMap().ok());
        ASSERT_TRUE(backup_petal_client_->RefreshMap().ok());
        auto vd = petal_client_->CreateVdisk();
        ASSERT_TRUE(vd.ok());
        state_vdisk_ = *vd;
        primary_ = std::make_unique<PrimaryBackupLockServer>(
            &net_, primary_node_, backup_node_, true, petal_client_.get(), state_vdisk_,
            SystemClock::Get(), Duration(500'000));
        backup_ = std::make_unique<PrimaryBackupLockServer>(
            &net_, backup_node_, primary_node_, false, backup_petal_client_.get(), state_vdisk_,
            SystemClock::Get(), Duration(500'000));
        all_ = {primary_.get(), backup_.get()};
        break;
      }
    }
  }

  TestClerk* NewClerk(LockClerkOptions options = {}) {
    clerks_.emplace_back();
    TestClerk* tc = &clerks_.back();
    tc->node = net_.AddNode("clerk" + std::to_string(clerks_.size()));
    LockClerk::Callbacks cb;
    cb.on_revoke = [tc](LockId lock, LockMode mode, LockRange) {
      std::lock_guard<std::mutex> guard(tc->mu);
      tc->revokes.emplace_back(lock, mode);
    };
    cb.on_recover = [tc](uint32_t slot) -> Status {
      std::lock_guard<std::mutex> guard(tc->mu);
      tc->recovered.push_back(slot);
      return OkStatus();
    };
    cb.on_lease_lost = [tc] { tc->lease_lost.store(true); };
    std::unique_ptr<LockRouter> router;
    if (kind_ == LockServiceKind::kDistributed) {
      router = std::make_unique<DistLockRouter>(&net_, tc->node, server_nodes_);
    } else {
      router = std::make_unique<StaticLockRouter>(server_nodes_);
    }
    tc->clerk = std::make_unique<LockClerk>(&net_, tc->node, std::move(router),
                                            SystemClock::Get(), std::move(cb), options);
    tc->StartRenewals();
    return tc;
  }

  // The server that serves `lock` (the group owner, or the primary).
  NodeId ServerFor(LockId lock) {
    if (kind_ == LockServiceKind::kDistributed) {
      return servers_[0]->StateSnapshot().assignment[LockGroupOf(lock)];
    }
    return server_nodes_[0];
  }

  // Strongest mode the service records for `slot` on `lock`.
  LockMode HeldMode(uint32_t slot, LockId lock) {
    LockMode mode = LockMode::kNone;
    for (LockServer* server : all_) {
      mode = std::max(mode, server->HeldMode(slot, lock));
    }
    return mode;
  }

  void SetServersUp(bool up) {
    for (NodeId node : server_nodes_) {
      net_.SetNodeUp(node, up);
    }
  }

  Network net_;
  LockServiceKind kind_ = LockServiceKind::kCentralized;
  std::vector<NodeId> server_nodes_;
  std::vector<LockServer*> all_;
  // centralized
  NodeId server_node_ = kInvalidNode;
  std::unique_ptr<CentralizedLockServer> server_;
  // distributed
  std::vector<std::unique_ptr<PaxosDurableState>> paxos_states_;
  std::vector<std::unique_ptr<DistLockServer>> servers_;
  // primary/backup
  std::vector<NodeId> petal_nodes_;
  std::vector<std::unique_ptr<PetalServerDurable>> petal_states_;
  std::vector<std::unique_ptr<PetalServer>> petal_servers_;
  NodeId primary_node_ = kInvalidNode;
  NodeId backup_node_ = kInvalidNode;
  std::unique_ptr<PetalClient> petal_client_;
  std::unique_ptr<PetalClient> backup_petal_client_;
  VdiskId state_vdisk_ = kInvalidVdisk;
  std::unique_ptr<PrimaryBackupLockServer> primary_;
  std::unique_ptr<PrimaryBackupLockServer> backup_;
  // Declared last so clerks stop renewing before the servers go away.
  std::deque<TestClerk> clerks_;
};

// ---- the protocol, against every flavour ----

class LockProtocolTest : public LockServiceTest,
                         public ::testing::WithParamInterface<LockServiceKind> {
 protected:
  void SetUp() override { Build(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    AllFlavours, LockProtocolTest,
    ::testing::Values(LockServiceKind::kCentralized, LockServiceKind::kPrimaryBackup,
                      LockServiceKind::kDistributed),
    [](const ::testing::TestParamInfo<LockServiceKind>& info) -> std::string {
      switch (info.param) {
        case LockServiceKind::kCentralized:
          return "Centralized";
        case LockServiceKind::kPrimaryBackup:
          return "PrimaryBackup";
        case LockServiceKind::kDistributed:
          return "Distributed";
      }
      return "Unknown";
    });

TEST_P(LockProtocolTest, OpenAssignsSlots) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  EXPECT_EQ(a->clerk->slot(), 0u);
  EXPECT_EQ(b->clerk->slot(), 1u);
}

TEST_P(LockProtocolTest, SharedLocksNoRevoke) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kShared).ok());
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kShared).ok());
  a->clerk->Release(100);
  b->clerk->Release(100);
  EXPECT_TRUE(a->revokes.empty());
  EXPECT_TRUE(b->revokes.empty());
}

TEST_P(LockProtocolTest, StickyLocksServedFromCache) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(7, LockMode::kExclusive).ok());
  a->clerk->Release(7);
  EXPECT_EQ(a->clerk->CachedMode(7), LockMode::kExclusive);
  // Server sees it still held.
  EXPECT_EQ(HeldMode(a->clerk->slot(), 7), LockMode::kExclusive);
  // Re-acquire without traffic (we can't observe traffic directly, but it
  // must succeed instantly even if the servers were down).
  SetServersUp(false);
  EXPECT_TRUE(a->clerk->Acquire(7, LockMode::kExclusive).ok());
  a->clerk->Release(7);
  SetServersUp(true);
}

TEST_P(LockProtocolTest, ConflictTriggersRevokeAndFlush) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);  // cached, still held
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
  b->clerk->Release(100);
  {
    std::lock_guard<std::mutex> guard(a->mu);
    ASSERT_EQ(a->revokes.size(), 1u);
    EXPECT_EQ(a->revokes[0].first, 100u);
    EXPECT_EQ(a->revokes[0].second, LockMode::kNone);
  }
  EXPECT_EQ(a->clerk->CachedMode(100), LockMode::kNone);
}

TEST_P(LockProtocolTest, WriterDowngradedToSharedForReader) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kShared).ok());
  b->clerk->Release(100);
  {
    std::lock_guard<std::mutex> guard(a->mu);
    ASSERT_EQ(a->revokes.size(), 1u);
    EXPECT_EQ(a->revokes[0].second, LockMode::kShared);
  }
  EXPECT_EQ(a->clerk->CachedMode(100), LockMode::kShared);
}

TEST_P(LockProtocolTest, RevokeWaitsForBusyUser) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  // a holds the lock busy; b's acquire must block until a releases.
  std::atomic<bool> b_granted{false};
  std::thread bt([&] {
    ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
    b_granted.store(true);
    b->clerk->Release(100);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(b_granted.load());
  a->clerk->Release(100);
  bt.join();
  EXPECT_TRUE(b_granted.load());
}

TEST_P(LockProtocolTest, CrashedHolderRecoveredAfterLeaseExpiry) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  uint32_t a_slot = a->clerk->slot();
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  // a crashes (no clean release). Lease (0.5 s) must expire first.
  net_.SetNodeUp(a->node, false);
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
  b->clerk->Release(100);
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(waited, 0.2);  // could not be granted before expiry
  // b was asked to run recovery for a's slot.
  std::lock_guard<std::mutex> guard(b->mu);
  ASSERT_EQ(b->recovered.size(), 1u);
  EXPECT_EQ(b->recovered[0], a_slot);
}

TEST_P(LockProtocolTest, PartitionedClerkLosesLease) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(9, LockMode::kExclusive).ok());
  a->clerk->Release(9);
  net_.SetIsolated(a->node, true);
  // Renewals fail; after the lease duration passes the clerk poisons itself.
  for (int i = 0; i < 20 && !a->lease_lost.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a->clerk->RenewTick();
  }
  EXPECT_TRUE(a->lease_lost.load());
  EXPECT_TRUE(a->clerk->poisoned());
  EXPECT_EQ(a->clerk->Acquire(10, LockMode::kShared).code(), StatusCode::kStaleLease);
}

// A truncated payload must be rejected before it touches any state:
// Decoder yields 0 on underflow, so an unchecked kLockClose would free slot 0
// and drop every lock it holds.
TEST_P(LockProtocolTest, MalformedRequestsRejectedWithoutSideEffects) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_EQ(a->clerk->slot(), 0u);
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  Encoder slot_only;
  slot_only.PutU32(0);
  const std::pair<uint32_t, Bytes> calls[] = {
      {kLockOpen, Bytes{}},          {kLockClose, Bytes{}},
      {kLockClose, Bytes{0, 0}},     {kLockRenew, Bytes{}},
      {kLockRequest, Bytes{}},       {kLockRequest, slot_only.buffer()},
      {kLockRelease, Bytes{}},       {kLockRelease, slot_only.buffer()},
      {kLockAck, Bytes{}},           {kLockAck, slot_only.buffer()},
  };
  NodeId raw = net_.AddNode("raw");
  for (const auto& [method, payload] : calls) {
    StatusOr<Bytes> reply = net_.Call(raw, ServerFor(100), "lockd", method, payload);
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument)
        << "method " << method << ", " << payload.size() << " bytes";
  }
  EXPECT_EQ(HeldMode(0, 100), LockMode::kExclusive);
  EXPECT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  EXPECT_FALSE(a->clerk->poisoned());
}

// Every flavour traces the same request/grant/revoke chain and counts the
// lease restamp a kLockRequest implies.
TEST_P(LockProtocolTest, ConflictingAcquireEmitsLockdSpans) {
  obs::Counter* implicit =
      obs::MetricsRegistry::Default()->GetCounter("lockd.implicit_renewals");
  obs::Recorder* rec = obs::Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());

  // A bare request (no clerk, so no ack follows) from a live holder.
  Encoder req;
  req.PutU32(a->clerk->slot());
  req.PutU64(555);
  req.PutU8(static_cast<uint8_t>(LockMode::kShared));
  req.PutU64(0);
  req.PutU64(kRangeEnd);
  uint64_t before = implicit->value();
  ASSERT_TRUE(net_.Call(net_.AddNode("raw"), ServerFor(555), "lockd", kLockRequest,
                        req.buffer())
                  .ok());
  EXPECT_GE(implicit->value(), before + 1);

  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
  b->clerk->Release(100);
  std::set<std::string> names;
  for (const obs::TraceEvent& e : rec->Snapshot()) {
    if (e.node == ServerFor(100)) {
      names.insert(e.name);
    }
  }
  rec->Enable(false);
  EXPECT_EQ(names.count("lockd.request"), 1u);
  EXPECT_EQ(names.count("lockd.grant"), 1u);
  EXPECT_EQ(names.count("lockd.revoke_rpc"), 1u);
}

// ---- centralized implementation ----

class CentralizedLockTest : public LockServiceTest {
 protected:
  void SetUp() override { Build(LockServiceKind::kCentralized); }
};

TEST_F(CentralizedLockTest, ServerRestartRecoversStateFromClerks) {
  // The "crash" below destroys the server object. Grant acks are sent
  // synchronously here, so no ack handler can still be running on an IO
  // pool thread, unsynchronized with the destruction.
  LockClerkOptions sync_acks;
  sync_acks.async_grant_ack = false;
  TestClerk* a = NewClerk(sync_acks);
  TestClerk* b = NewClerk(sync_acks);
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(5, LockMode::kExclusive).ok());
  a->clerk->Release(5);
  ASSERT_TRUE(b->clerk->Acquire(6, LockMode::kShared).ok());
  b->clerk->Release(6);
  // Server "crashes" and restarts empty, then reconstructs from clerks.
  server_ = std::make_unique<CentralizedLockServer>(&net_, server_node_, SystemClock::Get(),
                                                    Duration(500'000));
  EXPECT_EQ(server_->lock_count(), 0u);
  server_->RecoverStateFromClerks({{a->clerk->slot(), a->node}, {b->clerk->slot(), b->node}});
  EXPECT_EQ(server_->HeldMode(a->clerk->slot(), 5), LockMode::kExclusive);
  EXPECT_EQ(server_->HeldMode(b->clerk->slot(), 6), LockMode::kShared);
}

// ---- distributed implementation ----

class DistLockTest : public LockServiceTest {
 protected:
  void Build(int nservers) { LockServiceTest::Build(LockServiceKind::kDistributed, nservers); }
};

TEST_F(DistLockTest, GroupsPartitionedAcrossServers) {
  Build(3);
  LockGlobalState state = servers_[0]->StateSnapshot();
  std::map<NodeId, int> counts;
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    ASSERT_NE(state.assignment[g], kInvalidNode);
    counts[state.assignment[g]]++;
  }
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [server, count] : counts) {
    EXPECT_GE(count, 33);
    EXPECT_LE(count, 34);
  }
}

TEST_F(DistLockTest, BasicAcquireReleaseAcrossServers) {
  Build(3);
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  // Touch enough locks to hit all three servers' groups.
  for (LockId l = 1; l <= 50; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok()) << l;
    a->clerk->Release(l);
  }
  EXPECT_EQ(a->clerk->cached_lock_count(), 50u);
}

TEST_F(DistLockTest, ConflictsResolvedAcrossClerks) {
  Build(3);
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  for (LockId l = 1; l <= 20; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok());
    a->clerk->Release(l);
    ASSERT_TRUE(b->clerk->Acquire(l, LockMode::kExclusive).ok());
    b->clerk->Release(l);
  }
  std::lock_guard<std::mutex> guard(a->mu);
  EXPECT_EQ(a->revokes.size(), 20u);
}

TEST_F(DistLockTest, ServerCrashGroupsReassignedAndStateRecoveredFromClerks) {
  Build(3);
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  for (LockId l = 1; l <= 30; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok());
    a->clerk->Release(l);
  }
  // Crash server 2 and remove it from the service.
  net_.SetNodeUp(server_nodes_[2], false);
  ASSERT_TRUE(servers_[0]->ProposeRemoveServer(server_nodes_[2]).ok());
  servers_[1]->paxos()->CatchUp();
  // All locks must still be usable; gaining servers warm from clerks.
  TestClerk* b = NewClerk();
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  for (LockId l = 1; l <= 30; ++l) {
    ASSERT_TRUE(b->clerk->Acquire(l, LockMode::kExclusive).ok()) << l;
    b->clerk->Release(l);
  }
  // a must have been revoked for every one of them (state was recovered, so
  // the service knew a held them).
  std::lock_guard<std::mutex> guard(a->mu);
  EXPECT_EQ(a->revokes.size(), 30u);
}

TEST_F(DistLockTest, CrashedClerkSlotRecoveredOnce) {
  Build(3);
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  uint32_t a_slot = a->clerk->slot();
  for (LockId l = 1; l <= 10; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok());
    a->clerk->Release(l);
  }
  net_.SetNodeUp(a->node, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));  // lease expiry
  for (LockId l = 1; l <= 10; ++l) {
    ASSERT_TRUE(b->clerk->Acquire(l, LockMode::kExclusive).ok()) << l;
    b->clerk->Release(l);
  }
  std::lock_guard<std::mutex> guard(b->mu);
  ASSERT_GE(b->recovered.size(), 1u);
  for (uint32_t slot : b->recovered) {
    EXPECT_EQ(slot, a_slot);
  }
}

TEST_F(DistLockTest, FailureDetectorRemovesDeadServer) {
  Build(3);
  net_.SetNodeUp(server_nodes_[2], false);
  for (int i = 0; i < 3; ++i) {
    servers_[0]->FailureDetectTick(3);
  }
  LockGlobalState state = servers_[0]->StateSnapshot();
  EXPECT_EQ(state.servers.size(), 2u);
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    EXPECT_NE(state.assignment[g], server_nodes_[2]);
  }
}

TEST_F(DistLockTest, RebalanceMinimizesMovement) {
  LockGlobalState state;
  state.servers = {1, 2, 3};
  state.assignment.fill(kInvalidNode);
  RebalanceGroups(state);
  auto before = state.assignment;
  // Removing one server must not move groups between survivors.
  state.servers = {1, 3};
  RebalanceGroups(state);
  int moved_between_survivors = 0;
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    if (before[g] != 2 && state.assignment[g] != before[g]) {
      ++moved_between_survivors;
    }
  }
  EXPECT_EQ(moved_between_survivors, 0);
}

// ---- primary/backup implementation ----

class PbLockTest : public LockServiceTest {
 protected:
  void SetUp() override { Build(LockServiceKind::kPrimaryBackup); }
};

TEST_F(PbLockTest, BasicOperation) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(42, LockMode::kExclusive).ok());
  a->clerk->Release(42);
  EXPECT_EQ(primary_->lock_count(), 1u);
  EXPECT_FALSE(backup_->active());
}

TEST_F(PbLockTest, BackupTakesOverWithPersistedState) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(42, LockMode::kExclusive).ok());
  a->clerk->Release(42);
  // Primary dies; the clerk's next request fails over to the backup, which
  // loads the state from Petal and takes over.
  net_.SetNodeUp(primary_node_, false);
  TestClerk* b = NewClerk();
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  EXPECT_TRUE(backup_->active());
  // State survived: b's exclusive on 42 must revoke a.
  ASSERT_TRUE(b->clerk->Acquire(42, LockMode::kExclusive).ok());
  b->clerk->Release(42);
  std::lock_guard<std::mutex> guard(a->mu);
  ASSERT_EQ(a->revokes.size(), 1u);
  EXPECT_EQ(a->revokes[0].first, 42u);
}

}  // namespace
}  // namespace frangipani
