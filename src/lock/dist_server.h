// Lock service implementation #3 (§6), the paper's final one: "fully
// distributed for fault tolerance and scalable performance. It consists of a
// set of mutually cooperating lock servers, and a clerk module linked into
// each Frangipani server."
//
//  - Locks are partitioned into ~100 lock groups; groups (not individual
//    locks) are assigned to servers.
//  - A small amount of global state is replicated across all lock servers
//    using Paxos: the list of lock servers, the group assignment, and the
//    list of clerks that have the table open.
//  - When servers join/leave, groups are reassigned such that load is
//    balanced, reassignment is minimized, and each group has exactly one
//    server; gaining servers recover the state of their new locks from the
//    clerks (two-phase reassignment).
//  - Lock state itself (who holds what) is volatile per group owner and is
//    reconstructed from clerks on reassignment.
//  - Crashed Frangipani servers are detected via lease expiry; a live clerk
//    replays the dead log, and the dead slot's locks are then released on
//    every server via a replicated command. A replicated claim marker
//    guarantees only one recovery demon per log (the paper uses an exclusive
//    lock on the log for the same purpose).
#ifndef SRC_LOCK_DIST_SERVER_H_
#define SRC_LOCK_DIST_SERVER_H_

#include <array>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/lock/lock_server.h"
#include "src/paxos/paxos.h"

namespace frangipani {

enum class LockCmdKind : uint8_t {
  kAddServer = 1,
  kRemoveServer = 2,
  kOpenClerk = 3,
  kCloseClerk = 4,
  kClaimRecovery = 5,
  kSlotRecovered = 6,
};

struct LockCommand {
  LockCmdKind kind{};
  NodeId server = kInvalidNode;
  uint64_t nonce = 0;
  std::string table;
  NodeId clerk = kInvalidNode;
  uint32_t slot = kInvalidSlot;

  Bytes Encode() const;
  static StatusOr<LockCommand> Decode(const Bytes& raw);
};

// The Paxos-replicated view every lock server maintains. The list of clerks
// with the table open is the engine's slot table, which OnApply drives.
struct LockGlobalState {
  std::vector<NodeId> servers;                       // active lock servers
  std::array<NodeId, kNumLockGroups> assignment{};   // group -> server
  std::array<NodeId, kNumLeaseSlots> recovery_claim{};  // slot -> claiming server
};

// Deterministically rebalances `assignment` over `servers`: every group gets
// exactly one active server, per-server counts differ by at most one, and
// already-valid assignments move only when balance requires it.
void RebalanceGroups(LockGlobalState& state);

class DistLockServer : public LockServer {
 public:
  DistLockServer(Network* net, NodeId self, std::vector<NodeId> paxos_group,
                 std::vector<NodeId> initial_active, PaxosDurableState* paxos_state, Clock* clock,
                 Duration lease_duration = kDefaultLeaseDuration);
  ~DistLockServer() override;

  // Membership administration (driven by the harness or by the failure
  // detector below).
  Status ProposeAddServer(NodeId server);
  Status ProposeRemoveServer(NodeId server);

  // Pings peers; proposes removal of peers that miss `threshold` consecutive
  // pings. One call = one round (drive from a PeriodicTask).
  void FailureDetectTick(int threshold = 3);

  // Catches up on the replicated commands missed while down; lock state is
  // recovered lazily from clerks (cold groups).
  void OnRestart(const ClerkList& /*clerks*/) override { paxos_->CatchUp(); }

  LockGlobalState StateSnapshot() const;
  PaxosPeer* paxos() { return paxos_.get(); }

 protected:
  StatusOr<uint32_t> OpenSlot(const std::string& table, NodeId clerk) override;
  Status CloseSlot(uint32_t slot) override;
  // No renewal once a recovery claim for the slot is replicated.
  bool MayRenew(uint32_t slot) override;
  // Group ownership; warms groups this server just gained (phase 2 of
  // reassignment) before serving them.
  Status ServesLock(LockId lock) override;
  bool ClaimRecovery(uint32_t dead) override;
  void FinishRecovery(uint32_t dead) override;
  void Assignment(std::vector<NodeId>* servers,
                  std::array<NodeId, kNumLockGroups>* groups) override;

 private:
  void OnApply(uint64_t index, const Bytes& raw);

  // Phase 2 of reassignment: rebuild lock state for groups this server just
  // gained by querying every clerk with the table open.
  void WarmColdGroups();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  LockGlobalState state_;
  std::map<uint64_t, uint32_t> nonce_slots_;  // open-clerk results
  uint64_t next_nonce_ = 1;
  std::set<uint32_t> cold_groups_;
  bool warming_ = false;

  std::map<NodeId, int> ping_failures_;

  std::unique_ptr<PaxosPeer> paxos_;
};

}  // namespace frangipani

#endif  // SRC_LOCK_DIST_SERVER_H_
