// The lock-server protocol engine shared by the three lock services of §6.
// The paper's three designs run one request/grant/revoke/release protocol
// with leases and differ only in where lock state lives: volatile memory
// (CentralizedLockServer), written through to Petal (PrimaryBackupLockServer)
// or a Paxos-replicated group map (DistLockServer).
//
// LockServer owns the protocol: request decoding and dispatch, the lease
// slot table, the lock core, lease checks and implicit renewal, revocation,
// dead-holder recovery (a live clerk replays the dead server's log) and the
// lease sweep. A flavour overrides the protected hooks below to say where
// its state lives; every hook defaults to the volatile single-server
// behaviour.
#ifndef SRC_LOCK_LOCK_SERVER_H_
#define SRC_LOCK_LOCK_SERVER_H_

#include <array>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/lock/lock_core.h"
#include "src/lock/slot_table.h"
#include "src/lock/types.h"
#include "src/net/network.h"

namespace frangipani {

class LockServer : public Service {
 public:
  static constexpr const char* kServiceName = "lockd";

  // (slot, clerk node) pairs, as the slot table and the harness report them.
  using ClerkList = std::vector<std::pair<uint32_t, NodeId>>;

  ~LockServer() override;
  LockServer(const LockServer&) = delete;
  LockServer& operator=(const LockServer&) = delete;

  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) final;

  // Proactive lease sweep: initiates recovery for every expired slot.
  // (Expiry is otherwise detected lazily when a revoke fails.) Runs
  // recoveries synchronously on the calling thread.
  void CheckLeases();

  // After this server's machine restarts: rebuild the state it lost.
  // `clerks` lists the live clerks (slot, node) known to the operator.
  virtual void OnRestart(const ClerkList& /*clerks*/) {}

  NodeId node() const { return self_; }
  size_t lock_count() const { return core_.lock_count(); }
  LockMode HeldMode(uint32_t slot, LockId lock) const { return core_.HeldMode(slot, lock); }

 protected:
  // Flavour constructors register the service last, so no request reaches
  // a half-built server; this class's destructor unregisters it.
  LockServer(Network* net, NodeId self, Clock* clock, Duration lease_duration);

  // ---- hooks: where lock state lives ----
  // Admits a request before dispatch (primary-backup standby: redirect or
  // take over).
  virtual Status Admit() { return OkStatus(); }
  // Assigns a lease slot to a clerk opening `table`.
  virtual StatusOr<uint32_t> OpenSlot(const std::string& table, NodeId clerk) {
    return slots_.Open(table, clerk);
  }
  // Clean close: drops the slot's locks and frees the slot.
  virtual Status CloseSlot(uint32_t slot);
  // Extra lease rule on top of the slot table's expiry check.
  virtual bool MayRenew(uint32_t /*slot*/) { return true; }
  // OK if this server serves `lock` (and holds its state).
  virtual Status ServesLock(LockId /*lock*/) { return OkStatus(); }
  // Makes the lock and slot state durable; the engine calls it after every
  // operation that changed either.
  virtual void Commit() {}
  // Decides whether this server replays `dead`'s log; false once another
  // server has done it.
  virtual bool ClaimRecovery(uint32_t /*dead*/) { return true; }
  // After `dead`'s log was replayed: drops its locks and frees its slot.
  virtual void FinishRecovery(uint32_t dead);
  // The lock servers and the group -> server map (kLockGetAssignment).
  virtual void Assignment(std::vector<NodeId>* servers,
                          std::array<NodeId, kNumLockGroups>* groups);

  // Asks each clerk in `clerks` for the locks it holds (kClerkListHeld) and
  // installs those `wanted` accepts under the slot the clerk reports.
  void InstallFromClerks(const ClerkList& clerks, const std::function<bool(LockId)>& wanted);

  Network* net_;
  NodeId self_;
  SlotTable slots_;
  LockCore core_;

 private:
  StatusOr<Bytes> DoRequest(uint32_t slot, LockId lock, LockMode mode, LockRange range);

  // Any message from a live holder proves liveness: restamp its lease so
  // piggybacked acks/releases keep it fresh without standalone renewals.
  // Only this server's view is extended, which is always safe (the hazard
  // direction is the server expiring a lease the client still trusts).
  void ImplicitRenew(uint32_t slot);
  Status RevokeAt(uint32_t holder, LockId lock, LockMode new_mode, LockRange range);
  // Handles an unreachable/dead holder: waits out the lease, has a live
  // clerk replay the dead log, then releases the dead slot's locks.
  void HandleDeadHolder(uint32_t holder);

  std::mutex recovery_mu_;
  std::condition_variable recovery_cv_;
  std::set<uint32_t> recovering_;
};

}  // namespace frangipani

#endif  // SRC_LOCK_LOCK_SERVER_H_
