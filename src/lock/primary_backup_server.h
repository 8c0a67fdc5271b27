// Lock service implementation #2 (§6): "stored the lock state on a Petal
// virtual disk, writing each lock state change through to Petal before
// returning to the client. If the primary lock server crashed, a backup
// server would read the current state from Petal and take over."
//
// As in the paper, failure recovery is more transparent than the centralized
// variant but common-case performance is poorer (every state change pays a
// Petal write). Also as in the paper, automatic recovery is not handled for
// every failure mode: takeover is triggered when the backup receives traffic
// while the primary is unreachable.
#ifndef SRC_LOCK_PRIMARY_BACKUP_SERVER_H_
#define SRC_LOCK_PRIMARY_BACKUP_SERVER_H_

#include <atomic>
#include <mutex>

#include "src/lock/lock_server.h"
#include "src/petal/petal_client.h"

namespace frangipani {

class PrimaryBackupLockServer : public LockServer {
 public:
  PrimaryBackupLockServer(Network* net, NodeId self, NodeId peer, bool start_active,
                          PetalClient* petal, VdiskId state_vdisk, Clock* clock,
                          Duration lease_duration = kDefaultLeaseDuration);

  bool active() const { return active_.load(); }

 protected:
  // Standby: redirect while the primary answers; otherwise load the state
  // from Petal and take over.
  Status Admit() override;
  // Writes the full lock/lease state through to Petal ("each lock state
  // change"). Serialized; called after every mutation while active.
  void Commit() override;

 private:
  Status LoadState();

  NodeId peer_;
  PetalClient* petal_;
  VdiskId state_vdisk_;
  std::atomic<bool> active_;
  std::mutex activate_mu_;  // one takeover loads the state
  std::mutex persist_mu_;
};

}  // namespace frangipani

#endif  // SRC_LOCK_PRIMARY_BACKUP_SERVER_H_
