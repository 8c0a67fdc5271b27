// Lock service implementation #1 (§6): "a single, centralized server that
// kept all its lock state in volatile memory. Such a server is adequate for
// Frangipani, because the Frangipani servers and their logs hold enough
// state information to permit recovery even if the lock service loses all
// its state in a crash."
//
// The engine's default hooks are exactly this flavour. The one addition is
// RecoverStateFromClerks(): after a restart, the server asks each clerk for
// the locks it holds.
#ifndef SRC_LOCK_CENTRALIZED_SERVER_H_
#define SRC_LOCK_CENTRALIZED_SERVER_H_

#include "src/lock/lock_server.h"

namespace frangipani {

class CentralizedLockServer : public LockServer {
 public:
  CentralizedLockServer(Network* net, NodeId self, Clock* clock,
                        Duration lease_duration = kDefaultLeaseDuration);

  // After a lock-server restart: rebuild lock state by querying clerks.
  // `clerks` maps slot -> clerk node (from the operator / old config).
  void RecoverStateFromClerks(const ClerkList& clerks);

  void OnRestart(const ClerkList& clerks) override { RecoverStateFromClerks(clerks); }
};

}  // namespace frangipani

#endif  // SRC_LOCK_CENTRALIZED_SERVER_H_
