#include "src/lock/centralized_server.h"

namespace frangipani {

CentralizedLockServer::CentralizedLockServer(Network* net, NodeId self, Clock* clock,
                                             Duration lease_duration)
    : LockServer(net, self, clock, lease_duration) {
  net_->RegisterService(self_, kServiceName, this);
}

void CentralizedLockServer::RecoverStateFromClerks(const ClerkList& clerks) {
  core_.Clear();
  // Open the slots first, so a revoke never finds a reinstalled lock whose
  // holder has no slot.
  for (const auto& [slot, clerk] : clerks) {
    slots_.InstallOpen(slot, "", clerk);
  }
  InstallFromClerks(clerks, [](LockId) { return true; });
}

}  // namespace frangipani
