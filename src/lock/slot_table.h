// Lease-slot bookkeeping of the lock-server engine (all three flavours).
// A slot is the lease identifier handed to a clerk on open; it doubles as
// the Frangipani server's log slot (§7). Slots are scarce (256) and are
// freed only after the dead server's log has been recovered.
#ifndef SRC_LOCK_SLOT_TABLE_H_
#define SRC_LOCK_SLOT_TABLE_H_

#include <array>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/lock/types.h"
#include "src/net/network.h"

namespace frangipani {

class SlotTable {
 public:
  SlotTable(Clock* clock, Duration lease_duration)
      : clock_(clock), lease_duration_(lease_duration) {}

  // Assigns the lowest free slot. A freshly (re)started server always gets a
  // slot whose log has been recovered (or never used).
  StatusOr<uint32_t> Open(const std::string& table, NodeId clerk);

  // Voluntary close (clerk unmounted cleanly; locks already released).
  void Close(uint32_t slot);

  // Frees a slot after its log has been recovered.
  void Free(uint32_t slot);

  // Returns false if the slot is not open or its lease already expired
  // (a failed renewal: the clerk must treat its lease as lost).
  bool Renew(uint32_t slot);

  bool IsOpen(uint32_t slot) const;
  bool Expired(uint32_t slot) const;
  NodeId ClerkOf(uint32_t slot) const;

  // Live = open and lease not expired.
  std::vector<std::pair<uint32_t, NodeId>> LiveClerks() const;
  // Every open slot, expired or not.
  std::vector<std::pair<uint32_t, NodeId>> OpenClerks() const;
  std::vector<uint32_t> ExpiredSlots() const;

  // Used when rebuilding state from clerks after a restart. Restamps the
  // renewal time to "now".
  void InstallOpen(uint32_t slot, const std::string& table, NodeId clerk);

  Duration lease_duration() const { return lease_duration_; }

  void Encode(Encoder& enc) const;
  void DecodeInto(Decoder& dec);

 private:
  struct Slot {
    bool open = false;
    std::string table;
    NodeId clerk = kInvalidNode;
    TimePoint last_renew{};
  };

  Clock* clock_;
  Duration lease_duration_;
  mutable std::mutex mu_;
  std::array<Slot, kNumLeaseSlots> slots_{};
};

}  // namespace frangipani

#endif  // SRC_LOCK_SLOT_TABLE_H_
