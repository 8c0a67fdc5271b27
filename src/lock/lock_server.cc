#include "src/lock/lock_server.h"

#include <thread>

#include "src/base/logging.h"
#include "src/lock/clerk.h"
#include "src/obs/recorder.h"

namespace frangipani {

LockServer::LockServer(Network* net, NodeId self, Clock* clock, Duration lease_duration)
    : net_(net), self_(self), slots_(clock, lease_duration) {}

LockServer::~LockServer() { net_->UnregisterService(self_, kServiceName); }

StatusOr<Bytes> LockServer::Handle(uint32_t method, const Bytes& request, NodeId from) {
  RETURN_IF_ERROR(Admit());
  Decoder dec(request);
  switch (method) {
    case kLockOpen: {
      std::string table = dec.GetString();
      if (!dec.ok()) {
        return InvalidArgument("bad open");
      }
      ASSIGN_OR_RETURN(uint32_t slot, OpenSlot(table, from));
      Commit();
      FLOG(INFO) << "lockd@" << self_ << ": opened table '" << table << "' slot " << slot
                 << " for node " << from;
      Encoder enc;
      enc.PutU32(slot);
      enc.PutI64(std::chrono::duration_cast<std::chrono::microseconds>(slots_.lease_duration())
                     .count());
      return enc.Take();
    }
    case kLockClose: {
      uint32_t slot = dec.GetU32();
      if (!dec.ok()) {
        return InvalidArgument("bad close");
      }
      RETURN_IF_ERROR(CloseSlot(slot));
      Commit();
      return Bytes{};
    }
    case kLockRenew: {
      uint32_t slot = dec.GetU32();
      if (!dec.ok()) {
        return InvalidArgument("bad renew");
      }
      Encoder enc;
      enc.PutBool(MayRenew(slot) && slots_.Renew(slot));
      return enc.Take();
    }
    case kLockRequest: {
      uint32_t slot = dec.GetU32();
      LockId lock = dec.GetU64();
      LockMode mode = static_cast<LockMode>(dec.GetU8());
      LockRange range{dec.GetU64(), dec.GetU64()};
      if (!dec.ok()) {
        return InvalidArgument("bad request");
      }
      return DoRequest(slot, lock, mode, range);
    }
    case kLockRelease: {
      uint32_t slot = dec.GetU32();
      LockId lock = dec.GetU64();
      LockMode new_mode = static_cast<LockMode>(dec.GetU8());
      LockRange range{dec.GetU64(), dec.GetU64()};
      if (!dec.ok()) {
        return InvalidArgument("bad release");
      }
      RETURN_IF_ERROR(ServesLock(lock));
      ImplicitRenew(slot);
      core_.Release(slot, lock, new_mode, range);
      Commit();
      return Bytes{};
    }
    case kLockAck: {
      uint32_t slot = dec.GetU32();
      LockId lock = dec.GetU64();
      if (!dec.ok()) {
        return InvalidArgument("bad ack");
      }
      ImplicitRenew(slot);
      core_.Ack(slot, lock);
      return Bytes{};
    }
    case kLockGetAssignment: {
      std::vector<NodeId> servers;
      std::array<NodeId, kNumLockGroups> groups{};
      Assignment(&servers, &groups);
      Encoder enc;
      enc.PutU32(static_cast<uint32_t>(servers.size()));
      for (NodeId s : servers) {
        enc.PutU32(s);
      }
      enc.PutU32(kNumLockGroups);
      for (NodeId s : groups) {
        enc.PutU32(s);
      }
      return enc.Take();
    }
    default:
      return InvalidArgument("unknown lockd method");
  }
}

StatusOr<Bytes> LockServer::DoRequest(uint32_t slot, LockId lock, LockMode mode,
                                      LockRange range) {
  RETURN_IF_ERROR(ServesLock(lock));
  if (slots_.Expired(slot)) {
    return StaleLease("lease not live");
  }
  ImplicitRenew(slot);
  // Covers conflict resolution: any revoke chain this grant triggers runs
  // inside (RevokeAt below), so a handoff shows as one nested span tree.
  obs::Span span(obs::Layer::kLock, "lockd.request", self_, nullptr, "lock", lock, "mode",
                 static_cast<uint64_t>(mode));
  LockRange granted;
  RETURN_IF_ERROR(core_.Request(
      slot, lock, mode, range,
      [this](uint32_t holder, LockId l, LockMode m, LockRange r) {
        return RevokeAt(holder, l, m, r);
      },
      [this](uint32_t holder) { HandleDeadHolder(holder); }, &granted));
  Commit();
  obs::RecordInstant(obs::Layer::kLock, "lockd.grant", self_, "lock", lock, "slot", slot);
  Encoder enc;
  enc.PutU64(granted.start);
  enc.PutU64(granted.end);
  return enc.Take();
}

void LockServer::ImplicitRenew(uint32_t slot) {
  static obs::Counter* implicit_renewals =
      obs::MetricsRegistry::Default()->GetCounter("lockd.implicit_renewals");
  if (MayRenew(slot) && slots_.Renew(slot)) {
    implicit_renewals->Increment();
  }
}

Status LockServer::RevokeAt(uint32_t holder, LockId lock, LockMode new_mode, LockRange range) {
  NodeId clerk = slots_.ClerkOf(holder);
  if (clerk == kInvalidNode) {
    return OkStatus();  // slot already gone; core re-checks
  }
  if (slots_.Expired(holder)) {
    // Dead by definition: do not ask the zombie; run recovery instead.
    return Unavailable("holder lease expired");
  }
  obs::Span span(obs::Layer::kLock, "lockd.revoke_rpc", self_, nullptr, "lock", lock,
                 "holder", holder);
  Encoder enc;
  enc.PutU64(lock);
  enc.PutU8(static_cast<uint8_t>(new_mode));
  enc.PutU64(range.start);
  enc.PutU64(range.end);
  return net_->Call(self_, clerk, LockClerk::kServiceName, kClerkRevoke, enc.buffer()).status();
}

void LockServer::HandleDeadHolder(uint32_t holder) {
  {
    std::unique_lock<std::mutex> lk(recovery_mu_);
    if (recovering_.count(holder) > 0) {
      // Another thread is already driving recovery for this slot.
      recovery_cv_.wait(lk, [&] { return recovering_.count(holder) == 0; });
      return;
    }
    if (!slots_.IsOpen(holder)) {
      return;  // already recovered and freed
    }
    if (!slots_.Expired(holder)) {
      // Transient unreachability; the lease is still valid. Let the
      // requester retry the revoke after a short delay.
      lk.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return;
    }
    recovering_.insert(holder);
  }

  bool recovered = false;
  if (ClaimRecovery(holder)) {
    FLOG(WARN) << "lockd@" << self_ << ": slot " << holder
               << " lease expired; initiating log recovery";
    // Ask a live clerk to replay the dead server's log (§6).
    for (int round = 0; round < 8 && !recovered; ++round) {
      for (const auto& [slot, clerk] : slots_.LiveClerks()) {
        if (slot == holder) {
          continue;
        }
        Encoder enc;
        enc.PutU32(holder);
        StatusOr<Bytes> reply =
            net_->Call(self_, clerk, LockClerk::kServiceName, kClerkRecoverSlot, enc.buffer());
        if (reply.ok()) {
          recovered = true;
          break;
        }
        FLOG(DEBUG) << "lockd@" << self_ << ": recovery attempt via clerk slot " << slot
                    << " node " << clerk << " failed: " << reply.status();
      }
      if (!recovered) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  if (recovered) {
    FinishRecovery(holder);
    Commit();
    FLOG(INFO) << "lockd@" << self_ << ": slot " << holder << " recovered and freed";
  }
  {
    std::lock_guard<std::mutex> lk(recovery_mu_);
    recovering_.erase(holder);
  }
  recovery_cv_.notify_all();
}

void LockServer::CheckLeases() {
  for (uint32_t slot : slots_.ExpiredSlots()) {
    HandleDeadHolder(slot);
  }
}

Status LockServer::CloseSlot(uint32_t slot) {
  core_.ReleaseAll(slot);
  slots_.Close(slot);
  return OkStatus();
}

void LockServer::FinishRecovery(uint32_t dead) {
  core_.ReleaseAll(dead);
  slots_.Free(dead);
}

void LockServer::Assignment(std::vector<NodeId>* servers,
                            std::array<NodeId, kNumLockGroups>* groups) {
  // Degenerate single-server assignment, so the same router logic works.
  servers->assign(1, self_);
  groups->fill(self_);
}

void LockServer::InstallFromClerks(const ClerkList& clerks,
                                   const std::function<bool(LockId)>& wanted) {
  for (const auto& [slot, clerk] : clerks) {
    StatusOr<Bytes> reply =
        net_->Call(self_, clerk, LockClerk::kServiceName, kClerkListHeld, Bytes{});
    if (!reply.ok()) {
      continue;  // unreachable clerk: its lease will expire and be recovered
    }
    Decoder dec(reply.value());
    uint32_t reported_slot = dec.GetU32();
    uint32_t count = dec.GetU32();
    for (uint32_t i = 0; i < count; ++i) {
      LockId lock = dec.GetU64();
      LockMode mode = static_cast<LockMode>(dec.GetU8());
      LockRange range{dec.GetU64(), dec.GetU64()};
      if (!dec.ok()) {
        break;
      }
      if (wanted(lock)) {
        core_.Install(reported_slot, lock, mode, range);
      }
    }
  }
}

}  // namespace frangipani
