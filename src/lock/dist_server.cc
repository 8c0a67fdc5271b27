#include "src/lock/dist_server.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/serial.h"

namespace frangipani {

Bytes LockCommand::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutU32(server);
  enc.PutU64(nonce);
  enc.PutString(table);
  enc.PutU32(clerk);
  enc.PutU32(slot);
  return enc.Take();
}

StatusOr<LockCommand> LockCommand::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockCommand cmd;
  cmd.kind = static_cast<LockCmdKind>(dec.GetU8());
  cmd.server = dec.GetU32();
  cmd.nonce = dec.GetU64();
  cmd.table = dec.GetString();
  cmd.clerk = dec.GetU32();
  cmd.slot = dec.GetU32();
  if (!dec.ok()) {
    return InvalidArgument("malformed lock command");
  }
  return cmd;
}

void RebalanceGroups(LockGlobalState& state) {
  size_t n = state.servers.size();
  if (n == 0) {
    state.assignment.fill(kInvalidNode);
    return;
  }
  auto is_active = [&](NodeId s) {
    return std::find(state.servers.begin(), state.servers.end(), s) != state.servers.end();
  };
  // Desired per-server counts: within one of each other, deterministic order.
  size_t base = kNumLockGroups / n;
  size_t rem = kNumLockGroups % n;
  std::map<NodeId, size_t> desired;
  for (size_t i = 0; i < n; ++i) {
    desired[state.servers[i]] = base + (i < rem ? 1 : 0);
  }
  std::map<NodeId, size_t> have;
  // Pass 1: keep valid assignments up to the desired count; orphan the rest.
  std::vector<uint32_t> pool;
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    NodeId s = state.assignment[g];
    if (s != kInvalidNode && is_active(s) && have[s] < desired[s]) {
      ++have[s];
    } else {
      pool.push_back(g);
    }
  }
  // Pass 2: hand pooled groups to servers below their desired count.
  size_t si = 0;
  for (uint32_t g : pool) {
    while (have[state.servers[si]] >= desired[state.servers[si]]) {
      si = (si + 1) % n;
    }
    state.assignment[g] = state.servers[si];
    ++have[state.servers[si]];
  }
}

DistLockServer::DistLockServer(Network* net, NodeId self, std::vector<NodeId> paxos_group,
                               std::vector<NodeId> initial_active,
                               PaxosDurableState* paxos_state, Clock* clock,
                               Duration lease_duration)
    : LockServer(net, self, clock, lease_duration) {
  state_.servers = std::move(initial_active);
  state_.assignment.fill(kInvalidNode);
  state_.recovery_claim.fill(kInvalidNode);
  RebalanceGroups(state_);
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    if (state_.assignment[g] == self_) {
      cold_groups_.insert(g);
    }
  }
  paxos_ = std::make_unique<PaxosPeer>(
      net_, self_, std::move(paxos_group), paxos_state,
      [this](uint64_t index, const Bytes& cmd) { OnApply(index, cmd); });
  net_->RegisterService(self_, kServiceName, this);
  paxos_->CatchUp();
}

DistLockServer::~DistLockServer() {
  net_->UnregisterService(self_, kServiceName);
  net_->UnregisterService(self_, PaxosPeer::kServiceName);
}

void DistLockServer::OnApply(uint64_t index, const Bytes& raw) {
  StatusOr<LockCommand> cmd = LockCommand::Decode(raw);
  if (!cmd.ok()) {
    FLOG(ERROR) << "dist-lockd: dropping malformed command at " << index;
    return;
  }
  std::lock_guard<std::mutex> guard(mu_);
  switch (cmd->kind) {
    case LockCmdKind::kAddServer:
    case LockCmdKind::kRemoveServer: {
      auto it = std::find(state_.servers.begin(), state_.servers.end(), cmd->server);
      if (cmd->kind == LockCmdKind::kAddServer && it == state_.servers.end()) {
        state_.servers.push_back(cmd->server);
      } else if (cmd->kind == LockCmdKind::kRemoveServer && it != state_.servers.end()) {
        state_.servers.erase(it);
      } else {
        break;  // no-op; assignment unchanged
      }
      std::array<NodeId, kNumLockGroups> before = state_.assignment;
      RebalanceGroups(state_);
      for (uint32_t g = 0; g < kNumLockGroups; ++g) {
        if (state_.assignment[g] == self_ && before[g] != self_) {
          cold_groups_.insert(g);  // phase 2: must recover state from clerks
        }
      }
      break;
    }
    case LockCmdKind::kOpenClerk: {
      // Every replica applies the same opens and frees in the same order, so
      // the table's lowest-free-slot choice agrees everywhere.
      StatusOr<uint32_t> slot = slots_.Open(cmd->table, cmd->clerk);
      if (cmd->nonce != 0) {
        nonce_slots_[cmd->nonce] = slot.ok() ? *slot : kInvalidSlot;
        cv_.notify_all();
      }
      break;
    }
    case LockCmdKind::kCloseClerk: {
      if (cmd->slot < kNumLeaseSlots) {
        core_.ReleaseAll(cmd->slot);
        slots_.Close(cmd->slot);
      }
      break;
    }
    case LockCmdKind::kClaimRecovery: {
      if (cmd->slot < kNumLeaseSlots && slots_.IsOpen(cmd->slot) &&
          state_.recovery_claim[cmd->slot] == kInvalidNode) {
        state_.recovery_claim[cmd->slot] = cmd->server;
      }
      cv_.notify_all();
      break;
    }
    case LockCmdKind::kSlotRecovered: {
      if (cmd->slot < kNumLeaseSlots) {
        core_.ReleaseAll(cmd->slot);
        slots_.Free(cmd->slot);
        state_.recovery_claim[cmd->slot] = kInvalidNode;
      }
      cv_.notify_all();
      break;
    }
  }
}

Status DistLockServer::ProposeAddServer(NodeId server) {
  LockCommand cmd;
  cmd.kind = LockCmdKind::kAddServer;
  cmd.server = server;
  return paxos_->Propose(cmd.Encode()).status();
}

Status DistLockServer::ProposeRemoveServer(NodeId server) {
  LockCommand cmd;
  cmd.kind = LockCmdKind::kRemoveServer;
  cmd.server = server;
  return paxos_->Propose(cmd.Encode()).status();
}

LockGlobalState DistLockServer::StateSnapshot() const {
  std::lock_guard<std::mutex> guard(mu_);
  return state_;
}

StatusOr<uint32_t> DistLockServer::OpenSlot(const std::string& table, NodeId clerk) {
  LockCommand cmd;
  cmd.kind = LockCmdKind::kOpenClerk;
  cmd.table = table;
  cmd.clerk = clerk;
  {
    std::lock_guard<std::mutex> guard(mu_);
    cmd.nonce = (static_cast<uint64_t>(self_) << 40) | next_nonce_++;
  }
  RETURN_IF_ERROR(paxos_->Propose(cmd.Encode()).status());
  std::unique_lock<std::mutex> lk(mu_);
  bool done = cv_.wait_for(lk, std::chrono::seconds(10),
                           [&] { return nonce_slots_.count(cmd.nonce) > 0; });
  if (!done) {
    return DeadlineExceeded("open not applied");
  }
  uint32_t slot = nonce_slots_[cmd.nonce];
  if (slot == kInvalidSlot) {
    return ResourceExhausted("no free lease slots");
  }
  return slot;
}

Status DistLockServer::CloseSlot(uint32_t slot) {
  LockCommand cmd;
  cmd.kind = LockCmdKind::kCloseClerk;
  cmd.slot = slot;
  return paxos_->Propose(cmd.Encode()).status();
}

bool DistLockServer::MayRenew(uint32_t slot) {
  std::lock_guard<std::mutex> guard(mu_);
  return slot < kNumLeaseSlots && state_.recovery_claim[slot] == kInvalidNode;
}

Status DistLockServer::ServesLock(LockId lock) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (state_.assignment[LockGroupOf(lock)] != self_) {
      return FailedPrecondition("lock group not served here");
    }
  }
  WarmColdGroups();
  return OkStatus();
}

void DistLockServer::Assignment(std::vector<NodeId>* servers,
                                std::array<NodeId, kNumLockGroups>* groups) {
  std::lock_guard<std::mutex> guard(mu_);
  *servers = state_.servers;
  *groups = state_.assignment;
}

void DistLockServer::WarmColdGroups() {
  std::unique_lock<std::mutex> lk(mu_);
  if (cold_groups_.empty()) {
    return;
  }
  if (warming_) {
    cv_.wait(lk, [&] { return !warming_; });
    return;
  }
  warming_ = true;
  std::set<uint32_t> groups = cold_groups_;
  lk.unlock();

  InstallFromClerks(slots_.OpenClerks(),
                    [&](LockId lock) { return groups.count(LockGroupOf(lock)) > 0; });

  lk.lock();
  for (uint32_t g : groups) {
    cold_groups_.erase(g);
  }
  warming_ = false;
  lk.unlock();
  cv_.notify_all();
}

bool DistLockServer::ClaimRecovery(uint32_t dead) {
  // Claim the recovery so only one demon replays this log (§6: the recovery
  // demon holds an exclusive lock on the log; here the claim is replicated).
  LockCommand claim;
  claim.kind = LockCmdKind::kClaimRecovery;
  claim.slot = dead;
  claim.server = self_;
  (void)paxos_->Propose(claim.Encode());
  std::unique_lock<std::mutex> lk(mu_);
  NodeId claimed_by = state_.recovery_claim[dead];
  if (slots_.IsOpen(dead) && (claimed_by == self_ || claimed_by == kInvalidNode)) {
    return true;
  }
  // Someone else drives it (or it's done). Wait until the slot is freed.
  cv_.wait_for(lk, std::chrono::seconds(30), [&] { return !slots_.IsOpen(dead); });
  return false;
}

void DistLockServer::FinishRecovery(uint32_t dead) {
  LockCommand done;
  done.kind = LockCmdKind::kSlotRecovered;
  done.slot = dead;
  (void)paxos_->Propose(done.Encode());
}

void DistLockServer::FailureDetectTick(int threshold) {
  std::vector<NodeId> peers;
  {
    std::lock_guard<std::mutex> guard(mu_);
    peers = state_.servers;
  }
  for (NodeId peer : peers) {
    if (peer == self_) {
      continue;
    }
    StatusOr<Bytes> r = net_->Call(self_, peer, kServiceName, kLockGetAssignment, Bytes{});
    std::unique_lock<std::mutex> lk(mu_);
    if (r.ok()) {
      ping_failures_[peer] = 0;
      continue;
    }
    int fails = ++ping_failures_[peer];
    lk.unlock();
    if (fails >= threshold) {
      FLOG(WARN) << "dist-lockd@" << self_ << ": peer " << peer << " missed " << fails
                 << " pings; proposing removal";
      (void)ProposeRemoveServer(peer);
      std::lock_guard<std::mutex> guard(mu_);
      ping_failures_[peer] = 0;
    }
  }
}

}  // namespace frangipani
