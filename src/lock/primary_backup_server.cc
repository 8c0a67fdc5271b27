#include "src/lock/primary_backup_server.h"

#include "src/base/logging.h"

namespace frangipani {

PrimaryBackupLockServer::PrimaryBackupLockServer(Network* net, NodeId self, NodeId peer,
                                                 bool start_active, PetalClient* petal,
                                                 VdiskId state_vdisk, Clock* clock,
                                                 Duration lease_duration)
    : LockServer(net, self, clock, lease_duration),
      peer_(peer),
      petal_(petal),
      state_vdisk_(state_vdisk),
      active_(start_active) {
  net_->RegisterService(self_, kServiceName, this);
}

Status PrimaryBackupLockServer::Admit() {
  if (active_.load()) {
    return OkStatus();
  }
  StatusOr<Bytes> ping = net_->Call(self_, peer_, kServiceName, kLockGetAssignment, Bytes{});
  if (ping.ok()) {
    return Unavailable("standby lock server; use primary");
  }
  std::lock_guard<std::mutex> guard(activate_mu_);
  if (!active_.load()) {
    RETURN_IF_ERROR(LoadState());
    active_.store(true);
    FLOG(INFO) << "pb-lockd@" << self_ << ": activated (took over lock service)";
  }
  return OkStatus();
}

void PrimaryBackupLockServer::Commit() {
  Encoder enc;
  slots_.Encode(enc);
  std::vector<LockCore::DumpEntry> dump = core_.Dump();
  enc.PutU32(static_cast<uint32_t>(dump.size()));
  for (const LockCore::DumpEntry& d : dump) {
    enc.PutU64(d.lock);
    enc.PutU32(d.slot);
    enc.PutU8(static_cast<uint8_t>(d.mode));
    enc.PutU64(d.range.start);
    enc.PutU64(d.range.end);
  }
  Encoder framed;
  framed.PutU32(static_cast<uint32_t>(enc.size()));
  framed.PutRaw(enc.buffer().data(), enc.size());
  std::lock_guard<std::mutex> guard(persist_mu_);
  Status st = petal_->Write(state_vdisk_, 0, framed.buffer());
  if (!st.ok()) {
    FLOG(WARN) << "pb-lockd@" << self_ << ": state persist failed: " << st;
  }
}

Status PrimaryBackupLockServer::LoadState() {
  Bytes header;
  RETURN_IF_ERROR(petal_->Read(state_vdisk_, 0, 4, &header));
  Decoder hdec(header);
  uint32_t size = hdec.GetU32();
  if (size == 0) {
    return OkStatus();  // fresh installation
  }
  Bytes blob;
  RETURN_IF_ERROR(petal_->Read(state_vdisk_, 4, size, &blob));
  Decoder dec(blob);
  slots_.DecodeInto(dec);
  core_.Clear();
  uint32_t count = dec.GetU32();
  for (uint32_t i = 0; i < count && dec.ok(); ++i) {
    LockId lock = dec.GetU64();
    uint32_t slot = dec.GetU32();
    LockMode mode = static_cast<LockMode>(dec.GetU8());
    LockRange range{dec.GetU64(), dec.GetU64()};
    if (dec.ok()) {
      core_.Install(slot, lock, mode, range);
    }
  }
  if (!dec.ok()) {
    return DataLoss("corrupt lock state blob");
  }
  return OkStatus();
}

}  // namespace frangipani
