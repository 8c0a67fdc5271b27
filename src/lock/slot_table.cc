#include "src/lock/slot_table.h"

namespace frangipani {

StatusOr<uint32_t> SlotTable::Open(const std::string& table, NodeId clerk) {
  std::lock_guard<std::mutex> guard(mu_);
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (!slots_[s].open) {
      slots_[s].open = true;
      slots_[s].table = table;
      slots_[s].clerk = clerk;
      slots_[s].last_renew = clock_->Now();
      return s;
    }
  }
  return ResourceExhausted("no free lease slots (256 servers already mounted)");
}

void SlotTable::Close(uint32_t slot) { Free(slot); }

void SlotTable::Free(uint32_t slot) {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot < kNumLeaseSlots) {
    slots_[slot] = Slot{};
  }
}

bool SlotTable::Renew(uint32_t slot) {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot >= kNumLeaseSlots || !slots_[slot].open) {
    return false;
  }
  Slot& s = slots_[slot];
  if (clock_->Now() > s.last_renew + lease_duration_) {
    return false;  // too late: the service already considers this clerk failed
  }
  s.last_renew = clock_->Now();
  return true;
}

bool SlotTable::IsOpen(uint32_t slot) const {
  std::lock_guard<std::mutex> guard(mu_);
  return slot < kNumLeaseSlots && slots_[slot].open;
}

bool SlotTable::Expired(uint32_t slot) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot >= kNumLeaseSlots || !slots_[slot].open) {
    return true;
  }
  return clock_->Now() > slots_[slot].last_renew + lease_duration_;
}

NodeId SlotTable::ClerkOf(uint32_t slot) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot >= kNumLeaseSlots || !slots_[slot].open) {
    return kInvalidNode;
  }
  return slots_[slot].clerk;
}

std::vector<std::pair<uint32_t, NodeId>> SlotTable::LiveClerks() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::pair<uint32_t, NodeId>> out;
  TimePoint now = clock_->Now();
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (slots_[s].open && now <= slots_[s].last_renew + lease_duration_) {
      out.emplace_back(s, slots_[s].clerk);
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, NodeId>> SlotTable::OpenClerks() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::pair<uint32_t, NodeId>> out;
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (slots_[s].open) {
      out.emplace_back(s, slots_[s].clerk);
    }
  }
  return out;
}

std::vector<uint32_t> SlotTable::ExpiredSlots() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<uint32_t> out;
  TimePoint now = clock_->Now();
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (slots_[s].open && now > slots_[s].last_renew + lease_duration_) {
      out.push_back(s);
    }
  }
  return out;
}

void SlotTable::InstallOpen(uint32_t slot, const std::string& table, NodeId clerk) {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot >= kNumLeaseSlots) {
    return;
  }
  slots_[slot].open = true;
  slots_[slot].table = table;
  slots_[slot].clerk = clerk;
  slots_[slot].last_renew = clock_->Now();
}

void SlotTable::Encode(Encoder& enc) const {
  std::lock_guard<std::mutex> guard(mu_);
  uint32_t n = 0;
  for (const Slot& s : slots_) {
    if (s.open) {
      ++n;
    }
  }
  enc.PutU32(n);
  for (uint32_t i = 0; i < kNumLeaseSlots; ++i) {
    if (slots_[i].open) {
      enc.PutU32(i);
      enc.PutString(slots_[i].table);
      enc.PutU32(slots_[i].clerk);
    }
  }
}

void SlotTable::DecodeInto(Decoder& dec) {
  uint32_t n = dec.GetU32();
  TimePoint now = clock_->Now();
  std::lock_guard<std::mutex> guard(mu_);
  slots_.fill(Slot{});
  for (uint32_t i = 0; i < n && dec.ok(); ++i) {
    uint32_t slot = dec.GetU32();
    std::string table = dec.GetString();
    NodeId clerk = dec.GetU32();
    if (slot < kNumLeaseSlots) {
      slots_[slot] = Slot{true, table, clerk, now};
    }
  }
}

}  // namespace frangipani
