#include "src/petal/phys_disk.h"

#include <algorithm>
#include <thread>

namespace frangipani {

void PhysDisk::Charge(uint64_t pos, size_t bytes, bool is_write) {
  bool timing_enabled;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (is_write) {
      bytes_written_ += bytes;
    } else {
      bytes_read_ += bytes;
    }
    timing_enabled = params_.timing_enabled;
  }
  if (!timing_enabled) {
    return;
  }
  if (is_write && params_.nvram) {
    // NVRAM write-behind: the card absorbs bursts up to its capacity and
    // destages to the platter at the transfer rate (no positioning cost:
    // the controller schedules destage). A writer only waits once it is
    // more than one card's worth ahead of the destage stream.
    TimePoint deadline = xfer_.Acquire(bytes);
    auto burst = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(params_.nvram_bytes / params_.transfer_bps));
    if (deadline - burst > std::chrono::steady_clock::now()) {
      std::this_thread::sleep_until(deadline - burst);
    }
    return;
  }
  bool sequential;
  {
    std::lock_guard<std::mutex> guard(mu_);
    // Treat anything within one chunk of the previous access end as part of
    // the same physical locality (no repositioning).
    sequential = last_end_ != ~0ull && pos >= last_end_ - std::min<uint64_t>(last_end_, 1 << 16) &&
                 pos <= last_end_ + (1 << 16);
    last_end_ = pos + bytes;
  }
  // Positioning counts from now, also when the transfer rate is unlimited
  // (Acquire then returns kNoReservation, which is before now).
  TimePoint now = std::chrono::steady_clock::now();
  TimePoint deadline = std::max(xfer_.Acquire(bytes), now);
  if (!sequential) {
    deadline += params_.seek_time;
  }
  if (deadline > now) {
    std::this_thread::sleep_until(deadline);
  }
}

void PhysDisk::ChargeWrite(uint64_t pos, size_t bytes) { Charge(pos, bytes, true); }
void PhysDisk::ChargeRead(uint64_t pos, size_t bytes) { Charge(pos, bytes, false); }

void PhysDisk::set_nvram(bool on) {
  std::lock_guard<std::mutex> guard(mu_);
  params_.nvram = on;
}

bool PhysDisk::nvram() const {
  std::lock_guard<std::mutex> guard(mu_);
  return params_.nvram;
}

void PhysDisk::set_timing(bool on) {
  std::lock_guard<std::mutex> guard(mu_);
  params_.timing_enabled = on;
}

uint64_t PhysDisk::bytes_written() const {
  std::lock_guard<std::mutex> guard(mu_);
  return bytes_written_;
}

uint64_t PhysDisk::bytes_read() const {
  std::lock_guard<std::mutex> guard(mu_);
  return bytes_read_;
}

}  // namespace frangipani
