// CRC-32C (Castagnoli). Used to checksum log records so torn or garbage log
// sectors are detected during recovery. On x86-64 CPUs with SSE4.2 the
// checksum runs on the crc32 instruction, eight bytes at a time; elsewhere a
// byte-at-a-time table computes the same values.
#ifndef SRC_BASE_CRC32_H_
#define SRC_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace frangipani {

uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// The two implementations behind Crc32c, exposed so tests can check that
// they agree.
namespace crc32c_internal {

uint32_t Table(const void* data, size_t n, uint32_t seed);
// True when this CPU and build can run Hardware().
bool HardwareSupported();
uint32_t Hardware(const void* data, size_t n, uint32_t seed);

}  // namespace crc32c_internal
}  // namespace frangipani

#endif  // SRC_BASE_CRC32_H_
