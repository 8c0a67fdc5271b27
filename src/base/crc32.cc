#include "src/base/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace frangipani {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C polynomial

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t HardwareCrc(const uint8_t* p, size_t n,
                                                       uint32_t crc) {
  // Byte steps up to 8-byte alignment, then one crc32 per 8 bytes.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return crc;
}
#endif

}  // namespace

namespace crc32c_internal {

uint32_t Table(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

bool HardwareSupported() {
#if defined(__x86_64__)
  // __builtin_cpu_init makes the check safe even from a static initializer.
  static const bool supported = (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2"));
  return supported;
#else
  return false;
#endif
}

uint32_t Hardware(const void* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  return ~HardwareCrc(static_cast<const uint8_t*>(data), n, ~seed);
#else
  return Table(data, n, seed);
#endif
}

}  // namespace crc32c_internal

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  return crc32c_internal::HardwareSupported() ? crc32c_internal::Hardware(data, n, seed)
                                              : crc32c_internal::Table(data, n, seed);
}

}  // namespace frangipani
