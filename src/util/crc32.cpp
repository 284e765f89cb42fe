#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace ckptfi {
namespace {

// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table for the
// reflected IEEE polynomial; t[k][b] is the CRC of byte b followed by k zero
// bytes, so eight table lookups advance the CRC by eight input bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

// The word loads below feed bytes to the tables in memory order only on a
// little-endian host (mh5 payloads make the same assumption).
static_assert(std::endian::native == std::endian::little);

// memcpy keeps the unaligned load alignment- and aliasing-safe.
std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc) {
  static const Tables t = make_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = load32(p) ^ crc;
    const std::uint32_t hi = load32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace ckptfi
