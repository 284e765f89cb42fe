#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ckptfi {
namespace {

TEST(Crc32, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  const std::string s1 = "123456789";
  EXPECT_EQ(crc32(s1.data(), s1.size()), 0xcbf43926u);
  const std::string s2 = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(s2.data(), s2.size()), 0x414fa339u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string s = "hello, incremental world";
  const auto full = crc32(s.data(), s.size());
  auto partial = crc32(s.data(), 5);
  partial = crc32(s.data() + 5, s.size() - 5, partial);
  EXPECT_EQ(partial, full);
}

// Byte-at-a-time reference: the textbook reflected IEEE CRC-32, kept here so
// the sliced implementation is checked against an independent oracle.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t len,
                             std::uint32_t crc = 0) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next_u64() >> 56);
  return out;
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> buf = random_bytes(4096 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, SlicedMatchesBytewiseUnderChainedUpdates) {
  const std::vector<unsigned char> buf = random_bytes(20000, 11);
  Rng rng(13);
  for (int round = 0; round < 200; ++round) {
    // Split the buffer at random points, seeding each update with the last.
    std::uint32_t sliced = 0;
    std::uint32_t bytewise = 0;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      const std::size_t n =
          std::min<std::size_t>(rng.next_u64() % 37, buf.size() - pos);
      sliced = crc32(buf.data() + pos, n, sliced);
      bytewise = crc32_bytewise(buf.data() + pos, n, bytewise);
      ASSERT_EQ(sliced, bytewise) << "round " << round << " at " << pos;
      pos += n;
    }
    ASSERT_EQ(sliced, crc32(buf.data(), buf.size()));
  }
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::string s = "checkpoint-bytes";
  const auto before = crc32(s.data(), s.size());
  s[4] = static_cast<char>(s[4] ^ 0x10);
  EXPECT_NE(crc32(s.data(), s.size()), before);
}

}  // namespace
}  // namespace ckptfi
