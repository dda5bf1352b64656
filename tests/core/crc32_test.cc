#include "core/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace darec::core {
namespace {

/// The byte-at-a-time CRC-32 (reflected 0xEDB88320), bit by bit: the
/// reference every optimized path must reproduce.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

/// Deterministic bytes that exercise every table entry.
std::vector<unsigned char> PatternBytes(size_t size) {
  std::vector<unsigned char> bytes(size);
  uint32_t state = 0x12345678u;
  for (unsigned char& byte : bytes) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<unsigned char>(state >> 24);
  }
  return bytes;
}

TEST(Crc32Test, IeeeCheckValueAndEmptyInput) {
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
  // An empty continuation leaves a running checksum unchanged.
  EXPECT_EQ(Crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsAtEverySplitPoint) {
  const std::vector<unsigned char> bytes = PatternBytes(100);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, CombineMatchesTheChecksumOfTheConcatenation) {
  const std::vector<unsigned char> bytes = PatternBytes(100);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    const uint32_t tail = Crc32(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(Crc32Combine(head, tail, bytes.size() - split), whole)
        << "split at " << split;
  }
  // Long tails take every power-of-two step of the shift.
  const std::vector<unsigned char> big = PatternBytes((3u << 20) + 5);
  for (size_t split : {size_t{0}, size_t{1}, size_t{4096}, big.size() - 1}) {
    const uint32_t head = Crc32(big.data(), split);
    const uint32_t tail = Crc32(big.data() + split, big.size() - split);
    EXPECT_EQ(Crc32Combine(head, tail, big.size() - split),
              Crc32(big.data(), big.size()))
        << "split at " << split;
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = PatternBytes(300 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      const unsigned char* data = bytes.data() + offset;
      ASSERT_EQ(Crc32(data, size), ReferenceCrc32(data, size, 0))
          << "offset " << offset << ", size " << size;
      ASSERT_EQ(Crc32(data, size, 0xDEADBEEFu),
                ReferenceCrc32(data, size, 0xDEADBEEFu))
          << "seeded, offset " << offset << ", size " << size;
    }
  }
}

}  // namespace
}  // namespace darec::core
