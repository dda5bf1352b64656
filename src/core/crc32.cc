#include "core/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace darec::core {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

/// Slicing-by-8 tables (Kounavis & Berry, 2005). Row 0 is the classic
/// byte-at-a-time table; row k maps a byte to the CRC contribution it makes
/// with k more bytes behind it, so eight independent lookups advance the
/// checksum by eight bytes.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

/// a(x)·b(x) mod P(x), polynomials over GF(2) in the reflected order of the
/// checksum (bit 31 holds x^0).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

/// kPowers[k] = x^(2^k) mod P(x), enough for any 64-bit bit count.
constexpr std::array<uint32_t, 67> BuildPowers() {
  std::array<uint32_t, 67> powers{};
  powers[0] = 1u << 30;  // x^1
  for (size_t k = 1; k < powers.size(); ++k) {
    powers[k] = MultModP(powers[k - 1], powers[k - 1]);
  }
  return powers;
}

constexpr std::array<uint32_t, 67> kPowers = BuildPowers();

/// The next eight bytes as a little-endian word, from any alignment.
uint64_t LoadLittleEndian64(const unsigned char* bytes) {
  uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, bytes, sizeof(word));
  } else {
    for (int i = 7; i >= 0; --i) word = (word << 8) | bytes[i];
  }
  return word;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint64_t word = LoadLittleEndian64(bytes) ^ crc;
    crc = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
          kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
          kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
          kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t size_b) {
  // Appending b shifts a's remainder by x^(8·size_b) and adds b's; the
  // pre- and post-inversions of the two checksums cancel in the sum.
  uint32_t shift = 1u << 31;  // x^0
  for (size_t k = 3; size_b != 0; size_b >>= 1, ++k) {
    if (size_b & 1u) shift = MultModP(kPowers[k], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

}  // namespace darec::core
