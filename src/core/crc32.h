#ifndef DAREC_CORE_CRC32_H_
#define DAREC_CORE_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace darec::core {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes.
///
/// `seed` is the running checksum for incremental use:
/// `Crc32(b, Crc32(a)) == Crc32(a ++ b)`. Used by the checkpoint bundle
/// format (ckpt/) to detect torn or bit-flipped sections on load, and by
/// the interaction shards (data/). Takes eight bytes per step
/// (slicing-by-8) from any alignment.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

/// `Crc32(b, crc_a)`, the checksum of a ++ b, computed from `crc_a` =
/// Crc32(a), `crc_b` = Crc32(b) and b's length alone, in O(log size_b)
/// steps without reading b: a writer that already checksummed a block on
/// its own folds it into a running checksum for free.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t size_b);

}  // namespace darec::core

#endif  // DAREC_CORE_CRC32_H_
