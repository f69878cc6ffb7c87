#ifndef HEPQUERY_FILEIO_CRC32_H_
#define HEPQUERY_FILEIO_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace hepq {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Every column chunk on disk
/// carries a checksum so the reader can detect corruption. `seed` chains:
/// Crc32(b, |b|, Crc32(a, |a|)) == Crc32(a || b), which the writer's chunk
/// CRC over its pages relies on.
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

}  // namespace hepq

#endif  // HEPQUERY_FILEIO_CRC32_H_
