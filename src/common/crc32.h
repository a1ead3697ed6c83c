#ifndef DECIBEL_COMMON_CRC32_H_
#define DECIBEL_COMMON_CRC32_H_

/// \file crc32.h
/// CRC-32 (IEEE 802.3 polynomial) used to checksum pages, commit-history
/// records and git-like objects so corruption surfaces as Status errors
/// instead of silent wrong answers.
///
/// On x86-64 CPUs with PCLMULQDQ, inputs of 64 bytes or more take a
/// carry-less-multiply folding kernel chosen at runtime; everything else
/// takes slice-by-8 tables. Both produce the same value, so the choice
/// never shows in a persisted checksum.

#include <cstdint>

#include "common/slice.h"

namespace decibel {

/// Computes the CRC-32 of \p data, continuing from \p seed (0 for a fresh
/// checksum).
uint32_t Crc32(Slice data, uint32_t seed = 0);

namespace internal {
/// The table-driven path alone, whatever the CPU. Tests check Crc32
/// against it; everything else calls Crc32.
uint32_t Crc32Portable(Slice data, uint32_t seed = 0);
}  // namespace internal

/// Masked CRC in the RocksDB style: storing a CRC of data that itself
/// contains CRCs is error-prone, so persisted checksums are masked.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace decibel

#endif  // DECIBEL_COMMON_CRC32_H_
