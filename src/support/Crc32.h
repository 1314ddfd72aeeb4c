//===- support/Crc32.h - CRC-32 checksums -----------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant). It checksums
/// every DSPF frame the service sends or receives and every snapshot
/// and spill file section, so it runs over hundreds of kilobytes per
/// request. Portable slicing-by-16: the same values as the textbook
/// byte-at-a-time loop, several times faster.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SUPPORT_CRC32_H
#define DATASPEC_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>

namespace dspec {

/// CRC-32 of \p Size bytes at \p Data. \p Seed allows incremental use:
/// crc32(B, crc32(A)) == crc32(A ++ B).
uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0);

} // namespace dspec

#endif // DATASPEC_SUPPORT_CRC32_H
