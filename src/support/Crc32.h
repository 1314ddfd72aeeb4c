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
/// request. On x86-64 CPUs with PCLMULQDQ and SSE4.1, inputs of 64 bytes
/// or more are folded 64 bytes a step with carry-less multiplies; the
/// kernel is chosen once per process, so the default build stays at the
/// x86-64 baseline. Shorter inputs, the last 15 bytes or fewer, and
/// every other CPU take portable slicing-by-16. Both give the values of
/// the textbook byte-at-a-time loop.
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

namespace detail {
/// crc32() through the slicing-by-16 loop alone, whatever the CPU, so
/// tests can hold the table path to the same values on long inputs.
uint32_t crc32Sliced(const void *Data, size_t Size, uint32_t Seed = 0);
} // namespace detail

} // namespace dspec

#endif // DATASPEC_SUPPORT_CRC32_H
