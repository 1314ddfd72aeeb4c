//===- support/Crc32.cpp - CRC-32 checksums ----------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"

using namespace dspec;

namespace {

/// Slicing-by-16 tables for the reflected IEEE 802.3 polynomial (the one
/// zlib and PNG use). T[0] is the classic byte-at-a-time table; T[K][N]
/// is the CRC contribution of byte N followed by K zero bytes, so one
/// step folds 16 input bytes through 16 independent lookups.
struct SliceTables {
  uint32_t T[16][256];
};

constexpr SliceTables makeTables() {
  SliceTables S{};
  for (uint32_t N = 0; N < 256; ++N) {
    uint32_t C = N;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    S.T[0][N] = C;
  }
  for (int K = 1; K < 16; ++K)
    for (uint32_t N = 0; N < 256; ++N)
      S.T[K][N] = (S.T[K - 1][N] >> 8) ^ S.T[0][S.T[K - 1][N] & 0xFFu];
  return S;
}

constexpr SliceTables Tables = makeTables();

/// Little-endian load, written bytewise so it is correct on any host
/// (compilers fold it into one load where the host allows).
inline uint32_t loadLE32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

} // namespace

uint32_t dspec::crc32(const void *Data, size_t Size, uint32_t Seed) {
  const auto &T = Tables.T;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint32_t C = Seed ^ 0xFFFFFFFFu;
  for (; Size >= 16; P += 16, Size -= 16) {
    uint32_t A = loadLE32(P) ^ C;
    uint32_t B = loadLE32(P + 4);
    uint32_t D = loadLE32(P + 8);
    uint32_t E = loadLE32(P + 12);
    C = T[15][A & 0xFF] ^ T[14][(A >> 8) & 0xFF] ^ T[13][(A >> 16) & 0xFF] ^
        T[12][A >> 24] ^ T[11][B & 0xFF] ^ T[10][(B >> 8) & 0xFF] ^
        T[9][(B >> 16) & 0xFF] ^ T[8][B >> 24] ^ T[7][D & 0xFF] ^
        T[6][(D >> 8) & 0xFF] ^ T[5][(D >> 16) & 0xFF] ^ T[4][D >> 24] ^
        T[3][E & 0xFF] ^ T[2][(E >> 8) & 0xFF] ^ T[1][(E >> 16) & 0xFF] ^
        T[0][E >> 24];
  }
  for (; Size > 0; ++P, --Size)
    C = T[0][(C ^ *P) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}
