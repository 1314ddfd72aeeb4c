//===- support/Crc32.cpp - CRC-32 checksums ----------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DSPEC_CRC32_FOLD 1
#include <immintrin.h>
#endif

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

/// Runs the CRC register \p C over \p Size bytes, 16 bytes a step
/// through the slicing tables, then a byte at a time.
uint32_t crcSliced(const unsigned char *P, size_t Size, uint32_t C) {
  const auto &T = Tables.T;
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
  return C;
}

#ifdef DSPEC_CRC32_FOLD

#define DSPEC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

DSPEC_FOLD_TARGET inline __m128i load128(const unsigned char *P) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
}

/// One fold step: carries the 128-bit remainder \p X forward past the
/// distance whose two constants \p K holds (the low half multiplies X's
/// low 64 bits, the high half its high 64 bits) and adds \p Next.
DSPEC_FOLD_TARGET inline __m128i fold(__m128i X, __m128i K, __m128i Next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X, K, 0x00),
                                     _mm_clmulepi64_si128(X, K, 0x11)),
                       Next);
}

/// Runs the CRC register \p C over \p Size bytes, Size >= 64 and a
/// multiple of 16, with carry-less multiplies: four 128-bit lanes fold
/// 64 bytes a step, the lanes fold into one, the rest folds 16 bytes a
/// step, and a Barrett reduction takes the remainder to 32 bits
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel, 2009). The constants are the paper's
/// for the reflected polynomial: k1,k2 fold by 512 bits, k3,k4 by 128,
/// k5 takes 96 bits to 64, and P' and mu drive the reduction.
DSPEC_FOLD_TARGET uint32_t crcFolded(const unsigned char *P, size_t Size,
                                     uint32_t C) {
  const __m128i K1K2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i K3K4 = _mm_set_epi64x(0xccaa009e, 0x1751997d0);
  const __m128i K5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i PolyMu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i Low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i X0 =
      _mm_xor_si128(load128(P), _mm_cvtsi32_si128(static_cast<int>(C)));
  __m128i X1 = load128(P + 16);
  __m128i X2 = load128(P + 32);
  __m128i X3 = load128(P + 48);
  for (P += 64, Size -= 64; Size >= 64; P += 64, Size -= 64) {
    X0 = fold(X0, K1K2, load128(P));
    X1 = fold(X1, K1K2, load128(P + 16));
    X2 = fold(X2, K1K2, load128(P + 32));
    X3 = fold(X3, K1K2, load128(P + 48));
  }
  X0 = fold(X0, K3K4, X1);
  X0 = fold(X0, K3K4, X2);
  X0 = fold(X0, K3K4, X3);
  for (; Size >= 16; P += 16, Size -= 16)
    X0 = fold(X0, K3K4, load128(P));

  // 128 bits to 96 (k4), 96 to 64 (k5).
  X0 = _mm_xor_si128(_mm_clmulepi64_si128(X0, K3K4, 0x10),
                     _mm_srli_si128(X0, 8));
  X0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(X0, Low32), K5, 0x00),
      _mm_srli_si128(X0, 4));
  // Barrett: the quotient from mu, then the remainder from P'.
  __m128i Q = _mm_clmulepi64_si128(_mm_and_si128(X0, Low32), PolyMu, 0x10);
  Q = _mm_clmulepi64_si128(_mm_and_si128(Q, Low32), PolyMu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(X0, Q), 1));
}

/// Chosen once, at load. A crc32() that runs before this initializer (a
/// static constructor in another file) reads false and slices: slower,
/// never wrong.
const bool CanFold = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();

#endif // DSPEC_CRC32_FOLD

} // namespace

uint32_t dspec::crc32(const void *Data, size_t Size, uint32_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint32_t C = Seed ^ 0xFFFFFFFFu;
#ifdef DSPEC_CRC32_FOLD
  if (Size >= 64 && CanFold) {
    size_t Folded = Size & ~size_t(15);
    C = crcFolded(P, Folded, C);
    P += Folded;
    Size -= Folded;
  }
#endif
  return crcSliced(P, Size, C) ^ 0xFFFFFFFFu;
}

uint32_t dspec::detail::crc32Sliced(const void *Data, size_t Size,
                                    uint32_t Seed) {
  return crcSliced(static_cast<const unsigned char *>(Data), Size,
                   Seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}
