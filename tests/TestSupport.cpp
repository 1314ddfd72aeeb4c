//===- tests/TestSupport.cpp - Support library tests ------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Crc32.h"
#include "support/Diagnostics.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <vector>

using namespace dspec;

namespace {

TEST(Arena, AllocatesAndAligns) {
  Arena A;
  int *I = A.create<int>(42);
  double *D = A.create<double>(3.5);
  EXPECT_EQ(*I, 42);
  EXPECT_EQ(*D, 3.5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(D) % alignof(double), 0u);
  EXPECT_GE(A.bytesAllocated(), sizeof(int) + sizeof(double));
}

TEST(Arena, RunsDestructors) {
  static int Destroyed = 0;
  struct Probe {
    ~Probe() { ++Destroyed; }
  };
  Destroyed = 0;
  {
    Arena A;
    A.create<Probe>();
    A.create<Probe>();
    A.create<int>(1); // trivially destructible: not registered
  }
  EXPECT_EQ(Destroyed, 2);
}

TEST(Arena, GrowsAcrossSlabs) {
  Arena A;
  for (int I = 0; I < 10000; ++I)
    A.create<std::array<char, 64>>();
  EXPECT_GT(A.slabCount(), 1u);
}

TEST(Arena, ResetReleasesEverything) {
  static int Destroyed = 0;
  struct Probe {
    ~Probe() { ++Destroyed; }
  };
  Destroyed = 0;
  Arena A;
  A.create<Probe>();
  A.reset();
  EXPECT_EQ(Destroyed, 1);
  EXPECT_EQ(A.bytesAllocated(), 0u);
}

TEST(Arena, HandlesOversizedAllocations) {
  Arena A;
  void *Big = A.allocate(1 << 20, 16);
  EXPECT_NE(Big, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Big) % 16, 0u);
}

struct CastBase {
  enum class Kind { A, B } K;
  explicit CastBase(Kind K) : K(K) {}
};
struct CastA : CastBase {
  CastA() : CastBase(Kind::A) {}
  static bool classof(const CastBase *B) { return B->K == Kind::A; }
};
struct CastB : CastBase {
  CastB() : CastBase(Kind::B) {}
  static bool classof(const CastBase *B) { return B->K == Kind::B; }
};

TEST(Casting, IsaCastDynCast) {
  CastA A;
  CastBase *Base = &A;
  EXPECT_TRUE(isa<CastA>(Base));
  EXPECT_FALSE(isa<CastB>(Base));
  EXPECT_TRUE((isa<CastB, CastA>(Base)));
  EXPECT_EQ(cast<CastA>(Base), &A);
  EXPECT_EQ(dyn_cast<CastB>(Base), nullptr);
  EXPECT_NE(dyn_cast<CastA>(Base), nullptr);
  CastBase *Null = nullptr;
  EXPECT_FALSE(isa_and_nonnull<CastA>(Null));
  EXPECT_EQ(dyn_cast_or_null<CastA>(Null), nullptr);
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 2), "watch out");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(3, 4), "boom");
  Diags.note(SourceLoc(), "context");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
  std::string Text = Diags.str();
  EXPECT_NE(Text.find("error: 3:4: boom"), std::string::npos);
  EXPECT_NE(Text.find("warning: 1:2: watch out"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(StringUtil, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("empty"), "empty");
  // Long outputs are not truncated.
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()).size(), 500u);
}

TEST(StringUtil, FormatFloatRoundTrips) {
  for (float V : {0.0f, 1.0f, -1.5f, 0.1f, 3.14159265f, 1e-8f, 2.5e10f}) {
    std::string Text = formatFloat(V);
    EXPECT_EQ(std::strtof(Text.c_str(), nullptr), V) << Text;
  }
}

TEST(StringUtil, FormatFloatLexesAsFloat) {
  EXPECT_EQ(formatFloat(2.0f), "2.0");
  EXPECT_EQ(formatFloat(-3.0f), "-3.0");
  EXPECT_NE(formatFloat(1e20f).find('e'), std::string::npos);
}

TEST(StringUtil, SplitTrimJoin) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(trimString("  hi \n"), "hi");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(SourceLoc, Validity) {
  SourceLoc Invalid;
  EXPECT_FALSE(Invalid.isValid());
  EXPECT_EQ(Invalid.str(), "<unknown>");
  SourceLoc Loc(7, 3);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "7:3");
  EXPECT_TRUE(Loc == SourceLoc(7, 3));
  EXPECT_TRUE(Loc != SourceLoc(7, 4));
}

//===----------------------------------------------------------------------===//
// CRC-32
//===----------------------------------------------------------------------===//

/// The textbook one-byte-per-step CRC-32 (reflected 0xEDB88320), kept
/// here as the oracle both of the library's kernels must match.
uint32_t bytewiseCrc32(const unsigned char *Data, size_t Size,
                       uint32_t Seed = 0) {
  uint32_t C = Seed ^ 0xFFFFFFFFu;
  for (size_t I = 0; I < Size; ++I) {
    C ^= Data[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> randomBytes(size_t Size, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::vector<unsigned char> Bytes(Size);
  for (unsigned char &B : Bytes)
    B = static_cast<unsigned char>(Rng());
  return Bytes;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32("", 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32, SeedChainsAtEverySplitPoint) {
  std::vector<unsigned char> Buf = randomBytes(1024, 1);
  uint32_t Whole = crc32(Buf.data(), Buf.size());
  for (size_t Split = 0; Split <= Buf.size(); ++Split)
    ASSERT_EQ(crc32(Buf.data() + Split, Buf.size() - Split,
                    crc32(Buf.data(), Split)),
              Whole)
        << "split at " << Split;
}

/// Offsets 0-15 and lengths 0-320 cross the carry-less fold's 64-byte
/// entry, every 16-byte fold after it and every tail length, from both
/// a zero and a nonzero seed; the sliced kernel is held to the same.
TEST(Crc32, MatchesBytewiseReferenceAtEveryAlignment) {
  std::vector<unsigned char> Buf = randomBytes(16 + 320, 2);
  for (uint32_t Seed : {0u, 0x9E3779B9u})
    for (size_t Offset = 0; Offset < 16; ++Offset)
      for (size_t Length = 0; Length <= 320; ++Length) {
        const unsigned char *P = Buf.data() + Offset;
        uint32_t Expected = bytewiseCrc32(P, Length, Seed);
        ASSERT_EQ(crc32(P, Length, Seed), Expected)
            << "offset " << Offset << ", length " << Length << ", seed "
            << Seed;
        ASSERT_EQ(detail::crc32Sliced(P, Length, Seed), Expected)
            << "sliced, offset " << Offset << ", length " << Length
            << ", seed " << Seed;
      }
}

/// A 160x120 reply frame and a perfbench spill arena: on a CPU that folds,
/// crc32() takes the fold there and this keeps the table path agreeing
/// with it on long inputs.
TEST(Crc32, FoldedAndSlicedAgree) {
  std::mt19937 Rng(4);
  for (size_t Size : {size_t(230442), size_t(419108)}) {
    std::vector<unsigned char> Buf = randomBytes(Size, Rng());
    for (uint32_t Seed : {0u, static_cast<uint32_t>(Rng())})
      EXPECT_EQ(crc32(Buf.data(), Buf.size(), Seed),
                detail::crc32Sliced(Buf.data(), Buf.size(), Seed))
          << Size << " bytes, seed " << Seed;
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnLargeBuffers) {
  std::mt19937 Rng(3);
  for (size_t Size : {size_t(4095), size_t(65536 + 7), size_t(1) << 20}) {
    std::vector<unsigned char> Buf = randomBytes(Size, Rng());
    uint32_t Seed = Rng();
    EXPECT_EQ(crc32(Buf.data(), Buf.size(), Seed),
              bytewiseCrc32(Buf.data(), Buf.size(), Seed))
        << Size << " bytes";
  }
}

} // namespace
