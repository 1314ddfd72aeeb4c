//===- tests/TestSnapshot.cpp - Snapshot subsystem tests ---------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot subsystem's contract, from both sides:
///
///  - round-trip property: for every gallery shader, a warm start from a
///    snapshot file renders reader frames bit-identical to the
///    in-process loader+reader run, at one thread and at several;
///  - hostile-input property: truncations at arbitrary lengths, single
///    bit flips, future format versions, and garbage files all fail
///    with a diagnostic — never UB or a crash (CI runs this under
///    ASan+UBSan).
///
//===----------------------------------------------------------------------===//

#include "engine/RenderEngine.h"
#include "shading/ShaderLab.h"
#include "snapshot/Snapshot.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstring>
#include <fstream>

using namespace dspec;

namespace {

bool bitIdentical(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

void expectSameImage(const Framebuffer &A, const Framebuffer &B,
                     const std::string &What) {
  ASSERT_EQ(A.width(), B.width());
  ASSERT_EQ(A.height(), B.height());
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X)
      ASSERT_TRUE(bitIdentical(A.at(X, Y), B.at(X, Y)))
          << What << ": pixel " << X << "," << Y << " differs";
}

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "dspec_" + Name;
}

std::vector<unsigned char> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(In),
                                    std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::vector<unsigned char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Specializes \p Info on its first control, runs the loader over
/// \p Grid, writes a snapshot to \p Path, and renders the in-process
/// reader frame into \p ColdOut. Returns the control vector used.
std::vector<float> buildAndSave(const ShaderInfo &Info, const RenderGrid &Grid,
                                const std::string &Path, Framebuffer *ColdOut,
                                const SpecializerOptions &Options = {}) {
  auto Unit = parseUnit(Info.Source);
  EXPECT_TRUE(Unit->ok()) << Info.Name;
  auto Spec =
      specializeAndCompile(*Unit, Info.Name, {Info.Controls[0].Name}, Options);
  EXPECT_TRUE(Spec.has_value()) << Info.Name;
  auto Controls = ShaderLab::defaultControls(Info);

  RenderEngine Engine(1);
  CacheArena Arena;
  EXPECT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                                Controls, Arena))
      << Engine.lastTrap();
  if (ColdOut) {
    EXPECT_TRUE(Engine.readerPass(Spec->ReaderChunk, Grid, Controls, Arena,
                                  ColdOut))
        << Engine.lastTrap();
  }

  SnapshotMeta Meta = SnapshotMeta::fromOptions(Options);
  Meta.FragmentName = Info.Name;
  Meta.VaryingParams = {Info.Controls[0].Name};
  Meta.GridWidth = Grid.width();
  Meta.GridHeight = Grid.height();
  Meta.Controls = Controls;
  std::string Error;
  EXPECT_TRUE(RenderEngine::saveSnapshot(Path, Meta, Spec->LoaderChunk,
                                         Spec->ReaderChunk, Spec->Spec.Layout,
                                         Arena, &Error))
      << Error;
  return Controls;
}

//===----------------------------------------------------------------------===//
// Round-trip property
//===----------------------------------------------------------------------===//

TEST(Snapshot, GalleryWarmStartIsBitIdentical) {
  RenderGrid Grid(16, 12);
  const std::string Path = tempPath("gallery.dsnap");
  for (const ShaderInfo &Info : shaderGallery()) {
    Framebuffer Cold(Grid.width(), Grid.height());
    auto Controls = buildAndSave(Info, Grid, Path, &Cold);

    std::string Error;
    auto Warm = RenderEngine::fromSnapshot(Path, &Error);
    ASSERT_TRUE(Warm.has_value()) << Info.Name << ": " << Error;
    EXPECT_EQ(Warm->Meta.FragmentName, Info.Name);
    ASSERT_EQ(Warm->Meta.VaryingParams.size(), 1u);
    EXPECT_EQ(Warm->Meta.VaryingParams[0], Info.Controls[0].Name);
    EXPECT_EQ(Warm->Grid.pixelCount(), Grid.pixelCount());
    EXPECT_EQ(Warm->Arena.strideBytes(), Warm->Layout.totalBytes());

    for (unsigned Threads : {1u, 4u}) {
      RenderEngine Engine(Threads);
      Framebuffer WarmFb(Grid.width(), Grid.height());
      ASSERT_TRUE(Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                                    Warm->Arena, &WarmFb))
          << Info.Name << ": " << Engine.lastTrap();
      expectSameImage(Cold, WarmFb,
                      Info.Name + " @" + std::to_string(Threads) + "t");
    }
  }
  std::remove(Path.c_str());
}

TEST(Snapshot, WarmReaderTracksTheVaryingControl) {
  // A warm start is not a frozen image: sweeping the varying control
  // must produce the same frames a cold process would.
  const ShaderInfo *Info = findShader("marble");
  RenderGrid Grid(16, 12);
  const std::string Path = tempPath("sweep.dsnap");
  auto Controls = buildAndSave(*Info, Grid, Path, nullptr);

  auto Unit = parseUnit(Info->Source);
  auto Spec = specializeAndCompile(*Unit, Info->Name, {Info->Controls[0].Name});
  ASSERT_TRUE(Spec.has_value());
  RenderEngine Engine(1);
  CacheArena Arena;
  ASSERT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                                Controls, Arena));

  auto Warm = RenderEngine::fromSnapshot(Path);
  ASSERT_TRUE(Warm.has_value());
  for (float V : {0.1f, 0.55f, 0.9f}) {
    Controls[0] = V;
    Framebuffer Cold(Grid.width(), Grid.height());
    Framebuffer WarmFb(Grid.width(), Grid.height());
    ASSERT_TRUE(
        Engine.readerPass(Spec->ReaderChunk, Grid, Controls, Arena, &Cold));
    ASSERT_TRUE(Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                                  Warm->Arena, &WarmFb));
    expectSameImage(Cold, WarmFb, "ka=" + std::to_string(V));
  }
  std::remove(Path.c_str());
}

TEST(Snapshot, MetaProvenanceRoundTrips) {
  const ShaderInfo *Info = findShader("rings");
  RenderGrid Grid(8, 6);
  const std::string Path = tempPath("meta.dsnap");
  SpecializerOptions Options;
  Options.EnableReassociate = true;
  Options.CacheByteLimit = 16;
  auto Controls = buildAndSave(*Info, Grid, Path, nullptr, Options);

  SpecializationSnapshot Snap;
  std::string Error;
  ASSERT_TRUE(readSnapshotFile(Path, Snap, &Error)) << Error;
  EXPECT_EQ(Snap.Meta.FragmentName, "rings");
  EXPECT_TRUE(Snap.Meta.Reassociate);
  EXPECT_TRUE(Snap.Meta.JoinNormalize);
  EXPECT_FALSE(Snap.Meta.Speculation);
  ASSERT_TRUE(Snap.Meta.CacheByteLimit.has_value());
  EXPECT_EQ(*Snap.Meta.CacheByteLimit, 16u);
  EXPECT_EQ(Snap.Meta.GridWidth, 8u);
  EXPECT_EQ(Snap.Meta.GridHeight, 6u);
  EXPECT_EQ(Snap.Meta.Controls, Controls);
  EXPECT_LE(Snap.Layout.totalBytes(), 16u);
  EXPECT_EQ(Snap.ArenaStride, Snap.Layout.totalBytes());
  std::remove(Path.c_str());
}

/// tests/data/marble_8x6.dsnp was written by `dspec snapshot save
/// --gallery marble --width 8 --height 6` under the byte-at-a-time
/// CRC-32. Reading it back pins the on-disk format and the checksum
/// values across any rewrite of either.
TEST(Snapshot, CommittedFileVerifiesAndWarmStartsBitIdentical) {
  const std::string Path = DSPEC_TEST_DATA_DIR "/marble_8x6.dsnp";
  SpecializationSnapshot Snap;
  std::string Error;
  ASSERT_TRUE(readSnapshotFile(Path, Snap, &Error)) << Error;
  EXPECT_EQ(Snap.Meta.FragmentName, "marble");
  EXPECT_EQ(Snap.Meta.GridWidth, 8u);
  EXPECT_EQ(Snap.Meta.GridHeight, 6u);

  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  RenderGrid Grid(8, 6);
  Framebuffer Fresh(Grid.width(), Grid.height());
  const std::string FreshPath = tempPath("committed_fresh.dsnap");
  auto Controls = buildAndSave(*findShader("marble"), Grid, FreshPath, &Fresh);
  std::remove(FreshPath.c_str());
  ASSERT_EQ(Warm->Meta.Controls, Controls);

  RenderEngine Engine(1);
  Framebuffer WarmFb(Grid.width(), Grid.height());
  ASSERT_TRUE(Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                                Warm->Arena, &WarmFb))
      << Engine.lastTrap();
  expectSameImage(Fresh, WarmFb, "committed marble snapshot");
}

TEST(Snapshot, ArenaPayloadIsAligned) {
  const ShaderInfo *Info = findShader("marble");
  RenderGrid Grid(8, 6);
  const std::string Path = tempPath("aligned.dsnap");
  buildAndSave(*Info, Grid, Path, nullptr);

  SnapshotFileInfo FileInfo;
  std::string Error;
  ASSERT_TRUE(inspectSnapshotFile(Path, FileInfo, &Error)) << Error;
  EXPECT_EQ(FileInfo.FormatVersion, kSnapshotFormatVersion);
  ASSERT_EQ(FileInfo.Sections.size(), 5u);
  bool SawArena = false;
  for (const SnapshotSectionInfo &S : FileInfo.Sections) {
    EXPECT_TRUE(S.CrcOk) << snapshotSectionName(S.Id);
    if (S.Id == static_cast<uint32_t>(SnapshotSection::Arena)) {
      SawArena = true;
      EXPECT_EQ(S.Offset % 64, 0u) << "ARENA payload must be 64-byte aligned";
    }
  }
  EXPECT_TRUE(SawArena);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Hostile input: diagnostics, never crashes
//===----------------------------------------------------------------------===//

/// Fixture holding one pristine snapshot image for corruption tests.
class SnapshotCorruption : public ::testing::Test {
protected:
  void SetUp() override {
    // One file per test: ctest runs tests in parallel processes.
    Path = tempPath(std::string("corrupt_") +
                    testing::UnitTest::GetInstance()->current_test_info()
                        ->name() +
                    ".dsnap");
    buildAndSave(*findShader("marble"), RenderGrid(8, 6), Path, nullptr);
    Pristine = slurp(Path);
    ASSERT_GT(Pristine.size(), 200u);
  }
  void TearDown() override { std::remove(Path.c_str()); }

  /// Expects both entry points to reject the current file contents.
  void expectRejected(const std::string &What) {
    SpecializationSnapshot Snap;
    std::string Error;
    EXPECT_FALSE(readSnapshotFile(Path, Snap, &Error)) << What;
    EXPECT_FALSE(Error.empty()) << What;
    std::string WarmError;
    EXPECT_FALSE(RenderEngine::fromSnapshot(Path, &WarmError).has_value())
        << What;
    EXPECT_FALSE(WarmError.empty()) << What;
  }

  std::string Path;
  std::vector<unsigned char> Pristine;
};

TEST_F(SnapshotCorruption, TruncationAtAnyLengthFailsCleanly) {
  std::vector<size_t> Lengths;
  // Every length through the header and section table, then a coarse
  // sweep of the payload region, then one byte short of valid.
  for (size_t L = 0; L < 200; ++L)
    Lengths.push_back(L);
  for (size_t L = 200; L < Pristine.size(); L += 509)
    Lengths.push_back(L);
  Lengths.push_back(Pristine.size() - 1);

  for (size_t Len : Lengths) {
    spit(Path, std::vector<unsigned char>(Pristine.begin(),
                                          Pristine.begin() + Len));
    expectRejected("truncated to " + std::to_string(Len) + " bytes");
  }
}

TEST_F(SnapshotCorruption, SingleBitFlipsAreDetectedOrHarmless) {
  // Bytes covered by a validity check: the 16-byte header, the section
  // table minus each entry's reserved field, and every section payload.
  // Flips there must be rejected; flips elsewhere (alignment padding)
  // must merely not crash.
  SnapshotFileInfo FileInfo;
  ASSERT_TRUE(inspectSnapshotFile(Path, FileInfo, nullptr));
  auto isChecked = [&](size_t Offset) {
    if (Offset < 16)
      return true;
    const size_t TableEnd = 16 + FileInfo.Sections.size() * 28;
    if (Offset < TableEnd) {
      size_t InEntry = (Offset - 16) % 28;
      return InEntry < 4 || InEntry >= 8; // skip the reserved u32
    }
    for (const SnapshotSectionInfo &S : FileInfo.Sections)
      if (Offset >= S.Offset && Offset < S.Offset + S.Bytes)
        return true;
    return false;
  };

  std::vector<size_t> Offsets;
  for (size_t O = 0; O < 200; ++O)
    Offsets.push_back(O);
  for (size_t O = 200; O < Pristine.size(); O += 131)
    Offsets.push_back(O);

  for (size_t Offset : Offsets) {
    auto Image = Pristine;
    Image[Offset] ^= 0x04;
    spit(Path, Image);
    if (isChecked(Offset)) {
      expectRejected("bit flip at offset " + std::to_string(Offset));
    } else {
      // Padding byte: load may succeed, but must still be well-formed.
      SpecializationSnapshot Snap;
      std::string Error;
      if (readSnapshotFile(Path, Snap, &Error)) {
        EXPECT_EQ(Snap.ArenaBytes.size(),
                  static_cast<size_t>(Snap.ArenaPixels) * Snap.ArenaStride);
      }
    }
  }
}

TEST_F(SnapshotCorruption, FutureFormatVersionIsRejected) {
  auto Image = Pristine;
  uint32_t Bumped = kSnapshotFormatVersion + 1;
  std::memcpy(Image.data() + 8, &Bumped, sizeof(Bumped));
  spit(Path, Image);
  SpecializationSnapshot Snap;
  std::string Error;
  EXPECT_FALSE(readSnapshotFile(Path, Snap, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST_F(SnapshotCorruption, WrongMagicIsRejected) {
  auto Image = Pristine;
  Image[0] = 'X';
  spit(Path, Image);
  SpecializationSnapshot Snap;
  std::string Error;
  EXPECT_FALSE(readSnapshotFile(Path, Snap, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST_F(SnapshotCorruption, GarbageFilesAreRejected) {
  // Deterministic pseudo-random garbage, with and without a real magic.
  std::vector<unsigned char> Garbage(4096);
  uint32_t State = 0x2545F491u;
  for (unsigned char &B : Garbage) {
    State = State * 1664525u + 1013904223u;
    B = static_cast<unsigned char>(State >> 24);
  }
  spit(Path, Garbage);
  expectRejected("random garbage");

  std::memcpy(Garbage.data(), kSnapshotMagic, sizeof(kSnapshotMagic));
  uint32_t Version = kSnapshotFormatVersion;
  std::memcpy(Garbage.data() + 8, &Version, sizeof(Version));
  spit(Path, Garbage);
  expectRejected("garbage with a valid header prefix");
}

TEST(Snapshot, MissingFileIsADiagnostic) {
  SpecializationSnapshot Snap;
  std::string Error;
  EXPECT_FALSE(readSnapshotFile(tempPath("does_not_exist.dsnap"), Snap,
                                &Error));
  EXPECT_FALSE(Error.empty());
  std::string WarmError;
  EXPECT_FALSE(RenderEngine::fromSnapshot(tempPath("does_not_exist.dsnap"),
                                          &WarmError)
                   .has_value());
  EXPECT_FALSE(WarmError.empty());
}

TEST(Snapshot, WriterRefusesInconsistentState) {
  // A minimal well-formed snapshot, broken one field at a time.
  auto makeValid = [] {
    SpecializationSnapshot Snap;
    Snap.Meta.FragmentName = "tiny";
    Snap.Meta.GridWidth = 2;
    Snap.Meta.GridHeight = 2;
    Snap.Layout.addSlot(Type(TypeKind::TK_Float));
    Chunk C;
    C.Name = "tiny";
    C.Constants.push_back(Value::makeFloat(1.0f));
    C.Code.push_back({OpCode::OC_Const, 0, 0, 0});
    C.Code.push_back({OpCode::OC_Return, 0, 0, 0});
    C.ReturnType = Type(TypeKind::TK_Float);
    Snap.Loader = C;
    Snap.Reader = C;
    Snap.ArenaPixels = 4;
    Snap.ArenaStride = Snap.Layout.totalBytes();
    Snap.ArenaBytes.assign(size_t(4) * Snap.ArenaStride, 0);
    return Snap;
  };
  const std::string Path = tempPath("writer.dsnap");
  std::string Error;

  ASSERT_TRUE(writeSnapshotFile(Path, makeValid(), &Error)) << Error;

  auto BadStride = makeValid();
  BadStride.ArenaStride += 4;
  BadStride.ArenaBytes.assign(size_t(4) * BadStride.ArenaStride, 0);
  EXPECT_FALSE(writeSnapshotFile(Path, BadStride, &Error));

  auto BadBytes = makeValid();
  BadBytes.ArenaBytes.pop_back();
  EXPECT_FALSE(writeSnapshotFile(Path, BadBytes, &Error));

  auto BadGrid = makeValid();
  BadGrid.Meta.GridWidth = 3;
  EXPECT_FALSE(writeSnapshotFile(Path, BadGrid, &Error));

  auto BadChunk = makeValid();
  BadChunk.Reader.Code.clear();
  BadChunk.Reader.Code.push_back({OpCode::OC_Const, 99, 0, 0});
  BadChunk.Reader.Code.push_back({OpCode::OC_Return, 0, 0, 0});
  EXPECT_FALSE(writeSnapshotFile(Path, BadChunk, &Error));
  EXPECT_NE(Error.find("broken chunk"), std::string::npos) << Error;

  std::remove(Path.c_str());
}

TEST(Snapshot, ArenaRestoreRejectsWrongSize) {
  CacheLayout Layout;
  Layout.addSlot(Type(TypeKind::TK_Vec3));
  std::vector<unsigned char> Bytes(Layout.totalBytes() * 3, 0xAB);
  CacheArena Arena;
  EXPECT_FALSE(Arena.restore(4, Layout, Bytes.data(), Bytes.size()));
  EXPECT_EQ(Arena.pixelCount(), 0u);
  EXPECT_TRUE(Arena.restore(3, Layout, Bytes.data(), Bytes.size()));
  EXPECT_EQ(Arena.pixelCount(), 3u);
  EXPECT_EQ(Arena.strideBytes(), Layout.totalBytes());
  EXPECT_EQ(std::memcmp(Arena.raw(), Bytes.data(), Bytes.size()), 0);
}

} // namespace
