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
///    ASan+UBSan);
///  - files written by earlier builds (version 1, or with a VARIANTS
///    section) still load, warm-start and serve bit-identically.
///
//===----------------------------------------------------------------------===//

#include "engine/RenderEngine.h"
#include "service/Service.h"
#include "service/SpillStore.h"
#include "shading/ShaderLab.h"
#include "snapshot/Snapshot.h"
#include "specialize/LayoutSerde.h"
#include "support/ByteStream.h"
#include "vm/Serde.h"

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

/// Where section-table entry \p Index starts in a file image.
size_t tableEntry(size_t Index) { return 16 + Index * 28; }

/// The table index of section \p Id in \p Info.
size_t sectionIndex(const SnapshotFileInfo &Info, SnapshotSection Id) {
  for (size_t I = 0; I < Info.Sections.size(); ++I)
    if (Info.Sections[I].Id == static_cast<uint32_t>(Id))
      return I;
  ADD_FAILURE() << "no " << snapshotSectionName(static_cast<uint32_t>(Id))
                << " section";
  return 0;
}

/// \p Image with its payloads stored in \p Order, each at a 64-byte
/// aligned offset. The table keeps its entries' order, ids, sizes and
/// CRCs; only their offsets change.
std::vector<unsigned char> withPayloadOrder(
    const std::vector<unsigned char> &Image, const SnapshotFileInfo &Info,
    const std::vector<SnapshotSection> &Order) {
  std::vector<unsigned char> Out(Image.begin(),
                                 Image.begin() + tableEntry(Info.Sections.size()));
  for (SnapshotSection Id : Order) {
    size_t Index = sectionIndex(Info, Id);
    const SnapshotSectionInfo &S = Info.Sections[Index];
    Out.resize((Out.size() + 63) / 64 * 64, 0);
    uint64_t Offset = Out.size();
    std::memcpy(Out.data() + tableEntry(Index) + 8, &Offset, sizeof(Offset));
    Out.insert(Out.end(), Image.begin() + S.Offset,
               Image.begin() + S.Offset + S.Bytes);
  }
  return Out;
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

/// Sections are found through the table, not by position: a file whose
/// ARENA payload comes first loads the snapshot the writer saved, byte
/// for byte, and warm-starts bit-identically.
TEST(Snapshot, ArenaAheadOfTheOtherSectionsLoadsBitIdentically) {
  const ShaderInfo *Info = findShader("wood");
  ASSERT_NE(Info, nullptr);
  RenderGrid Grid(12, 8);
  const std::string Path = tempPath("arena_first.dsnap");
  Framebuffer Cold(Grid.width(), Grid.height());
  auto Controls = buildAndSave(*Info, Grid, Path, &Cold);
  SpecializationSnapshot Written;
  SnapshotFileInfo FileInfo;
  std::string Error;
  ASSERT_TRUE(readSnapshotFile(Path, Written, &Error)) << Error;
  ASSERT_TRUE(inspectSnapshotFile(Path, FileInfo, &Error)) << Error;

  spit(Path, withPayloadOrder(slurp(Path), FileInfo,
                              {SnapshotSection::Arena, SnapshotSection::Meta,
                               SnapshotSection::Layout, SnapshotSection::Loader,
                               SnapshotSection::Reader}));
  SnapshotFileInfo MovedInfo;
  ASSERT_TRUE(inspectSnapshotFile(Path, MovedInfo, &Error)) << Error;
  EXPECT_LT(MovedInfo.Sections[sectionIndex(MovedInfo, SnapshotSection::Arena)]
                .Offset,
            MovedInfo.Sections[sectionIndex(MovedInfo, SnapshotSection::Meta)]
                .Offset);

  SpecializationSnapshot Moved;
  ASSERT_TRUE(readSnapshotFile(Path, Moved, &Error)) << Error;
  EXPECT_TRUE(Moved.ArenaBytes == Written.ArenaBytes);
  EXPECT_EQ(Moved.ArenaPixels, Written.ArenaPixels);
  EXPECT_EQ(Moved.ArenaStride, Written.ArenaStride);
  EXPECT_EQ(Moved.Meta.FragmentName, Written.Meta.FragmentName);
  EXPECT_EQ(Moved.Meta.Controls, Written.Meta.Controls);
  for (auto [A, B] : {std::pair(&Moved.Loader, &Written.Loader),
                      std::pair(&Moved.Reader, &Written.Reader)}) {
    ByteWriter WA, WB;
    serializeChunk(WA, *A);
    serializeChunk(WB, *B);
    EXPECT_EQ(WA.bytes(), WB.bytes()) << A->Name;
  }

  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  RenderEngine Engine(1);
  Framebuffer WarmFrame(Grid.width(), Grid.height());
  ASSERT_TRUE(Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                                Warm->Arena, &WarmFrame))
      << Engine.lastTrap();
  expectSameImage(Cold, WarmFrame, "arena-first warm start");
  std::remove(Path.c_str());
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
// Files written by earlier builds
//===----------------------------------------------------------------------===//

/// This build writes version 2, byte-identical to version 1 except for
/// the version field (the header carries no CRC), so rewriting that field
/// yields a genuine version-1 file: it must still warm-start.
TEST(Snapshot, VersionOneFilesStillLoad) {
  const ShaderInfo *Info = findShader("stripes");
  ASSERT_NE(Info, nullptr);
  RenderGrid Grid(12, 8);
  const std::string Path = tempPath("v1compat.dsnap");
  Framebuffer Cold(Grid.width(), Grid.height());
  auto Controls = buildAndSave(*Info, Grid, Path, &Cold);

  std::vector<unsigned char> Image = slurp(Path);
  ASSERT_GE(Image.size(), 12u);
  uint32_t Version = 0;
  std::memcpy(&Version, Image.data() + 8, sizeof(Version));
  EXPECT_EQ(Version, 2u);
  const uint32_t V1 = 1;
  std::memcpy(Image.data() + 8, &V1, sizeof(V1));
  spit(Path, Image);

  std::string Error;
  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  RenderEngine Engine(1);
  Framebuffer WarmFrame(Grid.width(), Grid.height());
  ASSERT_TRUE(Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                                Warm->Arena, &WarmFrame))
      << Engine.lastTrap();
  expectSameImage(Cold, WarmFrame, "v1 warm start");
  std::remove(Path.c_str());
}

/// tests/data/marble_8x6_variants.dsnp was written by `dspec snapshot
/// save --gallery marble --width 8 --height 6 --variants 3` while
/// property variants existed: META, LAYOUT, LOADER, READER, a VARIANTS
/// section with two pinned readers, and ARENA. The reader reads past
/// VARIANTS, so the file verifies, warm-starts, and, filed in a spill
/// directory under the key a request for its unit resolves to, restores
/// and serves; every frame matches the plain pass bit for bit.
TEST(Snapshot, VariantsFileLoadsAndServesBitIdentically) {
  const std::string Path = DSPEC_TEST_DATA_DIR "/marble_8x6_variants.dsnp";
  SnapshotFileInfo FileInfo;
  std::string Error;
  ASSERT_TRUE(inspectSnapshotFile(Path, FileInfo, &Error)) << Error;
  ASSERT_EQ(FileInfo.Sections.size(), 6u);
  EXPECT_STREQ(snapshotSectionName(FileInfo.Sections[4].Id), "VARIANTS");
  for (const SnapshotSectionInfo &S : FileInfo.Sections)
    EXPECT_TRUE(S.CrcOk) << snapshotSectionName(S.Id);

  SpecializationSnapshot Snap;
  ASSERT_TRUE(readSnapshotFile(Path, Snap, &Error)) << Error;
  EXPECT_EQ(Snap.Meta.FragmentName, "marble");
  EXPECT_EQ(Snap.Meta.GridWidth, 8u);
  EXPECT_EQ(Snap.Meta.GridHeight, 6u);

  // Frames at a varying value other than the one the loader ran with.
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  std::vector<float> Controls = ShaderLab::defaultControls(*Info);
  ASSERT_EQ(Snap.Meta.Controls, Controls);
  Controls[0] = Info->Controls[0].SweepMax;
  RenderGrid Grid(8, 6);
  auto Unit = parseUnit(Info->Source);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Original = compileFunction(*Unit, Info->Name);
  ASSERT_TRUE(Original.has_value());
  RenderEngine Engine(1);
  Framebuffer Plain(Grid.width(), Grid.height());
  ASSERT_TRUE(Engine.plainPass(*Original, Grid, Controls, &Plain));

  auto Warm = RenderEngine::fromSnapshot(Path, &Error);
  ASSERT_TRUE(Warm.has_value()) << Error;
  Framebuffer WarmFrame(Grid.width(), Grid.height());
  ASSERT_TRUE(Engine.readerPass(Warm->Reader, Warm->Grid, Controls,
                                Warm->Arena, &WarmFrame))
      << Engine.lastTrap();
  expectSameImage(Plain, WarmFrame, "warm start");

  RenderRequest Request;
  Request.Shader = Info->Name;
  Request.Width = Grid.width();
  Request.Height = Grid.height();
  Request.Varying = Snap.Meta.VaryingParams;
  Request.Controls = Controls;
  UnitKey Key;
  Key.Shader = Info->Name;
  Key.InvariantHash = invariantHash(*Info, Request.Width, Request.Height,
                                    Request.Varying, Request.Controls);
  Key.OptionsFingerprint = optionsFingerprint(Request.toOptions());
  ServiceConfig Config;
  Config.SpillDir = tempPath("variants_spill");
  std::string Filed;
  {
    SpillStore Names;
    ASSERT_TRUE(Names.open(Config.SpillDir, /*MaxBytes=*/0, &Error)) << Error;
    Filed = Names.pathFor(Key);
  }
  spit(Filed, slurp(Path));

  SpecializationService Service(Config);
  RenderReply Reply = Service.render(Request);
  ASSERT_TRUE(Reply.ok()) << Reply.Error;
  expectSameImage(Plain, Reply.toFramebuffer(), "spill restore");
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.SpillDiskHits, 1u);
  EXPECT_EQ(Stats.SpillErrors, 0u);
  std::remove(Filed.c_str());
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

TEST_F(SnapshotCorruption, ArenaRunningPastTheEndIsRefused) {
  SnapshotFileInfo FileInfo;
  ASSERT_TRUE(inspectSnapshotFile(Path, FileInfo, nullptr));
  size_t Arena = sectionIndex(FileInfo, SnapshotSection::Arena);
  // One byte past the end, then an offset past the end.
  auto Image = Pristine;
  uint64_t Bytes = FileInfo.Sections[Arena].Bytes + 1;
  std::memcpy(Image.data() + tableEntry(Arena) + 16, &Bytes, sizeof(Bytes));
  spit(Path, Image);
  expectRejected("ARENA one byte longer than the file");
  SpecializationSnapshot Snap;
  std::string Error;
  EXPECT_FALSE(readSnapshotFile(Path, Snap, &Error));
  EXPECT_NE(Error.find("ARENA section lies outside the file"),
            std::string::npos)
      << Error;

  Image = Pristine;
  uint64_t Offset = Pristine.size() + 64;
  std::memcpy(Image.data() + tableEntry(Arena) + 8, &Offset, sizeof(Offset));
  spit(Path, Image);
  expectRejected("ARENA starting past the end of the file");
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
  auto Write = [&](const SpecializationSnapshot &Snap) {
    return writeSnapshotFile(Path,
                             {Snap.Meta, Snap.Loader, Snap.Reader, Snap.Layout,
                              Snap.ArenaPixels, Snap.ArenaStride,
                              Snap.ArenaBytes.data(), Snap.ArenaBytes.size()},
                             &Error);
  };

  ASSERT_TRUE(Write(makeValid())) << Error;

  auto BadStride = makeValid();
  BadStride.ArenaStride += 4;
  BadStride.ArenaBytes.assign(size_t(4) * BadStride.ArenaStride, 0);
  EXPECT_FALSE(Write(BadStride));

  auto BadBytes = makeValid();
  BadBytes.ArenaBytes.pop_back();
  EXPECT_FALSE(Write(BadBytes));

  auto BadGrid = makeValid();
  BadGrid.Meta.GridWidth = 3;
  EXPECT_FALSE(Write(BadGrid));

  auto BadChunk = makeValid();
  BadChunk.Reader.Code.clear();
  BadChunk.Reader.Code.push_back({OpCode::OC_Const, 99, 0, 0});
  BadChunk.Reader.Code.push_back({OpCode::OC_Return, 0, 0, 0});
  EXPECT_FALSE(Write(BadChunk));
  EXPECT_NE(Error.find("broken chunk"), std::string::npos) << Error;

  std::remove(Path.c_str());
}

TEST(Snapshot, ArenaRestoreRejectsWrongSize) {
  CacheLayout Layout;
  Layout.addSlot(Type(TypeKind::TK_Vec3));
  const ArenaBuffer Bytes(Layout.totalBytes() * 3, 0xAB);
  CacheArena Arena;
  EXPECT_FALSE(Arena.restore(4, Layout, ArenaBuffer(Bytes)));
  EXPECT_EQ(Arena.pixelCount(), 0u);
  EXPECT_FALSE(
      Arena.restore(3, Layout, ArenaBuffer(Bytes.begin(), Bytes.end() - 4)));
  EXPECT_EQ(Arena.pixelCount(), 0u);
  EXPECT_TRUE(Arena.restore(3, Layout, ArenaBuffer(Bytes)));
  EXPECT_EQ(Arena.pixelCount(), 3u);
  EXPECT_EQ(Arena.strideBytes(), Layout.totalBytes());
  EXPECT_EQ(std::memcmp(Arena.raw(), Bytes.data(), Bytes.size()), 0);
}

/// A little three-slot layout (float, vec3, float) with the middle slot
/// cold.
CacheLayout threeSlotShape() {
  CacheLayout Shape;
  Shape.addSlot(Type(TypeKind::TK_Float));
  Shape.addSlot(Type(TypeKind::TK_Vec3));
  Shape.addSlot(Type(TypeKind::TK_Float));
  Shape.setReuseWeight(0, 2.0f);
  Shape.setReuseWeight(1, 0.25f); // cold
  Shape.setReuseWeight(2, 1.0f);
  return Shape;
}

TEST(Snapshot, ArenaRestoreAdoptsTheBuffer) {
  CacheLayout Shape = threeSlotShape();
  CacheArena Source(25, Shape);
  for (unsigned P = 0; P < Source.pixelCount(); ++P) {
    CacheView View = Source.view(P);
    for (const CacheSlot &S : Shape.slots())
      View.store(S.Offset,
                 S.SlotType.kind() == TypeKind::TK_Vec3
                     ? Value::makeVec3(P + 0.5f, S.Index + 0.25f, P * 2.0f)
                     : Value::makeFloat(P * 10.0f + S.Index));
  }
  ArenaBuffer Bytes = Source.canonicalBytes();

  // No copy: same backing pointer, same slots.
  const unsigned char *Donor = Bytes.data();
  CacheArena Adopted;
  ASSERT_TRUE(Adopted.restore(25, Shape, std::move(Bytes)));
  EXPECT_EQ(Adopted.raw(), Donor);
  for (unsigned P = 0; P < 25; ++P) {
    std::vector<Value> Want = Source.decode(P), Got = Adopted.decode(P);
    ASSERT_EQ(Want.size(), Got.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_TRUE(bitIdentical(Want[I], Got[I]))
          << "pixel " << P << " slot " << I;
  }
}

//===----------------------------------------------------------------------===//
// Layout serde: reuse weights across processes
//===----------------------------------------------------------------------===//

TEST(Snapshot, LayoutSerdeCarriesReuseWeights) {
  CacheLayout Layout = threeSlotShape();
  ByteWriter Writer;
  serializeLayout(Writer, Layout);

  ByteReader Reader(Writer.bytes());
  CacheLayout Back;
  std::string Error;
  ASSERT_TRUE(deserializeLayout(Reader, Back, Error)) << Error;
  ASSERT_EQ(Back.slotCount(), Layout.slotCount());
  EXPECT_EQ(Back.totalBytes(), Layout.totalBytes());
  EXPECT_EQ(Back.hotBytes(), Layout.hotBytes());
  for (unsigned I = 0; I < Back.slotCount(); ++I) {
    EXPECT_EQ(Back.slot(I).Offset, Layout.slot(I).Offset);
    EXPECT_FLOAT_EQ(Back.slot(I).ReuseWeight, Layout.slot(I).ReuseWeight);
  }
}

TEST(Snapshot, VersionOneLayoutsDecodeAllHot) {
  // Hand-build a version-1 payload: slots + total, no weights tail.
  CacheLayout Layout = threeSlotShape();
  ByteWriter Writer;
  Writer.writeU32(Layout.slotCount());
  for (const CacheSlot &Slot : Layout.slots()) {
    Writer.writeU8(static_cast<uint8_t>(Slot.SlotType.kind()));
    Writer.writeU32(Slot.Offset);
  }
  Writer.writeU32(Layout.totalBytes());

  ByteReader Reader(Writer.bytes());
  CacheLayout Back;
  std::string Error;
  ASSERT_TRUE(deserializeLayout(Reader, Back, Error, /*Version=*/1)) << Error;
  ASSERT_EQ(Back.slotCount(), Layout.slotCount());
  // Pre-weights payloads decode as "unknown", which counts as hot.
  EXPECT_EQ(Back.hotBytes(), Back.totalBytes());
  for (unsigned I = 0; I < Back.slotCount(); ++I) {
    EXPECT_LT(Back.slot(I).ReuseWeight, 0.0f);
    EXPECT_FALSE(Back.slot(I).isCold());
  }
}

} // namespace
