//===- snapshot/Snapshot.cpp - Persisted specialization snapshots ------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"

#include "specialize/LayoutSerde.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"
#include "vm/Serde.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace dspec;

namespace {

constexpr size_t kHeaderBytes = 16;
constexpr size_t kTableEntryBytes = 28;
constexpr size_t kArenaAlignment = 64;
/// Snapshots hold one shader's programs plus one grid's caches; a file
/// claiming more than this is not one of ours.
constexpr uint64_t kMaxFileBytes = 1ull << 30;
constexpr uint32_t kMaxSections = 64;
/// No-limit encoding of SnapshotMeta::CacheByteLimit.
constexpr uint32_t kNoCacheLimit = 0xFFFFFFFFu;

bool setError(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = "snapshot: " + Message;
  return false;
}

/// A snapshot file opened for reads at known offsets, so each section
/// lands straight in the buffer that keeps it.
class SnapshotFile {
public:
  SnapshotFile() = default;
  SnapshotFile(const SnapshotFile &) = delete;
  SnapshotFile &operator=(const SnapshotFile &) = delete;
  ~SnapshotFile() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool open(const std::string &InPath, std::string *Error) {
    Path = InPath;
    Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0)
      return setError(Error, "cannot open '" + Path + "'");
    struct stat St;
    if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode) ||
        static_cast<uint64_t>(St.st_size) > kMaxFileBytes)
      return setError(Error, "'" + Path + "' is not a plausible snapshot size");
    Size = static_cast<uint64_t>(St.st_size);
    return true;
  }

  uint64_t size() const { return Size; }

  /// Reads exactly \p Bytes at \p Offset into \p Out.
  bool readAt(uint64_t Offset, void *Out, size_t Bytes,
              std::string *Error) const {
    auto *Dest = static_cast<unsigned char *>(Out);
    while (Bytes > 0) {
      ssize_t Got = ::pread(Fd, Dest, Bytes, static_cast<off_t>(Offset));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0)
        return setError(Error, "short read from '" + Path + "'");
      Dest += Got;
      Offset += static_cast<uint64_t>(Got);
      Bytes -= static_cast<size_t>(Got);
    }
    return true;
  }

private:
  std::string Path;
  int Fd = -1;
  uint64_t Size = 0;
};

void serializeMeta(ByteWriter &Writer, const SnapshotParts &Parts) {
  const SnapshotMeta &Meta = Parts.Meta;
  Writer.writeU32(kChunkSerdeVersion);
  Writer.writeU32(kLayoutSerdeVersion);
  Writer.writeString(Meta.FragmentName);
  Writer.writeU32(static_cast<uint32_t>(Meta.VaryingParams.size()));
  for (const std::string &Name : Meta.VaryingParams)
    Writer.writeString(Name);
  Writer.writeU8(Meta.JoinNormalize ? 1 : 0);
  Writer.writeU8(Meta.Reassociate ? 1 : 0);
  Writer.writeU8(Meta.Speculation ? 1 : 0);
  Writer.writeU8(Meta.WeightVictimBySize ? 1 : 0);
  Writer.writeU32(Meta.CacheByteLimit ? *Meta.CacheByteLimit : kNoCacheLimit);
  Writer.writeU32(Meta.GridWidth);
  Writer.writeU32(Meta.GridHeight);
  Writer.writeU32(static_cast<uint32_t>(Meta.Controls.size()));
  for (float Control : Meta.Controls)
    Writer.writeF32(Control);
  Writer.writeU32(Parts.ArenaPixels);
  Writer.writeU32(Parts.ArenaStride);
}

bool deserializeMeta(ByteReader &Reader, SpecializationSnapshot &Snap,
                     uint32_t &LayoutVersionOut, std::string *Error) {
  uint32_t ChunkVersion = Reader.readU32();
  uint32_t LayoutVersion = Reader.readU32();
  if (Reader.ok() && ChunkVersion != kChunkSerdeVersion)
    return setError(Error, "bytecode format version " +
                               std::to_string(ChunkVersion) +
                               " does not match this build (expected " +
                               std::to_string(kChunkSerdeVersion) + ")");
  // Layout encodings are backward compatible down to version 1 (whose
  // layouts simply carry no reuse weights); only future versions are
  // rejected.
  if (Reader.ok() && (LayoutVersion < kMinLayoutSerdeVersion ||
                      LayoutVersion > kLayoutSerdeVersion))
    return setError(Error, "cache layout format version " +
                               std::to_string(LayoutVersion) +
                               " is not supported by this build (expected " +
                               std::to_string(kMinLayoutSerdeVersion) + ".." +
                               std::to_string(kLayoutSerdeVersion) + ")");
  LayoutVersionOut = LayoutVersion;

  SnapshotMeta &Meta = Snap.Meta;
  Meta.FragmentName = Reader.readString();
  uint32_t VaryingCount = Reader.readU32();
  if (Reader.ok() &&
      static_cast<uint64_t>(VaryingCount) * 4 > Reader.remaining())
    Reader.fail("varying parameter count exceeds the remaining data");
  for (uint32_t I = 0; I < VaryingCount && Reader.ok(); ++I)
    Meta.VaryingParams.push_back(Reader.readString());
  Meta.JoinNormalize = Reader.readU8() != 0;
  Meta.Reassociate = Reader.readU8() != 0;
  Meta.Speculation = Reader.readU8() != 0;
  Meta.WeightVictimBySize = Reader.readU8() != 0;
  uint32_t Limit = Reader.readU32();
  Meta.CacheByteLimit =
      Limit == kNoCacheLimit ? std::nullopt : std::optional<unsigned>(Limit);
  Meta.GridWidth = Reader.readU32();
  Meta.GridHeight = Reader.readU32();
  uint32_t ControlCount = Reader.readU32();
  if (Reader.ok() &&
      static_cast<uint64_t>(ControlCount) * 4 > Reader.remaining())
    Reader.fail("control count exceeds the remaining data");
  for (uint32_t I = 0; I < ControlCount && Reader.ok(); ++I)
    Meta.Controls.push_back(Reader.readF32());
  Snap.ArenaPixels = Reader.readU32();
  Snap.ArenaStride = Reader.readU32();

  if (!Reader.ok())
    return setError(Error, "malformed META section: " + Reader.error());
  if (!Reader.atEnd())
    return setError(Error, "trailing bytes in META section");
  return true;
}

/// Parsed header + bounds-validated section table. A section's CrcOk is
/// set once its payload has been read (readSection).
struct ParsedContainer {
  uint32_t FormatVersion = 0;
  std::vector<SnapshotSectionInfo> Sections;

  SnapshotSectionInfo *find(SnapshotSection Id) {
    for (SnapshotSectionInfo &S : Sections)
      if (S.Id == static_cast<uint32_t>(Id))
        return &S;
    return nullptr;
  }
};

/// Reads and validates the header and section table: every section
/// must lie inside the file.
bool parseContainer(const SnapshotFile &File, ParsedContainer &Out,
                    std::string *Error) {
  if (File.size() < kHeaderBytes)
    return setError(Error, "file is too short to hold a snapshot header");
  unsigned char Head[kHeaderBytes];
  if (!File.readAt(0, Head, kHeaderBytes, Error))
    return false;
  if (std::memcmp(Head, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    return setError(Error, "bad magic; not a dataspec snapshot");

  ByteReader Header(Head + sizeof(kSnapshotMagic),
                    kHeaderBytes - sizeof(kSnapshotMagic));
  Out.FormatVersion = Header.readU32();
  uint32_t SectionCount = Header.readU32();
  if (Out.FormatVersion < kMinSnapshotFormatVersion ||
      Out.FormatVersion > kSnapshotFormatVersion)
    return setError(Error, "snapshot format version " +
                               std::to_string(Out.FormatVersion) +
                               " is not supported by this build (expected " +
                               std::to_string(kMinSnapshotFormatVersion) +
                               ".." +
                               std::to_string(kSnapshotFormatVersion) + ")");
  if (SectionCount == 0 || SectionCount > kMaxSections)
    return setError(Error, "implausible section count " +
                               std::to_string(SectionCount));
  uint64_t TableEnd =
      kHeaderBytes + static_cast<uint64_t>(SectionCount) * kTableEntryBytes;
  if (TableEnd > File.size())
    return setError(Error, "section table is truncated");

  std::vector<unsigned char> TableBytes(
      static_cast<size_t>(TableEnd) - kHeaderBytes);
  if (!File.readAt(kHeaderBytes, TableBytes.data(), TableBytes.size(), Error))
    return false;
  ByteReader Table(TableBytes.data(), TableBytes.size());
  for (uint32_t I = 0; I < SectionCount; ++I) {
    SnapshotSectionInfo Section;
    Section.Id = Table.readU32();
    Table.readU32(); // reserved
    Section.Offset = Table.readU64();
    Section.Bytes = Table.readU64();
    Section.StoredCrc = Table.readU32();
    if (Section.Offset < TableEnd || Section.Offset > File.size() ||
        Section.Bytes > File.size() - Section.Offset)
      return setError(Error, std::string(snapshotSectionName(Section.Id)) +
                                 " section lies outside the file");
    Out.Sections.push_back(Section);
  }
  return true;
}

/// Reads \p Section's payload into \p Out and checks its CRC there.
template <typename Buffer>
bool readSection(const SnapshotFile &File, SnapshotSectionInfo &Section,
                 Buffer &Out, std::string *Error) {
  Out.resize(static_cast<size_t>(Section.Bytes));
  if (!File.readAt(Section.Offset, Out.data(), Out.size(), Error))
    return false;
  Section.CrcOk = crc32(Out.data(), Out.size()) == Section.StoredCrc;
  return true;
}

/// Locates a required section and rejects CRC mismatches.
const SnapshotSectionInfo *requireSection(ParsedContainer &Container,
                                          SnapshotSection Id,
                                          std::string *Error) {
  const SnapshotSectionInfo *Section = Container.find(Id);
  const char *Name = snapshotSectionName(static_cast<uint32_t>(Id));
  if (!Section) {
    setError(Error, std::string("missing ") + Name + " section");
    return nullptr;
  }
  if (!Section->CrcOk) {
    setError(Error, std::string(Name) +
                        " section fails its CRC-32 check (corrupt file)");
    return nullptr;
  }
  return Section;
}

} // namespace

const char *dspec::snapshotSectionName(uint32_t Id) {
  switch (static_cast<SnapshotSection>(Id)) {
  case SnapshotSection::Meta:
    return "META";
  case SnapshotSection::Layout:
    return "LAYOUT";
  case SnapshotSection::Loader:
    return "LOADER";
  case SnapshotSection::Reader:
    return "READER";
  case SnapshotSection::Arena:
    return "ARENA";
  case SnapshotSection::Variants:
    return "VARIANTS";
  }
  return "UNKNOWN";
}

SnapshotMeta SnapshotMeta::fromOptions(const SpecializerOptions &Options) {
  SnapshotMeta Meta;
  Meta.JoinNormalize = Options.EnableJoinNormalize;
  Meta.Reassociate = Options.EnableReassociate;
  Meta.Speculation = Options.AllowSpeculation;
  Meta.WeightVictimBySize = Options.WeightVictimBySize;
  Meta.CacheByteLimit = Options.CacheByteLimit;
  return Meta;
}

std::string SnapshotMeta::optionsSummary() const {
  std::string Out = JoinNormalize ? "phi" : "no-phi";
  if (Reassociate)
    Out += ", reassoc";
  if (Speculation)
    Out += ", speculate";
  if (CacheByteLimit)
    Out += ", limit=" + std::to_string(*CacheByteLimit) + "B";
  if (WeightVictimBySize)
    Out += ", weight-by-size";
  return Out;
}

bool dspec::writeSnapshotFile(const std::string &Path,
                              const SnapshotParts &Parts, std::string *Error) {
  // Refuse to persist inconsistent state; the reader enforces the same
  // invariants, so a file we write always loads.
  if (Parts.ArenaStride != Parts.Layout.totalBytes())
    return setError(Error, "arena stride does not match the cache layout");
  if (Parts.ArenaBytes !=
      static_cast<size_t>(Parts.ArenaPixels) * Parts.ArenaStride)
    return setError(Error, "arena byte count does not match pixels x stride");
  if (Parts.Meta.GridWidth * Parts.Meta.GridHeight != Parts.ArenaPixels)
    return setError(Error, "grid dimensions do not match the arena");
  std::string VerifyError;
  if (!verifyChunk(Parts.Loader, VerifyError) ||
      !verifyChunk(Parts.Reader, VerifyError))
    return setError(Error, "refusing to persist a broken chunk: " +
                               VerifyError);

  ByteWriter Meta, Layout, Loader, Reader;
  serializeMeta(Meta, Parts);
  serializeLayout(Layout, Parts.Layout);
  serializeChunk(Loader, Parts.Loader);
  serializeChunk(Reader, Parts.Reader);

  struct Pending {
    SnapshotSection Id;
    const unsigned char *Data;
    size_t Bytes;
  };
  // The arena stays last so its 64-byte alignment padding is the file's
  // only gap.
  const Pending Sections[] = {
      {SnapshotSection::Meta, Meta.bytes().data(), Meta.size()},
      {SnapshotSection::Layout, Layout.bytes().data(), Layout.size()},
      {SnapshotSection::Loader, Loader.bytes().data(), Loader.size()},
      {SnapshotSection::Reader, Reader.bytes().data(), Reader.size()},
      {SnapshotSection::Arena, Parts.Arena, Parts.ArenaBytes},
  };
  constexpr size_t SectionCount = std::size(Sections);

  // The header and section table. Payload offsets run sequentially
  // after the table, with the arena (always last) aligned so an mmap'd
  // file exposes 64-byte-aligned cache strides.
  ByteWriter Head;
  Head.writeBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  Head.writeU32(kSnapshotFormatVersion);
  Head.writeU32(static_cast<uint32_t>(SectionCount));
  uint64_t Offset = kHeaderBytes + SectionCount * kTableEntryBytes;
  uint64_t Offsets[SectionCount];
  for (size_t I = 0; I < SectionCount; ++I) {
    if (Sections[I].Id == SnapshotSection::Arena)
      Offset = (Offset + kArenaAlignment - 1) / kArenaAlignment *
               kArenaAlignment;
    Offsets[I] = Offset;
    Offset += Sections[I].Bytes;
    Head.writeU32(static_cast<uint32_t>(Sections[I].Id));
    Head.writeU32(0); // reserved
    Head.writeU64(Offsets[I]);
    Head.writeU64(Sections[I].Bytes);
    Head.writeU32(crc32(Sections[I].Data, Sections[I].Bytes));
  }

  // Then each payload from its owner's buffer, zero padding where the
  // arena's alignment leaves a gap.
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out)
    return setError(Error, "cannot open '" + Path + "' for writing");
  const unsigned char Zeros[kArenaAlignment] = {};
  uint64_t Written = 0;
  auto Put = [&](const void *Data, size_t Bytes) {
    if (Bytes != 0 && std::fwrite(Data, 1, Bytes, Out) != Bytes)
      return false;
    Written += Bytes;
    return true;
  };
  bool Ok = Put(Head.bytes().data(), Head.size());
  for (size_t I = 0; I < SectionCount && Ok; ++I)
    Ok = Put(Zeros, static_cast<size_t>(Offsets[I] - Written)) &&
         Put(Sections[I].Data, Sections[I].Bytes);
  bool Flushed = std::fclose(Out) == 0;
  if (!Ok || !Flushed)
    return setError(Error, "short write to '" + Path + "'");
  return true;
}

bool dspec::readSnapshotFile(const std::string &Path,
                             SpecializationSnapshot &Out, std::string *Error) {
  Out = SpecializationSnapshot();
  SnapshotFile File;
  ParsedContainer Container;
  if (!File.open(Path, Error) || !parseContainer(File, Container, Error))
    return false;

  // Each section this build decodes is read into its own buffer, the
  // arena into the one a restored unit adopts, so no payload is held or
  // copied twice. A VARIANTS section, from a file written while property
  // variants existed, is not read: parseContainer bounds-checked it, and
  // nothing here needs it.
  const SnapshotSection Decoded[] = {SnapshotSection::Meta,
                                     SnapshotSection::Layout,
                                     SnapshotSection::Loader,
                                     SnapshotSection::Reader};
  std::vector<unsigned char> Payloads[std::size(Decoded)];
  for (size_t I = 0; I < std::size(Decoded); ++I)
    if (SnapshotSectionInfo *S = Container.find(Decoded[I]))
      if (!readSection(File, *S, Payloads[I], Error))
        return false;
  if (SnapshotSectionInfo *S = Container.find(SnapshotSection::Arena))
    if (!readSection(File, *S, Out.ArenaBytes, Error))
      return false;

  const SnapshotSectionInfo *Meta =
      requireSection(Container, SnapshotSection::Meta, Error);
  const SnapshotSectionInfo *Layout =
      requireSection(Container, SnapshotSection::Layout, Error);
  const SnapshotSectionInfo *Loader =
      requireSection(Container, SnapshotSection::Loader, Error);
  const SnapshotSectionInfo *Reader =
      requireSection(Container, SnapshotSection::Reader, Error);
  const SnapshotSectionInfo *Arena =
      requireSection(Container, SnapshotSection::Arena, Error);
  if (!Meta || !Layout || !Loader || !Reader || !Arena)
    return false;

  uint32_t LayoutVersion = kLayoutSerdeVersion;
  {
    ByteReader R(Payloads[0].data(), Payloads[0].size());
    if (!deserializeMeta(R, Out, LayoutVersion, Error))
      return false;
  }
  std::string SectionError;
  {
    ByteReader R(Payloads[1].data(), Payloads[1].size());
    if (!deserializeLayout(R, Out.Layout, SectionError, LayoutVersion))
      return setError(Error, SectionError);
  }
  {
    ByteReader R(Payloads[2].data(), Payloads[2].size());
    if (!deserializeChunk(R, Out.Loader, SectionError))
      return setError(Error, "LOADER section: " + SectionError);
  }
  {
    ByteReader R(Payloads[3].data(), Payloads[3].size());
    if (!deserializeChunk(R, Out.Reader, SectionError))
      return setError(Error, "READER section: " + SectionError);
  }

  // Cross-section consistency: the layout is authoritative; the arena
  // and both chunks must agree with it.
  if (Out.ArenaStride != Out.Layout.totalBytes())
    return setError(Error, "arena stride " + std::to_string(Out.ArenaStride) +
                               " does not match the cache layout (" +
                               std::to_string(Out.Layout.totalBytes()) +
                               " bytes)");
  // Bounds the procedural grid a warm start rebuilds (the arena section
  // itself cannot vouch for the pixel count when the layout has zero
  // slots and the stride is zero). 16M pixels is a 4096x4096 frame.
  if (Out.ArenaPixels > (1u << 24))
    return setError(Error, "implausible arena pixel count");
  if (static_cast<uint64_t>(Out.Meta.GridWidth) * Out.Meta.GridHeight !=
      Out.ArenaPixels)
    return setError(Error, "grid dimensions do not match the arena pixel "
                           "count");
  if (Arena->Bytes !=
      static_cast<uint64_t>(Out.ArenaPixels) * Out.ArenaStride)
    return setError(Error, "ARENA section size does not equal pixels x "
                           "stride");
  for (const Chunk *C : {&Out.Loader, &Out.Reader}) {
    if (C->CacheBytes > Out.Layout.totalBytes() ||
        C->CacheSlotCount > Out.Layout.slotCount())
      return setError(Error, "chunk '" + C->Name +
                                 "' was compiled against a larger cache "
                                 "layout than the snapshot's");
  }
  if (Out.Loader.NumParams != Out.Reader.NumParams)
    return setError(Error, "loader and reader disagree on the parameter "
                           "count");
  return true;
}

bool dspec::inspectSnapshotFile(const std::string &Path, SnapshotFileInfo &Out,
                                std::string *Error) {
  Out = SnapshotFileInfo();
  SnapshotFile File;
  ParsedContainer Container;
  if (!File.open(Path, Error) || !parseContainer(File, Container, Error))
    return false;
  std::vector<unsigned char> Payload;
  for (SnapshotSectionInfo &S : Container.Sections)
    if (!readSection(File, S, Payload, Error))
      return false;
  Out.FormatVersion = Container.FormatVersion;
  Out.FileBytes = File.size();
  Out.Sections = Container.Sections;
  return true;
}
