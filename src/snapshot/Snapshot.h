//===- snapshot/Snapshot.h - Persisted specialization snapshots -*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot subsystem: a versioned, checksummed binary file format
/// that persists one specialization unit — the loader and reader chunks
/// with their constant pools, the authoritative CacheLayout, and the
/// SpecializerOptions provenance — together with a loader-filled packed
/// cache arena. This is the paper's staging split stretched across
/// *processes*: the loader's cost is paid once (by whoever writes the
/// snapshot), and any number of fresh reader processes warm-start from
/// the file and pay only reader frames.
///
/// File layout (all integers little-endian):
///
///   offset  size  field
///   0       8     magic "DSPECSNP"
///   8       4     u32 snapshot format version
///   12      4     u32 section count
///   16      28*n  section table: {u32 id, u32 reserved,
///                                 u64 offset, u64 bytes, u32 crc32}
///   ...           section payloads; the ARENA payload offset is
///                 64-byte aligned so the file can later be mmap'd
///                 straight into a cache arena
///
/// Sections: META (serde versions + provenance + grid/arena shape),
/// LAYOUT (CacheLayout), LOADER / READER (chunks), and ARENA (raw packed
/// cache bytes, exactly pixels x stride). The writer emits exactly these
/// five at format version 2, which is byte-identical to version 1 except
/// for the version field; the reader accepts both. Files written before
/// property variants were retired may also hold a VARIANTS section
/// (id 6): it is read past, never written.
///
/// Reading treats the file as untrusted input: magic/version/section
/// bounds are validated, every section's CRC-32 is checked, chunks are
/// run through the vm serde verifier, and the layout/arena shapes must
/// agree — any failure produces a diagnostic string, never UB or a
/// crash. See docs/SNAPSHOT.md for the compatibility policy.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SNAPSHOT_SNAPSHOT_H
#define DATASPEC_SNAPSHOT_SNAPSHOT_H

#include "specialize/CacheLayout.h"
#include "specialize/SpecializerOptions.h"
#include "support/AlignedBuffer.h"
#include "vm/Bytecode.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dspec {

/// Container version this build writes. Version 2 added the VARIANTS
/// section, which is no longer written; version-1 files still load.
/// Chunk and layout payloads carry their own serde versions.
constexpr uint32_t kSnapshotFormatVersion = 2;
/// Oldest container version readSnapshotFile accepts.
constexpr uint32_t kMinSnapshotFormatVersion = 1;

/// The file magic; first eight bytes of every snapshot.
constexpr char kSnapshotMagic[8] = {'D', 'S', 'P', 'E', 'C', 'S', 'N', 'P'};

/// Section identifiers (the `id` field of a section-table entry).
enum class SnapshotSection : uint32_t {
  Meta = 1,
  Layout = 2,
  Loader = 3,
  Reader = 4,
  Arena = 5,
  /// Property-specialized variants, retired: read past, never written.
  Variants = 6,
};

/// Printable name of a section id ("META", "ARENA", ...).
const char *snapshotSectionName(uint32_t Id);

/// Provenance and shape metadata stored in the META section.
struct SnapshotMeta {
  /// Name of the specialized fragment (and of the chunks' source).
  std::string FragmentName;
  /// The input partition: which parameters vary.
  std::vector<std::string> VaryingParams;

  // SpecializerOptions provenance — enough to reproduce (or refuse to
  // mix) specializations made under different rules.
  bool JoinNormalize = true;
  bool Reassociate = false;
  bool Speculation = false;
  bool WeightVictimBySize = false;
  std::optional<unsigned> CacheByteLimit;

  /// Pixel grid the arena was loaded over (RenderGrid is procedural, so
  /// dimensions fully determine the fixed per-pixel inputs).
  unsigned GridWidth = 0;
  unsigned GridHeight = 0;
  /// Control-parameter values the loader pass ran with.
  std::vector<float> Controls;

  /// Copies the option fields out of \p Options.
  static SnapshotMeta fromOptions(const SpecializerOptions &Options);

  /// One-line provenance summary, e.g. "phi, reassoc, limit=40B".
  std::string optionsSummary() const;
};

/// Everything one snapshot file holds, decoded.
struct SpecializationSnapshot {
  SnapshotMeta Meta;
  Chunk Loader;
  Chunk Reader;
  CacheLayout Layout;
  /// Arena shape + raw packed bytes, pixel-major: Pixels x Stride,
  /// exactly the CacheArena's buffer. The aligned buffer type lets a
  /// restore adopt it without a copy.
  unsigned ArenaPixels = 0;
  unsigned ArenaStride = 0;
  ArenaBuffer ArenaBytes;
};

/// The contents of one snapshot file, borrowed from whoever owns them
/// (a live unit's chunks and cache arena, say), so writing a file copies
/// none of them.
struct SnapshotParts {
  const SnapshotMeta &Meta;
  const Chunk &Loader;
  const Chunk &Reader;
  const CacheLayout &Layout;
  unsigned ArenaPixels;
  unsigned ArenaStride;
  /// The arena's pixel-major bytes and their count (pixels x stride in a
  /// consistent snapshot).
  const unsigned char *Arena;
  size_t ArenaBytes;
};

/// Serializes \p Parts to \p Path: the header and section table, then
/// each payload from its own buffer. Returns false with \p Error set on
/// inconsistent contents (arena shape not matching the layout/grid, a
/// chunk failing verification) or I/O failure.
bool writeSnapshotFile(const std::string &Path, const SnapshotParts &Parts,
                       std::string *Error = nullptr);

/// Reads and fully validates \p Path (bounds, CRCs, chunk verification,
/// shape consistency). Returns false with a diagnostic in \p Error on
/// any problem; \p Out is unspecified then.
bool readSnapshotFile(const std::string &Path, SpecializationSnapshot &Out,
                      std::string *Error = nullptr);

/// One section-table row, as reported by inspectSnapshotFile.
struct SnapshotSectionInfo {
  uint32_t Id = 0;
  uint64_t Offset = 0;
  uint64_t Bytes = 0;
  uint32_t StoredCrc = 0;
  bool CrcOk = false;
};

/// Header-level description of a snapshot file (for `dspec snapshot
/// info`): validates magic/version/table bounds and checks CRCs, but
/// does not decode payloads.
struct SnapshotFileInfo {
  uint32_t FormatVersion = 0;
  uint64_t FileBytes = 0;
  std::vector<SnapshotSectionInfo> Sections;
};

bool inspectSnapshotFile(const std::string &Path, SnapshotFileInfo &Out,
                         std::string *Error = nullptr);

} // namespace dspec

#endif // DATASPEC_SNAPSHOT_SNAPSHOT_H
