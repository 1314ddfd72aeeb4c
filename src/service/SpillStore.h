//===- service/SpillStore.h - On-disk spill of evicted units ----*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A capped on-disk store of specialization units, coupling the
/// UnitCache to the snapshot subsystem: units evicted from the in-memory
/// LRU while still warm are spilled as version-2 snapshot files, and a
/// later miss on the same key restores the unit from disk — a *disk
/// hit* — instead of re-running the specializer. Because snapshot files
/// survive the process, a restarted `dspec serve` warm-starts from the
/// spill directory.
///
/// Layout: one `<key-hash>.dsnp` snapshot per unit, key-hashed over the
/// shader name, invariant hash and options fingerprint — the full
/// UnitKey. Writes go through RenderEngine::saveSnapshot, which streams
/// the unit's arena from its own buffer, into a temp file + rename, so a
/// crash mid-spill never leaves a half-written snapshot under a valid
/// name. The byte cap is enforced by
/// deleting least-recently-used files (by mtime; loads bump it).
///
/// Thread-safe: store/load/stats may race from dispatchers and eviction
/// sinks.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SERVICE_SPILLSTORE_H
#define DATASPEC_SERVICE_SPILLSTORE_H

#include "service/UnitCache.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace dspec {

class SpillStore {
public:
  struct Stats {
    uint64_t DiskHits = 0;
    uint64_t DiskMisses = 0;
    uint64_t Writes = 0;
    uint64_t Errors = 0;
    uint64_t EvictedFiles = 0;
    uint64_t Files = 0;
    uint64_t Bytes = 0;
  };

  /// Opens (creating if needed) \p Dir and indexes the snapshots already
  /// there — the warm-start inventory. \p MaxBytes caps the directory's
  /// total size (0 = uncapped). False with \p Error on failure.
  bool open(const std::string &Dir, uint64_t MaxBytes, std::string *Error);

  bool enabled() const { return !Root.empty(); }
  const std::string &dir() const { return Root; }

  /// Spills \p Unit under \p Key (temp file + rename), then enforces the
  /// byte cap. Errors are counted, not fatal — spilling is best-effort.
  void store(const UnitKey &Key, const UnitPtr &Unit);

  /// Restores the unit spilled under \p Key, or null (a disk miss, or a
  /// corrupt/mismatched file, with \p Error set). A file matches when its
  /// META names Key.Shader and reproduces Key.InvariantHash (grid size,
  /// varying names and fixed control values); that is checked before any
  /// grid or arena is built.
  std::shared_ptr<SpecializationUnit> load(const UnitKey &Key,
                                           std::string *Error);

  /// Path a unit with \p Key spills to (exists or not).
  std::string pathFor(const UnitKey &Key) const;

  Stats stats() const;

private:
  uint64_t keyHash(const UnitKey &Key) const;
  /// Deletes LRU files until the cap holds. Caller holds the mutex.
  /// mtime has one-second granularity, so ties are common — they break
  /// deterministically by file name (the hex key hash), and the
  /// just-written file (\p ExcludeName, when non-null) is never the
  /// victim: spilling a unit must not immediately delete it.
  void enforceCapLocked(const std::string *ExcludeName = nullptr);

  std::string Root;
  uint64_t MaxBytes = 0;

  mutable std::mutex M;
  struct FileInfo {
    uint64_t Bytes = 0;
    /// Seconds since epoch of the last write or load (LRU ordering).
    int64_t LastUse = 0;
  };
  /// Indexed by file name ("<hash>.dsnp").
  std::map<std::string, FileInfo> Index;
  uint64_t TotalBytes = 0;
  Stats Counters;
};

} // namespace dspec

#endif // DATASPEC_SERVICE_SPILLSTORE_H
