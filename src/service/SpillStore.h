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
/// name; open() deletes the temp files of writers that died. The byte
/// cap is enforced by deleting least-recently-used files (by mtime;
/// loads bump it).
///
/// Write-behind: no reply depends on a spill write, so the service's
/// eviction sink calls queueStore, which hands the unit to one writer
/// thread and returns. At most MaxQueuedWrites writes are outstanding
/// (queued or being written); an eviction past that waits for room. A
/// load of a key whose write is outstanding waits for it, so the restore
/// stays a disk hit and never becomes a rebuild. flush() lands every
/// queued write; the service calls it when it drains.
///
/// Thread-safe: store/queueStore/load/flush/stats may race from
/// dispatchers and eviction sinks.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SERVICE_SPILLSTORE_H
#define DATASPEC_SERVICE_SPILLSTORE_H

#include "service/UnitCache.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

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
    /// Writes queued or being written (a gauge).
    uint64_t PendingWrites = 0;
    /// Loads that waited for their key's outstanding write.
    uint64_t LoadWaits = 0;
  };

  /// Outstanding writes past which queueStore waits for the writer.
  static constexpr size_t MaxQueuedWrites = 4;

  SpillStore() = default;
  /// Lands every queued write, then stops the writer thread.
  ~SpillStore();
  SpillStore(const SpillStore &) = delete;
  SpillStore &operator=(const SpillStore &) = delete;

  /// Opens (creating if needed) \p Dir and indexes the snapshots already
  /// there — the warm-start inventory. Deletes the temp files of writer
  /// processes that are gone. \p MaxBytes caps the directory's total
  /// size (0 = uncapped). False with \p Error on failure.
  bool open(const std::string &Dir, uint64_t MaxBytes, std::string *Error);

  bool enabled() const { return !Root.empty(); }
  const std::string &dir() const { return Root; }

  /// Spills \p Unit under \p Key (temp file + rename), then enforces the
  /// byte cap, on the calling thread. Errors are counted, not fatal —
  /// spilling is best-effort.
  void store(const UnitKey &Key, const UnitPtr &Unit);

  /// Hands \p Unit to the writer thread (started on first use), which
  /// store()s it under \p Key, and returns; first waits while
  /// MaxQueuedWrites writes are outstanding. The queue keeps the unit
  /// alive until its file is in place.
  void queueStore(const UnitKey &Key, UnitPtr Unit);

  /// Waits until every queued write has landed.
  void flush();

  /// Restores the unit spilled under \p Key, or null (a disk miss, or a
  /// corrupt/mismatched file, with \p Error set). Waits first if \p Key's
  /// write is still outstanding. A file matches when its META names
  /// Key.Shader and reproduces Key.InvariantHash (grid size, varying
  /// names and fixed control values); that is checked before any grid or
  /// arena is built.
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

  /// The writer thread: stores queued units in order. A unit leaves the
  /// queue only after store() returns, so a load that finds its key
  /// queued knows the write has not landed.
  void writerLoop();
  /// Whether \p Key's write is outstanding. Caller holds the mutex.
  bool queuedLocked(const UnitKey &Key) const;

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

  /// Outstanding writes, oldest (the one being written) first. Guarded
  /// by M, like Stopping.
  std::deque<std::pair<UnitKey, UnitPtr>> Queue;
  /// Queued signals the writer; Landed signals queueStore, load and
  /// flush callers that a write left the queue.
  std::condition_variable Queued, Landed;
  bool Stopping = false;
  std::thread Writer;
};

} // namespace dspec

#endif // DATASPEC_SERVICE_SPILLSTORE_H
