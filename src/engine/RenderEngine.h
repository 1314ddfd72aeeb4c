//===- engine/RenderEngine.h - Batched multi-threaded renderer --*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched render engine: executes a compiled chunk over every pixel
/// of a RenderGrid in tile-sized work items on a small thread pool, one
/// VM per worker. Three pass kinds mirror the paper's phases:
///
///   loaderPass    runs the cache loader once per fixed-input change,
///                 filling the grid's packed CacheArena (and optionally a
///                 framebuffer — the loader also computes the result);
///   readerPass    runs the cache reader once per parameter edit against
///                 the loaded arena;
///   plainPass     runs the unspecialized original (the baseline).
///
/// Determinism: a pixel's output depends only on its own inputs and its
/// own cache stride, every pixel is computed exactly once, and workers
/// write to disjoint framebuffer/arena regions — so the framebuffer is
/// bit-identical for every thread count and tile size. (Per-VM effects
/// like dsc_trace logs land on whichever worker ran the pixel; the
/// gallery shaders use none.)
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_RENDERENGINE_H
#define DATASPEC_ENGINE_RENDERENGINE_H

#include "engine/CacheArena.h"
#include "engine/ExecTier.h"
#include "engine/RenderContext.h"
#include "engine/ThreadPool.h"
#include "snapshot/Snapshot.h"
#include "vm/VM.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dspec {

/// Empty and read by nothing. This struct, RenderEngine::setArenaLayout
/// and ServiceConfig::ArenaLayout exist only so that perfbench/Replay.cpp,
/// which calls `Engine.setArenaLayout(Config.ArenaLayout)`, keeps
/// building; ROADMAP item 2 deletes them together with that call.
struct ArenaLayoutConfig {};

/// Runs chunks over pixel grids. Reusable across shaders and frames; the
/// pool and per-worker VMs are created once.
class RenderEngine {
public:
  /// Number of standard per-pixel parameters every renderable fragment
  /// takes before its controls: (uv, P, N, I) from the PixelInput.
  static constexpr unsigned NumPixelParams = 4;

  /// \p Threads workers (0 = one per hardware thread); pixels are handed
  /// out in tiles of \p TilePixels.
  explicit RenderEngine(unsigned Threads = 1, unsigned TilePixels = 128);

  unsigned threadCount() const { return Pool->workerCount(); }
  unsigned tilePixels() const { return TileSize; }

  /// Selects how passes execute chunks. The default is Batched — the
  /// fast tier — which degrades gracefully: branchy chunks execute
  /// batched while every branch is uniform across a tile's lanes, and
  /// everything else runs per-pixel on the switch interpreter: a tile
  /// whose lanes disagree at a branch or that traps, and for the whole
  /// pass an effectful chunk or a chunk that fails decoding. Both tiers
  /// produce bit-identical framebuffers (tests/TestExecTiers.cpp pins
  /// this over the whole gallery); the knob exists for A/B measurement
  /// (`bench_exec_tier`, `dspec serve --exec-tier`).
  void setExecTier(ExecTier NewTier) { Tier = NewTier; }
  ExecTier execTier() const { return Tier; }

  /// Does nothing: see ArenaLayoutConfig.
  void setArenaLayout(const ArenaLayoutConfig &) {}

  /// Execution statistics of the last completed pass; the figures cover
  /// runBatch attempts only (zero under the switch tier).
  struct PassExecStats {
    uint64_t BatchTiles = 0;  ///< tiles fully retired by runBatch
    uint64_t BailedTiles = 0; ///< tiles that diverged and re-ran per-pixel
    /// Always 1.0: a batched tile runs every lane or bails. Kept only
    /// because perfbench/Replay.cpp reads it; ROADMAP item 2 deletes it
    /// with the ArenaLayoutConfig shim.
    double activeFraction() const { return 1.0; }
  };
  const PassExecStats &lastPassStats() const { return LastStats; }

  /// Runs the loader over every pixel, filling \p Arena (which is reshaped
  /// to the grid and the chunk's layout extent if it does not match).
  /// Returns false on any trap; lastTrap() has the message.
  bool loaderPass(const Chunk &Loader, const CacheLayout &Layout,
                  const RenderGrid &Grid, const std::vector<float> &Controls,
                  CacheArena &Arena, Framebuffer *Out = nullptr);

  /// Runs the reader over every pixel against a loaded \p Arena. An
  /// arena of another pixel count, or with a stride shorter than the
  /// reader's cache, fails the pass before any pixel runs; so does an
  /// \p Out of another size than the grid, in every pass.
  bool readerPass(const Chunk &Reader, const RenderGrid &Grid,
                  const std::vector<float> &Controls, const CacheArena &Arena,
                  Framebuffer *Out = nullptr);

  /// Runs an unspecialized fragment over every pixel.
  bool plainPass(const Chunk &Original, const RenderGrid &Grid,
                 const std::vector<float> &Controls,
                 Framebuffer *Out = nullptr);

  /// Trap message of the last failing pass (first trapping pixel in pixel
  /// order, so failures are deterministic too).
  const std::string &lastTrap() const { return LastTrap; }

  //===--------------------------------------------------------------------===//
  // Warm start: persist a loader pass, resume in a fresh process.
  //===--------------------------------------------------------------------===//

  /// Everything fromSnapshot restores: the specialization unit plus the
  /// loader-filled arena, with the grid rebuilt procedurally from the
  /// snapshot's dimensions. readerPass(Warm.Reader, Warm.Grid, Controls,
  /// Warm.Arena) then serves frames without ever running the loader.
  struct WarmStart {
    SnapshotMeta Meta;
    Chunk Loader;
    Chunk Reader;
    CacheLayout Layout;
    RenderGrid Grid;
    CacheArena Arena;

    WarmStart(unsigned Width, unsigned Height) : Grid(Width, Height) {}
  };

  /// Writes \p Path: the specialization unit (\p Loader, \p Reader,
  /// \p Layout, provenance in \p Meta) and the loader-filled \p Arena,
  /// whose bytes are written straight from its buffer. Call after a
  /// successful loaderPass over a grid whose dimensions are recorded in
  /// \p Meta. Returns false with \p Error set on inconsistent state or
  /// I/O failure.
  static bool saveSnapshot(const std::string &Path, const SnapshotMeta &Meta,
                           const Chunk &Loader, const Chunk &Reader,
                           const CacheLayout &Layout, const CacheArena &Arena,
                           std::string *Error = nullptr);

  /// Validates and loads \p Path (header/version checks, per-section
  /// CRCs, bytecode verification — a truncated or corrupt file yields a
  /// diagnostic, never a crash) and rebuilds the grid and arena. Reader
  /// passes over the result are bit-identical to an in-process
  /// loader+reader run at any thread count.
  static std::optional<WarmStart> fromSnapshot(const std::string &Path,
                                               std::string *Error = nullptr);

private:
  /// Exactly one of \p MutArena / \p ROArena may be non-null: loader
  /// passes get a writable arena, reader passes a read-only one (cache
  /// stores trap in every tier — no const_cast anywhere on the path).
  bool runPass(const Chunk &Code, const RenderGrid &Grid,
               const std::vector<float> &Controls, CacheArena *MutArena,
               const CacheArena *ROArena, Framebuffer *Out);

  // Held by pointer so the engine stays movable (the pool owns mutexes
  // and worker threads, which pin it in place).
  std::unique_ptr<ThreadPool> Pool;
  std::vector<VM> Machines; // one per worker
  unsigned TileSize;
  ExecTier Tier = ExecTier::Batched;
  std::string LastTrap;
  PassExecStats LastStats;
};

} // namespace dspec

#endif // DATASPEC_ENGINE_RENDERENGINE_H
