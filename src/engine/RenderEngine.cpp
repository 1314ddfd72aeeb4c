//===- engine/RenderEngine.cpp - Batched multi-threaded renderer -----------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/RenderEngine.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace dspec;

RenderEngine::RenderEngine(unsigned Threads, unsigned TilePixels)
    : Pool(std::make_unique<ThreadPool>(Threads)),
      TileSize(TilePixels == 0 ? 1 : TilePixels) {
  Machines.resize(Pool->workerCount());
}

bool RenderEngine::runPass(const Chunk &Code, const RenderGrid &Grid,
                           const std::vector<float> &Controls,
                           CacheArena *MutArena, const CacheArena *ROArena,
                           Framebuffer *Out) {
  assert(!(MutArena && ROArena) && "a pass binds at most one arena");
  // Checked in every build: a framebuffer smaller than the grid would
  // take writes past its end.
  if (Out && (Out->width() != Grid.width() || Out->height() != Grid.height())) {
    LastStats = PassExecStats();
    LastTrap = "framebuffer is " + std::to_string(Out->width()) + "x" +
               std::to_string(Out->height()) + " but the grid is " +
               std::to_string(Grid.width()) + "x" +
               std::to_string(Grid.height());
    return false;
  }
  const CacheArena *Arena = MutArena ? MutArena : ROArena;

  const size_t Count = Grid.pixelCount();
  const size_t Tiles = (Count + TileSize - 1) / TileSize;
  const unsigned Width = Grid.width();
  const unsigned NumArgs =
      NumPixelParams + static_cast<unsigned>(Controls.size());

  // Decode (and fuse) once per batched pass; the cost is one linear scan
  // of the chunk, negligible against per-pixel execution, and rebuilding
  // here is what keeps snapshots format-stable: files persist the plain
  // Chunk and every load re-fuses. Whatever the batched tier cannot run
  // — an invalid decode (hand-built or hostile bytecode) or an effectful
  // chunk — runs per-pixel on the switch interpreter, whose dynamic
  // checks produce the canonical diagnostics.
  ExecChunk Decoded;
  if (Tier == ExecTier::Batched)
    Decoded = buildExecChunk(Code);
  const bool UseBatched =
      Tier == ExecTier::Batched && Decoded.Valid && Decoded.BatchSafe;

  // The controls, the same for every pixel: built once, and only read
  // while workers run. A batched tile passes them as shared arguments
  // and its pixel inputs in place from the grid.
  std::vector<Value> ControlArgs;
  ControlArgs.reserve(Controls.size());
  for (float Control : Controls)
    ControlArgs.push_back(Value::makeFloat(Control));

  /// Per-worker frame state: the reusable per-pixel argument vector, the
  /// tile's batched results, the first trap this worker hit, and the
  /// worker's share of the pass execution stats (summed after the join,
  /// so no atomics on the hot path).
  struct WorkerState {
    std::vector<Value> Args;
    std::vector<Value> Results; // TileSize batched results
    size_t TrapPixel = SIZE_MAX;
    std::string TrapMessage;
    PassExecStats Stats;
  };
  std::vector<WorkerState> States(Pool->workerCount());
  for (WorkerState &S : States) {
    S.Args.resize(NumPixelParams);
    S.Args.insert(S.Args.end(), ControlArgs.begin(), ControlArgs.end());
    if (UseBatched)
      S.Results.resize(TileSize);
  }

  // The lowest pixel seen to trap so far. A tile that starts past it
  // cannot lower the report and is skipped; every tile before it still
  // runs, so the reported pixel is the lowest trapping one whichever
  // worker traps first.
  std::atomic<size_t> FirstTrap{SIZE_MAX};

  Pool->parallelFor(Tiles, [&](unsigned Worker, size_t Tile) {
    const size_t Begin = Tile * TileSize;
    if (Begin > FirstTrap.load(std::memory_order_relaxed))
      return;
    WorkerState &S = States[Worker];
    VM &Machine = Machines[Worker];
    const size_t End = Begin + TileSize < Count ? Begin + TileSize : Count;

    if (UseBatched) {
      const unsigned Lanes = static_cast<unsigned>(End - Begin);
      BatchRequest Req;
      Req.LaneArgs = Grid.pixelInputs(Begin);
      Req.NumArgs = NumArgs;
      Req.SharedArgs = ControlArgs.data();
      Req.NumSharedArgs = static_cast<unsigned>(ControlArgs.size());
      Req.Lanes = Lanes;
      if (Arena) {
        Req.CacheBytes = Arena->strideBytes();
        Req.CacheStride = Arena->strideBytes();
        Req.CacheBase = Arena->raw() + Begin * Arena->strideBytes();
        if (MutArena)
          Req.CacheStoreBase =
              MutArena->raw() + Begin * MutArena->strideBytes();
      }
      Req.Results = S.Results.data();
      ExecResult R = Machine.runBatch(Decoded, Req);
      if (R.ok() && !R.Diverged) {
        ++S.Stats.BatchTiles;
        if (Out)
          for (unsigned Lane = 0; Lane < Lanes; ++Lane) {
            const unsigned Index = static_cast<unsigned>(Begin + Lane);
            Out->at(Index % Width, Index / Width) = S.Results[Lane];
          }
        return;
      }
      // Either the tile's lanes disagreed at a branch (not an error), or
      // the batch trapped, which carries no lane attribution. Both re-run
      // the tile per-pixel below, so the result — or the canonical
      // lowest-pixel diagnostic — is the switch tier's own.
      if (R.Diverged)
        ++S.Stats.BailedTiles;
    }

    for (size_t Index = Begin; Index < End; ++Index) {
      const Value *In = Grid.pixelInputs(Index);
      std::copy(In, In + NumPixelParams, S.Args.begin());
      // The const accessor yields a read-only view: reader passes cannot
      // write the arena, any tier's cache store against it traps. Plain
      // passes bind no cache.
      CacheView View =
          MutArena ? MutArena->view(static_cast<unsigned>(Index))
                   : (ROArena ? ROArena->view(static_cast<unsigned>(Index))
                              : CacheView());
      ExecResult R = Machine.run(Code, S.Args, View);
      if (!R.ok()) {
        if (Index < S.TrapPixel) {
          S.TrapPixel = Index;
          S.TrapMessage = R.TrapMessage;
        }
        size_t Seen = FirstTrap.load(std::memory_order_relaxed);
        while (Index < Seen &&
               !FirstTrap.compare_exchange_weak(Seen, Index,
                                                std::memory_order_relaxed))
          ;
        return;
      }
      if (Out)
        Out->at(static_cast<unsigned>(Index) % Width,
                static_cast<unsigned>(Index) / Width) = R.Result;
    }
  });

  LastStats = PassExecStats();
  for (const WorkerState &S : States) {
    LastStats.BatchTiles += S.Stats.BatchTiles;
    LastStats.BailedTiles += S.Stats.BailedTiles;
  }

  if (FirstTrap.load(std::memory_order_relaxed) != SIZE_MAX) {
    // Report the lowest-numbered trapping pixel so failures read the same
    // at every thread count.
    size_t Best = SIZE_MAX;
    for (const WorkerState &S : States)
      if (S.TrapPixel < Best) {
        Best = S.TrapPixel;
        LastTrap = "pixel " + std::to_string(Best) + ": " + S.TrapMessage;
      }
    return false;
  }
  return true;
}

bool RenderEngine::loaderPass(const Chunk &Loader, const CacheLayout &Layout,
                              const RenderGrid &Grid,
                              const std::vector<float> &Controls,
                              CacheArena &Arena, Framebuffer *Out) {
  assert(Loader.CacheBytes <= Layout.totalBytes() &&
         "loader was compiled against a larger layout");
  if (Arena.pixelCount() != Grid.pixelCount() ||
      Arena.strideBytes() != Layout.totalBytes())
    Arena.reset(Grid.pixelCount(), Layout);
  return runPass(Loader, Grid, Controls, &Arena, nullptr, Out);
}

bool RenderEngine::readerPass(const Chunk &Reader, const RenderGrid &Grid,
                              const std::vector<float> &Controls,
                              const CacheArena &Arena, Framebuffer *Out) {
  // Checked in every build: the reader indexes the arena by grid pixel
  // and reads up to CacheBytes of each pixel's stride.
  if (Arena.pixelCount() != Grid.pixelCount() ||
      Arena.strideBytes() < Reader.CacheBytes) {
    LastStats = PassExecStats();
    LastTrap = "arena holds " + std::to_string(Arena.pixelCount()) +
               " pixels of " + std::to_string(Arena.strideBytes()) +
               " bytes, but the grid has " +
               std::to_string(Grid.pixelCount()) +
               " pixels and the reader reads " +
               std::to_string(Reader.CacheBytes) + " bytes a pixel";
    return false;
  }
  // Readers contain cache loads only (the splitter never emits stores in
  // the dynamic projection); the read-only binding makes that a hard
  // guarantee — a store through any tier traps instead of writing.
  return runPass(Reader, Grid, Controls, nullptr, &Arena, Out);
}

bool RenderEngine::plainPass(const Chunk &Original, const RenderGrid &Grid,
                             const std::vector<float> &Controls,
                             Framebuffer *Out) {
  return runPass(Original, Grid, Controls, nullptr, nullptr, Out);
}

bool RenderEngine::saveSnapshot(const std::string &Path,
                                const SnapshotMeta &Meta, const Chunk &Loader,
                                const Chunk &Reader, const CacheLayout &Layout,
                                const CacheArena &Arena, std::string *Error) {
  if (Arena.strideBytes() != Layout.totalBytes() ||
      Arena.pixelCount() != Meta.GridWidth * Meta.GridHeight) {
    if (Error)
      *Error = "snapshot: arena does not match the layout and grid (was "
               "loaderPass run?)";
    return false;
  }
  // The ARENA section is the arena's pixel-major bytes, verbatim.
  return writeSnapshotFile(Path,
                           {Meta, Loader, Reader, Layout, Arena.pixelCount(),
                            Arena.strideBytes(), Arena.raw(),
                            Arena.totalBytes()},
                           Error);
}

bool RenderEngine::checkCallingConvention(const SpecializationSnapshot &Snap,
                                          std::string *Error) {
  if (Snap.Reader.NumParams ==
      NumPixelParams + static_cast<unsigned>(Snap.Meta.Controls.size()))
    return true;
  if (Error)
    *Error = "snapshot: reader takes " +
             std::to_string(Snap.Reader.NumParams) +
             " parameters but the snapshot records " +
             std::to_string(Snap.Meta.Controls.size()) +
             " controls (+4 pixel inputs)";
  return false;
}

std::optional<RenderEngine::WarmStart>
RenderEngine::fromSnapshot(const std::string &Path, std::string *Error) {
  SpecializationSnapshot Snap;
  if (!readSnapshotFile(Path, Snap, Error) ||
      !checkCallingConvention(Snap, Error))
    return std::nullopt;

  std::optional<WarmStart> Warm;
  Warm.emplace(Snap.Meta.GridWidth, Snap.Meta.GridHeight);
  Warm->Meta = std::move(Snap.Meta);
  Warm->Loader = std::move(Snap.Loader);
  Warm->Reader = std::move(Snap.Reader);
  Warm->Layout = Snap.Layout;
  if (!Warm->Arena.restore(Snap.ArenaPixels, Snap.Layout,
                           std::move(Snap.ArenaBytes))) {
    if (Error)
      *Error = "snapshot: arena payload does not match pixels x stride";
    return std::nullopt;
  }
  return Warm;
}
