//===- vm/VM.h - Bytecode interpreter ---------------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stack-machine interpreter that executes compiled fragments. A run
/// optionally binds a cache: loaders write it, readers read it, plain
/// fragments ignore it. Two cache representations are supported: the
/// packed CacheView (typed slots at byte offsets, the render engine's
/// native format) and the boxed Cache (one tagged Value per slot, kept as
/// a thin compatibility adapter for single-pixel callers). Both are
/// pre-sized from the chunk's CacheLayout-derived requirements and trap
/// on accesses past the layout. Runaway programs are stopped by an
/// instruction budget; errors (division by zero, missing cache) trap with
/// a message instead of crashing.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_VM_H
#define DATASPEC_VM_VM_H

#include "vm/Bytecode.h"
#include "vm/CacheView.h"
#include "vm/ExecChunk.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dspec {

/// A specialization's boxed data cache: one Value per slot. Compatibility
/// representation; the render path uses packed CacheViews instead.
using Cache = std::vector<Value>;

/// Outcome of one execution.
struct ExecResult {
  Value Result;
  bool Trapped = false;
  std::string TrapMessage;
  /// Scalar tiers: instructions retired. Batched tier: *active lanes*
  /// summed per retired instruction — a lane masked off by divergence is
  /// not billed, so the instruction budget charges a divergent tile the
  /// same work a per-pixel run would have done.
  uint64_t InstructionsExecuted = 0;

  /// Batched tier only: control flow diverged across lanes at a point
  /// that cannot run under a mask (a loop exit, or a diamond carrying a
  /// return). Not an error and not a trap: results are unwritten and the
  /// caller re-runs the tile per-pixel. Mutually exclusive with Trapped.
  bool Diverged = false;
  /// Batched tier only: instruction dispatches retired (each dispatch
  /// covers up to Lanes lanes). With InstructionsExecuted this yields the
  /// tile's average active-lane fraction:
  /// InstructionsExecuted / (BatchDispatches * Lanes).
  uint64_t BatchDispatches = 0;

  bool ok() const { return !Trapped; }
};

/// One tile's worth of pixels for the batched interpreter: lane-major
/// argument values, strided packed caches, and a result slot per lane.
/// The caller (the render engine) fills identical per-lane arguments to
/// what it would pass the scalar tiers.
struct BatchRequest {
  /// Lanes x NumArgs values, lane-major: lane L's arguments start at
  /// LaneArgs + L * NumArgs.
  const Value *LaneArgs = nullptr;
  unsigned NumArgs = 0;
  unsigned Lanes = 0;
  /// Load-side cache base. Null when the chunk performs no cache access.
  /// Dense arenas (CacheMap == null): lane 0's packed bytes, lane L's
  /// cache at CacheBase + L * CacheStride. Mapped arenas: the arena
  /// buffer start; per-slot rows resolve through CacheMap.
  const unsigned char *CacheBase = nullptr;
  /// Store-side base under the same addressing. Null on a read-only pass:
  /// cache stores trap instead of writing (loader-less passes cannot
  /// silently mutate the arena).
  unsigned char *CacheStoreBase = nullptr;
  size_t CacheStride = 0;
  /// Bytes visible to each lane (the per-lane *logical* view size; must
  /// cover the chunk's CacheBytes or cache accesses trap, exactly like a
  /// too-small CacheView would).
  unsigned CacheBytes = 0;
  /// Non-null = the arena is physically slot-major/tile-blocked: the
  /// per-4-byte-word affine table (see vm/CacheView.h), its block size
  /// in pixels, and the grid pixel index of lane 0. The caller must
  /// guarantee the tile does not straddle a block
  /// (CacheArena::batchCompatible).
  const ArenaSlotAddr *CacheMap = nullptr;
  unsigned CacheBlockPixels = 1;
  unsigned CacheFirstPixel = 0;
  /// Lanes result values, written on success.
  Value *Results = nullptr;
};

/// The interpreter. Holds the global state that the effectful builtins
/// (dsc_trace / dsc_clock) touch, so Rule 2 scenarios are observable.
class VM {
public:
  /// Runs \p C on \p Args with a boxed cache. \p CacheMem may be null for
  /// fragments that perform no cache access; otherwise it is pre-sized to
  /// the chunk's CacheSlotCount and any access past the layout traps.
  ///
  /// [[deprecated]] in spirit: the boxed cache is a compatibility adapter
  /// for single-invocation callers (kept un-annotated so benchmarks can
  /// still measure it against the packed path without warnings). New code
  /// should use the CacheView overload below — it is the render engine's
  /// native representation and the only one snapshots persist.
  ExecResult run(const Chunk &C, const std::vector<Value> &Args,
                 Cache *CacheMem = nullptr);

  /// Runs \p C on \p Args against a packed cache buffer. \p View must
  /// span at least the chunk's CacheBytes; accesses outside it trap.
  ExecResult run(const Chunk &C, const std::vector<Value> &Args,
                 CacheView View);

  /// Fast tier 1: executes a decoded (and typically superinstruction-
  /// fused) chunk with direct-threaded dispatch (computed goto on
  /// GCC/Clang; a token-threaded switch under DSPEC_FORCE_SWITCH_DISPATCH
  /// or other compilers). \p C must be Valid. Bit-identical results and
  /// trap messages to the classic run() — both call the shared semantics
  /// in vm/InterpOps.h. Pass a default CacheView for cache-less chunks.
  ExecResult runThreaded(const ExecChunk &C, const std::vector<Value> &Args,
                         CacheView View = CacheView());

  /// Fast tier 2: executes one instruction stream over a whole tile of
  /// lanes — one fetch/dispatch per instruction, a strided SoA inner
  /// loop per lane. \p C must be Valid and BatchSafe (effect-free).
  ///
  /// Control flow runs GPU-warp style. Branch conditions are evaluated
  /// over the *active* lanes only; a uniform outcome takes the jump (or
  /// falls through) in lockstep exactly like the scalar tiers, so
  /// straight-line chunks and uniform loops pay nothing. A divergent
  /// conditional that heads a maskable diamond (ExecChunk::BranchJoin)
  /// pushes a mask frame: both arms execute with inactive lanes
  /// suppressed — stores to locals and cache slots are masked, masked
  /// div/mod-by-zero does not trap — and lanes reconverge at the join.
  /// Divergence at an unmaskable branch sets ExecResult::Diverged and
  /// returns with results unwritten; the caller re-runs the tile
  /// per-pixel. On a real trap (always from a lane that is active) the
  /// result carries no lane attribution — the caller re-runs the tile
  /// through the switch tier to reproduce the canonical lowest-pixel
  /// diagnostic.
  ExecResult runBatch(const ExecChunk &C, const BatchRequest &Req);

  /// Values recorded by dsc_trace, in call order.
  const std::vector<float> &traceLog() const { return TraceLog; }
  void clearTraceLog() { TraceLog.clear(); }

  /// Aborts executions that exceed this many instructions.
  uint64_t InstructionBudget = 500'000'000;

private:
  friend Value callBuiltinImpl(uint16_t Id, const Value *Args, VM &Machine);

  ExecResult runImpl(const Chunk &C, const std::vector<Value> &Args,
                     Cache *Boxed, CacheView Packed);

  std::vector<float> TraceLog;
  uint64_t ClockCounter = 0;
  /// Frame scratch reused across runs so that per-pixel invocations do not
  /// allocate (runs are not reentrant).
  std::vector<Value> LocalsScratch;
  std::vector<Value> StackScratch;
  /// SoA frame scratch for runBatch (slot-major: slot s, lane l lives at
  /// index s * Lanes + l), likewise reused across tiles.
  std::vector<Value> BatchLocals;
  std::vector<Value> BatchStack;

  /// Divergence scratch for runBatch: one mask frame per nested divergent
  /// diamond. Active holds the current arm's lane mask (1 = active),
  /// Pending the other arm's; frames are reused across tiles so steady-
  /// state divergence allocates nothing.
  struct MaskFrame {
    std::vector<uint8_t> Active;
    std::vector<uint8_t> Pending;
    int32_t Join = 0;
    bool InThen = false;
    unsigned ActiveCount = 0;
    unsigned PendingCount = 0;
  };
  std::vector<MaskFrame> BatchMasks;
  /// Per-lane branch-condition truth scratch (runBatch).
  std::vector<uint8_t> CondScratch;
};

} // namespace dspec

#endif // DATASPEC_VM_VM_H
