//===- vm/VM.h - Bytecode interpreter ---------------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stack-machine interpreters that execute compiled fragments: the
/// per-invocation switch interpreter (run(), the reference semantics)
/// and the tile-at-a-time batched interpreter over a decoded ExecChunk
/// (runBatch(), in FastInterp.cpp). A run optionally binds a cache:
/// loaders write it, readers read it, plain fragments ignore it. The
/// cache is always packed: a CacheView of typed slots at the byte
/// offsets the specializer's CacheLayout assigned, the render engine's
/// and the snapshots' one format. Accesses past the view trap. Runaway
/// programs are stopped by an instruction budget; errors (division by
/// zero, missing cache) trap with a message instead of crashing.
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

/// Outcome of one execution.
struct ExecResult {
  Value Result;
  bool Trapped = false;
  std::string TrapMessage;
  /// Switch tier: instructions retired. Batched tier: retired
  /// instructions times the tile's lanes, so the instruction budget
  /// charges a tile what its per-pixel runs would have cost.
  uint64_t InstructionsExecuted = 0;

  /// Batched tier only: the lanes of a conditional branch disagreed. Not
  /// an error and not a trap: results are unwritten and the caller re-runs
  /// the tile per-pixel. Mutually exclusive with Trapped.
  bool Diverged = false;

  bool ok() const { return !Trapped; }
};

/// One tile's worth of pixels for the batched interpreter: lane-major
/// argument values, the arguments every lane shares, strided packed
/// caches, and a result slot per lane. Lane L's arguments are exactly
/// what the caller (the render engine) would pass the switch tier for
/// that pixel.
struct BatchRequest {
  /// The leading NumArgs - NumSharedArgs arguments of every lane,
  /// lane-major: lane L's start at LaneArgs + L * (NumArgs -
  /// NumSharedArgs).
  const Value *LaneArgs = nullptr;
  unsigned NumArgs = 0;
  /// The trailing NumSharedArgs arguments, the same on every lane, passed
  /// once. The default, 0, passes every argument per lane.
  const Value *SharedArgs = nullptr;
  unsigned NumSharedArgs = 0;
  unsigned Lanes = 0;
  /// Load-side cache base. Null when the chunk performs no cache access.
  /// Lane 0's packed bytes; lane L's cache is at CacheBase + L *
  /// CacheStride.
  const unsigned char *CacheBase = nullptr;
  /// Store-side base under the same addressing. Null on a read-only pass:
  /// cache stores trap instead of writing (loader-less passes cannot
  /// silently mutate the arena).
  unsigned char *CacheStoreBase = nullptr;
  size_t CacheStride = 0;
  /// Bytes visible to each lane (the per-lane view size; must cover the
  /// chunk's CacheBytes or cache accesses trap, exactly like a too-small
  /// CacheView would).
  unsigned CacheBytes = 0;
  /// Lanes result values, written on success.
  Value *Results = nullptr;
};

/// The interpreter. Holds the global state that the effectful builtins
/// (dsc_trace / dsc_clock) touch, so Rule 2 scenarios are observable.
class VM {
public:
  /// Runs \p C on \p Args against a packed cache buffer. \p View must
  /// span at least the chunk's CacheBytes; accesses outside it trap. The
  /// default view has no bytes: fine for fragments that perform no cache
  /// access, a trap for any that do.
  ExecResult run(const Chunk &C, const std::vector<Value> &Args,
                 CacheView View = {});

  /// The fast tier: executes a decoded, superinstruction-fused chunk
  /// over a whole tile of lanes — one fetch/dispatch per instruction, a
  /// strided SoA inner loop per lane. \p C must be Valid and BatchSafe
  /// (effect-free). Bit-identical results and trap messages to run() —
  /// both call the shared semantics in vm/InterpOps.h and
  /// callBuiltinLanes.
  ///
  /// Frame setup fills only the rows of the chunk's LoadedLocals, but
  /// kind-checks every argument, read or not, so a mistyped argument
  /// traps with the switch tier's message.
  ///
  /// A conditional branch whose lanes all agree takes the jump (or falls
  /// through) in lockstep exactly like the switch tier, so straight-line
  /// chunks and uniform loops run whole tiles. At one whose lanes
  /// disagree, runBatch sets ExecResult::Diverged and returns with
  /// results unwritten; the caller re-runs the tile per-pixel through
  /// run(). A trap carries no lane attribution either: the caller re-runs
  /// the tile through run() to reproduce the canonical lowest-pixel
  /// diagnostic.
  ExecResult runBatch(const ExecChunk &C, const BatchRequest &Req);

  /// Values recorded by dsc_trace, in call order.
  const std::vector<float> &traceLog() const { return TraceLog; }
  void clearTraceLog() { TraceLog.clear(); }

  /// Aborts executions that exceed this many instructions.
  uint64_t InstructionBudget = 500'000'000;

private:
  friend void callBuiltinLanes(uint16_t Id, const Value *const *ArgRows,
                               Value *Dest, unsigned Lanes, VM &Machine);

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
};

/// Runs builtin \p Id (a BuiltinId) over \p Lanes lanes: lane L's
/// arguments are ArgRows[0][L], ArgRows[1][L], ..., and its result goes
/// to Dest[L], which may alias ArgRows[0][L]. The one builtin dispatch:
/// the batched tier calls it once per instruction per tile, the switch
/// interpreter with one lane. Implemented in vm/Builtins.cpp.
void callBuiltinLanes(uint16_t Id, const Value *const *ArgRows, Value *Dest,
                      unsigned Lanes, VM &Machine);

} // namespace dspec

#endif // DATASPEC_VM_VM_H
