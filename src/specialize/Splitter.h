//===- specialize/Splitter.h - Section 3.3 splitting ------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The splitting transformation (Section 3.3): traverses the labeled
/// fragment and emits the cache loader and the cache reader.
///
///   Static:  appears in the loader only.
///   Cached:  the loader wraps the term in a cache store
///            (`cache->slotN = ...`); the reader reads the slot.
///   Dynamic: appears in both.
///
/// The loader is the instrumented original (it evaluates every term and
/// also returns the fragment's result — the paper's signature (2)); the
/// reader is a projection containing only dynamic terms and cache reads.
/// Both receive the fragment's full parameter list (signature (1)).
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SPECIALIZE_SPLITTER_H
#define DATASPEC_SPECIALIZE_SPLITTER_H

#include "lang/ASTContext.h"
#include "specialize/CacheLayout.h"
#include "specialize/CachingAnalysis.h"

#include <string>

namespace dspec {

/// Emits loader and reader functions from a labeled fragment. The
/// finalized CacheLayout is the single authoritative runtime layout: the
/// splitter stamps each emitted cache access with the slot's byte offset
/// so the compiled code addresses the packed cache buffer directly.
class Splitter {
public:
  Splitter(ASTContext &Ctx, CachingAnalysis &CA, const CacheLayout &Layout)
      : Ctx(Ctx), CA(CA), Layout(Layout) {}

  /// Builds the cache loader: the original fragment instrumented with
  /// cache stores (and, under speculation, hoisted stores before
  /// dependent guards).
  Function *buildLoader(Function *F, const std::string &Name);

  /// Builds the cache reader: dynamic terms only, cached terms replaced
  /// by cache reads, static declarations that the reader assigns to
  /// re-emitted bare.
  Function *buildReader(Function *F, const std::string &Name);

  /// Number of branching statements (if / while) in \p F's body. Zero
  /// means the function compiles to straight-line bytecode: control flow
  /// cannot diverge between pixels, so the render engine's batched tier
  /// executes it a whole tile per instruction fetch. (dsc's ?: is strict
  /// — OC_Select — and does not branch.) At runtime the batched tier
  /// goes by the bytecode-level classification in ExecChunk (BranchJoin,
  /// censused as MaskableBranches / UnmaskableBranches); this AST-level
  /// count feeds the stats and the explain report.
  static unsigned countBranchStmts(Function *F);

  /// Splits countBranchStmts by how the batched tier handles divergence
  /// at each branch (docs/ENGINE.md, "Masked divergent-lane execution"):
  /// an if whose subtree contains no loop and no return is \p Maskable —
  /// divergent lanes execute both arms under a mask; whiles, and ifs
  /// carrying a while or return, are \p Unmaskable — uniform lanes still
  /// batch in lockstep, but a divergent tile bails to per-pixel
  /// execution. Mirrors the bytecode-level ExecChunk::BranchJoin
  /// classification, which remains authoritative at runtime.
  static void countBranchKinds(Function *F, unsigned &Maskable,
                               unsigned &Unmaskable);

private:
  ASTContext &Ctx;
  CachingAnalysis &CA;
  const CacheLayout &Layout;
};

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_SPLITTER_H
