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

private:
  ASTContext &Ctx;
  CachingAnalysis &CA;
  const CacheLayout &Layout;
};

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_SPLITTER_H
