//===- specialize/SpecializerOptions.h - Tuning knobs -----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options controlling the data specializer. Defaults follow the paper's
/// prototype: join normalization on (Section 4.1), reassociation off
/// (Section 4.2, optional), strict Rule 3 (no speculation, Section 7.1
/// lists weakening it as future work), no cache size limit.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SPECIALIZE_SPECIALIZEROPTIONS_H
#define DATASPEC_SPECIALIZE_SPECIALIZEROPTIONS_H

#include "analysis/CostModel.h"
#include "transform/Reassociate.h"

#include <optional>

namespace dspec {

/// Tuning knobs for DataSpecializer.
struct SpecializerOptions {
  /// Section 4.1: insert `v = v` phi copies at join points and restrict
  /// variable-reference caching to phi-copy right-hand sides. When off,
  /// the specializer behaves like the paper's "naive" Figure 5 variant
  /// (bare local references may be cached at each use).
  bool EnableJoinNormalize = true;

  /// Section 4.2: reorder associative chains so independent operands
  /// group together.
  bool EnableReassociate = false;
  ReassociateOptions Reassoc;

  /// Section 7.1 extension: allow caching (and loader-side hoisting of)
  /// terms guarded by dependent predicates, weakening Rule 3. Only terms
  /// whose free variables are defined outside the dependent region are
  /// hoisted.
  bool AllowSpeculation = false;

  /// Section 4.3: when set, the cache limiter relabels minimum-benefit
  /// cached terms as dynamic until the cache fits in this many bytes.
  std::optional<unsigned> CacheByteLimit;

  /// Victim selection: divide the estimated recomputation cost by the
  /// slot size, preferring to evict big, cheap slots first.
  bool WeightVictimBySize = false;

  /// Section 4.3, measured-bytes variant: when both fields are nonzero,
  /// after the static CacheByteLimit pass the limiter keeps evicting
  /// minimum-benefit *hot* terms (structureWeight >= 1; the cost model
  /// puts cold terms under a conditional, read on some pixels only)
  /// until hot-bytes-per-pixel x ArenaPixels fits within LlcByteBound —
  /// the bytes a reader frame reads on every pixel, measured against the
  /// detected last-level cache instead of a hand-picked per-pixel budget.
  uint64_t LlcByteBound = 0;
  /// Pixel count of the arena the working-set bound is measured over.
  unsigned ArenaPixels = 0;

  /// Static cost model constants (Section 4.3).
  CostOptions Cost;

  /// When set, SpecializationResult::Explanation carries a human-readable
  /// decision report (slot table, label census, annotated listing).
  bool CollectExplanation = false;
};

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_SPECIALIZEROPTIONS_H
