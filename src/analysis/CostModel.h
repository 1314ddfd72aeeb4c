//===- analysis/CostModel.h - Section 4.3 static costs ----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static execution-cost estimation in the style of [WMGH94], as used by
/// Section 4.3 of the paper: each operator has a base cost (`+` costs 1,
/// `/` costs 9, builtins have table costs), a term's raw cost sums its
/// subterms, terms inside loops are multiplied by 5 per nesting level, and
/// terms guarded by conditionals are divided by 2 per level. The raw cost
/// also feeds the Trivial() predicate of the caching analysis ("constants
/// and expressions with very low execution costs are not cached").
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ANALYSIS_COSTMODEL_H
#define DATASPEC_ANALYSIS_COSTMODEL_H

#include "analysis/StructureInfo.h"
#include "lang/Function.h"

#include <vector>

namespace dspec {

/// Tunable constants of the cost model; defaults match the paper.
struct CostOptions {
  unsigned LoopMultiplier = 5;
  unsigned CondDivisor = 2;
  /// Modeled cost of one cache memory reference; an expression whose raw
  /// cost does not exceed this is "trivial" and not worth caching.
  unsigned CacheRefCost = 3;
};

/// Computes memoized per-expression cost estimates for one function.
class CostModel {
public:
  /// Builds cost tables for \p F.
  void build(Function *F, const StructureInfo &SI, CostOptions Options,
             uint32_t NumNodeIds);

  /// Cost of evaluating \p E once (operator cost plus subterm costs).
  unsigned rawCost(const Expr *E) const { return RawCost[E->nodeId()]; }

  /// Raw cost weighted by execution-frequency estimates:
  /// raw * LoopMultiplier^loopDepth / CondDivisor^condDepth.
  double weightedCost(const Expr *E) const;

  /// The frequency factor alone, independent of operator costs:
  /// LoopMultiplier^loopDepth / CondDivisor^condDepth. This doubles as a
  /// per-frame *reuse* estimate for a cached slot — >= 1 means the reader
  /// touches the slot on every evaluation (hot), < 1 means the slot sits
  /// under a conditional and is read less often than once per frame
  /// (cold). The measured-bytes limiter charges hot slots only.
  double structureWeight(const Expr *E) const;

  /// The base cost of \p E's own operator, excluding subterms. Vector
  /// operations scale with their width.
  static unsigned operatorCost(const Expr *E);

  const CostOptions &options() const { return Options; }

private:
  unsigned computeRaw(Expr *E);

  std::vector<unsigned> RawCost;
  const StructureInfo *Structure = nullptr;
  CostOptions Options;
};

} // namespace dspec

#endif // DATASPEC_ANALYSIS_COSTMODEL_H
