//===- specialize/CacheLimiter.h - Section 4.3 limiting ---------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache size limiting (Section 4.3): while the cache exceeds a byte
/// bound, approximate the cost of *not* caching each frontier term —
/// its weighted execution cost plus the marginal cost of the definitions
/// and guards Rules 4-7 would drag into the reader — relabel the
/// minimum-cost term as dynamic, restart the constraint solver, and check
/// the bound again. The frontier may widen transiently, but every term is
/// relabeled at most twice, so the loop terminates.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SPECIALIZE_CACHELIMITER_H
#define DATASPEC_SPECIALIZE_CACHELIMITER_H

#include "specialize/CachingAnalysis.h"

namespace dspec {

/// Result of one limiting run.
struct CacheLimitResult {
  unsigned VictimsRelabeled = 0;
  unsigned FinalBytes = 0;
  /// True if the bound was met (it always is: with every term dynamic the
  /// cache is empty).
  bool BoundMet = false;
};

/// Shrinks the cache until it fits \p ByteLimit.
CacheLimitResult limitCacheSize(CachingAnalysis &CA, const CostModel &CM,
                                const ReachingDefs &RD,
                                const StructureInfo &SI, unsigned ByteLimit,
                                bool WeightBySize);

/// The estimated cost of evicting \p Term from the cache (exposed for
/// tests): weighted execution cost plus marginal definition/guard costs.
double uncacheCost(Expr *Term, const CachingAnalysis &CA, const CostModel &CM,
                   const ReachingDefs &RD, const StructureInfo &SI);

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_CACHELIMITER_H
