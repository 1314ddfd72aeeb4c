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

/// Result of one measured-bytes limiting run.
struct WorkingSetLimitResult {
  unsigned VictimsRelabeled = 0;
  /// Final bytes per pixel of hot (structureWeight >= 1) cached terms.
  uint64_t HotBytesPerPixel = 0;
  /// HotBytesPerPixel x ArenaPixels — what a reader frame reads on
  /// every pixel.
  uint64_t WorkingSetBytes = 0;
  /// Always true on return (an empty hot set trivially fits).
  bool BoundMet = false;
};

/// The measured Section 4.3 variant: shrinks the *hot* per-frame working
/// set — hot-bytes-per-pixel x \p ArenaPixels — until it fits
/// \p LlcBytes. A cached term is hot when its structure weight is >= 1
/// (read at least once per pixel per frame); cold terms are exempt
/// because the cost model puts them under a conditional, so a frame
/// reads them on some pixels only. Victims are the minimum uncacheCost
/// hot terms, exactly the static limiter's policy, so the two passes
/// compose.
WorkingSetLimitResult limitToWorkingSet(CachingAnalysis &CA,
                                        const CostModel &CM,
                                        const ReachingDefs &RD,
                                        const StructureInfo &SI,
                                        uint64_t LlcBytes,
                                        unsigned ArenaPixels,
                                        bool WeightBySize);

/// The estimated cost of evicting \p Term from the cache (exposed for
/// tests): weighted execution cost plus marginal definition/guard costs.
double uncacheCost(Expr *Term, const CachingAnalysis &CA, const CostModel &CM,
                   const ReachingDefs &RD, const StructureInfo &SI);

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_CACHELIMITER_H
