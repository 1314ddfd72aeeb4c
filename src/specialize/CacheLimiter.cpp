//===- specialize/CacheLimiter.cpp - Section 4.3 limiting ------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "specialize/CacheLimiter.h"

#include "lang/ASTWalk.h"
#include "support/Casting.h"

using namespace dspec;

double dspec::uncacheCost(Expr *Term, const CachingAnalysis &CA,
                          const CostModel &CM, const ReachingDefs &RD,
                          const StructureInfo &SI) {
  // Base: what the reader would pay to re-execute the term.
  double Cost = CM.weightedCost(Term);

  // Marginal Rule 4 effect: definitions of referenced variables that are
  // not yet dynamic would join the reader.
  walkExpr(Term, [&](Expr *Sub) {
    auto *Ref = dyn_cast<VarRefExpr>(Sub);
    if (!Ref)
      return;
    for (Stmt *Def : RD.defs(Ref)) {
      if (CA.label(Def) == CacheLabel::CL_Dynamic)
        continue; // marginal cost of an already-dynamic definition is zero
      if (auto *Decl = dyn_cast<DeclStmt>(Def)) {
        if (Decl->init())
          Cost += CM.weightedCost(Decl->init());
      } else if (auto *Assign = dyn_cast<AssignStmt>(Def)) {
        Cost += CM.weightedCost(Assign->value());
      }
    }
  });

  // Marginal Rule 5 effect: guards not yet dynamic would join the reader.
  for (const GuardRecord &G : SI.guards(Term->nodeId()))
    if (CA.label(G.Construct) != CacheLabel::CL_Dynamic)
      Cost += CM.weightedCost(G.Cond);

  return Cost;
}

CacheLimitResult dspec::limitCacheSize(CachingAnalysis &CA,
                                       const CostModel &CM,
                                       const ReachingDefs &RD,
                                       const StructureInfo &SI,
                                       unsigned ByteLimit, bool WeightBySize) {
  CacheLimitResult Result;
  while (true) {
    unsigned Bytes = CA.cacheBytes();
    if (Bytes <= ByteLimit) {
      Result.FinalBytes = Bytes;
      Result.BoundMet = true;
      return Result;
    }

    std::vector<Expr *> Frontier = CA.cachedTerms();
    if (Frontier.empty()) {
      // Cannot happen: zero cached terms means zero bytes.
      Result.FinalBytes = Bytes;
      return Result;
    }

    Expr *Victim = nullptr;
    double VictimCost = 0.0;
    for (Expr *Term : Frontier) {
      double Cost = uncacheCost(Term, CA, CM, RD, SI);
      if (WeightBySize)
        Cost /= static_cast<double>(Term->type().sizeInBytes());
      // Ties resolve to the earlier (lower node id) term; Frontier is in
      // preorder, so strict less-than keeps the first minimum.
      if (!Victim || Cost < VictimCost) {
        Victim = Term;
        VictimCost = Cost;
      }
    }

    CA.forceDynamic(Victim);
    ++Result.VictimsRelabeled;
  }
}

WorkingSetLimitResult dspec::limitToWorkingSet(
    CachingAnalysis &CA, const CostModel &CM, const ReachingDefs &RD,
    const StructureInfo &SI, uint64_t LlcBytes, unsigned ArenaPixels,
    bool WeightBySize) {
  WorkingSetLimitResult Result;
  while (true) {
    std::vector<Expr *> Frontier = CA.cachedTerms();
    uint64_t HotBytes = 0;
    for (Expr *Term : Frontier)
      if (CM.structureWeight(Term) >= 1.0)
        HotBytes += Term->type().sizeInBytes();

    Result.HotBytesPerPixel = HotBytes;
    Result.WorkingSetBytes = HotBytes * ArenaPixels;
    if (Result.WorkingSetBytes <= LlcBytes) {
      Result.BoundMet = true;
      return Result;
    }

    // Same victim policy as the static limiter, restricted to hot terms
    // (the model charges a cold term nothing, so evicting one cannot
    // shrink the charged working set).
    Expr *Victim = nullptr;
    double VictimCost = 0.0;
    for (Expr *Term : Frontier) {
      if (CM.structureWeight(Term) < 1.0)
        continue;
      double Cost = uncacheCost(Term, CA, CM, RD, SI);
      if (WeightBySize)
        Cost /= static_cast<double>(Term->type().sizeInBytes());
      if (!Victim || Cost < VictimCost) {
        Victim = Term;
        VictimCost = Cost;
      }
    }
    if (!Victim) {
      // Cannot happen: no hot terms means a zero working set.
      Result.BoundMet = true;
      return Result;
    }

    CA.forceDynamic(Victim);
    ++Result.VictimsRelabeled;
  }
}
