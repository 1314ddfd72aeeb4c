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
