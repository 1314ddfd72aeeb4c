//===- specialize/DataSpecializer.cpp - Public facade ----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "specialize/DataSpecializer.h"

#include "analysis/CostModel.h"
#include "analysis/DependenceAnalysis.h"
#include "analysis/ReachingDefs.h"
#include "analysis/StructureInfo.h"
#include "lang/ASTCloner.h"
#include "lang/ASTWalk.h"
#include "specialize/CacheLimiter.h"
#include "specialize/CachingAnalysis.h"
#include "specialize/Explain.h"
#include "specialize/Splitter.h"
#include "transform/JoinNormalize.h"

using namespace dspec;

void DataSpecializer::runPipeline(Function *Work,
                                  const std::vector<VarDecl *> &Varying,
                                  const SpecializerOptions &Options,
                                  SpecializationResult &Result) {
  // Section 4.1 preprocessing.
  if (Options.EnableJoinNormalize)
    Result.Stats.PhiCopiesInserted = joinNormalize(Work, Ctx);

  // Analyses.
  StructureInfo SI;
  ReachingDefs RD;
  DependenceAnalysis Dep;
  SI.build(Work, Ctx.numNodeIds());
  RD.run(Work, Ctx.numNodeIds());
  Dep.run(Work, Varying, Ctx.numNodeIds());

  // Section 4.2: reassociation consults dependence, then everything is
  // recomputed on the rewritten tree.
  if (Options.EnableReassociate) {
    Result.Stats.ChainsReassociated =
        reassociate(Work, Ctx, Dep, Options.Reassoc);
    if (Result.Stats.ChainsReassociated != 0) {
      SI.build(Work, Ctx.numNodeIds());
      RD.run(Work, Ctx.numNodeIds());
      Dep.run(Work, Varying, Ctx.numNodeIds());
    }
  }

  CostModel CM;
  CM.build(Work, SI, Options.Cost, Ctx.numNodeIds());

  // Section 3.2 constraint solving.
  CachingAnalysis CA(Work, Dep, RD, SI, CM, Options, Ctx.numNodeIds());
  CA.solve();

  // Section 4.3 cache limiting: the per-pixel byte bound.
  if (Options.CacheByteLimit) {
    CacheLimitResult Limited =
        limitCacheSize(CA, CM, RD, SI, *Options.CacheByteLimit,
                       Options.WeightVictimBySize);
    Result.Stats.LimiterVictims = Limited.VictimsRelabeled;
  }

  Result.Layout = CA.finalizeLayout();

  // Stamp each slot's reuse weight (the cost model's structure weight of
  // its cached term): hot slots are read on every pixel, cold ones only
  // under a conditional. Snapshots carry the weights and --explain
  // reports the census.
  for (Expr *Term : CA.cachedTerms()) {
    int Slot = CA.slotOf(Term);
    if (Slot >= 0)
      Result.Layout.setReuseWeight(static_cast<unsigned>(Slot),
                                   static_cast<float>(CM.structureWeight(Term)));
  }

  if (Options.CollectExplanation) {
    Result.Explanation =
        explainSpecialization(Work, Varying, CA, CM, Result.Layout, SI);

    // Hot/cold census of the finalized layout.
    unsigned ColdSlots = 0;
    for (const CacheSlot &Slot : Result.Layout.slots())
      if (Slot.isCold())
        ++ColdSlots;
    Result.Explanation +=
        "\ncache hot bytes: " + std::to_string(Result.Layout.hotBytes()) +
        " of " + std::to_string(Result.Layout.totalBytes()) +
        " bytes per pixel (" + std::to_string(ColdSlots) +
        " cold slot(s), read under a conditional)\n";
  }

  // Section 3.3 splitting. The finalized layout drives the byte offsets
  // embedded in the emitted cache accesses.
  Splitter Split(Ctx, CA, Result.Layout);
  Result.Loader = Split.buildLoader(Work, Work->name() + "_load");
  Result.Reader = Split.buildReader(Work, Work->name() + "_read");
  Result.NormalizedFragment = Work;

  Result.Stats.NormalizedTerms = countTerms(Work);
  Result.Stats.LoaderTerms = countTerms(Result.Loader);
  Result.Stats.ReaderTerms = countTerms(Result.Reader);
  Result.Stats.StaticExprs = CA.countExprs(CacheLabel::CL_Static);
  Result.Stats.CachedExprs = CA.countExprs(CacheLabel::CL_Cached);
  Result.Stats.DynamicExprs = CA.countExprs(CacheLabel::CL_Dynamic);
  Result.Stats.DynamicStmts = CA.countDynamicStmts();
  Result.Stats.DependentTerms = Dep.dependentCount();
}

std::optional<SpecializationResult>
DataSpecializer::specialize(Function *F,
                            const std::vector<std::string> &VaryingParams,
                            const SpecializerOptions &Options) {
  SpecializationResult Result;
  Result.Stats.FragmentTerms = countTerms(F);

  // Clone the fragment so transformations never disturb the caller's AST.
  ASTCloner WorkCloner(Ctx);
  Function *Work = WorkCloner.cloneFunction(F, F->name());

  // Resolve the input partition against the fragment's parameters.
  std::vector<VarDecl *> Varying;
  for (const std::string &Name : VaryingParams) {
    VarDecl *Orig = F->findParam(Name);
    if (!Orig) {
      Diags.error(F->loc(), "input partition names unknown parameter '" +
                                Name + "' of fragment '" + F->name() + "'");
      return std::nullopt;
    }
    Varying.push_back(WorkCloner.lookupDecl(Orig));
  }

  runPipeline(Work, Varying, Options, Result);
  return Result;
}
