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

#include <algorithm>
#include <cstdio>
#include <unordered_set>

using namespace dspec;

std::vector<VariantKey> VariantSetResult::keys() const {
  std::vector<VariantKey> Out;
  Out.reserve(Variants.size());
  for (const SpecializedVariant &V : Variants)
    Out.push_back(V.Key);
  return Out;
}

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

  // Section 4.3 cache limiting: the static per-pixel bound first, then
  // the measured working-set bound (hot bytes x arena pixels vs the LLC)
  // when the caller supplied both figures.
  if (Options.CacheByteLimit) {
    CacheLimitResult Limited =
        limitCacheSize(CA, CM, RD, SI, *Options.CacheByteLimit,
                       Options.WeightVictimBySize);
    Result.Stats.LimiterVictims = Limited.VictimsRelabeled;
  }
  if (Options.LlcByteBound != 0 && Options.ArenaPixels != 0) {
    WorkingSetLimitResult WS =
        limitToWorkingSet(CA, CM, RD, SI, Options.LlcByteBound,
                          Options.ArenaPixels, Options.WeightVictimBySize);
    Result.Stats.WorkingSetVictims = WS.VictimsRelabeled;
    Result.Stats.HotBytesPerPixel = WS.HotBytesPerPixel;
    Result.Stats.WorkingSetBytes = WS.WorkingSetBytes;
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

    // Hot/cold census of the finalized layout, plus the measured
    // Section 4.3 verdict when a working-set bound was in force.
    unsigned ColdSlots = 0;
    for (const CacheSlot &Slot : Result.Layout.slots())
      if (Slot.isCold())
        ++ColdSlots;
    Result.Explanation +=
        "\ncache hot bytes: " + std::to_string(Result.Layout.hotBytes()) +
        " of " + std::to_string(Result.Layout.totalBytes()) +
        " bytes per pixel (" + std::to_string(ColdSlots) +
        " cold slot(s), read under a conditional)\n";
    if (Options.LlcByteBound != 0 && Options.ArenaPixels != 0) {
      Result.Explanation +=
          "working-set limit: " +
          std::to_string(Result.Stats.HotBytesPerPixel) + " hot B/px x " +
          std::to_string(Options.ArenaPixels) + " px = " +
          std::to_string(Result.Stats.WorkingSetBytes) +
          " bytes vs LLC bound " + std::to_string(Options.LlcByteBound) +
          " — fits, " + std::to_string(Result.Stats.WorkingSetVictims) +
          " victim(s) evicted\n";
    }
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
  Result.Stats.LoaderBranchStmts = Splitter::countBranchStmts(Result.Loader);
  Result.Stats.ReaderBranchStmts = Splitter::countBranchStmts(Result.Reader);
  Splitter::countBranchKinds(Result.Reader,
                             Result.Stats.ReaderMaskableBranches,
                             Result.Stats.ReaderUnmaskableBranches);

  if (Options.CollectExplanation) {
    // Batch eligibility is a property of the emitted split, so it lands
    // after the main (pre-split) decision report. Every effect-free
    // reader starts on the batched tier; the branch-kind split says what
    // happens when lanes diverge (masked arms vs a per-pixel bail).
    const SpecializationStats &St = Result.Stats;
    Result.Explanation +=
        "\nreader control flow: " + std::to_string(St.ReaderBranchStmts) +
        " branch statement(s)";
    if (St.ReaderBranchStmts == 0) {
      Result.Explanation +=
          " — divergence-free, batched tier executes tiles in lockstep\n";
    } else {
      Result.Explanation +=
          " (" + std::to_string(St.ReaderMaskableBranches) +
          " maskable diamond(s), " +
          std::to_string(St.ReaderUnmaskableBranches) +
          " unmaskable loop(s)/return(s)) — batched tier masks divergent "
          "diamonds; divergence at an unmaskable branch re-runs the tile "
          "per-pixel (switch tier)\n";
    }
  }
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

//===----------------------------------------------------------------------===//
// Polyvariant specialization.
//===----------------------------------------------------------------------===//

/// Weighted per-pixel execution cost of a reader, the currency the §4.3
/// benefit comparison is made in.
static double readerWeightedCost(Function *Reader, const CostOptions &Cost,
                                 ASTContext &Ctx) {
  StructureInfo SI;
  SI.build(Reader, Ctx.numNodeIds());
  CostModel CM;
  CM.build(Reader, SI, Cost, Ctx.numNodeIds());
  double Total = 0.0;
  walkStmts(Reader->body(), [&](Stmt *S) {
    forEachExprOfStmt(S, [&](Expr *E) { Total += CM.weightedCost(E); });
  });
  return Total;
}

std::optional<SpecializedVariant>
DataSpecializer::buildVariant(Function *F,
                              const std::vector<std::string> &VaryingParams,
                              const SpecializerOptions &Options,
                              const VariantKey &Key) {
  SpecializedVariant V;
  V.Key = Key;

  std::vector<std::string> Names;
  Names.reserve(F->params().size());
  for (VarDecl *P : F->params())
    Names.push_back(P->name());
  V.Label = Key.label(Names);

  V.Result.Stats.FragmentTerms = countTerms(F);

  ASTCloner Cloner(Ctx);
  Function *Work = Cloner.cloneFunction(F, F->name());

  std::vector<std::pair<VarDecl *, float>> Pins;
  std::unordered_set<std::string> PinnedNames;
  for (const VariantPin &Pin : Key.Pins) {
    if (Pin.ParamIndex >= F->params().size()) {
      Diags.error(F->loc(), "variant key pins parameter index " +
                                std::to_string(Pin.ParamIndex) +
                                " beyond fragment '" + F->name() + "'");
      return std::nullopt;
    }
    VarDecl *Orig = F->params()[Pin.ParamIndex];
    if (!Orig->type().isFloat()) {
      Diags.error(F->loc(), "variant key pins non-float parameter '" +
                                Orig->name() + "'");
      return std::nullopt;
    }
    Pins.emplace_back(Cloner.lookupDecl(Orig), paramPropValue(Pin.Prop));
    PinnedNames.insert(Orig->name());
  }

  // A pinned varying parameter leaves the variant's varying set: the
  // variant only serves requests where the parameter equals the pin, so
  // within the variant it is a genuine invariant.
  std::vector<VarDecl *> Varying;
  for (const std::string &Name : VaryingParams) {
    if (PinnedNames.count(Name))
      continue;
    VarDecl *Orig = F->findParam(Name);
    if (!Orig) {
      Diags.error(F->loc(), "input partition names unknown parameter '" +
                                Name + "' of fragment '" + F->name() + "'");
      return std::nullopt;
    }
    Varying.push_back(Cloner.lookupDecl(Orig));
  }

  V.Fold = constantFoldWithPins(Work, Ctx, Pins);
  runPipeline(Work, Varying, Options, V.Result);
  return V;
}

std::optional<VariantSetResult>
DataSpecializer::specializeVariants(Function *F,
                                    const std::vector<std::string> &VaryingParams,
                                    const SpecializerOptions &Options,
                                    const VariantSetOptions &VOptions) {
  VariantSetResult Set;

  // The generic variant anchors the set; it is always admissible.
  std::optional<SpecializedVariant> Generic =
      buildVariant(F, VaryingParams, Options, VariantKey());
  if (!Generic)
    return std::nullopt;
  double GenericCost =
      readerWeightedCost(Generic->Result.Reader, Options.Cost, Ctx);
  Set.Variants.push_back(std::move(*Generic));

  // Candidate keys: explicit or proposed.
  std::vector<VariantKey> Keys = VOptions.ExplicitKeys;
  if (Keys.empty() && VOptions.MaxVariants > 1)
    Keys = proposeVariantKeys(F, VaryingParams, VOptions.MaxVariants - 1);

  std::vector<VariantKey> Built;
  for (VariantKey Key : Keys) {
    if (Set.Variants.size() >= std::max(1u, VOptions.MaxVariants) &&
        VOptions.ExplicitKeys.empty())
      break;
    Key.canonicalize();
    if (Key.isGeneric() ||
        std::find(Built.begin(), Built.end(), Key) != Built.end())
      continue;
    std::optional<SpecializedVariant> V =
        buildVariant(F, VaryingParams, Options, Key);
    if (!V)
      return std::nullopt;
    V->PredictedBenefit =
        GenericCost - readerWeightedCost(V->Result.Reader, Options.Cost, Ctx);
    Built.push_back(Key);
    Set.Variants.push_back(std::move(*V));
  }

  // Cross-variant Section 4.3: evict whole low-benefit variants until the
  // set fits the budget; only then relabel slots (of the generic variant,
  // the one that cannot be evicted).
  auto TotalBytes = [&Set]() {
    unsigned Total = 0;
    for (const SpecializedVariant &V : Set.Variants)
      Total += V.Result.Layout.totalBytes();
    return Total;
  };
  if (VOptions.TotalCacheByteLimit) {
    unsigned Limit = *VOptions.TotalCacheByteLimit;
    while (TotalBytes() > Limit && Set.Variants.size() > 1) {
      // Victim: the non-generic variant with the least predicted benefit;
      // ties break toward the larger layout (cheapest benefit per byte).
      size_t Victim = 1;
      for (size_t I = 2; I < Set.Variants.size(); ++I) {
        const SpecializedVariant &A = Set.Variants[I];
        const SpecializedVariant &B = Set.Variants[Victim];
        if (A.PredictedBenefit < B.PredictedBenefit ||
            (A.PredictedBenefit == B.PredictedBenefit &&
             A.Result.Layout.totalBytes() > B.Result.Layout.totalBytes()))
          Victim = I;
      }
      Set.Variants.erase(Set.Variants.begin() +
                         static_cast<ptrdiff_t>(Victim));
      ++Set.VariantsEvicted;
    }
    if (TotalBytes() > Limit) {
      // Only the generic variant remains and it alone busts the budget:
      // fall back to the classic per-slot §4.3 relabeling.
      SpecializerOptions Narrowed = Options;
      Narrowed.CacheByteLimit = Limit;
      std::optional<SpecializedVariant> Replacement =
          buildVariant(F, VaryingParams, Narrowed, VariantKey());
      if (!Replacement)
        return std::nullopt;
      Set.Variants.front() = std::move(*Replacement);
    }
  }

  Set.TotalCacheBytes = TotalBytes();
  return Set;
}

std::string dspec::formatVariantTable(const VariantSetResult &Set) {
  std::string Out;
  Out += "variant table (" + std::to_string(Set.Variants.size()) +
         " variant(s), " + std::to_string(Set.TotalCacheBytes) +
         " cache byte(s) total";
  if (Set.VariantsEvicted)
    Out += ", " + std::to_string(Set.VariantsEvicted) +
           " evicted by the cross-variant budget";
  Out += ")\n";
  Out += "  properties            reader terms  branches m/u  cache B  "
         "tier          predicted benefit\n";
  for (const SpecializedVariant &V : Set.Variants) {
    const SpecializationStats &St = V.Result.Stats;
    // Every effect-free reader starts batched; unmaskable branches mean
    // a divergent tile bails to the switch tier at runtime.
    const char *TierName = St.ReaderUnmaskableBranches
                               ? "batched/bail"
                               : "batched";
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "  %-20s  %12u  %7u %2u/%-2u  %7u  %-12s  %17.1f\n",
                  V.Label.c_str(), St.ReaderTerms, St.ReaderBranchStmts,
                  St.ReaderMaskableBranches, St.ReaderUnmaskableBranches,
                  V.Result.Layout.totalBytes(), TierName,
                  V.PredictedBenefit);
    Out += Line;
  }
  return Out;
}
