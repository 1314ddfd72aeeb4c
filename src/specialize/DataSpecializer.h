//===- specialize/DataSpecializer.h - Public facade -------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: given a fragment (a dsc
/// function) and an input partition (which parameters vary), produce the
/// cache loader and cache reader functions, the cache layout, and
/// statistics. This realizes the paper's signature
///
///   Fragment x Input-Partition ->
///       (All-Inputs -> Cache x Result)          // cache loader
///     x (Cache x All-Inputs -> Result)          // cache reader
///
/// Pipeline: clone the fragment -> join-normalize (Section 4.1) ->
/// dependence analysis (Section 3.1) -> optional reassociation
/// (Section 4.2, analyses re-run) -> caching analysis (Section 3.2) ->
/// optional cache limiting (Section 4.3) -> splitting (Section 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SPECIALIZE_DATASPECIALIZER_H
#define DATASPEC_SPECIALIZE_DATASPECIALIZER_H

#include "lang/ASTContext.h"
#include "specialize/CacheLayout.h"
#include "specialize/Polyvariant.h"
#include "specialize/SpecializerOptions.h"
#include "support/Diagnostics.h"
#include "transform/ConstantFold.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dspec {

/// Term/label counters describing one specialization.
struct SpecializationStats {
  unsigned FragmentTerms = 0;   ///< statements + expressions in the fragment
  unsigned NormalizedTerms = 0; ///< terms after phi insertion/reassociation
  unsigned LoaderTerms = 0;     ///< terms in the emitted loader
  unsigned ReaderTerms = 0;     ///< terms in the emitted reader
  unsigned StaticExprs = 0;
  unsigned CachedExprs = 0;
  unsigned DynamicExprs = 0;
  unsigned DynamicStmts = 0;
  unsigned DependentTerms = 0;
  unsigned PhiCopiesInserted = 0;
  unsigned ChainsReassociated = 0;
  unsigned LimiterVictims = 0;
  /// Measured Section 4.3: victims of the working-set (LLC) limiter, and
  /// the final per-frame figures it converged to (0 when the pass is off).
  unsigned WorkingSetVictims = 0;
  uint64_t HotBytesPerPixel = 0;
  uint64_t WorkingSetBytes = 0;
  /// Branching statements (if / while) in the emitted loader and reader.
  /// Since the masked batched tier, branches no longer disqualify a
  /// reader from batching: effect-free readers always start batched.
  /// The Maskable/Unmaskable split below says how each branch behaves
  /// when lanes disagree (see docs/ENGINE.md, "Masked divergent-lane
  /// execution").
  unsigned LoaderBranchStmts = 0;
  unsigned ReaderBranchStmts = 0;
  /// Reader branches split by divergence handling: maskable diamonds
  /// execute both arms under a per-lane mask; unmaskable branches
  /// (loops, return-carrying ifs) batch only while uniform — a
  /// divergent tile bails to per-pixel execution on the switch tier.
  unsigned ReaderMaskableBranches = 0;
  unsigned ReaderUnmaskableBranches = 0;
};

/// Everything the specializer produces for one fragment + partition.
struct SpecializationResult {
  /// The preprocessed fragment the split was computed from (after phi
  /// insertion / reassociation). Useful for inspection; behaviorally
  /// equivalent to the input fragment (up to float reassociation).
  Function *NormalizedFragment = nullptr;
  /// The cache loader: evaluates everything, fills the cache, returns the
  /// fragment result.
  Function *Loader = nullptr;
  /// The cache reader: consumes the cache, returns the fragment result.
  Function *Reader = nullptr;
  CacheLayout Layout;
  SpecializationStats Stats;
  /// Decision report; filled when Options.CollectExplanation is set.
  std::string Explanation;
};

/// One member of a variant set: the property key plus a full
/// specialization built from the pinned fragment.
struct SpecializedVariant {
  VariantKey Key;
  /// Key rendered against the fragment's parameter names ("generic",
  /// "grain=0").
  std::string Label;
  SpecializationResult Result;
  ConstantFoldStats Fold;
  /// Estimated per-pixel reader savings versus the generic reader:
  /// generic reader weighted cost minus this variant's (Section 4.3's
  /// benefit currency). Zero for the generic variant.
  double PredictedBenefit = 0.0;
};

/// Controls variant-set construction.
struct VariantSetOptions {
  /// Upper bound on emitted variants, including the generic one.
  unsigned MaxVariants = 4;
  /// Section 4.3 byte budget applied across the whole set: whole
  /// low-benefit variants are evicted first; if the generic variant alone
  /// still exceeds the budget, its slots are relabeled (classic §4.3).
  std::optional<unsigned> TotalCacheByteLimit;
  /// When non-empty, these keys are built verbatim (after
  /// canonicalization) instead of running the proposal pass. The generic
  /// key need not be listed; it is always built.
  std::vector<VariantKey> ExplicitKeys;
};

/// Everything specializeVariants produces.
struct VariantSetResult {
  /// Variants[0] is always the generic variant.
  std::vector<SpecializedVariant> Variants;
  /// Whole variants evicted by the cross-variant §4.3 budget.
  unsigned VariantsEvicted = 0;
  /// Sum of surviving variants' per-pixel cache bytes.
  unsigned TotalCacheBytes = 0;

  /// The keys of the surviving variants, in order.
  std::vector<VariantKey> keys() const;
};

/// Renders the human-readable variant table printed by `dspec --explain`:
/// properties, reader size, cache bytes, predicted §4.3 benefit.
std::string formatVariantTable(const VariantSetResult &Set);

/// Drives the full specialization pipeline.
class DataSpecializer {
public:
  DataSpecializer(ASTContext &Ctx, DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags) {}

  /// Specializes \p F with the parameters named in \p VaryingParams
  /// varying and everything else fixed. \p F must have passed Sema.
  /// Returns nullopt (with diagnostics) on invalid input.
  std::optional<SpecializationResult>
  specialize(Function *F, const std::vector<std::string> &VaryingParams,
             const SpecializerOptions &Options = {});

  /// Polyvariant entry point: builds the generic specialization plus one
  /// specialization per admissible property key (proposed automatically
  /// unless VOptions.ExplicitKeys is set), then applies the cross-variant
  /// §4.3 budget. Pins on a varying parameter remove it from that
  /// variant's varying set — the variant is only admissible when the
  /// request value equals the pin, so treating it as invariant is exact.
  std::optional<VariantSetResult>
  specializeVariants(Function *F,
                     const std::vector<std::string> &VaryingParams,
                     const SpecializerOptions &Options = {},
                     const VariantSetOptions &VOptions = {});

private:
  /// Shared pipeline tail: analyses through splitting on an already
  /// cloned (and possibly pinned/folded) working copy.
  void runPipeline(Function *Work, const std::vector<VarDecl *> &Varying,
                   const SpecializerOptions &Options,
                   SpecializationResult &Result);

  /// Builds one variant from scratch (clone, pin, fold, pipeline).
  std::optional<SpecializedVariant>
  buildVariant(Function *F, const std::vector<std::string> &VaryingParams,
               const SpecializerOptions &Options, const VariantKey &Key);

  ASTContext &Ctx;
  DiagnosticEngine &Diags;
};

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_DATASPECIALIZER_H
