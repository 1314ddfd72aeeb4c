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
#include "specialize/SpecializerOptions.h"
#include "support/Diagnostics.h"

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

private:
  /// Analyses through splitting on the cloned working copy \p Work.
  void runPipeline(Function *Work, const std::vector<VarDecl *> &Varying,
                   const SpecializerOptions &Options,
                   SpecializationResult &Result);

  ASTContext &Ctx;
  DiagnosticEngine &Diags;
};

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_DATASPECIALIZER_H
