//===- driver/Pipeline.h - End-to-end convenience API -----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The high-level API most clients want:
///
///   auto Unit = parseUnit(Source);                     // parse + Sema
///   auto Spec = specializeAndCompile(*Unit, "dotprod",
///                                    {"z1", "z2"});    // split + compile
///   std::vector<unsigned char> Bytes(Spec->Spec.Layout.totalBytes());
///   CacheView View(Bytes.data(), static_cast<unsigned>(Bytes.size()));
///   VM Machine;
///   Machine.run(Spec->LoaderChunk, Args, View);        // early phase
///   Machine.run(Spec->ReaderChunk, Args, View);        // late phase(s)
///
/// Everything below is a thin composition of the lang / specialize / vm
/// libraries; nothing here adds semantics.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_DRIVER_PIPELINE_H
#define DATASPEC_DRIVER_PIPELINE_H

#include "lang/ASTContext.h"
#include "specialize/DataSpecializer.h"
#include "support/Diagnostics.h"
#include "vm/Bytecode.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace dspec {

/// One parsed-and-checked dsc source buffer. Owns the AST.
struct CompilationUnit {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  Program *Prog = nullptr;

  bool ok() const { return Prog != nullptr && !Diags.hasErrors(); }
};

/// Parses and semantically checks \p Source. Always returns a unit; check
/// ok() / Diags for failure details.
std::unique_ptr<CompilationUnit> parseUnit(std::string_view Source);

/// A specialization together with executable code for all three programs.
struct CompiledSpecialization {
  SpecializationResult Spec;
  Chunk OriginalChunk;
  Chunk LoaderChunk;
  Chunk ReaderChunk;

  /// C-like listings (Figure 2 style).
  std::string loaderSource() const;
  std::string readerSource() const;
  std::string normalizedSource() const;
};

/// Runs the specializer on function \p FragmentName of \p Unit with
/// \p VaryingParams varying, then compiles the original fragment, the
/// loader, and the reader. Returns nullopt (with diagnostics in the unit)
/// on failure.
std::optional<CompiledSpecialization>
specializeAndCompile(CompilationUnit &Unit, const std::string &FragmentName,
                     const std::vector<std::string> &VaryingParams,
                     const SpecializerOptions &Options = {});

/// One compiled member of a variant set.
struct CompiledVariant {
  VariantKey Key;
  std::string Label; // "generic", "grain=0", ...
  ConstantFoldStats Fold;
  /// Generic reader weighted cost minus this variant's (zero for the
  /// generic variant itself).
  double PredictedBenefit = 0.0;
  CompiledSpecialization Compiled;
};

/// A compiled variant set; Variants[0] is always the generic variant.
struct CompiledVariantSet {
  std::vector<CompiledVariant> Variants;
  unsigned VariantsEvicted = 0;
  unsigned TotalCacheBytes = 0;
  /// The `dspec --explain` variant table, rendered at build time.
  std::string Table;

  std::vector<VariantKey> keys() const;
  /// The variant with this exact (canonical) key, or null.
  const CompiledVariant *find(const VariantKey &Key) const;
};

/// Polyvariant counterpart of specializeAndCompile: builds and compiles
/// the generic variant plus the property-keyed variants (proposed, or
/// VOptions.ExplicitKeys verbatim), applying the cross-variant cache
/// budget. Returns nullopt (with diagnostics in the unit) on failure.
std::optional<CompiledVariantSet>
specializeAndCompileVariants(CompilationUnit &Unit,
                             const std::string &FragmentName,
                             const std::vector<std::string> &VaryingParams,
                             const SpecializerOptions &Options = {},
                             const VariantSetOptions &VOptions = {});

/// Compiles a plain function of \p Unit (no specialization).
std::optional<Chunk> compileFunction(CompilationUnit &Unit,
                                     const std::string &FunctionName);

} // namespace dspec

#endif // DATASPEC_DRIVER_PIPELINE_H
