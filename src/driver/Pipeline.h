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
#include <vector>

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

/// Empty and read by nothing. VariantKey, VariantSetOptions,
/// CompiledVariant, CompiledVariantSet, specializeAndCompileVariants and
/// SpecializationUnit::{Variant, VariantLabel} (service/UnitCache.h) exist
/// only so that perfbench/Replay.cpp, which builds its units through
/// specializeAndCompileVariants, keeps building; nothing else may call or
/// read them. ROADMAP item 2 deletes them together with that call and the
/// ArenaLayoutConfig shim.
struct VariantKey {
  bool operator==(const VariantKey &) const = default;
};

/// See VariantKey.
struct VariantSetOptions {
  unsigned MaxVariants = 1;
};

/// See VariantKey.
struct CompiledVariant {
  VariantKey Key;
  std::string Label = "generic";
  CompiledSpecialization Compiled;
};

/// See VariantKey.
struct CompiledVariantSet {
  std::vector<CompiledVariant> Variants;
};

/// specializeAndCompile's result as the one member of a set; see
/// VariantKey.
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
