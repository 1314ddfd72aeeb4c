//===- driver/Pipeline.cpp - End-to-end convenience API --------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "lang/ASTPrinter.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "vm/BytecodeCompiler.h"

#include <cassert>

using namespace dspec;

std::unique_ptr<CompilationUnit> dspec::parseUnit(std::string_view Source) {
  auto Unit = std::make_unique<CompilationUnit>();
  Parser P(Source, Unit->Ctx, Unit->Diags);
  Program *Prog = P.parseProgram();
  if (Unit->Diags.hasErrors())
    return Unit;
  Sema S(Unit->Diags);
  if (!S.run(Prog))
    return Unit;
  Unit->Prog = Prog;
  return Unit;
}

std::string CompiledSpecialization::loaderSource() const {
  return printFunction(Spec.Loader);
}

std::string CompiledSpecialization::readerSource() const {
  return printFunction(Spec.Reader);
}

std::string CompiledSpecialization::normalizedSource() const {
  PrintOptions Options;
  Options.AnnotatePhiCopies = true;
  return printFunction(Spec.NormalizedFragment, Options);
}

/// Compiles the three programs of one specialization result and stamps
/// the cache chunks with the authoritative layout extent (the compiler
/// only sees the slots each chunk touches, but caches must always be
/// sized for the whole layout).
static CompiledSpecialization compileSpecialization(Function *F,
                                                    SpecializationResult &&Spec) {
  CompiledSpecialization Out;
  Out.Spec = std::move(Spec);
  Out.OriginalChunk = BytecodeCompiler().compile(F);
  Out.LoaderChunk = BytecodeCompiler().compile(Out.Spec.Loader);
  Out.ReaderChunk = BytecodeCompiler().compile(Out.Spec.Reader);

  const CacheLayout &Layout = Out.Spec.Layout;
  assert(Out.LoaderChunk.CacheSlotCount <= Layout.slotCount() &&
         Out.LoaderChunk.CacheBytes <= Layout.totalBytes() &&
         "loader accesses slots outside the finalized layout");
  assert(Out.ReaderChunk.CacheSlotCount <= Layout.slotCount() &&
         Out.ReaderChunk.CacheBytes <= Layout.totalBytes() &&
         "reader accesses slots outside the finalized layout");
  Out.LoaderChunk.CacheSlotCount = Layout.slotCount();
  Out.LoaderChunk.CacheBytes = Layout.totalBytes();
  Out.ReaderChunk.CacheSlotCount = Layout.slotCount();
  Out.ReaderChunk.CacheBytes = Layout.totalBytes();
  return Out;
}

std::optional<CompiledSpecialization>
dspec::specializeAndCompile(CompilationUnit &Unit,
                            const std::string &FragmentName,
                            const std::vector<std::string> &VaryingParams,
                            const SpecializerOptions &Options) {
  if (!Unit.ok())
    return std::nullopt;
  Function *F = Unit.Prog->findFunction(FragmentName);
  if (!F) {
    Unit.Diags.error(SourceLoc(),
                     "no function named '" + FragmentName + "' in unit");
    return std::nullopt;
  }

  DataSpecializer Specializer(Unit.Ctx, Unit.Diags);
  auto Spec = Specializer.specialize(F, VaryingParams, Options);
  if (!Spec)
    return std::nullopt;
  return compileSpecialization(F, std::move(*Spec));
}

std::optional<CompiledVariantSet> dspec::specializeAndCompileVariants(
    CompilationUnit &Unit, const std::string &FragmentName,
    const std::vector<std::string> &VaryingParams,
    const SpecializerOptions &Options, const VariantSetOptions &) {
  auto Spec = specializeAndCompile(Unit, FragmentName, VaryingParams, Options);
  if (!Spec)
    return std::nullopt;
  CompiledVariantSet Set;
  Set.Variants.push_back({VariantKey(), "generic", std::move(*Spec)});
  return Set;
}

std::optional<Chunk> dspec::compileFunction(CompilationUnit &Unit,
                                            const std::string &FunctionName) {
  if (!Unit.ok())
    return std::nullopt;
  Function *F = Unit.Prog->findFunction(FunctionName);
  if (!F) {
    Unit.Diags.error(SourceLoc(),
                     "no function named '" + FunctionName + "' in unit");
    return std::nullopt;
  }
  return BytecodeCompiler().compile(F);
}
