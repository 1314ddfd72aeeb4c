//===- examples/quickstart.cpp - The paper's Section 2 walk-through ---------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: specialize the paper's dot-product fragment (Figure 1)
/// with the z coordinates varying, print the generated cache loader and
/// cache reader (Figure 2), and run all three programs to show that the
/// staged pair reproduces the original's results while doing less work
/// per varying-input change.
///
/// Build & run:  ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "vm/VM.h"

#include <cstdio>

using namespace dspec;

int main() {
  // 1. A dsc fragment: the paper's Figure 1 (ERROR modeled as -1).
  const char *Source = R"(
float dotprod(float x1, float y1, float z1,
              float x2, float y2, float z2, float scale) {
  if (scale != 0.0) {
    return (x1*x2 + y1*y2 + z1*z2) / scale;
  } else {
    return -1.0;
  }
}
)";

  auto Unit = parseUnit(Source);
  if (!Unit->ok()) {
    std::fprintf(stderr, "parse/sema failed:\n%s", Unit->Diags.str().c_str());
    return 1;
  }

  // 2. Choose the input partition: z1 and z2 vary, everything else is
  //    fixed. Reassociation groups the invariant products (Section 4.2).
  SpecializerOptions Options;
  Options.EnableReassociate = true;
  auto Spec = specializeAndCompile(*Unit, "dotprod", {"z1", "z2"}, Options);
  if (!Spec) {
    std::fprintf(stderr, "specialization failed:\n%s",
                 Unit->Diags.str().c_str());
    return 1;
  }

  std::printf("=== cache loader (early phase) ===\n%s\n",
              Spec->loaderSource().c_str());
  std::printf("=== cache reader (late phase) ===\n%s\n",
              Spec->readerSource().c_str());
  std::printf("cache: %u slot(s), %u byte(s)\n\n",
              Spec->Spec.Layout.slotCount(), Spec->Spec.Layout.totalBytes());

  // 3. Execute. The loader runs once when the fixed inputs become known;
  //    the reader runs every time the varying inputs change. The cache is
  //    a packed byte buffer of exactly the layout's size, accessed through
  //    a CacheView — the same representation the render engine's arena
  //    uses per pixel, and the only one the VM runs against.
  VM Machine;
  std::vector<unsigned char> CacheBytes(Spec->Spec.Layout.totalBytes());
  CacheView View(CacheBytes.data(),
                 static_cast<unsigned>(CacheBytes.size()));
  auto Args = [](float Z1, float Z2) {
    return std::vector<Value>{
        Value::makeFloat(1.0f), Value::makeFloat(2.0f), Value::makeFloat(Z1),
        Value::makeFloat(4.0f), Value::makeFloat(5.0f), Value::makeFloat(Z2),
        Value::makeFloat(2.0f)};
  };

  ExecResult First = Machine.run(Spec->LoaderChunk, Args(3.0f, 6.0f), View);
  const CacheSlot &Slot0 = Spec->Spec.Layout.slot(0);
  std::printf("loader(z1=3, z2=6)  = %s   (fills the cache: slot0 = %s)\n",
              First.Result.str().c_str(),
              View.load(Slot0.Offset, Slot0.SlotType.kind()).str().c_str());

  for (float Z1 : {10.0f, -1.0f, 0.5f}) {
    ExecResult FromReader =
        Machine.run(Spec->ReaderChunk, Args(Z1, 6.0f), View);
    ExecResult Reference =
        Machine.run(Spec->OriginalChunk, Args(Z1, 6.0f));
    std::printf("reader(z1=%5.1f)    = %-10s original = %-10s  (%s, "
                "%llu vs %llu VM instructions)\n",
                Z1, FromReader.Result.str().c_str(),
                Reference.Result.str().c_str(),
                FromReader.Result.equals(Reference.Result) ? "match"
                                                           : "MISMATCH",
                static_cast<unsigned long long>(
                    FromReader.InstructionsExecuted),
                static_cast<unsigned long long>(
                    Reference.InstructionsExecuted));
  }
  return 0;
}
