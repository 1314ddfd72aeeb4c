//===- tests/TestCachingAnalysis.cpp - Section 3.2 solver tests ---------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests of the Figure 3 constraint solver through the public
/// DataSpecializer interface: which terms end up static, cached, dynamic;
/// the structural invariants of the frontier; and the paper's worked
/// examples.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/CacheArena.h"
#include "lang/ASTWalk.h"
#include "support/Casting.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace dspec;

namespace {

/// Convenience: specializes and returns the result (asserting success).
CompiledSpecialization mustSpecialize(CompilationUnit &Unit,
                                      const std::string &Name,
                                      const std::vector<std::string> &Vary,
                                      SpecializerOptions Options = {}) {
  auto Spec = specializeAndCompile(Unit, Name, Vary, Options);
  EXPECT_TRUE(Spec.has_value()) << Unit.Diags.str();
  return std::move(*Spec);
}

TEST(CachingAnalysis, UnknownVaryingParamIsAnError) {
  auto Unit = parseUnit("float f(float a) { return a; }");
  auto Spec = specializeAndCompile(*Unit, "f", {"nope"});
  EXPECT_FALSE(Spec.has_value());
  EXPECT_NE(Unit->Diags.str().find("unknown parameter 'nope'"),
            std::string::npos);
}

TEST(CachingAnalysis, EmptyPartitionCachesResultValue) {
  // Nothing varies: the whole computation is independent, so the reader
  // collapses to returning one cached value.
  auto Unit = parseUnit(
      "float f(float a, float b) { return sqrt(a) * pow(b, 2.0); }");
  auto Spec = mustSpecialize(*Unit, "f", {});
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 1u);
  std::string Reader = Spec.readerSource();
  EXPECT_NE(Reader.find("return cache->slot0;"), std::string::npos)
      << Reader;
}

TEST(CachingAnalysis, EverythingVariesCachesNothing) {
  auto Unit = parseUnit(
      "float f(float a, float b) { return sqrt(a) * pow(b, 2.0); }");
  auto Spec = mustSpecialize(*Unit, "f", {"a", "b"});
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 0u);
  // Reader is the original program (modulo the name).
  EXPECT_EQ(Spec.Spec.Stats.ReaderTerms, Spec.Spec.Stats.NormalizedTerms);
}

TEST(CachingAnalysis, TrivialTermsNotCached) {
  // `a != 0.0` is trivial (the paper's (scale != 0) case): the reader
  // re-evaluates it rather than paying a memory reference.
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  if (a != 0.0) {
    return sqrt(a) + v;
  }
  return v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  std::string Reader = Spec.readerSource();
  EXPECT_NE(Reader.find("a != 0.0"), std::string::npos) << Reader;
  // But sqrt(a) is worth one slot.
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 1u);
}

TEST(CachingAnalysis, ParameterReferencesNeverCached) {
  auto Unit = parseUnit("float f(float a, float v) { return a * v; }");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  // a is directly available to the reader: no cache at all.
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 0u);
  EXPECT_NE(Spec.readerSource().find("a * v"), std::string::npos);
}

TEST(CachingAnalysis, FrontierHasDynamicConsumers) {
  // Policy requirement: every cached value is consumed by the reader.
  auto Unit = parseUnit(R"(
float f(float a, float b, float v) {
  float unused = sqrt(a) * 10.0;
  float used = pow(a, b);
  return used * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  // Only pow(a, b) feeds the reader; sqrt(a) has no dynamic consumer.
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 1u);
  std::string Reader = Spec.readerSource();
  EXPECT_EQ(Reader.find("unused"), std::string::npos) << Reader;
  std::string Loader = Spec.loaderSource();
  EXPECT_NE(Loader.find("unused"), std::string::npos) << Loader;
}

TEST(CachingAnalysis, CachedTermsHaveOnlyStaticSubterms) {
  // Frontier invariant: no store nests inside another store.
  auto Unit = parseUnit(R"(
float f(float a, float b, float v) {
  return (sqrt(a) + pow(a, b) * 2.0) * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  bool SawNestedStore = false;
  walkExprsInStmt(Spec.Spec.Loader->body(), [&](Expr *E) {
    if (auto *Store = dyn_cast<CacheStoreExpr>(E)) {
      walkExpr(Store->operand(), [&](Expr *Sub) {
        if (isa<CacheStoreExpr>(Sub))
          SawNestedStore = true;
      });
    }
  });
  EXPECT_FALSE(SawNestedStore);
}

TEST(CachingAnalysis, Rule4PullsDefinitionsIntoReader) {
  // v's dynamic use forces x's definition into the reader, where its
  // right-hand side is cached at the definition (Figure 6 pattern).
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  float x = sqrt(a) * 3.0;
  return x * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  std::string Reader = Spec.readerSource();
  EXPECT_NE(Reader.find("x = cache->slot0"), std::string::npos) << Reader;
  EXPECT_NE(Reader.find("x * v"), std::string::npos) << Reader;
  EXPECT_EQ(Reader.find("sqrt"), std::string::npos) << Reader;
}

TEST(CachingAnalysis, Rule5GuardsBecomeDynamic) {
  // The dynamic return inside the if forces the construct (and its
  // independent condition) into the reader.
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  if (sqrt(a) > 1.0) {
    return v * 2.0;
  }
  return v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  std::string Reader = Spec.readerSource();
  // The entire independent predicate is the maximal cacheable term, so
  // the reader tests one cached boolean.
  EXPECT_NE(Reader.find("if (cache->slot0)"), std::string::npos) << Reader;
  EXPECT_EQ(Reader.find("sqrt"), std::string::npos) << Reader;
  ASSERT_EQ(Spec.Spec.Layout.slotCount(), 1u);
  EXPECT_EQ(Spec.Spec.Layout.slots()[0].SlotType, Type::boolTy());
}

TEST(CachingAnalysis, Rule3NoSpeculationUnderDependentGuard) {
  // Everything under a dependent predicate is dynamic: caching pow(a,b)
  // would require the loader to speculate.
  auto Unit = parseUnit(R"(
float f(float a, float b, float v) {
  float r = 0.0;
  if (v > 0.0) {
    r = pow(a, b);
  }
  return r;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 0u);
  EXPECT_NE(Spec.readerSource().find("pow(a, b)"), std::string::npos);
}

TEST(CachingAnalysis, Rule2GlobalEffectsStayInReader) {
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  dsc_trace(a);
  return sqrt(a) * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  std::string Reader = Spec.readerSource();
  EXPECT_NE(Reader.find("dsc_trace(a)"), std::string::npos) << Reader;

  // Behavioral check: the trace fires in loader AND in every reader run.
  VM Machine;
  CacheArena Slots(1, Spec.Spec.Layout);
  std::vector<Value> Args = {Value::makeFloat(2.0f), Value::makeFloat(1.0f)};
  Machine.run(Spec.LoaderChunk, Args, Slots.view(0));
  Machine.run(Spec.ReaderChunk, Args, Slots.view(0));
  Machine.run(Spec.ReaderChunk, Args, Slots.view(0));
  EXPECT_EQ(Machine.traceLog().size(), 3u);
}

TEST(CachingAnalysis, VolatileValueNotCached) {
  // dsc_clock reads global state; consumers must re-execute, nothing
  // derived from it may be cached.
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  float t = dsc_clock() * sqrt(a);
  return t + v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  std::string Reader = Spec.readerSource();
  EXPECT_NE(Reader.find("dsc_clock()"), std::string::npos) << Reader;
  // sqrt(a) is independent and feeds a dynamic multiply: it gets cached.
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 1u);
}

TEST(CachingAnalysis, LoopResultCachedThroughPhi) {
  // The classic iterative pattern: the whole loop folds into one slot.
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  float sum = 0.0;
  for (int i = 0; i < 8; i = i + 1) {
    sum = sum + noise(vec3(a, a, a) * toFloat(i));
  }
  return sum * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  EXPECT_EQ(Spec.Spec.Layout.slotCount(), 1u);
  std::string Reader = Spec.readerSource();
  EXPECT_EQ(Reader.find("while"), std::string::npos) << Reader;
  EXPECT_EQ(Reader.find("noise"), std::string::npos) << Reader;

  // And it is numerically right.
  VM Machine;
  CacheArena Slots(1, Spec.Spec.Layout);
  std::vector<Value> Args = {Value::makeFloat(0.7f), Value::makeFloat(3.0f)};
  auto Orig = Machine.run(Spec.OriginalChunk, Args);
  Machine.run(Spec.LoaderChunk, Args, Slots.view(0));
  auto Read = Machine.run(Spec.ReaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Orig.ok());
  ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
  EXPECT_TRUE(Orig.Result.equals(Read.Result));
}

TEST(CachingAnalysis, DependentLoopRunsInReader) {
  auto Unit = parseUnit(R"(
float f(float a, float v) {
  float sum = 0.0;
  float i = 0.0;
  while (i < v) {
    sum = sum + sqrt(a);
    i = i + 1.0;
  }
  return sum;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  std::string Reader = Spec.readerSource();
  EXPECT_NE(Reader.find("while (i < v)"), std::string::npos) << Reader;
  // sqrt(a) is loop-invariant and independent: cached even inside the
  // dependent... no — the loop body is under a dependent guard (Rule 3),
  // so it must be dynamic.
  EXPECT_NE(Reader.find("sqrt(a)"), std::string::npos) << Reader;
}

TEST(CachingAnalysis, VectorSlotSizes) {
  auto Unit = parseUnit(R"(
vec3 f(vec3 a, float v) {
  vec3 n = normalize(a);
  return n * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  ASSERT_EQ(Spec.Spec.Layout.slotCount(), 1u);
  EXPECT_EQ(Spec.Spec.Layout.totalBytes(), 12u);
  EXPECT_EQ(Spec.Spec.Layout.slots()[0].SlotType, Type::vec3Ty());
}

TEST(CachingAnalysis, SlotOffsetsPack) {
  auto Unit = parseUnit(R"(
float f(vec3 a, float b, float v) {
  vec3 n = normalize(a);
  float s = pow(b, 3.0);
  return (n.x + s) * v + dot(n, a) * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  const auto &Slots = Spec.Spec.Layout.slots();
  ASSERT_GE(Slots.size(), 2u);
  unsigned Expected = 0;
  for (const CacheSlot &Slot : Slots) {
    EXPECT_EQ(Slot.Offset, Expected);
    Expected += Slot.SlotType.sizeInBytes();
  }
  EXPECT_EQ(Spec.Spec.Layout.totalBytes(), Expected);
}

TEST(CachingAnalysis, StatsAreConsistent) {
  auto Unit = parseUnit(R"(
float f(float a, float b, float v) {
  float x = sqrt(a) + pow(a, b);
  if (x > 1.0) {
    x = x * 2.0;
  }
  return x * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  const auto &S = Spec.Spec.Stats;
  EXPECT_GT(S.FragmentTerms, 0u);
  EXPECT_GE(S.NormalizedTerms, S.FragmentTerms);
  EXPECT_GT(S.LoaderTerms, S.NormalizedTerms); // stores added
  EXPECT_LT(S.ReaderTerms, S.NormalizedTerms); // projection
  EXPECT_EQ(S.CachedExprs, Spec.Spec.Layout.slotCount());
  EXPECT_GT(S.StaticExprs, 0u);
  EXPECT_GT(S.DynamicExprs, 0u);
}

TEST(CachingAnalysis, ReaderNeverContainsStaticOrStoreNodes) {
  auto Unit = parseUnit(R"(
float f(float a, float b, float v) {
  float x = sqrt(a) * pow(a, b);
  float y = x + 1.0;
  if (y > 2.0) { y = y - 1.0; }
  return y * v + x;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  walkExprsInStmt(Spec.Spec.Reader->body(), [&](Expr *E) {
    EXPECT_FALSE(isa<CacheStoreExpr>(E));
  });
  walkExprsInStmt(Spec.Spec.Loader->body(), [&](Expr *E) {
    EXPECT_FALSE(isa<CacheReadExpr>(E));
  });
}

TEST(CachingAnalysis, BareDeclEmittedForStorage) {
  // x's declaration is static (its init feeds only the loader), but the
  // reader assigns x, so a bare declaration must appear.
  auto Unit = parseUnit(R"(
float f(float a, float p, float v) {
  float x = sqrt(a);
  if (p > 0.0) {
    x = pow(a, 3.0);
  }
  return x * v;
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  std::string Reader = Spec.readerSource();
  EXPECT_NE(Reader.find("float x;"), std::string::npos) << Reader;

  VM Machine;
  CacheArena Slots(1, Spec.Spec.Layout);
  for (float P : {-1.0f, 1.0f}) {
    std::vector<Value> Args = {Value::makeFloat(2.0f), Value::makeFloat(P),
                               Value::makeFloat(0.5f)};
    auto Orig = Machine.run(Spec.OriginalChunk, Args);
    Machine.run(Spec.LoaderChunk, Args, Slots.view(0));
    auto Read = Machine.run(Spec.ReaderChunk, Args, Slots.view(0));
    ASSERT_TRUE(Read.ok()) << Read.TrapMessage;
    EXPECT_TRUE(Orig.Result.equals(Read.Result));
  }
}

TEST(CachingAnalysis, VoidFragmentSupported) {
  auto Unit = parseUnit(R"(
void f(float a, float v) {
  dsc_trace(sqrt(a) * v);
})");
  auto Spec = mustSpecialize(*Unit, "f", {"v"});
  VM Machine;
  CacheArena Slots(1, Spec.Spec.Layout);
  std::vector<Value> Args = {Value::makeFloat(4.0f), Value::makeFloat(2.0f)};
  auto Load = Machine.run(Spec.LoaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Load.ok());
  auto Read = Machine.run(Spec.ReaderChunk, Args, Slots.view(0));
  ASSERT_TRUE(Read.ok());
  ASSERT_EQ(Machine.traceLog().size(), 2u);
  EXPECT_FLOAT_EQ(Machine.traceLog()[0], Machine.traceLog()[1]);
}

} // namespace
