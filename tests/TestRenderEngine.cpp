//===- tests/TestRenderEngine.cpp - Engine determinism tests ------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The render engine's contract: the framebuffer is bit-identical for
/// every thread count and tile size, the packed cache arena is exactly
/// one allocation of pixelCount x CacheLayout::totalBytes(), and traps
/// are reported deterministically (lowest pixel first).
///
//===----------------------------------------------------------------------===//

#include "engine/CacheArena.h"
#include "engine/RenderEngine.h"
#include "engine/ThreadPool.h"
#include "shading/ShaderLab.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace dspec;

namespace {

/// Exact bit equality, including NaN payloads and signed zeros — stricter
/// than Value::equals, because the determinism guarantee is about bits.
bool bitIdentical(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

void expectSameImage(const Framebuffer &A, const Framebuffer &B,
                     const std::string &What) {
  ASSERT_EQ(A.width(), B.width());
  ASSERT_EQ(A.height(), B.height());
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X)
      ASSERT_TRUE(bitIdentical(A.at(X, Y), B.at(X, Y)))
          << What << ": pixel " << X << "," << Y << " differs";
}

unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 4 : N;
}

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  constexpr size_t Items = 1000;
  std::vector<std::atomic<int>> Hits(Items);
  Pool.parallelFor(Items, [&](unsigned Worker, size_t Item) {
    EXPECT_LT(Worker, Pool.workerCount());
    Hits[Item].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < Items; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "item " << I;
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  size_t Ran = 0;
  Pool.parallelFor(17, [&](unsigned Worker, size_t) {
    EXPECT_EQ(Worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    ++Ran;
  });
  EXPECT_EQ(Ran, 17u);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool Pool(3);
  for (int Round = 0; Round < 5; ++Round) {
    std::atomic<size_t> Sum{0};
    Pool.parallelFor(100, [&](unsigned, size_t Item) {
      Sum.fetch_add(Item, std::memory_order_relaxed);
    });
    EXPECT_EQ(Sum.load(), 4950u) << "round " << Round;
  }
}

TEST(ThreadPool, RethrowsTileJobExceptionOnCaller) {
  ThreadPool Pool(4);
  std::atomic<size_t> Ran{0};
  EXPECT_THROW(
      Pool.parallelFor(100,
                       [&](unsigned, size_t Item) {
                         Ran.fetch_add(1, std::memory_order_relaxed);
                         if (Item == 13)
                           throw std::runtime_error("tile 13 failed");
                       }),
      std::runtime_error);
  // Remaining items were drained (not run), never abandoned: the pool is
  // quiescent, so no worker races the assertions below.
  EXPECT_LE(Ran.load(), 100u);
  EXPECT_GE(Ran.load(), 1u);
}

TEST(ThreadPool, LowestThrownItemIndexWins) {
  ThreadPool Pool(4);
  // Every item that runs throws; the caller must see the exception of the
  // lowest item index among those that actually threw, independent of
  // which worker's exception landed first.
  std::mutex ThrownMutex;
  std::vector<size_t> Thrown;
  try {
    Pool.parallelFor(64, [&](unsigned, size_t Item) {
      {
        std::lock_guard<std::mutex> Lock(ThrownMutex);
        Thrown.push_back(Item);
      }
      throw std::runtime_error("item " + std::to_string(Item));
    });
    FAIL() << "parallelFor swallowed the exception";
  } catch (const std::runtime_error &E) {
    ASSERT_FALSE(Thrown.empty());
    size_t Lowest = *std::min_element(Thrown.begin(), Thrown.end());
    EXPECT_STREQ(E.what(), ("item " + std::to_string(Lowest)).c_str());
  }
}

TEST(ThreadPool, UsableAfterAThrowingJob) {
  ThreadPool Pool(3);
  EXPECT_THROW(Pool.parallelFor(
                   10, [](unsigned, size_t) { throw std::logic_error("x"); }),
               std::logic_error);
  // The failure is fully reset: the next job runs normally.
  std::atomic<size_t> Sum{0};
  Pool.parallelFor(100, [&](unsigned, size_t Item) {
    Sum.fetch_add(Item, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), 4950u);
}

TEST(ThreadPool, SerialPoolPropagatesExceptionsToo) {
  ThreadPool Pool(1);
  size_t Ran = 0;
  EXPECT_THROW(Pool.parallelFor(10,
                                [&](unsigned, size_t Item) {
                                  ++Ran;
                                  if (Item == 3)
                                    throw std::out_of_range("boom");
                                }),
               std::out_of_range);
  EXPECT_EQ(Ran, 4u); // items past the throwing one are skipped
  Pool.parallelFor(5, [&](unsigned, size_t) { ++Ran; });
  EXPECT_EQ(Ran, 9u);
}

TEST(CacheArenaTest, SingleAllocationOfLayoutTimesPixels) {
  // The acceptance criterion: arena bytes == totalBytes() x pixelCount,
  // for every gallery shader's specialization.
  ShaderLab Lab(6, 5);
  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    auto Controls = ShaderLab::defaultControls(Info);
    ASSERT_TRUE(Spec->load(Lab.engine(), Lab.grid(), Controls));
    const CacheArena &Arena = Spec->arena();
    const CacheLayout &Layout = Spec->compiled().Spec.Layout;
    EXPECT_EQ(Arena.pixelCount(), Lab.grid().pixelCount()) << Info.Name;
    EXPECT_EQ(Arena.strideBytes(), Layout.totalBytes()) << Info.Name;
    EXPECT_EQ(Arena.totalBytes(),
              static_cast<size_t>(Layout.totalBytes()) *
                  Lab.grid().pixelCount())
        << Info.Name;
  }
}

TEST(CacheArenaTest, DecodeRoundTripsStoredSlots) {
  CacheLayout Layout;
  Layout.addSlot(Type(TypeKind::TK_Float));
  Layout.addSlot(Type(TypeKind::TK_Vec3));
  CacheArena Arena(3, Layout);
  EXPECT_EQ(Arena.totalBytes(), 3u * Layout.totalBytes());
  CacheView View = Arena.view(1);
  View.store(Layout.slot(0).Offset, Value::makeFloat(2.5f));
  View.store(Layout.slot(1).Offset, Value::makeVec3(1, -2, 3));
  std::vector<Value> Decoded = Arena.decode(1);
  ASSERT_EQ(Decoded.size(), 2u);
  EXPECT_TRUE(bitIdentical(Decoded[0], Value::makeFloat(2.5f)));
  EXPECT_TRUE(bitIdentical(Decoded[1], Value::makeVec3(1, -2, 3)));
  // Neighbouring pixels are untouched (zero-initialized).
  for (unsigned Pixel : {0u, 2u}) {
    std::vector<Value> Neighbour = Arena.decode(Pixel);
    ASSERT_EQ(Neighbour.size(), 2u);
    for (size_t S = 0; S < Neighbour.size(); ++S)
      EXPECT_TRUE(bitIdentical(Neighbour[S],
                               Value::zeroOf(Layout.slot(S).SlotType)))
          << "pixel " << Pixel << " slot " << S;
  }
}

/// Every gallery shader, all three passes, at 1 / 2 / hardware threads
/// and shrunken tiles: the images must be bit-identical to the serial
/// reference.
TEST(RenderEngineTest, FramebufferBitIdenticalAcrossThreadCounts) {
  const unsigned W = 9, H = 7;
  ShaderLab Lab(W, H);
  const unsigned MaxThreads = hardwareThreads();
  std::vector<RenderEngine> Engines;
  Engines.emplace_back(1);             // serial reference
  Engines.emplace_back(2);
  Engines.emplace_back(MaxThreads);
  Engines.emplace_back(MaxThreads, 1); // one-pixel tiles
  Engines.emplace_back(2, 5);          // tile size not dividing W*H

  for (const ShaderInfo &Info : shaderGallery()) {
    auto Spec = Lab.specializePartition(Info, 0);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    auto Controls = ShaderLab::defaultControls(Info);

    Framebuffer LoadRef(W, H), ReadRef(W, H), PlainRef(W, H);
    ASSERT_TRUE(Spec->load(Engines[0], Lab.grid(), Controls, &LoadRef));
    Controls[0] = Info.Controls[0].SweepMax; // drag the varying control
    ASSERT_TRUE(Spec->readFrame(Engines[0], Lab.grid(), Controls, &ReadRef));
    ASSERT_TRUE(
        Spec->originalFrame(Engines[0], Lab.grid(), Controls, &PlainRef));

    for (size_t E = 1; E < Engines.size(); ++E) {
      RenderEngine &Engine = Engines[E];
      std::string Tag = Info.Name + " @" +
                        std::to_string(Engine.threadCount()) + "t/" +
                        std::to_string(Engine.tilePixels()) + "px";
      Controls = ShaderLab::defaultControls(Info);
      Framebuffer Load(W, H), Read(W, H), Plain(W, H);
      ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls, &Load));
      Controls[0] = Info.Controls[0].SweepMax;
      ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &Read));
      ASSERT_TRUE(
          Spec->originalFrame(Engine, Lab.grid(), Controls, &Plain));
      expectSameImage(LoadRef, Load, "loader " + Tag);
      expectSameImage(ReadRef, Read, "reader " + Tag);
      expectSameImage(PlainRef, Plain, "original " + Tag);
    }
  }
}

/// Loading with one engine and reading with another is fine: the arena is
/// plain memory, not tied to the engine that filled it.
TEST(RenderEngineTest, ArenaIsPortableAcrossEngines) {
  ShaderLab Lab(5, 4);
  const ShaderInfo *Info = findShader("marble");
  auto Spec = Lab.specializePartition(*Info, 0);
  ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
  auto Controls = ShaderLab::defaultControls(*Info);
  RenderEngine Serial(1), Threaded(4);
  ASSERT_TRUE(Spec->load(Threaded, Lab.grid(), Controls));
  Framebuffer A(5, 4), B(5, 4);
  Controls[0] = Info->Controls[0].SweepMax;
  ASSERT_TRUE(Spec->readFrame(Serial, Lab.grid(), Controls, &A));
  ASSERT_TRUE(Spec->readFrame(Threaded, Lab.grid(), Controls, &B));
  expectSameImage(A, B, "cross-engine read");
}

/// Size checks hold in every build, not only under assertions: a pass
/// whose framebuffer or arena does not match the grid fails before any
/// pixel runs, and writes nothing.
TEST(RenderEngineTest, ReaderPassRefusesMismatchedSizes) {
  ShaderLab Lab(16, 12);
  const ShaderInfo *Info = findShader("marble");
  auto Spec = Lab.specializePartition(*Info, 0);
  ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
  auto Controls = ShaderLab::defaultControls(*Info);
  RenderEngine Engine(2);
  ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls));

  auto ExpectUntouched = [](const Framebuffer &Fb) {
    for (unsigned Y = 0; Y < Fb.height(); ++Y)
      for (unsigned X = 0; X < Fb.width(); ++X)
        ASSERT_TRUE(bitIdentical(Fb.at(X, Y), Value()))
            << "pixel " << X << "," << Y << " was written";
  };

  Framebuffer Small(8, 6);
  EXPECT_FALSE(Spec->readFrame(Engine, Lab.grid(), Controls, &Small));
  EXPECT_NE(Engine.lastTrap().find("framebuffer is 8x6"), std::string::npos)
      << Engine.lastTrap();
  ExpectUntouched(Small);

  // The arena was loaded for 16x12; an 8x6 grid must not index it.
  RenderGrid SmallGrid(8, 6);
  EXPECT_FALSE(Spec->readFrame(Engine, SmallGrid, Controls, &Small));
  EXPECT_NE(Engine.lastTrap().find("arena holds 192 pixels"),
            std::string::npos)
      << Engine.lastTrap();
  ExpectUntouched(Small);
}

/// A chunk whose cache instruction reaches past the layout traps on every
/// pixel; the engine must report pixel 0 no matter how many threads race.
TEST(RenderEngineTest, TrapReportsLowestPixelAtEveryThreadCount) {
  Chunk Bad;
  Bad.Name = "bad";
  Bad.NumParams = 4;
  Bad.LocalTypes = {TypeKind::TK_Vec2, TypeKind::TK_Vec3, TypeKind::TK_Vec3,
                    TypeKind::TK_Vec3};
  Bad.ReturnType = Type(TypeKind::TK_Float);
  // Read a float at byte 96 of a 4-byte cache: out of bounds everywhere.
  Bad.Code = {{OpCode::OC_CacheLoad, 0, 96,
               static_cast<int32_t>(TypeKind::TK_Float)},
              {OpCode::OC_Return, 0, 0, 0}};
  Bad.CacheSlotCount = 1;
  Bad.CacheBytes = 4;

  CacheLayout Layout;
  Layout.addSlot(Type(TypeKind::TK_Float));
  RenderGrid Grid(8, 8);
  CacheArena Arena(Grid.pixelCount(), Layout);

  std::string FirstMessage;
  for (unsigned Threads : {1u, 2u, hardwareThreads()}) {
    RenderEngine Engine(Threads, 1);
    EXPECT_FALSE(
        Engine.readerPass(Bad, Grid, /*Controls=*/{}, Arena, nullptr));
    EXPECT_NE(Engine.lastTrap().find("pixel 0:"), std::string::npos)
        << Engine.lastTrap();
    if (FirstMessage.empty())
      FirstMessage = Engine.lastTrap();
    else
      EXPECT_EQ(Engine.lastTrap(), FirstMessage)
          << "trap message varies with " << Threads << " threads";
  }
}

} // namespace
