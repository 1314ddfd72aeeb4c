//===- engine/ExecTier.h - Execution tier selection -------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three ways the render engine can execute a chunk over a pass, in
/// increasing order of specialization (see docs/ENGINE.md, "Execution
/// tiers"). Tiers are an A/B knob: every tier produces bit-identical
/// framebuffers; only the speed differs.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_EXECTIER_H
#define DATASPEC_ENGINE_EXECTIER_H

#include <string_view>

namespace dspec {

/// How the engine executes chunks.
enum class ExecTier {
  /// The classic per-pixel switch interpreter (VM::run). The reference
  /// semantics and the fallback when a chunk fails decoding.
  Switch,
  /// Per-pixel direct-threaded execution of the decoded, fused ExecChunk
  /// (VM::runThreaded).
  Threaded,
  /// Tile-at-a-time SoA execution (VM::runBatch) for effect-free chunks.
  /// Uniform branches run in lockstep, divergent maskable diamonds run
  /// both arms under a per-lane mask (GPU-warp style), and a tile whose
  /// control flow diverges at an unmaskable branch re-runs per-pixel on
  /// the threaded tier. Effectful chunks run per-pixel up front.
  Batched,
};

inline const char *execTierName(ExecTier Tier) {
  switch (Tier) {
  case ExecTier::Switch:
    return "switch";
  case ExecTier::Threaded:
    return "threaded";
  case ExecTier::Batched:
    return "batched";
  }
  return "?";
}

/// Parses "switch" / "threaded" / "batched"; returns false (leaving
/// \p Out untouched) on anything else.
inline bool parseExecTier(std::string_view Text, ExecTier &Out) {
  if (Text == "switch") {
    Out = ExecTier::Switch;
    return true;
  }
  if (Text == "threaded") {
    Out = ExecTier::Threaded;
    return true;
  }
  if (Text == "batched") {
    Out = ExecTier::Batched;
    return true;
  }
  return false;
}

} // namespace dspec

#endif // DATASPEC_ENGINE_EXECTIER_H
