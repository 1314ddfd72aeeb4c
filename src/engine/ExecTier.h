//===- engine/ExecTier.h - Execution tier selection -------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two ways the render engine can execute a chunk over a pass (see
/// docs/ENGINE.md, "Execution tiers"): the switch interpreter, which is
/// the reference oracle and the per-pixel path, and the batched tier.
/// Tiers are an A/B knob: both produce bit-identical framebuffers; only
/// the speed differs.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_EXECTIER_H
#define DATASPEC_ENGINE_EXECTIER_H

#include <string_view>

namespace dspec {

/// How the engine executes chunks.
enum class ExecTier {
  /// The classic per-pixel switch interpreter (VM::run). The reference
  /// semantics, and the batched tier's only fallback.
  Switch,
  /// Tile-at-a-time SoA execution (VM::runBatch) of the decoded, fused
  /// ExecChunk. Uniform branches run in lockstep and divergent maskable
  /// diamonds run both arms under a per-lane mask (GPU-warp style).
  /// Everything it cannot batch runs per-pixel on the switch tier:
  /// effectful or undecodable chunks and arenas that are not batch-
  /// compatible for the whole pass, and a tile that diverges at an
  /// unmaskable branch or traps.
  Batched,
};

inline const char *execTierName(ExecTier Tier) {
  switch (Tier) {
  case ExecTier::Switch:
    return "switch";
  case ExecTier::Batched:
    return "batched";
  }
  return "?";
}

/// Parses "switch" / "batched"; returns false (leaving \p Out
/// untouched) on anything else.
inline bool parseExecTier(std::string_view Text, ExecTier &Out) {
  if (Text == "switch") {
    Out = ExecTier::Switch;
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
