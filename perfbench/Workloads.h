//===- perfbench/Workloads.h - Seeded request streams -----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's four traffic mixes and the seeded generator behind
/// each. A workload is a set of *units* (shader + one varying control +
/// the fixed control values, i.e. one cache key of the service) and a
/// pool of control vectors, each with the pixel CRC that the plain-pass
/// oracle computed for it. Requests name a unit and a pool entry; the
/// server only ever sees the generated requests.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_PERFBENCH_WORKLOADS_H
#define DATASPEC_PERFBENCH_WORKLOADS_H

#include "service/Protocol.h"
#include "service/UnitCache.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

constexpr unsigned kWidth = 160;
constexpr unsigned kHeight = 120;

/// Which generator a workload draws its traffic from.
enum class Mix { Slider, Churn, Spill };

struct WorkloadDef {
  const char *Name;
  const char *Why;
  Mix Kind;
  unsigned Connections;
  bool OpenLoop;
  /// Open loop only: total arrival rate, fixed when the benchmark was
  /// defined: 1.5x the ~260 requests/s the server completes when kept
  /// busy (slider_hits' closed loop, two requests in flight, measures
  /// ~220/s because the dispatcher idles during each round trip).
  double RatePerSecond;
  /// Request deadline sent on the wire and applied to the client's
  /// in-time check (0 = none).
  uint32_t DeadlineMillis;
  /// `dspec serve` flags beyond the defaults (--spill-dir aside, which
  /// the Spill mix implies).
  std::vector<std::string> ServerArgs;
};

const std::vector<WorkloadDef> &workloads();
const WorkloadDef *findWorkload(const std::string &Name);

/// One cache key of the service: a shader partition with its fixed
/// control values.
struct Unit {
  unsigned Shader = 0; ///< index into shaderGallery()
  unsigned Varying = 0; ///< index of the varying control
  std::vector<float> Base; ///< fixed control values (varying slot unused)
};

/// One control vector a request may carry, and the oracle's pixel CRC.
struct PoolEntry {
  unsigned Shader = 0;
  std::vector<float> Controls;
  uint32_t RefCrc = 0;
};

/// One request: unit + pool entry (whose controls it sends).
struct Item {
  uint32_t Unit = 0;
  uint32_t Entry = 0;
};

/// A workload's generated traffic.
struct Traffic {
  std::vector<Unit> Units;
  std::vector<PoolEntry> Pool;
  /// Requests sent once to warm the server before timing (set-up).
  std::vector<Item> Warmup;
  /// Per connection, the timed request sequence. Closed-loop and
  /// cyclic workloads wrap around; partition_churn is sized so it
  /// cannot run out inside the window (running out fails the run).
  std::vector<std::vector<Item>> PerConn;
  /// Whether PerConn sequences may wrap (false: every item is sent at
  /// most once, so no cache key repeats).
  bool Wraps = true;
};

/// Generates \p W's traffic from \p Seed for a \p Seconds-long window
/// into \p Out. Reference CRCs are left zero; computeReferences fills
/// them. False with \p Error when no valid traffic exists.
bool generate(const WorkloadDef &W, uint64_t Seed, double Seconds,
              Traffic &Out, std::string &Error);

/// Fills every pool entry's RefCrc with the pixel CRC of
/// RenderEngine::plainPass of the original fragment on the switch tier.
/// Returns false with \p Error on a trap.
bool computeReferences(Traffic &T, std::string &Error);

/// The request a traffic item sends.
dspec::RenderRequest makeRequest(const WorkloadDef &W, const Traffic &T,
                                 const Item &I);
/// A request for unit \p U at its fixed values (what building it needs).
dspec::RenderRequest unitRequest(const WorkloadDef &W, const Traffic &T,
                                 uint32_t U);

/// The server's cache key for \p Request (generic variant, default
/// options): mirrors SpecializationService::canonicalize for requests
/// with one varying control. The generators use it to place units in
/// UnitCache shards; the traced replay names spill files with it.
dspec::UnitKey unitKeyOf(const dspec::RenderRequest &Request);

} // namespace perfbench

#endif // DATASPEC_PERFBENCH_WORKLOADS_H
