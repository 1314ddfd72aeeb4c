//===- perfbench/Replay.h - Traced in-process replay ------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced half of the benchmark. It replays a workload's request
/// stream in-process through the public calls SpecializationService
/// composes (parseUnit -> specializeAndCompileVariants -> loaderPass on a
/// miss, SpillStore::load/store on a restore, readerPass -> reply encode
/// -> encodeFrame, then the client's readFrame + decodeRenderReply), and
/// through SpecializationService::render itself. Each call is wrapped in
/// a span (name, start, end, parent, request id) kept in memory until the
/// replay ends; a layer's figure is the median self time of its spans.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_PERFBENCH_REPLAY_H
#define DATASPEC_PERFBENCH_REPLAY_H

#include "Workloads.h"

#include <map>
#include <string>

namespace perfbench {

/// Replays a prefix of \p T's first connection stream for at most
/// \p BudgetSeconds, writing spill files under \p WorkDir, and adds the
/// per-layer figures (names as in BENCHMARK.json's per_layer list) to
/// \p Out. \p Attributed receives, per replayed item index, the time the
/// layers account for. Every replayed reply is checked against the
/// reference CRC; false with \p Error on any mismatch or failure.
bool replayTraced(const WorkloadDef &W, const Traffic &T,
                  const std::string &WorkDir, double BudgetSeconds,
                  std::map<std::string, double> &Out,
                  std::map<uint64_t, double> &Attributed, std::string &Error);

} // namespace perfbench

#endif // DATASPEC_PERFBENCH_REPLAY_H
