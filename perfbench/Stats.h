//===- perfbench/Stats.h - Statistics of the service benchmark --*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own arithmetic, kept apart so StatsTest.cpp can pin it:
/// nearest-rank percentiles and the "at least ten samples beyond" rule for
/// a reported tail percentile, quartiles computed exactly as Python's
/// statistics.quantiles(n=4) computes them, the request-outcome tally
/// behind fail_ratio and goodput, and open-loop latency measured from the
/// scheduled send time.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_PERFBENCH_STATS_H
#define DATASPEC_PERFBENCH_STATS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least \p Pct
/// percent of the samples at or below it. 0 for an empty set.
inline double percentile(std::vector<double> Samples, double Pct) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(Pct / 100.0 * static_cast<double>(Samples.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Samples[std::min(Index, Samples.size() - 1)];
}

/// Samples strictly greater than \p Value.
inline size_t countAbove(const std::vector<double> &Samples, double Value) {
  return static_cast<size_t>(
      std::count_if(Samples.begin(), Samples.end(),
                    [Value](double S) { return S > Value; }));
}

/// True when at least \p MinBeyond samples lie strictly beyond the
/// nearest-rank \p Pct percentile — the condition under which that
/// percentile may be reported at all.
inline bool tailSupported(const std::vector<double> &Samples, double Pct,
                          size_t MinBeyond = 10) {
  return !Samples.empty() &&
         countAbove(Samples, percentile(Samples, Pct)) >= MinBeyond;
}

/// First quartile, median and third quartile of a set of run values.
struct Quartiles {
  double Q1 = 0.0;
  double Median = 0.0;
  double Q3 = 0.0;

  double iqr() const { return Q3 - Q1; }
  /// IQR as a share of the median (the steadiness figure); 0 when the
  /// median is 0.
  double spread() const { return Median == 0.0 ? 0.0 : iqr() / Median; }
};

/// Quartiles by Python's statistics.quantiles(Values, n=4) (its default
/// "exclusive" method) and statistics.median. Fewer than two values give
/// all three equal to the single value (or 0).
inline Quartiles quartiles(std::vector<double> Values) {
  Quartiles Q;
  if (Values.empty())
    return Q;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  Q.Median = N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
  if (N < 2) {
    Q.Q1 = Q.Q3 = Q.Median;
    return Q;
  }
  auto Cut = [&](size_t I) {
    size_t M = N + 1;
    size_t J = std::clamp<size_t>(I * M / 4, 1, N - 1);
    double Delta = static_cast<double>(I * M) - static_cast<double>(J * 4);
    return (Values[J - 1] * (4.0 - Delta) + Values[J] * Delta) / 4.0;
  };
  Q.Q1 = Cut(1);
  Q.Q3 = Cut(3);
  return Q;
}

/// What became of one attempted request, from the client's side.
enum class Outcome {
  Ok,    ///< correct framebuffer, in time
  Late,  ///< correct framebuffer, after the request's deadline
  Shed,  ///< refused by admission control (any shed reason)
  Error, ///< error status, transport or protocol failure
  Wrong, ///< a framebuffer whose pixels differ from the reference
};

/// Per-run request accounting. fail_ratio counts every attempt that did
/// not yield a correct answer in time; goodput counts only those that did.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Ok = 0;
  uint64_t Late = 0;
  uint64_t Shed = 0;
  uint64_t Errors = 0;
  uint64_t Wrong = 0;

  void record(Outcome O) {
    ++Attempted;
    switch (O) {
    case Outcome::Ok: ++Ok; break;
    case Outcome::Late: ++Late; break;
    case Outcome::Shed: ++Shed; break;
    case Outcome::Error: ++Errors; break;
    case Outcome::Wrong: ++Wrong; break;
    }
  }
  void merge(const Tally &O) {
    Attempted += O.Attempted;
    Ok += O.Ok;
    Late += O.Late;
    Shed += O.Shed;
    Errors += O.Errors;
    Wrong += O.Wrong;
  }

  /// Attempts that failed as operations: wrong answers and errors. Sheds
  /// and late replies are the service's declared overload behaviour, so
  /// they count against fail_ratio but not here.
  uint64_t broken() const { return Errors + Wrong; }
  /// (errors + sheds + late replies + wrong answers) / attempted.
  double failRatio() const {
    return Attempted == 0 ? 0.0
                          : static_cast<double>(Attempted - Ok) /
                                static_cast<double>(Attempted);
  }
  /// Correct, in-time replies per second over \p Seconds.
  double goodputPerSecond(double Seconds) const {
    return Seconds <= 0.0 ? 0.0 : static_cast<double>(Ok) / Seconds;
  }
};

/// Classifies a reply: \p LatencyMs against \p DeadlineMs (0 = none).
inline Outcome classify(bool Shed, bool Error, bool PixelsMatch,
                        double LatencyMs, double DeadlineMs) {
  if (Error)
    return Outcome::Error;
  if (Shed)
    return Outcome::Shed;
  if (!PixelsMatch)
    return Outcome::Wrong;
  if (DeadlineMs > 0.0 && LatencyMs > DeadlineMs)
    return Outcome::Late;
  return Outcome::Ok;
}

/// Open-loop latency: from when the request was *due* to be sent, not
/// when the generator got round to sending it, so a stalled generator
/// cannot hide the wait it imposed on later requests.
inline double openLoopLatencyMs(std::chrono::steady_clock::time_point Due,
                                std::chrono::steady_clock::time_point Done) {
  return std::chrono::duration<double, std::milli>(Done - Due).count();
}

} // namespace perfbench

#endif // DATASPEC_PERFBENCH_STATS_H
