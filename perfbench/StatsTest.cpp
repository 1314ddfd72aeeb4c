//===- perfbench/StatsTest.cpp - Tests of the benchmark's statistics ------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <gtest/gtest.h>

using namespace perfbench;

TEST(PerfbenchStats, NearestRankPercentile) {
  std::vector<double> S = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(S, 50.0), 3.0);
  EXPECT_EQ(percentile(S, 20.0), 1.0);
  EXPECT_EQ(percentile(S, 21.0), 2.0);
  EXPECT_EQ(percentile(S, 100.0), 5.0);
  EXPECT_EQ(percentile(S, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);

  std::vector<double> Hundred;
  for (int I = 1; I <= 100; ++I)
    Hundred.push_back(I);
  EXPECT_EQ(percentile(Hundred, 99.0), 99.0);
  EXPECT_EQ(percentile(Hundred, 50.0), 50.0);
}

TEST(PerfbenchStats, P99NeedsTenSamplesBeyond) {
  // 999 samples: p99 is rank 990, so 9 lie beyond it.
  std::vector<double> S;
  for (int I = 1; I <= 999; ++I)
    S.push_back(I);
  EXPECT_EQ(countAbove(S, percentile(S, 99.0)), 9u);
  EXPECT_FALSE(tailSupported(S, 99.0));
  // 1000 samples: rank 990, ten beyond.
  S.push_back(1000);
  EXPECT_EQ(countAbove(S, percentile(S, 99.0)), 10u);
  EXPECT_TRUE(tailSupported(S, 99.0));
  // Ties at the percentile are not beyond it.
  std::vector<double> Flat(2000, 7.0);
  EXPECT_FALSE(tailSupported(Flat, 99.0));
  EXPECT_FALSE(tailSupported({}, 99.0));
}

TEST(PerfbenchStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> Ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  Quartiles Q = quartiles(Ten);
  EXPECT_DOUBLE_EQ(Q.Q1, 2.75);
  EXPECT_DOUBLE_EQ(Q.Median, 5.5);
  EXPECT_DOUBLE_EQ(Q.Q3, 8.25);
  EXPECT_DOUBLE_EQ(Q.iqr(), 5.5);
  EXPECT_DOUBLE_EQ(Q.spread(), 1.0);

  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  Q = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(Q.Q1, 1.5);
  EXPECT_DOUBLE_EQ(Q.Median, 4.0);
  EXPECT_DOUBLE_EQ(Q.Q3, 12.0);

  // Two values extrapolate past the ends: statistics.quantiles([3, 5],
  // n=4) == [2.5, 4.0, 5.5].
  Q = quartiles({5, 3});
  EXPECT_DOUBLE_EQ(Q.Q1, 2.5);
  EXPECT_DOUBLE_EQ(Q.Median, 4.0);
  EXPECT_DOUBLE_EQ(Q.Q3, 5.5);

  Q = quartiles({42});
  EXPECT_DOUBLE_EQ(Q.Q1, 42.0);
  EXPECT_DOUBLE_EQ(Q.Q3, 42.0);
  EXPECT_DOUBLE_EQ(quartiles({}).spread(), 0.0);
}

TEST(PerfbenchStats, FailRatioCountsLateRepliesAndKeepsThemOutOfGoodput) {
  constexpr double Deadline = 200.0;
  Tally T;
  T.record(classify(false, false, true, 12.0, Deadline));  // ok
  T.record(classify(false, false, true, 199.9, Deadline)); // ok
  T.record(classify(false, false, true, 250.0, Deadline)); // late
  T.record(classify(true, false, false, 3.0, Deadline));   // shed
  T.record(classify(false, true, false, 1.0, Deadline));   // error
  T.record(classify(false, false, false, 5.0, Deadline));  // wrong pixels
  EXPECT_EQ(T.Attempted, 6u);
  EXPECT_EQ(T.Ok, 2u);
  EXPECT_EQ(T.Late, 1u);
  EXPECT_EQ(T.Shed, 1u);
  EXPECT_EQ(T.Errors, 1u);
  EXPECT_EQ(T.Wrong, 1u);
  EXPECT_DOUBLE_EQ(T.failRatio(), 4.0 / 6.0);
  EXPECT_EQ(T.broken(), 2u);
  // Goodput counts only the two in-time correct replies.
  EXPECT_DOUBLE_EQ(T.goodputPerSecond(2.0), 1.0);

  // Without a deadline nothing is late.
  EXPECT_EQ(classify(false, false, true, 1e6, 0.0), Outcome::Ok);
  // An error outranks everything else.
  EXPECT_EQ(classify(true, true, false, 1.0, Deadline), Outcome::Error);

  Tally Merged;
  Merged.merge(T);
  Merged.merge(T);
  EXPECT_EQ(Merged.Attempted, 12u);
  EXPECT_DOUBLE_EQ(Merged.failRatio(), T.failRatio());
  EXPECT_DOUBLE_EQ(Tally().failRatio(), 0.0);
}

TEST(PerfbenchStats, OpenLoopLatencyRunsFromTheScheduledSendTime) {
  using namespace std::chrono;
  steady_clock::time_point Due{milliseconds(1000)};
  // The generator stalled 40 ms and sent late; the server answered 5 ms
  // after the actual send. The request still waited 45 ms.
  steady_clock::time_point Sent = Due + milliseconds(40);
  steady_clock::time_point Done = Sent + milliseconds(5);
  EXPECT_DOUBLE_EQ(openLoopLatencyMs(Due, Done), 45.0);
  // Late against a 30 ms deadline though the server took only 5 ms.
  EXPECT_EQ(classify(false, false, true, openLoopLatencyMs(Due, Done), 30.0),
            Outcome::Late);
}
