#include "perfbench/bench_lib.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

bool Parse(std::vector<const char*> args, Options* options, std::string* error) {
  return ParseOptions(static_cast<int>(args.size()), args.data(), options, error);
}

TEST(ParseOptionsTest, AcceptsTheDriverCommandLine) {
  Options o;
  std::string error;
  ASSERT_TRUE(Parse({"--workload", "cluster_1k", "--seed", "7", "--seconds", "20", "--trace",
                     "1"},
                    &o, &error))
      << error;
  EXPECT_EQ(o.workload, "cluster_1k");
  EXPECT_EQ(o.seed, 7u);
  EXPECT_EQ(o.seconds, 20);
  EXPECT_TRUE(o.trace);
  EXPECT_FALSE(o.check);
}

TEST(ParseOptionsTest, HelpNeedsNoWorkload) {
  Options o;
  std::string error;
  ASSERT_TRUE(Parse({"--help"}, &o, &error));
  EXPECT_TRUE(o.help);
}

TEST(ParseOptionsTest, RejectsBadUsage) {
  const std::vector<std::vector<const char*>> bad = {
      {},
      {"--workload", "nope"},
      {"--workload", "paper_grid", "--bogus", "1"},
      {"--workload", "paper_grid", "stray"},
      {"--workload", "paper_grid", "--seed", "-1"},
      {"--workload", "paper_grid", "--seed", "1x"},
      {"--workload", "paper_grid", "--seconds", "0"},
      {"--workload", "paper_grid", "--trace", "2"},
  };
  for (const auto& args : bad) {
    Options o;
    std::string error;
    EXPECT_FALSE(Parse(args, &o, &error)) << (args.empty() ? "(none)" : args.back());
    EXPECT_FALSE(error.empty());
  }
}

TEST(CellTimesTest, TakesEachCellsMedianAcrossRepetitions) {
  CellTimes times;
  times.Add({3.0, 1.0, 5.0});
  times.Add({2.0, 4.0, 5.5});
  times.Add({2.5, 0.5, 9.0});
  EXPECT_EQ(times.Medians(), (std::vector<double>{2.5, 1.0, 5.5}));
  EXPECT_DOUBLE_EQ(times.Total(), 9.0);
  times.Add({1.0, 1.0, 1.0});  // an even count averages the middle two
  EXPECT_EQ(times.Medians(), (std::vector<double>{2.25, 1.0, 5.25}));
}

TEST(CellTimesTest, RefusesMismatchedOrEmptyRepetitions) {
  CellTimes times;
  EXPECT_THROW(times.Total(), BenchError);
  EXPECT_THROW(times.Add({}), BenchError);
  times.Add({1.0, 2.0});
  EXPECT_THROW(times.Add({1.0}), BenchError);
  EXPECT_THROW(Median({}), BenchError);
}

TEST(ReferenceKernelTest, SameStepsGiveTheSameState) {
  ReferenceKernel a;
  ReferenceKernel b;
  EXPECT_EQ(a.Run(1000), b.Run(1000));
  EXPECT_EQ(a.Run(7), b.Run(7));
  EXPECT_NE(ReferenceKernel().Run(1000), ReferenceKernel().Run(999));
}

TEST(ReferenceKernelTest, TimesAtLeastOneStep) {
  ReferenceKernel kernel;
  EXPECT_GT(kernel.NsPerStep(200), 0.0);
  EXPECT_THROW(kernel.NsPerStep(0), BenchError);
}

TEST(RefSecondsTest, CountsReferenceSteps) {
  // 1 s at 100 ns a step is 1e7 steps: one reference second.
  EXPECT_DOUBLE_EQ(RefSeconds(1.0, 100.0, "x"), 1.0);
  EXPECT_DOUBLE_EQ(RefSeconds(0.5, 25.0, "x"), 2.0);
  EXPECT_THROW(RefSeconds(1.0, 0.0, "x"), BenchError);
  EXPECT_THROW(RefSeconds(0.0, 100.0, "x"), BenchError);
}

TEST(RateTest, RefusesZeroWorkOrZeroTime) {
  EXPECT_DOUBLE_EQ(Rate(10.0, 4.0, "x"), 2.5);
  EXPECT_THROW(Rate(0.0, 1.0, "x"), BenchError);
  EXPECT_THROW(Rate(1.0, 0.0, "x"), BenchError);
  EXPECT_THROW(Rate(1.0, -1.0, "x"), BenchError);
}

TEST(RatioTest, NeedsAPositiveBase) {
  EXPECT_DOUBLE_EQ(Ratio(0.0, 4.0, "x"), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(1.0, 4.0, "x"), 0.25);
  EXPECT_THROW(Ratio(0.0, 0.0, "x"), BenchError);
  EXPECT_THROW(Ratio(-1.0, 4.0, "x"), BenchError);
}

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  // p90 of n samples sits at rank 0.9 (n - 1): 96 samples leave ranks 86..95
  // above rank 85.5, 92 leave 82..91 above 81.9, and 91 only 82..90 above 81.
  EXPECT_EQ(SamplesBeyond(96, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(92, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(91, 90.0), 9u);
  EXPECT_EQ(SamplesBeyond(144, 90.0), 15u);
  std::vector<double> samples;
  for (int i = 1; i <= 101; ++i) {
    samples.push_back(i);
  }
  EXPECT_DOUBLE_EQ(TailPercentile(samples, 90.0, "p90"), 91.0);
  EXPECT_DOUBLE_EQ(TailPercentile(samples, 50.0, "p50"), 51.0);
  samples.resize(20);
  EXPECT_THROW(TailPercentile(samples, 90.0, "p90"), BenchError);
  samples.assign(200, 1.0);
  samples[3] = 0.0;
  EXPECT_THROW(TailPercentile(samples, 50.0, "p50"), BenchError);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = QuartilesOf({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const Quartiles small = QuartilesOf({4, 1, 2});
  EXPECT_DOUBLE_EQ(small.q1, 1.0);
  EXPECT_DOUBLE_EQ(small.median, 2.0);
  EXPECT_DOUBLE_EQ(small.q3, 4.0);
  EXPECT_DOUBLE_EQ(QuartilesOf({3.0}).median, 3.0);
  EXPECT_THROW(QuartilesOf({}), BenchError);
}

TEST(DigestTest, Fnv1aKnownValuesAndChaining) {
  EXPECT_EQ(Fnv1a(""), kFnvOffset);
  EXPECT_EQ(Hex(Fnv1a("a")), "af63dc4c8601ec8c");
  EXPECT_EQ(Fnv1a("bc", Fnv1a("a")), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("ab"), Fnv1a("ba"));
}

TEST(LineHashesTest, NamesTheFirstDifferingLine) {
  const LineHashes ref("a\nb\nc\n");
  EXPECT_EQ(ref.FirstDifferentLine("a\nb\nc\n"), 0u);
  EXPECT_EQ(ref.FirstDifferentLine("a\nx\nc\n"), 2u);
  EXPECT_EQ(ref.FirstDifferentLine("a\nb\n"), 3u);
  EXPECT_EQ(ref.FirstDifferentLine("a\nb\nc\nd\n"), 4u);
  EXPECT_EQ(ref.FirstDifferentLine("a\nb\nc"), 3u);  // the last newline is part of the line
  EXPECT_EQ(LineHashes("").FirstDifferentLine(""), 0u);
  EXPECT_EQ(LineOf("a\nx\nc\n", 2), "x");
  EXPECT_EQ(LineOf("a\n", 2), "<end of text>");
}

TEST(SpanLogTest, SelfTimeSubtractsDirectChildren) {
  SpanLog log;
  const int sweep = log.Add("workload.sweep", 0, 100);
  log.Add("workload.cell", 0, 30, sweep, 0);
  log.Add("workload.cell", 30, 90, sweep, 1);
  EXPECT_EQ(log.SelfNs(sweep), 10);
  EXPECT_EQ(log.SelfNs(1), 30);
  EXPECT_EQ(log.TotalNs("workload.cell"), 90);
  EXPECT_NE(log.ToJsonl().find("\"name\":\"workload.cell\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
