// Unit tests for statistics helpers, PRNG, table rendering, timer and CLI.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/cli.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace spmv {
namespace {

TEST(Stats, MedianOdd) {
  const double xs[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, MedianEven) {
  const double xs[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, MedianEmpty) {
  EXPECT_DOUBLE_EQ(median(std::span<const double>{}), 0.0);
}

TEST(Stats, MeanMinMax) {
  const double xs[] = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(min_of(xs), 2.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 6.0);
}

TEST(Stats, Stddev) {
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), 2.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileRejectsBadP) {
  const double xs[] = {1.0};
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

TEST(Stats, Geomean) {
  const double xs[] = {1.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const double xs[] = {1.0, 0.0};
  EXPECT_THROW(geomean(xs), std::invalid_argument);
}

TEST(Prng, Deterministic) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Prng, NextBelowInRange) {
  Prng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Prng, NextBelowCoversRange) {
  Prng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, DoubleInUnitInterval) {
  Prng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Prng, DoubleRangeRespected) {
  Prng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double(-2.0, 3.0);
    EXPECT_GE(d, -2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Table, RendersAlignedAscii) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "22.50"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha | 1.00  |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22.50 |"), std::string::npos);
}

TEST(Table, RowWidthValidated) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuoting) {
  Table t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_opt(-1.0), "-");
  EXPECT_EQ(Table::fmt_opt(2.5, 1), "2.5");
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(Timer, TimeKernelRunsMinReps) {
  int calls = 0;
  const TimingResult r = time_kernel([&] { ++calls; }, 0.0, 5);
  EXPECT_GE(calls, 5);
  EXPECT_EQ(r.reps, calls);
  EXPECT_LE(r.best_s, r.mean_s);
}

TEST(Cli, ParsesKeyValues) {
  const char* argv[] = {"prog", "--scale=0.5", "--name=QCD", "--flag"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(cli.get("name", ""), "QCD");
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

}  // namespace
}  // namespace spmv
