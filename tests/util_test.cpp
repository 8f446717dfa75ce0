// Tests for time helpers, histograms, and the flag parser.
#include <gtest/gtest.h>

#include <sstream>

#include "util/flags.h"
#include "util/histogram.h"
#include "util/time.h"

namespace vlease {
namespace {

// ---- time ----

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(usec(5), 5);
  EXPECT_EQ(msec(5), 5'000);
  EXPECT_EQ(sec(5), 5'000'000);
  EXPECT_EQ(minutes(2), sec(120));
  EXPECT_EQ(hours(1), sec(3600));
  EXPECT_EQ(days(1), sec(86'400));
}

TEST(TimeTest, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(toSeconds(sec(42)), 42.0);
  EXPECT_EQ(secondsToSim(1.5), msec(1500));
}

TEST(TimeTest, SecondBucket) {
  EXPECT_EQ(secondBucket(0), 0);
  EXPECT_EQ(secondBucket(999'999), 0);
  EXPECT_EQ(secondBucket(1'000'000), 1);
  EXPECT_EQ(secondBucket(sec(100) + 1), 100);
}

TEST(TimeTest, AddSatNeverStaysNever) {
  EXPECT_EQ(addSat(kNever, sec(100)), kNever);
  EXPECT_EQ(addSat(kNever, -sec(100)), kNever);
}

TEST(TimeTest, AddSatClampsOverflow) {
  EXPECT_EQ(addSat(kSimTimeMax - 5, 10), kSimTimeMax);
  EXPECT_EQ(addSat(kSimTimeMin + 5, -10), kSimTimeMin);
  EXPECT_EQ(addSat(100, 23), 123);
}

TEST(TimeTest, Format) {
  EXPECT_EQ(formatSimTime(sec(3) + usec(250)), "3.000250s");
  EXPECT_EQ(formatSimTime(kNever), "never");
  EXPECT_EQ(formatSimTime(0), "0.000000s");
}

// ---- SparseCounter ----

TEST(SparseCounterTest, AddAndQuery) {
  SparseCounter c;
  c.add(5);
  c.add(5, 2);
  c.add(7);
  EXPECT_EQ(c.at(5), 3);
  EXPECT_EQ(c.at(7), 1);
  EXPECT_EQ(c.at(6), 0);
  EXPECT_EQ(c.totalCount(), 4);
  EXPECT_EQ(c.nonEmptyBuckets(), 2u);
  EXPECT_EQ(c.maxValue(), 3);
}

TEST(SparseCounterTest, CumulativeAtLeast) {
  SparseCounter c;
  // Buckets with loads 1, 1, 3, 5.
  c.add(10, 1);
  c.add(11, 1);
  c.add(12, 3);
  c.add(13, 5);
  auto atLeast = c.cumulativeAtLeast();
  ASSERT_EQ(atLeast.size(), 5u);
  EXPECT_EQ(atLeast[0], 4);  // >= 1
  EXPECT_EQ(atLeast[1], 2);  // >= 2
  EXPECT_EQ(atLeast[2], 2);  // >= 3
  EXPECT_EQ(atLeast[3], 1);  // >= 4
  EXPECT_EQ(atLeast[4], 1);  // >= 5
}

TEST(SparseCounterTest, CumulativeEmpty) {
  SparseCounter c;
  EXPECT_TRUE(c.cumulativeAtLeast().empty());
}

// ---- Summary ----

TEST(SummaryTest, Basics) {
  Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(9.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

// ---- Flags ----

TEST(FlagsTest, DefaultsAndOverrides) {
  Flags flags;
  flags.addString("name", "abc", "");
  flags.addInt("n", 7, "");
  flags.addDouble("x", 1.5, "");
  flags.addBool("verbose", false, "");

  const char* argv[] = {"prog", "--n=42", "--verbose", "--x", "2.25", "pos1"};
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(flags.getString("name"), "abc");
  EXPECT_EQ(flags.getInt("n"), 42);
  EXPECT_DOUBLE_EQ(flags.getDouble("x"), 2.25);
  EXPECT_TRUE(flags.getBool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(FlagsTest, UnknownFlagFails) {
  Flags flags;
  flags.addInt("n", 1, "");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, MissingValueFails) {
  Flags flags;
  flags.addInt("n", 1, "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, UsageListsFlags) {
  Flags flags;
  flags.addInt("count", 3, "how many");
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
}

}  // namespace
}  // namespace vlease
