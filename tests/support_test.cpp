//===- tests/support_test.cpp - support library unit tests ---------------===//

#include "support/MemoryTracker.h"
#include "support/RegSet.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <set>

using namespace spike;

TEST(RegSetTest, EmptyOnConstruction) {
  RegSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
  EXPECT_FALSE(S.contains(0));
}

TEST(RegSetTest, InsertEraseContains) {
  RegSet S;
  S.insert(3);
  S.insert(17);
  S.insert(63);
  EXPECT_TRUE(S.contains(3));
  EXPECT_TRUE(S.contains(17));
  EXPECT_TRUE(S.contains(63));
  EXPECT_FALSE(S.contains(4));
  EXPECT_EQ(S.count(), 3u);
  S.erase(17);
  EXPECT_FALSE(S.contains(17));
  EXPECT_EQ(S.count(), 2u);
  S.clear();
  EXPECT_TRUE(S.empty());
}

TEST(RegSetTest, InitializerList) {
  RegSet S = {1, 2, 30};
  EXPECT_EQ(S.count(), 3u);
  EXPECT_TRUE(S.contains(30));
}

TEST(RegSetTest, SetAlgebra) {
  RegSet A = {1, 2, 3};
  RegSet B = {3, 4};
  EXPECT_EQ(A | B, RegSet({1, 2, 3, 4}));
  EXPECT_EQ(A & B, RegSet({3}));
  EXPECT_EQ(A - B, RegSet({1, 2}));
  RegSet C = A;
  C |= B;
  EXPECT_EQ(C, RegSet({1, 2, 3, 4}));
  C -= A;
  EXPECT_EQ(C, RegSet({4}));
  C &= B;
  EXPECT_EQ(C, RegSet({4}));
}

TEST(RegSetTest, ContainsAllAndIntersects) {
  RegSet A = {1, 2, 3};
  EXPECT_TRUE(A.containsAll(RegSet({1, 3})));
  EXPECT_FALSE(A.containsAll(RegSet({1, 4})));
  EXPECT_TRUE(A.containsAll(RegSet()));
  EXPECT_TRUE(A.intersects(RegSet({3, 9})));
  EXPECT_FALSE(A.intersects(RegSet({8, 9})));
}

TEST(RegSetTest, AllBelow) {
  EXPECT_EQ(RegSet::allBelow(0).count(), 0u);
  EXPECT_EQ(RegSet::allBelow(32).count(), 32u);
  EXPECT_EQ(RegSet::allBelow(64).count(), 64u);
  EXPECT_TRUE(RegSet::allBelow(32).contains(31));
  EXPECT_FALSE(RegSet::allBelow(32).contains(32));
}

TEST(RegSetTest, IterationAscending) {
  RegSet S = {5, 0, 63, 31};
  std::set<unsigned> Seen;
  unsigned Prev = 0;
  bool First = true;
  for (unsigned R : S) {
    if (!First) {
      EXPECT_GT(R, Prev);
    }
    Prev = R;
    First = false;
    Seen.insert(R);
  }
  EXPECT_EQ(Seen, std::set<unsigned>({0, 5, 31, 63}));
}

TEST(RegSetTest, Str) {
  EXPECT_EQ(RegSet().str(), "{}");
  EXPECT_EQ(RegSet({2, 5}).str(), "{R2, R5}");
}

TEST(MemoryTrackerTest, PeakTracksHighWater) {
  MemoryTracker T;
  T.charge(100);
  T.charge(50);
  T.release(120);
  T.charge(10);
  EXPECT_EQ(T.liveBytes(), 40u);
  EXPECT_EQ(T.peakBytes(), 150u);
  T.reset();
  EXPECT_EQ(T.peakBytes(), 0u);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng A(7), B(7), C(8);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng R(123);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(RngTest, RangeInclusive) {
  Rng R(5);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, CountAroundHasRequestedMean) {
  Rng R(99);
  double Sum = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.countAround(5.0);
  double Mean = Sum / N;
  EXPECT_NEAR(Mean, 5.0, 0.5);
}

TEST(RngTest, CountAroundZeroMean) {
  Rng R(1);
  EXPECT_EQ(R.countAround(0.0), 0u);
  EXPECT_EQ(R.countAround(-1.0), 0u);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::num(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(uint64_t(42)), "42");
  EXPECT_EQ(TablePrinter::percent(0.123), "12.3%");
}
