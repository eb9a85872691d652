//===- tests/support_test.cpp - support library unit tests ---------------===//

#include "support/MemoryTracker.h"
#include "support/RegSet.h"
#include "support/Rng.h"
#include "support/Splice.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

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

namespace {

/// Swaps \p Lists into \p All at \p Slices and checks the outcome: All
/// holds the lists in the slices' places, the staging lists hold the
/// replaced slices, and a second call with the lists' new positions
/// restores both element for element.  Returns All after the first call.
std::vector<int> expectSwapAndUndo(std::vector<int> &All,
                                   const std::vector<Slice> &Slices,
                                   const std::vector<std::vector<int>> &Lists) {
  const std::vector<int> Before = All;
  FlatLists<int> Staging;
  Staging.Begin = {0};
  for (const std::vector<int> &List : Lists) {
    Staging.Items.insert(Staging.Items.end(), List.begin(), List.end());
    Staging.Begin.push_back(uint32_t(Staging.Items.size()));
  }
  const FlatLists<int> New = Staging;
  std::vector<int> Want;
  std::vector<Slice> Placed;
  size_t Cursor = 0;
  for (size_t I = 0; I < Slices.size(); ++I) {
    Want.insert(Want.end(), Before.begin() + Cursor,
                Before.begin() + Slices[I].Pos);
    Placed.push_back({Want.size(), Lists[I].size()});
    Want.insert(Want.end(), Lists[I].begin(), Lists[I].end());
    Cursor = Slices[I].Pos + Slices[I].Count;
  }
  Want.insert(Want.end(), Before.begin() + Cursor, Before.end());

  swapSlices(All, Slices, Staging.Items, Staging.Begin);
  EXPECT_EQ(All, Want);
  EXPECT_EQ(Staging.Begin.size(), Slices.size() + 1);
  for (size_t I = 0; I < Slices.size(); ++I) {
    std::span<const int> Old(Before.data() + Slices[I].Pos, Slices[I].Count);
    EXPECT_TRUE(std::ranges::equal(Staging.list(I), Old)) << "slice " << I;
  }
  std::vector<int> Spliced = All;

  swapSlices(All, Placed, Staging.Items, Staging.Begin);
  EXPECT_EQ(All, Before);
  EXPECT_EQ(Staging.Items, New.Items);
  EXPECT_EQ(Staging.Begin, New.Begin);
  return Spliced;
}

} // namespace

TEST(SpliceTest, UnchangedCountsSwapElementByElement) {
  std::vector<int> All = {1, 2, 3, 4, 5, 6, 7};
  const int *Storage = All.data();
  expectSwapAndUndo(All, {{1, 2}, {4, 0}, {5, 2}}, {{20, 30}, {}, {60, 70}});
  EXPECT_EQ(All.data(), Storage);
}

TEST(SpliceTest, OneSliceGrowsPastCapacityOrShrinks) {
  std::vector<int> All = {1, 2, 3, 4, 5};
  All.shrink_to_fit();
  std::vector<int> Spliced =
      expectSwapAndUndo(All, {{1, 2}}, {{20, 21, 22, 23, 24}});
  EXPECT_EQ(Spliced, (std::vector<int>{1, 20, 21, 22, 23, 24, 4, 5}));
  // A shrinking slice shifts the tail down in place.
  const int *Storage = All.data();
  Spliced = expectSwapAndUndo(All, {{0, 3}}, {{9}});
  EXPECT_EQ(Spliced, (std::vector<int>{9, 4, 5}));
  EXPECT_EQ(All.data(), Storage);
}

TEST(SpliceTest, SeveralSlicesChangingSizeRebuildOnce) {
  std::vector<int> All = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Spliced = expectSwapAndUndo(
      All, {{0, 1}, {2, 3}, {6, 0}, {7, 1}}, {{10, 11}, {30}, {}, {80, 81}});
  EXPECT_EQ(Spliced, (std::vector<int>{10, 11, 2, 30, 6, 7, 80, 81}));
}

TEST(SpliceTest, CoveringSlicesSwapTheVectors) {
  std::vector<int> All = {1, 2, 3, 4};
  expectSwapAndUndo(All, {{0, 1}, {1, 3}}, {{5, 6}, {7}});
  // A fresh build splices every list into the empty array: the staging
  // vector becomes the array, and nothing is copied.
  std::vector<int> Empty;
  FlatLists<int> Staging;
  Staging.Items = {1, 2, 3};
  Staging.Begin = {0, 2, 2, 3};
  const int *Storage = Staging.Items.data();
  swapSlices(Empty, {{0, 0}, {0, 0}, {0, 0}}, Staging.Items, Staging.Begin);
  EXPECT_EQ(Empty.data(), Storage);
  EXPECT_TRUE(Staging.Items.empty());
  EXPECT_EQ(Staging.Begin, (std::vector<uint32_t>{0, 0, 0, 0}));
  std::vector<int> None;
  expectSwapAndUndo(None, {{0, 0}, {0, 0}, {0, 0}}, {{1, 2}, {}, {3}});
}
