//===- tests/provenance_noalloc_test.cpp - Disabled-recorder overhead ------===//
//
// Proves the provenance recorder's "zero-cost when disabled" claim at the
// allocator level: recordProvenance(nullptr, ...) — the call the solver
// makes on every set-growing step when RecordProvenance is off — and
// lookups against a disabled store perform no heap allocation at all.
//
// This lives in its own binary (not spike_tests) because it replaces the
// global operator new/delete with counting versions — a program-wide
// change no other test should be subjected to.
//
//===----------------------------------------------------------------------===//

#include "provenance/Provenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> LiveAllocations{0};

} // namespace

void *operator new(std::size_t Size) {
  LiveAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

void *operator new[](std::size_t Size) { return operator new(Size); }
void operator delete[](void *P) noexcept { operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept { operator delete(P); }

namespace {

using namespace spike;

TEST(ProvenanceNoAlloc, AllocationCounterWorks) {
  uint64_t Before = LiveAllocations.load();
  // Direct operator-new call: unlike a new-expression, it cannot be
  // elided by the optimizer.
  void *P = ::operator new(32);
  ::operator delete(P);
  EXPECT_GT(LiveAllocations.load(), Before);
}

TEST(ProvenanceNoAlloc, DisabledRecorderPerformsNoAllocations) {
  ProvenanceStore Disabled;
  ASSERT_FALSE(Disabled.enabled());

  ProvRecord D(ProvKind::EdgeLabel, 12);

  uint64_t Before = LiveAllocations.load();
  uint64_t Recorded = 0;
  ProvRecord Found;
  for (int I = 0; I < 1000; ++I) {
    // The null-store path the solver takes on every set-growing step.
    Recorded += recordProvenance(nullptr, ProvFact::MayUse, uint32_t(I),
                                 RegSet({1, 5, 9}), D);
    Recorded +=
        recordProvenance(nullptr, ProvFact::Live, uint32_t(I),
                         RegSet::allBelow(NumIntRegs), D);
    if (ProvRecord Hit = Disabled.lookup(ProvFact::Live, uint32_t(I) % 4, 3);
        !Hit.empty())
      Found = Hit;
  }
  EXPECT_EQ(LiveAllocations.load(), Before);
  EXPECT_EQ(Recorded, 0u);
  EXPECT_TRUE(Found.empty());
}

TEST(ProvenanceNoAlloc, EnabledStoreRecords) {
  // Sanity: the same calls do record once a store is initialized, so the
  // disabled-mode result above is not vacuous.  init() itself allocates
  // the tables; recording into existing slots does not.
  ProvenanceStore Store;
  Store.init(8, 8);

  ProvRecord D(ProvKind::SeedUnknownCaller);

  uint64_t Before = LiveAllocations.load();
  EXPECT_EQ(recordProvenance(&Store, ProvFact::Live, 3, RegSet({2, 4}), D),
            2u);
  EXPECT_EQ(recordProvenance(&Store, ProvFact::Live, 3, RegSet({2, 4}), D),
            0u); // First derivation wins.
  EXPECT_EQ(LiveAllocations.load(), Before);

  ProvRecord Hit = Store.lookup(ProvFact::Live, 3, 4);
  ASSERT_FALSE(Hit.empty());
  EXPECT_EQ(Hit.kind(), ProvKind::SeedUnknownCaller);
}

} // namespace
