//===- tests/alloc_budget_test.cpp - Heap allocations per routine ----------===//
//
// Pins the allocation behaviour of the two per-routine builders: the CFG
// build keeps each routine's blocks and arcs in exactly-sized arrays, and
// the PSG build reuses per-lane scratch, so both make a small, roughly
// constant number of heap allocations per routine.  A regression back to
// per-block vectors or per-edge scratch multiplies these counts.
//
// This lives in its own binary (not spike_tests) because it replaces the
// global operator new/delete with counting versions — a program-wide
// change no other test should be subjected to.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "psg/PsgBuilder.h"
#include "support/ThreadPool.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> Allocations{0};

} // namespace

void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

// The nothrow forms count too (std::stable_sort's temporary buffer uses
// them), and must pair with the replaced deletes under AddressSanitizer.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }

void *operator new[](std::size_t Size) { return operator new(Size); }
void *operator new[](std::size_t Size, const std::nothrow_t &T) noexcept {
  return operator new(Size, T);
}
void operator delete[](void *P) noexcept { operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept { operator delete(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  operator delete(P);
}

namespace {

using namespace spike;

// Budgets in allocations per routine.  Per-block arc vectors,
// per-routine result buffers and per-edge scratch cost more than three
// times these bounds on this input.
constexpr double CfgBuildBudget = 10;
constexpr double PsgBuildBudget = 8;

TEST(AllocBudget, BuildersStayWithinPerRoutineBudget) {
  const BenchmarkProfile *Base = findProfile("acad");
  ASSERT_NE(Base, nullptr);
  Image Img = generateCfgProgram(scaledProfile(*Base, 0.1));
  ThreadPool Pool(1);
  MemoryTracker Mem;

  uint64_t Before = Allocations.load();
  Program Prog = buildProgram(Img, CallingConv(), &Mem, {}, &Pool);
  uint64_t CfgAllocs = Allocations.load() - Before;
  computeDefUbd(Prog, &Pool);

  Before = Allocations.load();
  ProgramSummaryGraph Psg = buildPsg(Prog, {}, &Mem, &Pool);
  uint64_t PsgAllocs = Allocations.load() - Before;

  double Routines = double(Prog.Routines.size());
  ASSERT_GT(Routines, 1000.0);
  ASSERT_GT(Psg.Edges.size(), Prog.Routines.size());
  double CfgPerRoutine = double(CfgAllocs) / Routines;
  double PsgPerRoutine = double(PsgAllocs) / Routines;
  RecordProperty("cfg_allocs_per_routine", std::to_string(CfgPerRoutine));
  RecordProperty("psg_allocs_per_routine", std::to_string(PsgPerRoutine));
  EXPECT_LT(CfgPerRoutine, CfgBuildBudget);
  EXPECT_LT(PsgPerRoutine, PsgBuildBudget);
}

} // namespace
