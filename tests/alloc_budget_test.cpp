//===- tests/alloc_budget_test.cpp - Heap allocations per routine ----------===//
//
// Pins the allocation behaviour of the per-routine builders, the two
// solver phases and slot flow: the CFG build keeps every routine's lists
// in program-wide arrays, the PSG build reuses per-lane scratch and
// stores no per-routine directory, and the solvers size their scratch
// once per phase.  A regression back to per-routine lists, per-block
// vectors or per-group scratch multiplies these counts.  It also pins
// the bytes a patch re-analysis in place allocates: a no-op save almost
// none, a one-word edit far less than a fresh analysis, which a
// rebuild-everything engine would not.
//
// This lives in its own binary (not spike_tests) because it replaces the
// global operator new/delete with counting versions — a program-wide
// change no other test should be subjected to.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "interproc/Incremental.h"
#include "psg/PsgBuilder.h"
#include "psg/PsgSolver.h"
#include "slice/SlotFlow.h"
#include "support/ThreadPool.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> Allocations{0};
std::atomic<uint64_t> AllocatedBytes{0};

} // namespace

void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

// The nothrow forms count too (std::stable_sort's temporary buffer uses
// them), and must pair with the replaced deletes under AddressSanitizer.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

// Out of line, so the compiler never sees a replaced new's pointer reach
// free() and mistake the pair for a mismatched allocation.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P,
                                       const std::nothrow_t &) noexcept {
  std::free(P);
}

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

// Budgets in allocations per routine, the measured counts plus 50%:
// the CFG build fills program-wide arrays in place (0.83 per routine),
// the PSG build computes its node directory (0.047), and slot flow keeps
// one op array per routine besides its per-routine results (5.9).
// Per-routine lists or per-block vectors cost more than ten times these
// bounds on this input.
constexpr double CfgBuildBudget = 1.25;
constexpr double PsgBuildBudget = 0.07;
constexpr double SlotFlowBudget = 9;

// Allocations of both solver phases together (78 measured): scratch is
// sized once per phase and per lane, so the bound does not grow with the
// number of SCC groups.
constexpr uint64_t PhaseBudget = 120;

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

  std::vector<RegSet> Saved(Prog.Routines.size());
  Before = Allocations.load();
  runPhase1(Prog, Psg, Saved, &Pool);
  runPhase2(Prog, Psg, &Pool);
  uint64_t PhaseAllocs = Allocations.load() - Before;

  Before = Allocations.load();
  SlotFlowResult Slots = solveSlotFlow(Prog, &Pool);
  uint64_t SlotAllocs = Allocations.load() - Before;

  double Routines = double(Prog.Routines.size());
  ASSERT_GT(Routines, 1000.0);
  ASSERT_GT(Psg.Edges.size(), Prog.Routines.size());
  ASSERT_GT(Prog.CalleeFirst.NumGroups, 500u);
  double CfgPerRoutine = double(CfgAllocs) / Routines;
  double PsgPerRoutine = double(PsgAllocs) / Routines;
  double SlotPerRoutine = double(SlotAllocs) / Routines;
  RecordProperty("cfg_allocs_per_routine", std::to_string(CfgPerRoutine));
  RecordProperty("psg_allocs_per_routine", std::to_string(PsgPerRoutine));
  RecordProperty("phase_allocs", std::to_string(PhaseAllocs));
  RecordProperty("slot_allocs_per_routine", std::to_string(SlotPerRoutine));
  EXPECT_LT(CfgPerRoutine, CfgBuildBudget);
  EXPECT_LT(PsgPerRoutine, PsgBuildBudget);
  EXPECT_LT(PhaseAllocs, PhaseBudget);
  EXPECT_LT(SlotPerRoutine, SlotFlowBudget);
}

// Bytes a patch re-analysis may allocate: a no-op save compares the
// words and the routines' quarantine and returns; a one-word edit
// rebuilds one routine and re-solves its dirty frontier in place.
constexpr uint64_t NoOpSaveBytes = 64 << 10;
constexpr double EditShareOfFresh = 0.5;

TEST(AllocBudget, PatchesAllocateInProportionToTheChange) {
  const BenchmarkProfile *Base = findProfile("gcc");
  ASSERT_NE(Base, nullptr);
  Image Img = generateCfgProgram(scaledProfile(*Base, 0.2));
  ThreadPool Pool(1);

  uint64_t Before = AllocatedBytes.load();
  AnalysisResult A = analyzeImage(Img);
  uint64_t FreshBytes = AllocatedBytes.load() - Before;

  // A routine in the largest phase 1 group, so the edit re-solves a real
  // frontier, with a word to overwrite.
  const SccSchedule &Sched = A.Prog.CalleeFirst;
  uint32_t Largest = 0;
  for (uint32_t G = 0; G < Sched.NumGroups; ++G)
    if (Sched.Members[G].size() > Sched.Members[Largest].size())
      Largest = G;
  uint32_t Patched = ~uint32_t(0);
  for (uint32_t R : Sched.Members[Largest])
    if (!A.Prog.Routines[R].Quarantined &&
        A.Prog.Routines[R].End - A.Prog.Routines[R].Begin >= 4) {
      Patched = R;
      break;
    }
  ASSERT_NE(Patched, ~uint32_t(0));
  const Routine &Rt = A.Prog.Routines[Patched];
  std::vector<uint64_t> Words(Img.Code.begin() + Rt.Begin,
                              Img.Code.begin() + Rt.End);

  Before = AllocatedBytes.load();
  IncrementalOutcome Save =
      reanalyzeIncremental(Img, Patched, Words, AnalysisOptions(), A, Pool);
  uint64_t SaveBytes = AllocatedBytes.load() - Before;
  EXPECT_EQ(Save.StructDirty, 0u);

  size_t Dst = 1;
  while (Dst < Words.size() && Words[Dst] == Words[0])
    ++Dst;
  ASSERT_LT(Dst, Words.size());
  Words[Dst] = Words[0];
  Before = AllocatedBytes.load();
  IncrementalOutcome Edit =
      reanalyzeIncremental(Img, Patched, Words, AnalysisOptions(), A, Pool);
  uint64_t EditBytes = AllocatedBytes.load() - Before;
  EXPECT_GT(Edit.StructDirty, 0u);
  EXPECT_GT(Edit.Phase1Dirty, 1u);

  RecordProperty("fresh_bytes", std::to_string(FreshBytes));
  RecordProperty("save_bytes", std::to_string(SaveBytes));
  RecordProperty("edit_bytes", std::to_string(EditBytes));
  EXPECT_LT(SaveBytes, NoOpSaveBytes);
  EXPECT_LT(double(EditBytes), EditShareOfFresh * double(FreshBytes))
      << EditBytes << " of " << FreshBytes << " bytes";
}

} // namespace
