//===- tests/parallel_test.cpp - parallel engine equivalence ---------------===//
//
// The parallel analysis engine's contract is absolute: for every profile
// and every lane count, summaries, live sets, optimized images, and
// telemetry counters are identical to --jobs=1.  (Only the pool.steals
// counter and the analysis.jobs gauge may reflect the lane count; both
// are excluded from every comparison below.)
//
// Five layers of evidence:
//   - the front end (CFG build, call graph, schedules, PSG build) at
//     jobs 1/2/4/7 on the corpus and on hand-built edge cases: every
//     field of the Program and the PSG, and every tracked charge,
//   - the SCC-schedule driver (cfg/SccDriver.h) that all three solvers
//     share, on a hand-built schedule at jobs 1 and 4: one solve per
//     non-empty group, ordered level joins, restore-or-solve against the
//     dirty frontier, and deterministic budget errors,
//   - differential: all 20 synthetic profiles (the paper's 16 benchmark
//     shapes plus 4 executable programs) analyzed at jobs 2/4/7 against
//     the serial run — whole-program summaries, solver statistics, and
//     the full telemetry counter registry must match,
//   - sim-backed oracle: spike-opt --jobs=4 end to end on randomized
//     executable programs — byte-identical output images with unchanged
//     observable behaviour,
//   - determinism stress: 25 repeated jobs=7 optimize runs — serialized
//     images byte-identical and RunReports identical across repeats
//     once the contract's schedule-dependent values (wall time, steal
//     accounting, lane utilization) are scrubbed.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "cfg/SccDriver.h"
#include "interproc/CfgTwoPhase.h"
#include "interproc/Incremental.h"
#include "isa/Encoding.h"
#include "isa/Registers.h"
#include "opt/Pipeline.h"
#include "provenance/Witness.h"
#include "psg/Analyzer.h"
#include "psg/PsgBuilder.h"
#include "sim/Simulator.h"
#include "slice/SlotFlow.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/RunReport.h"
#include "telemetry/Telemetry.h"
#include "AnalysisText.h"
#include "DifferentialCorpus.h"
#include "TestPaths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <fstream>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

using namespace spike;

namespace {

/// One analysis run captured with its full telemetry registry, minus the
/// entries documented as lane-count-dependent.
struct RunCapture {
  AnalysisResult Result;
  telemetry::Session::Registry Counters;
  telemetry::Session::Registry Gauges;
  telemetry::Session::HistogramRegistry Histograms;
  std::vector<telemetry::HotSpotRecord> HotSpots;
};

/// True for histogram names the determinism contract excludes: measured
/// time (the "_ns"/".ns" naming convention) and steal counts.
bool scheduleDependentHistogram(const std::string &Name) {
  auto EndsWith = [&](const char *Suffix) {
    size_t Len = std::strlen(Suffix);
    return Name.size() >= Len &&
           Name.compare(Name.size() - Len, Len, Suffix) == 0;
  };
  return EndsWith("_ns") || EndsWith(".ns") || Name == "pool.batch_steals";
}

RunCapture analyzeAt(const Image &Img, unsigned Jobs) {
  telemetry::Session S("parallel_test");
  RunCapture Cap;
  {
    telemetry::SessionScope Scope(S);
    AnalysisOptions Opts;
    Opts.Jobs = Jobs;
    Cap.Result = analyzeImage(Img, CallingConv(), Opts);
  }
  Cap.Counters = S.counters();
  Cap.Gauges = S.gauges();
  Cap.Histograms = S.histograms();
  Cap.HotSpots = S.hotspots();

  Cap.Counters.erase("pool.steals");
  Cap.Gauges.erase("analysis.jobs");
  // Per-lane utilization gauges exist per configured lane and are
  // schedule-dependent by definition.
  for (auto It = Cap.Gauges.begin(); It != Cap.Gauges.end();)
    It = It->first.rfind("pool.lane.", 0) == 0 ? Cap.Gauges.erase(It)
                                               : std::next(It);
  for (auto It = Cap.Histograms.begin(); It != Cap.Histograms.end();)
    It = scheduleDependentHistogram(It->first) ? Cap.Histograms.erase(It)
                                               : std::next(It);
  // Hot-spot rows: every field except measured time is covered.
  for (telemetry::HotSpotRecord &R : Cap.HotSpots)
    R.Ns = 0;
  return Cap;
}

void expectHotSpotsEqual(const std::vector<telemetry::HotSpotRecord> &Serial,
                         const std::vector<telemetry::HotSpotRecord> &Parallel,
                         const std::string &Where) {
  ASSERT_EQ(Serial.size(), Parallel.size()) << Where;
  for (size_t I = 0; I < Serial.size(); ++I) {
    const telemetry::HotSpotRecord &S = Serial[I];
    const telemetry::HotSpotRecord &P = Parallel[I];
    const std::string At = Where + " hotspot " + std::to_string(I);
    EXPECT_EQ(S.Phase, P.Phase) << At;
    EXPECT_EQ(S.Routine, P.Routine) << At;
    EXPECT_EQ(S.Scc, P.Scc) << At;
    EXPECT_EQ(S.Pops, P.Pops) << At;
    EXPECT_EQ(S.Iters, P.Iters) << At;
    EXPECT_EQ(S.SetOps, P.SetOps) << At;
  }
}

void expectSummariesEqual(const InterprocSummaries &Serial,
                          const InterprocSummaries &Parallel,
                          const std::string &Where) {
  ASSERT_EQ(Serial.Routines.size(), Parallel.Routines.size()) << Where;
  for (size_t R = 0; R < Serial.Routines.size(); ++R) {
    const RoutineResults &S = Serial.Routines[R];
    const RoutineResults &P = Parallel.Routines[R];
    const std::string At = Where + " routine " + std::to_string(R);
    ASSERT_EQ(S.EntrySummaries.size(), P.EntrySummaries.size()) << At;
    ASSERT_EQ(S.LiveAtEntry.size(), P.LiveAtEntry.size()) << At;
    ASSERT_EQ(S.LiveAtExit.size(), P.LiveAtExit.size()) << At;
    for (size_t E = 0; E < S.EntrySummaries.size(); ++E) {
      EXPECT_EQ(S.EntrySummaries[E].Used, P.EntrySummaries[E].Used) << At;
      EXPECT_EQ(S.EntrySummaries[E].Defined, P.EntrySummaries[E].Defined)
          << At;
      EXPECT_EQ(S.EntrySummaries[E].Killed, P.EntrySummaries[E].Killed)
          << At;
      EXPECT_EQ(S.LiveAtEntry[E], P.LiveAtEntry[E]) << At;
    }
    for (size_t X = 0; X < S.LiveAtExit.size(); ++X)
      EXPECT_EQ(S.LiveAtExit[X], P.LiveAtExit[X]) << At;
  }
}

void expectRegistriesEqual(const telemetry::Session::Registry &Serial,
                           const telemetry::Session::Registry &Parallel,
                           const std::string &Where) {
  for (const auto &[Name, Value] : Serial)
    EXPECT_EQ(Parallel.count(Name), 1u)
        << Where << ": entry '" << Name << "' missing in parallel run";
  for (const auto &[Name, Value] : Parallel) {
    auto It = Serial.find(Name);
    if (It == Serial.end()) {
      ADD_FAILURE() << Where << ": extra entry '" << Name
                    << "' in parallel run";
      continue;
    }
    EXPECT_EQ(It->second, Value) << Where << ": entry '" << Name << "'";
  }
}

std::string runCommand(const std::string &Command, int *ExitCode) {
  std::string Output;
  std::FILE *Pipe = ::popen((Command + " 2>&1").c_str(), "r");
  if (!Pipe) {
    *ExitCode = -1;
    return Output;
  }
  char Buffer[512];
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  int Status = ::pclose(Pipe);
  *ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Output;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

/// Canonicalizes a RunReport JSON document down to exactly what the
/// determinism contract covers: wall-clock values, steal accounting,
/// lane utilization, time-valued histograms, and hot-spot Ns are all
/// dropped; every other quantity is rendered one per line.
std::string canonicalReport(const std::string &Json) {
  std::string Error;
  std::optional<telemetry::RunReport> R =
      telemetry::parseRunReport(Json, &Error);
  if (!R)
    return "parse error: " + Error;
  std::string Out;
  auto Add = [&](const std::string &Line) {
    Out += Line;
    Out += '\n';
  };
  for (const auto &[Name, Value] : R->Counters)
    if (Name != "pool.steals")
      Add("counter " + Name + "=" + std::to_string(Value));
  for (const auto &[Name, Value] : R->Gauges)
    if (Name.rfind("pool.lane.", 0) != 0)
      Add("gauge " + Name + "=" + std::to_string(Value));
  for (const telemetry::RunReport::Phase &P : R->Phases)
    Add("phase " + P.Path + " x" + std::to_string(P.Count));
  for (const auto &[Name, H] : R->Histograms) {
    if (scheduleDependentHistogram(Name))
      continue;
    std::string Line = "hist " + Name + " n=" + std::to_string(H.Count) +
                       " sum=" + std::to_string(H.Sum) +
                       " min=" + std::to_string(H.Min) +
                       " max=" + std::to_string(H.Max);
    for (const auto &[Bucket, N] : H.Buckets)
      Line += " " + std::to_string(Bucket) + ":" + std::to_string(N);
    Add(Line);
  }
  for (const telemetry::RunReport::HotSpot &H : R->Hotspots)
    Add("hotspot " + H.Phase + "|" + H.Routine + "|" +
        std::to_string(H.Scc) + "|" + std::to_string(H.Pops) + "|" +
        std::to_string(H.Iters) + "|" + std::to_string(H.SetOps));
  for (const telemetry::RunReport::Transform &T : R->Transforms)
    Add("transform " + T.Pass + "|" + T.Outcome + "|" +
        std::to_string(T.Address) + "|" + T.Routine);
  for (const telemetry::RunReport::Degraded &D : R->Degradations)
    Add("degraded " + D.Routine + "|" + D.Reason + "|" + D.Phase);
  return Out;
}

/// A hand-built schedule over routines r0..r7 plus a hub node 8 that is
/// then dropped from its group, the way buildCallerFirstSchedule drops
/// its coupling hub:
///
///   level 0: {r0}   level 1: {r1} {r2}   level 2: {r3}
///   level 3: {r4 r5 r6}   level 4: {} (hub)   level 5: {r7}
///
/// r0..r3 form a diamond, r4 -> r5 -> r6 -> r4 a 3-cycle.
struct DriverFixture {
  Program Prog;
  SccSchedule Sched;
  uint32_t HubGroup = 0;

  DriverFixture() {
    std::vector<std::vector<uint32_t>> Deps(9);
    Deps[0] = {1, 2};
    Deps[1] = {3};
    Deps[2] = {3};
    Deps[3] = {4};
    Deps[4] = {5};
    Deps[5] = {6};
    Deps[6] = {4, 8};
    Deps[8] = {7};
    Sched = buildSccSchedule(9, Deps);
    HubGroup = Sched.GroupOfRoutine[8];
    Sched.Members[HubGroup].clear();
    Sched.GroupOfRoutine.resize(8);
    Prog.Routines.resize(8);
    for (uint32_t R = 0; R < 8; ++R)
      Prog.Routines[R].Name = "r" + std::to_string(R);
  }

  uint32_t groupOf(uint32_t Routine) const {
    return Sched.GroupOfRoutine[Routine];
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// The front end: per-routine CFG and PSG builds at every lane count
//===----------------------------------------------------------------------===//

namespace {

using testtext::describeCallGraph;
using testtext::describeProgram;
using testtext::describePsg;
using testtext::describeSchedule;
using testtext::expectSameLines;

/// The front end of one image at one lane count: the Program with its
/// call graph and schedules, the PSG, and the tracked charges (their
/// count is the alloc@N fault schedule's clock).
struct FrontEnd {
  Program Prog;
  ProgramSummaryGraph Psg;
  std::vector<std::string> Lines;
};

FrontEnd buildFrontEnd(const Image &Img, unsigned Jobs,
                       const CfgBuildOptions &Opts = {}) {
  ThreadPool Pool(Jobs);
  MemoryTracker Mem;
  faultinject::Injector Charges(
      {faultinject::FaultKind::Alloc, ~uint64_t(0)});
  FrontEnd F;
  {
    faultinject::Scope Counting(Charges);
    F.Prog = buildProgram(Img, CallingConv(), &Mem, Opts, &Pool);
    computeDefUbd(F.Prog, &Pool);
    F.Psg = buildPsg(F.Prog, {}, &Mem, &Pool);
  }
  F.Lines = describeProgram(F.Prog);
  std::vector<std::string> PsgLines = describePsg(F.Prog, F.Psg);
  F.Lines.insert(F.Lines.end(), PsgLines.begin(), PsgLines.end());
  F.Lines.push_back("charges " + std::to_string(Charges.events()) +
                    " bytes " + std::to_string(Mem.peakBytes()));
  return F;
}

/// Packs (key, value) pairs into a CSR over \p NumKeys keys the way the
/// builder once did: sort, drop duplicates, count, prefix-sum.
std::pair<std::vector<uint32_t>, std::vector<uint32_t>>
sortedCsr(std::vector<std::pair<uint32_t, uint32_t>> Pairs, size_t NumKeys) {
  std::sort(Pairs.begin(), Pairs.end());
  Pairs.erase(std::unique(Pairs.begin(), Pairs.end()), Pairs.end());
  std::vector<uint32_t> Begin(NumKeys + 1, 0), Ids;
  for (const auto &[Key, Value] : Pairs) {
    ++Begin[Key + 1];
    Ids.push_back(Value);
  }
  std::partial_sum(Begin.begin(), Begin.end(), Begin.begin());
  return {Begin, Ids};
}

/// Checks the PSG's indexes against constructions that sort: the edge
/// CSR, the reverse index by destination, and the three linkage CSRs
/// from sorted, deduplicated pair lists.
void expectIndexesMatchSortedReference(const FrontEnd &F,
                                       const std::string &Where) {
  const Program &Prog = F.Prog;
  const ProgramSummaryGraph &Psg = F.Psg;
  size_t NumNodes = Psg.Nodes.size();
  std::vector<uint32_t> Out(NumNodes, 0), In(NumNodes, 0);
  for (const PsgEdge &E : Psg.Edges) {
    ++Out[E.Src];
    ++In[E.Dst];
  }
  uint32_t FirstOut = 0, FirstIn = 0;
  for (uint32_t NodeId = 0; NodeId < NumNodes; ++NodeId) {
    const PsgNode &N = Psg.Nodes[NodeId];
    ASSERT_EQ(N.FirstOut, FirstOut) << Where << " node " << NodeId;
    ASSERT_EQ(Psg.outEdges(NodeId).size(), Out[NodeId]) << Where << " node " << NodeId;
    ASSERT_EQ(N.FirstIn, FirstIn) << Where << " node " << NodeId;
    ASSERT_EQ(Psg.inEdgeIds(NodeId).size(), In[NodeId]) << Where << " node " << NodeId;
    FirstOut += Out[NodeId];
    FirstIn += In[NodeId];
  }
  std::vector<uint32_t> ByDst(Psg.Edges.size());
  std::iota(ByDst.begin(), ByDst.end(), 0);
  std::stable_sort(ByDst.begin(), ByDst.end(), [&](uint32_t A, uint32_t B) {
    return Psg.Edges[A].Dst < Psg.Edges[B].Dst;
  });
  EXPECT_EQ(Psg.InEdgeIds, ByDst) << Where;

  std::vector<std::pair<uint32_t, uint32_t>> EntryToCr, ExitToReturn,
      ReturnToExit;
  std::vector<uint32_t> IndirectReturns, TakenExits;
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
    const Routine &Rt = Prog.Routines[R];
    for (uint32_t CallIndex = 0; CallIndex < Rt.CallBlocks.size();
         ++CallIndex) {
      const BasicBlock &Block = Rt.Blocks[Rt.CallBlocks[CallIndex]];
      uint32_t Return = Psg.returnNode(Prog, R, CallIndex);
      if (Block.Term != TerminatorKind::Call) {
        IndirectReturns.push_back(Return);
        continue;
      }
      uint32_t Callee = uint32_t(Block.CalleeRoutine);
      EntryToCr.push_back(
          {Psg.entryNode(Callee, uint32_t(Block.CalleeEntry)),
           Psg.Nodes[Psg.callNode(Prog, R, CallIndex)].FirstOut});
      for (uint32_t Exit : Psg.exitNodes(Prog, Callee)) {
        ExitToReturn.push_back({Exit, Return});
        ReturnToExit.push_back({Return, Exit});
      }
    }
    if (Rt.AddressTaken)
      for (uint32_t Exit : Psg.exitNodes(Prog, R))
        TakenExits.push_back(Exit);
  }
  EXPECT_EQ(sortedCsr(EntryToCr, NumNodes),
            std::make_pair(Psg.CrEdgeOfEntry.Begin, Psg.CrEdgeOfEntry.Ids))
      << Where;
  EXPECT_EQ(sortedCsr(ExitToReturn, NumNodes),
            std::make_pair(Psg.ReturnsOfExit.Begin, Psg.ReturnsOfExit.Ids))
      << Where;
  EXPECT_EQ(sortedCsr(ReturnToExit, NumNodes),
            std::make_pair(Psg.ExitsOfReturn.Begin, Psg.ExitsOfReturn.Ids))
      << Where;
  EXPECT_EQ(Psg.IndirectReturnNodes, IndirectReturns) << Where;
  EXPECT_EQ(Psg.AddressTakenExitNodes, TakenExits) << Where;

  // The stored call graph and schedules are the builders' output.
  std::vector<std::string> Stored, Rebuilt;
  describeCallGraph(Prog.Calls, Stored);
  describeSchedule("callee-first", Prog.CalleeFirst, Stored);
  describeSchedule("caller-first", Prog.CallerFirst, Stored);
  CallGraph Graph = buildCallGraph(Prog);
  describeCallGraph(Graph, Rebuilt);
  describeSchedule("callee-first", buildCalleeFirstSchedule(Prog, Graph),
                   Rebuilt);
  describeSchedule("caller-first", buildCallerFirstSchedule(Prog, Graph),
                   Rebuilt);
  expectSameLines(Rebuilt, Stored, Where + " stored call graph");
}

/// A program exercising every cross-routine fact the entrance scan
/// merges: a jsr in unowned code before the first routine, calls to an
/// unnamed secondary entrance, duplicate call targets, an annotated
/// indirect call, a wild jsr, and a jsr from a routine the validator
/// quarantines.  \p QuarantinedIndirect adds a jsr_r to that routine
/// and \p Undecodable plants an undecodable word; either lets
/// quarantined code reach every routine.
Image frontEndEdgeCase(bool QuarantinedIndirect, bool Undecodable) {
  ProgramBuilder B;
  B.beginRoutine("unowned"); // Its symbol is dropped below.
  B.emitCall("helper");
  B.emit(inst::nop());
  B.beginRoutine("main");
  ProgramBuilder::LabelId Secondary = B.makeLabel();
  B.emitCall("helper");
  B.emitCall("helper");
  B.emitCallTo(Secondary);
  B.emitCallTo(Secondary);
  B.emitLoadRoutineAddress(reg::T0, "leaf");
  uint64_t IndirectAt = B.currentAddress();
  B.emit(inst::jsrR(reg::T0));
  B.emitCall("victim");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("helper");
  B.emit(inst::rri(Opcode::AddI, reg::V0, reg::A0, 1));
  B.bind(Secondary);
  B.emit(inst::rri(Opcode::AddI, reg::V0, reg::V0, 1));
  B.emit(inst::ret());
  B.beginRoutine("leaf", /*AddressTaken=*/true);
  B.emit(inst::ret());
  B.beginRoutine("wild");
  uint64_t WildAt = B.currentAddress();
  B.emit(inst::jsr(0)); // Retargeted outside the code below.
  B.emit(inst::ret());
  B.beginRoutine("garbled"); // A dangling jump-table index quarantines it.
  B.emitCall("victim");
  if (QuarantinedIndirect)
    B.emit(inst::jsrR(reg::T7));
  uint64_t GarbleAt = B.currentAddress();
  B.emit(inst::ret()); // Becomes the dangling jmp_tab below.
  B.beginRoutine("victim");
  B.emit(inst::ret());
  B.beginRoutine("junk");
  uint64_t JunkAt = B.currentAddress();
  B.emit(inst::nop());
  B.emit(inst::ret());
  B.setEntry("main");
  Image Img = B.build();

  // The builder verifies what it builds, so the defects go in after.
  Img.Code[WildAt] =
      encodeInstruction(inst::jsr(int32_t(Img.Code.size() + 100)));
  Img.Code[GarbleAt] = encodeInstruction(inst::jmpTab(reg::T8, 99));
  if (Undecodable)
    Img.Code[JunkAt] = ~uint64_t(0);
  IndirectCallAnnotation Annot;
  Annot.Address = IndirectAt;
  Annot.Used = RegSet{reg::A0};
  Annot.Killed = RegSet{reg::V0};
  Img.CallAnnotations.push_back(Annot);
  std::erase_if(Img.Symbols,
                [](const Symbol &Sym) { return Sym.Name == "unowned"; });
  return Img;
}

const Routine &routineNamed(const Program &Prog, const std::string &Name) {
  for (const Routine &R : Prog.Routines)
    if (R.Name == Name)
      return R;
  ADD_FAILURE() << "no routine " << Name;
  return Prog.Routines.front();
}

} // namespace

TEST(ParallelFrontEnd, CorpusIsBitIdenticalAtEveryJobCount) {
  for (const auto &[Name, Img] : testcorpus::differentialCorpus()) {
    FrontEnd Serial = buildFrontEnd(Img, 1);
    expectIndexesMatchSortedReference(Serial, Name);
    for (unsigned Jobs : {2u, 4u, 7u})
      expectSameLines(Serial.Lines, buildFrontEnd(Img, Jobs).Lines,
                      Name + " jobs=" + std::to_string(Jobs));
  }
}

TEST(ParallelFrontEnd, EdgeCasesAreBitIdenticalAtEveryJobCount) {
  CfgBuildOptions Degrade;
  Degrade.ForceQuarantine = {"helper", "no-such-routine", "garbled",
                             "helper"};
  Degrade.BudgetDegrade = {"main", "helper", "no-such-routine", "main"};
  const struct {
    const char *Name;
    Image Img;
    CfgBuildOptions Opts;
  } Cases[] = {
      {"edge", frontEndEdgeCase(false, false), {}},
      {"edge-quarantined-jsr_r", frontEndEdgeCase(true, false), {}},
      {"edge-undecodable", frontEndEdgeCase(false, true), {}},
      {"edge-degraded", frontEndEdgeCase(false, false), Degrade},
  };
  for (const auto &Case : Cases) {
    FrontEnd Serial = buildFrontEnd(Case.Img, 1, Case.Opts);
    expectIndexesMatchSortedReference(Serial, Case.Name);
    for (unsigned Jobs : {2u, 4u, 7u})
      expectSameLines(Serial.Lines,
                      buildFrontEnd(Case.Img, Jobs, Case.Opts).Lines,
                      std::string(Case.Name) + " jobs=" +
                          std::to_string(Jobs));
  }

  // What the scan merged, on the plain case: the unowned jsr and the
  // quarantined routine's jsr mark their callees, nothing else is
  // marked, and both calls to the unnamed secondary entrance resolve to
  // one registered entrance.
  FrontEnd Edge = buildFrontEnd(Cases[0].Img, 4);
  const Program &Prog = Edge.Prog;
  EXPECT_EQ(Prog.Routines.front().Name, "main");
  EXPECT_TRUE(routineNamed(Prog, "helper").CalledFromQuarantine);
  EXPECT_TRUE(routineNamed(Prog, "victim").CalledFromQuarantine);
  EXPECT_FALSE(routineNamed(Prog, "leaf").CalledFromQuarantine);
  EXPECT_FALSE(routineNamed(Prog, "main").CalledFromQuarantine);
  EXPECT_EQ(routineNamed(Prog, "wild").Degrade, DegradeReason::Validation);
  EXPECT_EQ(routineNamed(Prog, "garbled").Degrade,
            DegradeReason::Validation);
  const Routine &Helper = routineNamed(Prog, "helper");
  ASSERT_EQ(Helper.EntryAddresses.size(), 2u);
  const Routine &Main = routineNamed(Prog, "main");
  std::vector<int32_t> Entries;
  for (uint32_t Block : Main.CallBlocks)
    if (Main.Blocks[Block].Term == TerminatorKind::Call &&
        Prog.Routines[Main.Blocks[Block].CalleeRoutine].Name == "helper")
      Entries.push_back(Main.Blocks[Block].CalleeEntry);
  EXPECT_EQ(Entries, (std::vector<int32_t>{0, 0, 1, 1}));
  EXPECT_EQ(Prog.CallAnnotations.size(), 1u);

  // Indirect calls or undecodable words in bad code reach everything.
  for (const auto &Case : {Cases[1], Cases[2]})
    for (const Routine &R : buildFrontEnd(Case.Img, 2).Prog.Routines)
      EXPECT_TRUE(R.CalledFromQuarantine) << Case.Name << " " << R.Name;

  // Validation beats forced beats budget; repeats and unknown names are
  // harmless.
  FrontEnd Degraded = buildFrontEnd(Cases[3].Img, 4, Cases[3].Opts);
  EXPECT_EQ(routineNamed(Degraded.Prog, "garbled").Degrade,
            DegradeReason::Validation);
  EXPECT_EQ(routineNamed(Degraded.Prog, "helper").Degrade,
            DegradeReason::Forced);
  EXPECT_EQ(routineNamed(Degraded.Prog, "main").Degrade,
            DegradeReason::Budget);
  EXPECT_EQ(routineNamed(Degraded.Prog, "leaf").Degrade, DegradeReason::None);
}

//===----------------------------------------------------------------------===//
// The flat layout: spans, computed node directory, derived CSR ends
//===----------------------------------------------------------------------===//

namespace {

/// A program with every shape the node-order contract has to cover: a
/// named and an unnamed secondary entrance, a routine with two exits, a
/// routine with no exit, direct and indirect calls, a multiway branch,
/// a halt, an address-taken routine, and (with \p Garble) a routine the
/// validator quarantines.
Image layoutEdgeCase(bool Garble) {
  ProgramBuilder B;
  B.beginRoutine("main");
  ProgramBuilder::LabelId Unnamed = B.makeLabel();
  ProgramBuilder::LabelId Case0 = B.makeLabel(), Case1 = B.makeLabel();
  B.emitCall("multi");
  B.emitCallTo(Unnamed);
  B.emitLoadRoutineAddress(reg::T0, "leaf");
  B.emit(inst::jsrR(reg::T0));
  B.emitTableJump(reg::A0, {Case0, Case1});
  B.bind(Case0);
  B.emitCall("spin");
  B.bind(Case1);
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("multi");
  ProgramBuilder::LabelId Second = B.makeLabel();
  B.emitCondBr(Opcode::Beq, reg::A0, Second);
  B.emit(inst::rri(Opcode::AddI, reg::V0, reg::A0, 1));
  B.addSecondaryEntry("multi.alt");
  B.emit(inst::ret());
  B.bind(Second);
  B.emit(inst::nop());
  B.bind(Unnamed);
  B.emit(inst::rri(Opcode::AddI, reg::V0, reg::V0, 2));
  B.emit(inst::ret());
  B.beginRoutine("spin"); // No exit: loops until the program is killed.
  ProgramBuilder::LabelId Loop = B.makeLabel();
  B.bind(Loop);
  B.emitCall("leaf");
  B.emitBr(Loop);
  B.beginRoutine("leaf", /*AddressTaken=*/true);
  B.emit(inst::ret());
  B.beginRoutine("garbled");
  B.emitCall("leaf");
  uint64_t GarbleAt = B.currentAddress();
  B.emit(inst::ret());
  B.setEntry("main");
  Image Img = B.build();
  if (Garble)
    Img.Code[GarbleAt] = encodeInstruction(inst::jmpTab(reg::T8, 99));
  return Img;
}

/// Checks every directory accessor and derived count of \p Psg, and the
/// Program's spans and call-graph lists, against a scan of node kinds,
/// blocks and edges.
void expectLayoutMatchesScan(const Program &Prog,
                             const ProgramSummaryGraph &Psg,
                             const std::string &Where) {
  // The six span families tile their arrays in routine order.
  size_t Blocks = 0, Arcs = 0, Entries = 0, Exits = 0, Calls = 0;
  for (const Routine &R : Prog.Routines) {
    ASSERT_EQ(R.Blocks.data(), Prog.AllBlocks.data() + Blocks) << Where;
    ASSERT_EQ(R.Arcs.data(), Prog.AllArcs.data() + Arcs) << Where;
    ASSERT_EQ(R.EntryAddresses.data(),
              Prog.AllEntryAddresses.data() + Entries)
        << Where;
    ASSERT_EQ(R.EntryBlocks.data(), Prog.AllEntryBlocks.data() + Entries)
        << Where;
    ASSERT_EQ(R.ExitBlocks.data(), Prog.AllExitBlocks.data() + Exits) << Where;
    ASSERT_EQ(R.CallBlocks.data(), Prog.AllCallBlocks.data() + Calls) << Where;
    ASSERT_EQ(R.EntryBlocks.size(), R.EntryAddresses.size()) << Where;
    Blocks += R.Blocks.size();
    Arcs += R.Arcs.size();
    Entries += R.EntryAddresses.size();
    Exits += R.ExitBlocks.size();
    Calls += R.CallBlocks.size();
  }
  EXPECT_EQ(Blocks, Prog.AllBlocks.size()) << Where;
  EXPECT_EQ(Arcs, Prog.AllArcs.size()) << Where;
  EXPECT_EQ(Entries, Prog.AllEntryAddresses.size()) << Where;
  EXPECT_EQ(Exits, Prog.AllExitBlocks.size()) << Where;
  EXPECT_EQ(Calls, Prog.AllCallBlocks.size()) << Where;
  EXPECT_EQ(Prog.numBlocks(), Blocks) << Where;
  EXPECT_EQ(Prog.numArcs(), Arcs / 2) << Where;

  // Call-graph lists from the blocks: sorted, deduplicated callees and
  // their inverse.
  size_t Count = Prog.Routines.size();
  ASSERT_EQ(Prog.Calls.Callees.size(), Count) << Where;
  ASSERT_EQ(Prog.Calls.Callers.size(), Count) << Where;
  std::vector<std::vector<uint32_t>> Callers(Count);
  for (uint32_t R = 0; R < Count; ++R) {
    std::vector<uint32_t> Callees;
    for (const BasicBlock &Block : Prog.Routines[R].Blocks)
      if (Block.Term == TerminatorKind::Call)
        Callees.push_back(uint32_t(Block.CalleeRoutine));
    std::sort(Callees.begin(), Callees.end());
    Callees.erase(std::unique(Callees.begin(), Callees.end()), Callees.end());
    for (uint32_t Callee : Callees)
      Callers[Callee].push_back(R);
    EXPECT_TRUE(std::ranges::equal(Prog.Calls.Callees[R], Callees))
        << Where << " routine " << R;
  }
  for (uint32_t R = 0; R < Count; ++R)
    EXPECT_TRUE(std::ranges::equal(Prog.Calls.Callers[R], Callers[R]))
        << Where << " routine " << R;

  // The node directory: scan each routine's id range by kind.  Entries,
  // exits and call/return pairs come first, in that order; branch and
  // sink nodes follow in block order.
  ASSERT_EQ(Psg.RoutineNodeBegin.size(), Count + 1) << Where;
  uint64_t BranchNodes = 0;
  std::vector<uint32_t> TakenExits, IndirectReturns;
  for (uint32_t R = 0; R < Count; ++R) {
    const Routine &Rt = Prog.Routines[R];
    // The section of each kind: entries, exits, call/return pairs, the
    // rest.
    static constexpr unsigned Section[7] = {0, 1, 2, 2, 3, 3, 3};
    std::vector<uint32_t> ByKind[7];
    unsigned LastSection = 0;
    bool SawSink = false;
    uint32_t LastSinkBlock = 0;
    for (uint32_t N = Psg.RoutineNodeBegin[R]; N < Psg.RoutineNodeBegin[R + 1];
         ++N) {
      const PsgNode &Node = Psg.Nodes[N];
      ASSERT_EQ(Node.RoutineIndex, R) << Where << " node " << N;
      unsigned K = unsigned(Node.Kind);
      ASSERT_GE(Section[K], LastSection) << Where << " node " << N;
      LastSection = Section[K];
      if (K >= unsigned(PsgNodeKind::Branch)) {
        ASSERT_TRUE(!SawSink || Node.BlockIndex > LastSinkBlock)
            << Where << " node " << N;
        SawSink = true;
        LastSinkBlock = Node.BlockIndex;
        BranchNodes += Node.Kind == PsgNodeKind::Branch;
      }
      ByKind[K].push_back(N);
    }
    const auto &EntryIds = ByKind[unsigned(PsgNodeKind::Entry)];
    const auto &ExitIds = ByKind[unsigned(PsgNodeKind::Exit)];
    const auto &CallIds = ByKind[unsigned(PsgNodeKind::Call)];
    const auto &ReturnIds = ByKind[unsigned(PsgNodeKind::Return)];
    EXPECT_TRUE(std::ranges::equal(Psg.entryNodes(Prog, R), EntryIds))
        << Where << " routine " << R;
    EXPECT_TRUE(std::ranges::equal(Psg.exitNodes(Prog, R), ExitIds))
        << Where << " routine " << R;
    ASSERT_EQ(EntryIds.size(), Rt.numEntries()) << Where;
    ASSERT_EQ(ExitIds.size(), Rt.ExitBlocks.size()) << Where;
    ASSERT_EQ(CallIds.size(), Rt.CallBlocks.size()) << Where;
    ASSERT_EQ(ReturnIds.size(), Rt.CallBlocks.size()) << Where;
    for (uint32_t I = 0; I < EntryIds.size(); ++I) {
      EXPECT_EQ(Psg.entryNode(R, I), EntryIds[I]) << Where;
      EXPECT_EQ(Psg.anchorIndex(Prog, EntryIds[I]), I) << Where;
      EXPECT_EQ(Psg.Nodes[EntryIds[I]].BlockIndex, Rt.EntryBlocks[I]) << Where;
    }
    for (uint32_t I = 0; I < ExitIds.size(); ++I) {
      EXPECT_EQ(Psg.exitNodes(Prog, R)[I], ExitIds[I]) << Where;
      EXPECT_EQ(Psg.anchorIndex(Prog, ExitIds[I]), I) << Where;
      EXPECT_EQ(Psg.Nodes[ExitIds[I]].BlockIndex, Rt.ExitBlocks[I]) << Where;
    }
    for (uint32_t I = 0; I < CallIds.size(); ++I) {
      EXPECT_EQ(Psg.callNode(Prog, R, I), CallIds[I]) << Where;
      EXPECT_EQ(Psg.returnNode(Prog, R, I), ReturnIds[I]) << Where;
      EXPECT_EQ(ReturnIds[I], CallIds[I] + 1) << Where;
      EXPECT_EQ(Psg.Nodes[CallIds[I]].BlockIndex, Rt.CallBlocks[I]) << Where;
      EXPECT_EQ(Psg.Nodes[ReturnIds[I]].BlockIndex, Rt.CallBlocks[I])
          << Where;
      if (Rt.Blocks[Rt.CallBlocks[I]].Term == TerminatorKind::IndirectCall)
        IndirectReturns.push_back(ReturnIds[I]);
    }
    if (Rt.AddressTaken)
      TakenExits.insert(TakenExits.end(), ExitIds.begin(), ExitIds.end());
  }
  EXPECT_EQ(Psg.RoutineNodeBegin[Count], Psg.Nodes.size()) << Where;
  EXPECT_EQ(Psg.numBranchNodes(), BranchNodes) << Where;
  EXPECT_EQ(Psg.AddressTakenExitNodes, TakenExits) << Where;
  EXPECT_EQ(Psg.IndirectReturnNodes, IndirectReturns) << Where;

  // Edge ranges: every node's FirstOut and FirstIn is its CSR position,
  // and the next node's ends its ranges.
  size_t NumNodes = Psg.Nodes.size();
  std::vector<uint32_t> Out(NumNodes, 0), In(NumNodes, 0);
  uint64_t CallReturnEdges = 0;
  for (const PsgEdge &E : Psg.Edges) {
    ++Out[E.Src];
    ++In[E.Dst];
    bool FromCall = Psg.Nodes[E.Src].Kind == PsgNodeKind::Call;
    EXPECT_EQ(Psg.isCallReturn(E), FromCall) << Where;
    if (FromCall) {
      ++CallReturnEdges;
      EXPECT_EQ(E.Dst, E.Src + 1) << Where;
      EXPECT_EQ(Psg.Nodes[E.Dst].Kind, PsgNodeKind::Return) << Where;
    }
  }
  EXPECT_EQ(Psg.numFlowSummaryEdges(), Psg.Edges.size() - CallReturnEdges)
      << Where;
  uint32_t FirstOut = 0, FirstIn = 0;
  for (uint32_t N = 0; N < NumNodes; ++N) {
    const PsgNode &Node = Psg.Nodes[N];
    ASSERT_EQ(Node.FirstOut, FirstOut) << Where << " node " << N;
    ASSERT_EQ(Node.FirstIn, FirstIn) << Where << " node " << N;
    ASSERT_EQ(Psg.outEdges(N).size(), Out[N]) << Where << " node " << N;
    ASSERT_EQ(Psg.inEdgeIds(N).size(), In[N]) << Where << " node " << N;
    if (Node.Kind == PsgNodeKind::Call) {
      EXPECT_EQ(Out[N], 1u) << Where << " node " << N;
    }
    for (const PsgEdge &E : Psg.outEdges(N))
      EXPECT_EQ(E.Src, N) << Where;
    for (uint32_t EdgeId : Psg.inEdgeIds(N))
      EXPECT_EQ(Psg.Edges[EdgeId].Dst, N) << Where;
    FirstOut += Out[N];
    FirstIn += In[N];
  }
  EXPECT_EQ(FirstOut, Psg.Edges.size()) << Where;
  EXPECT_EQ(FirstIn, Psg.InEdgeIds.size()) << Where;
}

/// The bytes of a container as the analysis tracker charges them: size
/// times element size, a bit per std::vector<bool> element, and for a
/// list of lists the outer vector plus every inner one.
template <class T> uint64_t bytesOf(const std::vector<T> &V) {
  if constexpr (std::is_same_v<T, bool>)
    return (V.size() + 7) / 8;
  else
    return V.size() * sizeof(T);
}

template <class T>
uint64_t bytesOf(const std::vector<std::vector<T>> &Lists) {
  uint64_t Bytes = Lists.size() * sizeof(std::vector<T>);
  for (const std::vector<T> &List : Lists)
    Bytes += bytesOf(List);
  return Bytes;
}

uint64_t cfgBytes(const Program &Prog) {
  uint64_t Bytes = bytesOf(Prog.Routines) +
                   bytesOf(Prog.AllBlocks) + bytesOf(Prog.AllArcs) +
                   bytesOf(Prog.AllEntryAddresses) +
                   bytesOf(Prog.AllEntryBlocks) + bytesOf(Prog.AllExitBlocks) +
                   bytesOf(Prog.AllCallBlocks);
  for (const JumpTableTargets &Table : Prog.JumpTables)
    Bytes += bytesOf(Table.Targets);
  const CallGraph &G = Prog.Calls;
  Bytes += bytesOf(G.Callees.Begin) + bytesOf(G.Callees.Ids) +
           bytesOf(G.Callers.Begin) + bytesOf(G.Callers.Ids) +
           bytesOf(G.SccId) + bytesOf(G.HasIndirectCalls) +
           bytesOf(G.InCycle) + bytesOf(G.Reachable);
  for (const SccSchedule *S : {&Prog.CalleeFirst, &Prog.CallerFirst})
    Bytes += bytesOf(S->GroupOfRoutine) + bytesOf(S->Members) +
             bytesOf(S->Levels) + bytesOf(S->GroupSucc);
  return Bytes;
}

uint64_t psgBytes(const ProgramSummaryGraph &Psg) {
  return bytesOf(Psg.Nodes) + bytesOf(Psg.Edges) + bytesOf(Psg.InEdgeIds) +
         bytesOf(Psg.RoutineNodeBegin) + bytesOf(Psg.CrEdgeOfEntry.Begin) +
         bytesOf(Psg.CrEdgeOfEntry.Ids) + bytesOf(Psg.ReturnsOfExit.Begin) +
         bytesOf(Psg.ReturnsOfExit.Ids) + bytesOf(Psg.ExitsOfReturn.Begin) +
         bytesOf(Psg.ExitsOfReturn.Ids) + bytesOf(Psg.IndirectReturnNodes) +
         bytesOf(Psg.AddressTakenExitNodes);
}

} // namespace

TEST(ParallelLayout, AccessorsAndDerivedCountsMatchAScanOfTheGraph) {
  std::vector<std::pair<std::string, Image>> Inputs =
      testcorpus::differentialCorpus();
  Inputs.emplace_back("layout", layoutEdgeCase(false));
  Inputs.emplace_back("layout-garbled", layoutEdgeCase(true));
  Inputs.emplace_back("front-end-edge", frontEndEdgeCase(true, true));
  CfgBuildOptions Forced;
  Forced.ForceQuarantine = {"multi", "helper"};
  for (const auto &[Name, Img] : Inputs)
    for (bool BranchNodes : {true, false})
      for (unsigned Jobs : {1u, 4u})
        for (const CfgBuildOptions &Opts : {CfgBuildOptions(), Forced}) {
          std::string Where = Name + (BranchNodes ? " branch" : " nobranch") +
                              " jobs=" + std::to_string(Jobs) +
                              (Opts.ForceQuarantine.empty() ? "" : " forced");
          ThreadPool Pool(Jobs);
          Program Prog = buildProgram(Img, CallingConv(), nullptr, Opts, &Pool);
          computeDefUbd(Prog, &Pool);
          PsgBuildOptions PsgOpts;
          PsgOpts.UseBranchNodes = BranchNodes;
          ProgramSummaryGraph Psg = buildPsg(Prog, PsgOpts, nullptr, &Pool);
          expectLayoutMatchesScan(Prog, Psg, Where);
        }

  // The hand-built image has each shape the contract names.
  Image Layout = layoutEdgeCase(true);
  Program Prog = buildProgram(Layout, CallingConv());
  const Routine &Multi = routineNamed(Prog, "multi");
  EXPECT_EQ(Multi.numEntries(), 3u);
  EXPECT_EQ(Multi.ExitBlocks.size(), 2u);
  EXPECT_TRUE(routineNamed(Prog, "spin").ExitBlocks.empty());
  EXPECT_TRUE(routineNamed(Prog, "garbled").Quarantined);
  EXPECT_TRUE(routineNamed(Prog, "leaf").AddressTaken);
  const Routine &Main = routineNamed(Prog, "main");
  EXPECT_TRUE(std::ranges::any_of(Main.Blocks, [](const BasicBlock &B) {
    return B.Term == TerminatorKind::TableJump;
  }));
  EXPECT_TRUE(std::ranges::any_of(Main.Blocks, [](const BasicBlock &B) {
    return B.Term == TerminatorKind::IndirectCall;
  }));
}

namespace {

/// A Program borrows its image's words, so the analysis entry points
/// refuse a temporary image at compile time.  (A requires-expression
/// only evaluates to false when it depends on a template parameter.)
template <class ImageT>
constexpr bool BuildsFromTemporary =
    requires { buildProgram(ImageT{}, CallingConv()); };
template <class ImageT>
constexpr bool AnalyzesTemporary = requires { analyzeImage(ImageT{}); };
template <class ImageT>
constexpr bool GovernsTemporary = requires {
  analyzeImageGoverned(ImageT{}, CallingConv(), AnalysisOptions(),
                       BudgetOptions());
};
template <class ImageT>
constexpr bool ReanalyzesTemporary = requires(AnalysisResult &A,
                                              ThreadPool &Pool) {
  reanalyzeIncremental(ImageT{}, 0, std::span<const uint64_t>(),
                       AnalysisOptions(), A, Pool);
};
template <class ImageT>
constexpr bool AcceptsLvalue = requires(const ImageT &Img, ImageT &Patched,
                                        AnalysisResult &A, ThreadPool &Pool) {
  buildProgram(Img, CallingConv());
  analyzeImage(Img);
  analyzeImageGoverned(Img, CallingConv(), AnalysisOptions(), BudgetOptions());
  reanalyzeIncremental(Patched, 0, std::span<const uint64_t>(),
                       AnalysisOptions(), A, Pool);
};
static_assert(!BuildsFromTemporary<Image>);
static_assert(!AnalyzesTemporary<Image>);
static_assert(!GovernsTemporary<Image>);
static_assert(!ReanalyzesTemporary<Image>);
static_assert(AcceptsLvalue<Image>);

/// The images the layout checks cover: the corpus plus hand-built images
/// with undecodable words, an unowned prefix and quarantined routines.
std::vector<std::pair<std::string, Image>> layoutInputs() {
  std::vector<std::pair<std::string, Image>> Inputs =
      testcorpus::differentialCorpus();
  Inputs.emplace_back("layout-garbled", layoutEdgeCase(true));
  Inputs.emplace_back("front-end-edge", frontEndEdgeCase(true, true));
  return Inputs;
}

/// How often the arc check saw each shape it must cover.
struct ArcShapes {
  uint64_t LastBlockArcs = 0, EmptySuccs = 0, EmptyPreds = 0, TableJumps = 0;
};

/// Checks every block's derived successor and predecessor lists against
/// lists recomputed from its terminator and a scan of all successors.
void expectArcsMatchScan(const Program &Prog, const std::string &Where,
                         ArcShapes &Seen) {
  for (const Routine &R : Prog.Routines) {
    uint32_t NumBlocks = uint32_t(R.Blocks.size());
    auto BlockAt = [&](uint64_t Address) {
      for (uint32_t B = 0; B < NumBlocks; ++B)
        if (Address >= R.Blocks[B].Begin && Address < R.Blocks[B].End)
          return B;
      ADD_FAILURE() << Where << ": no block of " << R.Name << " holds @"
                    << Address;
      return uint32_t(0);
    };
    std::vector<uint32_t> AllSuccs, AllPreds;
    std::vector<std::vector<uint32_t>> Preds(NumBlocks);
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      const BasicBlock &Block = R.Blocks[B];
      std::vector<uint32_t> Want;
      auto Add = [&](uint32_t Succ) {
        if (std::find(Want.begin(), Want.end(), Succ) == Want.end())
          Want.push_back(Succ);
      };
      Instruction Term = Prog.inst(Block.End - 1);
      uint64_t Target = uint64_t(int64_t(Block.End) + Term.Imm);
      switch (Block.Term) {
      case TerminatorKind::Branch:
        Add(BlockAt(Target));
        break;
      case TerminatorKind::CondBranch:
        Add(BlockAt(Target));
        if (B + 1 < NumBlocks)
          Add(B + 1);
        break;
      case TerminatorKind::TableJump:
        ++Seen.TableJumps;
        for (uint64_t To :
             Prog.JumpTables[uint32_t(Block.JumpTableIndex)].Targets)
          Add(BlockAt(To));
        break;
      case TerminatorKind::FallThrough:
      case TerminatorKind::Call:
      case TerminatorKind::IndirectCall:
        if (B + 1 < NumBlocks)
          Add(B + 1);
        break;
      default: // Return, Halt, UnresolvedJump: no intra-routine successor.
        break;
      }
      std::span<const uint32_t> Got = R.succs(B);
      EXPECT_EQ(std::vector<uint32_t>(Got.begin(), Got.end()), Want)
          << Where << " " << R.Name << " block " << B;
      AllSuccs.insert(AllSuccs.end(), Got.begin(), Got.end());
      for (uint32_t Succ : Want)
        Preds[Succ].push_back(B);
      Seen.EmptySuccs += Got.empty();
    }
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      std::span<const uint32_t> Got = R.preds(B);
      EXPECT_EQ(std::vector<uint32_t>(Got.begin(), Got.end()), Preds[B])
          << Where << " " << R.Name << " block " << B;
      AllPreds.insert(AllPreds.end(), Got.begin(), Got.end());
      Seen.EmptyPreds += Got.empty();
    }
    Seen.LastBlockArcs += NumBlocks > 1 &&
                          !(R.succs(NumBlocks - 1).empty() &&
                            R.preds(NumBlocks - 1).empty());
    // The lists tile Arcs: every successor list, then every predecessor
    // list, in block order.
    AllSuccs.insert(AllSuccs.end(), AllPreds.begin(), AllPreds.end());
    EXPECT_TRUE(std::ranges::equal(AllSuccs, R.Arcs)) << Where << " " << R.Name;
  }
}

} // namespace

TEST(ProgramLayout, BlocksAre40BytesAndInstDecodesTheBorrowedWords) {
  static_assert(sizeof(BasicBlock) == 40);
  Instruction Placeholder;
  Placeholder.Op = Opcode::Halt;
  uint64_t Undecodable = 0;
  for (const auto &[Name, Img] : layoutInputs()) {
    Program Prog = buildProgram(Img, CallingConv());
    ASSERT_EQ(Prog.Code.data(), Img.Code.data()) << Name;
    ASSERT_EQ(Prog.numInsts(), Img.Code.size()) << Name;
    for (uint64_t Address = 0; Address < Img.Code.size(); ++Address) {
      std::optional<Instruction> Decoded =
          decodeInstruction(Img.Code[Address]);
      Undecodable += !Decoded;
      EXPECT_TRUE(Prog.inst(Address) == Decoded.value_or(Placeholder))
          << Name << " @" << Address;
    }
  }
  EXPECT_GT(Undecodable, 0u) << "no input has an undecodable word";
}

TEST(ProgramLayout, PsgNodesAre36BytesEdges20AndSummaries12) {
  // A RegSet is one word that the ISA's registers fill exactly, so the
  // records that embed register sets carry no always-zero half.
  static_assert(sizeof(RegSet) == 4);
  static_assert(sizeof(FlowSets) == 12);
  static_assert(sizeof(CallSummary) == 12);
  static_assert(sizeof(PsgNode) == 36);
  static_assert(sizeof(PsgEdge) == 20);
  EXPECT_EQ(RegSet::allBelow(NumIntRegs).mask(), ~RegSet::Word(0));
  EXPECT_EQ(RegSet::allBelow(NumIntRegs).count(), NumIntRegs);
}

TEST(ProgramLayout, DerivedArcRangesMatchAScan) {
  ArcShapes Seen;
  for (const auto &[Name, Img] : layoutInputs())
    for (unsigned Jobs : {1u, 4u}) {
      ThreadPool Pool(Jobs);
      Program Prog = buildProgram(Img, CallingConv(), nullptr, {}, &Pool);
      expectArcsMatchScan(Prog, Name + " jobs=" + std::to_string(Jobs),
                          Seen);
    }
  EXPECT_GT(Seen.LastBlockArcs, 0u);
  EXPECT_GT(Seen.EmptySuccs, 0u);
  EXPECT_GT(Seen.EmptyPreds, 0u);
  EXPECT_GT(Seen.TableJumps, 0u);
}

TEST(MemoryAccounting, PeakBytesAreExactlyTheChargedContainers) {
  for (const auto &[Name, Img] : testcorpus::differentialCorpus())
    for (unsigned Jobs : {1u, 4u}) {
      AnalysisOptions Opts;
      Opts.Jobs = Jobs;
      AnalysisResult A = analyzeImage(Img, CallingConv(), Opts);
      uint64_t Cfg = cfgBytes(A.Prog);
      uint64_t Init = bytesOf(A.SavedPerRoutine);
      uint64_t Psg = psgBytes(A.Psg);
      std::string Where = Name + " jobs=" + std::to_string(Jobs);
      EXPECT_EQ(A.CfgBytes, Cfg) << Where;
      EXPECT_EQ(A.InitBytes, Init) << Where;
      EXPECT_EQ(A.PsgBytes, Psg) << Where;
      EXPECT_EQ(A.Memory.peakBytes(), Cfg + Init + Psg) << Where;
    }
}

//===----------------------------------------------------------------------===//
// The SCC-schedule driver
//===----------------------------------------------------------------------===//

TEST(ParallelSchedule, SolvesEachNonEmptyGroupOnceAndJoinsLevelsInOrder) {
  DriverFixture F;
  ASSERT_EQ(F.Sched.Levels.size(), 6u);
  ASSERT_EQ(F.Sched.Levels[1].size(), 2u);
  ASSERT_EQ(F.Sched.Members[F.groupOf(5)], (std::vector<uint32_t>{4, 5, 6}));
  ASSERT_EQ(F.Sched.Levels[4], std::vector<uint32_t>{F.HubGroup});
  for (unsigned Jobs : {1u, 4u}) {
    ThreadPool Pool(Jobs);
    std::vector<uint32_t> LevelOf(F.Sched.NumGroups);
    for (uint32_t L = 0; L < F.Sched.Levels.size(); ++L)
      for (uint32_t Group : F.Sched.Levels[L])
        LevelOf[Group] = L;

    // Each group is written by its own task only; Joined only by the
    // serial hook, which the level joins order against the tasks.
    std::vector<int> Solves(F.Sched.NumGroups, 0);
    std::vector<uint32_t> SolvedAfterJoins(F.Sched.NumGroups, 0);
    std::vector<uint32_t> Joined;
    SccDriver Driver(F.Prog, F.Sched, &Pool, nullptr, nullptr);
    Driver.run(
        "test.phase",
        [&](GroupTask &T) {
          ++Solves[T.Group];
          SolvedAfterJoins[T.Group] = uint32_t(Joined.size());
          EXPECT_EQ(&T.Members, &F.Sched.Members[T.Group]);
          EXPECT_LT(T.Lane, Jobs);
          for (size_t I = 0; I < T.Members.size(); ++I)
            T.step();
        },
        SccDriver::NoHook(),
        [&](const std::vector<uint32_t> &Level) {
          for (uint32_t Group : Level)
            EXPECT_EQ(Solves[Group], F.Sched.Members[Group].empty() ? 0 : 1)
                << "group " << Group << " before its level's join";
          Joined.push_back(LevelOf[Level.front()]);
        });

    const std::string Where = "jobs=" + std::to_string(Jobs);
    for (uint32_t Group = 0; Group < F.Sched.NumGroups; ++Group) {
      EXPECT_EQ(Solves[Group], Group == F.HubGroup ? 0 : 1) << Where;
      if (Group != F.HubGroup) {
        EXPECT_EQ(SolvedAfterJoins[Group], LevelOf[Group]) << Where;
      }
    }
    EXPECT_EQ(Joined, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5})) << Where;
    EXPECT_EQ(Driver.steps(), 8u) << Where; // One step per member.
    // The memberless group still costs its (empty) task.
    EXPECT_EQ(Pool.tasksRun(), uint64_t(F.Sched.NumGroups)) << Where;
  }
}

TEST(ParallelSchedule, CleanGroupsRestoreAndDirtyGroupsFlagMembersFirst) {
  DriverFixture F;
  for (unsigned Jobs : {1u, 4u}) {
    ThreadPool Pool(Jobs);
    // r1 and r5 start dirty; solving r1 flags its dependent r3.
    std::vector<uint8_t> Clean(8, 1);
    Clean[1] = Clean[5] = 0;
    DirtyFrontier Frontier(Clean);
    std::vector<int> Solves(F.Sched.NumGroups, 0);
    std::vector<int> Restores(F.Sched.NumGroups, 0);

    telemetry::Session S("driver_test");
    {
      telemetry::SessionScope Scope(S);
      SccDriver Driver(F.Prog, F.Sched, &Pool, nullptr, &Frontier);
      Driver.run(
          "test.phase",
          [&](GroupTask &T) {
            ++Solves[T.Group];
            for (uint32_t R : T.Members)
              EXPECT_TRUE(Frontier.dirty(R)) << "r" << R << " unflagged";
            if (T.Group == F.groupOf(1))
              Frontier.flag(3);
          },
          [&](const std::vector<uint32_t> &Members) {
            ++Restores[F.groupOf(Members.front())];
          });
      Driver.emit("test.phase");
    }

    const std::string Where = "jobs=" + std::to_string(Jobs);
    for (uint32_t R : {1u, 3u, 4u})
      EXPECT_EQ(Solves[F.groupOf(R)], 1) << Where << " r" << R;
    for (uint32_t R : {0u, 2u, 7u})
      EXPECT_EQ(Restores[F.groupOf(R)], 1) << Where << " r" << R;
    EXPECT_EQ(Solves[F.HubGroup] + Restores[F.HubGroup], 0) << Where;
    // The whole cycle re-solved, so all of it is dirty now.
    EXPECT_EQ(Frontier.count(), 5u) << Where;
    EXPECT_TRUE(Frontier.dirty(4) && Frontier.dirty(6)) << Where;
    EXPECT_EQ(S.counter("test.phase.groups_reused"), 3u) << Where;
  }
}

TEST(ParallelSchedule, BlownBudgetNamesTheLowestIndexBlownGroup) {
  DriverFixture F;
  BudgetOptions Opts;
  Opts.MaxIterations = 2;
  ResourceGovernor Gov(Opts);
  Gov.arm();
  // Groups holding one of \p Blowing take three steps, past the cap.
  auto RunBlowing = [&](ThreadPool &Pool, std::vector<uint32_t> Blowing) {
    SccDriver Driver(F.Prog, F.Sched, &Pool, &Gov, nullptr);
    try {
      Driver.run("test.phase", [&](GroupTask &T) {
        bool Blows = false;
        for (uint32_t R : Blowing)
          Blows |= F.groupOf(R) == T.Group;
        for (int I = 0; I < (Blows ? 3 : 2); ++I)
          T.step();
      });
    } catch (const BudgetBlownError &E) {
      EXPECT_EQ(E.verdict(), BudgetVerdict::IterationCapHit);
      EXPECT_EQ(E.phase(), "test.phase");
      return E.routines();
    }
    return std::vector<std::string>{"no error"};
  };
  for (unsigned Jobs : {1u, 4u}) {
    ThreadPool Pool(Jobs);
    const std::string Where = "jobs=" + std::to_string(Jobs);
    // Both level-1 groups and the cycle blow: the level-1 group with the
    // lower index wins.
    EXPECT_EQ(RunBlowing(Pool, {2, 1, 5}), std::vector<std::string>{"r1"})
        << Where;
    EXPECT_EQ(RunBlowing(Pool, {5}),
              (std::vector<std::string>{"r4", "r5", "r6"}))
        << Where;
  }
}

//===----------------------------------------------------------------------===//
// Differential: every profile, every lane count, against serial
//===----------------------------------------------------------------------===//

TEST(ParallelDifferential, AllProfilesMatchSerialAtEveryJobCount) {
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  ASSERT_EQ(Corpus.size(), 20u);

  for (const auto &[Name, Img] : Corpus) {
    RunCapture Serial = analyzeAt(Img, 1);
    for (unsigned Jobs : {2u, 4u, 7u}) {
      const std::string Where =
          Name + " jobs=" + std::to_string(Jobs);
      RunCapture Parallel = analyzeAt(Img, Jobs);

      expectSummariesEqual(Serial.Result.Summaries,
                           Parallel.Result.Summaries, Where);

      // Per-worker SolverStats aggregate to the serial counts: the
      // SCC-scheduled worklists pop the same nodes in the same order
      // regardless of which lane runs each component.
      EXPECT_EQ(Serial.Result.Phase1Stats.NodeEvaluations,
                Parallel.Result.Phase1Stats.NodeEvaluations)
          << Where;
      EXPECT_EQ(Serial.Result.Phase1Stats.EdgeVisits,
                Parallel.Result.Phase1Stats.EdgeVisits)
          << Where;
      EXPECT_EQ(Serial.Result.Phase2Stats.NodeEvaluations,
                Parallel.Result.Phase2Stats.NodeEvaluations)
          << Where;
      EXPECT_EQ(Serial.Result.Phase2Stats.EdgeVisits,
                Parallel.Result.Phase2Stats.EdgeVisits)
          << Where;

      expectRegistriesEqual(Serial.Counters, Parallel.Counters,
                            Where + " counters");
      expectRegistriesEqual(Serial.Gauges, Parallel.Gauges,
                            Where + " gauges");

      // The profiling layer obeys the same contract: count-valued
      // histograms (pops, iters, set ops, changed bits per group) and
      // every non-time hot-spot field are bit-identical at any lane
      // count; only measured time and steal accounting may move.
      EXPECT_TRUE(Serial.Histograms == Parallel.Histograms)
          << Where << " histograms";
      expectHotSpotsEqual(Serial.HotSpots, Parallel.HotSpots, Where);
    }
  }
}

namespace {

void expectSameStats(const SolverStats &Expected, const SolverStats &Actual,
                     const std::string &Where) {
  EXPECT_EQ(Expected.NodeEvaluations, Actual.NodeEvaluations) << Where;
  EXPECT_EQ(Expected.EdgeVisits, Actual.EdgeVisits) << Where;
}

} // namespace

TEST(ParallelDifferential, ReSolvingASolvedGraphIsIdempotent) {
  // Every group resets what it solves, so running the phases again on a
  // converged graph (as bench_micro's BM_Phases does) repeats the first
  // solve: every node value, every label and the work it took.
  for (const auto &[Name, Img] : testcorpus::differentialCorpus())
    for (unsigned Jobs : {1u, 2u, 4u, 7u}) {
      const std::string Where = Name + " jobs=" + std::to_string(Jobs);
      AnalysisOptions Opts;
      Opts.Jobs = Jobs;
      AnalysisResult A = analyzeImage(Img, CallingConv(), Opts);
      std::vector<std::string> Solved = testtext::describePsg(A.Prog, A.Psg);

      ThreadPool Pool(Jobs);
      SolverStats Phase1 =
          runPhase1(A.Prog, A.Psg, A.SavedPerRoutine, &Pool);
      SolverStats Phase2 = runPhase2(A.Prog, A.Psg, &Pool);
      testtext::expectSameLines(Solved, testtext::describePsg(A.Prog, A.Psg),
                                Where);
      expectSameStats(A.Phase1Stats, Phase1, Where + " phase 1");
      expectSameStats(A.Phase2Stats, Phase2, Where + " phase 2");
    }
}

TEST(ParallelDifferential, AllDirtyReSolveEqualsFreshSolve) {
  // A fresh solve is the in-place re-solve with every group dirty: a
  // freshly built graph re-solved with every routine marked rebuilt and
  // dirty reaches the fresh solve's values, labels and work.
  for (const auto &[Name, Img] : testcorpus::differentialCorpus())
    for (unsigned Jobs : {1u, 2u, 4u, 7u}) {
      const std::string Where = Name + " jobs=" + std::to_string(Jobs);
      AnalysisOptions Opts;
      Opts.Jobs = Jobs;
      AnalysisResult A = analyzeImage(Img, CallingConv(), Opts);

      ThreadPool Pool(Jobs);
      ProgramSummaryGraph Psg = buildPsg(A.Prog, {}, nullptr, &Pool);
      const size_t NumRoutines = A.Prog.Routines.size();
      std::vector<uint8_t> Rebuilt(NumRoutines, 1);
      DirtyFrontier Dirty(std::vector<uint8_t>(NumRoutines, 0));
      SolveJournal Journal(A.Prog, Psg);
      PhaseReuse Reuse;
      Reuse.Rebuilt = &Rebuilt;
      Reuse.Dirty = &Dirty;
      Reuse.Journal = &Journal;
      SolverStats Phase1 = runPhase1(A.Prog, Psg, A.SavedPerRoutine, &Pool,
                                     nullptr, &Reuse);
      SolverStats Phase2 = runPhase2(A.Prog, Psg, &Pool, nullptr, &Reuse);
      testtext::expectSameLines(testtext::describePsg(A.Prog, A.Psg),
                                testtext::describePsg(A.Prog, Psg), Where);
      expectSameStats(A.Phase1Stats, Phase1, Where + " phase 1");
      expectSameStats(A.Phase2Stats, Phase2, Where + " phase 2");
    }
}

TEST(ParallelDifferential, HotSpotPopsPartitionThePhaseCounters) {
  // The attribution is a partition, not a sample: at jobs=1 the group
  // solves nest serially inside the phase span, so the group rows' pops
  // must sum exactly to the phase's worklist counter, the routine rows'
  // pops must sum to the group rows', and the attributed solve time can
  // never exceed the span's wall clock.
  BenchmarkProfile Profile = scaledProfile(*findProfile("go"), 0.2);
  Image Img = generateCfgProgram(Profile);

  telemetry::Session S("attribution");
  {
    telemetry::SessionScope Scope(S);
    AnalysisOptions Opts;
    Opts.Jobs = 1;
    analyzeImage(Img, CallingConv(), Opts);
  }

  auto EndsWith = [](const std::string &Path, const std::string &Tail) {
    return Path.size() >= Tail.size() &&
           Path.compare(Path.size() - Tail.size(), Tail.size(), Tail) == 0;
  };

  unsigned PhasesSeen = 0;
  for (const char *Phase : {"psg.phase1", "psg.phase2"}) {
    uint64_t GroupPops = 0, RoutinePops = 0, AttributedNs = 0;
    for (const telemetry::HotSpotRecord &R : S.hotspots()) {
      if (!EndsWith(R.Phase, Phase))
        continue;
      if (R.Routine.empty()) {
        GroupPops += R.Pops;
        AttributedNs += R.Ns;
      } else {
        RoutinePops += R.Pops;
      }
    }
    EXPECT_GT(GroupPops, 0u) << Phase;
    EXPECT_EQ(GroupPops,
              S.counter(std::string(Phase) + ".worklist_pops"))
        << Phase;
    EXPECT_EQ(RoutinePops, GroupPops) << Phase;

    double SpanSeconds = 0;
    for (const telemetry::PhaseRow &Row : S.phaseRows())
      if (EndsWith(Row.Path, Phase))
        SpanSeconds += Row.Seconds;
    EXPECT_GT(SpanSeconds, 0.0) << Phase;
    EXPECT_LE(double(AttributedNs) * 1e-9, SpanSeconds + 1e-9) << Phase;
    ++PhasesSeen;
  }
  EXPECT_EQ(PhasesSeen, 2u);

  // The per-group histograms carry the same totals as the rows.
  const telemetry::Histogram *Pops =
      S.histogram("psg.phase1.group_pops");
  ASSERT_NE(Pops, nullptr);
  EXPECT_EQ(Pops->sum(), S.counter("psg.phase1.worklist_pops"));
}

TEST(ParallelDifferential, SlotSweepCountersMatchTheirHistograms) {
  // Every sweep the slot solver counts belongs to a scheduled group, so
  // each phase's group_iterations counter equals the sum of its
  // per-group histogram — on every subject, including those whose phase
  // 2 schedule holds a memberless coupling-hub group.
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  ASSERT_EQ(Corpus.size(), 20u);
  for (const auto &[Name, Img] : Corpus) {
    AnalysisResult A = analyzeImage(Img, CallingConv(), AnalysisOptions());
    telemetry::Session S("slot_sweeps");
    {
      telemetry::SessionScope Scope(S);
      solveSlotFlow(A.Prog, 1u);
    }
    for (std::string Phase : {"slice.phase1", "slice.phase2"}) {
      const telemetry::Histogram *Iters =
          S.histogram(Phase + ".group_iters");
      EXPECT_EQ(S.counter(Phase + ".group_iterations"),
                Iters ? Iters->sum() : 0)
          << Name << " " << Phase;
    }
  }
}

TEST(ParallelDifferential, ProvenanceWitnessesByteIdenticalAcrossJobs) {
  // Witnesses are searched from the converged graph alone, so the
  // determinism contract covers them too: at any lane count the full
  // entry-liveness witness text is byte-identical to the serial one.
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  ASSERT_EQ(Corpus.size(), 20u);

  for (const auto &[Name, Img] : Corpus) {
    AnalysisOptions Opts;
    Opts.Jobs = 1;
    AnalysisResult Serial = analyzeImage(Img, CallingConv(), Opts);
    const std::string SerialText = renderEntryWitnesses(Serial);
    ASSERT_FALSE(SerialText.empty()) << Name;

    for (unsigned Jobs : {2u, 4u, 7u}) {
      const std::string Where = Name + " jobs=" + std::to_string(Jobs);
      Opts.Jobs = Jobs;
      AnalysisResult Parallel = analyzeImage(Img, CallingConv(), Opts);
      EXPECT_EQ(SerialText, renderEntryWitnesses(Parallel))
          << Where << ": rendered witnesses depend on --jobs";
    }
  }
}

TEST(ParallelDifferential, CfgTwoPhaseReferenceMatchesSerial) {
  // The CFG-level reference engine gets the same SCC scheduling; its
  // parallel path must reproduce its serial fixpoint exactly too.
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  ThreadPool Pool(4);
  unsigned Checked = 0;
  for (size_t I = 0; I < Corpus.size(); I += 4) {
    AnalysisResult Base = analyzeAt(Corpus[I].second, 1).Result;
    InterprocSummaries Serial =
        runCfgTwoPhase(Base.Prog, Base.SavedPerRoutine);
    InterprocSummaries Parallel =
        runCfgTwoPhase(Base.Prog, Base.SavedPerRoutine, &Pool);
    expectSummariesEqual(Serial, Parallel, Corpus[I].first + " two-phase");
    ++Checked;
  }
  EXPECT_GE(Checked, 5u);
}

//===----------------------------------------------------------------------===//
// Sim-backed oracle: spike-opt --jobs end to end
//===----------------------------------------------------------------------===//

TEST(ParallelOracle, OptCliJobsFourMatchesSerialAndBehaviour) {
  std::string Tool = std::string(SPIKE_TOOLS_DIR) + "/spike-opt";
  for (uint64_t Seed : {17u, 23u, 41u}) {
    ExecProfile P;
    P.Routines = 20;
    P.CallsPerRoutine = 2.5;
    P.DeadCodeProb = 0.25;
    P.ExtraSaveProb = 0.15;
    P.Seed = Seed;
    Image Original = generateExecProgram(P);

    std::string In = testpaths::scratchFile("in" + std::to_string(Seed) +
                                            ".spkx");
    std::string Out1 = testpaths::scratchFile(
        "out1_" + std::to_string(Seed) + ".spkx");
    std::string Out4 = testpaths::scratchFile(
        "out4_" + std::to_string(Seed) + ".spkx");
    ASSERT_TRUE(writeImageFile(Original, In));

    int Exit = 0;
    std::string Log =
        runCommand(Tool + " " + In + " -o " + Out1 + " --jobs=1", &Exit);
    ASSERT_EQ(Exit, 0) << Log;
    Log = runCommand(Tool + " " + In + " -o " + Out4 + " --jobs=4", &Exit);
    ASSERT_EQ(Exit, 0) << Log;

    EXPECT_EQ(readFileBytes(Out1), readFileBytes(Out4))
        << "seed " << Seed << ": optimized image depends on --jobs";

    std::optional<Image> Optimized = readImageFile(Out4);
    ASSERT_TRUE(Optimized.has_value());
    SimResult Before = simulate(Original);
    SimResult After = simulate(*Optimized);
    EXPECT_TRUE(Before.sameObservable(After))
        << "seed " << Seed << ": --jobs=4 optimization changed behaviour";
  }
}

//===----------------------------------------------------------------------===//
// Determinism stress: repeated parallel runs are byte-identical
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, RepeatedRunsAreByteIdentical) {
  ExecProfile P;
  P.Routines = 32;
  P.CallsPerRoutine = 2.5;
  P.DeadCodeProb = 0.25;
  P.ExtraSaveProb = 0.15;
  P.IndirectCallProb = 0.1;
  P.Seed = 4099;
  Image Original = generateExecProgram(P);

  std::vector<uint8_t> FirstBytes;
  std::string FirstReport;
  for (int Rep = 0; Rep < 25; ++Rep) {
    telemetry::Session S("parallel_determinism");
    Image Img = Original;
    {
      telemetry::SessionScope Scope(S);
      PipelineOptions Opts;
      Opts.Jobs = 7;
      optimizeImage(Img, CallingConv(), Opts);
    }
    std::vector<uint8_t> Bytes = writeImage(Img);
    std::string Report = canonicalReport(telemetry::runReportJson(S));
    if (Rep == 0) {
      FirstBytes = std::move(Bytes);
      FirstReport = std::move(Report);
      continue;
    }
    ASSERT_EQ(Bytes, FirstBytes) << "rep " << Rep;
    ASSERT_EQ(Report, FirstReport) << "rep " << Rep;
  }
}
