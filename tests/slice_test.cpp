//===- tests/slice_test.cpp - slot dataflow and slicing tests --------------===//
//
// Covers the memory-dataflow stack bottom to top: SlotSet lattice
// algebra, StackRef operand decoding, hand-built interprocedural
// dead-store scenarios, the dependence graph and its slices, and three
// global properties:
//
//   - soundness: over a 20-subject executable corpus, nop-ing every
//     store the analysis calls dead never changes observable behaviour
//     (simulator differential),
//   - determinism: slot facts and dependence edges are bit-identical at
//     --jobs 1/2/4/7, in-process and through the spike-slice CLI,
//   - agreement: SL012 and dead-store elimination see the same stores,
//     and the optimizer pass attributes every deletion.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Encoding.h"
#include "isa/Registers.h"
#include "isa/StackRef.h"
#include "lint/Linter.h"
#include "opt/Pipeline.h"
#include "psg/Analyzer.h"
#include "sim/Simulator.h"
#include "slice/DeadStore.h"
#include "slice/DepGraph.h"
#include "slice/Slicer.h"
#include "slice/SlotFlow.h"
#include "support/SlotSet.h"
#include "support/ThreadPool.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "TestPaths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace spike;

namespace {

bool contains(const std::vector<uint64_t> &Slice, uint64_t Address) {
  return std::binary_search(Slice.begin(), Slice.end(), Address);
}

/// Addresses of stores the analysis proves dead.
std::set<uint64_t> deadAddresses(const Program &Prog,
                                 const SlotFlowResult &Flow) {
  std::set<uint64_t> Dead;
  for (const DeadStoreCandidate &C : findDeadStackStores(Prog, Flow))
    if (C.Dead)
      Dead.insert(C.Address);
  return Dead;
}

} // namespace

//===----------------------------------------------------------------------===//
// SlotSet lattice
//===----------------------------------------------------------------------===//

TEST(SliceSlotSetTest, InsertEraseContain) {
  SlotSet S;
  EXPECT_TRUE(S.empty());
  S.insert(-3);
  S.insert(0);
  S.insert(5);
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.mayContain(-3));
  EXPECT_TRUE(S.mayContain(0));
  EXPECT_FALSE(S.mayContain(1));
  S.erase(0);
  EXPECT_FALSE(S.mayContain(0));
  EXPECT_EQ(S.str(), "{sp-3, sp+5}");
}

TEST(SliceSlotSetTest, OutOfWindowInsertIsStickyTop) {
  SlotSet S;
  S.insert(SlotSet::MaxOffset); // One past the window.
  EXPECT_TRUE(S.isTop());
  EXPECT_TRUE(S.mayContain(12345)); // Top may contain anything.
  S.erase(12345); // A kill can never be proven against top.
  EXPECT_TRUE(S.isTop());
  EXPECT_EQ(S.str(), "{unknown}");
}

TEST(SliceSlotSetTest, UnionAndDifferenceAreConservative) {
  SlotSet A, B;
  A.insert(-2);
  B.insert(3);
  SlotSet U = A | B;
  EXPECT_TRUE(U.mayContain(-2));
  EXPECT_TRUE(U.mayContain(3));
  EXPECT_TRUE((U | SlotSet::top()).isTop());
  // A top subtrahend removes nothing.
  SlotSet D = U - SlotSet::top();
  EXPECT_EQ(D, U);
  EXPECT_FALSE((U - B).mayContain(3));
}

TEST(SliceSlotSetTest, NonNegativeDropsOwnFrame) {
  SlotSet S;
  S.insert(-5);
  S.insert(0);
  S.insert(7);
  SlotSet Caller = S.nonNegative();
  EXPECT_FALSE(Caller.mayContain(-5));
  EXPECT_TRUE(Caller.mayContain(0));
  EXPECT_TRUE(Caller.mayContain(7));
  EXPECT_TRUE(SlotSet::top().nonNegative().isTop());
}

TEST(SliceSlotSetTest, ShiftTranslatesOrCollapses) {
  SlotSet S;
  S.insert(2);
  S.insert(6);
  SlotSet Down = S.shifted(-8);
  EXPECT_TRUE(Down.mayContain(-6));
  EXPECT_TRUE(Down.mayContain(-2));
  EXPECT_EQ(Down.size(), 2u);
  // Shifting past the window edge loses representability: top.
  EXPECT_TRUE(S.shifted(SlotSet::MaxOffset).isTop());
  EXPECT_TRUE(SlotSet::top().shifted(1).isTop());
}

TEST(SliceSlotSetTest, IterationIsAscending) {
  SlotSet S;
  S.insert(4);
  S.insert(-64);
  S.insert(0);
  std::vector<int64_t> Offsets;
  for (int64_t Offset : S)
    Offsets.push_back(Offset);
  EXPECT_EQ(Offsets, (std::vector<int64_t>{-64, 0, 4}));
}

//===----------------------------------------------------------------------===//
// StackRef decoding
//===----------------------------------------------------------------------===//

TEST(SliceStackRefTest, ClassifiesMemoryOperands) {
  unsigned Sp = reg::SP;
  StackRef Store = stackRefOf(inst::stq(reg::T0, 5, reg::SP), Sp);
  EXPECT_EQ(Store.Kind, StackRefKind::Slot);
  EXPECT_TRUE(Store.IsStore);
  EXPECT_EQ(Store.Offset, 5);
  EXPECT_EQ(Store.ValueReg, unsigned(reg::T0));

  StackRef Load = stackRefOf(inst::ldq(reg::V0, 2, reg::SP), Sp);
  EXPECT_EQ(Load.Kind, StackRefKind::Slot);
  EXPECT_FALSE(Load.IsStore);
  EXPECT_EQ(Load.ValueReg, unsigned(reg::V0));

  EXPECT_EQ(stackRefOf(inst::ldq(reg::V0, 0, reg::T0), Sp).Kind,
            StackRefKind::Indexed);
  EXPECT_EQ(stackRefOf(inst::mov(reg::V0, reg::T0), Sp).Kind,
            StackRefKind::None);
}

TEST(SliceStackRefTest, ClassifiesSpEffects) {
  unsigned Sp = reg::SP;
  int64_t Delta = 0;
  EXPECT_EQ(spEffectOf(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8), Sp,
                       Delta),
            SpEffect::Adjust);
  EXPECT_EQ(Delta, -8);
  EXPECT_EQ(spEffectOf(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8), Sp,
                       Delta),
            SpEffect::Adjust);
  EXPECT_EQ(Delta, 8);
  EXPECT_EQ(spEffectOf(inst::mov(reg::SP, reg::T0), Sp, Delta),
            SpEffect::Clobber);
  EXPECT_EQ(spEffectOf(inst::lda(reg::T0, 4), Sp, Delta), SpEffect::None);
}

TEST(SliceStackRefTest, DetectsSpEscapes) {
  unsigned Sp = reg::SP;
  EXPECT_TRUE(escapesSp(inst::mov(reg::T0, reg::SP), Sp));
  EXPECT_TRUE(escapesSp(inst::stq(reg::SP, 0, reg::T0), Sp));
  EXPECT_TRUE(
      escapesSp(inst::rrr(Opcode::Add, reg::T0, reg::SP, reg::T0 + 1), Sp));
  // Addressing through sp and constant adjustments do not escape.
  EXPECT_FALSE(escapesSp(inst::stq(reg::T0, 0, reg::SP), Sp));
  EXPECT_FALSE(
      escapesSp(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8), Sp));
}

//===----------------------------------------------------------------------===//
// Hand-built slot-flow scenarios
//===----------------------------------------------------------------------===//

namespace {

/// main stores into its own frame slot that nothing ever loads.
Image deadStoreProgram() {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 4)); // 0
  B.emit(inst::lda(reg::T0, 7));                        // 1
  B.emit(inst::stq(reg::T0, 0, reg::SP));               // 2: dead.
  B.emit(inst::lda(reg::V0, 3));                        // 3
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 4)); // 4
  B.emit(inst::halt(reg::V0));                          // 5
  return B.build();
}

/// main passes a value through its frame to f, which reads the caller
/// slot through the call boundary.
Image callerWindowProgram() {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 4)); // 0
  B.emit(inst::stq(reg::RA, 3, reg::SP));               // 1
  B.emit(inst::lda(reg::T0, 7));                        // 2
  B.emit(inst::stq(reg::T0, 0, reg::SP));               // 3: f reads it.
  B.emitCall("f");                                      // 4
  B.emit(inst::ldq(reg::RA, 3, reg::SP));               // 5
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 4)); // 6
  B.emit(inst::halt(reg::V0));                          // 7
  B.beginRoutine("f");
  B.emit(inst::ldq(reg::V0, 0, reg::SP)); // 8: caller's slot.
  B.emit(inst::ret());                    // 9
  return B.build();
}

} // namespace

TEST(SliceSlotFlowTest, FindsInterprocedurallyDeadOwnFrameStore) {
  Image Img = deadStoreProgram();
  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  EXPECT_FALSE(Flow.GlobalEscape);
  std::set<uint64_t> Dead = deadAddresses(Analysis.Prog, Flow);
  EXPECT_EQ(Dead, (std::set<uint64_t>{2}));
}

TEST(SliceSlotFlowTest, StoreReadByCalleeThroughCallerWindowIsLive) {
  Image Img = callerWindowProgram();
  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  EXPECT_FALSE(Flow.GlobalEscape);

  // f reads its caller's frame: MAY-USE {sp+0} in f's entry coordinates,
  // and main's reload of ra keeps slot sp+3 (of f) live across f's exit.
  uint32_t FIndex = Analysis.Prog.Routines[0].Name == "f" ? 0 : 1;
  const RoutineSlotFacts &F = Flow.Routines[FIndex];
  EXPECT_TRUE(F.MayUse.mayContain(0));
  EXPECT_TRUE(F.LiveAtExit.mayContain(3));
  EXPECT_FALSE(F.LiveAtExit.mayContain(0));

  // Neither store is dead: one feeds the callee, one feeds the reload.
  EXPECT_TRUE(deadAddresses(Analysis.Prog, Flow).empty());
}

TEST(SliceSlotFlowTest, CalleeStoreDeadViaCallerLiveness) {
  // f writes into main's frame, and main never reads the slot again:
  // only phase 2 (caller-first liveness) can prove this store dead.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 2)); // 0
  B.emitCall("f");                                      // 1
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 2)); // 2
  B.emit(inst::halt(reg::V0));                          // 3
  B.beginRoutine("f");
  B.emit(inst::lda(reg::V0, 9));          // 4
  B.emit(inst::stq(reg::V0, 0, reg::SP)); // 5: dead in every caller.
  B.emit(inst::ret());                    // 6
  Image Img = B.build();

  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  EXPECT_EQ(deadAddresses(Analysis.Prog, Flow), (std::set<uint64_t>{5}));
}

TEST(SliceSlotFlowTest, SpEscapeCollapsesEverythingAndMutesDeadStores) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 2)); // 0
  B.emit(inst::lda(reg::T0, 7));                        // 1
  B.emit(inst::stq(reg::T0, 0, reg::SP));               // 2
  B.emit(inst::mov(reg::T0 + 1, reg::SP));                  // 3: sp escapes.
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 2)); // 4
  B.emit(inst::halt(reg::V0));                          // 5
  Image Img = B.build();

  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  EXPECT_TRUE(Flow.GlobalEscape);
  for (const RoutineSlotFacts &F : Flow.Routines) {
    EXPECT_TRUE(F.MayUse.isTop());
    EXPECT_TRUE(F.MayDef.isTop());
    EXPECT_TRUE(F.LiveAtExit.isTop());
  }
  EXPECT_TRUE(findDeadStackStores(Analysis.Prog, Flow).empty());
}

//===----------------------------------------------------------------------===//
// Dependence graph and slices
//===----------------------------------------------------------------------===//

TEST(DepGraphTest, SlotValueFlowsThroughCallBoundary) {
  Image Img = callerWindowProgram();
  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  DependenceGraph Graph =
      buildDepGraph(Analysis.Prog, Analysis.Summaries, Flow);

  // The ra reload (5) needs the ra save (1) via the slot.
  std::vector<uint64_t> RaSlice = backwardSlice(Graph, 5);
  EXPECT_TRUE(contains(RaSlice, 1));

  // f's caller-window load (8) transitively needs main's store (3)
  // through the call junction (4).
  std::vector<uint64_t> LoadSlice = backwardSlice(Graph, 8);
  EXPECT_TRUE(contains(LoadSlice, 4));
  EXPECT_TRUE(contains(LoadSlice, 3));

  // Forward from the store reaches across the boundary into f, and the
  // halt observes f's return value.
  std::vector<uint64_t> StoreSlice = forwardSlice(Graph, 3);
  EXPECT_TRUE(contains(StoreSlice, 8));
  EXPECT_TRUE(contains(StoreSlice, 7));
}

TEST(DepGraphTest, GeneratedProgramHasAllEdgeKinds) {
  ExecProfile P;
  P.Routines = 12;
  P.DeadStoreProb = 0.5;
  P.Seed = 17;
  Image Img = generateExecProgram(P);
  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  DependenceGraph Graph =
      buildDepGraph(Analysis.Prog, Analysis.Summaries, Flow);

  unsigned Kinds[4] = {0, 0, 0, 0};
  for (const DepEdge &E : Graph.Edges) {
    EXPECT_NE(E.Dependent, E.Dependency); // No self-edges.
    ++Kinds[unsigned(E.Kind)];
  }
  EXPECT_GT(Kinds[unsigned(DepKind::RegData)], 0u);
  EXPECT_GT(Kinds[unsigned(DepKind::SlotData)], 0u);
  EXPECT_GT(Kinds[unsigned(DepKind::Control)], 0u);
  EXPECT_GT(Kinds[unsigned(DepKind::Call)], 0u);

  // Edges are strictly sorted (sorted + duplicate-free).
  for (size_t I = 1; I < Graph.Edges.size(); ++I) {
    const DepEdge &A = Graph.Edges[I - 1], &B = Graph.Edges[I];
    bool Less = A.Dependent < B.Dependent ||
                (A.Dependent == B.Dependent &&
                 (A.Dependency < B.Dependency ||
                  (A.Dependency == B.Dependency && A.Kind < B.Kind)));
    EXPECT_TRUE(Less);
  }
}

TEST(DepGraphTest, CsrIndexesAgreeWithEdgeList) {
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 23;
  Image Img = generateExecProgram(P);
  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  DependenceGraph Graph =
      buildDepGraph(Analysis.Prog, Analysis.Summaries, Flow);

  ASSERT_EQ(Graph.BackwardIndex.size(), Graph.NumAddrs + 1);
  ASSERT_EQ(Graph.ForwardIndex.size(), Graph.NumAddrs + 1);
  ASSERT_EQ(Graph.ForwardOrder.size(), Graph.Edges.size());
  for (uint64_t A = 0; A < Graph.NumAddrs; ++A) {
    for (uint32_t I = Graph.BackwardIndex[A];
         I < Graph.BackwardIndex[A + 1]; ++I)
      EXPECT_EQ(Graph.Edges[I].Dependent, A);
    for (uint32_t I = Graph.ForwardIndex[A]; I < Graph.ForwardIndex[A + 1];
         ++I)
      EXPECT_EQ(Graph.Edges[Graph.ForwardOrder[I]].Dependency, A);
  }
}

TEST(DepGraphTest, DotRenderingNamesEveryInstructionInTheSlice) {
  Image Img = deadStoreProgram();
  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  DependenceGraph Graph =
      buildDepGraph(Analysis.Prog, Analysis.Summaries, Flow);
  std::vector<uint64_t> Slice = backwardSlice(Graph, 5);
  std::string Dot = sliceToDot(Analysis.Prog, Graph, Slice);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  for (uint64_t Address : Slice)
    EXPECT_NE(Dot.find("n" + std::to_string(Address)), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Determinism across --jobs
//===----------------------------------------------------------------------===//

namespace {

/// Subjects for the jobs differential: every paper profile (capped) plus
/// executable programs with dead stores and indirection.
std::vector<Image> jobsCorpus() {
  std::vector<Image> Corpus;
  for (const BenchmarkProfile &P : paperProfiles()) {
    double Scale = P.Routines > 80 ? 80.0 / P.Routines : 1.0;
    Corpus.push_back(generateCfgProgram(scaledProfile(P, Scale)));
  }
  for (uint64_t Seed : {3u, 11u, 29u, 5u}) {
    ExecProfile P;
    P.Routines = 24;
    P.IndirectCallProb = Seed == 5 ? 0.25 : 0.05;
    P.DeadStoreProb = 0.4;
    P.Seed = Seed;
    Corpus.push_back(generateExecProgram(P));
  }
  return Corpus;
}

} // namespace

TEST(SliceJobsTest, SlotFactsAndDepEdgesBitIdenticalAtEveryLaneCount) {
  std::vector<Image> Corpus = jobsCorpus();
  for (size_t Subject = 0; Subject < Corpus.size(); ++Subject) {
    const Image &Img = Corpus[Subject];
    AnalysisResult Analysis = analyzeImage(Img);
    SlotFlowResult Serial = solveSlotFlow(Analysis.Prog, nullptr);
    DependenceGraph SerialGraph =
        buildDepGraph(Analysis.Prog, Analysis.Summaries, Serial, nullptr);
    for (unsigned Jobs : {2u, 4u, 7u}) {
      ThreadPool Pool(Jobs);
      SlotFlowResult Parallel = solveSlotFlow(Analysis.Prog, &Pool);
      EXPECT_EQ(Serial.GlobalEscape, Parallel.GlobalEscape);
      EXPECT_EQ(Serial.OpaqueRoutines, Parallel.OpaqueRoutines);
      ASSERT_EQ(Serial.Routines.size(), Parallel.Routines.size());
      for (size_t R = 0; R < Serial.Routines.size(); ++R)
        EXPECT_TRUE(Serial.Routines[R] == Parallel.Routines[R])
            << "subject " << Subject << " routine " << R << " jobs "
            << Jobs;
      DependenceGraph ParallelGraph = buildDepGraph(
          Analysis.Prog, Analysis.Summaries, Parallel, &Pool);
      EXPECT_TRUE(SerialGraph.Edges == ParallelGraph.Edges)
          << "subject " << Subject << " jobs " << Jobs;
      EXPECT_EQ(SerialGraph.BackwardIndex, ParallelGraph.BackwardIndex);
      EXPECT_EQ(SerialGraph.ForwardOrder, ParallelGraph.ForwardOrder);
    }
  }
}

//===----------------------------------------------------------------------===//
// Soundness: the simulator cannot observe a "dead" store
//===----------------------------------------------------------------------===//

TEST(SliceSoundnessTest, NopingEveryDeadStoreIsUnobservableOn20Subjects) {
  // 20 executable subjects spanning the generator's knobs; every store
  // the analysis calls dead is nop-ed and the simulator must not notice.
  uint64_t TotalDead = 0;
  for (unsigned Subject = 0; Subject < 20; ++Subject) {
    ExecProfile P;
    P.Routines = 10 + Subject;
    P.Seed = 1000 + Subject * 7;
    P.DeadStoreProb = Subject < 16 ? 0.6 : 1.0;
    P.IndirectCallProb = Subject % 4 == 3 ? 0.2 : 0.05;
    P.ExtraSaveProb = Subject % 2 ? 0.7 : 0.3;
    Image Img = generateExecProgram(P);

    SimResult Before = simulate(Img);
    ASSERT_EQ(Before.Exit, SimExit::Halted) << "subject " << Subject;

    AnalysisResult Analysis = analyzeImage(Img);
    SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
    Image Stripped = Img;
    for (uint64_t Address : deadAddresses(Analysis.Prog, Flow)) {
      ++TotalDead;
      Stripped.Code[Address] = encodeInstruction(inst::nop());
    }
    SimResult After = simulate(Stripped);
    EXPECT_TRUE(Before.sameObservable(After)) << "subject " << Subject;
  }
  // The DeadStoreProb knob guarantees the property is not vacuous.
  EXPECT_GE(TotalDead, 1u);
}

TEST(SliceSoundnessTest, DeadStoreKnobPreservesRngStreamWhenOff) {
  ExecProfile P;
  P.Routines = 12;
  P.Seed = 77;
  Image Plain = generateExecProgram(P);
  P.DeadStoreProb = 0.0; // Explicit zero: same stream, same program.
  Image Again = generateExecProgram(P);
  EXPECT_EQ(Plain.Code, Again.Code);
}

//===----------------------------------------------------------------------===//
// Lint (SL012), optimizer pass, and attribution agreement
//===----------------------------------------------------------------------===//

TEST(SliceLintTest, Sl012ReportsExactlyTheDeadStores) {
  ExecProfile P;
  P.Routines = 14;
  P.Seed = 41;
  P.DeadStoreProb = 0.8;
  Image Img = generateExecProgram(P);

  AnalysisResult Analysis = analyzeImage(Img);
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  std::set<uint64_t> Dead = deadAddresses(Analysis.Prog, Flow);
  ASSERT_FALSE(Dead.empty());

  LintResult Result = lintImage(Img);
  std::set<uint64_t> Reported;
  for (const Diagnostic &D : Result.Diags)
    if (D.Rule == RuleId::DeadStackStore) {
      EXPECT_EQ(D.Sev, Severity::Note);
      EXPECT_NE(D.Hint.find("spike-slice --forward"), std::string::npos);
      Reported.insert(uint64_t(D.Address));
    }
  EXPECT_EQ(Reported, Dead);
}

TEST(SlicePipelineTest, DeadStoreElimIsSoundAndFullyAttributed) {
  ExecProfile P;
  P.Routines = 16;
  P.Seed = 59;
  P.DeadStoreProb = 0.8;
  // No indirect calls: a transitively reachable indirect call collapses
  // MAY-USE to top, which (correctly) mutes every upstream dead store.
  P.IndirectCallProb = 0.0;
  Image Img = generateExecProgram(P);
  SimResult Before = simulate(Img);
  ASSERT_EQ(Before.Exit, SimExit::Halted);

  PipelineOptions Opts;
  Opts.AttributeTransforms = true;
  Opts.Jobs = 2;
  PipelineStats Stats = optimizeImage(Img, CallingConv(), Opts);
  EXPECT_TRUE(Stats.clean());
  EXPECT_GE(Stats.DeadStoresDeleted, 1u);

  // Every deletion carries a provenance-backed justification.
  uint64_t Applied = 0;
  for (const telemetry::TransformRecord &T : Stats.Transforms)
    if (T.Pass == "dead_store" && T.Outcome == "applied") {
      ++Applied;
      EXPECT_NE(T.Detail.find("not live after the store"),
                std::string::npos);
    }
  EXPECT_EQ(Applied, Stats.DeadStoresDeleted);

  SimResult After = simulate(Img);
  EXPECT_TRUE(Before.sameObservable(After));
}

//===----------------------------------------------------------------------===//
// CLI differential (spike-slice, spike-objdump)
//===----------------------------------------------------------------------===//

namespace {

std::string toolsDir() { return SPIKE_TOOLS_DIR; }

std::string runCommand(const std::string &Command, int *Status) {
  std::string Output;
  std::string Wrapped = Command + " 2>&1";
  std::FILE *Pipe = ::popen(Wrapped.c_str(), "r");
  if (!Pipe) {
    *Status = -1;
    return Output;
  }
  char Buffer[512];
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  *Status = ::pclose(Pipe);
  return Output;
}

std::string writeSubjectImage() {
  ExecProfile P;
  P.Routines = 14;
  P.Seed = 3;
  P.DeadStoreProb = 0.5;
  Image Img = generateExecProgram(P);
  std::string Path = testpaths::scratchFile("subject.spkx");
  EXPECT_TRUE(writeImageFile(Img, Path));
  return Path;
}

} // namespace

TEST(SliceCliTest, AnswersAreByteIdenticalAtEveryJobsCount) {
  std::string Path = writeSubjectImage();
  int Status = 0;
  std::string Serial = runCommand(
      toolsDir() + "/spike-slice " + Path + " --backward 50 --jobs 1",
      &Status);
  EXPECT_EQ(Status, 0);
  EXPECT_NE(Serial.find("backward slice of 50"), std::string::npos);
  for (unsigned Jobs : {2u, 4u, 7u}) {
    std::string Parallel = runCommand(
        toolsDir() + "/spike-slice " + Path + " --backward 50 --jobs " +
            std::to_string(Jobs),
        &Status);
    EXPECT_EQ(Status, 0);
    EXPECT_EQ(Serial, Parallel) << "jobs " << Jobs;
  }
}

TEST(SliceCliTest, SlotsModeListsFactsAndDeadStores) {
  std::string Path = writeSubjectImage();
  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-slice " + Path + " --slots", &Status);
  EXPECT_EQ(Status, 0);
  EXPECT_NE(Out.find("may-use:"), std::string::npos);
  EXPECT_NE(Out.find("live-at-exit:"), std::string::npos);
  EXPECT_NE(Out.find("dead store:"), std::string::npos);
}

TEST(SliceCliTest, UsageErrorsExitTwo) {
  int Status = 0;
  runCommand(toolsDir() + "/spike-slice", &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 2);
  runCommand(toolsDir() + "/spike-slice img.spkx --backward 1 --forward 2",
             &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 2);
}

TEST(SliceCliTest, ObjdumpAnnotatesStackTrafficAndStillRoundTrips) {
  std::string Path = writeSubjectImage();
  int Status = 0;
  std::string Listing =
      runCommand(toolsDir() + "/spike-objdump " + Path, &Status);
  EXPECT_EQ(Status, 0);
  EXPECT_NE(Listing.find("; [sp+"), std::string::npos);
  EXPECT_NE(Listing.find("; [sp -= "), std::string::npos);
  EXPECT_NE(Listing.find("; [indexed]"), std::string::npos);

  // Annotations are comments: the listing must still assemble.
  std::string AsmPath = testpaths::scratchFile("listing.s");
  std::FILE *Out = std::fopen(AsmPath.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  std::fwrite(Listing.data(), 1, Listing.size(), Out);
  std::fclose(Out);
  std::string Img2 = testpaths::scratchFile("roundtrip.spkx");
  runCommand(toolsDir() + "/spike-as " + AsmPath + " -o " + Img2,
             &Status);
  EXPECT_EQ(Status, 0);
}
