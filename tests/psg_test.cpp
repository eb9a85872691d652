//===- tests/psg_test.cpp - PSG construction/solver unit tests -----------===//

#include "binary/ProgramBuilder.h"
#include "isa/Registers.h"
#include "psg/Analyzer.h"

#include <gtest/gtest.h>

using namespace spike;

namespace {

uint32_t routineByName(const Program &Prog, const std::string &Name) {
  for (uint32_t I = 0; I < Prog.Routines.size(); ++I)
    if (Prog.Routines[I].Name == Name)
      return I;
  ADD_FAILURE() << "no routine " << Name;
  return 0;
}

} // namespace

TEST(PsgBuilderTest, CsrAdjacencyIsConsistent) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  const ProgramSummaryGraph &Psg = Result.Psg;

  // Every edge appears exactly once in its source's out range and once in
  // its destination's in range.
  std::vector<unsigned> OutSeen(Psg.Edges.size(), 0);
  for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
    const PsgNode &Node = Psg.Nodes[NodeId];
    for (uint32_t E = Node.FirstOut; E < Node.FirstOut + Psg.outEdges(NodeId).size();
         ++E) {
      EXPECT_EQ(Psg.Edges[E].Src, NodeId);
      ++OutSeen[E];
    }
  }
  for (unsigned Count : OutSeen)
    EXPECT_EQ(Count, 1u);

  std::vector<unsigned> InSeen(Psg.Edges.size(), 0);
  for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
    const PsgNode &Node = Psg.Nodes[NodeId];
    for (uint32_t I = Node.FirstIn; I < Node.FirstIn + Psg.inEdgeIds(NodeId).size(); ++I) {
      uint32_t EdgeId = Psg.InEdgeIds[I];
      EXPECT_EQ(Psg.Edges[EdgeId].Dst, NodeId);
      ++InSeen[EdgeId];
    }
  }
  for (unsigned Count : InSeen)
    EXPECT_EQ(Count, 1u);
}

TEST(PsgBuilderTest, NodeCountsFollowAnchors) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  ProgramBuilder::LabelId Out = B.makeLabel();
  B.emitCondBr(Opcode::Beq, reg::A0, Out);
  B.emitCall("g");
  B.emit(inst::ret());
  B.bind(Out);
  B.emit(inst::ret());
  B.beginRoutine("g");
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);

  uint32_t F = routineByName(Result.Prog, "f");
  const ProgramSummaryGraph &Psg = Result.Psg;
  EXPECT_EQ(Psg.entryNodes(Result.Prog, F).size(), 1u);
  EXPECT_EQ(Psg.exitNodes(Result.Prog, F).size(), 2u);
  ASSERT_EQ(Result.Prog.Routines[F].CallBlocks.size(), 1u);
  EXPECT_EQ(Psg.Nodes[Psg.callNode(Result.Prog, F, 0)].Kind,
            PsgNodeKind::Call);
  EXPECT_EQ(Psg.Nodes[Psg.returnNode(Result.Prog, F, 0)].Kind,
            PsgNodeKind::Return);
  for (uint32_t N = Psg.RoutineNodeBegin[F]; N < Psg.RoutineNodeBegin[F + 1];
       ++N)
    EXPECT_NE(Psg.Nodes[N].Kind, PsgNodeKind::Branch);
}

TEST(PsgBuilderTest, HaltBlockGetsHaltSink) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::mov(reg::T0, reg::A0)); // Uses a0: must be seen.
  B.emit(inst::halt(reg::T0));
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  bool SawHalt = false;
  for (const PsgNode &Node : Result.Psg.Nodes)
    SawHalt |= Node.Kind == PsgNodeKind::Halt;
  EXPECT_TRUE(SawHalt);
  // The use of a0 on the halting path must reach the entry summary.
  const CallSummary &Main = Result.Summaries.Routines[0].EntrySummaries[0];
  EXPECT_TRUE(Main.Used.contains(reg::A0));
  // And the halting path must not weaken MUST-DEF on... there is no
  // returning path at all, so call-defined may be anything; check the
  // killed set stays sound (t0 defined on the path).
  EXPECT_TRUE(Main.Killed.contains(reg::T0));
}

TEST(PsgBuilderTest, UnresolvedJumpMakesAllRegistersLiveAndKilled) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::jmpR(reg::T0 + 1));
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  uint32_t F = routineByName(Result.Prog, "f");
  const CallSummary &S = Result.Summaries.Routines[F].EntrySummaries[0];
  // Unknown code may use and kill anything; nothing is guaranteed
  // defined.
  EXPECT_EQ(S.Used | RegSet({reg::T0 + 1}),
            RegSet::allBelow(NumIntRegs));
  EXPECT_EQ(S.Killed, RegSet::allBelow(NumIntRegs));
  EXPECT_TRUE(S.Defined.empty());
}

TEST(PsgSolverTest, IndirectCallUsesCallingStandard) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitLoadRoutineAddress(reg::PV, "target");
  B.emit(inst::jsrR(reg::PV));
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("target", /*AddressTaken=*/true);
  // The target clobbers t0 without saving it; a *direct* call would
  // expose that, but the indirect call must assume the standard instead.
  B.emit(inst::lda(reg::T0, 1));
  B.emit(inst::mov(reg::V0, reg::T0));
  B.emit(inst::ret());
  CallingConv Conv;
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img, Conv);

  ASSERT_EQ(Result.Prog.Routines[0].CallBlocks.size(), 1u);
  const PsgEdge &Cr = Result.Psg.Edges[
      Result.Psg.Nodes[Result.Psg.callNode(Result.Prog, 0, 0)].FirstOut];
  ASSERT_TRUE(Result.Psg.isCallReturn(Cr));
  EXPECT_EQ(Cr.Label.MayUse, Conv.indirectCallUsed() - RegSet({reg::RA}));
  EXPECT_EQ(Cr.Label.MustDef,
            Conv.indirectCallDefined() | RegSet({reg::RA}));
  EXPECT_EQ(Cr.Label.MayDef,
            Conv.indirectCallKilled() | RegSet({reg::RA}));
}

TEST(PsgSolverTest, CalleeSavedFilteredFromSummaries) {
  // f saves s0, clobbers it, restores it: callers must not see s0 used,
  // killed, or defined (Section 3.4).
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::stq(reg::S0, 0, reg::SP));
  B.emit(inst::lda(reg::S0, 42));
  B.emit(inst::mov(reg::V0, reg::S0));
  B.emit(inst::ldq(reg::S0, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);

  uint32_t F = routineByName(Result.Prog, "f");
  EXPECT_TRUE(Result.SavedPerRoutine[F].contains(reg::S0));
  const CallSummary &S = Result.Summaries.Routines[F].EntrySummaries[0];
  EXPECT_FALSE(S.Used.contains(reg::S0));
  EXPECT_FALSE(S.Killed.contains(reg::S0));
  EXPECT_FALSE(S.Defined.contains(reg::S0));
  // v0 is genuinely defined.
  EXPECT_TRUE(S.Defined.contains(reg::V0));
}

TEST(PsgSolverTest, UnsavedCalleeSavedClobberIsVisible) {
  // f clobbers s0 *without* saving it: callers must see the kill.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::lda(reg::S0, 1));
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  uint32_t F = routineByName(Result.Prog, "f");
  const CallSummary &S = Result.Summaries.Routines[F].EntrySummaries[0];
  EXPECT_TRUE(S.Killed.contains(reg::S0));
  EXPECT_TRUE(S.Defined.contains(reg::S0));
}

TEST(PsgSolverTest, TransitiveSummariesThroughCallChains) {
  // a -> b -> c; c uses a2 and defines v0.  A call to a must transitively
  // report a2 used.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("a");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("a");
  B.emitCall("b");
  B.emit(inst::ret());
  B.beginRoutine("b");
  B.emitCall("c");
  B.emit(inst::ret());
  B.beginRoutine("c");
  B.emit(inst::mov(reg::V0, reg::A0 + 2));
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  uint32_t A = routineByName(Result.Prog, "a");
  const CallSummary &S = Result.Summaries.Routines[A].EntrySummaries[0];
  EXPECT_TRUE(S.Used.contains(reg::A0 + 2));
  EXPECT_TRUE(S.Defined.contains(reg::V0));
}

TEST(PsgSolverTest, MustDefIntersectsAcrossCallees) {
  // f conditionally calls g (defines v0 and t0) or h (defines v0 only):
  // call-defined(f) must contain v0 but not t0; call-killed has both.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  ProgramBuilder::LabelId Other = B.makeLabel(), Done = B.makeLabel();
  B.emitCondBr(Opcode::Beq, reg::A0, Other);
  B.emitCall("g");
  B.emitBr(Done);
  B.bind(Other);
  B.emitCall("h");
  B.bind(Done);
  B.emit(inst::ret());
  B.beginRoutine("g");
  B.emit(inst::lda(reg::V0, 1));
  B.emit(inst::lda(reg::T0, 2));
  B.emit(inst::ret());
  B.beginRoutine("h");
  B.emit(inst::lda(reg::V0, 3));
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  uint32_t F = routineByName(Result.Prog, "f");
  const CallSummary &S = Result.Summaries.Routines[F].EntrySummaries[0];
  EXPECT_TRUE(S.Defined.contains(reg::V0));
  EXPECT_FALSE(S.Defined.contains(reg::T0));
  EXPECT_TRUE(S.Killed.contains(reg::T0));
}

TEST(PsgSolverTest, RecursionConverges) {
  // f calls itself and eventually returns; summaries must converge.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  ProgramBuilder::LabelId Base = B.makeLabel();
  B.emitCondBr(Opcode::Beq, reg::A0, Base);
  B.emit(inst::rri(Opcode::SubI, reg::A0, reg::A0, 1));
  B.emitCall("f");
  B.emit(inst::ret());
  B.bind(Base);
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  uint32_t F = routineByName(Result.Prog, "f");
  const CallSummary &S = Result.Summaries.Routines[F].EntrySummaries[0];
  EXPECT_TRUE(S.Used.contains(reg::A0));
  EXPECT_TRUE(S.Killed.contains(reg::A0)); // The recursive path decrements.
  EXPECT_TRUE(S.Defined.contains(reg::V0));
  // a0 is defined on the recursive path but not on the base path.
  EXPECT_FALSE(S.Defined.contains(reg::A0));
}

TEST(PsgSolverTest, PerEntranceSummariesDiffer) {
  // Entering at the top defines t0 before the shared tail; entering at
  // the secondary entrance does not.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::lda(reg::T0, 1));
  B.addSecondaryEntry("f.alt");
  B.emit(inst::mov(reg::V0, reg::T0)); // Uses t0.
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  uint32_t F = routineByName(Result.Prog, "f");
  const RoutineResults &RR = Result.Summaries.Routines[F];
  ASSERT_EQ(RR.EntrySummaries.size(), 2u);
  EXPECT_FALSE(RR.EntrySummaries[0].Used.contains(reg::T0));
  EXPECT_TRUE(RR.EntrySummaries[1].Used.contains(reg::T0));
  EXPECT_TRUE(RR.EntrySummaries[0].Defined.contains(reg::T0));
  EXPECT_FALSE(RR.EntrySummaries[1].Defined.contains(reg::T0));
}

TEST(PsgSolverTest, LivenessFlowsOnlyAlongValidReturnPaths) {
  // Both main1 and main2 call f.  After main1's call, t5 is used; after
  // main2's call, t6 is used.  live-at-exit(f) contains both (any exit
  // may return to either), but live *inside* main1 before its call must
  // not contain t6: the PSG's two-phase approach is valid-path precise.
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("main1");
  B.emitCall("main2");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("main1");
  B.emit(inst::lda(reg::T0 + 5, 1));
  B.emitCall("f");
  B.emit(inst::mov(reg::V0, reg::T0 + 5));
  B.emit(inst::ret());
  B.beginRoutine("main2");
  B.emit(inst::lda(reg::T0 + 6, 2));
  B.emitCall("f");
  B.emit(inst::mov(reg::V0, reg::T0 + 6));
  B.emit(inst::ret());
  B.beginRoutine("f");
  B.emit(inst::lda(reg::V0, 9));
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);

  uint32_t F = routineByName(Result.Prog, "f");
  uint32_t M1 = routineByName(Result.Prog, "main1");
  const RoutineResults &FR = Result.Summaries.Routines[F];
  EXPECT_TRUE(FR.LiveAtExit[0].contains(reg::T0 + 5));
  EXPECT_TRUE(FR.LiveAtExit[0].contains(reg::T0 + 6));
  // f does not define t5/t6, so both flow through to f's entry...
  EXPECT_TRUE(FR.LiveAtEntry[0].contains(reg::T0 + 5));
  // ...and onward to main1's live-at-entry via main1's call to f, but t6
  // must not leak into main1's own entry (it is defined before use only
  // on main2's side, and main1's call site never returns to main2).
  const RoutineResults &M1R = Result.Summaries.Routines[M1];
  EXPECT_FALSE(M1R.LiveAtEntry[0].contains(reg::T0 + 6));
  EXPECT_FALSE(M1R.LiveAtEntry[0].contains(reg::T0 + 5)); // Defed first.
}

TEST(PsgSolverTest, AddressTakenRoutineExitsAreConservative) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f", /*AddressTaken=*/true);
  B.emit(inst::lda(reg::V0, 1));
  B.emit(inst::ret());
  CallingConv Conv;
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img, Conv);
  uint32_t F = routineByName(Result.Prog, "f");
  EXPECT_TRUE(Result.Summaries.Routines[F].LiveAtExit[0].containsAll(
      Conv.unknownCallerLiveAtExit()));
}

TEST(PsgSolverTest, BenchStatsPopulated) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::ret());
  Image Img = B.build();
  AnalysisResult Result = analyzeImage(Img);
  EXPECT_GT(Result.Psg.Nodes.size(), 0u);
  EXPECT_GT(Result.Psg.Edges.size(), 0u);
  EXPECT_GT(Result.Phase1Stats.NodeEvaluations, 0u);
  EXPECT_GT(Result.Phase2Stats.NodeEvaluations, 0u);
  EXPECT_GT(Result.Memory.peakBytes(), 0u);
}
