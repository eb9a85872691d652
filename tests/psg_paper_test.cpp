//===- tests/psg_paper_test.cpp - the paper's worked examples -------------===//
//
// Reconstructs the programs of Figures 2-12 and checks the analysis
// reproduces the dataflow sets the paper reports.  Register names R0..R3
// match the paper; the paper abstracts away the convention registers
// (ra/sp/...), so assertions mask results to {R0..R3} where noted.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Registers.h"
#include "psg/Analyzer.h"

#include <gtest/gtest.h>

using namespace spike;

namespace {

const RegSet PaperMask = {0, 1, 2, 3};

RegSet masked(RegSet S) { return S & PaperMask; }

/// The three routines of Figure 2:
///   P1: defines R0 and R1, calls P2, then uses R0.
///   P2: uses R1, always defines R2, defines R3 on one path.
///   P3: defines R1 and calls P2.
/// A start stub calls P1 and P3 so both are analyzed as called routines.
Image figure2Program() {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P1");
  B.emitCall("P3");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");

  B.beginRoutine("P1");
  B.emit(inst::lda(0, 5)); // def R0
  B.emit(inst::lda(1, 7)); // def R1
  B.emitCall("P2");
  B.emit(inst::mov(2, 0)); // use R0 (def R2)
  B.emit(inst::ret());

  B.beginRoutine("P2");
  ProgramBuilder::LabelId Skip = B.makeLabel();
  B.emit(inst::mov(2, 1)); // use R1, def R2
  B.emitCondBr(Opcode::Beq, 2, Skip);
  B.emit(inst::lda(3, 1)); // def R3 on one path only
  B.bind(Skip);
  B.emit(inst::ret());

  B.beginRoutine("P3");
  B.emit(inst::lda(1, 9)); // def R1
  B.emitCall("P2");
  B.emit(inst::ret());

  return B.build();
}

struct Figure2Results {
  Image Img; ///< The words Analysis borrows.
  AnalysisResult Analysis;
  uint32_t P1 = 0, P2 = 0, P3 = 0;
};

Figure2Results analyzeFigure2() {
  Figure2Results R;
  R.Img = figure2Program();
  R.Analysis = analyzeImage(R.Img);
  for (uint32_t I = 0; I < R.Analysis.Prog.Routines.size(); ++I) {
    const std::string &Name = R.Analysis.Prog.Routines[I].Name;
    if (Name == "P1")
      R.P1 = I;
    else if (Name == "P2")
      R.P2 = I;
    else if (Name == "P3")
      R.P3 = I;
  }
  return R;
}

} // namespace

TEST(Figure2Test, CallSummariesMatchSection32) {
  Figure2Results R = analyzeFigure2();
  const auto &Summaries = R.Analysis.Summaries;

  // MAY-USE[P2] = {R1}, MUST-DEF[P2] = {R2}, MAY-DEF[P2] = {R2, R3}.
  const CallSummary &P2 = Summaries.Routines[R.P2].EntrySummaries[0];
  EXPECT_EQ(masked(P2.Used), RegSet({1}));
  EXPECT_EQ(masked(P2.Defined), RegSet({2}));
  EXPECT_EQ(masked(P2.Killed), RegSet({2, 3}));

  // "for any call to routine P1 call-used = ∅, call-defined =
  // {R0,R1,R2}, and call-killed = {R0,R1,R2,R3}".
  const CallSummary &P1 = Summaries.Routines[R.P1].EntrySummaries[0];
  EXPECT_EQ(masked(P1.Used), RegSet());
  EXPECT_EQ(masked(P1.Defined), RegSet({0, 1, 2}));
  EXPECT_EQ(masked(P1.Killed), RegSet({0, 1, 2, 3}));

  // MAY-USE[P3] = ∅, MUST-DEF[P3] = {R1,R2}, MAY-DEF[P3] = {R1,R2,R3}.
  const CallSummary &P3 = Summaries.Routines[R.P3].EntrySummaries[0];
  EXPECT_EQ(masked(P3.Used), RegSet());
  EXPECT_EQ(masked(P3.Defined), RegSet({1, 2}));
  EXPECT_EQ(masked(P3.Killed), RegSet({1, 2, 3}));
}

TEST(Figure2Test, LiveSetsMatchSection2) {
  Figure2Results R = analyzeFigure2();
  const RoutineResults &P2 = R.Analysis.Summaries.Routines[R.P2];

  // "in routine P2 live-at-entry = {R0, R1} and live-at-exit = {R0}".
  ASSERT_EQ(P2.LiveAtEntry.size(), 1u);
  EXPECT_EQ(masked(P2.LiveAtEntry[0]), RegSet({0, 1}));
  ASSERT_EQ(P2.LiveAtExit.size(), 1u);
  EXPECT_EQ(masked(P2.LiveAtExit[0]), RegSet({0}));
}

TEST(Figure2Test, RaNeverEscapesToCallers) {
  // The jsr itself defines ra, so no routine's call-used set should make
  // callers think ra is consumed.
  Figure2Results R = analyzeFigure2();
  // The raw summaries may mention ra (each callee's ret uses it), but
  // the caller-side effect of any call site must not: the jsr itself
  // defines ra.
  const Routine &Start = R.Analysis.Prog.Routines[0];
  ASSERT_EQ(Start.Name, "__start");
  for (uint32_t CallBlock : Start.CallBlocks) {
    CallEffect Effect =
        R.Analysis.Summaries.callEffect(R.Analysis.Prog, 0, CallBlock);
    EXPECT_FALSE(Effect.Used.contains(reg::RA));
    EXPECT_TRUE(Effect.Defined.contains(reg::RA));
  }
}

namespace {

/// The Figure 4(a) routine (see cfg_test.cpp for the block shape):
///   b1: def R2, use R1, beq -> b3
///   b2: def R3, br -> b4
///   b3: def R3, call
///   b4: def R0 (use R3), ret
Image figure4Program() {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("fig4");
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");

  B.beginRoutine("fig4");
  ProgramBuilder::LabelId L3 = B.makeLabel(), L4 = B.makeLabel();
  B.emit(inst::lda(2, 1));
  B.emit(inst::rrr(Opcode::Xor, 4, 1, 2));
  B.emitCondBr(Opcode::Beq, 4, L3);
  B.emit(inst::lda(3, 2));
  B.emitBr(L4);
  B.bind(L3);
  B.emit(inst::lda(3, 3));
  B.emitCall("callee");
  B.bind(L4);
  B.emit(inst::mov(0, 3));
  B.emit(inst::ret());

  B.beginRoutine("callee");
  B.emit(inst::lda(reg::V0, 1));
  B.emit(inst::ret());
  return B.build();
}

/// Finds the edge between two PSG nodes; asserts it exists.
const PsgEdge *findEdge(const ProgramSummaryGraph &Psg, uint32_t Src,
                        uint32_t Dst) {
  for (const PsgEdge &Edge : Psg.outEdges(Src))
    if (Edge.Dst == Dst)
      return &Edge;
  return nullptr;
}

} // namespace

TEST(Figure4Test, PsgNodesAndEdges) {
  Image Img = figure4Program();
  AnalysisResult Result = analyzeImage(Img);
  uint32_t Fig4 = 1;
  ASSERT_EQ(Result.Prog.Routines[Fig4].Name, "fig4");
  const Program &Prog = Result.Prog;
  const ProgramSummaryGraph &Psg = Result.Psg;

  // One entry, one exit, one call/return pair (Figure 4(b)).
  ASSERT_EQ(Psg.entryNodes(Prog, Fig4).size(), 1u);
  ASSERT_EQ(Psg.exitNodes(Prog, Fig4).size(), 1u);
  ASSERT_EQ(Prog.Routines[Fig4].CallBlocks.size(), 1u);
  ASSERT_EQ(Psg.RoutineNodeBegin[Fig4 + 1] - Psg.RoutineNodeBegin[Fig4], 4u);

  uint32_t Entry = Psg.entryNode(Fig4, 0), Exit = Psg.exitNodes(Prog, Fig4)[0];
  uint32_t Call = Psg.callNode(Prog, Fig4, 0),
           Return = Psg.returnNode(Prog, Fig4, 0);

  // Edges E_A = (entry, exit), E_B = (entry, call), E_C = (return, exit),
  // E_CR = (call, return); and nothing else.
  const PsgEdge *EA = findEdge(Result.Psg, Entry, Exit);
  const PsgEdge *EB = findEdge(Result.Psg, Entry, Call);
  const PsgEdge *EC = findEdge(Result.Psg, Return, Exit);
  const PsgEdge *ECR = findEdge(Result.Psg, Call, Return);
  ASSERT_NE(EA, nullptr);
  ASSERT_NE(EB, nullptr);
  ASSERT_NE(EC, nullptr);
  ASSERT_NE(ECR, nullptr);
  EXPECT_TRUE(Psg.isCallReturn(*ECR));
  EXPECT_EQ(Psg.outEdges(Entry).size(), 2u);
  EXPECT_EQ(Psg.outEdges(Return).size(), 1u);

  // E_A represents blocks {1,2,4}: paths 1->2->4.
  //   MUST-DEF {R2,R4,R3,R0}, MAY-USE {R1} (+ra used by ret).
  EXPECT_EQ(masked(EA->Label.MustDef), RegSet({0, 2, 3}));
  EXPECT_TRUE(EA->Label.MustDef.contains(4));
  EXPECT_EQ(masked(EA->Label.MayUse), RegSet({1}));
  EXPECT_TRUE(EA->Label.MayUse.contains(reg::RA));
  EXPECT_EQ(EA->Label.MayDef, EA->Label.MustDef); // Single path.

  // E_B represents blocks {1,3}: MUST-DEF {R2,R4,R3}, MAY-USE {R1}.
  EXPECT_EQ(masked(EB->Label.MustDef), RegSet({2, 3}));
  EXPECT_EQ(masked(EB->Label.MayUse), RegSet({1}));
  EXPECT_FALSE(EB->Label.MustDef.contains(0));

  // E_C represents block {4} only: MUST-DEF {R0}, MAY-USE {R3, ra}.
  EXPECT_EQ(masked(EC->Label.MustDef), RegSet({0}));
  EXPECT_EQ(masked(EC->Label.MayUse), RegSet({3}));
  EXPECT_TRUE(EC->Label.MayUse.contains(reg::RA));
}

TEST(Figure4Test, CallReturnEdgeCarriesCalleeSummary) {
  Image Img = figure4Program();
  AnalysisResult Result = analyzeImage(Img);
  const PsgEdge *ECR =
      findEdge(Result.Psg, Result.Psg.callNode(Result.Prog, 1, 0),
               Result.Psg.returnNode(Result.Prog, 1, 0));
  ASSERT_NE(ECR, nullptr);
  // callee defines v0 (R0) and ra is folded in.
  EXPECT_TRUE(ECR->Label.MustDef.contains(reg::V0));
  EXPECT_TRUE(ECR->Label.MustDef.contains(reg::RA));
  EXPECT_FALSE(ECR->Label.MayUse.contains(reg::RA));
}

namespace {

/// A Figure 12-style routine: a loop around a 4-way jump table whose
/// arms call three different routines, with the fourth arm exiting.
Image figure12Program() {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("multi");
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");

  B.beginRoutine("multi");
  ProgramBuilder::LabelId Head = B.makeLabel();
  ProgramBuilder::LabelId A0 = B.makeLabel(), A1 = B.makeLabel(),
                          A2 = B.makeLabel(), A3 = B.makeLabel();
  B.bind(Head);
  B.emitTableJump(1, {A0, A1, A2, A3});
  B.bind(A0);
  B.emitCall("f0");
  B.emitBr(Head);
  B.bind(A1);
  B.emitCall("f1");
  B.emitBr(Head);
  B.bind(A2);
  B.emitCall("f2");
  B.emitBr(Head);
  B.bind(A3);
  B.emit(inst::ret());

  for (const char *Name : {"f0", "f1", "f2"}) {
    B.beginRoutine(Name);
    B.emit(inst::ret());
  }
  return B.build();
}

uint64_t routineFlowEdges(const AnalysisResult &Result, uint32_t Routine) {
  uint64_t Count = 0;
  for (const PsgEdge &Edge : Result.Psg.Edges) {
    if (Result.Psg.isCallReturn(Edge))
      continue;
    if (Result.Psg.Nodes[Edge.Src].RoutineIndex == Routine)
      ++Count;
  }
  return Count;
}

} // namespace

TEST(Figure12Test, BranchNodesReduceQuadraticEdges) {
  // Without branch nodes: entry and each of the 3 return points reach all
  // 3 calls and the exit: 4 sources x 4 sinks = 16 flow-summary edges.
  AnalysisOptions NoBranch;
  NoBranch.Psg.UseBranchNodes = false;
  Image Img = figure12Program();
  AnalysisResult Without = analyzeImage(Img, CallingConv(), NoBranch);
  EXPECT_EQ(routineFlowEdges(Without, 1), 16u);
  EXPECT_EQ(Without.Psg.NumBranchNodes, 0u);

  // With a branch node: every source reaches only the branch node, which
  // fans out once: 4 + 4 = 8 edges.
  AnalysisResult With = analyzeImage(Img);
  EXPECT_EQ(routineFlowEdges(With, 1), 8u);
  EXPECT_EQ(With.Psg.NumBranchNodes, 1u);

  // The reduction must not change any analysis result.
  for (uint32_t Routine = 0; Routine < With.Prog.Routines.size();
       ++Routine) {
    const RoutineResults &A = With.Summaries.Routines[Routine];
    const RoutineResults &B = Without.Summaries.Routines[Routine];
    for (size_t I = 0; I < A.EntrySummaries.size(); ++I) {
      EXPECT_EQ(A.EntrySummaries[I].Used, B.EntrySummaries[I].Used);
      EXPECT_EQ(A.EntrySummaries[I].Defined, B.EntrySummaries[I].Defined);
      EXPECT_EQ(A.EntrySummaries[I].Killed, B.EntrySummaries[I].Killed);
      EXPECT_EQ(A.LiveAtEntry[I], B.LiveAtEntry[I]);
    }
    EXPECT_EQ(A.LiveAtExit, B.LiveAtExit);
  }
}
