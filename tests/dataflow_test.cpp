//===- tests/dataflow_test.cpp - FlowSets + liveness unit tests ----------===//

#include "binary/ProgramBuilder.h"
#include "cfg/CfgBuilder.h"
#include "dataflow/FlowSets.h"
#include "dataflow/Liveness.h"
#include "dataflow/Worklist.h"
#include "isa/Registers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

using namespace spike;

TEST(WorklistTest, FifoWithDeduplication) {
  Worklist List(4);
  List.push(2);
  List.push(0);
  List.push(2); // Duplicate suppressed.
  EXPECT_EQ(List.size(), 2u);
  EXPECT_EQ(List.pop(), 2u);
  List.push(2); // Re-insertable after pop.
  EXPECT_EQ(List.pop(), 0u);
  EXPECT_EQ(List.pop(), 2u);
  EXPECT_TRUE(List.empty());
}

TEST(WorklistTest, PushAll) {
  Worklist List(3);
  List.pushAll();
  EXPECT_EQ(List.size(), 3u);
}

TEST(WorklistTest, RingWrapsAroundInFifoOrder) {
  // Interleaved pushes and pops carry the ring's head and tail past Size
  // many times; a deduplicating std::deque is the FIFO reference.
  Worklist List(3);
  std::deque<uint32_t> Model;
  auto Push = [&](uint32_t Index) {
    List.push(Index);
    if (std::find(Model.begin(), Model.end(), Index) == Model.end())
      Model.push_back(Index);
  };
  unsigned Pops = 0;
  for (uint32_t Step = 0; Step < 40; ++Step) {
    Push(Step * 7 % 3);
    Push((Step * 5 + 1) % 3);
    ASSERT_EQ(List.size(), Model.size());
    for (unsigned I = 0; I < 1 + Step % 2 && !Model.empty(); ++I, ++Pops) {
      ASSERT_EQ(List.pop(), Model.front());
      Model.pop_front();
    }
  }
  while (!Model.empty()) {
    ASSERT_EQ(List.pop(), Model.front());
    Model.pop_front();
  }
  EXPECT_TRUE(List.empty());
  EXPECT_GT(Pops, 10u); // Far more traffic than the ring's three slots.
}

TEST(WorklistTest, ResetReusesAndResizes) {
  Worklist List(2);
  List.push(1);
  List.push(0);
  List.reset(5);
  EXPECT_TRUE(List.empty());
  List.push(4); // Beyond the old size.
  List.push(1); // Queued before the reset, fresh after it.
  List.push(4); // Still deduplicated.
  EXPECT_EQ(List.size(), 2u);
  EXPECT_EQ(List.pop(), 4u);
  EXPECT_EQ(List.pop(), 1u);
  List.reset(1);
  List.pushAll();
  EXPECT_EQ(List.size(), 1u);
  EXPECT_EQ(List.pop(), 0u);
  EXPECT_TRUE(List.empty());
}

TEST(FlowSetsTest, TransferMatchesFigure6) {
  // MAY-USE_in = UBD ∪ (MAY-USE_out − DEF); MAY/MUST-DEF_in = out ∪ DEF.
  FlowSets Out{RegSet({1, 2}), RegSet({5}), RegSet({5})};
  FlowSets In = Out.transferThrough(/*Def=*/RegSet({2, 3}),
                                    /*Ubd=*/RegSet({4}));
  EXPECT_EQ(In.MayUse, RegSet({1, 4}));
  EXPECT_EQ(In.MayDef, RegSet({2, 3, 5}));
  EXPECT_EQ(In.MustDef, RegSet({2, 3, 5}));
}

TEST(FlowSetsTest, MeetUnionsMayIntersectsMust) {
  FlowSets A{RegSet({1}), RegSet({2}), RegSet({2, 3})};
  FlowSets B{RegSet({4}), RegSet({5}), RegSet({3, 5})};
  FlowSets M = A.meet(B);
  EXPECT_EQ(M.MayUse, RegSet({1, 4}));
  EXPECT_EQ(M.MayDef, RegSet({2, 5}));
  EXPECT_EQ(M.MustDef, RegSet({3}));
}

TEST(FlowSetsTest, ThroughSummaryComposesLikeFigure8) {
  // MAY-USE[N_X] = MAY-USE[E] ∪ (MAY-USE[N_Y] − MUST-DEF[E]).
  FlowSets NodeY{RegSet({1, 2}), RegSet({9}), RegSet({9})};
  FlowSets Edge{RegSet({3}), RegSet({2, 7}), RegSet({2})};
  FlowSets NodeX = NodeY.throughSummary(Edge);
  EXPECT_EQ(NodeX.MayUse, RegSet({1, 3}));
  EXPECT_EQ(NodeX.MayDef, RegSet({2, 7, 9}));
  EXPECT_EQ(NodeX.MustDef, RegSet({2, 9}));
}

TEST(FlowSetsTest, BoundaryValues) {
  RegSet All = RegSet::allBelow(8);
  EXPECT_EQ(FlowSets::atExit(), FlowSets());
  EXPECT_EQ(FlowSets::afterHalt(All).MustDef, All);
  EXPECT_TRUE(FlowSets::afterHalt(All).MayUse.empty());
  EXPECT_EQ(FlowSets::unknownCode(All).MayUse, All);
  EXPECT_EQ(FlowSets::unknownCode(All).MayDef, All);
  EXPECT_TRUE(FlowSets::unknownCode(All).MustDef.empty());
}

namespace {

/// The Program borrows \p Img's words: a temporary image does not
/// compile.
Program buildProg(const Image &Img) {
  Program Prog = buildProgram(Img, CallingConv());
  computeDefUbd(Prog);
  return Prog;
}
Program buildProg(const Image &&Img) = delete;

} // namespace

TEST(LivenessTest, StraightLineRoutine) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emit(inst::rrr(Opcode::Add, 2, 1, 1)); // R2 = R1 + R1.
  B.emit(inst::mov(reg::V0, 2));
  B.emit(inst::ret());
  Image Img = B.build();
  Program Prog = buildProg(Img);
  const Routine &R = Prog.Routines[0];
  auto Live = solveLiveness(
      R, [](uint32_t) { return CallEffect(); },
      [](uint32_t) { return RegSet({reg::V0}); },
      RegSet::allBelow(NumIntRegs));
  // At entry, R1 (input) and ra (for ret) are live.
  EXPECT_EQ(Live.LiveIn[0], RegSet({1, reg::RA}));
  EXPECT_EQ(Live.LiveOut[0], RegSet({reg::V0}));
}

TEST(LivenessTest, DiamondJoinsPaths) {
  ProgramBuilder B;
  B.beginRoutine("f");
  ProgramBuilder::LabelId Else = B.makeLabel(), End = B.makeLabel();
  B.emitCondBr(Opcode::Beq, 1, Else); // b0: uses R1.
  B.emit(inst::mov(reg::V0, 2));              // b1: uses R2.
  B.emitBr(End);
  B.bind(Else);
  B.emit(inst::mov(reg::V0, 3)); // b2: uses R3.
  B.bind(End);
  B.emit(inst::ret()); // b3.
  Image Img = B.build();
  Program Prog = buildProg(Img);
  const Routine &R = Prog.Routines[0];
  auto Live = solveLiveness(
      R, [](uint32_t) { return CallEffect(); },
      [](uint32_t) { return RegSet({reg::V0}); },
      RegSet::allBelow(NumIntRegs));
  EXPECT_EQ(Live.LiveIn[0], RegSet({1, 2, 3, reg::RA}));
}

TEST(LivenessTest, LoopKeepsLoopCarriedValueLive) {
  ProgramBuilder B;
  B.beginRoutine("f");
  ProgramBuilder::LabelId Head = B.makeLabel();
  B.bind(Head);
  B.emit(inst::rri(Opcode::SubI, 1, 1, 1)); // R1 -= 1.
  B.emitCondBr(Opcode::Bne, 1, Head);
  B.emit(inst::ret());
  Image Img = B.build();
  Program Prog = buildProg(Img);
  const Routine &R = Prog.Routines[0];
  auto Live = solveLiveness(
      R, [](uint32_t) { return CallEffect(); },
      [](uint32_t) { return RegSet(); }, RegSet::allBelow(NumIntRegs));
  EXPECT_TRUE(Live.LiveIn[0].contains(1));
  EXPECT_TRUE(Live.LiveOut[0].contains(1)); // Live around the back edge.
}

TEST(LivenessTest, CallEffectAppliedAtCallBlocks) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emitCall("g");
  B.emit(inst::mov(reg::V0, 5)); // Uses R5 after the call.
  B.emit(inst::ret());
  B.beginRoutine("g");
  B.emit(inst::ret());
  Image Img = B.build();
  Program Prog = buildProg(Img);
  const Routine &R = Prog.Routines[0];
  CallEffect Effect;
  Effect.Used = RegSet({reg::A0});
  Effect.Defined = RegSet({5, reg::RA}); // The call must define R5.
  auto Live = solveLiveness(
      R, [&](uint32_t) { return Effect; },
      [](uint32_t) { return RegSet(); }, RegSet::allBelow(NumIntRegs));
  // R5 is defined by the call, so not live before it; a0 is.
  EXPECT_FALSE(Live.LiveIn[0].contains(5));
  EXPECT_TRUE(Live.LiveIn[0].contains(reg::A0));
  // ra is call-defined, so not live before the call either.
  EXPECT_FALSE(Live.LiveIn[0].contains(reg::RA));
}

TEST(LivenessTest, UnresolvedJumpMakesEverythingLive) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emit(inst::jmpR(4));
  Image Img = B.build();
  Program Prog = buildProg(Img);
  const Routine &R = Prog.Routines[0];
  auto Live = solveLiveness(
      R, [](uint32_t) { return CallEffect(); },
      [](uint32_t) { return RegSet(); }, RegSet::allBelow(NumIntRegs));
  EXPECT_EQ(Live.LiveOut[0], RegSet::allBelow(NumIntRegs));
}

TEST(LivenessTest, LiveBeforeEachInstReplaysBackward) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emit(inst::lda(1, 10));              // 0: def R1.
  B.emit(inst::rrr(Opcode::Add, 2, 1, 1)); // 1: R2 = R1+R1.
  B.emit(inst::mov(reg::V0, 2));         // 2: use R2.
  B.emit(inst::ret());                   // 3.
  Image Img = B.build();
  Program Prog = buildProg(Img);
  const Routine &R = Prog.Routines[0];
  std::vector<RegSet> Live = liveBeforeEachInst(
      Prog, R, 0, /*LiveOut=*/RegSet({reg::V0}), nullptr);
  ASSERT_EQ(Live.size(), 4u);
  EXPECT_FALSE(Live[0].contains(1)); // R1 dead before its def.
  EXPECT_TRUE(Live[1].contains(1));
  EXPECT_TRUE(Live[2].contains(2));
  EXPECT_FALSE(Live[3].contains(2));
  EXPECT_TRUE(Live[3].contains(reg::RA));
}

TEST(LivenessTest, LiveBeforeEachInstHandlesCallSummary) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emit(inst::lda(reg::A0, 1)); // 0.
  B.emitCall("g");               // 1.
  B.emit(inst::ret());
  B.beginRoutine("g");
  B.emit(inst::ret());
  Image Img = B.build();
  Program Prog = buildProg(Img);
  const Routine &R = Prog.Routines[0];
  CallEffect Effect;
  Effect.Used = RegSet({reg::A0});
  Effect.Defined = RegSet({reg::V0, reg::RA});
  std::vector<RegSet> Live =
      liveBeforeEachInst(Prog, R, 0, RegSet({reg::V0}), &Effect);
  ASSERT_EQ(Live.size(), 2u);
  EXPECT_TRUE(Live[1].contains(reg::A0));  // Call-used.
  EXPECT_FALSE(Live[1].contains(reg::V0)); // Call-defined.
  EXPECT_FALSE(Live[0].contains(reg::A0)); // Defined by the lda.
}
