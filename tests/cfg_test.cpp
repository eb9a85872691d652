//===- tests/cfg_test.cpp - CFG construction unit tests -------------------===//

#include "binary/ProgramBuilder.h"
#include "cfg/CfgBuilder.h"
#include "cfg/SaveRestore.h"
#include "isa/Registers.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

using namespace spike;

namespace {

Program build(const Image &Img) {
  Program Prog = buildProgram(Img, CallingConv());
  computeDefUbd(Prog);
  return Prog;
}

std::vector<uint32_t> arcs(std::span<const uint32_t> Blocks) {
  return {Blocks.begin(), Blocks.end()};
}

/// The Figure 4(a) routine: four blocks, one call.
///
///   b1: use R1, def R2, beq -> b3      (entry block, branches)
///   b2: def R3, br -> b4
///   b3: def R3, jsr callee             (call block; falls through to b4)
///   b4: def R0 from R3, ret            (exit block)
Image figure4Routine() {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("fig4");
  B.emit(inst::halt(reg::V0));

  B.beginRoutine("fig4");
  ProgramBuilder::LabelId L3 = B.makeLabel();
  ProgramBuilder::LabelId L4 = B.makeLabel();
  // b1
  B.emit(inst::lda(2, 1));
  B.emit(inst::rrr(Opcode::Xor, 4, 1, 2)); // uses R1
  B.emitCondBr(Opcode::Beq, 4, L3);
  // b2
  B.emit(inst::lda(3, 2));
  B.emitBr(L4);
  // b3
  B.bind(L3);
  B.emit(inst::lda(3, 3));
  B.emitCall("callee");
  // b4
  B.bind(L4);
  B.emit(inst::mov(0, 3)); // uses R3
  B.emit(inst::ret());

  B.beginRoutine("callee");
  B.emit(inst::ret());
  B.setEntry("main");
  return B.build();
}

} // namespace

TEST(CfgBuilderTest, RoutinePartitionByPrimarySymbols) {
  Program Prog = build(figure4Routine());
  ASSERT_EQ(Prog.Routines.size(), 3u);
  EXPECT_EQ(Prog.Routines[0].Name, "main");
  EXPECT_EQ(Prog.Routines[1].Name, "fig4");
  EXPECT_EQ(Prog.Routines[2].Name, "callee");
  EXPECT_EQ(Prog.Routines[1].Begin, 2u);
  EXPECT_EQ(Prog.EntryRoutine, 0);
}

TEST(CfgBuilderTest, Figure4BlockStructure) {
  Program Prog = build(figure4Routine());
  const Routine &R = Prog.Routines[1];
  ASSERT_EQ(R.Blocks.size(), 4u);

  const BasicBlock &B1 = R.Blocks[0];
  const BasicBlock &B2 = R.Blocks[1];
  const BasicBlock &B3 = R.Blocks[2];
  const BasicBlock &B4 = R.Blocks[3];

  EXPECT_EQ(B1.Term, TerminatorKind::CondBranch);
  EXPECT_EQ(B2.Term, TerminatorKind::Branch);
  EXPECT_EQ(B3.Term, TerminatorKind::Call);
  EXPECT_EQ(B4.Term, TerminatorKind::Return);

  // b1 -> {b3, b2}; b2 -> b4; b3 -> b4 (the call's return point).
  EXPECT_EQ(R.succs(0).size(), 2u);
  EXPECT_EQ(arcs(R.succs(1)), (std::vector<uint32_t>{3}));
  EXPECT_EQ(arcs(R.succs(2)), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(R.succs(3).empty());
  EXPECT_EQ(R.preds(3).size(), 2u);
  EXPECT_EQ(arcs(R.preds(3)), (std::vector<uint32_t>{1, 2})); // Ascending.

  EXPECT_EQ(arcs(R.EntryBlocks), (std::vector<uint32_t>{0}));
  EXPECT_EQ(arcs(R.ExitBlocks), (std::vector<uint32_t>{3}));
  EXPECT_EQ(arcs(R.CallBlocks), (std::vector<uint32_t>{2}));
  EXPECT_EQ(R.NumBranches, 2u); // beq and br.
}

TEST(CfgBuilderTest, CallTargetsResolved) {
  Program Prog = build(figure4Routine());
  const Routine &R = Prog.Routines[1];
  const BasicBlock &CallBlock = R.Blocks[2];
  EXPECT_EQ(CallBlock.CalleeRoutine, 2);
  EXPECT_EQ(CallBlock.CalleeEntry, 0);
}

TEST(CfgBuilderTest, DefUbdSets) {
  Program Prog = build(figure4Routine());
  const Routine &R = Prog.Routines[1];
  // b1: lda R2; xor R4, R1, R2; beq R4.
  EXPECT_EQ(R.Blocks[0].Def, RegSet({2, 4}));
  EXPECT_EQ(R.Blocks[0].Ubd, RegSet({1}));
  // b3: lda R3; jsr (call def of ra excluded; jsr has no uses).
  EXPECT_EQ(R.Blocks[2].Def, RegSet({3}));
  EXPECT_TRUE(R.Blocks[2].Ubd.empty());
  // b4: mov R0, R3; ret (ret uses ra).
  EXPECT_EQ(R.Blocks[3].Def, RegSet({0}));
  EXPECT_EQ(R.Blocks[3].Ubd, RegSet({3, reg::RA}));
}

TEST(CfgBuilderTest, IndirectCallUsesItsRegisterInUbd) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitLoadRoutineAddress(reg::PV, "t");
  B.emit(inst::jsrR(reg::PV));
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("t", true);
  B.emit(inst::ret());
  Program Prog = build(B.build());
  const BasicBlock &CallBlock = Prog.Routines[0].Blocks[0];
  EXPECT_EQ(CallBlock.Term, TerminatorKind::IndirectCall);
  // pv is defined by the lda before the call, so not used-before-defined.
  EXPECT_FALSE(CallBlock.Ubd.contains(reg::PV));
  EXPECT_TRUE(CallBlock.Def.contains(reg::PV));
  EXPECT_FALSE(CallBlock.Def.contains(reg::RA)); // call def excluded.
}

TEST(CfgBuilderTest, JumpTableSuccessors) {
  ProgramBuilder B;
  B.beginRoutine("main");
  ProgramBuilder::LabelId A0 = B.makeLabel(), A1 = B.makeLabel(),
                          End = B.makeLabel();
  B.emitTableJump(1, {A0, A1, A0}); // Duplicate target: dedup expected.
  B.bind(A0);
  B.emitBr(End);
  B.bind(A1);
  B.emit(inst::nop());
  B.bind(End);
  B.emit(inst::halt(reg::V0));
  Program Prog = build(B.build());
  const Routine &R = Prog.Routines[0];
  const BasicBlock &Jump = R.Blocks[0];
  EXPECT_EQ(Jump.Term, TerminatorKind::TableJump);
  EXPECT_EQ(Jump.JumpTableIndex, 0);
  EXPECT_EQ(R.succs(0).size(), 2u); // Deduplicated.
  EXPECT_EQ(R.NumBranches, 2u);     // Table jump + br.
}

TEST(CfgBuilderTest, UnresolvedJumpIsConservativeTerminator) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::jmpR(5));
  Program Prog = build(B.build());
  const BasicBlock &Block = Prog.Routines[0].Blocks[0];
  EXPECT_EQ(Block.Term, TerminatorKind::UnresolvedJump);
  EXPECT_TRUE(Prog.Routines[0].succs(0).empty());
}

TEST(CfgBuilderTest, CrossRoutineBranchTreatedAsUnresolved) {
  // A branch that leaves its routine (tail call) gets the conservative
  // treatment.
  ProgramBuilder B;
  B.beginRoutine("a");
  ProgramBuilder::LabelId Target = B.makeLabel();
  B.emitBr(Target);
  B.beginRoutine("b");
  B.bind(Target);
  B.emit(inst::ret());
  Program Prog = build(B.build());
  EXPECT_EQ(Prog.Routines[0].Blocks[0].Term,
            TerminatorKind::UnresolvedJump);
}

TEST(CfgBuilderTest, CallTargetBecomesExtraEntrance) {
  // A call into the middle of a routine (no symbol there) must register
  // an entrance.
  ProgramBuilder B;
  B.beginRoutine("main");
  ProgramBuilder::LabelId Mid = B.makeLabel();
  B.emitCallTo(Mid);
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("r");
  B.emit(inst::nop());
  B.bind(Mid);
  B.emit(inst::ret());
  Program Prog = build(B.build());
  const Routine &R = Prog.Routines[1];
  ASSERT_EQ(R.numEntries(), 2u);
  EXPECT_EQ(R.EntryAddresses[1], 3u);
  const BasicBlock &CallBlock = Prog.Routines[0].Blocks[0];
  EXPECT_EQ(CallBlock.CalleeRoutine, 1);
  EXPECT_EQ(CallBlock.CalleeEntry, 1);
}

TEST(CfgBuilderTest, SecondaryEntranceStartsBlock) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::nop());
  B.emit(inst::nop());
  B.addSecondaryEntry("main.alt");
  B.emit(inst::nop());
  B.emit(inst::halt(reg::V0));
  Program Prog = build(B.build());
  const Routine &R = Prog.Routines[0];
  ASSERT_EQ(R.numEntries(), 2u);
  ASSERT_EQ(R.Blocks.size(), 2u);
  EXPECT_EQ(R.EntryBlocks[1], 1u);
  EXPECT_EQ(R.Blocks[1].Begin, 2u);
}

TEST(CfgBuilderTest, FindRoutineByAddress) {
  Program Prog = build(figure4Routine());
  // main = [0,2), fig4 = [2,11), callee = [11,12).
  EXPECT_EQ(findRoutineByAddress(Prog, 0), 0);
  EXPECT_EQ(findRoutineByAddress(Prog, 2), 1);
  EXPECT_EQ(findRoutineByAddress(Prog, 10), 1);
  EXPECT_EQ(findRoutineByAddress(Prog, 11), 2);
  EXPECT_EQ(findRoutineByAddress(Prog, 9999), -1);
}

TEST(CfgBuilderTest, CountsMatchAcrossProgram) {
  Program Prog = build(figure4Routine());
  // main = {call block, halt block}, fig4 = 4 blocks, callee = 1 block.
  EXPECT_EQ(Prog.numBlocks(), 2u + 4u + 1u);
  // Arcs: main call->halt (1); fig4 b1->{b2,b3}, b2->b4, b3->b4 (4).
  EXPECT_EQ(Prog.numArcs(), 1u + 4u + 0u);
}

namespace {

/// A routine with a conventional prologue/epilogue saving s0.
Image savedRegRoutine(bool RestoreOnBothExits, bool ClobberSlot = false) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  ProgramBuilder::LabelId Out = B.makeLabel();
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::stq(reg::S0, 0, reg::SP));
  B.emit(inst::mov(reg::S0, reg::A0));
  if (ClobberSlot)
    B.emit(inst::stq(reg::A0, 0, reg::SP));
  B.emitCondBr(Opcode::Beq, reg::A0, Out);
  // Exit 1.
  B.emit(inst::mov(reg::V0, reg::S0));
  B.emit(inst::ldq(reg::S0, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  // Exit 2.
  B.bind(Out);
  B.emit(inst::lda(reg::V0, 0));
  if (RestoreOnBothExits)
    B.emit(inst::ldq(reg::S0, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  B.setEntry("main");
  return B.build();
}

} // namespace

TEST(SaveRestoreTest, DetectsSavedAndRestoredRegister) {
  Program Prog = build(savedRegRoutine(/*RestoreOnBothExits=*/true));
  SaveRestoreInfo Info = analyzeSaveRestore(Prog, Prog.Routines[1]);
  EXPECT_TRUE(Info.Saved.contains(reg::S0));
  ASSERT_EQ(Info.Details.size(), 1u);
  EXPECT_EQ(Info.Details[0].Reg, reg::S0);
  EXPECT_EQ(Info.Details[0].Slot, 0);
  EXPECT_EQ(Info.Details[0].SaveAddrs.size(), 1u);
  EXPECT_EQ(Info.Details[0].RestoreAddrs.size(), 2u);
}

TEST(SaveRestoreTest, MissingRestoreOnOneExitRejects) {
  Program Prog = build(savedRegRoutine(/*RestoreOnBothExits=*/false));
  SaveRestoreInfo Info = analyzeSaveRestore(Prog, Prog.Routines[1]);
  EXPECT_FALSE(Info.Saved.contains(reg::S0));
}

TEST(SaveRestoreTest, UseBeforeSaveRejects) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::mov(reg::T0, reg::S0)); // Reads s0 before saving it.
  B.emit(inst::stq(reg::S0, 0, reg::SP));
  B.emit(inst::ldq(reg::S0, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  Program Prog = build(B.build());
  SaveRestoreInfo Info = analyzeSaveRestore(Prog, Prog.Routines[0]);
  EXPECT_FALSE(Info.Saved.contains(reg::S0));
}

TEST(SaveRestoreTest, RedefinitionAfterRestoreRejects) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::stq(reg::S0, 0, reg::SP));
  B.emit(inst::ldq(reg::S0, 0, reg::SP));
  B.emit(inst::lda(reg::S0, 5)); // Clobbers s0 after the restore.
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  Program Prog = build(B.build());
  SaveRestoreInfo Info = analyzeSaveRestore(Prog, Prog.Routines[0]);
  EXPECT_FALSE(Info.Saved.contains(reg::S0));
}

TEST(SaveRestoreTest, NonCalleeSavedRegistersIgnored) {
  ProgramBuilder B;
  B.beginRoutine("f");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::stq(reg::T0, 0, reg::SP));
  B.emit(inst::ldq(reg::T0, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  Program Prog = build(B.build());
  SaveRestoreInfo Info = analyzeSaveRestore(Prog, Prog.Routines[0]);
  EXPECT_TRUE(Info.Saved.empty());
}
