//===- tests/opt_test.cpp - optimization pass tests ------------------------===//
//
// Hand-built Figure 1 scenarios for each pass, plus the global property:
// optimizing any generated executable preserves observable behaviour
// (simulator-checked) while deleting instructions.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Encoding.h"
#include "isa/Registers.h"
#include "opt/Pipeline.h"
#include "opt/UnreachableElim.h"
#include "psg/Analyzer.h"
#include "sim/Simulator.h"
#include "synth/ExecGenerator.h"

#include <gtest/gtest.h>

using namespace spike;

namespace {

bool isNopAt(const Image &Img, uint64_t Address) {
  std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
  return Inst && Inst->Op == Opcode::Nop;
}

} // namespace

TEST(DeadDefElimTest, Figure1aDeadReturnValue) {
  // Figure 1(a): callee computes a value in v0 that no caller reads.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::lda(reg::V0, 42)); // address 3: dead (no caller uses v0).
  B.emit(inst::ret());
  Image Img = B.build();

  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  DeadDefStats Stats =
      eliminateDeadDefs(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_GE(Stats.DeletedInsts, 1u);
  EXPECT_TRUE(isNopAt(Img, 3));
}

TEST(DeadDefElimTest, Figure1bDeadArgument) {
  // Figure 1(b): caller sets a1 but the callee only reads a0.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::A0, 1));     // 0: used by callee.
  B.emit(inst::lda(reg::A0 + 1, 2)); // 1: dead argument.
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::mov(reg::V0, reg::A0));
  B.emit(inst::ret());
  Image Img = B.build();

  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  DeadDefStats Stats =
      eliminateDeadDefs(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_GE(Stats.DeletedInsts, 1u);
  EXPECT_TRUE(isNopAt(Img, 1));
  EXPECT_FALSE(isNopAt(Img, 0)); // The live argument stays.
}

TEST(DeadDefElimTest, LiveValueAcrossCallSurvives) {
  // t9 is read after the call and the callee does not define it, so its
  // def must NOT be deleted.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::T8 + 1, 3)); // t9.
  B.emitCall("f");
  B.emit(inst::rrr(Opcode::Add, reg::V0, reg::V0, reg::T8 + 1));
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::lda(reg::V0, 1));
  B.emit(inst::ret());
  Image Img = B.build();
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  eliminateDeadDefs(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_FALSE(isNopAt(Img, 0));
}

TEST(SpillRemovalTest, Figure1cRemovableSpill) {
  // Figure 1(c): t0 spilled around a call that provably does not kill it.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8)); // 0
  B.emit(inst::lda(reg::T0, 5));                        // 1
  B.emit(inst::stq(reg::T0, 0, reg::SP));               // 2: spill store.
  B.emitCall("quiet");                                  // 3
  B.emit(inst::ldq(reg::T0, 0, reg::SP));               // 4: reload.
  B.emit(inst::rrr(Opcode::Add, reg::V0, reg::V0, reg::T0)); // 5
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));      // 6
  B.emit(inst::halt(reg::V0));                               // 7
  B.beginRoutine("quiet"); // Touches only v0.
  B.emit(inst::lda(reg::V0, 1));
  B.emit(inst::ret());
  Image Img = B.build();

  SimResult Before = simulate(Img);
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  SpillRemovalStats Stats =
      removeCallSpills(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_EQ(Stats.RemovedPairs, 1u);
  EXPECT_TRUE(isNopAt(Img, 2));
  EXPECT_TRUE(isNopAt(Img, 4));
  SimResult After = simulate(Img);
  EXPECT_TRUE(Before.sameObservable(After));
  EXPECT_EQ(After.ExitValue, 6);
}

TEST(SpillRemovalTest, SpillNeededWhenCalleeKillsRegister) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::lda(reg::T0, 5));
  B.emit(inst::stq(reg::T0, 0, reg::SP));
  B.emitCall("clobber");
  B.emit(inst::ldq(reg::T0, 0, reg::SP));
  B.emit(inst::rrr(Opcode::Add, reg::V0, reg::V0, reg::T0));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("clobber"); // Kills t0.
  B.emit(inst::lda(reg::T0, 999));
  B.emit(inst::lda(reg::V0, 1));
  B.emit(inst::ret());
  Image Img = B.build();
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  SpillRemovalStats Stats =
      removeCallSpills(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_EQ(Stats.RemovedPairs, 0u);
}

TEST(SaveRestoreElimTest, Figure1dReallocatesCalleeSaved) {
  // Figure 1(d): f keeps a value in s0 across a call to "quiet", which
  // kills nothing a temporary couldn't provide; s0's save/restore is
  // deleted and s0 is renamed to a free temporary.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::A0, 10));
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8)); // 3
  B.emit(inst::stq(reg::S0, 0, reg::SP));               // 4: save.
  B.emit(inst::stq(reg::RA, 1, reg::SP));               // 5: save ra.
  B.emit(inst::mov(reg::S0, reg::A0));                  // 6
  B.emitCall("quiet");                                  // 7
  B.emit(inst::rrr(Opcode::Add, reg::V0, reg::V0, reg::S0)); // 8
  B.emit(inst::ldq(reg::RA, 1, reg::SP));               // 9
  B.emit(inst::ldq(reg::S0, 0, reg::SP));               // 10: restore.
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8)); // 11
  B.emit(inst::ret());                                  // 12
  B.beginRoutine("quiet");
  B.emit(inst::lda(reg::V0, 1));
  B.emit(inst::ret());
  Image Img = B.build();

  SimResult Before = simulate(Img);
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  SaveRestoreElimStats Stats =
      eliminateSaveRestores(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_EQ(Stats.EliminatedRegs, 1u);
  EXPECT_TRUE(isNopAt(Img, 4));
  EXPECT_TRUE(isNopAt(Img, 10));
  EXPECT_GE(Stats.RenamedInsts, 2u);
  // s0 must be gone from f's body.
  for (uint64_t A = 3; A <= 12; ++A) {
    Instruction Inst = *decodeInstruction(Img.Code[A]);
    EXPECT_FALSE(Inst.uses().contains(reg::S0) ||
                 Inst.defs().contains(reg::S0))
        << "address " << A;
  }
  SimResult After = simulate(Img);
  EXPECT_TRUE(Before.sameObservable(After));
  EXPECT_EQ(After.ExitValue, 11);
}

TEST(SaveRestoreElimTest, IncomingValueUseBlocksRenaming) {
  // f reads the caller's s0 after saving it; renaming would break that.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::S0, 77));
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::stq(reg::S0, 0, reg::SP));
  B.emit(inst::mov(reg::V0, reg::S0)); // Reads the incoming value!
  B.emit(inst::ldq(reg::S0, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  Image Img = B.build();
  SimResult Before = simulate(Img);
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  SaveRestoreElimStats Stats =
      eliminateSaveRestores(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_EQ(Stats.EliminatedRegs, 0u);
  SimResult After = simulate(Img);
  EXPECT_TRUE(Before.sameObservable(After));
  EXPECT_EQ(After.ExitValue, 77);
}

TEST(SaveRestoreElimTest, UnusedExtraSaveIsDeleted) {
  // s1 saved and restored but never otherwise touched: pure overhead.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("f");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("f");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::stq(reg::S0 + 1, 0, reg::SP));
  B.emit(inst::lda(reg::V0, 5));
  B.emit(inst::ldq(reg::S0 + 1, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::ret());
  Image Img = B.build();
  SimResult Before = simulate(Img);
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  SaveRestoreElimStats Stats =
      eliminateSaveRestores(Img, Analysis.Prog, Analysis.Summaries);
  EXPECT_EQ(Stats.EliminatedRegs, 1u);
  EXPECT_EQ(Stats.DeletedInsts, 2u);
  SimResult After = simulate(Img);
  EXPECT_TRUE(Before.sameObservable(After));
}

class OptimizerSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerSoundness, PipelinePreservesObservableBehavior) {
  ExecProfile P;
  P.Routines = 16;
  P.Seed = GetParam() * 7919 + 1;
  Image Img = generateExecProgram(P);
  ASSERT_FALSE(Img.verify().has_value());

  SimResult Before = simulate(Img);
  ASSERT_EQ(Before.Exit, SimExit::Halted);

  Image Optimized = Img;
  PipelineStats Stats = optimizeImage(Optimized);
  ASSERT_FALSE(Optimized.verify().has_value());

  SimResult After = simulate(Optimized);
  EXPECT_TRUE(Before.sameObservable(After))
      << "seed " << P.Seed << ": exit " << simExitName(Before.Exit)
      << "/" << simExitName(After.Exit) << " value " << Before.ExitValue
      << "/" << After.ExitValue;

  // The generator plants optimization opportunities; at least some must
  // be found, and the optimized binary must do less useful work.
  EXPECT_GT(Stats.totalDeleted(), 0u) << "seed " << P.Seed;
  EXPECT_LE(After.usefulSteps(), Before.usefulSteps());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerSoundness,
                         ::testing::Range(uint64_t(1), uint64_t(21)));

TEST(PipelineTest, ReachesFixpoint) {
  ExecProfile P;
  P.Routines = 10;
  P.Seed = 5;
  Image Img = generateExecProgram(P);
  PipelineStats First = optimizeImage(Img, CallingConv(), /*MaxRounds=*/4);
  EXPECT_GT(First.Rounds, 0u);
  // Re-optimizing a fixpoint image changes nothing.
  PipelineStats Second = optimizeImage(Img);
  EXPECT_EQ(Second.totalDeleted(), 0u);
  EXPECT_EQ(Second.Rounds, 1u);
}

TEST(SaveRestoreElimTest, RecursiveRoutineIsNotReallocated) {
  // A recursive factorial keeping its argument in s0: renaming s0 to a
  // temporary would make the recursive call clobber the value (the
  // routine's own rewrite invalidates its "callee does not kill the
  // replacement" premise).  The pass must decline.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::A0, 5));
  B.emitCall("fact");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("fact");
  ProgramBuilder::LabelId Base = B.makeLabel();
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 4));
  B.emit(inst::stq(reg::RA, 0, reg::SP));
  B.emit(inst::stq(reg::S0, 1, reg::SP));
  B.emit(inst::mov(reg::S0, reg::A0));
  B.emit(inst::lda(reg::V0, 1));
  B.emitCondBr(Opcode::Beq, reg::S0, Base);
  B.emit(inst::rri(Opcode::SubI, reg::A0, reg::S0, 1));
  B.emitCall("fact");
  B.emit(inst::rrr(Opcode::Add, reg::V0, reg::V0, reg::S0)); // Uses s0
  B.bind(Base);                                              // after call.
  B.emit(inst::ldq(reg::S0, 1, reg::SP));
  B.emit(inst::ldq(reg::RA, 0, reg::SP));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 4));
  B.emit(inst::ret());
  Image Img = B.build();

  SimResult Before = simulate(Img);
  ASSERT_EQ(Before.Exit, SimExit::Halted);
  Image Optimized = Img;
  PipelineStats Stats = optimizeImage(Optimized);
  (void)Stats;
  SimResult After = simulate(Optimized);
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(SaveRestoreElimTest, MutualRecursionIsNotReallocated) {
  // even/odd mutual recursion: both routines sit in a call-graph cycle.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::A0, 7));
  B.emitCall("isEven");
  B.emit(inst::halt(reg::V0));
  auto MakeHalf = [&](const char *Name, const char *Other,
                      int32_t BaseValue) {
    B.beginRoutine(Name);
    ProgramBuilder::LabelId BaseCase = B.makeLabel();
    B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 4));
    B.emit(inst::stq(reg::RA, 0, reg::SP));
    B.emit(inst::stq(reg::S0, 1, reg::SP));
    B.emit(inst::mov(reg::S0, reg::A0));
    B.emit(inst::lda(reg::V0, BaseValue));
    B.emitCondBr(Opcode::Beq, reg::S0, BaseCase);
    B.emit(inst::rri(Opcode::SubI, reg::A0, reg::S0, 1));
    B.emitCall(Other);
    B.bind(BaseCase);
    B.emit(inst::ldq(reg::S0, 1, reg::SP));
    B.emit(inst::ldq(reg::RA, 0, reg::SP));
    B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 4));
    B.emit(inst::ret());
  };
  MakeHalf("isEven", "isOdd", 1);
  MakeHalf("isOdd", "isEven", 0);
  Image Img = B.build();

  SimResult Before = simulate(Img);
  ASSERT_EQ(Before.Exit, SimExit::Halted);
  EXPECT_EQ(Before.ExitValue, 0); // 7 is odd.
  Image Optimized = Img;
  optimizeImage(Optimized);
  SimResult After = simulate(Optimized);
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(UnreachableElimTest, RemovesDeadKeepsLive) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("used");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("used");
  B.emitCall("transitively_used");
  B.emit(inst::ret());
  B.beginRoutine("transitively_used");
  B.emit(inst::lda(reg::V0, 3));
  B.emit(inst::ret());
  B.beginRoutine("dead");
  B.emit(inst::lda(reg::V0, 99));
  B.emit(inst::ret());
  B.beginRoutine("taken", /*AddressTaken=*/true);
  B.emit(inst::ret());
  B.beginRoutine("dead_caller_of_dead");
  B.emitCall("dead");
  B.emit(inst::ret());
  Image Img = B.build();

  SimResult Before = simulate(Img);
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  UnreachableElimStats Stats =
      eliminateUnreachableRoutines(Img, Analysis.Prog);
  EXPECT_EQ(Stats.RoutinesRemoved, 2u);
  EXPECT_EQ(Stats.RemovedNames,
            (std::vector<std::string>{"dead", "dead_caller_of_dead"}));
  ASSERT_FALSE(Img.verify().has_value());
  SimResult After = simulate(Img);
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(UnreachableElimTest, EverythingReachableIsKept) {
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 4;
  Image Img = generateExecProgram(P);
  Image PrePass = Img;
  AnalysisResult Analysis = analyzeImage(PrePass);
  UnreachableElimStats Stats =
      eliminateUnreachableRoutines(Img, Analysis.Prog);
  // The exec generator's call graph may leave some routines uncalled;
  // whatever is removed, behaviour must hold and reachable code must
  // stay byte-identical.
  SimResult R = simulate(Img);
  EXPECT_EQ(R.Exit, SimExit::Halted);
  (void)Stats;
}
