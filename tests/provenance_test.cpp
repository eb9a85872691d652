//===- tests/provenance_test.cpp - witness chains over derivations ---------===//
//
// The provenance engine's contract: every bit the analysis sets gets a
// shortest witness chain, searched on demand over the converged graph,
// that walks back to a ground fact and replays against the graph without
// consulting the search.
//
// Three layers of evidence:
//   - semantics: the Figure 2 program's live-at-entry bits produce the
//     chains the paper's worked example predicts (intraprocedural uses
//     ground immediately, R0-through-P2 crosses into the caller), and a
//     bit with a long and a short derivation gets the short one,
//   - adversarial: tampered witnesses (wrong register, truncated ground,
//     wrong edge) fail replay with a diagnostic,
//   - differential: all 20 synthetic profiles audit clean — every
//     live-at-entry bit of every entrance, and every MAY-USE, MAY-DEF and
//     Live bit at every node, builds and replays.
//
// The jobs-count byte-identity of rendered witnesses lives in
// parallel_test.cpp next to the rest of the determinism evidence.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Registers.h"
#include "provenance/Witness.h"
#include "psg/Analyzer.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Telemetry.h"
#include "DifferentialCorpus.h"
#include "Figure2.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

using namespace spike;
using namespace spike::testfigure2;

namespace {

uint32_t entryNode(const Figure2Results &R, uint32_t RoutineIndex) {
  return R.Analysis.Psg.entryNode(RoutineIndex, 0);
}

/// The address of the first instruction in \p RoutineIndex defining
/// \p Reg, or UINT64_MAX.
uint64_t firstDefAddress(const Program &Prog, uint32_t RoutineIndex,
                         unsigned Reg) {
  const Routine &R = Prog.Routines[RoutineIndex];
  for (uint64_t Address = R.Begin; Address < R.End; ++Address)
    if (Prog.inst(Address).defs().contains(Reg))
      return Address;
  return UINT64_MAX;
}

} // namespace

//===----------------------------------------------------------------------===//
// Figure 2 semantics
//===----------------------------------------------------------------------===//

TEST(WitnessTest, Figure2FactSetsMatchPaperSets) {
  Figure2Results R = analyzeFigure2();
  // "in routine P2 live-at-entry = {R0, R1}".
  EXPECT_EQ(masked(factSet(R.Analysis, ProvFact::Live, entryNode(R, R.P2))),
            RegSet({0, 1}));
  // MAY-USE[P2] = {R1}; the node set is pre-filter, so only containment
  // of the paper register is asserted.
  EXPECT_TRUE(factSet(R.Analysis, ProvFact::MayUse, entryNode(R, R.P2))
                  .contains(1));
}

TEST(WitnessTest, IntraproceduralUseGroundsImmediately) {
  // R1 is live at P2's entry because P2's own first instruction reads it:
  // the chain must end in an edge-label ground fact.
  Figure2Results R = analyzeFigure2();
  Witness W = buildWitness(R.Analysis, ProvFact::Live, entryNode(R, R.P2), 1);
  ASSERT_TRUE(W.Holds);
  ASSERT_FALSE(W.Steps.empty());
  EXPECT_EQ(W.Steps.front().Node, entryNode(R, R.P2));
  EXPECT_EQ(W.Steps.front().Reg, 1u);
  EXPECT_TRUE(isGroundKind(W.Steps.back().How.Kind));
  EXPECT_TRUE(replayWitness(R.Analysis, W));

  std::string Text = renderWitness(R.Analysis, W);
  EXPECT_NE(Text.find("P2"), std::string::npos);
  EXPECT_NE(Text.find("live"), std::string::npos);
}

TEST(WitnessTest, LivenessThroughCalleeCrossesIntoCaller) {
  // R0 is live at P2's entry only because P1 reads it after the call
  // returns: the witness must leave P2 and touch a caller's node.
  Figure2Results R = analyzeFigure2();
  Witness W = buildWitness(R.Analysis, ProvFact::Live, entryNode(R, R.P2), 0);
  ASSERT_TRUE(W.Holds);
  ASSERT_GE(W.Steps.size(), 2u);
  EXPECT_TRUE(replayWitness(R.Analysis, W));

  bool LeftP2 = false;
  for (const WitnessStep &Step : W.Steps)
    LeftP2 |= R.Analysis.Psg.Nodes[Step.Node].RoutineIndex != R.P2;
  EXPECT_TRUE(LeftP2) << renderWitness(R.Analysis, W);

  // The steps form one connected chain ending in a ground fact.
  for (size_t I = 0; I + 1 < W.Steps.size(); ++I) {
    EXPECT_FALSE(isGroundKind(W.Steps[I].How.Kind));
    EXPECT_EQ(W.Steps[I].How.Node, W.Steps[I + 1].Node);
  }
}

TEST(WitnessTest, ShortestDerivationWinsOverFirstFound) {
  // P reads t3 on one path and calls Q, which reads t3, on the other.
  // P's entry edge to the call node comes first in CSR order, and the
  // solver sets t3 at the call node before it evaluates P's entry, so
  // the first derivation found runs through the call and Q's summary
  // (three steps).  The shortest one is the entry's own edge label.
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");

  B.beginRoutine("P");
  ProgramBuilder::LabelId Call = B.makeLabel();
  B.emitCondBr(Opcode::Beq, 5, Call);
  B.emit(inst::mov(6, 4)); // use t3
  B.emit(inst::ret());
  B.bind(Call);
  B.emitCall("Q");
  B.emit(inst::ret());

  B.beginRoutine("Q");
  B.emit(inst::mov(7, 4)); // use t3
  B.emit(inst::ret());

  Image Img = B.build();
  AnalysisResult A = analyzeImage(Img);
  uint32_t P = 0;
  while (A.Prog.Routines[P].Name != "P")
    ++P;
  uint32_t Entry = A.Psg.entryNode(P, 0);
  for (ProvFact Fact : {ProvFact::MayUse, ProvFact::Live}) {
    Witness W = buildWitness(A, Fact, Entry, 4);
    ASSERT_TRUE(W.Holds) << provFactName(Fact);
    EXPECT_TRUE(replayWitness(A, W));
    ASSERT_EQ(W.Steps.size(), 1u) << renderWitness(A, W);
    EXPECT_EQ(W.Steps[0].How.Kind, ProvKind::EdgeLabel);
  }
}

TEST(WitnessTest, AbsentFactHasNoWitness) {
  // R3 is not live at P2's entry (nothing reads it before its one
  // conditional definition): least-fixpoint minimality, no witness.
  Figure2Results R = analyzeFigure2();
  Witness W = buildWitness(R.Analysis, ProvFact::Live, entryNode(R, R.P2), 3);
  EXPECT_FALSE(W.Holds);
  EXPECT_TRUE(W.Steps.empty());
  std::string Text = renderWitness(R.Analysis, W);
  EXPECT_NE(Text.find("does not hold"), std::string::npos);
}

TEST(WitnessTest, WitnessPathFeedsDotHighlight) {
  Figure2Results R = analyzeFigure2();
  Witness W = buildWitness(R.Analysis, ProvFact::Live, entryNode(R, R.P2), 0);
  ASSERT_TRUE(W.Holds);
  WitnessPath Path = witnessPath(W);
  EXPECT_FALSE(Path.Nodes.empty());
  for (uint32_t NodeId : Path.Nodes)
    EXPECT_LT(NodeId, R.Analysis.Psg.Nodes.size());
  for (uint32_t EdgeId : Path.Edges)
    EXPECT_LT(EdgeId, R.Analysis.Psg.Edges.size());
}

//===----------------------------------------------------------------------===//
// Adversarial replay
//===----------------------------------------------------------------------===//

TEST(WitnessTest, ReplayRejectsTamperedWitnesses) {
  Figure2Results R = analyzeFigure2();
  Witness Good =
      buildWitness(R.Analysis, ProvFact::Live, entryNode(R, R.P2), 0);
  ASSERT_TRUE(Good.Holds);
  ASSERT_GE(Good.Steps.size(), 2u);
  ASSERT_TRUE(replayWitness(R.Analysis, Good));

  // Claiming a register the fixpoint never set fails the fact check.
  Witness WrongReg = Good;
  for (WitnessStep &Step : WrongReg.Steps)
    Step.Reg = 3;
  std::string Error;
  EXPECT_FALSE(replayWitness(R.Analysis, WrongReg, &Error));
  EXPECT_FALSE(Error.empty());

  // Dropping the ground step leaves a chain that ends mid-air.
  Witness Truncated = Good;
  Truncated.Steps.pop_back();
  EXPECT_FALSE(replayWitness(R.Analysis, Truncated, &Error));

  // Pointing a step at a different node breaks continuity.
  Witness Broken = Good;
  Broken.Steps.front().How.Node = entryNode(R, R.P1);
  EXPECT_FALSE(replayWitness(R.Analysis, Broken, &Error));
}

//===----------------------------------------------------------------------===//
// --why-dead
//===----------------------------------------------------------------------===//

TEST(DeadDefTest, ConditionalDefWithNoReaderIsDead) {
  // P2's `lda r3, 1` is never read anywhere: interprocedurally dead, and
  // the explanation makes the least-fixpoint argument.
  Figure2Results R = analyzeFigure2();
  uint64_t Address = firstDefAddress(R.Analysis.Prog, R.P2, 3);
  ASSERT_NE(Address, UINT64_MAX);
  DeadDefExplanation Ex = explainDeadDef(R.Analysis, Address);
  EXPECT_TRUE(Ex.Found);
  EXPECT_TRUE(Ex.Dead) << Ex.Text;
  EXPECT_EQ(Ex.Reg, 3u);
  EXPECT_FALSE(Ex.Text.empty());
}

TEST(DeadDefTest, DefReadAfterCallIsLiveWithObserver) {
  // P1's `lda r0, 5` survives the call to P2 and is read by the mov
  // after it: the explanation must find that observer.
  Figure2Results R = analyzeFigure2();
  uint64_t Address = firstDefAddress(R.Analysis.Prog, R.P1, 0);
  ASSERT_NE(Address, UINT64_MAX);
  DeadDefExplanation Ex = explainDeadDef(R.Analysis, Address, 0);
  EXPECT_TRUE(Ex.Found);
  EXPECT_FALSE(Ex.Dead) << Ex.Text;
  EXPECT_FALSE(Ex.Text.empty());
}

TEST(DeadDefTest, BogusAddressIsReported) {
  Figure2Results R = analyzeFigure2();
  DeadDefExplanation Ex = explainDeadDef(R.Analysis, 0xdeadbeef);
  EXPECT_FALSE(Ex.Found);
  EXPECT_FALSE(Ex.Text.empty());
}

//===----------------------------------------------------------------------===//
// Differential audit: every profile, every bit
//===----------------------------------------------------------------------===//

TEST(ProvenanceAudit, EveryLiveAtEntryBitReplaysAcrossAllProfiles) {
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  ASSERT_EQ(Corpus.size(), 20u);

  uint64_t TotalBits = 0;
  for (const auto &[Name, Img] : Corpus) {
    AnalysisResult Result = analyzeImage(Img);
    WitnessAudit Audit = auditEntryLiveness(Result);
    EXPECT_GT(Audit.EntriesChecked, 0u) << Name;
    for (const std::string &Failure : Audit.Failures)
      ADD_FAILURE() << Name << ": " << Failure;
    TotalBits += Audit.BitsChecked;
  }
  EXPECT_GT(TotalBits, 1000u);
}

TEST(ProvenanceAudit, EveryRecordedBitReplays) {
  // Every MAY-USE, MAY-DEF and Live bit at every node of the 20 subjects
  // at jobs 1 and 4, not only the live-at-entry bits: one search per
  // (register, goal) must reach every set bit, and its chain must replay.
  // A sample of bits also checks that buildWitness, which stops at the
  // queried state, finds the chain the full search finds.
  std::array<uint64_t, 16> KindSteps{};
  uint64_t TotalBits = 0, Sampled = 0;
  for (const auto &[Name, Img] : testcorpus::differentialCorpus())
    for (unsigned Jobs : {1u, 4u}) {
      AnalysisOptions Opts;
      Opts.Jobs = Jobs;
      AnalysisResult A = analyzeImage(Img, {}, Opts);
      const std::string Where = Name + " jobs=" + std::to_string(Jobs);
      for (unsigned Reg = 0; Reg < NumIntRegs; ++Reg)
        for (ProvFact Goal : {ProvFact::Live, ProvFact::MayDef}) {
          WitnessSearch Search(A, Reg, Goal);
          for (ProvFact Fact :
               {ProvFact::MayUse, ProvFact::MayDef, ProvFact::Live}) {
            if ((Fact == ProvFact::MayDef) != (Goal == ProvFact::MayDef))
              continue;
            for (uint32_t NodeId = 0; NodeId < A.Psg.Nodes.size(); ++NodeId) {
              if (!factSet(A, Fact, NodeId).contains(Reg))
                continue;
              Witness W = Search.witness(Fact, NodeId);
              std::string Err;
              if (!replayWitness(A, W, &Err))
                ADD_FAILURE() << Where << ": " << provFactName(Fact) << " "
                              << regName(Reg) << " at "
                              << describeNode(A, NodeId) << ": " << Err;
              for (const WitnessStep &Step : W.Steps)
                ++KindSteps[unsigned(Step.How.Kind)];
              if (TotalBits++ % 97 == 0) {
                ++Sampled;
                EXPECT_EQ(renderWitness(A, buildWitness(A, Fact, NodeId, Reg)),
                          renderWitness(A, W))
                    << Where;
              }
            }
          }
        }
    }
  EXPECT_GT(TotalBits, 100000u);
  EXPECT_GT(Sampled, 1000u);
  EXPECT_EQ(KindSteps[unsigned(ProvKind::None)], 0u);
  for (ProvKind Kind :
       {ProvKind::EdgeLabel, ProvKind::IndirectCall, ProvKind::CallRa,
        ProvKind::SeedUnknownCaller, ProvKind::EdgeFlow,
        ProvKind::CallSummary, ProvKind::ReturnLive, ProvKind::IndirectHub})
    EXPECT_GT(KindSteps[unsigned(Kind)], 0u) << unsigned(Kind);
}

TEST(ProvenanceAudit, ExplainCountersReachTheSession) {
  Figure2Results R = analyzeFigure2();
  telemetry::Session S("provenance_test");
  {
    telemetry::SessionScope Scope(S);
    Witness W =
        buildWitness(R.Analysis, ProvFact::Live, entryNode(R, R.P2), 0);
    ASSERT_TRUE(W.Holds);
    ASSERT_TRUE(replayWitness(R.Analysis, W));
  }
  EXPECT_EQ(S.counter("explain.queries"), 1u);
  EXPECT_EQ(S.counter("explain.replays"), 1u);
  EXPECT_GT(S.counter("explain.steps"), 0u);
  EXPECT_EQ(S.counter("explain.replay_failures"), 0u);
}
