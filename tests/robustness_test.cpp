//===- tests/robustness_test.cpp - fuzzing + structural invariants ---------===//
//
// Deterministic robustness tests:
//   - image-reader fuzzing: random byte corruptions of a serialized
//     image must never crash; any image that loads must verify or be
//     reported as malformed,
//   - assembler fuzzing: random line corruption must produce errors, not
//     crashes,
//   - PSG structural invariants checked across randomized programs.
//
//===----------------------------------------------------------------------===//

#include "binary/Assembler.h"
#include "lint/Linter.h"
#include "psg/Analyzer.h"
#include "support/Rng.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "TestPaths.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace spike;

TEST(FuzzTest, CorruptedImagesNeverCrashTheReader) {
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 99;
  std::vector<uint8_t> Bytes = writeImage(generateExecProgram(P));

  Rng Rand(2024);
  for (int Trial = 0; Trial < 3000; ++Trial) {
    std::vector<uint8_t> Mutated = Bytes;
    // Flip 1-8 random bytes.
    unsigned Flips = 1 + unsigned(Rand.below(8));
    for (unsigned F = 0; F < Flips; ++F)
      Mutated[Rand.below(Mutated.size())] ^= uint8_t(Rand.below(256));
    std::string Error;
    std::optional<Image> Img = readImage(Mutated, &Error);
    if (!Img) {
      EXPECT_FALSE(Error.empty());
      continue;
    }
    // The bytes decoded to an image; verification must classify it
    // without crashing (either outcome is fine).
    (void)Img->verify();
  }
}

TEST(FuzzTest, TruncatedImagesAlwaysFailCleanly) {
  ExecProfile P;
  P.Routines = 6;
  P.Seed = 7;
  std::vector<uint8_t> Bytes = writeImage(generateExecProgram(P));
  // Every strict prefix must be rejected or load (annotation sections
  // are optional) — never crash.
  for (size_t Len = 0; Len < Bytes.size(); Len += 7) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    std::string Error;
    (void)readImage(Prefix, &Error);
  }
  SUCCEED();
}

TEST(FuzzTest, LinterSurvivesCorruptedImages) {
  // Whatever the reader accepts, the linter must classify without
  // crashing: a structurally invalid image is analyzed anyway (defective
  // routines quarantined) and every strict defect surfaces as at least
  // one SL011 diagnostic; a valid one gets the full rule evaluation.
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 99;
  std::vector<uint8_t> Bytes = writeImage(generateExecProgram(P));

  Rng Rand(4711);
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::vector<uint8_t> Mutated = Bytes;
    unsigned Flips = 1 + unsigned(Rand.below(8));
    for (unsigned F = 0; F < Flips; ++F)
      Mutated[Rand.below(Mutated.size())] ^= uint8_t(Rand.below(256));
    std::optional<Image> Img = readImage(Mutated);
    if (!Img)
      continue;
    LintResult Result = lintImage(*Img);
    if (Img->verify().has_value()) {
      unsigned Quarantines = 0;
      for (const Diagnostic &D : Result.Diags)
        Quarantines += D.Rule == RuleId::QuarantinedRoutine;
      EXPECT_GE(Quarantines, 1u);
    }
  }
}

TEST(FuzzTest, LintCliRejectsTruncatedFilesCleanly) {
  // The CLI must turn a truncated file into a structured SL000 error and
  // a nonzero exit, never a crash.
  ExecProfile P;
  P.Routines = 6;
  P.Seed = 7;
  std::vector<uint8_t> Bytes = writeImage(generateExecProgram(P));
  std::string Path = spike::testpaths::scratchFile("lint_trunc.spkx");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              std::streamsize(Bytes.size() / 3));
  }
  std::string Command =
      std::string(SPIKE_TOOLS_DIR) + "/spike-lint " + Path + " 2>&1";
  std::FILE *Pipe = ::popen(Command.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  std::string Output;
  char Buffer[256];
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  int Status = ::pclose(Pipe);
  EXPECT_NE(Output.find("SL000"), std::string::npos) << Output;
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 1);
}

TEST(FuzzTest, AssemblerSurvivesCorruptedSource) {
  std::string Source = R"(
main:
  lda a0, 5
  jsr helper
  halt v0
helper:
  addi v0, a0, 1
  ret
)";
  Rng Rand(77);
  const char Garbage[] = "():,.#;xq$-0123456789 \t";
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::string Mutated = Source;
    unsigned Edits = 1 + unsigned(Rand.below(6));
    for (unsigned E = 0; E < Edits; ++E)
      Mutated[Rand.below(Mutated.size())] =
          Garbage[Rand.below(sizeof(Garbage) - 1)];
    std::string Error;
    std::optional<Image> Img = parseAssembly(Mutated, &Error);
    if (Img)
      EXPECT_FALSE(Img->verify().has_value());
    else
      EXPECT_FALSE(Error.empty());
  }
}

namespace {

void checkPsgInvariants(const Program &Prog,
                        const ProgramSummaryGraph &Psg) {
  // CSR well-formedness.
  for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
    const PsgNode &Node = Psg.Nodes[NodeId];
    ASSERT_LE(Node.FirstOut + Psg.outEdges(NodeId).size(), Psg.Edges.size());
    for (const PsgEdge &Edge : Psg.outEdges(NodeId)) {
      EXPECT_EQ(Edge.Src, NodeId);
      EXPECT_LT(Edge.Dst, Psg.Nodes.size());
    }
  }

  uint64_t CallReturnEdges = 0;
  for (const PsgEdge &Edge : Psg.Edges) {
    const PsgNode &Src = Psg.Nodes[Edge.Src];
    const PsgNode &Dst = Psg.Nodes[Edge.Dst];
    if (Psg.isCallReturn(Edge)) {
      ++CallReturnEdges;
      EXPECT_EQ(Src.Kind, PsgNodeKind::Call);
      EXPECT_EQ(Dst.Kind, PsgNodeKind::Return);
      EXPECT_EQ(Src.BlockIndex, Dst.BlockIndex);
      continue;
    }
    // Flow-summary edges: sources are entry/return/branch nodes, sinks
    // are call/exit/branch/unknown/halt nodes, all within one routine.
    EXPECT_TRUE(Src.Kind == PsgNodeKind::Entry ||
                Src.Kind == PsgNodeKind::Return ||
                Src.Kind == PsgNodeKind::Branch)
        << psgNodeKindName(Src.Kind);
    EXPECT_TRUE(Dst.Kind == PsgNodeKind::Call ||
                Dst.Kind == PsgNodeKind::Exit ||
                Dst.Kind == PsgNodeKind::Branch ||
                Dst.Kind == PsgNodeKind::Unknown ||
                Dst.Kind == PsgNodeKind::Halt)
        << psgNodeKindName(Dst.Kind);
    EXPECT_EQ(Src.RoutineIndex, Dst.RoutineIndex);
    // Labels are internally consistent: must-def within may-def.
    EXPECT_TRUE(Edge.Label.MayDef.containsAll(Edge.Label.MustDef));
  }
  EXPECT_EQ(Psg.Edges.size(),
            Psg.numFlowSummaryEdges() + CallReturnEdges);

  // Every call node has exactly one out-edge: its call-return edge.
  // Exit/Unknown/Halt nodes are pure sinks.
  for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
    const PsgNode &Node = Psg.Nodes[NodeId];
    switch (Node.Kind) {
    case PsgNodeKind::Call:
      EXPECT_EQ(Psg.outEdges(NodeId).size(), 1u);
      EXPECT_EQ(Psg.Edges[Node.FirstOut].Dst, NodeId + 1);
      break;
    case PsgNodeKind::Exit:
    case PsgNodeKind::Unknown:
    case PsgNodeKind::Halt:
      EXPECT_EQ(Psg.outEdges(NodeId).size(), 0u);
      break;
    default:
      break;
    }
  }

  // Node counts match the paper's construction: one entry per entrance,
  // one exit per exit, one call+return pair per call site.
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
    const Routine &Rt = Prog.Routines[R];
    EXPECT_EQ(Psg.entryNodes(Prog, R).size(), Rt.numEntries());
    for (uint32_t NodeId : Psg.entryNodes(Prog, R))
      EXPECT_EQ(Psg.Nodes[NodeId].Kind, PsgNodeKind::Entry);
    EXPECT_EQ(Psg.exitNodes(Prog, R).size(), Rt.ExitBlocks.size());
    for (uint32_t NodeId : Psg.exitNodes(Prog, R))
      EXPECT_EQ(Psg.Nodes[NodeId].Kind, PsgNodeKind::Exit);
    for (uint32_t C = 0; C < Rt.CallBlocks.size(); ++C) {
      EXPECT_EQ(Psg.Nodes[Psg.callNode(Prog, R, C)].Kind, PsgNodeKind::Call);
      EXPECT_EQ(Psg.Nodes[Psg.returnNode(Prog, R, C)].Kind,
                PsgNodeKind::Return);
    }
  }
}

} // namespace

class PsgInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PsgInvariants, HoldOnRandomPrograms) {
  BenchmarkProfile P;
  P.Name = "inv";
  P.Routines = 30;
  P.CallsPerRoutine = 4;
  P.BranchesPerRoutine = 10;
  P.SwitchLoopsPerRoutine = 0.5;
  P.EntrancesPerRoutine = 1.1;
  P.ExitsPerRoutine = 1.5;
  P.IndirectCallFraction = 0.06;
  P.AddressTakenFraction = 0.06;
  P.Seed = GetParam() * 131 + 7;
  Image Img = generateCfgProgram(P);
  AnalysisResult Result = analyzeImage(Img);
  checkPsgInvariants(Result.Prog, Result.Psg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsgInvariants,
                         ::testing::Range(uint64_t(1), uint64_t(7)));

//===----------------------------------------------------------------------===//
// Parallel quarantine path
//===----------------------------------------------------------------------===//

namespace {

void expectSameSummaries(const InterprocSummaries &A,
                         const InterprocSummaries &B,
                         const std::string &Where) {
  ASSERT_EQ(A.Routines.size(), B.Routines.size()) << Where;
  for (size_t R = 0; R < A.Routines.size(); ++R) {
    const RoutineResults &X = A.Routines[R];
    const RoutineResults &Y = B.Routines[R];
    ASSERT_EQ(X.EntrySummaries.size(), Y.EntrySummaries.size()) << Where;
    for (size_t E = 0; E < X.EntrySummaries.size(); ++E) {
      EXPECT_EQ(X.EntrySummaries[E].Used, Y.EntrySummaries[E].Used)
          << Where << " routine " << R;
      EXPECT_EQ(X.EntrySummaries[E].Defined, Y.EntrySummaries[E].Defined)
          << Where << " routine " << R;
      EXPECT_EQ(X.EntrySummaries[E].Killed, Y.EntrySummaries[E].Killed)
          << Where << " routine " << R;
      EXPECT_EQ(X.LiveAtEntry[E], Y.LiveAtEntry[E]) << Where << " " << R;
    }
    ASSERT_EQ(X.LiveAtExit.size(), Y.LiveAtExit.size()) << Where;
    for (size_t E = 0; E < X.LiveAtExit.size(); ++E)
      EXPECT_EQ(X.LiveAtExit[E], Y.LiveAtExit[E]) << Where << " " << R;
  }
}

} // namespace

TEST(ParallelRobustness, QuarantineCasesMatchSerialAcrossJobs) {
  // Quarantined routines (defective code modeled as unknowable) take a
  // different path through the parallel engine — their worst-case
  // summaries are fixed inputs, not solved.  Degraded programs must
  // still analyze identically at every lane count.
  ExecProfile P;
  P.Routines = 10;
  P.Seed = 99;
  Image Img = generateExecProgram(P);
  AnalysisResult Base = analyzeImage(Img);

  for (uint32_t R = 0; R < Base.Prog.Routines.size(); R += 3) {
    AnalysisOptions Serial;
    Serial.Cfg.ForceQuarantine.push_back(Base.Prog.Routines[R].Name);
    AnalysisOptions Parallel = Serial;
    Parallel.Jobs = 4;
    AnalysisResult A = analyzeImage(Img, CallingConv(), Serial);
    AnalysisResult B = analyzeImage(Img, CallingConv(), Parallel);
    expectSameSummaries(A.Summaries, B.Summaries,
                        "quarantined " + Base.Prog.Routines[R].Name);
  }
}

TEST(ParallelRobustness, CorruptedImagesLintIdenticallyAcrossJobs) {
  // Whatever a byte-flipped image degrades into, the parallel linter
  // must report exactly the serial diagnostics.
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 99;
  std::vector<uint8_t> Bytes = writeImage(generateExecProgram(P));

  Rng Rand(515);
  unsigned Compared = 0;
  for (int Trial = 0; Trial < 60 && Compared < 12; ++Trial) {
    std::vector<uint8_t> Mutated = Bytes;
    unsigned Flips = 1 + unsigned(Rand.below(8));
    for (unsigned F = 0; F < Flips; ++F)
      Mutated[Rand.below(Mutated.size())] ^= uint8_t(Rand.below(256));
    std::optional<Image> Img = readImage(Mutated);
    if (!Img)
      continue;
    ++Compared;

    LintOptions Serial;
    LintOptions Parallel;
    Parallel.Jobs = 4;
    LintResult A = lintImage(*Img, CallingConv(), Serial);
    LintResult B = lintImage(*Img, CallingConv(), Parallel);
    ASSERT_EQ(A.Diags.size(), B.Diags.size()) << "trial " << Trial;
    for (size_t D = 0; D < A.Diags.size(); ++D)
      EXPECT_EQ(A.Diags[D].str(), B.Diags[D].str()) << "trial " << Trial;
  }
  EXPECT_GE(Compared, 1u);
}
