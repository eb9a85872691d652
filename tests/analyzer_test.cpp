//===- tests/analyzer_test.cpp - end-to-end driver tests -------------------===//

#include "psg/Analyzer.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

using namespace spike;

namespace {

AnalysisResult analyzeScaled(const char *Name, double Scale) {
  const BenchmarkProfile *Base = findProfile(Name);
  EXPECT_NE(Base, nullptr);
  BenchmarkProfile P = scaledProfile(*Base, Scale);
  return analyzeImage(generateCfgProgram(P));
}

} // namespace

TEST(AnalyzerTest, EndToEndOnScaledCompress) {
  AnalysisResult Result = analyzeScaled("compress", 1.0);
  EXPECT_EQ(Result.Prog.Routines.size(), 123u); // 122 + __start.
  EXPECT_GT(Result.Psg.Nodes.size(), 200u);
  EXPECT_GT(Result.Psg.Edges.size(), 200u);
  EXPECT_GT(Result.Memory.peakBytes(), 10000u);
  EXPECT_GT(Result.Stages.totalSeconds(), 0.0);
  // Every stage ran.
  EXPECT_GT(Result.Stages.seconds(AnalysisStage::CfgBuild), 0.0);
  EXPECT_GT(Result.Stages.seconds(AnalysisStage::PsgBuild), 0.0);
  EXPECT_GT(Result.Stages.seconds(AnalysisStage::Phase1), 0.0);
  EXPECT_GT(Result.Stages.seconds(AnalysisStage::Phase2), 0.0);
}

TEST(AnalyzerTest, LayerBytesSumToPeak) {
  const BenchmarkProfile *Base = findProfile("gcc");
  ASSERT_NE(Base, nullptr);
  Image Img = generateCfgProgram(scaledProfile(*Base, 0.1));
  for (bool Provenance : {false, true}) {
    telemetry::Session S("analyzer_test");
    AnalysisResult Result;
    {
      telemetry::SessionScope Scope(S);
      AnalysisOptions Opts;
      Opts.RecordProvenance = Provenance;
      Result = analyzeImage(Img, {}, Opts);
    }
    uint64_t Cfg = S.gauge("analyze.memory.cfg_bytes");
    uint64_t Init = S.gauge("analyze.memory.init_bytes");
    uint64_t Psg = S.gauge("analyze.memory.psg_bytes");
    uint64_t Prov = S.gauge("provenance.bytes");
    EXPECT_GT(Cfg, 0u);
    EXPECT_GT(Init, 0u);
    EXPECT_GT(Psg, 0u);
    EXPECT_EQ(Prov > 0, Provenance);
    EXPECT_EQ(Cfg + Init + Psg + Prov, S.gauge("analyze.memory.peak_bytes"));
    EXPECT_EQ(Cfg + Init + Psg + Prov, Result.Memory.peakBytes());
    EXPECT_EQ(Cfg, Result.CfgBytes);
    EXPECT_EQ(Init, Result.InitBytes);
    EXPECT_EQ(Psg, Result.PsgBytes);
  }
}

TEST(AnalyzerTest, SummariesCoverEveryRoutineAndEntrance) {
  AnalysisResult Result = analyzeScaled("li", 0.3);
  ASSERT_EQ(Result.Summaries.Routines.size(),
            Result.Prog.Routines.size());
  for (uint32_t R = 0; R < Result.Prog.Routines.size(); ++R) {
    const Routine &Rt = Result.Prog.Routines[R];
    const RoutineResults &RR = Result.Summaries.Routines[R];
    EXPECT_EQ(RR.EntrySummaries.size(), Rt.numEntries());
    EXPECT_EQ(RR.LiveAtEntry.size(), Rt.numEntries());
    EXPECT_EQ(RR.LiveAtExit.size(), Rt.ExitBlocks.size());
  }
}

TEST(AnalyzerTest, PsgSmallerThanCfgOnTypicalProgram) {
  // Table 5's headline: the PSG has fewer nodes than the CFG has blocks
  // and fewer edges than the CFG has arcs (on branch-heavy profiles).
  AnalysisResult Result = analyzeScaled("go", 0.5);
  EXPECT_LT(Result.Psg.Nodes.size(), Result.Prog.numBlocks());
}

TEST(AnalyzerTest, BranchNodeCountsReported) {
  AnalysisResult Result = analyzeScaled("perl", 0.3);
  EXPECT_GT(Result.Psg.NumBranchNodes, 0u);
  EXPECT_GT(Result.Psg.NumFlowSummaryEdges, 0u);
  EXPECT_LT(Result.Psg.NumFlowSummaryEdges, Result.Psg.Edges.size());
}

TEST(AnalyzerTest, DeterministicAcrossRuns) {
  AnalysisResult A = analyzeScaled("ijpeg", 0.3);
  AnalysisResult B = analyzeScaled("ijpeg", 0.3);
  ASSERT_EQ(A.Psg.Nodes.size(), B.Psg.Nodes.size());
  ASSERT_EQ(A.Psg.Edges.size(), B.Psg.Edges.size());
  for (size_t I = 0; I < A.Psg.Nodes.size(); ++I) {
    EXPECT_EQ(A.Psg.Nodes[I].Sets, B.Psg.Nodes[I].Sets);
    EXPECT_EQ(A.Psg.Nodes[I].Live, B.Psg.Nodes[I].Live);
  }
}
