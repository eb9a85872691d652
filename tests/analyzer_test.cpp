//===- tests/analyzer_test.cpp - end-to-end driver tests -------------------===//

#include "psg/Analyzer.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <string>

using namespace spike;

namespace {

/// Generates profile \p Name at \p Scale into \p Img and analyzes it;
/// the result borrows \p Img's words.
AnalysisResult analyzeScaled(const char *Name, double Scale, Image &Img) {
  const BenchmarkProfile *Base = findProfile(Name);
  EXPECT_NE(Base, nullptr);
  Img = generateCfgProgram(scaledProfile(*Base, Scale));
  return analyzeImage(Img);
}

} // namespace

TEST(AnalyzerTest, EndToEndOnScaledCompress) {
  telemetry::Session S("analyzer_test");
  Image Img;
  AnalysisResult Result;
  {
    telemetry::SessionScope Scope(S);
    Result = analyzeScaled("compress", 1.0, Img);
  }
  EXPECT_EQ(Result.Prog.Routines.size(), 123u); // 122 + __start.
  EXPECT_GT(Result.Psg.Nodes.size(), 200u);
  EXPECT_GT(Result.Psg.Edges.size(), 200u);
  EXPECT_GT(Result.Memory.peakBytes(), 10000u);
  // Every stage ran, and its seconds are its "analyze/<stage>" span.
  StageSeconds Seconds = stageSeconds(S);
  for (size_t I = 0; I < StageSpans.size(); ++I)
    EXPECT_GT(Seconds[I], 0.0) << StageSpans[I].Label;
  for (const telemetry::PhaseRow &Row : S.phaseRows())
    for (size_t I = 0; I < StageSpans.size(); ++I)
      if (Row.Path == std::string("analyze/") + StageSpans[I].Span) {
        EXPECT_EQ(Row.Seconds, Seconds[I]) << Row.Path;
      }
}

TEST(AnalyzerTest, StageSecondsTimeOneAnalysisFromItsFirstSpan) {
  const BenchmarkProfile *Base = findProfile("li");
  ASSERT_NE(Base, nullptr);
  Image Img = generateCfgProgram(scaledProfile(*Base, 0.3));
  telemetry::Session S("analyzer_test");
  telemetry::SessionScope Scope(S);
  analyzeImage(Img);
  StageSeconds First = stageSeconds(S);
  size_t Mark = S.spans().size();
  analyzeImage(Img);
  StageSeconds Second = stageSeconds(S, Mark);
  StageSeconds Both = stageSeconds(S);
  for (size_t I = 0; I < StageSpans.size(); ++I)
    EXPECT_NEAR(Both[I], First[I] + Second[I], 1e-12) << StageSpans[I].Label;
  // Spans outside an "analyze" parent (the pipeline's own, a bench's)
  // are no stage.
  {
    telemetry::Span Outer("cfg.build");
  }
  EXPECT_EQ(stageSeconds(S, Mark), Second);
}

TEST(AnalyzerTest, LayerBytesSumToPeak) {
  const BenchmarkProfile *Base = findProfile("gcc");
  ASSERT_NE(Base, nullptr);
  Image Img = generateCfgProgram(scaledProfile(*Base, 0.1));
  telemetry::Session S("analyzer_test");
  AnalysisResult Result;
  {
    telemetry::SessionScope Scope(S);
    Result = analyzeImage(Img);
  }
  uint64_t Cfg = S.gauge("analyze.memory.cfg_bytes");
  uint64_t Init = S.gauge("analyze.memory.init_bytes");
  uint64_t Psg = S.gauge("analyze.memory.psg_bytes");
  EXPECT_GT(Cfg, 0u);
  EXPECT_GT(Init, 0u);
  EXPECT_GT(Psg, 0u);
  EXPECT_EQ(Cfg + Init + Psg, S.gauge("analyze.memory.peak_bytes"));
  EXPECT_EQ(Cfg + Init + Psg, Result.Memory.peakBytes());
  EXPECT_EQ(Cfg, Result.CfgBytes);
  EXPECT_EQ(Init, Result.InitBytes);
  EXPECT_EQ(Psg, Result.PsgBytes);
}

TEST(AnalyzerTest, SummariesCoverEveryRoutineAndEntrance) {
  Image Img;
  AnalysisResult Result = analyzeScaled("li", 0.3, Img);
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
  Image Img;
  AnalysisResult Result = analyzeScaled("go", 0.5, Img);
  EXPECT_LT(Result.Psg.Nodes.size(), Result.Prog.numBlocks());
}

TEST(AnalyzerTest, BranchNodeCountsReported) {
  Image Img;
  AnalysisResult Result = analyzeScaled("perl", 0.3, Img);
  EXPECT_GT(Result.Psg.NumBranchNodes, 0u);
  EXPECT_GT(Result.Psg.NumFlowSummaryEdges, 0u);
  EXPECT_LT(Result.Psg.NumFlowSummaryEdges, Result.Psg.Edges.size());
}

TEST(AnalyzerTest, SummariesCompareBitExact) {
  const BenchmarkProfile *Base = findProfile("gcc");
  ASSERT_NE(Base, nullptr);
  Image Img = generateCfgProgram(scaledProfile(*Base, 0.05));
  AnalysisResult A = analyzeImage(Img);
  AnalysisResult B = analyzeImage(Img);
  EXPECT_TRUE(A.Summaries == B.Summaries);

  for (RoutineResults &RR : B.Summaries.Routines)
    if (!RR.LiveAtExit.empty()) {
      RegSet &Live = RR.LiveAtExit.back();
      Live = RegSet::fromMask(Live.mask() ^ 1);
      break;
    }
  EXPECT_FALSE(A.Summaries == B.Summaries);
}

TEST(AnalyzerTest, DeterministicAcrossRuns) {
  Image ImgA, ImgB;
  AnalysisResult A = analyzeScaled("ijpeg", 0.3, ImgA);
  AnalysisResult B = analyzeScaled("ijpeg", 0.3, ImgB);
  ASSERT_EQ(A.Psg.Nodes.size(), B.Psg.Nodes.size());
  ASSERT_EQ(A.Psg.Edges.size(), B.Psg.Edges.size());
  for (size_t I = 0; I < A.Psg.Nodes.size(); ++I) {
    EXPECT_EQ(A.Psg.Nodes[I].Sets, B.Psg.Nodes[I].Sets);
    EXPECT_EQ(A.Psg.Nodes[I].Live, B.Psg.Nodes[I].Live);
  }
}
