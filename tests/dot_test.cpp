//===- tests/dot_test.cpp - Graphviz export tests ---------------------------===//

#include "binary/ProgramBuilder.h"
#include "cfg/CallGraph.h"
#include "cfg/CfgBuilder.h"
#include "isa/Registers.h"
#include "psg/Analyzer.h"
#include "psg/DotExport.h"

#include <gtest/gtest.h>

using namespace spike;

namespace {

/// The example program; static, so each analysis can borrow its words.
const Image &exampleImage() {
  static const Image Img = [] {
    ProgramBuilder B;
    B.beginRoutine("main");
    B.emitCall("leaf");
    B.emit(inst::halt(reg::V0));
    B.beginRoutine("leaf");
    ProgramBuilder::LabelId Out = B.makeLabel();
    B.emitCondBr(Opcode::Beq, reg::A0, Out);
    B.emit(inst::lda(reg::V0, 1));
    B.bind(Out);
    B.emit(inst::ret());
    return B.build();
  }();
  return Img;
}

AnalysisResult exampleAnalysis() { return analyzeImage(exampleImage()); }

} // namespace

TEST(DotExportTest, CfgDigraphShape) {
  AnalysisResult Result = exampleAnalysis();
  std::string Dot = cfgToDot(Result.Prog, 1);
  EXPECT_NE(Dot.find("digraph \"cfg_leaf\""), std::string::npos);
  EXPECT_NE(Dot.find("b0 -> b"), std::string::npos);
  EXPECT_NE(Dot.find("DEF"), std::string::npos);
  EXPECT_NE(Dot.find("entry0"), std::string::npos);
  EXPECT_EQ(Dot.find("digraph"), Dot.rfind("digraph")); // Exactly one.
}

TEST(DotExportTest, PsgDigraphListsNodesAndLabels) {
  AnalysisResult Result = exampleAnalysis();
  std::string Dot = psgToDot(Result.Prog, Result.Psg, 0);
  EXPECT_NE(Dot.find("digraph \"psg_main\""), std::string::npos);
  EXPECT_NE(Dot.find("entry b"), std::string::npos);
  EXPECT_NE(Dot.find("call b"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos); // Call-return.
  // Only main's nodes appear.
  EXPECT_EQ(Dot.find("exit b2"), std::string::npos);
}

TEST(DotExportTest, EscapesHostileRoutineNames) {
  // Routine names come straight from image symbol tables; quotes would
  // end a dot label early and angle brackets / braces / pipes are record
  // structure characters.  All must come out backslash-escaped.
  AnalysisResult Result = exampleAnalysis();
  Result.Prog.Routines[0].Name = "ma\"in<x>|{y}\\z\nw";
  std::string Dot = cfgToDot(Result.Prog, 0);
  EXPECT_NE(Dot.find("ma\\\"in\\<x\\>\\|\\{y\\}\\\\z\\nw"),
            std::string::npos)
      << Dot;
  // The raw name (with its label-terminating quote) must not survive.
  EXPECT_EQ(Dot.find("ma\"in"), std::string::npos);
  std::string CallDot =
      callGraphToDot(Result.Prog, buildCallGraph(Result.Prog));
  EXPECT_NE(CallDot.find("ma\\\"in"), std::string::npos);
}

TEST(DotExportTest, HighlightOverlayRendersPathInRed) {
  AnalysisResult Result = exampleAnalysis();
  DotHighlight Highlight;
  Highlight.Nodes = {0};
  Highlight.Edges = {0};
  std::string Dot = psgPathToDot(Result.Prog, Result.Psg, Highlight);
  EXPECT_NE(Dot.find("digraph witness"), std::string::npos);
  EXPECT_NE(Dot.find("subgraph \"cluster_r"), std::string::npos);
  EXPECT_NE(Dot.find("color=red, penwidth=2"), std::string::npos);
  // An empty highlight renders an empty (but valid) digraph.
  std::string Empty = psgPathToDot(Result.Prog, Result.Psg, DotHighlight());
  EXPECT_EQ(Empty.find("subgraph"), std::string::npos);
  EXPECT_NE(Empty.find("digraph witness"), std::string::npos);
}

TEST(DotExportTest, CallGraphHighlightsCyclesAndDeadCode) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("rec");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("rec");
  B.emitCall("rec");
  B.emit(inst::ret());
  B.beginRoutine("dead");
  B.emit(inst::ret());
  Image Img = B.build();
  Program Prog = buildProgram(Img, CallingConv());
  CallGraph Graph = buildCallGraph(Prog);
  std::string Dot = callGraphToDot(Prog, Graph);
  EXPECT_NE(Dot.find("color=red"), std::string::npos);     // rec cycle.
  EXPECT_NE(Dot.find("style=dotted"), std::string::npos);  // dead.
  EXPECT_NE(Dot.find("\"main\""), std::string::npos);
}
