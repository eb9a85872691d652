//===- tests/model_test.cpp - model-based property tests --------------------===//
//
// Reference-model checks: RegSet against std::set under random operation
// sequences, and end-to-end determinism of analysis and optimization.
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"
#include "psg/Analyzer.h"
#include "support/RegSet.h"
#include "support/Rng.h"
#include "synth/ExecGenerator.h"

#include <gtest/gtest.h>

#include <set>

using namespace spike;

namespace {

RegSet fromModel(const std::set<unsigned> &Model) {
  RegSet S;
  for (unsigned R : Model)
    S.insert(R);
  return S;
}

std::set<unsigned> toModel(RegSet S) {
  std::set<unsigned> Model;
  for (unsigned R : S)
    Model.insert(R);
  return Model;
}

} // namespace

class RegSetModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegSetModel, AgreesWithStdSet) {
  Rng Rand(GetParam() * 7 + 1);
  RegSet S;
  std::set<unsigned> Model;
  for (int Step = 0; Step < 2000; ++Step) {
    unsigned R = unsigned(Rand.below(MaxRegisters));
    switch (Rand.below(6)) {
    case 0:
      S.insert(R);
      Model.insert(R);
      break;
    case 1:
      S.erase(R);
      Model.erase(R);
      break;
    case 2: { // Union with a random small set.
      RegSet Other = {unsigned(Rand.below(MaxRegisters)),
                      unsigned(Rand.below(MaxRegisters))};
      for (unsigned X : Other)
        Model.insert(X);
      S |= Other;
      break;
    }
    case 3: { // Difference.
      RegSet Other = {unsigned(Rand.below(MaxRegisters)),
                      unsigned(Rand.below(MaxRegisters))};
      for (unsigned X : Other)
        Model.erase(X);
      S -= Other;
      break;
    }
    case 4: { // Intersection with a half-space.
      RegSet Half = RegSet::allBelow(unsigned(Rand.below(MaxRegisters + 1)));
      std::set<unsigned> NewModel;
      for (unsigned X : Model)
        if (Half.contains(X))
          NewModel.insert(X);
      Model = NewModel;
      S &= Half;
      break;
    }
    default: // Queries.
      EXPECT_EQ(S.contains(R), Model.count(R) == 1);
      break;
    }
    ASSERT_EQ(S.count(), Model.size());
    ASSERT_EQ(toModel(S), Model);
    ASSERT_EQ(S, fromModel(Model));
    ASSERT_EQ(S.empty(), Model.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegSetModel,
                         ::testing::Range(uint64_t(1), uint64_t(5)));

TEST(DeterminismTest, AnalysisIsAFunctionOfTheImage) {
  ExecProfile P;
  P.Routines = 12;
  P.Seed = 31;
  Image Img = generateExecProgram(P);
  AnalysisResult A = analyzeImage(Img);
  AnalysisResult B = analyzeImage(Img);
  ASSERT_EQ(A.Psg.Nodes.size(), B.Psg.Nodes.size());
  for (size_t I = 0; I < A.Psg.Nodes.size(); ++I) {
    EXPECT_EQ(A.Psg.Nodes[I].Sets, B.Psg.Nodes[I].Sets);
    EXPECT_EQ(A.Psg.Nodes[I].Live, B.Psg.Nodes[I].Live);
  }
  ASSERT_EQ(A.Psg.Edges.size(), B.Psg.Edges.size());
  for (size_t I = 0; I < A.Psg.Edges.size(); ++I)
    EXPECT_EQ(A.Psg.Edges[I].Label, B.Psg.Edges[I].Label);
}

TEST(DeterminismTest, OptimizationIsAFunctionOfTheImage) {
  ExecProfile P;
  P.Routines = 12;
  P.Seed = 41;
  Image A = generateExecProgram(P);
  Image B = A;
  optimizeImage(A);
  optimizeImage(B);
  EXPECT_EQ(A.Code, B.Code);
}
