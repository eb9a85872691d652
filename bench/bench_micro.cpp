//===- bench/bench_micro.cpp - google-benchmark microbenchmarks -----------===//
//
// Primitive costs underlying the analysis: register-set algebra, the
// Figure 6 transfer function, instruction encode/decode, CFG
// construction, PSG construction, the two dataflow phases, and witness
// queries on a fixed medium-size program.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "cfg/SaveRestore.h"
#include "dataflow/FlowSets.h"
#include "isa/Encoding.h"
#include "provenance/Witness.h"
#include "psg/Analyzer.h"
#include "psg/PsgBuilder.h"
#include "psg/PsgSolver.h"
#include "slice/DepGraph.h"
#include "slice/SlotFlow.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"

#include <benchmark/benchmark.h>

using namespace spike;

namespace {

const Image &mediumImage() {
  static const Image Img = [] {
    BenchmarkProfile P = *findProfile("li");
    return generateCfgProgram(P);
  }();
  return Img;
}

void BM_RegSetAlgebra(benchmark::State &State) {
  RegSet A = {1, 5, 9, 26}, B = {2, 5, 30};
  for (auto _ : State) {
    RegSet C = (A | B) - (A & B);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_RegSetAlgebra);

void BM_FlowSetsTransfer(benchmark::State &State) {
  FlowSets Out{RegSet({1, 2}), RegSet({5}), RegSet({5})};
  RegSet Def = {2, 3}, Ubd = {4};
  for (auto _ : State) {
    FlowSets In = Out.transferThrough(Def, Ubd);
    benchmark::DoNotOptimize(In);
  }
}
BENCHMARK(BM_FlowSetsTransfer);

void BM_EncodeDecode(benchmark::State &State) {
  Instruction I = inst::rrr(Opcode::Add, 3, 1, 2);
  for (auto _ : State) {
    uint64_t Word = encodeInstruction(I);
    auto Back = decodeInstruction(Word);
    benchmark::DoNotOptimize(Back);
  }
}
BENCHMARK(BM_EncodeDecode);

void BM_CfgBuild(benchmark::State &State) {
  const Image &Img = mediumImage();
  for (auto _ : State) {
    Program Prog = buildProgram(Img, CallingConv());
    benchmark::DoNotOptimize(Prog.Routines.size());
  }
}
BENCHMARK(BM_CfgBuild)->Unit(benchmark::kMillisecond);

void BM_DefUbd(benchmark::State &State) {
  Program Prog = buildProgram(mediumImage(), CallingConv());
  for (auto _ : State) {
    computeDefUbd(Prog);
    benchmark::DoNotOptimize(Prog.Routines[0].Blocks[0].Def);
  }
}
BENCHMARK(BM_DefUbd)->Unit(benchmark::kMillisecond);

void BM_PsgBuild(benchmark::State &State) {
  Program Prog = buildProgram(mediumImage(), CallingConv());
  computeDefUbd(Prog);
  for (auto _ : State) {
    ProgramSummaryGraph Psg = buildPsg(Prog);
    benchmark::DoNotOptimize(Psg.Edges.size());
  }
}
BENCHMARK(BM_PsgBuild)->Unit(benchmark::kMillisecond);

void BM_Phases(benchmark::State &State) {
  Program Prog = buildProgram(mediumImage(), CallingConv());
  computeDefUbd(Prog);
  std::vector<RegSet> Saved;
  for (const Routine &R : Prog.Routines)
    Saved.push_back(analyzeSaveRestore(Prog, R).Saved);
  ProgramSummaryGraph Psg = buildPsg(Prog);
  for (auto _ : State) {
    runPhase1(Prog, Psg, Saved);
    runPhase2(Prog, Psg);
    benchmark::DoNotOptimize(Psg.Nodes[0].Live);
  }
}
BENCHMARK(BM_Phases)->Unit(benchmark::kMillisecond);

void BM_WitnessQuery(benchmark::State &State) {
  // The on-demand price of an explanation: buildWitness (one search over
  // the converged graph) plus replayWitness, over 64 entry-Live bits
  // spread evenly across the program.
  AnalysisResult Analysis = analyzeImage(mediumImage());
  std::vector<std::pair<uint32_t, unsigned>> Bits;
  for (uint32_t R = 0; R < Analysis.Prog.Routines.size(); ++R)
    for (uint32_t NodeId : Analysis.Psg.entryNodes(Analysis.Prog, R))
      for (unsigned Reg : Analysis.Psg.Nodes[NodeId].Live)
        Bits.push_back({NodeId, Reg});
  std::vector<std::pair<uint32_t, unsigned>> Queries;
  for (size_t I = 0; I < 64 && !Bits.empty(); ++I)
    Queries.push_back(Bits[I * Bits.size() / 64]);
  for (auto _ : State)
    for (auto [NodeId, Reg] : Queries) {
      Witness W = buildWitness(Analysis, ProvFact::Live, NodeId, Reg);
      benchmark::DoNotOptimize(replayWitness(Analysis, W));
    }
  State.SetItemsProcessed(int64_t(State.iterations() * Queries.size()));
}
BENCHMARK(BM_WitnessQuery)->Unit(benchmark::kMillisecond);

void BM_FullAnalysis(benchmark::State &State) {
  const Image &Img = mediumImage();
  for (auto _ : State) {
    AnalysisResult Result = analyzeImage(Img);
    benchmark::DoNotOptimize(Result.Summaries.Routines.size());
  }
}
BENCHMARK(BM_FullAnalysis)->Unit(benchmark::kMillisecond);

void BM_SlotPhases(benchmark::State &State) {
  // The memory analogue of BM_Phases: both slot phases (callee-first
  // MAY-USE/MAY-DEF, caller-first liveness) on the medium program.
  AnalysisResult Analysis = analyzeImage(mediumImage());
  for (auto _ : State) {
    SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
    benchmark::DoNotOptimize(Flow.Routines.size());
  }
}
BENCHMARK(BM_SlotPhases)->Unit(benchmark::kMillisecond);

void BM_DepGraphBuild(benchmark::State &State) {
  AnalysisResult Analysis = analyzeImage(mediumImage());
  SlotFlowResult Flow = solveSlotFlow(Analysis.Prog);
  for (auto _ : State) {
    DependenceGraph Graph =
        buildDepGraph(Analysis.Prog, Analysis.Summaries, Flow);
    benchmark::DoNotOptimize(Graph.Edges.size());
  }
}
BENCHMARK(BM_DepGraphBuild)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
