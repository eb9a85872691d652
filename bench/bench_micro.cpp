//===- bench/bench_micro.cpp - google-benchmark microbenchmarks -----------===//
//
// Primitive costs underlying the analysis: register-set algebra, the
// Figure 6 transfer function, instruction encode/decode, CFG
// construction, PSG construction, and the two dataflow phases on a
// fixed medium-size program.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "cfg/SaveRestore.h"
#include "dataflow/FlowSets.h"
#include "isa/Encoding.h"
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

void BM_PhasesProvenance(benchmark::State &State) {
  // BM_Phases with derivation recording on: the difference between the
  // two is the whole cost of provenance (one table write per set bit
  // plus the attribution walk).
  Program Prog = buildProgram(mediumImage(), CallingConv());
  computeDefUbd(Prog);
  std::vector<RegSet> Saved;
  for (const Routine &R : Prog.Routines)
    Saved.push_back(analyzeSaveRestore(Prog, R).Saved);
  ProgramSummaryGraph Psg = buildPsg(Prog);
  ProvenanceStore Prov;
  for (auto _ : State) {
    Prov.init(Psg.Nodes.size(), Psg.Edges.size());
    runPhase1(Prog, Psg, Saved, nullptr, &Prov);
    runPhase2(Prog, Psg, nullptr, &Prov);
    benchmark::DoNotOptimize(Psg.Nodes[0].Live);
  }
}
BENCHMARK(BM_PhasesProvenance)->Unit(benchmark::kMillisecond);

void BM_RecordProvenanceDisabled(benchmark::State &State) {
  // The disabled path the solver takes on every set-growing step when
  // recording is off: one null check, no memory touched (the allocator-
  // level proof is tests/provenance_noalloc_test.cpp).
  ProvRecord D(ProvKind::EdgeLabel, 3);
  for (auto _ : State) {
    uint64_t Fresh =
        recordProvenance(nullptr, ProvFact::Live, 7, RegSet({1, 5, 9}), D);
    benchmark::DoNotOptimize(Fresh);
  }
}
BENCHMARK(BM_RecordProvenanceDisabled);

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
