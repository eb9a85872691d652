//===- examples/quickstart.cpp - five-minute tour of the API --------------===//
//
// Builds a three-routine executable with the assembler API, runs the
// Spike-style interprocedural dataflow analysis, and prints the per-
// routine summaries (Section 2 of the paper):
//
//   - call-used / call-defined / call-killed per entrance,
//   - live-at-entry / live-at-exit,
//
// then uses the summaries the way an optimizer would: it asks whether a
// caller-saved register survives a particular call.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Registers.h"
#include "psg/Analyzer.h"

#include <cstdio>

using namespace spike;

int main() {
  // -- 1. Assemble a small executable. ------------------------------------
  //
  //   main:  a0 = 21; call twice; halt v0
  //   twice: v0 = a0 + a0; ret          (touches only a0/v0)
  //   unused_helper: clobbers t0..t2
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::A0, 21));
  B.emitCall("twice");
  B.emit(inst::halt(reg::V0));

  B.beginRoutine("twice");
  B.emit(inst::rrr(Opcode::Add, reg::V0, reg::A0, reg::A0));
  B.emit(inst::ret());

  B.beginRoutine("unused_helper");
  B.emit(inst::lda(reg::T0, 1));
  B.emit(inst::lda(reg::T0 + 1, 2));
  B.emit(inst::rrr(Opcode::Add, reg::T0 + 2, reg::T0, reg::T0 + 1));
  B.emit(inst::ret());

  B.setEntry("main");
  Image Img = B.build();

  // -- 2. Run the whole-program analysis. ----------------------------------
  AnalysisResult Result = analyzeImage(Img);

  // -- 3. Read the summaries. ----------------------------------------------
  std::printf("analyzed %zu routines, %llu basic blocks, %zu PSG nodes, "
              "%zu PSG edges\n\n",
              Result.Prog.Routines.size(),
              (unsigned long long)Result.Prog.numBlocks(),
              Result.Psg.Nodes.size(), Result.Psg.Edges.size());

  for (uint32_t R = 0; R < Result.Prog.Routines.size(); ++R) {
    const Routine &Rt = Result.Prog.Routines[R];
    const RoutineResults &RR = Result.Summaries.Routines[R];
    std::printf("%s:\n", Rt.Name.c_str());
    for (size_t E = 0; E < RR.EntrySummaries.size(); ++E) {
      const CallSummary &S = RR.EntrySummaries[E];
      std::printf("  entrance %zu: call-used %s, call-defined %s, "
                  "call-killed %s\n",
                  E, S.Used.str().c_str(), S.Defined.str().c_str(),
                  S.Killed.str().c_str());
      std::printf("               live-at-entry %s\n",
                  RR.LiveAtEntry[E].str().c_str());
    }
    for (size_t X = 0; X < RR.LiveAtExit.size(); ++X)
      std::printf("  exit %zu: live-at-exit %s\n", X,
                  RR.LiveAtExit[X].str().c_str());
  }

  // -- 4. Ask an optimizer-style question. ---------------------------------
  // Does t5 survive main's call to twice?  (Figure 1(c)/(d) reasoning.)
  const Routine &Main = Result.Prog.Routines[0];
  uint32_t CallBlock = Main.CallBlocks[0];
  RegSet Killed = Result.Summaries.callKilled(Result.Prog, 0, CallBlock);
  unsigned T5 = reg::T0 + 5;
  std::printf("\nthe call to 'twice' kills %s; t5 %s the call, so a value "
              "in t5 needs no spill\n",
              Killed.str().c_str(),
              Killed.contains(T5) ? "is killed by" : "survives");
  return Killed.contains(T5) ? 1 : 0;
}
