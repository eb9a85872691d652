//===- examples/annotate_indirect.cpp - §3.5 annotations end to end -------===//
//
// Demonstrates the paper's Section 3.5 accuracy improvement: the same
// binary analyzed (a) with the calling standard's blanket assumption at
// an indirect call and (b) with derived closed-world annotations, and
// what the sharper summaries buy the optimizer.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Registers.h"
#include "opt/AnnotationDeriver.h"
#include "opt/Pipeline.h"
#include "psg/Analyzer.h"
#include "sim/Simulator.h"

#include <cstdio>

using namespace spike;

int main() {
  // A dispatcher that calls one of two handlers through a register, with
  // a value spilled around the indirect call.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::rri(Opcode::SubI, reg::SP, reg::SP, 8));
  B.emit(inst::lda(reg::T0, 500));
  B.emit(inst::stq(reg::T0, 0, reg::SP)); // Spill: standard says the
  B.emitLoadRoutineAddress(reg::PV, "handler_a");
  B.emit(inst::lda(reg::A0, 7));
  B.emit(inst::jsrR(reg::PV)); // ...callee may kill t0.
  B.emit(inst::ldq(reg::T0, 0, reg::SP)); // Reload.
  B.emit(inst::rrr(Opcode::Add, reg::V0, reg::V0, reg::T0));
  B.emit(inst::rri(Opcode::AddI, reg::SP, reg::SP, 8));
  B.emit(inst::halt(reg::V0));

  B.beginRoutine("handler_a", /*AddressTaken=*/true);
  B.emit(inst::rri(Opcode::AddI, reg::V0, reg::A0, 1));
  B.emit(inst::ret());
  B.beginRoutine("handler_b", /*AddressTaken=*/true);
  B.emit(inst::rri(Opcode::SubI, reg::V0, reg::A0, 1));
  B.emit(inst::ret());
  Image Img = B.build();

  auto Report = [&](const char *Title, const Image &Target) {
    AnalysisResult Result = analyzeImage(Target);
    uint32_t CallBlock = Result.Prog.Routines[0].CallBlocks[0];
    RegSet Killed = Result.Summaries.callKilled(Result.Prog, 0, CallBlock);
    std::printf("%s\n  indirect call kills: %s\n", Title,
                Killed.str().c_str());

    Image Work = Target;
    PipelineStats Stats = optimizeImage(Work);
    SimResult Before = simulate(Target);
    SimResult After = simulate(Work);
    std::printf("  spill pairs removed: %llu; behaviour %s; useful "
                "instructions %llu -> %llu\n\n",
                (unsigned long long)Stats.SpillPairsRemoved,
                Before.sameObservable(After) ? "identical" : "CHANGED!",
                (unsigned long long)Before.usefulSteps(),
                (unsigned long long)After.usefulSteps());
  };

  Report("-- calling-standard assumption (Section 3.5 default) --", Img);

  Image Annotated = Img;
  size_t Sites = annotateIndirectCalls(Annotated);
  std::printf("derived closed-world annotations for %zu site(s): the "
              "possible targets are the address-taken routines\n\n",
              Sites);
  Report("-- with derived annotations (Section 3.5 improvement) --",
         Annotated);
  return 0;
}
