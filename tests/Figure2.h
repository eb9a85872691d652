//===- tests/Figure2.h - The paper's Figure 2 program ---------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 2 program and its analysis, shared by the worked-example
/// tests (psg_paper_test.cpp) and the witness tests (provenance_test.cpp).
/// Register names R0..R3 match the paper, which abstracts away the
/// convention registers (ra/sp/...), so assertions mask results to
/// {R0..R3}.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TESTS_FIGURE2_H
#define SPIKE_TESTS_FIGURE2_H

#include "binary/ProgramBuilder.h"
#include "isa/Registers.h"
#include "psg/Analyzer.h"

#include <cstdint>
#include <string>

namespace spike {
namespace testfigure2 {

inline const RegSet PaperMask = {0, 1, 2, 3};

inline RegSet masked(RegSet S) { return S & PaperMask; }

/// The three routines of Figure 2:
///   P1: defines R0 and R1, calls P2, then uses R0.
///   P2: uses R1, always defines R2, defines R3 on one path.
///   P3: defines R1 and calls P2.
/// A start stub calls P1 and P3 so both are analyzed as called routines.
inline Image figure2Program() {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P1");
  B.emitCall("P3");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");

  B.beginRoutine("P1");
  B.emit(inst::lda(0, 5)); // def R0
  B.emit(inst::lda(1, 7)); // def R1
  B.emitCall("P2");
  B.emit(inst::mov(2, 0)); // use R0 (def R2)
  B.emit(inst::ret());

  B.beginRoutine("P2");
  ProgramBuilder::LabelId Skip = B.makeLabel();
  B.emit(inst::mov(2, 1)); // use R1, def R2
  B.emitCondBr(Opcode::Beq, 2, Skip);
  B.emit(inst::lda(3, 1)); // def R3 on one path only
  B.bind(Skip);
  B.emit(inst::ret());

  B.beginRoutine("P3");
  B.emit(inst::lda(1, 9)); // def R1
  B.emitCall("P2");
  B.emit(inst::ret());

  return B.build();
}

struct Figure2Results {
  Image Img; ///< The words Analysis borrows.
  AnalysisResult Analysis;
  uint32_t P1 = 0, P2 = 0, P3 = 0;
};

inline Figure2Results analyzeFigure2() {
  Figure2Results R;
  R.Img = figure2Program();
  R.Analysis = analyzeImage(R.Img);
  for (uint32_t I = 0; I < R.Analysis.Prog.Routines.size(); ++I) {
    const std::string &Name = R.Analysis.Prog.Routines[I].Name;
    if (Name == "P1")
      R.P1 = I;
    else if (Name == "P2")
      R.P2 = I;
    else if (Name == "P3")
      R.P3 = I;
  }
  return R;
}

} // namespace testfigure2
} // namespace spike

#endif // SPIKE_TESTS_FIGURE2_H
