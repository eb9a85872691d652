//===- examples/paper_example.cpp - the paper's Figures 2-9 ---------------===//
//
// Reconstructs the worked example the paper develops through Sections 2
// and 3 (routines P1, P2, P3 of Figure 2) and prints every dataflow set
// the paper reports, plus the PSG itself (nodes, edges, and labels), so
// the output can be compared line by line with the paper.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Registers.h"
#include "psg/Analyzer.h"

#include <cstdio>

using namespace spike;

namespace {

/// The paper's example uses bare register names R0..R3; mask out the
/// convention registers (ra, sp, ...) when printing for comparison.
RegSet paperRegs(RegSet S) { return S & RegSet({0, 1, 2, 3}); }

} // namespace

int main() {
  // Figure 2, reconstructed:
  //   P1: def R0, def R1, call P2, use R0
  //   P2: use R1, def R2 (always), def R3 (one path)
  //   P3: def R1, call P2
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P1");
  B.emitCall("P3");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");

  B.beginRoutine("P1");
  B.emit(inst::lda(0, 5));
  B.emit(inst::lda(1, 7));
  B.emitCall("P2");
  B.emit(inst::mov(2, 0));
  B.emit(inst::ret());

  B.beginRoutine("P2");
  ProgramBuilder::LabelId Skip = B.makeLabel();
  B.emit(inst::mov(2, 1));
  B.emitCondBr(Opcode::Beq, 2, Skip);
  B.emit(inst::lda(3, 1));
  B.bind(Skip);
  B.emit(inst::ret());

  B.beginRoutine("P3");
  B.emit(inst::lda(1, 9));
  B.emitCall("P2");
  B.emit(inst::ret());

  Image Img = B.build();
  std::string Listing;
  disassemble(Img, Listing);
  std::printf("-- program (Figure 2 reconstruction) --\n%s\n",
              Listing.c_str());

  AnalysisResult Result = analyzeImage(Img);

  std::printf("-- Section 3.2: phase 1 results (paper values in "
              "brackets) --\n");
  struct Expect {
    const char *Name;
    const char *Used, *Defined, *Killed;
  };
  const Expect Expected[] = {
      {"P1", "{}", "{R0, R1, R2}", "{R0, R1, R2, R3}"},
      {"P2", "{R1}", "{R2}", "{R2, R3}"},
      {"P3", "{}", "{R1, R2}", "{R1, R2, R3}"},
  };
  for (const Expect &E : Expected) {
    for (uint32_t R = 0; R < Result.Prog.Routines.size(); ++R) {
      if (Result.Prog.Routines[R].Name != E.Name)
        continue;
      const CallSummary &S =
          Result.Summaries.Routines[R].EntrySummaries[0];
      std::printf("  %s: call-used %-10s [%s]  call-defined %-14s [%s]  "
                  "call-killed %-18s [%s]\n",
                  E.Name, paperRegs(S.Used).str().c_str(), E.Used,
                  paperRegs(S.Defined).str().c_str(), E.Defined,
                  paperRegs(S.Killed).str().c_str(), E.Killed);
    }
  }

  std::printf("\n-- Section 2 / 3.3: phase 2 results for P2 --\n");
  for (uint32_t R = 0; R < Result.Prog.Routines.size(); ++R) {
    if (Result.Prog.Routines[R].Name != "P2")
      continue;
    const RoutineResults &RR = Result.Summaries.Routines[R];
    std::printf("  live-at-entry %s [paper: {R0, R1}]\n",
                paperRegs(RR.LiveAtEntry[0]).str().c_str());
    std::printf("  live-at-exit  %s [paper: {R0}]\n",
                paperRegs(RR.LiveAtExit[0]).str().c_str());
  }

  std::printf("\n-- the PSG (all nodes and edges) --\n");
  for (uint32_t NodeId = 0; NodeId < Result.Psg.Nodes.size(); ++NodeId) {
    const PsgNode &Node = Result.Psg.Nodes[NodeId];
    std::printf("  node %2u: %-7s of %-8s (block %u)\n", NodeId,
                psgNodeKindName(Node.Kind),
                Result.Prog.Routines[Node.RoutineIndex].Name.c_str(),
                Node.BlockIndex);
  }
  for (const PsgEdge &Edge : Result.Psg.Edges)
    std::printf("  edge %2u -> %2u %s  MAY-USE %s MAY-DEF %s MUST-DEF "
                "%s\n",
                Edge.Src, Edge.Dst,
                Result.Psg.isCallReturn(Edge) ? "(call-return) " : "(flow-summary)",
                paperRegs(Edge.Label.MayUse).str().c_str(),
                paperRegs(Edge.Label.MayDef).str().c_str(),
                paperRegs(Edge.Label.MustDef).str().c_str());
  return 0;
}
