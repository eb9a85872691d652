//===- tests/callgraph_test.cpp - call graph unit tests --------------------===//

#include "binary/ProgramBuilder.h"
#include "cfg/CallGraph.h"
#include "cfg/CfgBuilder.h"
#include "isa/Registers.h"
#include "synth/ExecGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace spike;

namespace {

/// The Program borrows \p Img's words: a temporary image does not
/// compile.
Program build(const Image &Img) {
  Program Prog = buildProgram(Img, CallingConv());
  computeDefUbd(Prog);
  return Prog;
}
Program build(const Image &&Img) = delete;

uint32_t byName(const Program &Prog, const std::string &Name) {
  for (uint32_t I = 0; I < Prog.Routines.size(); ++I)
    if (Prog.Routines[I].Name == Name)
      return I;
  ADD_FAILURE() << "no routine " << Name;
  return 0;
}

/// main -> a -> b <-> c (mutual recursion), d self-recursive, e dead,
/// t address-taken (uncalled directly).
Image testProgram() {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitCall("a");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("a");
  B.emitCall("b");
  B.emit(inst::ret());
  B.beginRoutine("b");
  B.emitCall("c");
  B.emit(inst::ret());
  B.beginRoutine("c");
  B.emitCall("b");
  B.emit(inst::ret());
  B.beginRoutine("d");
  B.emitCall("d");
  B.emit(inst::ret());
  B.beginRoutine("e");
  B.emit(inst::ret());
  B.beginRoutine("t", /*AddressTaken=*/true);
  B.emit(inst::ret());
  return B.build();
}

} // namespace

TEST(CallGraphTest, AdjacencyAndInverse) {
  Image Img = testProgram();
  Program Prog = build(Img);
  CallGraph Graph = buildCallGraph(Prog);
  uint32_t Main = byName(Prog, "main"), A = byName(Prog, "a"),
           BR = byName(Prog, "b"), C = byName(Prog, "c");
  EXPECT_TRUE(Graph.calls(Main, A));
  EXPECT_TRUE(Graph.calls(A, BR));
  EXPECT_TRUE(Graph.calls(BR, C));
  EXPECT_TRUE(Graph.calls(C, BR));
  EXPECT_FALSE(Graph.calls(Main, BR));
  EXPECT_TRUE(std::ranges::equal(Graph.Callers[BR],
                                 std::vector<uint32_t>{A, C}));
  EXPECT_TRUE(Graph.Callers[Main].empty());
}

TEST(CallGraphTest, CyclesDetected) {
  Image Img = testProgram();
  Program Prog = build(Img);
  CallGraph Graph = buildCallGraph(Prog);
  EXPECT_FALSE(Graph.InCycle[byName(Prog, "main")]);
  EXPECT_FALSE(Graph.InCycle[byName(Prog, "a")]);
  EXPECT_TRUE(Graph.InCycle[byName(Prog, "b")]);  // Mutual recursion.
  EXPECT_TRUE(Graph.InCycle[byName(Prog, "c")]);
  EXPECT_TRUE(Graph.InCycle[byName(Prog, "d")]);  // Self recursion.
  EXPECT_FALSE(Graph.InCycle[byName(Prog, "e")]);
}

TEST(CallGraphTest, SccsPartitionRoutines) {
  Image Img = testProgram();
  Program Prog = build(Img);
  CallGraph Graph = buildCallGraph(Prog);
  EXPECT_EQ(Graph.SccId[byName(Prog, "b")],
            Graph.SccId[byName(Prog, "c")]);
  EXPECT_NE(Graph.SccId[byName(Prog, "a")],
            Graph.SccId[byName(Prog, "b")]);
  EXPECT_GT(Graph.NumSccs, 0u);
  for (uint32_t Id : Graph.SccId)
    EXPECT_LT(Id, Graph.NumSccs);
}

TEST(CallGraphTest, ReachabilityFromEntryAndAddressTaken) {
  Image Img = testProgram();
  Program Prog = build(Img);
  CallGraph Graph = buildCallGraph(Prog);
  for (const char *Name : {"main", "a", "b", "c", "t"})
    EXPECT_TRUE(Graph.Reachable[byName(Prog, Name)]) << Name;
  EXPECT_FALSE(Graph.Reachable[byName(Prog, "d")]);
  EXPECT_FALSE(Graph.Reachable[byName(Prog, "e")]);
}

TEST(CallGraphTest, IndirectCallsFlagged) {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emitLoadRoutineAddress(reg::PV, "t");
  B.emit(inst::jsrR(reg::PV));
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("t", true);
  B.emit(inst::ret());
  Image Img = B.build();
  Program Prog = build(Img);
  CallGraph Graph = buildCallGraph(Prog);
  EXPECT_TRUE(Graph.HasIndirectCalls[0]);
  EXPECT_FALSE(Graph.HasIndirectCalls[1]);
  EXPECT_TRUE(Graph.Callees[0].empty()); // Indirect edges not listed.
  EXPECT_TRUE(Graph.Reachable[1]);       // Address-taken is a root.
}

TEST(CallGraphTest, SccIdsReverseTopological) {
  // On generated DAG-call-graph programs, callees finish first in
  // Tarjan, so a caller's SCC id is >= each callee's.
  for (uint64_t Seed : {5u, 6u}) {
    ExecProfile P;
    P.Routines = 15;
    P.Seed = Seed;
    Image Img = generateExecProgram(P);
    Program Prog = build(Img);
    CallGraph Graph = buildCallGraph(Prog);
    for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
      for (uint32_t Callee : Graph.Callees[R])
        if (Graph.SccId[R] != Graph.SccId[Callee]) {
          EXPECT_GT(Graph.SccId[R], Graph.SccId[Callee]);
        }
  }
}

TEST(CallGraphTest, EmptyProgram) {
  Program Prog;
  CallGraph Graph = buildCallGraph(Prog);
  EXPECT_EQ(Graph.NumSccs, 0u);
  EXPECT_TRUE(Graph.Callees.empty());
}
