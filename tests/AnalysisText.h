//===- tests/AnalysisText.h - Analyses as comparable text -----*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every field of a Program, a PSG and an AnalysisResult as lines of text,
/// so two analyses compare element for element and a difference names
/// its line: the parallel tests compare builds at every job count, the
/// serve tests a patched resident analysis with a fresh one.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TESTS_ANALYSISTEXT_H
#define SPIKE_TESTS_ANALYSISTEXT_H

#include "psg/Analyzer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace spike {
namespace testtext {

template <class RangeT> std::string listOf(const RangeT &Values) {
  std::string Out;
  for (auto V : Values)
    Out += std::to_string(V) + ",";
  return Out;
}

inline void describeCallGraph(const CallGraph &G,
                              std::vector<std::string> &Out) {
  for (size_t R = 0; R < G.Callees.size(); ++R)
    Out.push_back("callgraph " + std::to_string(R) + " callees " +
                  listOf(G.Callees[R]) + " callers " + listOf(G.Callers[R]) +
                  " indirect " + std::to_string(G.HasIndirectCalls[R]) +
                  " scc " + std::to_string(G.SccId[R]) + " cycle " +
                  std::to_string(G.InCycle[R]) + " reachable " +
                  std::to_string(G.Reachable[R]));
  Out.push_back("sccs " + std::to_string(G.NumSccs));
}

inline void describeSchedule(const char *Name, const SccSchedule &S,
                             std::vector<std::string> &Out) {
  Out.push_back(std::string(Name) + " groups " + std::to_string(S.NumGroups) +
                " of " + listOf(S.GroupOfRoutine));
  for (uint32_t G = 0; G < S.NumGroups; ++G)
    Out.push_back(std::string(Name) + " group " + std::to_string(G) + " " +
                  listOf(S.Members[G]) + " succ " + listOf(S.GroupSucc[G]));
  for (const std::vector<uint32_t> &Level : S.Levels)
    Out.push_back(std::string(Name) + " level " + listOf(Level));
}

inline std::string flowText(const FlowSets &F) {
  return F.MayUse.str() + "/" + F.MayDef.str() + "/" + F.MustDef.str();
}

/// Every field of \p Prog, one line per routine, block and table, with
/// where each routine's lists start in the program-wide arrays and how
/// long those arrays are.
inline std::vector<std::string> describeProgram(const Program &Prog) {
  std::vector<std::string> Out;
  Out.push_back("insts " + std::to_string(Prog.numInsts()) + " entry " +
                std::to_string(Prog.EntryRoutine));
  for (uint64_t Address = 0; Address < Prog.numInsts(); ++Address)
    Out.push_back("inst " + Prog.inst(Address).str(int64_t(Address)));
  for (const JumpTableTargets &Table : Prog.JumpTables)
    Out.push_back("table " + listOf(Table.Targets));
  auto At = [](auto Span, const auto &All) {
    return std::to_string(Span.data() - All.data()) + ",";
  };
  Out.push_back("arrays " + std::to_string(Prog.AllBlocks.size()) + " " +
                std::to_string(Prog.AllArcs.size()) + " " +
                std::to_string(Prog.AllEntryAddresses.size()) + " " +
                std::to_string(Prog.AllEntryBlocks.size()) + " " +
                std::to_string(Prog.AllExitBlocks.size()) + " " +
                std::to_string(Prog.AllCallBlocks.size()));
  for (const Routine &R : Prog.Routines) {
    Out.push_back("at " + At(R.Blocks, Prog.AllBlocks) +
                  At(R.Arcs, Prog.AllArcs) +
                  At(R.EntryAddresses, Prog.AllEntryAddresses) +
                  At(R.EntryBlocks, Prog.AllEntryBlocks) +
                  At(R.ExitBlocks, Prog.AllExitBlocks) +
                  At(R.CallBlocks, Prog.AllCallBlocks));
    Out.push_back("routine " + R.Name + " [" + std::to_string(R.Begin) + "," +
                  std::to_string(R.End) + ") entries " +
                  listOf(R.EntryAddresses) + " at " + listOf(R.EntryBlocks) +
                  " exits " + listOf(R.ExitBlocks) + " calls " +
                  listOf(R.CallBlocks) + " arcs " + listOf(R.Arcs) +
                  " taken " + std::to_string(R.AddressTaken) + " quarantined " +
                  std::to_string(R.Quarantined) + " (" + R.QuarantineReason +
                  ") " + degradeReasonName(R.Degrade) + " fromq " +
                  std::to_string(R.CalledFromQuarantine) + " branches " +
                  std::to_string(R.NumBranches));
    for (uint32_t Index = 0; Index < R.Blocks.size(); ++Index) {
      const BasicBlock &B = R.Blocks[Index];
      Out.push_back("block [" + std::to_string(B.Begin) + "," +
                    std::to_string(B.End) + ") succ " +
                    std::to_string(B.FirstSucc) + "+" +
                    std::to_string(R.succs(Index).size()) + " pred " +
                    std::to_string(B.FirstPred) + "+" +
                    std::to_string(R.preds(Index).size()) + " term " +
                    std::to_string(int(B.Term)) + " callee " +
                    std::to_string(B.CalleeRoutine) + "." +
                    std::to_string(B.CalleeEntry) + " table " +
                    std::to_string(B.JumpTableIndex) + " def " + B.Def.str() +
                    " ubd " + B.Ubd.str());
    }
  }
  for (const auto &[Address, Annot] : Prog.CallAnnotations)
    Out.push_back("call-annotation " + std::to_string(Address) + " " +
                  Annot.Used.str() + "/" + Annot.Defined.str() + "/" +
                  Annot.Killed.str());
  for (const auto &[Address, Live] : Prog.JumpLiveAnnotations)
    Out.push_back("jump-annotation " + std::to_string(Address) + " " +
                  Live.str());
  for (const ValidationFinding &F : Prog.Validation.Findings)
    Out.push_back("finding " + std::to_string(int(F.Code)) + " @" +
                  std::to_string(F.Address) + " " + F.RoutineName + " " +
                  std::to_string(F.Strict) + std::to_string(F.Quarantines) +
                  " " + F.Message);
  describeCallGraph(Prog.Calls, Out);
  describeSchedule("callee-first", Prog.CalleeFirst, Out);
  describeSchedule("caller-first", Prog.CallerFirst, Out);
  return Out;
}

/// Every field of \p Psg: nodes with both CSR ranges, edges, the
/// reverse index, the node directory accessors and the linkage CSRs.
inline std::vector<std::string> describePsg(const Program &Prog,
                                            const ProgramSummaryGraph &Psg) {
  std::vector<std::string> Out;
  for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
    const PsgNode &N = Psg.Nodes[NodeId];
    Out.push_back("node " + std::string(psgNodeKindName(N.Kind)) + " " +
                  std::to_string(N.RoutineIndex) + "." +
                  std::to_string(N.BlockIndex) + " out " +
                  std::to_string(N.FirstOut) + "+" +
                  std::to_string(Psg.outEdges(NodeId).size()) + " in " +
                  std::to_string(N.FirstIn) + "+" +
                  std::to_string(Psg.inEdgeIds(NodeId).size()) + " sets " +
                  flowText(N.Sets) + " live " + N.Live.str());
  }
  for (const PsgEdge &E : Psg.Edges)
    Out.push_back("edge " + std::to_string(E.Src) + "->" +
                  std::to_string(E.Dst) + " " + flowText(E.Label) +
                  (Psg.isCallReturn(E) ? " cr" : ""));
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
    std::string Calls;
    for (uint32_t C = 0; C < Prog.Routines[R].CallBlocks.size(); ++C)
      Calls += std::to_string(Psg.callNode(Prog, R, C)) + "/" +
               std::to_string(Psg.returnNode(Prog, R, C)) + ",";
    Out.push_back("info " + listOf(Psg.entryNodes(Prog, R)) + " " +
                  listOf(Psg.exitNodes(Prog, R)) + " " + Calls);
  }
  Out.push_back("in " + listOf(Psg.InEdgeIds));
  Out.push_back("routine-nodes " + listOf(Psg.RoutineNodeBegin));
  Out.push_back("cr-of-entry " + listOf(Psg.CrEdgeOfEntry.Begin) + " " +
                listOf(Psg.CrEdgeOfEntry.Ids));
  Out.push_back("returns-of-exit " + listOf(Psg.ReturnsOfExit.Begin) + " " +
                listOf(Psg.ReturnsOfExit.Ids));
  Out.push_back("exits-of-return " + listOf(Psg.ExitsOfReturn.Begin) + " " +
                listOf(Psg.ExitsOfReturn.Ids));
  Out.push_back("indirect-returns " + listOf(Psg.IndirectReturnNodes));
  Out.push_back("taken-exits " + listOf(Psg.AddressTakenExitNodes));
  Out.push_back("counts " + std::to_string(Psg.numFlowSummaryEdges()) + " " +
                std::to_string(Psg.numBranchNodes()));
  return Out;
}

/// describeProgram and describePsg of \p A, then its save sets,
/// summaries and tracked memory.
inline std::vector<std::string> describeAnalysis(const AnalysisResult &A) {
  std::vector<std::string> Out = describeProgram(A.Prog);
  std::vector<std::string> Psg = describePsg(A.Prog, A.Psg);
  Out.insert(Out.end(), Psg.begin(), Psg.end());
  for (uint32_t R = 0; R < A.Prog.Routines.size(); ++R) {
    const RoutineResults &S = A.Summaries.Routines[R];
    std::string Line = "saved " + A.SavedPerRoutine[R].str() + " summary";
    for (const CallSummary &C : S.EntrySummaries)
      Line += " " + C.Used.str() + "/" + C.Defined.str() + "/" + C.Killed.str();
    for (RegSet Live : S.LiveAtEntry)
      Line += " in " + Live.str();
    for (RegSet Live : S.LiveAtExit)
      Line += " out " + Live.str();
    Out.push_back(Line);
  }
  Out.push_back("memory " + std::to_string(A.Memory.liveBytes()) + " " +
                std::to_string(A.Memory.peakBytes()) + " " +
                std::to_string(A.CfgBytes) + " " +
                std::to_string(A.InitBytes) + " " +
                std::to_string(A.PsgBytes));
  return Out;
}

inline void expectSameLines(const std::vector<std::string> &Expected,
                            const std::vector<std::string> &Actual,
                            const std::string &Where) {
  ASSERT_EQ(Expected.size(), Actual.size()) << Where;
  for (size_t I = 0; I < Expected.size(); ++I)
    ASSERT_EQ(Expected[I], Actual[I]) << Where << " line " << I;
}

} // namespace testtext
} // namespace spike

#endif // SPIKE_TESTS_ANALYSISTEXT_H
