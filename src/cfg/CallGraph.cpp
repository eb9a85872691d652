//===- cfg/CallGraph.cpp - Whole-program call graph ------------------------===//

#include "cfg/CallGraph.h"

#include "cfg/Program.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <numeric>
#include <span>

using namespace spike;

uint32_t spike::sccComponents(const CsrLists &Succs,
                              std::vector<uint32_t> &Component) {
  size_t NumNodes = Succs.size();
  Component.assign(NumNodes, 0);
  std::vector<int32_t> Index(NumNodes, -1), Low(NumNodes, 0);
  std::vector<bool> OnStack(NumNodes, false);
  std::vector<uint32_t> Stack;
  int32_t NextIndex = 0;
  uint32_t NumComponents = 0;
  struct Frame {
    uint32_t Node;
    size_t Child;
  };
  std::vector<Frame> Dfs;

  for (uint32_t Root = 0; Root < NumNodes; ++Root) {
    if (Index[Root] >= 0)
      continue;
    Dfs.push_back({Root, 0});
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    while (!Dfs.empty()) {
      Frame &Top = Dfs.back();
      std::span<const uint32_t> Next = Succs[Top.Node];
      if (Top.Child < Next.size()) {
        uint32_t Node = Next[Top.Child++];
        if (Index[Node] < 0) {
          Index[Node] = Low[Node] = NextIndex++;
          Stack.push_back(Node);
          OnStack[Node] = true;
          Dfs.push_back({Node, 0});
        } else if (OnStack[Node]) {
          Low[Top.Node] = std::min(Low[Top.Node], Index[Node]);
        }
        continue;
      }
      uint32_t Node = Top.Node;
      Dfs.pop_back();
      if (!Dfs.empty())
        Low[Dfs.back().Node] = std::min(Low[Dfs.back().Node], Low[Node]);
      if (Low[Node] != Index[Node])
        continue;
      for (;;) {
        uint32_t Member = Stack.back();
        Stack.pop_back();
        OnStack[Member] = false;
        Component[Member] = NumComponents;
        if (Member == Node)
          break;
      }
      ++NumComponents;
    }
  }
  return NumComponents;
}

CallGraph spike::buildCallGraph(const Program &Prog, ThreadPool *Pool) {
  CallGraph Graph;
  size_t Count = Prog.Routines.size();
  Graph.HasIndirectCalls.assign(Count, false);
  Graph.InCycle.assign(Count, false);
  Graph.Reachable.assign(Count, false);
  if (Count == 0)
    return Graph;

  // Adjacency (deduplicated), one task per routine: each routine sorts
  // and deduplicates its direct callees in its own slot of an array
  // sized by call sites, and a serial pass packs the slots.  Self-calls
  // are noted as cycles immediately.
  std::vector<uint32_t> Slot(Count + 1, 0);
  for (uint32_t R = 0; R < Count; ++R)
    Slot[R + 1] = Slot[R] + uint32_t(Prog.Routines[R].CallBlocks.size());
  std::vector<uint32_t> &Ids = Graph.Callees.Ids;
  Ids.resize(Slot[Count]);
  std::vector<uint32_t> NumCallees(Count, 0);
  std::vector<uint8_t> Indirect(Count, 0), SelfCall(Count, 0);
  forEachTask(Pool, Count, [&](size_t R, unsigned) {
    const Routine &Rt = Prog.Routines[R];
    uint32_t *First = Ids.data() + Slot[R], *Last = First;
    for (uint32_t Block : Rt.CallBlocks) {
      const BasicBlock &B = Rt.Blocks[Block];
      if (B.Term == TerminatorKind::IndirectCall) {
        Indirect[R] = 1;
        continue;
      }
      uint32_t Callee = uint32_t(B.CalleeRoutine);
      SelfCall[R] |= Callee == R;
      *Last++ = Callee;
    }
    std::sort(First, Last);
    NumCallees[R] = uint32_t(std::unique(First, Last) - First);
  });
  Graph.Callees.Begin.resize(Count + 1);
  uint32_t Packed = 0;
  for (uint32_t R = 0; R < Count; ++R) {
    Graph.HasIndirectCalls[R] = Indirect[R];
    Graph.InCycle[R] = SelfCall[R];
    if (Packed != Slot[R])
      std::copy(Ids.begin() + Slot[R], Ids.begin() + Slot[R] + NumCallees[R],
                Ids.begin() + Packed);
    Packed += NumCallees[R];
    Graph.Callees.Begin[R + 1] = Packed;
  }
  Ids.resize(Packed);
  Ids.shrink_to_fit();

  // Callers by a counting sort over the callee lists in caller order, so
  // each caller list comes out ascending.
  std::vector<uint32_t> &CallerBegin = Graph.Callers.Begin;
  CallerBegin.assign(Count + 1, 0);
  for (uint32_t Callee : Ids)
    ++CallerBegin[Callee + 1];
  std::partial_sum(CallerBegin.begin(), CallerBegin.end(),
                   CallerBegin.begin());
  Graph.Callers.Ids.resize(Ids.size());
  std::vector<uint32_t> Cursor(CallerBegin.begin(), CallerBegin.end() - 1);
  for (uint32_t R = 0; R < Count; ++R)
    for (uint32_t Callee : Graph.Callees[R])
      Graph.Callers.Ids[Cursor[Callee]++] = R;

  // Routines on a call cycle: self-callers (above) and every member of a
  // component with more than one routine.
  Graph.NumSccs = sccComponents(Graph.Callees, Graph.SccId);
  std::vector<uint32_t> SccSize(Graph.NumSccs, 0);
  for (uint32_t Scc : Graph.SccId)
    ++SccSize[Scc];
  for (uint32_t R = 0; R < Count; ++R)
    if (SccSize[Graph.SccId[R]] > 1)
      Graph.InCycle[R] = true;

  // Reachability from the roots.
  std::vector<uint32_t> Queue;
  auto AddRoot = [&](uint32_t R) {
    if (!Graph.Reachable[R]) {
      Graph.Reachable[R] = true;
      Queue.push_back(R);
    }
  };
  if (Prog.EntryRoutine >= 0)
    AddRoot(uint32_t(Prog.EntryRoutine));
  for (uint32_t R = 0; R < Count; ++R)
    if (Prog.Routines[R].AddressTaken || Prog.Routines[R].Quarantined ||
        Prog.Routines[R].CalledFromQuarantine)
      AddRoot(R);
  for (size_t Cursor = 0; Cursor < Queue.size(); ++Cursor)
    for (uint32_t Callee : Graph.Callees[Queue[Cursor]])
      AddRoot(Callee);

  return Graph;
}
