//===- slice/Slicer.cpp - Dependence-graph slicing ------------------------===//

#include "slice/Slicer.h"

#include <algorithm>
#include <deque>

using namespace spike;

namespace {

/// BFS over one CSR direction.  \p Neighbors yields the neighbor of an
/// edge index in the traversal direction.
template <typename NextFn>
std::vector<uint64_t> slice(const DependenceGraph &Graph, uint64_t Seed,
                            const std::vector<uint32_t> &Index,
                            NextFn Next) {
  std::vector<uint64_t> Result;
  if (Seed >= Graph.NumAddrs)
    return Result;
  std::vector<bool> Seen(size_t(Graph.NumAddrs), false);
  std::deque<uint64_t> Work{Seed};
  Seen[size_t(Seed)] = true;
  while (!Work.empty()) {
    uint64_t Address = Work.front();
    Work.pop_front();
    Result.push_back(Address);
    for (uint32_t I = Index[size_t(Address)];
         I < Index[size_t(Address) + 1]; ++I) {
      uint64_t Neighbor = Next(I);
      if (!Seen[size_t(Neighbor)]) {
        Seen[size_t(Neighbor)] = true;
        Work.push_back(Neighbor);
      }
    }
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}

} // namespace

std::vector<uint64_t> spike::backwardSlice(const DependenceGraph &Graph,
                                           uint64_t Address) {
  return slice(Graph, Address, Graph.BackwardIndex,
               [&](uint32_t I) { return Graph.Edges[I].Dependency; });
}

std::vector<uint64_t> spike::forwardSlice(const DependenceGraph &Graph,
                                          uint64_t Address) {
  return slice(Graph, Address, Graph.ForwardIndex, [&](uint32_t I) {
    return Graph.Edges[Graph.ForwardOrder[I]].Dependent;
  });
}

std::string spike::sliceToDot(const Program &Prog,
                              const DependenceGraph &Graph,
                              const std::vector<uint64_t> &Addresses) {
  std::vector<bool> InSlice(size_t(Graph.NumAddrs), false);
  for (uint64_t Address : Addresses)
    if (Address < Graph.NumAddrs)
      InSlice[size_t(Address)] = true;

  std::string Dot;
  Dot += "digraph slice {\n";
  Dot += "  rankdir=BT;\n";
  Dot += "  node [shape=box, fontname=\"monospace\"];\n";

  // One cluster per routine that contributes instructions.
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    bool Any = false;
    for (uint64_t Address = R.Begin; Address < R.End && !Any; ++Address)
      Any = Address < Graph.NumAddrs && InSlice[size_t(Address)];
    if (!Any)
      continue;
    Dot += "  subgraph cluster_" + std::to_string(RoutineIndex) +
           " {\n    label=\"" + R.Name + "\";\n";
    for (uint64_t Address = R.Begin; Address < R.End; ++Address) {
      if (Address >= Graph.NumAddrs || !InSlice[size_t(Address)])
        continue;
      Dot += "    n" + std::to_string(Address) + " [label=\"" +
             std::to_string(Address) + ": " +
             Prog.inst(Address).str() + "\"];\n";
    }
    Dot += "  }\n";
  }

  for (const DepEdge &Edge : Graph.Edges) {
    if (!InSlice[size_t(Edge.Dependent)] ||
        !InSlice[size_t(Edge.Dependency)])
      continue;
    const char *Style = "";
    switch (Edge.Kind) {
    case DepKind::RegData:
      Style = "color=black";
      break;
    case DepKind::SlotData:
      Style = "color=blue";
      break;
    case DepKind::Control:
      Style = "color=gray, style=dashed";
      break;
    case DepKind::Call:
      Style = "color=red, style=bold";
      break;
    }
    Dot += "  n" + std::to_string(Edge.Dependent) + " -> n" +
           std::to_string(Edge.Dependency) + " [" + Style +
           ", label=\"" + depKindName(Edge.Kind) + "\"];\n";
  }
  Dot += "}\n";
  return Dot;
}
