//===- psg/PsgBuilder.h - PSG construction --------------------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the Program Summary Graph for a decoded Program (Section 3.1,
/// 3.5, 3.6): creates the PSG nodes for every routine, discovers the
/// flow-summary edges by anchor-free-path reachability, labels each edge
/// by running the Figure 6 dataflow on the CFG subgraph the edge
/// represents, and adds the call-return edges.
///
/// DEF/UBD sets must have been computed (computeDefUbd) before building.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PSG_PSGBUILDER_H
#define SPIKE_PSG_PSGBUILDER_H

#include "psg/PsgGraph.h"
#include "support/MemoryTracker.h"

#include <span>
#include <utility>
#include <vector>

namespace spike {

class ThreadPool;

/// PSG construction options.
struct PsgBuildOptions {
  /// Insert branch nodes at multiway branches (Section 3.6).  Disabled
  /// only by the Table 4 experiment, which measures the edge blow-up
  /// without them.
  bool UseBranchNodes = true;
};

/// Builds the PSG for \p Prog.  \p Mem, when non-null, is charged for the
/// graph's memory.  When \p Pool is non-null, routines build their node
/// and edge sets concurrently (each routine's subgraph is independent).
/// Node ids are fixed before the build from the CFG and edges are
/// gathered in routine order, so the resulting graph is identical to the
/// serial build bit for bit.
ProgramSummaryGraph buildPsg(const Program &Prog,
                             const PsgBuildOptions &Opts = {},
                             MemoryTracker *Mem = nullptr,
                             ThreadPool *Pool = nullptr);

/// One routine's nodes, edges and in-edge ids with routine-relative ids:
/// node ids count from the routine's first node, edge ids (FirstOut,
/// FirstIn, InEdgeIds) from its first edge.  Node values and labels are
/// what the builder leaves (the solver phases initialize them).
struct PsgSegment {
  std::vector<PsgNode> Nodes;
  std::vector<PsgEdge> Edges;
  std::vector<uint32_t> InEdgeIds;
};

/// Builds the segments buildPsg would give \p Routines of \p Prog, one
/// task per routine on \p Pool.
std::vector<PsgSegment> buildPsgSegments(const Program &Prog,
                                         std::span<const uint32_t> Routines,
                                         const PsgBuildOptions &Opts = {},
                                         ThreadPool *Pool = nullptr);

/// Swaps each (routine, segment) pair into \p Psg in place of the
/// routine's nodes and edges, shifting every later routine's ids, and
/// keeps RoutineNodeBegin, NumBranchNodes and NumFlowSummaryEdges in
/// step; splicing keeps the node-order contract.  \p Segments is in
/// ascending routine order; afterwards it holds the replaced segments, so
/// a second call with it puts them back.  The linkage CSRs are left
/// alone: rebuildLinkage them when a node or edge id they hold moved.
void splicePsgSegments(ProgramSummaryGraph &Psg,
                       std::vector<std::pair<uint32_t, PsgSegment>> &Segments);

/// Rebuilds \p Psg's linkage CSRs, IndirectReturnNodes and
/// AddressTakenExitNodes from its nodes and edges and \p Prog's calls.
void rebuildLinkage(const Program &Prog, ProgramSummaryGraph &Psg,
                    ThreadPool *Pool = nullptr);

/// The bytes buildPsg charges for \p Psg's indexes: every container
/// besides the nodes, edges and in-edge ids.
uint64_t psgIndexBytes(const ProgramSummaryGraph &Psg);

} // namespace spike

#endif // SPIKE_PSG_PSGBUILDER_H
