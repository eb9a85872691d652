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
/// Routines build one way, as in the CFG builder: buildPsgLists builds
/// the nodes and edges of a routine subset back to back, one task per
/// routine, and splicePsgLists swaps them into the graph.  buildPsg
/// builds every routine and splices into an empty graph; an in-place
/// re-analysis (interproc/Incremental.h) builds the routines a patch
/// reaches and splices them over their old nodes and edges.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PSG_PSGBUILDER_H
#define SPIKE_PSG_PSGBUILDER_H

#include "psg/PsgGraph.h"
#include "support/MemoryTracker.h"
#include "support/Splice.h"

#include <span>
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

/// The nodes, edges and in-edge ids of a routine subset, each back to
/// back in subset order.  Routine I's first node carries the id
/// FirstNode[I] and its first edge FirstEdge[I]; its other ids count up
/// from those.  Node values and labels are what the builder leaves (the
/// solver phases initialize them).
struct PsgLists {
  FlatLists<PsgNode> Nodes;
  FlatLists<PsgEdge> Edges;
  FlatLists<uint32_t> InEdgeIds;
  std::vector<uint32_t> FirstNode;
  std::vector<uint32_t> FirstEdge;
  /// Worklist pops of the Figure 6 label solves.
  uint64_t LabelPops = 0;
};

/// Builds the lists of \p Routines, ascending, of \p Prog, one task per
/// routine on \p Pool.  Ids count from each list's offset.
PsgLists buildPsgLists(const Program &Prog, std::span<const uint32_t> Routines,
                       const PsgBuildOptions &Opts = {},
                       ThreadPool *Pool = nullptr);

/// Swaps \p Lists, built for \p Routines, with those routines' nodes and
/// edges in \p Psg, and shifts the ids of every routine from the first
/// spliced one on to where its slices now sit, keeping RoutineNodeBegin
/// and the node-order contract.  Afterwards \p Lists holds the replaced
/// lists, with the ids they had, so a second call puts them back.  The
/// linkage CSRs are left alone: rebuildLinkage them when a node or edge
/// id they hold moved.
void splicePsgLists(ProgramSummaryGraph &Psg,
                    std::span<const uint32_t> Routines, PsgLists &Lists);

/// Rebuilds \p Psg's linkage CSRs, IndirectReturnNodes and
/// AddressTakenExitNodes from its nodes and edges and \p Prog's calls,
/// in one serial pass.
void rebuildLinkage(const Program &Prog, ProgramSummaryGraph &Psg);

/// The bytes buildPsg charges for routine \p R's nodes and edges.
uint64_t routinePsgBytes(const ProgramSummaryGraph &Psg, uint32_t R);

/// The bytes buildPsg charges for \p Psg's indexes: every container
/// besides the nodes, edges and in-edge ids.
uint64_t psgIndexBytes(const ProgramSummaryGraph &Psg);

} // namespace spike

#endif // SPIKE_PSG_PSGBUILDER_H
