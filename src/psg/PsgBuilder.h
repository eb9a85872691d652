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

} // namespace spike

#endif // SPIKE_PSG_PSGBUILDER_H
