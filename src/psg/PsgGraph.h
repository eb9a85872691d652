//===- psg/PsgGraph.h - Program Summary Graph data structures -*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Program Summary Graph (PSG): the paper's compact representation of
/// a program's intraprocedural and interprocedural control flow.
///
/// Section 3.1: each routine contributes an entry node per entrance, an
/// exit node per exit, and a call node plus a return node per call
/// instruction; Section 3.6 adds branch nodes at multiway branches.  Two
/// node kinds are implementation extensions required for soundness on
/// whole executables:
///   - Unknown nodes terminate paths at unresolved indirect jumps
///     (Section 3.5's "assume all registers live" rule),
///   - Halt nodes terminate paths at program-exit instructions, so uses
///     on non-returning paths are still observed while MUST-DEF is not
///     weakened along them.
///
/// Flow-summary edges connect nodes with an anchor-free control-flow path
/// between their program locations and are labelled with the MUST-DEF,
/// MAY-DEF, and MAY-USE sets of all such paths (Figure 6).  Call-return
/// edges connect each call node to its return node and carry the callee's
/// summary (filled during phase 1, or fixed calling-standard sets for
/// indirect calls).
///
/// Storage is CSR-style: node N owns the edges [FirstOut of N, FirstOut
/// of N + 1) of the edge array, which is sorted by source node.  A
/// parallel reverse-CSR (InEdgeIds sorted by destination) supports the
/// backward worklist propagation of both dataflow phases.
///
/// Node order is a contract: each routine owns a contiguous id range,
/// routines in order, and within it the builder creates its entry nodes
/// (one per entrance, in entrance order), its exit nodes (in ExitBlocks
/// order), a call node and its return node per call site (in CallBlocks
/// order), then its branch, unknown and halt nodes in block order.  The
/// directory accessors of ProgramSummaryGraph compute node ids from that
/// order instead of storing them.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PSG_PSGGRAPH_H
#define SPIKE_PSG_PSGGRAPH_H

#include "cfg/Program.h"
#include "dataflow/FlowSets.h"
#include "support/RegSet.h"

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

namespace spike {

/// Kinds of PSG nodes.
enum class PsgNodeKind : uint8_t {
  Entry,   ///< One per routine entrance (paper node type 1).
  Exit,    ///< One per routine exit (paper node type 2).
  Call,    ///< One per call instruction (paper node type 3).
  Return,  ///< One per call instruction (paper node type 4).
  Branch,  ///< One per multiway branch (Section 3.6).
  Unknown, ///< Sink at an unresolved indirect jump (extension, see above).
  Halt,    ///< Sink at a program-exit instruction (extension, see above).
};

/// Returns a short name for \p Kind ("entry", "call", ...).
const char *psgNodeKindName(PsgNodeKind Kind);

/// One PSG node.
struct PsgNode {
  /// Where the node's outgoing edges start in ProgramSummaryGraph::Edges
  /// and its incoming edge ids in ProgramSummaryGraph::InEdgeIds; each
  /// range ends where the next node's begins.  They lead the record so
  /// that a node and the next node's range starts usually share the
  /// cache lines the node already occupies.
  uint32_t FirstOut = 0;
  uint32_t FirstIn = 0;

  PsgNodeKind Kind = PsgNodeKind::Entry;

  /// Owning routine index in the Program.
  uint32_t RoutineIndex = 0;

  /// The anchor block: the entrance block (Entry), the exiting block
  /// (Exit), the block ended by the call (Call and Return), the multiway
  /// branch block (Branch), or the terminating block (Unknown, Halt).
  uint32_t BlockIndex = 0;

  /// Phase 1 dataflow value (Figure 8).  After convergence, an entry
  /// node's sets are the routine's unfiltered call-used / call-killed /
  /// call-defined summary.
  FlowSets Sets;

  /// Phase 2 dataflow value (Figure 10).  After convergence, MAY-USE at
  /// entry nodes is live-at-entry and at exit nodes is live-at-exit.
  RegSet Live;
};

/// One PSG edge.
struct PsgEdge {
  uint32_t Src = 0;
  uint32_t Dst = 0;

  /// MUST-DEF / MAY-DEF / MAY-USE of the control-flow paths the edge
  /// represents.  Flow-summary labels are fixed at build time; call-return
  /// labels start empty and are updated during phase 1.  An edge is a
  /// call-return edge exactly when its source is a Call node, whose only
  /// out-edge it is.
  FlowSets Label;
};

static_assert(sizeof(PsgNode) == 56, "PsgNode layout changed");
static_assert(sizeof(PsgEdge) == 32, "PsgEdge layout changed");

/// A range of consecutive node or edge ids.
using NodeIdRange = std::ranges::iota_view<uint32_t, uint32_t>;
using EdgeIdRange = NodeIdRange;

/// The whole-program summary graph.
struct ProgramSummaryGraph {
  std::vector<PsgNode> Nodes;
  std::vector<PsgEdge> Edges;     ///< Sorted by Src (CSR with PsgNode).
  std::vector<uint32_t> InEdgeIds; ///< Edge ids sorted by Dst (reverse CSR).

  /// First node id per routine, CSR-style (size Routines.size()+1):
  /// nodes are created routine by routine, so routine r owns exactly the
  /// contiguous id range [RoutineNodeBegin[r], RoutineNodeBegin[r+1]).
  /// The parallel solvers use this to carve per-component worklists.
  std::vector<uint32_t> RoutineNodeBegin;

  /// For phase 1: entry node id -> the call-return edge ids to refresh
  /// when the entry's sets change (one list per node).
  CsrLists CrEdgeOfEntry;

  /// For phase 2: exit node id -> the return node ids whose liveness
  /// flows into that exit (one list per node).  Returns of indirect calls
  /// are handled via IndirectReturnNodes below instead.
  CsrLists ReturnsOfExit;

  /// The inverse of ReturnsOfExit: return node id -> the exit node ids it
  /// feeds; used to requeue exits when a return changes.
  CsrLists ExitsOfReturn;

  /// Return nodes of indirect call sites; their phase 2 MAY-USE flows to
  /// the exits of every address-taken routine.
  std::vector<uint32_t> IndirectReturnNodes;

  /// Exit node ids of address-taken routines.
  std::vector<uint32_t> AddressTakenExitNodes;

  /// Number of flow-summary edges: every edge but the call-return edge
  /// of each call node.
  uint64_t numFlowSummaryEdges() const {
    return Edges.size() - countNodes(PsgNodeKind::Call);
  }

  /// Number of branch nodes inserted (Table 4's node increase).
  uint64_t numBranchNodes() const { return countNodes(PsgNodeKind::Branch); }

  /// Returns the ids of routine \p R's edges.  No edge crosses routines,
  /// so they are the out-edges of its nodes and the in-edges too.
  EdgeIdRange routineEdges(uint32_t R) const {
    return {edgeBegin(RoutineNodeBegin[R]), edgeBegin(RoutineNodeBegin[R + 1])};
  }

  /// Returns the out-edges of \p NodeId.
  std::span<const PsgEdge> outEdges(uint32_t NodeId) const {
    return std::span(Edges).subspan(Nodes[NodeId].FirstOut,
                                    outEnd(NodeId) - Nodes[NodeId].FirstOut);
  }

  /// Returns the ids of the in-edges of \p NodeId.
  std::span<const uint32_t> inEdgeIds(uint32_t NodeId) const {
    return std::span(InEdgeIds).subspan(Nodes[NodeId].FirstIn,
                                        inEnd(NodeId) - Nodes[NodeId].FirstIn);
  }

  /// Returns true for a call-return edge.
  bool isCallReturn(const PsgEdge &Edge) const {
    return Nodes[Edge.Src].Kind == PsgNodeKind::Call;
  }

  /// The node directory of routine \p R of \p Prog, computed from
  /// RoutineNodeBegin and the node-order contract above.
  NodeIdRange entryNodes(const Program &Prog, uint32_t R) const {
    uint32_t First = RoutineNodeBegin[R];
    return {First, First + Prog.Routines[R].numEntries()};
  }
  NodeIdRange exitNodes(const Program &Prog, uint32_t R) const {
    uint32_t First = RoutineNodeBegin[R] + Prog.Routines[R].numEntries();
    return {First, First + uint32_t(Prog.Routines[R].ExitBlocks.size())};
  }
  uint32_t entryNode(uint32_t R, uint32_t Entry) const {
    return RoutineNodeBegin[R] + Entry;
  }
  /// Call site \p Call's call node; its return node is the next id.
  uint32_t callNode(const Program &Prog, uint32_t R, uint32_t Call) const {
    const Routine &Rt = Prog.Routines[R];
    return RoutineNodeBegin[R] + Rt.numEntries() +
           uint32_t(Rt.ExitBlocks.size()) + 2 * Call;
  }
  uint32_t returnNode(const Program &Prog, uint32_t R, uint32_t Call) const {
    return callNode(Prog, R, Call) + 1;
  }

  /// The entrance index of Entry node \p NodeId, or the index into
  /// Routine::ExitBlocks of Exit node \p NodeId: its offset in the
  /// node-order contract.
  uint32_t anchorIndex(const Program &Prog, uint32_t NodeId) const {
    const PsgNode &Node = Nodes[NodeId];
    uint32_t Offset = NodeId - RoutineNodeBegin[Node.RoutineIndex];
    return Node.Kind == PsgNodeKind::Exit
               ? Offset - Prog.Routines[Node.RoutineIndex].numEntries()
               : Offset;
  }

private:
  /// Where node \p NodeId's out-edges begin; past the last node, the end
  /// of the edges.
  uint32_t edgeBegin(uint32_t NodeId) const {
    return NodeId < Nodes.size() ? Nodes[NodeId].FirstOut
                                 : uint32_t(Edges.size());
  }
  uint32_t outEnd(uint32_t NodeId) const { return edgeBegin(NodeId + 1); }
  uint32_t inEnd(uint32_t NodeId) const {
    return NodeId + 1 < Nodes.size() ? Nodes[NodeId + 1].FirstIn
                                     : uint32_t(InEdgeIds.size());
  }
  uint64_t countNodes(PsgNodeKind Kind) const {
    return uint64_t(std::ranges::count(Nodes, Kind, &PsgNode::Kind));
  }
};

} // namespace spike

#endif // SPIKE_PSG_PSGGRAPH_H
