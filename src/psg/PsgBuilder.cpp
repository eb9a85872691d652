//===- psg/PsgBuilder.cpp - PSG construction ------------------------------===//

#include "psg/PsgBuilder.h"

#include "dataflow/CallPolicy.h"
#include "dataflow/Worklist.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

using namespace spike;

const char *spike::psgNodeKindName(PsgNodeKind Kind) {
  switch (Kind) {
  case PsgNodeKind::Entry:
    return "entry";
  case PsgNodeKind::Exit:
    return "exit";
  case PsgNodeKind::Call:
    return "call";
  case PsgNodeKind::Return:
    return "return";
  case PsgNodeKind::Branch:
    return "branch";
  case PsgNodeKind::Unknown:
    return "unknown";
  case PsgNodeKind::Halt:
    return "halt";
  }
  assert(false && "unknown PSG node kind");
  return "<bad>";
}

namespace {

constexpr uint32_t NoNode = ~uint32_t(0);

/// Returns the number of PSG nodes routine \p R contributes; it follows
/// from the CFG alone, so every routine's id range is known before any
/// routine is built.
uint32_t countNodes(const Routine &R, const PsgBuildOptions &Opts) {
  size_t Count = R.EntryBlocks.size() + R.ExitBlocks.size() +
                 2 * R.CallBlocks.size();
  for (const BasicBlock &Block : R.Blocks)
    Count += Block.Term == TerminatorKind::UnresolvedJump ||
             Block.Term == TerminatorKind::Halt ||
             (Block.Term == TerminatorKind::TableJump && Opts.UseBranchNodes);
  return uint32_t(Count);
}

/// Scratch state of the routine builder.  One instance per pool lane is
/// reused across every routine the lane builds; its Edges buffer collects
/// the lane's edges, routine segment after routine segment.
struct BuildScratch {
  std::vector<uint32_t> SinkNodeOfBlock;
  std::vector<uint32_t> SinkRowOfBlock;
  /// Backward sets, one row of a bit per block for each sink block.
  std::vector<bool> Bwd;
  std::vector<uint32_t> Stack;

  std::vector<uint32_t> Visited; ///< Blocks reached, in BFS order.
  std::vector<bool> Seen;
  std::vector<uint32_t> ReachedSinks;

  std::vector<uint32_t> SubBlocks;
  std::vector<FlowSets> In;
  Worklist List{0};
  std::vector<uint32_t> LocalIndex;
  std::vector<uint32_t> LocalEpoch;
  uint32_t Epoch = 0;

  std::vector<PsgEdge> Edges;
};

/// Where one routine's edges sit in its lane's buffer.
struct EdgeSegment {
  unsigned Lane = 0;
  size_t Begin = 0;
  size_t Count = 0;
};

/// Builds the PSG nodes and edges of a single routine: nodes are written
/// in place at their final ids, edges are appended to the lane's buffer
/// in source-node order — the order of the CSR edge array.
///
/// Terminology: a block whose terminator is a sink anchor (call, return
/// instruction, multiway branch with branch nodes enabled, unresolved
/// jump, or halt) "cuts" forward propagation: anchor-free paths end at its
/// terminator.  Source anchors (entry, return, branch) start at block
/// starts and do not cut.
class RoutinePsgBuilder {
public:
  RoutinePsgBuilder(const Program &Prog, uint32_t RoutineIndex,
                    const PsgBuildOptions &Opts, ProgramSummaryGraph &Psg,
                    BuildScratch &S)
      : Prog(Prog), RoutineIndex(RoutineIndex),
        R(Prog.Routines[RoutineIndex]), Opts(Opts), Psg(Psg),
        Info(Psg.RoutineInfo[RoutineIndex]), S(S),
        NextNode(Psg.RoutineNodeBegin[RoutineIndex]) {}

  void run() {
    createNodes();
    assert(NextNode == Psg.RoutineNodeBegin[RoutineIndex + 1] &&
           "node count disagrees with countNodes");
    computeBackwardSets();
    addEdges();
  }

private:
  uint32_t newNode(PsgNodeKind Kind, uint32_t BlockIndex,
                   uint32_t AuxIndex = 0) {
    PsgNode &Node = Psg.Nodes[NextNode];
    Node.Kind = Kind;
    Node.RoutineIndex = RoutineIndex;
    Node.BlockIndex = BlockIndex;
    Node.AuxIndex = AuxIndex;
    return NextNode++;
  }

  bool blockIsCut(const BasicBlock &Block) const {
    switch (Block.Term) {
    case TerminatorKind::Call:
    case TerminatorKind::IndirectCall:
    case TerminatorKind::Return:
    case TerminatorKind::UnresolvedJump:
    case TerminatorKind::Halt:
      return true;
    case TerminatorKind::TableJump:
      return Opts.UseBranchNodes;
    case TerminatorKind::FallThrough:
    case TerminatorKind::Branch:
    case TerminatorKind::CondBranch:
      return false;
    }
    assert(false && "unhandled terminator");
    return false;
  }

  void createNodes() {
    S.SinkNodeOfBlock.assign(R.Blocks.size(), NoNode);

    Info.EntryNodes.reserve(R.EntryBlocks.size());
    for (uint32_t EntryIndex = 0; EntryIndex < R.EntryBlocks.size();
         ++EntryIndex)
      Info.EntryNodes.push_back(newNode(PsgNodeKind::Entry,
                                        R.EntryBlocks[EntryIndex],
                                        EntryIndex));

    Info.ExitNodes.reserve(R.ExitBlocks.size());
    for (uint32_t ExitIndex = 0; ExitIndex < R.ExitBlocks.size();
         ++ExitIndex) {
      uint32_t Block = R.ExitBlocks[ExitIndex];
      uint32_t NodeId = newNode(PsgNodeKind::Exit, Block, ExitIndex);
      Info.ExitNodes.push_back(NodeId);
      S.SinkNodeOfBlock[Block] = NodeId;
    }

    Info.CallNodes.reserve(R.CallBlocks.size());
    Info.ReturnNodes.reserve(R.CallBlocks.size());
    for (uint32_t Block : R.CallBlocks) {
      uint32_t CallNode = newNode(PsgNodeKind::Call, Block);
      uint32_t ReturnNode = newNode(PsgNodeKind::Return, Block);
      Info.CallNodes.push_back(CallNode);
      Info.ReturnNodes.push_back(ReturnNode);
      S.SinkNodeOfBlock[Block] = CallNode;
    }

    if (Opts.UseBranchNodes)
      Info.BranchNodes.reserve(size_t(
          std::count_if(R.Blocks.begin(), R.Blocks.end(),
                        [](const BasicBlock &Block) {
                          return Block.Term == TerminatorKind::TableJump;
                        })));
    for (uint32_t Block = 0; Block < R.Blocks.size(); ++Block) {
      switch (R.Blocks[Block].Term) {
      case TerminatorKind::TableJump:
        if (Opts.UseBranchNodes) {
          uint32_t NodeId = newNode(PsgNodeKind::Branch, Block);
          Info.BranchNodes.push_back(NodeId);
          S.SinkNodeOfBlock[Block] = NodeId;
        }
        break;
      case TerminatorKind::UnresolvedJump:
        S.SinkNodeOfBlock[Block] = newNode(PsgNodeKind::Unknown, Block);
        break;
      case TerminatorKind::Halt:
        S.SinkNodeOfBlock[Block] = newNode(PsgNodeKind::Halt, Block);
        break;
      default:
        break;
      }
    }
  }

  /// Computes, for every sink block, the set of blocks from which the
  /// sink is reachable along anchor-free paths (the "backward" half of
  /// each edge's CFG subgraph).
  void computeBackwardSets() {
    size_t NumBlocks = R.Blocks.size();
    S.SinkRowOfBlock.resize(NumBlocks);
    size_t NumSinks = 0;
    for (uint32_t Block = 0; Block < NumBlocks; ++Block)
      if (S.SinkNodeOfBlock[Block] != NoNode)
        S.SinkRowOfBlock[Block] = uint32_t(NumSinks++);
    S.Bwd.assign(NumSinks * NumBlocks, false);

    for (uint32_t Block = 0; Block < NumBlocks; ++Block) {
      if (S.SinkNodeOfBlock[Block] == NoNode)
        continue;
      size_t Row = S.SinkRowOfBlock[Block] * NumBlocks;
      S.Bwd[Row + Block] = true;
      S.Stack.push_back(Block);
      while (!S.Stack.empty()) {
        uint32_t Current = S.Stack.back();
        S.Stack.pop_back();
        for (uint32_t Pred : R.preds(Current)) {
          if (S.Bwd[Row + Pred] || blockIsCut(R.Blocks[Pred]))
            continue;
          S.Bwd[Row + Pred] = true;
          S.Stack.push_back(Pred);
        }
      }
    }
  }

  /// Runs the Figure 6 dataflow on the subgraph consisting of the blocks
  /// in S.SubBlocks (which must include \p SinkBlock) and leaves the IN
  /// sets, indexed like S.SubBlocks, in S.In.
  void solveSubgraph(uint32_t SinkBlock) {
    // Map blocks to dense local indices via an epoch-stamped scratch map.
    if (++S.Epoch == 0) {
      std::fill(S.LocalEpoch.begin(), S.LocalEpoch.end(), 0);
      S.Epoch = 1;
    }
    if (S.LocalIndex.size() < R.Blocks.size()) {
      S.LocalIndex.resize(R.Blocks.size(), 0);
      S.LocalEpoch.resize(R.Blocks.size(), 0);
    }
    const std::vector<uint32_t> &SubBlocks = S.SubBlocks;
    for (uint32_t I = 0; I < SubBlocks.size(); ++I) {
      S.LocalIndex[SubBlocks[I]] = I;
      S.LocalEpoch[SubBlocks[I]] = S.Epoch;
    }
    auto InSubgraph = [&](uint32_t Block) {
      return S.LocalEpoch[Block] == S.Epoch;
    };

    // MUST-DEF is a must problem: interior values start at top and
    // shrink to the greatest fixpoint (= meet over the X->Y paths); the
    // MAY sets start at bottom and grow.
    std::vector<FlowSets> &In = S.In;
    In.assign(SubBlocks.size(),
              FlowSets{RegSet(), RegSet(), RegSet::allBelow(NumIntRegs)});
    Worklist &List = S.List;
    List.reset(SubBlocks.size());
    List.pushAll();
    while (!List.empty()) {
      uint32_t Local = List.pop();
      uint32_t Block = SubBlocks[Local];
      FlowSets Out;
      if (Block != SinkBlock) {
        bool First = true;
        for (uint32_t Succ : R.succs(Block)) {
          if (!InSubgraph(Succ))
            continue;
          const FlowSets &SuccIn = In[S.LocalIndex[Succ]];
          Out = First ? SuccIn : Out.meet(SuccIn);
          First = false;
        }
        assert(!First && "interior subgraph block with no subgraph succ");
      }
      FlowSets NewIn =
          Out.transferThrough(R.Blocks[Block].Def, R.Blocks[Block].Ubd);
      if (NewIn == In[Local])
        continue;
      In[Local] = NewIn;
      for (uint32_t Pred : R.preds(Block))
        if (InSubgraph(Pred) && Pred != SinkBlock)
          List.push(S.LocalIndex[Pred]);
    }
  }

  /// Appends the flow-summary edges of source node \p NodeId, whose paths
  /// start at the blocks \p StartBlocks.
  void addFlowEdges(uint32_t NodeId, std::span<const uint32_t> StartBlocks) {
    // Forward reachability from the source, stopping at cuts.
    S.Visited.clear();
    S.ReachedSinks.clear();
    for (uint32_t Start : StartBlocks) {
      if (S.Seen[Start])
        continue;
      S.Seen[Start] = true;
      S.Visited.push_back(Start);
    }
    for (size_t Cursor = 0; Cursor < S.Visited.size(); ++Cursor) {
      uint32_t Block = S.Visited[Cursor];
      if (S.SinkNodeOfBlock[Block] != NoNode) {
        S.ReachedSinks.push_back(Block);
        if (blockIsCut(R.Blocks[Block]))
          continue;
      }
      for (uint32_t Succ : R.succs(Block)) {
        if (S.Seen[Succ])
          continue;
        S.Seen[Succ] = true;
        S.Visited.push_back(Succ);
      }
    }
    for (uint32_t Block : S.Visited)
      S.Seen[Block] = false;

    // One flow-summary edge per reached sink, labelled by the Figure 6
    // dataflow on (forward-reachable ∩ backward-reachable) blocks.
    for (uint32_t SinkBlock : S.ReachedSinks) {
      size_t Row = S.SinkRowOfBlock[SinkBlock] * R.Blocks.size();
      S.SubBlocks.clear();
      for (uint32_t Block : S.Visited)
        if (S.Bwd[Row + Block])
          S.SubBlocks.push_back(Block);
      solveSubgraph(SinkBlock);

      // The edge label is the path meet over the source's start blocks
      // that lie in the subgraph (Figure 6's "sets associated with
      // location X").
      FlowSets Label;
      bool First = true;
      for (uint32_t Start : StartBlocks) {
        if (S.LocalEpoch[Start] != S.Epoch)
          continue;
        const FlowSets &StartIn = S.In[S.LocalIndex[Start]];
        Label = First ? StartIn : Label.meet(StartIn);
        First = false;
      }
      assert(!First && "edge discovered with no start block on a path");

      PsgEdge Edge;
      Edge.Src = NodeId;
      Edge.Dst = S.SinkNodeOfBlock[SinkBlock];
      Edge.Label = Label;
      S.Edges.push_back(Edge);
    }
  }

  void addCallReturnEdge(size_t CallIndex) {
    const BasicBlock &Block = R.Blocks[R.CallBlocks[CallIndex]];
    PsgEdge Edge;
    Edge.Src = Info.CallNodes[CallIndex];
    Edge.Dst = Info.ReturnNodes[CallIndex];
    Edge.IsCallReturn = true;
    // Section 3.5: indirect calls carry a fixed label (annotation or
    // calling-standard assumption).  Direct calls start with empty
    // sets ("each call-return edge is initialized with empty MUST-DEF,
    // MAY-DEF, and MAY-USE sets"); phase 1 copies the callee's entry
    // sets here.
    if (Block.Term == TerminatorKind::IndirectCall)
      Edge.Label = indirectCallLabel(Prog, Block);
    S.Edges.push_back(Edge);
  }

  /// Appends the routine's edges in source-node order: entries, then
  /// each call node's call-return edge followed by its return node's
  /// flow-summary edges, then branch nodes.  Exit, unknown and halt
  /// nodes have no out-edges.
  void addEdges() {
    S.Seen.resize(R.Blocks.size(), false);
    for (uint32_t EntryIndex = 0; EntryIndex < R.EntryBlocks.size();
         ++EntryIndex)
      addFlowEdges(Info.EntryNodes[EntryIndex],
                   std::span<const uint32_t>(&R.EntryBlocks[EntryIndex], 1));
    for (size_t CallIndex = 0; CallIndex < R.CallBlocks.size();
         ++CallIndex) {
      addCallReturnEdge(CallIndex);
      addFlowEdges(Info.ReturnNodes[CallIndex],
                   R.succs(R.CallBlocks[CallIndex]));
    }
    for (uint32_t NodeId : Info.BranchNodes)
      addFlowEdges(NodeId, R.succs(Psg.Nodes[NodeId].BlockIndex));
  }

  const Program &Prog;
  uint32_t RoutineIndex;
  const Routine &R;
  const PsgBuildOptions &Opts;
  ProgramSummaryGraph &Psg;
  RoutinePsg &Info;
  BuildScratch &S;
  uint32_t NextNode;
};

} // namespace

ProgramSummaryGraph spike::buildPsg(const Program &Prog,
                                    const PsgBuildOptions &Opts,
                                    MemoryTracker *Mem, ThreadPool *Pool) {
  telemetry::Span BuildSpan("psg.build");
  ProgramSummaryGraph Psg;
  size_t Count = Prog.Routines.size();
  Psg.RoutineInfo.resize(Count);

  // Each routine's node count follows from its CFG, so the node id
  // ranges are fixed up front and every routine writes its nodes in
  // place.
  Psg.RoutineNodeBegin.assign(Count + 1, 0);
  for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex)
    Psg.RoutineNodeBegin[RoutineIndex + 1] =
        Psg.RoutineNodeBegin[RoutineIndex] +
        countNodes(Prog.Routines[RoutineIndex], Opts);
  Psg.Nodes.resize(Psg.RoutineNodeBegin[Count]);

  // The expensive part — edge discovery and the Figure 6 subgraph
  // dataflow — runs one task per routine.  Edges land in per-lane
  // buffers, each routine's already in source-node order.
  std::vector<BuildScratch> Scratch(Pool ? Pool->jobs() : 1);
  std::vector<EdgeSegment> Segments(Count);
  forEachTask(Pool, Count, [&](size_t RoutineIndex, unsigned Lane) {
    BuildScratch &S = Scratch[Lane];
    size_t Begin = S.Edges.size();
    RoutinePsgBuilder(Prog, uint32_t(RoutineIndex), Opts, Psg, S).run();
    Segments[RoutineIndex] = {Lane, Begin, S.Edges.size() - Begin};
  });

  // Routine node ranges ascend, so concatenating the segments in routine
  // order yields the edge array sorted by source node: the CSR order.
  size_t TotalEdges = 0;
  for (const EdgeSegment &Seg : Segments)
    TotalEdges += Seg.Count;
  Psg.Edges.reserve(TotalEdges);
  for (const EdgeSegment &Seg : Segments) {
    const std::vector<PsgEdge> &LaneEdges = Scratch[Seg.Lane].Edges;
    Psg.Edges.insert(Psg.Edges.end(), LaneEdges.begin() + Seg.Begin,
                     LaneEdges.begin() + Seg.Begin + Seg.Count);
  }
  Scratch.clear(); // Frees the lane buffers before the CSR indexes grow.

  for (uint32_t EdgeId = 0; EdgeId < Psg.Edges.size(); ++EdgeId) {
    const PsgEdge &Edge = Psg.Edges[EdgeId];
    PsgNode &Src = Psg.Nodes[Edge.Src];
    if (Src.NumOut == 0)
      Src.FirstOut = EdgeId;
    ++Src.NumOut;
    Psg.NumFlowSummaryEdges += !Edge.IsCallReturn;
  }
  for (const RoutinePsg &Info : Psg.RoutineInfo)
    Psg.NumBranchNodes += Info.BranchNodes.size();

  // Reverse CSR: incoming edge ids per node.
  Psg.InEdgeIds.resize(Psg.Edges.size());
  {
    std::vector<uint32_t> Counts(Psg.Nodes.size() + 1, 0);
    for (const PsgEdge &Edge : Psg.Edges)
      ++Counts[Edge.Dst + 1];
    for (size_t I = 1; I < Counts.size(); ++I)
      Counts[I] += Counts[I - 1];
    for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
      Psg.Nodes[NodeId].FirstIn = Counts[NodeId];
      Psg.Nodes[NodeId].NumIn = Counts[NodeId + 1] - Counts[NodeId];
    }
    std::vector<uint32_t> Cursor(Counts.begin(), Counts.end() - 1);
    for (uint32_t EdgeId = 0; EdgeId < Psg.Edges.size(); ++EdgeId)
      Psg.InEdgeIds[Cursor[Psg.Edges[EdgeId].Dst]++] = EdgeId;
  }

  // Phase 1 broadcast lists: entry node -> call-return edges of its
  // direct call sites.  Phase 2 linkage: exit node <-> return nodes.
  std::vector<std::pair<uint32_t, uint32_t>> EntryToCr;
  std::vector<std::pair<uint32_t, uint32_t>> ExitToReturn;
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    const RoutinePsg &Info = Psg.RoutineInfo[RoutineIndex];
    for (size_t CallIndex = 0; CallIndex < R.CallBlocks.size();
         ++CallIndex) {
      const BasicBlock &Block = R.Blocks[R.CallBlocks[CallIndex]];
      uint32_t CallNode = Info.CallNodes[CallIndex];
      uint32_t ReturnNode = Info.ReturnNodes[CallIndex];
      // The call-return edge is the call node's only out-edge.
      const PsgNode &CallRef = Psg.Nodes[CallNode];
      assert(CallRef.NumOut == 1 &&
             Psg.Edges[CallRef.FirstOut].IsCallReturn &&
             "call node must have exactly its call-return edge");
      uint32_t CrEdgeId = CallRef.FirstOut;

      if (Block.Term == TerminatorKind::Call) {
        const RoutinePsg &CalleeInfo = Psg.RoutineInfo[Block.CalleeRoutine];
        uint32_t EntryNode =
            CalleeInfo.EntryNodes[uint32_t(Block.CalleeEntry)];
        EntryToCr.push_back({EntryNode, CrEdgeId});
        for (uint32_t ExitNode : CalleeInfo.ExitNodes)
          ExitToReturn.push_back({ExitNode, ReturnNode});
      } else {
        Psg.IndirectReturnNodes.push_back(ReturnNode);
      }
    }
    if (R.AddressTaken)
      for (uint32_t ExitNode : Info.ExitNodes)
        Psg.AddressTakenExitNodes.push_back(ExitNode);
  }

  auto PackCsr = [&](std::vector<std::pair<uint32_t, uint32_t>> &Pairs,
                     std::vector<uint32_t> &Begin,
                     std::vector<uint32_t> &Ids) {
    std::sort(Pairs.begin(), Pairs.end());
    Pairs.erase(std::unique(Pairs.begin(), Pairs.end()), Pairs.end());
    Begin.assign(Psg.Nodes.size() + 1, 0);
    for (const auto &[Key, Value] : Pairs)
      ++Begin[Key + 1];
    for (size_t I = 1; I < Begin.size(); ++I)
      Begin[I] += Begin[I - 1];
    Ids.resize(Pairs.size());
    for (size_t I = 0; I < Pairs.size(); ++I)
      Ids[I] = Pairs[I].second;
  };
  std::vector<std::pair<uint32_t, uint32_t>> ReturnToExit;
  ReturnToExit.reserve(ExitToReturn.size());
  for (const auto &[ExitNode, ReturnNode] : ExitToReturn)
    ReturnToExit.push_back({ReturnNode, ExitNode});

  PackCsr(EntryToCr, Psg.CrEdgeOfEntryBegin, Psg.CrEdgeOfEntryIds);
  PackCsr(ExitToReturn, Psg.ReturnsOfExitBegin, Psg.ReturnsOfExitIds);
  PackCsr(ReturnToExit, Psg.ExitsOfReturnBegin, Psg.ExitsOfReturnIds);

  if (Mem) {
    Mem->charge(Psg.Nodes.size() * sizeof(PsgNode));
    Mem->charge(Psg.Edges.size() * sizeof(PsgEdge));
    Mem->charge(Psg.InEdgeIds.size() * sizeof(uint32_t));
    Mem->charge((Psg.CrEdgeOfEntryBegin.size() +
                 Psg.CrEdgeOfEntryIds.size() +
                 Psg.ReturnsOfExitBegin.size() +
                 Psg.ReturnsOfExitIds.size()) *
                sizeof(uint32_t));
    for (const RoutinePsg &Info : Psg.RoutineInfo)
      Mem->charge(sizeof(RoutinePsg) +
                  (Info.EntryNodes.size() + Info.ExitNodes.size() +
                   Info.CallNodes.size() + Info.ReturnNodes.size() +
                   Info.BranchNodes.size()) *
                      sizeof(uint32_t));
  }

  if (telemetry::active()) {
    telemetry::count("psg.nodes", Psg.Nodes.size());
    telemetry::count("psg.edges", Psg.Edges.size());
    telemetry::count("psg.flow_summary_edges", Psg.NumFlowSummaryEdges);
    telemetry::count("psg.call_return_edges",
                     Psg.Edges.size() - Psg.NumFlowSummaryEdges);
    telemetry::count("psg.branch_nodes", Psg.NumBranchNodes);
    uint64_t ByKind[7] = {};
    for (const PsgNode &Node : Psg.Nodes)
      ++ByKind[unsigned(Node.Kind)];
    for (unsigned K = 0; K < 7; ++K)
      telemetry::count(std::string("psg.nodes.") +
                           psgNodeKindName(PsgNodeKind(K)),
                       ByKind[K]);
  }

  return Psg;
}
