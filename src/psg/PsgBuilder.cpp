//===- psg/PsgBuilder.cpp - PSG construction ------------------------------===//

#include "psg/PsgBuilder.h"

#include "dataflow/CallPolicy.h"
#include "dataflow/Worklist.h"
#include "support/Splice.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <span>

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
  /// Worklist pops of the Figure 6 label solves.
  uint64_t LabelPops = 0;
};

/// Where one routine's edges sit in its lane's buffer.
struct EdgeSegment {
  unsigned Lane = 0;
  size_t Begin = 0;
  size_t Count = 0;
};

/// Builds the PSG nodes and edges of a single routine: nodes are written
/// to \p Nodes, the routine's node slots, whose first node has id
/// \p Base, in the order PsgGraph.h fixes; edges are appended to the
/// lane's buffer in source-node order — the order of the CSR edge array.
///
/// Terminology: a block whose terminator is a sink anchor (call, return
/// instruction, multiway branch with branch nodes enabled, unresolved
/// jump, or halt) "cuts" forward propagation: anchor-free paths end at its
/// terminator.  Source anchors (entry, return, branch) start at block
/// starts and do not cut.
class RoutinePsgBuilder {
public:
  RoutinePsgBuilder(const Program &Prog, uint32_t RoutineIndex,
                    const PsgBuildOptions &Opts, std::span<PsgNode> Nodes,
                    uint32_t Base, BuildScratch &S)
      : Prog(Prog), RoutineIndex(RoutineIndex),
        R(Prog.Routines[RoutineIndex]), Opts(Opts), Nodes(Nodes), Base(Base),
        S(S) {}

  void run() {
    createNodes();
    assert(NextNode == Nodes.size() && "node count disagrees with countNodes");
    computeBackwardSets();
    addEdges();
  }

private:
  uint32_t newNode(PsgNodeKind Kind, uint32_t BlockIndex) {
    PsgNode &Node = Nodes[NextNode];
    Node.Kind = Kind;
    Node.RoutineIndex = RoutineIndex;
    Node.BlockIndex = BlockIndex;
    return Base + NextNode++;
  }

  /// The node-order contract's ids (PsgGraph.h).
  uint32_t entryNode(uint32_t Entry) const { return Base + Entry; }
  uint32_t callNode(uint32_t Call) const {
    return Base + R.numEntries() + uint32_t(R.ExitBlocks.size()) + 2 * Call;
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
    for (uint32_t Block : R.EntryBlocks)
      newNode(PsgNodeKind::Entry, Block);
    for (uint32_t Block : R.ExitBlocks)
      S.SinkNodeOfBlock[Block] = newNode(PsgNodeKind::Exit, Block);
    for (uint32_t Block : R.CallBlocks) {
      S.SinkNodeOfBlock[Block] = newNode(PsgNodeKind::Call, Block);
      newNode(PsgNodeKind::Return, Block);
    }
    for (uint32_t Block = 0; Block < R.Blocks.size(); ++Block) {
      switch (R.Blocks[Block].Term) {
      case TerminatorKind::TableJump:
        if (Opts.UseBranchNodes)
          S.SinkNodeOfBlock[Block] = newNode(PsgNodeKind::Branch, Block);
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
    // SubBlocks are in forward-reachability order from the source and the
    // problem flows backward, so seeding them last to first visits most
    // blocks after their successors.  Any seed order reaches the same
    // unique fixpoint.
    Worklist &List = S.List;
    List.reset(SubBlocks.size());
    for (uint32_t Local = uint32_t(SubBlocks.size()); Local-- > 0;)
      List.push(Local);
    while (!List.empty()) {
      uint32_t Local = List.pop();
      ++S.LabelPops;
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

  void addCallReturnEdge(uint32_t CallIndex) {
    const BasicBlock &Block = R.Blocks[R.CallBlocks[CallIndex]];
    PsgEdge Edge;
    Edge.Src = callNode(CallIndex);
    Edge.Dst = Edge.Src + 1;
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
      addFlowEdges(entryNode(EntryIndex), R.EntryBlocks.subspan(EntryIndex, 1));
    for (uint32_t CallIndex = 0; CallIndex < R.CallBlocks.size();
         ++CallIndex) {
      addCallReturnEdge(CallIndex);
      addFlowEdges(callNode(CallIndex) + 1, R.succs(R.CallBlocks[CallIndex]));
    }
    if (Opts.UseBranchNodes)
      for (uint32_t Block = 0; Block < R.Blocks.size(); ++Block)
        if (R.Blocks[Block].Term == TerminatorKind::TableJump)
          addFlowEdges(S.SinkNodeOfBlock[Block], R.succs(Block));
  }

  const Program &Prog;
  uint32_t RoutineIndex;
  const Routine &R;
  const PsgBuildOptions &Opts;
  std::span<PsgNode> Nodes;
  uint32_t Base;
  BuildScratch &S;
  uint32_t NextNode = 0;
};

/// Indexes one routine's edges, which \p Edges holds in source-node
/// order with node ids counted from \p NodeBase: sets each of \p Nodes'
/// FirstOut and FirstIn and fills \p InEdgeIds, with edge ids counted
/// from \p EdgeBase.  The nodes' FirstIn must be 0.
void indexEdges(std::span<PsgNode> Nodes, std::span<const PsgEdge> Edges,
                std::span<uint32_t> InEdgeIds, uint32_t NodeBase,
                uint32_t EdgeBase) {
  // Out-edges: each node's range starts at the first edge whose source
  // is not an earlier node.
  uint32_t Edge = 0, NumEdges = uint32_t(Edges.size());
  for (uint32_t Node = 0; Node < Nodes.size(); ++Node) {
    Nodes[Node].FirstOut = EdgeBase + Edge;
    while (Edge < NumEdges && Edges[Edge].Src == NodeBase + Node)
      ++Edge;
  }
  // In-edges: FirstIn counts each node's in-edges, then holds where its
  // range ends, then (filled back to front) where it begins.
  for (const PsgEdge &E : Edges)
    ++Nodes[E.Dst - NodeBase].FirstIn;
  uint32_t End = EdgeBase;
  for (PsgNode &Node : Nodes) {
    End += Node.FirstIn;
    Node.FirstIn = End;
  }
  for (Edge = NumEdges; Edge-- > 0;)
    InEdgeIds[--Nodes[Edges[Edge].Dst - NodeBase].FirstIn - EdgeBase] =
        EdgeBase + Edge;
}

/// One call site as the linkage CSRs see it.
struct CallLink {
  uint32_t Entry = NoNode; ///< Callee entry node; NoNode for indirect calls.
  uint32_t CrEdge = 0;     ///< The call's call-return edge.
  uint32_t Return = 0;     ///< The call's return node.
  /// The callee's exit nodes, which are consecutive ids.
  uint32_t FirstExit = 0;
  uint32_t NumExits = 0;
};

/// Appends to \p Links one record per call site of routine
/// \p RoutineIndex, in call-site order.
void linkCalls(const Program &Prog, const ProgramSummaryGraph &Psg,
               uint32_t RoutineIndex, std::vector<CallLink> &Links) {
  const Routine &R = Prog.Routines[RoutineIndex];
  for (uint32_t CallIndex = 0; CallIndex < R.CallBlocks.size(); ++CallIndex) {
    CallLink &Link = Links.emplace_back();
    uint32_t CallNode = Psg.callNode(Prog, RoutineIndex, CallIndex);
    Link.Return = CallNode + 1;
    const BasicBlock &Block = R.Blocks[R.CallBlocks[CallIndex]];
    if (Block.Term != TerminatorKind::Call)
      continue;
    // The call-return edge is the call node's only out-edge.
    assert(Psg.outEdges(CallNode).size() == 1 &&
           Psg.Edges[Psg.Nodes[CallNode].FirstOut].Dst == Link.Return &&
           "call node must have exactly its call-return edge");
    uint32_t Callee = uint32_t(Block.CalleeRoutine);
    Link.Entry = Psg.entryNode(Callee, uint32_t(Block.CalleeEntry));
    Link.CrEdge = Psg.Nodes[CallNode].FirstOut;
    Link.FirstExit = Psg.exitNodes(Prog, Callee)[0];
    Link.NumExits = uint32_t(Prog.Routines[Callee].ExitBlocks.size());
  }
}

/// Fills the linkage CSRs and IndirectReturnNodes from \p Links, one
/// record per call site in routine order, and AddressTakenExitNodes.
void fillLinkage(const Program &Prog, ProgramSummaryGraph &Psg,
                 const std::vector<CallLink> &Links) {
  // Phase 1 broadcast lists: entry node -> call-return edges of its
  // direct call sites.  Phase 2 linkage: exit node <-> return nodes.  A
  // counting sort keyed by node id: one pass over the call sites in
  // routine order counts, a second fills.  Call sites in routine order
  // visit call-return edges and return nodes in ascending id order, and
  // each callee's exits ascend, so every key's ids come out ascending
  // and (one pair per call site and exit) distinct.
  size_t NumNodes = Psg.Nodes.size();
  CsrLists &CrOf = Psg.CrEdgeOfEntry, &ReturnsOf = Psg.ReturnsOfExit,
           &ExitsOf = Psg.ExitsOfReturn;
  CrOf.Begin.assign(NumNodes + 1, 0);
  ReturnsOf.Begin.assign(NumNodes + 1, 0);
  ExitsOf.Begin.assign(NumNodes + 1, 0);
  for (const CallLink &Link : Links) {
    if (Link.Entry == NoNode) {
      Psg.IndirectReturnNodes.push_back(Link.Return);
      continue;
    }
    ++CrOf.Begin[Link.Entry + 1];
    for (uint32_t I = 0; I < Link.NumExits; ++I)
      ++ReturnsOf.Begin[Link.FirstExit + I + 1];
    ExitsOf.Begin[Link.Return + 1] = Link.NumExits;
  }
  for (CsrLists *Lists : {&CrOf, &ReturnsOf, &ExitsOf}) {
    std::partial_sum(Lists->Begin.begin(), Lists->Begin.end(),
                     Lists->Begin.begin());
    Lists->Ids.resize(Lists->Begin[NumNodes]);
  }
  {
    std::vector<uint32_t> CrCursor(CrOf.Begin.begin(), CrOf.Begin.end() - 1);
    std::vector<uint32_t> ReturnCursor(ReturnsOf.Begin.begin(),
                                       ReturnsOf.Begin.end() - 1);
    for (const CallLink &Link : Links) {
      if (Link.Entry == NoNode)
        continue;
      CrOf.Ids[CrCursor[Link.Entry]++] = Link.CrEdge;
      uint32_t ExitCursor = ExitsOf.Begin[Link.Return];
      for (uint32_t Exit = Link.FirstExit;
           Exit < Link.FirstExit + Link.NumExits; ++Exit) {
        ReturnsOf.Ids[ReturnCursor[Exit]++] = Link.Return;
        ExitsOf.Ids[ExitCursor++] = Exit;
      }
    }
  }

  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex)
    if (Prog.Routines[RoutineIndex].AddressTaken)
      for (uint32_t ExitNode : Psg.exitNodes(Prog, RoutineIndex))
        Psg.AddressTakenExitNodes.push_back(ExitNode);
}

/// Every container of \p Psg besides its nodes, edges and in-edge ids.
std::array<const std::vector<uint32_t> *, 9>
indexesOf(const ProgramSummaryGraph &Psg) {
  return {&Psg.RoutineNodeBegin,    &Psg.CrEdgeOfEntry.Begin,
          &Psg.CrEdgeOfEntry.Ids,   &Psg.ReturnsOfExit.Begin,
          &Psg.ReturnsOfExit.Ids,   &Psg.ExitsOfReturn.Begin,
          &Psg.ExitsOfReturn.Ids,   &Psg.IndirectReturnNodes,
          &Psg.AddressTakenExitNodes};
}

/// Adds \p NodeDelta to every node id and \p EdgeDelta to every edge id
/// of one routine's \p Nodes, \p Edges and \p InEdgeIds (modulo 2^32, so
/// a "negative" delta moves ids down).
void shiftIds(std::span<PsgNode> Nodes, std::span<PsgEdge> Edges,
              std::span<uint32_t> InEdgeIds, uint32_t NodeDelta,
              uint32_t EdgeDelta) {
  for (PsgNode &Node : Nodes) {
    Node.FirstOut += EdgeDelta;
    Node.FirstIn += EdgeDelta;
  }
  for (PsgEdge &Edge : Edges) {
    Edge.Src += NodeDelta;
    Edge.Dst += NodeDelta;
  }
  for (uint32_t &Id : InEdgeIds)
    Id += EdgeDelta;
}

} // namespace

ProgramSummaryGraph spike::buildPsg(const Program &Prog,
                                    const PsgBuildOptions &Opts,
                                    MemoryTracker *Mem, ThreadPool *Pool) {
  telemetry::Span BuildSpan("psg.build");
  size_t Count = Prog.Routines.size();

  // A fresh build is the rebuild of every routine, spliced into the
  // empty graph.
  std::vector<uint32_t> Every(Count);
  std::iota(Every.begin(), Every.end(), 0);
  PsgLists Lists = buildPsgLists(Prog, Every, Opts, Pool);
  ProgramSummaryGraph Psg;
  Psg.RoutineNodeBegin.assign(Count + 1, 0);
  splicePsgLists(Psg, Every, Lists);
  rebuildLinkage(Prog, Psg);

  // Charges stay serial and in routine order (see buildProgram): each
  // routine charges its nodes, edges and in-edge ids, then the indexes
  // follow, one charge per container.
  if (Mem) {
    for (uint32_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex)
      Mem->charge(routinePsgBytes(Psg, RoutineIndex));
    for (const std::vector<uint32_t> *Index : indexesOf(Psg))
      Mem->charge(elementBytes(*Index));
  }

  if (telemetry::active()) {
    uint64_t ByKind[7] = {};
    for (const PsgNode &Node : Psg.Nodes)
      ++ByKind[unsigned(Node.Kind)];
    // Every call node has exactly its call-return edge.
    uint64_t CallReturnEdges = ByKind[unsigned(PsgNodeKind::Call)];
    telemetry::count("psg.nodes", Psg.Nodes.size());
    telemetry::count("psg.edges", Psg.Edges.size());
    telemetry::count("psg.flow_summary_edges",
                     Psg.Edges.size() - CallReturnEdges);
    telemetry::count("psg.call_return_edges", CallReturnEdges);
    telemetry::count("psg.branch_nodes",
                     ByKind[unsigned(PsgNodeKind::Branch)]);
    telemetry::count("psg.label_pops", Lists.LabelPops);
    for (unsigned K = 0; K < 7; ++K)
      telemetry::count(std::string("psg.nodes.") +
                           psgNodeKindName(PsgNodeKind(K)),
                       ByKind[K]);
  }

  return Psg;
}

PsgLists spike::buildPsgLists(const Program &Prog,
                              std::span<const uint32_t> Routines,
                              const PsgBuildOptions &Opts, ThreadPool *Pool) {
  size_t Count = Routines.size();
  PsgLists L;

  // Each routine's node count follows from its CFG, so the node id
  // ranges are fixed up front and every routine writes its nodes in
  // place.
  L.Nodes.Begin.assign(Count + 1, 0);
  {
    telemetry::Span CountSpan("psg.count");
    forEachTask(Pool, Count, [&](size_t I, unsigned) {
      L.Nodes.Begin[I + 1] = countNodes(Prog.Routines[Routines[I]], Opts);
    });
  }
  std::partial_sum(L.Nodes.Begin.begin(), L.Nodes.Begin.end(),
                   L.Nodes.Begin.begin());
  L.Nodes.Items.resize(L.Nodes.Begin[Count]);

  // The expensive part — edge discovery and the Figure 6 subgraph
  // dataflow — runs one task per routine.  Edges land in per-lane
  // buffers, each routine's already in source-node order.
  std::vector<BuildScratch> Scratch(Pool ? Pool->jobs() : 1);
  std::vector<EdgeSegment> Segments(Count);
  {
    telemetry::Span RoutinesSpan("psg.routines");
    forEachTask(Pool, Count, [&](size_t I, unsigned Lane) {
      BuildScratch &S = Scratch[Lane];
      size_t Begin = S.Edges.size();
      RoutinePsgBuilder(Prog, Routines[I], Opts, L.Nodes.list(I),
                        L.Nodes.Begin[I], S)
          .run();
      Segments[I] = {Lane, Begin, S.Edges.size() - Begin};
    });
  }

  // Node ranges ascend, so placing the segments in subset order yields
  // the edges sorted by source node: the CSR order.  No edge crosses
  // routines, so a routine's edges are exactly the in-edges of its nodes
  // too, and each routine fills both CSR indexes of its own id ranges:
  // every node's FirstOut and FirstIn, which also end the previous
  // node's ranges.
  L.Edges.Begin.assign(Count + 1, 0);
  for (size_t I = 0; I < Count; ++I)
    L.Edges.Begin[I + 1] = L.Edges.Begin[I] + uint32_t(Segments[I].Count);
  L.Edges.Items.resize(L.Edges.Begin[Count]);
  L.InEdgeIds.Begin = L.Edges.Begin;
  L.InEdgeIds.Items.resize(L.Edges.Items.size());
  {
    telemetry::Span IndexSpan("psg.index");
    forEachTask(Pool, Count, [&](size_t I, unsigned) {
      const EdgeSegment &Seg = Segments[I];
      const std::vector<PsgEdge> &LaneEdges = Scratch[Seg.Lane].Edges;
      std::copy(LaneEdges.begin() + Seg.Begin,
                LaneEdges.begin() + Seg.Begin + Seg.Count,
                L.Edges.list(I).begin());
      indexEdges(L.Nodes.list(I), L.Edges.list(I), L.InEdgeIds.list(I),
                 L.Nodes.Begin[I], L.Edges.Begin[I]);
    });
  }
  for (const BuildScratch &S : Scratch)
    L.LabelPops += S.LabelPops;
  L.FirstNode.assign(L.Nodes.Begin.begin(), L.Nodes.Begin.end() - 1);
  L.FirstEdge.assign(L.Edges.Begin.begin(), L.Edges.Begin.end() - 1);
  return L;
}

void spike::splicePsgLists(ProgramSummaryGraph &Psg,
                           std::span<const uint32_t> Routines,
                           PsgLists &Lists) {
  if (Routines.empty())
    return;
  std::vector<uint32_t> &NodeBegin = Psg.RoutineNodeBegin;
  uint32_t NumRoutines = uint32_t(NodeBegin.size() - 1);
  // The edge bounds of every routine from the first spliced one on,
  // taken before anything moves.
  uint32_t First = Routines.front();
  std::vector<uint32_t> EdgeBegin(NumRoutines + 1 - First);
  for (uint32_t R = First; R < NumRoutines; ++R)
    EdgeBegin[R - First] = *Psg.routineEdges(R).begin();
  EdgeBegin.back() = uint32_t(Psg.Edges.size());
  auto OldEdges = [&](uint32_t R) {
    return Slice{EdgeBegin[R - First],
                 EdgeBegin[R + 1 - First] - EdgeBegin[R - First]};
  };

  // Swap the slices.  Both sides keep their ids: the swapped-out lists
  // record the ids their first node and edge carry, and only the walk
  // below shifts the graph's.
  struct Incoming {
    uint32_t Nodes, Edges, FirstNode, FirstEdge;
  };
  std::vector<Incoming> In;
  std::vector<Slice> NodeSlices, EdgeSlices;
  In.reserve(Routines.size());
  NodeSlices.reserve(Routines.size());
  EdgeSlices.reserve(Routines.size());
  for (size_t I = 0; I < Routines.size(); ++I) {
    uint32_t R = Routines[I];
    In.push_back({uint32_t(Lists.Nodes.list(I).size()),
                  uint32_t(Lists.Edges.list(I).size()), Lists.FirstNode[I],
                  Lists.FirstEdge[I]});
    NodeSlices.push_back({NodeBegin[R], NodeBegin[R + 1] - NodeBegin[R]});
    EdgeSlices.push_back(OldEdges(R));
    Lists.FirstNode[I] = NodeBegin[R];
    Lists.FirstEdge[I] = EdgeBegin[R - First];
  }
  swapSlices(Psg.Nodes, NodeSlices, Lists.Nodes.Items, Lists.Nodes.Begin);
  swapSlices(Psg.Edges, EdgeSlices, Lists.Edges.Items, Lists.Edges.Begin);
  swapSlices(Psg.InEdgeIds, EdgeSlices, Lists.InEdgeIds.Items,
             Lists.InEdgeIds.Begin);

  // Walk the routines from the first spliced one: each starts where the
  // previous one ends, and its ids shift by how far they are from there.
  uint32_t NodeBase = NodeBegin[First], EdgeBase = EdgeBegin[0];
  size_t Next = 0;
  for (uint32_t R = First; R < NumRoutines; ++R) {
    uint32_t NodeCount, EdgeCount, NodeDelta, EdgeDelta;
    if (Next < Routines.size() && Routines[Next] == R) {
      const Incoming &List = In[Next++];
      NodeCount = List.Nodes;
      EdgeCount = List.Edges;
      NodeDelta = NodeBase - List.FirstNode;
      EdgeDelta = EdgeBase - List.FirstEdge;
    } else {
      NodeCount = NodeBegin[R + 1] - NodeBegin[R];
      EdgeCount = uint32_t(OldEdges(R).Count);
      NodeDelta = NodeBase - NodeBegin[R];
      EdgeDelta = EdgeBase - uint32_t(OldEdges(R).Pos);
    }
    NodeBegin[R] = NodeBase;
    if (NodeDelta || EdgeDelta)
      shiftIds(std::span(Psg.Nodes).subspan(NodeBase, NodeCount),
               std::span(Psg.Edges).subspan(EdgeBase, EdgeCount),
               std::span(Psg.InEdgeIds).subspan(EdgeBase, EdgeCount),
               NodeDelta, EdgeDelta);
    NodeBase += NodeCount;
    EdgeBase += EdgeCount;
  }
  NodeBegin[NumRoutines] = NodeBase;
}

void spike::rebuildLinkage(const Program &Prog, ProgramSummaryGraph &Psg) {
  std::vector<CallLink> Links;
  Links.reserve(Prog.AllCallBlocks.size());
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
    linkCalls(Prog, Psg, R, Links);
  Psg.IndirectReturnNodes.clear();
  Psg.AddressTakenExitNodes.clear();
  fillLinkage(Prog, Psg, Links);
}

uint64_t spike::routinePsgBytes(const ProgramSummaryGraph &Psg, uint32_t R) {
  return (Psg.RoutineNodeBegin[R + 1] - Psg.RoutineNodeBegin[R]) *
             sizeof(PsgNode) +
         Psg.routineEdges(R).size() * (sizeof(PsgEdge) + sizeof(uint32_t));
}

uint64_t spike::psgIndexBytes(const ProgramSummaryGraph &Psg) {
  uint64_t Bytes = 0;
  for (const std::vector<uint32_t> *Index : indexesOf(Psg))
    Bytes += elementBytes(*Index);
  return Bytes;
}
