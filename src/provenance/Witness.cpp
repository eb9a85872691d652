//===- provenance/Witness.cpp - Witness chains on demand -------------------===//

#include "provenance/Witness.h"

#include "cfg/CfgBuilder.h"
#include "dataflow/CallPolicy.h"
#include "dataflow/Liveness.h"
#include "psg/Analyzer.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace spike;

RegSet spike::factSet(const AnalysisResult &A, ProvFact Fact,
                      uint32_t NodeId) {
  const PsgNode &Node = A.Psg.Nodes[NodeId];
  switch (Fact) {
  case ProvFact::MayUse:
    return Node.Sets.MayUse;
  case ProvFact::MayDef:
    return Node.Sets.MayDef;
  case ProvFact::Live:
    return Node.Live;
  }
  return RegSet();
}

namespace {

constexpr uint8_t factBit(ProvFact Fact) {
  return uint8_t(1u << unsigned(Fact));
}

} // namespace

WitnessSearch::WitnessSearch(const AnalysisResult &A, unsigned Reg,
                             ProvFact Goal, uint32_t StopNode)
    : A(A), Reg(Reg),
      Facts(Goal == ProvFact::Live
                ? uint8_t(factBit(ProvFact::MayUse) | factBit(ProvFact::Live))
                : factBit(Goal)),
      NumNodes(uint32_t(A.Psg.Nodes.size())),
      Stop(StopNode < NumNodes ? uint32_t(Goal) * NumNodes + StopNode
                               : ProvDerivation::NoId),
      How(size_t(NumProvFacts) * NumNodes) {
  assert(Reg < NumIntRegs && "witness search for a non-register");
  for (uint32_t NodeId = 0; NodeId < NumNodes && !Done; ++NodeId)
    for (ProvFact Fact : {ProvFact::MayUse, ProvFact::MayDef, ProvFact::Live})
      if (open(Fact, NodeId))
        if (ProvDerivation D = groundOf(Fact, NodeId);
            D.Kind != ProvKind::None)
          reach(Fact, NodeId, D);
  for (size_t Head = 0; Head < Queue.size() && !Done; ++Head)
    extend(ProvFact(Queue[Head] / NumNodes), Queue[Head] % NumNodes);
}

bool WitnessSearch::open(ProvFact Fact, uint32_t NodeId) const {
  return !Done && (Facts & factBit(Fact)) &&
         How[uint32_t(Fact) * NumNodes + NodeId].Kind == ProvKind::None &&
         factSet(A, Fact, NodeId).contains(Reg);
}

void WitnessSearch::reach(ProvFact Fact, uint32_t NodeId,
                          const ProvDerivation &D) {
  uint32_t State = uint32_t(Fact) * NumNodes + NodeId;
  How[State] = D;
  Queue.push_back(State);
  Done = State == Stop;
}

void WitnessSearch::derive(ProvFact Fact, uint32_t NodeId,
                           const ProvDerivation &D) {
  if (open(Fact, NodeId))
    reach(Fact, NodeId, D);
}

/// The ground derivation of (Fact, NodeId), or None: the node's own
/// boundary or exit seed, else the first out-edge in CSR order whose
/// label carries the register as a ground fact.
ProvDerivation WitnessSearch::groundOf(ProvFact Fact, uint32_t NodeId) const {
  const Program &Prog = A.Prog;
  const PsgNode &Node = A.Psg.Nodes[NodeId];
  const Routine &R = Prog.Routines[Node.RoutineIndex];
  ProvDerivation D;
  if (Node.Kind == PsgNodeKind::Unknown) {
    D.Kind = ProvKind::UnknownBoundary;
    return D;
  }
  if (Node.Kind == PsgNodeKind::Exit) {
    if (Fact != ProvFact::Live)
      return D;
    if ((R.AddressTaken || int32_t(Node.RoutineIndex) == Prog.EntryRoutine) &&
        Prog.Conv.unknownCallerLiveAtExit().contains(Reg))
      D.Kind = ProvKind::SeedUnknownCaller;
    else if (R.CalledFromQuarantine)
      D.Kind = ProvKind::SeedQuarantine;
    return D;
  }
  for (uint32_t EdgeId = Node.FirstOut,
                End = Node.FirstOut + A.Psg.outEdges(NodeId).size();
       EdgeId != End; ++EdgeId) {
    const PsgEdge &Edge = A.Psg.Edges[EdgeId];
    RegSet Label =
        Fact == ProvFact::MayDef ? Edge.Label.MayDef : Edge.Label.MayUse;
    if (!Label.contains(Reg))
      continue;
    D.Edge = EdgeId;
    if (Node.Kind != PsgNodeKind::Call)
      D.Kind = ProvKind::EdgeLabel;
    else if (R.Blocks[Node.BlockIndex].Term == TerminatorKind::IndirectCall)
      D.Kind = ProvKind::IndirectCall;
    else if (Fact == ProvFact::MayDef && Reg == Prog.Conv.RaReg)
      D.Kind = ProvKind::CallRa;
    else
      continue; // A callee summary: a step, derived from the callee entry.
    return D;
  }
  return ProvDerivation();
}

/// Derives every state one step from (Fact, NodeId): the inverse of the
/// solver's equations, walked along its reverse indexes.
void WitnessSearch::extend(ProvFact Fact, uint32_t NodeId) {
  const ProgramSummaryGraph &Psg = A.Psg;
  const PsgNode &Node = Psg.Nodes[NodeId];

  // Flow: each in-edge's source unions this set minus the path's MUST-DEF.
  for (uint32_t EdgeId : Psg.inEdgeIds(NodeId)) {
    const PsgEdge &Edge = Psg.Edges[EdgeId];
    if (Fact == ProvFact::MayDef || !Edge.Label.MustDef.contains(Reg))
      derive(Fact, Edge.Src, {ProvKind::EdgeFlow, Fact, EdgeId, NodeId});
  }

  // Callee summary: an entry's filtered sets label its call sites'
  // call-return edges; MAY-USE feeds both the caller's MAY-USE and Live.
  if (Node.Kind == PsgNodeKind::Entry && Fact != ProvFact::Live)
    for (uint32_t I = Psg.CrEdgeOfEntryBegin[NodeId],
                  E = Psg.CrEdgeOfEntryBegin[NodeId + 1];
         I != E; ++I) {
      uint32_t EdgeId = Psg.CrEdgeOfEntryIds[I];
      const PsgEdge &Edge = Psg.Edges[EdgeId];
      ProvDerivation D{ProvKind::CallSummary, Fact, EdgeId, NodeId};
      if (Fact == ProvFact::MayDef) {
        if (Edge.Label.MayDef.contains(Reg))
          derive(ProvFact::MayDef, Edge.Src, D);
      } else if (Edge.Label.MayUse.contains(Reg)) {
        derive(ProvFact::MayUse, Edge.Src, D);
        derive(ProvFact::Live, Edge.Src, D);
      }
    }

  // Return-site liveness: a return node feeds its callees' exits, and an
  // indirect return feeds every address-taken exit via the accumulator
  // (the first one reached derives them all).
  if (Node.Kind == PsgNodeKind::Return && Fact == ProvFact::Live) {
    for (uint32_t I = Psg.ExitsOfReturnBegin[NodeId],
                  E = Psg.ExitsOfReturnBegin[NodeId + 1];
         I != E; ++I)
      derive(ProvFact::Live, Psg.ExitsOfReturnIds[I],
             {ProvKind::ReturnLive, ProvFact::Live, ProvDerivation::NoId,
              NodeId});
    const BasicBlock &Block =
        A.Prog.Routines[Node.RoutineIndex].Blocks[Node.BlockIndex];
    if (Block.Term == TerminatorKind::IndirectCall && !HubReached) {
      HubReached = true;
      for (uint32_t ExitNode : Psg.AddressTakenExitNodes)
        derive(ProvFact::Live, ExitNode,
               {ProvKind::IndirectHub, ProvFact::Live, ProvDerivation::NoId,
                NodeId});
    }
  }
}

Witness WitnessSearch::witness(ProvFact Fact, uint32_t NodeId) const {
  assert((Facts & factBit(Fact)) && "fact kind outside this search");
  Witness W;
  if (NodeId >= NumNodes || !factSet(A, Fact, NodeId).contains(Reg))
    return W;
  W.Holds = true;
  telemetry::count("explain.queries");
  // Each reached state's derivation references a state reached strictly
  // earlier, so the walk ends; an unreached state ends it at once.
  for (;;) {
    const ProvDerivation &D = How[uint32_t(Fact) * NumNodes + NodeId];
    W.Steps.push_back({Fact, NodeId, Reg, D});
    if (D.Kind == ProvKind::None || isGroundKind(D.Kind))
      break;
    Fact = D.Ref;
    NodeId = D.Node;
  }
  telemetry::count("explain.steps", W.Steps.size());
  return W;
}

Witness spike::buildWitness(const AnalysisResult &A, ProvFact Fact,
                            uint32_t NodeId, unsigned Reg) {
  if (NodeId >= A.Psg.Nodes.size() || Reg >= NumIntRegs ||
      !factSet(A, Fact, NodeId).contains(Reg))
    return Witness();
  return WitnessSearch(A, Reg, Fact, NodeId).witness(Fact, NodeId);
}

namespace {

/// The anchor instruction address of \p NodeId (the entrance address for
/// entry nodes, the terminator address otherwise).
uint64_t nodeAddress(const AnalysisResult &A, uint32_t NodeId) {
  const PsgNode &Node = A.Psg.Nodes[NodeId];
  const Routine &R = A.Prog.Routines[Node.RoutineIndex];
  if (Node.Kind == PsgNodeKind::Entry)
    return R.EntryAddresses[A.Psg.anchorIndex(A.Prog, NodeId)];
  return R.Blocks[Node.BlockIndex].End - 1;
}

bool fail(std::string *Error, size_t StepIndex, const std::string &Why) {
  if (Error)
    *Error = "step " + std::to_string(StepIndex) + ": " + Why;
  telemetry::count("explain.replay_failures");
  return false;
}

/// One step's justification re-derived from the graph; continuity with
/// the following step is checked by the caller.
bool replayStep(const AnalysisResult &A, const WitnessStep &Step,
                size_t StepIndex, std::string *Error) {
  const Program &Prog = A.Prog;
  const ProgramSummaryGraph &Psg = A.Psg;
  const PsgNode &Node = Psg.Nodes[Step.Node];
  const ProvDerivation &How = Step.How;

  auto CheckEdge = [&](bool WantCallReturn) -> const PsgEdge * {
    if (How.Edge >= Psg.Edges.size() || Psg.Edges[How.Edge].Src != Step.Node)
      return nullptr;
    const PsgEdge &Edge = Psg.Edges[How.Edge];
    return Psg.isCallReturn(Edge) == WantCallReturn ? &Edge : nullptr;
  };
  const BasicBlock &Block =
      Prog.Routines[Node.RoutineIndex].Blocks[Node.BlockIndex];

  switch (How.Kind) {
  case ProvKind::None:
    return fail(Error, StepIndex, "no derivation recorded for the fact");

  case ProvKind::EdgeLabel: {
    const PsgEdge *Edge = CheckEdge(false);
    if (!Edge)
      return fail(Error, StepIndex, "not a flow-summary edge of the node");
    RegSet Label = Step.Fact == ProvFact::MayDef ? Edge->Label.MayDef
                                                 : Edge->Label.MayUse;
    if (!Label.contains(Step.Reg))
      return fail(Error, StepIndex, "edge label does not carry the register");
    return true;
  }

  case ProvKind::IndirectCall: {
    const PsgEdge *Edge = CheckEdge(true);
    if (!Edge)
      return fail(Error, StepIndex, "not a call-return edge of the node");
    if (Block.Term != TerminatorKind::IndirectCall)
      return fail(Error, StepIndex, "node's block is not an indirect call");
    FlowSets Label = indirectCallLabel(Prog, Block);
    RegSet Set =
        Step.Fact == ProvFact::MayDef ? Label.MayDef : Label.MayUse;
    if (!Set.contains(Step.Reg))
      return fail(Error, StepIndex,
                  "calling-standard label does not carry the register");
    return true;
  }

  case ProvKind::CallRa: {
    const PsgEdge *Edge = CheckEdge(true);
    if (!Edge)
      return fail(Error, StepIndex, "not a call-return edge of the node");
    if (Block.Term != TerminatorKind::Call)
      return fail(Error, StepIndex, "node's block is not a direct call");
    if (Step.Fact != ProvFact::MayDef || Step.Reg != Prog.Conv.RaReg)
      return fail(Error, StepIndex, "fact is not the call's def of ra");
    return true;
  }

  case ProvKind::CallSummary: {
    const PsgEdge *Edge = CheckEdge(true);
    if (!Edge)
      return fail(Error, StepIndex, "not a call-return edge of the node");
    if (Block.Term != TerminatorKind::Call || Block.CalleeRoutine < 0 ||
        Block.CalleeEntry < 0)
      return fail(Error, StepIndex, "node's block is not a direct call");
    uint32_t Callee = uint32_t(Block.CalleeRoutine);
    uint32_t EntryNode = Psg.entryNode(Callee, uint32_t(Block.CalleeEntry));
    if (How.Node != EntryNode)
      return fail(Error, StepIndex,
                  "referenced node is not the callee's entry node");
    ProvFact WantRef =
        Step.Fact == ProvFact::MayDef ? ProvFact::MayDef : ProvFact::MayUse;
    if (How.Ref != WantRef)
      return fail(Error, StepIndex, "referenced fact kind mismatch");
    if (A.SavedPerRoutine[Callee].contains(Step.Reg))
      return fail(Error, StepIndex,
                  "Section 3.4 filter removes the register (callee "
                  "saves/restores it)");
    if (Step.Fact != ProvFact::MayDef && Step.Reg == Prog.Conv.RaReg)
      return fail(Error, StepIndex, "ra is never call-used");
    return true;
  }

  case ProvKind::UnknownBoundary: {
    if (Node.Kind != PsgNodeKind::Unknown)
      return fail(Error, StepIndex, "node is not a Section 3.5 boundary");
    FlowSets Boundary = unknownJumpBoundary(Prog, Block);
    RegSet Set =
        Step.Fact == ProvFact::MayDef ? Boundary.MayDef : Boundary.MayUse;
    if (!Set.contains(Step.Reg))
      return fail(Error, StepIndex,
                  "recomputed boundary set does not carry the register");
    return true;
  }

  case ProvKind::SeedUnknownCaller: {
    const Routine &R = Prog.Routines[Node.RoutineIndex];
    if (Step.Fact != ProvFact::Live || Node.Kind != PsgNodeKind::Exit)
      return fail(Error, StepIndex, "not a Live fact at an exit node");
    if (!R.AddressTaken &&
        int32_t(Node.RoutineIndex) != Prog.EntryRoutine)
      return fail(Error, StepIndex,
                  "routine cannot return to an unknown caller");
    if (!Prog.Conv.unknownCallerLiveAtExit().contains(Step.Reg))
      return fail(Error, StepIndex,
                  "register not in the calling standard's live-at-exit");
    return true;
  }

  case ProvKind::SeedQuarantine: {
    if (Step.Fact != ProvFact::Live || Node.Kind != PsgNodeKind::Exit)
      return fail(Error, StepIndex, "not a Live fact at an exit node");
    if (!Prog.Routines[Node.RoutineIndex].CalledFromQuarantine)
      return fail(Error, StepIndex,
                  "routine is not reachable from quarantined code");
    return true;
  }

  case ProvKind::ReturnLive: {
    if (Step.Fact != ProvFact::Live || Node.Kind != PsgNodeKind::Exit)
      return fail(Error, StepIndex, "not a Live fact at an exit node");
    if (How.Ref != ProvFact::Live)
      return fail(Error, StepIndex, "referenced fact kind mismatch");
    bool Feeds = false;
    for (uint32_t I = Psg.ReturnsOfExitBegin[Step.Node],
                  E = Psg.ReturnsOfExitBegin[Step.Node + 1];
         I != E; ++I)
      Feeds |= Psg.ReturnsOfExitIds[I] == How.Node;
    if (!Feeds)
      return fail(Error, StepIndex,
                  "referenced return node does not feed this exit");
    return true;
  }

  case ProvKind::IndirectHub: {
    if (Step.Fact != ProvFact::Live || Node.Kind != PsgNodeKind::Exit)
      return fail(Error, StepIndex, "not a Live fact at an exit node");
    if (!Prog.Routines[Node.RoutineIndex].AddressTaken)
      return fail(Error, StepIndex, "routine is not address-taken");
    if (How.Ref != ProvFact::Live)
      return fail(Error, StepIndex, "referenced fact kind mismatch");
    bool IsIndirectReturn = false;
    for (uint32_t Ret : Psg.IndirectReturnNodes)
      IsIndirectReturn |= Ret == How.Node;
    if (!IsIndirectReturn)
      return fail(Error, StepIndex,
                  "referenced node is not an indirect-call return site");
    return true;
  }

  case ProvKind::EdgeFlow: {
    if (How.Edge >= Psg.Edges.size() || Psg.Edges[How.Edge].Src != Step.Node)
      return fail(Error, StepIndex, "not an edge of the node");
    const PsgEdge &Edge = Psg.Edges[How.Edge];
    if (How.Node != Edge.Dst)
      return fail(Error, StepIndex,
                  "referenced node is not the edge's destination");
    if (How.Ref != Step.Fact)
      return fail(Error, StepIndex, "referenced fact kind mismatch");
    if (Step.Fact != ProvFact::MayDef &&
        Edge.Label.MustDef.contains(Step.Reg))
      return fail(Error, StepIndex,
                  "the path's MUST-DEF kills the register");
    return true;
  }
  }
  return fail(Error, StepIndex, "unknown derivation kind");
}

} // namespace

bool spike::replayWitness(const AnalysisResult &A, const Witness &W,
                          std::string *Error) {
  telemetry::count("explain.replays");
  if (!W.Holds || W.Steps.empty())
    return fail(Error, 0, "witness holds no steps");
  for (size_t I = 0; I < W.Steps.size(); ++I) {
    const WitnessStep &Step = W.Steps[I];
    if (Step.Node >= A.Psg.Nodes.size() || Step.Reg >= NumIntRegs)
      return fail(Error, I, "step references an invalid node or register");
    if (!factSet(A, Step.Fact, Step.Node).contains(Step.Reg))
      return fail(Error, I, "stated fact does not hold in the solved graph");
    if (!replayStep(A, Step, I, Error))
      return false;
    bool Last = I + 1 == W.Steps.size();
    if (isGroundKind(Step.How.Kind)) {
      if (!Last)
        return fail(Error, I, "ground fact in the middle of the chain");
      return true;
    }
    if (Last)
      return fail(Error, I, "chain does not end in a ground fact");
    const WitnessStep &Next = W.Steps[I + 1];
    if (Next.Fact != Step.How.Ref || Next.Node != Step.How.Node ||
        Next.Reg != Step.Reg)
      return fail(Error, I, "next step does not match the derivation");
  }
  return fail(Error, W.Steps.size(), "unterminated chain");
}

std::string spike::describeNode(const AnalysisResult &A, uint32_t NodeId) {
  const PsgNode &Node = A.Psg.Nodes[NodeId];
  const Routine &R = A.Prog.Routines[Node.RoutineIndex];
  const BasicBlock &Block = R.Blocks[Node.BlockIndex];

  std::string S = psgNodeKindName(Node.Kind);
  if (Node.Kind == PsgNodeKind::Entry || Node.Kind == PsgNodeKind::Exit)
    S += "#" + std::to_string(A.Psg.anchorIndex(A.Prog, NodeId));
  S += " node " + std::to_string(NodeId) + " of '" + R.Name + "' (block " +
       std::to_string(Node.BlockIndex) + " @" +
       std::to_string(nodeAddress(A, NodeId));
  if ((Node.Kind == PsgNodeKind::Call || Node.Kind == PsgNodeKind::Return)) {
    if (Block.Term == TerminatorKind::Call && Block.CalleeRoutine >= 0)
      S += ", calls '" +
           A.Prog.Routines[uint32_t(Block.CalleeRoutine)].Name + "'";
    else
      S += ", indirect call";
  }
  S += ")";
  return S;
}

bool spike::parseWitnessOperand(const std::string &Spec, unsigned &Reg,
                                std::string &Where, std::string &Err) {
  size_t At = Spec.find('@');
  if (At == std::string::npos || At == 0) {
    Err = "location '" + Spec + "' is not <reg>@<kind>:<routine>";
    return false;
  }
  Reg = parseRegName(Spec.substr(0, At).c_str());
  Where = Spec.substr(At + 1);
  if (Reg >= NumIntRegs) {
    Err = "unknown register '" + Spec.substr(0, At) + "'";
    return false;
  }
  if (Where.empty()) {
    Err = "location '" + Spec + "' has no <kind>:<routine> part";
    return false;
  }
  return true;
}

namespace {

/// Parses \p Text as a whole decimal number below \p Limit.
bool decimalBelow(const std::string &Text, uint64_t Limit, uint64_t &Value) {
  // Nineteen digits cannot overflow strtoull.
  if (Text.empty() || Text.size() > 19 ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Value = std::strtoull(Text.c_str(), nullptr, 10);
  return Value < Limit;
}

} // namespace

bool spike::resolveWitnessNode(const AnalysisResult &A,
                               const std::string &Where, uint32_t &NodeId,
                               std::string &Err) {
  size_t Colon = Where.find(':');
  if (Colon == std::string::npos) {
    Err = "location '" + Where +
          "' has no kind (want entry|exit|call|return|node ':' name)";
    return false;
  }
  std::string Kind = Where.substr(0, Colon);
  std::string Name = Where.substr(Colon + 1);
  uint64_t Value = 0;
  if (Kind == "node") {
    if (!decimalBelow(Name, A.Psg.Nodes.size(), Value)) {
      Err = "PSG node '" + Name + "' is not a node id (want a decimal " +
            "number below " + std::to_string(A.Psg.Nodes.size()) + ")";
      return false;
    }
    NodeId = uint32_t(Value);
    return true;
  }

  std::string Index = "0";
  if (size_t Hash = Name.rfind('#'); Hash != std::string::npos) {
    Index = Name.substr(Hash + 1);
    Name.resize(Hash);
  }
  for (uint32_t R = 0; R < A.Prog.Routines.size(); ++R) {
    if (A.Prog.Routines[R].Name != Name)
      continue;
    const Routine &Rt = A.Prog.Routines[R];
    size_t Count = 0;
    if (Kind == "entry")
      Count = Rt.numEntries();
    else if (Kind == "exit")
      Count = Rt.ExitBlocks.size();
    else if (Kind == "call" || Kind == "return")
      Count = Rt.CallBlocks.size();
    else {
      Err = "unknown location kind '" + Kind +
            "' (want entry|exit|call|return|node)";
      return false;
    }
    if (!decimalBelow(Index, Count, Value)) {
      Err = "routine '" + Name + "' has " + std::to_string(Count) + " " +
            Kind + " node(s), index '" + Index + "' out of range";
      return false;
    }
    uint32_t I = uint32_t(Value);
    NodeId = Kind == "entry"  ? A.Psg.entryNode(R, I)
             : Kind == "exit" ? A.Psg.exitNodes(A.Prog, R)[I]
             : Kind == "call" ? A.Psg.callNode(A.Prog, R, I)
                              : A.Psg.returnNode(A.Prog, R, I);
    return true;
  }
  Err = "no routine named '" + Name + "'";
  return false;
}

namespace {

/// The "via ..." justification line of one step.
std::string describeDerivation(const AnalysisResult &A,
                               const WitnessStep &Step) {
  const ProvDerivation &How = Step.How;
  std::string RegStr = regName(Step.Reg);
  auto EdgeRef = [&] { return "edge e" + std::to_string(How.Edge); };

  switch (How.Kind) {
  case ProvKind::None:
    return "<no derivation recorded>";
  case ProvKind::EdgeLabel:
    return "via flow-summary " + EdgeRef() + ": instruction " +
           (Step.Fact == ProvFact::MayDef ? std::string("DEF")
                                          : std::string("USE")) +
           " of " + RegStr + " on an anchor-free path [ground]";
  case ProvKind::IndirectCall:
    return "via call-return " + EdgeRef() +
           ": calling-standard label of the indirect call (hub) [ground]";
  case ProvKind::CallRa:
    return "via call-return " + EdgeRef() +
           ": the call instruction itself defines " + RegStr + " [ground]";
  case ProvKind::CallSummary:
    return "via call-return " + EdgeRef() + ": " + RegStr + " is " +
           (Step.Fact == ProvFact::MayDef ? "call-killed" : "call-used") +
           " per the callee summary at " + describeNode(A, How.Node) +
           " (Section 3.4 filter passed)";
  case ProvKind::UnknownBoundary:
    return "via the Section 3.5 boundary: " + RegStr +
           " assumed live at the unresolved jump's unknown target [ground]";
  case ProvKind::SeedUnknownCaller:
    return "via the exit seed: the routine may return to an unknown "
           "caller, whose calling standard keeps " +
           RegStr + " live [ground]";
  case ProvKind::SeedQuarantine:
    return "via the exit seed: the routine is reachable from quarantined "
           "code, so every register is assumed live [ground]";
  case ProvKind::ReturnLive:
    return "via the caller's return site: " + RegStr + " is live at " +
           describeNode(A, How.Node);
  case ProvKind::IndirectHub:
    return "via the indirect-call accumulator: " + RegStr +
           " is live at " + describeNode(A, How.Node);
  case ProvKind::EdgeFlow:
    return "via flow " + EdgeRef() + " to " + describeNode(A, How.Node) +
           ": " + RegStr + " survives the path's MUST-DEF";
  }
  return "<unknown derivation>";
}

const char *groundName(ProvKind Kind) {
  switch (Kind) {
  case ProvKind::EdgeLabel:
    return "an instruction access on a summarized path";
  case ProvKind::IndirectCall:
    return "the indirect-call hub (calling standard)";
  case ProvKind::CallRa:
    return "the call instruction's own def of ra";
  case ProvKind::SeedUnknownCaller:
    return "the unknown-caller exit seed";
  case ProvKind::SeedQuarantine:
    return "the quarantine exit seed";
  case ProvKind::UnknownBoundary:
    return "the Section 3.5 unknowable-code boundary";
  default:
    return "<not grounded>";
  }
}

} // namespace

std::string spike::renderWitness(const AnalysisResult &A, const Witness &W) {
  if (!W.Holds)
    return "fact does not hold: the least fixpoint never set this bit, so "
           "nothing in the program demands it (no witness needed)\n";
  std::string Out;
  const WitnessStep &Query = W.Steps.front();
  Out += "witness: " + std::string(provFactName(Query.Fact)) + " " +
         regName(Query.Reg) + " at " + describeNode(A, Query.Node) + "\n";
  for (size_t I = 0; I < W.Steps.size(); ++I) {
    const WitnessStep &Step = W.Steps[I];
    Out += "  [" + std::to_string(I) + "] " + provFactName(Step.Fact) + " " +
           regName(Step.Reg) + " at " + describeNode(A, Step.Node) + "\n";
    Out += "      " + describeDerivation(A, Step) + "\n";
  }
  Out += "  ground: " + std::string(groundName(W.Steps.back().How.Kind)) +
         "\n";
  return Out;
}

WitnessPath spike::witnessPath(const Witness &W) {
  WitnessPath Path;
  for (const WitnessStep &Step : W.Steps) {
    Path.Nodes.push_back(Step.Node);
    if (Step.How.Edge != ProvDerivation::NoId)
      Path.Edges.push_back(Step.How.Edge);
    if (Step.How.Node != ProvDerivation::NoId &&
        (Step.How.Kind == ProvKind::ReturnLive ||
         Step.How.Kind == ProvKind::IndirectHub))
      Path.Nodes.push_back(Step.How.Node);
  }
  return Path;
}

namespace {

/// Calls \p Visit(Bit, NodeId, Reg, W) for every live-at-entry bit, with
/// one WitnessSearch per register.  Bit numbers the bits in (routine,
/// entrance, register) order, so callers can emit results in that order.
template <class VisitFn>
void forEachEntryWitness(const AnalysisResult &A, VisitFn Visit) {
  std::vector<uint32_t> Entries, FirstBit;
  uint32_t NumBits = 0;
  RegSet AnyLive;
  for (uint32_t R = 0; R < A.Prog.Routines.size(); ++R)
    for (uint32_t NodeId : A.Psg.entryNodes(A.Prog, R)) {
      Entries.push_back(NodeId);
      FirstBit.push_back(NumBits);
      NumBits += A.Psg.Nodes[NodeId].Live.count();
      AnyLive |= A.Psg.Nodes[NodeId].Live;
    }
  for (unsigned Reg : AnyLive) {
    WitnessSearch Search(A, Reg, ProvFact::Live);
    for (size_t I = 0; I < Entries.size(); ++I) {
      RegSet Live = A.Psg.Nodes[Entries[I]].Live;
      if (Live.contains(Reg))
        Visit(FirstBit[I] + (Live & RegSet::allBelow(Reg)).count(),
              Entries[I], Reg, Search.witness(ProvFact::Live, Entries[I]));
    }
  }
}

} // namespace

WitnessAudit spike::auditEntryLiveness(const AnalysisResult &A) {
  WitnessAudit Audit;
  for (const Routine &R : A.Prog.Routines)
    Audit.EntriesChecked += R.numEntries();
  std::vector<std::pair<uint32_t, std::string>> Failures;
  forEachEntryWitness(A, [&](uint32_t Bit, uint32_t NodeId, unsigned Reg,
                             const Witness &W) {
    ++Audit.BitsChecked;
    std::string Context =
        std::string(regName(Reg)) + " at " + describeNode(A, NodeId) + ": ";
    std::string Err;
    if (!W.Holds)
      Failures.push_back({Bit, Context + "no witness built"});
    else if (!replayWitness(A, W, &Err))
      Failures.push_back({Bit, Context + "replay failed (" + Err + ")"});
  });
  std::sort(Failures.begin(), Failures.end());
  for (auto &[Bit, Text] : Failures)
    Audit.Failures.push_back(std::move(Text));
  return Audit;
}

std::string spike::renderEntryWitnesses(const AnalysisResult &A) {
  std::vector<std::string> Texts;
  forEachEntryWitness(A, [&](uint32_t Bit, uint32_t, unsigned,
                             const Witness &W) {
    if (Texts.size() <= Bit)
      Texts.resize(Bit + 1);
    Texts[Bit] = renderWitness(A, W);
  });
  std::string Out;
  for (const std::string &Text : Texts)
    Out += Text;
  return Out;
}

namespace {

/// What scanning one block (from a given offset) for an observer of Reg
/// concluded.
struct ScanOutcome {
  enum Kind {
    Flows,      ///< Neither used nor killed: successors inherit the search.
    Killed,     ///< Redefined before any use: the path ends.
    UseFound,   ///< A concrete observer was located; Text explains it.
  } K = Flows;
  std::string Text;
  uint64_t KillAddress = 0;
  std::string KillText;
};

ScanOutcome scanBlockForObserver(const AnalysisResult &A, uint32_t RIdx,
                                 uint32_t BlockIndex, uint64_t FromOffset,
                                 unsigned Reg) {
  const Program &Prog = A.Prog;
  const Routine &R = Prog.Routines[RIdx];
  const BasicBlock &Block = R.Blocks[BlockIndex];
  ScanOutcome Out;

  for (uint64_t O = FromOffset; O < Block.size(); ++O) {
    uint64_t Address = Block.Begin + O;
    const Instruction Inst = Prog.inst(Address);
    if (Inst.uses().contains(Reg)) {
      Out.K = ScanOutcome::UseFound;
      Out.Text = "read by '" + Inst.str(int64_t(Address)) + "' @" +
                 std::to_string(Address) + " (block " +
                 std::to_string(BlockIndex) + ")";
      return Out;
    }
    if (Inst.defs().contains(Reg)) {
      Out.K = ScanOutcome::Killed;
      Out.KillAddress = Address;
      Out.KillText = "redefined by '" + Inst.str(int64_t(Address)) + "' @" +
                     std::to_string(Address) + " before any use";
      return Out;
    }
  }

  uint64_t TermAddr = Block.End - 1;
  if (Block.endsWithCall()) {
    CallEffect Effect = A.Summaries.callEffect(Prog, RIdx, BlockIndex);
    if (Effect.Used.contains(Reg)) {
      Out.K = ScanOutcome::UseFound;
      std::string Callee =
          Block.Term == TerminatorKind::Call && Block.CalleeRoutine >= 0
              ? "'" + Prog.Routines[uint32_t(Block.CalleeRoutine)].Name + "'"
              : "an indirect callee";
      Out.Text = "consumed by the call to " + Callee + " @" +
                 std::to_string(TermAddr) + ": " + regName(Reg) +
                 " is call-used";
      if (Block.Term == TerminatorKind::Call && Block.CalleeRoutine >= 0 &&
          Block.CalleeEntry >= 0) {
        uint32_t EntryNode = A.Psg.entryNode(uint32_t(Block.CalleeRoutine),
                                             uint32_t(Block.CalleeEntry));
        Out.Text += "\n" + renderWitness(A, buildWitness(A, ProvFact::MayUse,
                                                         EntryNode, Reg));
      }
      return Out;
    }
    if (Effect.Defined.contains(Reg)) {
      Out.K = ScanOutcome::Killed;
      Out.KillAddress = TermAddr;
      Out.KillText = "call-defined by the call @" + std::to_string(TermAddr) +
                     " before any use";
      return Out;
    }
  }
  if (Block.Term == TerminatorKind::Return) {
    if (A.Summaries.liveAtExitOfBlock(Prog, RIdx, BlockIndex).contains(Reg)) {
      Out.K = ScanOutcome::UseFound;
      Out.Text = "live at the routine exit @" + std::to_string(TermAddr) +
                 " (block " + std::to_string(BlockIndex) + ")";
      for (uint32_t ExitIdx = 0; ExitIdx < R.ExitBlocks.size(); ++ExitIdx)
        if (R.ExitBlocks[ExitIdx] == BlockIndex) {
          uint32_t ExitNode = A.Psg.exitNodes(Prog, RIdx)[ExitIdx];
          Out.Text += "\n" + renderWitness(A, buildWitness(A, ProvFact::Live,
                                                           ExitNode, Reg));
          break;
        }
      return Out;
    }
  }
  if (Block.Term == TerminatorKind::UnresolvedJump &&
      Prog.jumpTargetLive(TermAddr).contains(Reg)) {
    Out.K = ScanOutcome::UseFound;
    Out.Text = "assumed live at the unresolved jump @" +
               std::to_string(TermAddr) +
               " (Section 3.5: unknown code may read anything)";
    return Out;
  }
  return Out; // Flows to successors.
}

} // namespace

DeadDefExplanation spike::explainDeadDef(const AnalysisResult &A,
                                         uint64_t Address, int RegArg) {
  DeadDefExplanation Ex;
  telemetry::count("explain.queries");
  const Program &Prog = A.Prog;

  int32_t RIdxS = findRoutineByAddress(Prog, Address);
  if (RIdxS < 0 || Address >= Prog.numInsts()) {
    Ex.Text = "@" + std::to_string(Address) + ": no routine owns this address";
    return Ex;
  }
  uint32_t RIdx = uint32_t(RIdxS);
  const Routine &R = Prog.Routines[RIdx];
  if (R.Quarantined) {
    Ex.Text = "@" + std::to_string(Address) + ": routine '" + R.Name +
              "' is quarantined; its decoded form is a placeholder and is "
              "never analyzed for dead definitions";
    return Ex;
  }

  int32_t BlockIndexS = -1;
  for (uint32_t B = 0; B < R.Blocks.size(); ++B)
    if (Address >= R.Blocks[B].Begin && Address < R.Blocks[B].End)
      BlockIndexS = int32_t(B);
  if (BlockIndexS < 0) {
    Ex.Text = "@" + std::to_string(Address) + ": address not in any block of '" +
              R.Name + "'";
    return Ex;
  }
  uint32_t BlockIndex = uint32_t(BlockIndexS);
  const BasicBlock &Block = R.Blocks[BlockIndex];

  const Instruction Inst = Prog.inst(Address);
  RegSet Defs = Inst.defs();
  unsigned Reg =
      RegArg >= 0 ? unsigned(RegArg) : (Defs.empty() ? NumIntRegs : *Defs.begin());
  if (Reg >= NumIntRegs || !Defs.contains(Reg)) {
    Ex.Text = "@" + std::to_string(Address) + ": '" +
              Inst.str(int64_t(Address)) + "' does not define " +
              (Reg < NumIntRegs ? regName(Reg) : "any register");
    return Ex;
  }
  Ex.Found = true;
  Ex.Reg = Reg;

  // The same liveness lens SL003 and DeadDefElim use.
  LivenessResult Live = solveLiveness(
      R,
      [&](uint32_t B) { return A.Summaries.callEffect(Prog, RIdx, B); },
      [&](uint32_t B) { return A.Summaries.liveAtExitOfBlock(Prog, RIdx, B); },
      [&](uint32_t B) { return Prog.jumpTargetLive(R.Blocks[B].End - 1); });
  CallEffect Effect;
  const CallEffect *EffectPtr = nullptr;
  if (Block.endsWithCall()) {
    Effect = A.Summaries.callEffect(Prog, RIdx, BlockIndex);
    EffectPtr = &Effect;
  }
  std::vector<RegSet> LiveBefore = liveBeforeEachInst(
      Prog, R, BlockIndex, Live.LiveOut[BlockIndex], EffectPtr);
  uint64_t Offset = Address - Block.Begin;
  RegSet LiveAfter = Offset + 1 < Block.size() ? LiveBefore[Offset + 1]
                                               : Live.LiveOut[BlockIndex];
  Ex.Dead = !LiveAfter.contains(Reg);

  Ex.Text = "def-site @" + std::to_string(Address) + " '" +
            Inst.str(int64_t(Address)) + "' in '" + R.Name + "' block " +
            std::to_string(BlockIndex) + ": " + regName(Reg) + " is " +
            (Ex.Dead ? "DEAD" : "LIVE") + " after the definition\n";

  if (Ex.Dead) {
    // Least-fixpoint minimality: deadness is the *absence* of every
    // possible observer.  Name the bound that ends the register's life
    // on the straight-line remainder, then state the argument.
    ScanOutcome Scan =
        scanBlockForObserver(A, RIdx, BlockIndex, Offset + 1, Reg);
    assert(Scan.K != ScanOutcome::UseFound && "dead def has an observer");
    if (Scan.K == ScanOutcome::Killed)
      Ex.Text += "  " + Scan.KillText + "\n";
    else
      Ex.Text += "  " + std::string(regName(Reg)) +
                 " is not live out of block " + std::to_string(BlockIndex) +
                 ": no successor's live-in, exit seed, or unknown-jump "
                 "boundary contains it\n";
    Ex.Text += "  liveness is a least fixpoint: a bit it never sets has no "
               "derivation, so no path can observe the value "
               "(DeadDefElim rewrites exactly these sites to nops)\n";
    return Ex;
  }

  // Live: locate a concrete observer with a deterministic breadth-first
  // search along blocks whose live-in keeps the register alive.
  ScanOutcome Scan = scanBlockForObserver(A, RIdx, BlockIndex, Offset + 1, Reg);
  if (Scan.K == ScanOutcome::UseFound) {
    Ex.Text += "  " + Scan.Text + "\n";
    return Ex;
  }
  if (Scan.K == ScanOutcome::Flows) {
    std::vector<bool> Visited(R.Blocks.size(), false);
    std::vector<uint32_t> Queue;
    for (uint32_t Succ : R.succs(BlockIndex))
      if (Live.LiveIn[Succ].contains(Reg) && !Visited[Succ]) {
        Visited[Succ] = true;
        Queue.push_back(Succ);
      }
    for (size_t Head = 0; Head < Queue.size(); ++Head) {
      uint32_t B = Queue[Head];
      ScanOutcome S = scanBlockForObserver(A, RIdx, B, 0, Reg);
      if (S.K == ScanOutcome::UseFound) {
        Ex.Text += "  flows to block " + std::to_string(B) + ", " + S.Text +
                   "\n";
        return Ex;
      }
      if (S.K == ScanOutcome::Killed)
        continue;
      for (uint32_t Succ : R.succs(B))
        if (Live.LiveIn[Succ].contains(Reg) && !Visited[Succ]) {
          Visited[Succ] = true;
          Queue.push_back(Succ);
        }
    }
  }
  Ex.Text += "  (live per the solved sets; no single-block observer was "
             "isolated)\n";
  return Ex;
}
