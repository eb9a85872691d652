//===- psg/PsgSolver.cpp - The two PSG dataflow phases --------------------===//

#include "psg/PsgSolver.h"

#include "cfg/SccDriver.h"
#include "dataflow/CallPolicy.h"
#include "dataflow/Worklist.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <span>

using namespace spike;

FlowSets spike::filterCalleeSaved(const FlowSets &Sets, RegSet Saved) {
  return FlowSets{Sets.MayUse - Saved, Sets.MayDef - Saved,
                  Sets.MustDef - Saved};
}

namespace {

/// Returns true if \p Kind has a fixed phase-1 value that the solver must
/// never recompute.
bool isFixedPhase1(PsgNodeKind Kind) {
  return Kind == PsgNodeKind::Exit || Kind == PsgNodeKind::Unknown ||
         Kind == PsgNodeKind::Halt;
}

/// One lane's scratch, reused across every group the lane solves.
struct LaneScratch {
  std::vector<uint32_t> NodeIds; ///< Local index -> global node id.
  Worklist List{0};
  std::vector<uint32_t> GroupATExits;
};

/// The scratch of one phase.  LocalOf maps node ids to dense local
/// worklist indices for the whole phase and is shared by every lane:
/// groups solved at the same time own disjoint routines and hence
/// disjoint nodes, and each group writes the entries of its own nodes
/// before it solves.  A group reads entries of its own nodes and of
/// nodes its equations reach across routines (callers' call nodes in
/// phase 1, callees' exits in phase 2), which belong to the group itself
/// or to groups of later levels, so no entry is read while another lane
/// writes it.
struct PhaseScratch {
  PhaseScratch(ThreadPool *Pool, const ProgramSummaryGraph &Psg)
      : LocalOf(Psg.Nodes.size()), Lanes(Pool ? Pool->jobs() : 1) {
    if (telemetry::profiling())
      PopCounts.assign(Psg.Nodes.size(), 0);
  }

  /// True if \p NodeId belongs to the group lane \p S is solving: its
  /// map entry names a local index whose node is \p NodeId (a sparse-set
  /// test, exact whatever a stale entry holds).
  bool inGroup(uint32_t NodeId, const LaneScratch &S) const {
    uint32_t Local = LocalOf[NodeId];
    return Local < S.NodeIds.size() && S.NodeIds[Local] == NodeId;
  }

  std::vector<uint32_t> LocalOf;
  /// Per-node pop counts of the groups being solved, indexed like
  /// LocalOf — allocated only when a telemetry session is profiling the
  /// run (empty = profiling off).
  std::vector<uint32_t> PopCounts;
  std::vector<LaneScratch> Lanes;
};

/// Gives the nodes of the group's member routines dense local ids, in
/// ascending global order (members are ascending and each routine's
/// nodes are a contiguous ascending range), and empties the lane's
/// worklist for them.
LaneScratch &mapGroup(const GroupTask &T, const ProgramSummaryGraph &Psg,
                      PhaseScratch &P) {
  LaneScratch &S = P.Lanes[T.Lane];
  S.NodeIds.clear();
  bool Profile = !P.PopCounts.empty();
  for (uint32_t R : T.Members)
    for (uint32_t N = Psg.RoutineNodeBegin[R], E = Psg.RoutineNodeBegin[R + 1];
         N != E; ++N) {
      P.LocalOf[N] = uint32_t(S.NodeIds.size());
      if (Profile)
        P.PopCounts[N] = 0;
      S.NodeIds.push_back(N);
    }
  S.List.reset(S.NodeIds.size());
  return S;
}

/// Requeues the source of in-edge \p EdgeId after its destination
/// changed.  Only entry, call, return and branch nodes have out-edges,
/// and none of them holds a fixed value in either phase, so every source
/// requeues; no PSG edge leaves its routine, so the source is in-group.
void requeuePred(const ProgramSummaryGraph &Psg, const PhaseScratch &P,
                 LaneScratch &S, uint32_t EdgeId) {
  uint32_t Pred = Psg.Edges[EdgeId].Src;
  assert(!isFixedPhase1(Psg.Nodes[Pred].Kind) && P.inGroup(Pred, S) &&
         "PSG edge from a sink or across routines");
  S.List.push(P.LocalOf[Pred]);
}

/// Per-pop accounting shared by the two kernels: the solver counter,
/// the profile, and the governor poll.
void countPop(GroupTask &T, PhaseScratch &P, SolverStats &Stats,
              uint32_t NodeId, uint32_t Routine) {
  ++Stats.NodeEvaluations;
  T.pop(Routine);
  if (T.Cost)
    ++P.PopCounts[NodeId];
  T.step();
}

/// Folds one pass into the group's profile: the pass's \p SetOps (edge
/// visits), and as Iters the deepest group-local per-node pop count (how
/// many sweeps the slowest equation took).
void finishPassProfile(const LaneScratch &S, const PhaseScratch &P,
                       telemetry::GroupCost *Prof, uint64_t SetOps) {
  if (!Prof)
    return;
  Prof->SetOps += SetOps;
  uint32_t MaxPops = 0;
  for (uint32_t NodeId : S.NodeIds)
    if (P.PopCounts[NodeId] > MaxPops)
      MaxPops = P.PopCounts[NodeId];
  Prof->Iters += MaxPops;
}

/// Symmetric-difference bit count between an old and new set pair — the
/// per-pop convergence-trace sample (how many facts this evaluation
/// actually moved).  One popcount, and none for an unchanged set: the
/// baseline x86-64 target has no popcount instruction, so each count()
/// is a library call.
uint64_t changedBits(RegSet OldA, RegSet NewA) {
  RegSet Moved = (NewA - OldA) | (OldA - NewA);
  return Moved.empty() ? 0 : Moved.count();
}
uint64_t changedBits(const FlowSets &Old, const FlowSets &New) {
  return changedBits(Old.MayUse, New.MayUse) +
         changedBits(Old.MayDef, New.MayDef) +
         changedBits(Old.MustDef, New.MustDef);
}

/// Phase 1's starting value of \p Node.  Exit: nothing runs after a
/// returning exit.  Unknown: arbitrary code may run (Section 3.5), with
/// the annotated live set when present, all registers otherwise.  Halt:
/// no code runs and the path never returns, so MUST-DEF is top.
/// Interior nodes: MUST-DEF starts at top (must problem), the MAY sets
/// at bottom.
FlowSets phase1Start(const Program &Prog, const PsgNode &Node,
                     RegSet AllRegs) {
  switch (Node.Kind) {
  case PsgNodeKind::Exit:
    return FlowSets::atExit();
  case PsgNodeKind::Unknown:
    return unknownJumpBoundary(
        Prog, Prog.Routines[Node.RoutineIndex].Blocks[Node.BlockIndex]);
  case PsgNodeKind::Halt:
    return FlowSets::afterHalt(AllRegs);
  default:
    return FlowSets{RegSet(), RegSet(), AllRegs};
  }
}

/// Phase 2's starting value of \p Node: the jump's live set at an
/// unknown node, nothing elsewhere.
RegSet phase2Start(const Program &Prog, const PsgNode &Node) {
  if (Node.Kind != PsgNodeKind::Unknown)
    return RegSet();
  return Prog.jumpTargetLive(
      Prog.Routines[Node.RoutineIndex].Blocks[Node.BlockIndex].End - 1);
}

/// Routine \p R's nodes.
std::span<PsgNode> nodesOf(ProgramSummaryGraph &Psg, uint32_t R) {
  return std::span(Psg.Nodes).subspan(
      Psg.RoutineNodeBegin[R],
      Psg.RoutineNodeBegin[R + 1] - Psg.RoutineNodeBegin[R]);
}

/// Where the ids of the call-return edges routine \p R's entries feed sit
/// in CrEdgeOfEntry.Ids: its entry nodes are consecutive, so their lists
/// are too.
std::pair<uint32_t, uint32_t> fedRange(const Program &Prog,
                                       const ProgramSummaryGraph &Psg,
                                       uint32_t R) {
  NodeIdRange Entries = Psg.entryNodes(Prog, R);
  return {Psg.CrEdgeOfEntry.Begin[Entries.front()],
          Psg.CrEdgeOfEntry.Begin[Entries.back() + 1]};
}

/// One phase 1 pass: the half of Figure 8's sets it solves, and the one
/// place the Section 3.4 label an entry feeds its call sites'
/// call-return edges is computed and compared.
struct PassLabel {
  bool MayUsePass; ///< MAY-USE; otherwise MUST-DEF and MAY-DEF.
  RegSet RaOnly, AllRegs;

  /// Writes Figure 8's equation for the pass's half of non-fixed node
  /// \p NodeId into \p Sets, counting the out-edges it visits.
  void evaluate(const ProgramSummaryGraph &Psg, uint32_t NodeId,
                FlowSets &Sets, uint64_t &EdgeVisits) const {
    if (MayUsePass) {
      // MAY-USE[N_X] = MAY-USE[E] ∪ (MAY-USE[N_Y] − MUST-DEF[E]),
      // unioned across out-edges.
      RegSet MayUse;
      for (const PsgEdge &Edge : Psg.outEdges(NodeId)) {
        ++EdgeVisits;
        MayUse |= Edge.Label.MayUse |
                  (Psg.Nodes[Edge.Dst].Sets.MayUse - Edge.Label.MustDef);
      }
      Sets.MayUse = MayUse;
      return;
    }
    RegSet MustDef, MayDef;
    bool First = true;
    for (const PsgEdge &Edge : Psg.outEdges(NodeId)) {
      ++EdgeVisits;
      const PsgNode &Dst = Psg.Nodes[Edge.Dst];
      RegSet ThroughMust = Dst.Sets.MustDef | Edge.Label.MustDef;
      MustDef = First ? ThroughMust : (MustDef & ThroughMust);
      MayDef |= Dst.Sets.MayDef | Edge.Label.MayDef;
      First = false;
    }
    Sets.MustDef = First ? AllRegs : MustDef; // No sink: meet over nothing.
    Sets.MayDef = MayDef;
  }

  /// The label an entry with sets \p Sets, in a routine that saves and
  /// restores \p Saved, broadcasts: the callee-saved filter, and the jsr
  /// itself defines ra.
  FlowSets label(const FlowSets &Sets, RegSet Saved) const {
    FlowSets Filtered = filterCalleeSaved(Sets, Saved);
    return {Filtered.MayUse - RaOnly, Filtered.MayDef | RaOnly,
            Filtered.MustDef | RaOnly};
  }

  /// The label a solve leaves on the edges fed by an entry that converged
  /// at \p Sets: an entry still at the pass's initial value never
  /// changed, so it never broadcast and its edges keep the initial label.
  FlowSets convergedLabel(const FlowSets &Sets, RegSet Saved) const {
    bool Initial = MayUsePass ? Sets.MayUse.empty()
                              : Sets.MustDef == AllRegs && Sets.MayDef.empty();
    return Initial ? initialLabel() : label(Sets, Saved);
  }

  /// A direct call-return edge's label before its callee broadcasts:
  /// MUST-DEF at top, so the downward iteration is monotone.
  FlowSets initialLabel() const { return {RegSet(), RegSet(), AllRegs}; }

  bool same(const FlowSets &A, const FlowSets &B) const {
    return MayUsePass ? A.MayUse == B.MayUse
                      : A.MustDef == B.MustDef && A.MayDef == B.MayDef;
  }

  /// Copies the pass's half of \p From into \p To; returns true if that
  /// changed \p To.
  bool assign(const FlowSets &From, FlowSets &To) const {
    if (same(From, To))
      return false;
    if (MayUsePass) {
      To.MayUse = From.MayUse;
    } else {
      To.MustDef = From.MustDef;
      To.MayDef = From.MayDef;
    }
    return true;
  }
};

/// Before a group iterates one phase 1 pass: snapshots its members into
/// \p Journal when re-solving in place, then resets the pass's half of
/// their nodes and of the labels their entries feed to the pass's
/// starting values.
void resetGroupPhase1(const Program &Prog, ProgramSummaryGraph &Psg,
                      const PassLabel &Pass, SolveJournal *Journal,
                      const std::vector<uint32_t> &Members) {
  for (uint32_t R : Members) {
    if (Journal)
      Journal->snapshot(Prog, Psg, R);
    for (PsgNode &Node : nodesOf(Psg, R))
      Pass.assign(phase1Start(Prog, Node, Pass.AllRegs), Node.Sets);
    auto [First, Last] = fedRange(Prog, Psg, R);
    for (uint32_t I = First; I < Last; ++I)
      Pass.assign(Pass.initialLabel(),
                  Psg.Edges[Psg.CrEdgeOfEntry.Ids[I]].Label);
  }
}

/// After a dirty group converged one phase 1 pass, flags every caller
/// whose call-return label differs from the snapshot — its group (at a
/// strictly later schedule level) must iterate.  Rebuilt callers were
/// seeded dirty up front.
void flagCallersOnLabelDiff(const Program &Prog,
                            const ProgramSummaryGraph &Psg,
                            const PassLabel &Pass, const PhaseReuse &Reuse,
                            const std::vector<uint32_t> &Members) {
  for (uint32_t R : Members) {
    auto [First, Last] = fedRange(Prog, Psg, R);
    for (uint32_t I = First; I < Last; ++I) {
      const PsgEdge &Edge = Psg.Edges[Psg.CrEdgeOfEntry.Ids[I]];
      uint32_t Host = Psg.Nodes[Edge.Src].RoutineIndex;
      if (!(*Reuse.Rebuilt)[Host] &&
          !Pass.same(Reuse.Journal->fedLabel(I), Edge.Label))
        Reuse.Dirty->flag(Host);
    }
  }
}

/// At a clean group's phase 1 slot: its values stand, but the
/// call-return edges of rebuilt callers hold build-time labels, so
/// broadcast its entries into them as the previous solve did.
/// \p FeedsRebuilt marks the routines a rebuilt routine calls.
void rebroadcastToRebuilt(const Program &Prog, ProgramSummaryGraph &Psg,
                          const std::vector<RegSet> &SavedPerRoutine,
                          const PassLabel &Pass, const PhaseReuse &Reuse,
                          const std::vector<uint8_t> &FeedsRebuilt,
                          const std::vector<uint32_t> &Members) {
  for (uint32_t R : Members) {
    if (!FeedsRebuilt[R])
      continue;
    for (uint32_t EntryNode : Psg.entryNodes(Prog, R)) {
      FlowSets Label = Pass.convergedLabel(Psg.Nodes[EntryNode].Sets,
                                           SavedPerRoutine[R]);
      for (uint32_t EdgeId : Psg.CrEdgeOfEntry[EntryNode]) {
        PsgEdge &Edge = Psg.Edges[EdgeId];
        if ((*Reuse.Rebuilt)[Psg.Nodes[Edge.Src].RoutineIndex])
          Pass.assign(Label, Edge.Label);
      }
    }
  }
}

/// Before a group iterates phase 2: snapshots its members into
/// \p Journal when re-solving in place, then resets their nodes'
/// liveness to phase 2's starting values.
void resetGroupPhase2(const Program &Prog, ProgramSummaryGraph &Psg,
                      SolveJournal *Journal,
                      const std::vector<uint32_t> &Members) {
  for (uint32_t R : Members) {
    if (Journal)
      Journal->snapshot(Prog, Psg, R);
    for (PsgNode &Node : nodesOf(Psg, R))
      Node.Live = phase2Start(Prog, Node);
  }
}

/// After a dirty group converged phase 2, flags the routines whose exits
/// read a member return site whose liveness differs from the snapshot.
void flagCalleesOnLiveDiff(const Program &Prog,
                           const ProgramSummaryGraph &Psg,
                           const PhaseReuse &Reuse,
                           const std::vector<uint32_t> &Members) {
  for (uint32_t R : Members)
    for (uint32_t C = 0; C < Prog.Routines[R].CallBlocks.size(); ++C) {
      uint32_t Ret = Psg.returnNode(Prog, R, C);
      if (Psg.Nodes[Ret].Live == Reuse.Journal->live(Ret))
        continue;
      for (uint32_t ExitNode : Psg.ExitsOfReturn[Ret])
        Reuse.Dirty->flag(Psg.Nodes[ExitNode].RoutineIndex);
    }
}

/// Sums the per-group statistics and emits the phase's counters, its
/// dirty-frontier size when re-solving, and the driver's telemetry.
SolverStats finishPhase(const std::string &Prefix,
                        const std::vector<SolverStats> &GroupStats,
                        const SccDriver &Driver, const PhaseReuse *Reuse) {
  SolverStats Stats;
  for (const SolverStats &Group : GroupStats) {
    Stats.NodeEvaluations += Group.NodeEvaluations;
    Stats.EdgeVisits += Group.EdgeVisits;
  }
  if (telemetry::active()) {
    telemetry::count(Prefix + ".worklist_pops", Stats.NodeEvaluations);
    telemetry::count(Prefix + ".edge_visits", Stats.EdgeVisits);
    if (Reuse)
      telemetry::count(Prefix + ".dirty_routines", Reuse->Dirty->count());
    Driver.emit(Prefix);
  }
  return Stats;
}

/// Solves one component's half of Figure 8 (\p Pass) to its fixpoint.
/// All dependencies outside the component (callee entry summaries) have
/// already converged, so the iteration — and the final call-return
/// labels it broadcasts — is exactly the serial one.
void solveGroupPhase1(ProgramSummaryGraph &Psg,
                      const std::vector<RegSet> &SavedPerRoutine,
                      const PassLabel &Pass, GroupTask &T, PhaseScratch &P,
                      SolverStats &Stats) {
  LaneScratch &S = mapGroup(T, Psg, P);
  uint32_t NumLocal = uint32_t(S.NodeIds.size());
  uint64_t EdgeVisitsBefore = Stats.EdgeVisits;
  Worklist &List = S.List;
  // Reverse id order so that within a routine the first sweep tends to
  // run sink-to-source.
  for (uint32_t Local = NumLocal; Local-- > 0;)
    if (!isFixedPhase1(Psg.Nodes[S.NodeIds[Local]].Kind))
      List.push(Local);

  while (!List.empty()) {
    uint32_t NodeId = S.NodeIds[List.pop()];
    PsgNode &Node = Psg.Nodes[NodeId];
    countPop(T, P, Stats, NodeId, Node.RoutineIndex);

    FlowSets New = Node.Sets;
    Pass.evaluate(Psg, NodeId, New, Stats.EdgeVisits);
    if (New == Node.Sets)
      continue;
    if (T.Cost)
      T.Cost->ChangedBits.record(changedBits(Node.Sets, New));
    Node.Sets = New;
    for (uint32_t EdgeId : Psg.inEdgeIds(NodeId))
      requeuePred(Psg, P, S, EdgeId);

    if (Node.Kind != PsgNodeKind::Entry)
      continue;
    // Call sites outside the component belong to strictly later
    // condensation levels and read the converged label when their own
    // component solves; only in-group sites need requeueing.
    FlowSets Label = Pass.label(New, SavedPerRoutine[Node.RoutineIndex]);
    for (uint32_t EdgeId : Psg.CrEdgeOfEntry[NodeId]) {
      PsgEdge &Edge = Psg.Edges[EdgeId];
      assert(Psg.isCallReturn(Edge) && "registered edge is not call-return");
      if (Pass.assign(Label, Edge.Label) && P.inGroup(Edge.Src, S))
        List.push(P.LocalOf[Edge.Src]);
    }
  }

  finishPassProfile(S, P, T.Cost, Stats.EdgeVisits - EdgeVisitsBefore);
}

/// Solves one component's phase 2 liveness to its fixpoint.  \p AccumIn
/// is the indirect-call accumulator merged from all earlier condensation
/// levels; any growth this component contributes (its own indirect-call
/// return sites) is returned for the caller to merge at the level join.
/// The phase 2 schedule orders every indirect-calling routine before
/// every address-taken routine (or merges them into one component), so
/// the accumulator a component reads is always complete.
RegSet solveGroupPhase2(const Program &Prog, ProgramSummaryGraph &Psg,
                        const std::vector<RegSet> &ExitSeed,
                        const std::vector<bool> &IsAddressTakenExit,
                        const std::vector<bool> &IsIndirectReturn,
                        RegSet AccumIn, GroupTask &T, PhaseScratch &P,
                        SolverStats &Stats) {
  LaneScratch &S = mapGroup(T, Psg, P);
  uint32_t NumLocal = uint32_t(S.NodeIds.size());
  uint64_t EdgeVisitsBefore = Stats.EdgeVisits;

  // Exits of in-group address-taken routines: requeued whenever an
  // in-group indirect return grows the accumulator.
  std::vector<uint32_t> &GroupATExits = S.GroupATExits;
  GroupATExits.clear();
  for (uint32_t R : T.Members)
    if (Prog.Routines[R].AddressTaken)
      for (uint32_t ExitNode : Psg.exitNodes(Prog, R))
        GroupATExits.push_back(ExitNode);

  RegSet LocalAccum = AccumIn;
  Worklist &List = S.List;
  for (uint32_t Local = NumLocal; Local-- > 0;) {
    PsgNodeKind Kind = Psg.Nodes[S.NodeIds[Local]].Kind;
    if (Kind != PsgNodeKind::Unknown && Kind != PsgNodeKind::Halt)
      List.push(Local);
  }

  while (!List.empty()) {
    uint32_t NodeId = S.NodeIds[List.pop()];
    PsgNode &Node = Psg.Nodes[NodeId];
    countPop(T, P, Stats, NodeId, Node.RoutineIndex);

    RegSet NewLive;
    if (Node.Kind == PsgNodeKind::Exit) {
      // The feeding return nodes live in caller routines: in-group, or
      // in already-converged earlier levels.
      NewLive = ExitSeed[NodeId];
      for (uint32_t ReturnNode : Psg.ReturnsOfExit[NodeId])
        NewLive |= Psg.Nodes[ReturnNode].Live;
      if (IsAddressTakenExit[NodeId])
        NewLive |= LocalAccum;
    } else {
      // Figure 10: MAY-USE[N_X] = MAY-USE[E] ∪ (MAY-USE[N_Y] −
      // MUST-DEF[E]), unioned across out-edges.
      for (const PsgEdge &Edge : Psg.outEdges(NodeId)) {
        ++Stats.EdgeVisits;
        NewLive |= Edge.Label.MayUse |
                   (Psg.Nodes[Edge.Dst].Live - Edge.Label.MustDef);
      }
    }

    if (NewLive == Node.Live)
      continue;
    if (T.Cost)
      T.Cost->ChangedBits.record(changedBits(Node.Live, NewLive));
    Node.Live = NewLive;

    for (uint32_t EdgeId : Psg.inEdgeIds(NodeId))
      requeuePred(Psg, P, S, EdgeId);

    if (Node.Kind == PsgNodeKind::Return) {
      // Callee exits outside the component are in later levels and pull
      // this return's converged value when they seed.
      for (uint32_t ExitNode : Psg.ExitsOfReturn[NodeId])
        if (P.inGroup(ExitNode, S))
          List.push(P.LocalOf[ExitNode]);
      if (IsIndirectReturn[NodeId] && !LocalAccum.containsAll(Node.Live)) {
        LocalAccum |= Node.Live;
        for (uint32_t ExitNode : GroupATExits)
          List.push(P.LocalOf[ExitNode]);
      }
    }
  }

  finishPassProfile(S, P, T.Cost, Stats.EdgeVisits - EdgeVisitsBefore);
  return LocalAccum;
}

} // namespace

// Phase 1 runs in two worklist passes.  The subtraction in Figure 8's
// MAY-USE equation (MAY-USE[N_Y] − MUST-DEF[E]) makes MAY-USE *antitone*
// in the call-return MUST-DEF labels, which move as callee summaries
// converge; iterating everything together is a non-monotone chaotic
// iteration that can oscillate forever on mutually recursive call
// graphs.  Instead:
//
//   Pass A solves the MUST-DEF / MAY-DEF subsystem, which depends only
//   on itself.  MUST-DEF is a *must* problem: it starts at top and
//   shrinks to the greatest fixpoint (starting at bottom would
//   under-solve recursion — a self-recursive routine that defines v0 on
//   every terminating path must report v0 call-defined, which only the
//   greatest fixpoint captures).  MAY-DEF starts at bottom and grows.
//   Both components move monotonically in their own direction, so the
//   pass terminates; the call-return labels are frozen afterwards.
//
//   Pass B solves MAY-USE from bottom with those labels frozen; the
//   MAY-USE system is then monotone (labels' MAY-USE only grow), so it
//   converges to the least fixpoint — the meet-over-valid-paths value.
//
// Both passes are scheduled callee-first over the call graph's SCC
// condensation: a component only reads entry summaries its predecessors
// already converged, so solving components of one condensation level
// concurrently computes exactly the serial fixpoint and the serial
// per-component iteration counts.  Each group starts its pass by
// resetting its own half of the sets; indirect call-return edges feed
// from no entry and keep their fixed calling-standard labels.
SolverStats spike::runPhase1(const Program &Prog, ProgramSummaryGraph &Psg,
                             const std::vector<RegSet> &SavedPerRoutine,
                             ThreadPool *Pool, const ResourceGovernor *Gov,
                             const PhaseReuse *Reuse) {
  telemetry::Span PhaseSpan("psg.phase1");
  RegSet RaOnly;
  RaOnly.insert(Prog.Conv.RaReg);

  std::vector<uint8_t> FeedsRebuilt;
  if (Reuse) {
    FeedsRebuilt.assign(Prog.Routines.size(), 0);
    for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
      if (!(*Reuse->Rebuilt)[R])
        continue;
      const Routine &Rt = Prog.Routines[R];
      for (uint32_t Block : Rt.CallBlocks)
        if (Rt.Blocks[Block].Term == TerminatorKind::Call)
          FeedsRebuilt[uint32_t(Rt.Blocks[Block].CalleeRoutine)] = 1;
    }
  }

  const SccSchedule &Sched = Prog.CalleeFirst;
  PhaseScratch Scratch(Pool, Psg);
  std::vector<SolverStats> GroupStats(Sched.NumGroups);
  SccDriver Driver(Prog, Sched, Pool, Gov, Reuse ? Reuse->Dirty : nullptr);
  SolveJournal *Journal = Reuse ? Reuse->Journal : nullptr;

  // Pass A (MUST-DEF and MAY-DEF), then pass B (MAY-USE).
  for (bool MayUsePass : {false, true}) {
    PassLabel Pass{MayUsePass, RaOnly, RegSet::allBelow(NumIntRegs)};
    Driver.run(
        MayUsePass ? "psg.phase1.may-use" : "psg.phase1.must-def",
        [&](GroupTask &T) {
          resetGroupPhase1(Prog, Psg, Pass, Journal, T.Members);
          solveGroupPhase1(Psg, SavedPerRoutine, Pass, T, Scratch,
                           GroupStats[T.Group]);
          if (Reuse)
            flagCallersOnLabelDiff(Prog, Psg, Pass, *Reuse, T.Members);
        },
        [&](const std::vector<uint32_t> &Members) {
          // Every input this group would read matches the previous
          // solve: its values stand.
          rebroadcastToRebuilt(Prog, Psg, SavedPerRoutine, Pass, *Reuse,
                               FeedsRebuilt, Members);
        });
  }
  return finishPhase("psg.phase1", GroupStats, Driver, Reuse);
}

SolverStats spike::runPhase2(const Program &Prog, ProgramSummaryGraph &Psg,
                             ThreadPool *Pool, const ResourceGovernor *Gov,
                             const PhaseReuse *Reuse) {
  telemetry::Span PhaseSpan("psg.phase2");

  // Exit seeds: routines that can return to unknown code (the program
  // entry routine and address-taken routines) get the calling standard's
  // conservative live-at-exit assumption.
  std::vector<RegSet> ExitSeed(Psg.Nodes.size());
  std::vector<bool> IsAddressTakenExit(Psg.Nodes.size(), false);
  RegSet UnknownCallerLive = Prog.Conv.unknownCallerLiveAtExit();
  for (uint32_t ExitNode : Psg.AddressTakenExitNodes) {
    ExitSeed[ExitNode] = UnknownCallerLive;
    IsAddressTakenExit[ExitNode] = true;
  }
  if (Prog.EntryRoutine >= 0)
    for (uint32_t ExitNode : Psg.exitNodes(Prog, uint32_t(Prog.EntryRoutine)))
      ExitSeed[ExitNode] = UnknownCallerLive;

  // Routines reachable from quarantined (or unowned) code must assume
  // *everything* is live at their exits: garbage code need not respect
  // the calling standard, so even the unknown-caller convention is too
  // optimistic there.
  RegSet AllRegs = RegSet::allBelow(NumIntRegs);
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
    if (Prog.Routines[R].CalledFromQuarantine)
      for (uint32_t ExitNode : Psg.exitNodes(Prog, R))
        ExitSeed[ExitNode] |= AllRegs;

  std::vector<bool> IsIndirectReturn(Psg.Nodes.size(), false);
  for (uint32_t ReturnNode : Psg.IndirectReturnNodes)
    IsIndirectReturn[ReturnNode] = true;

  // Caller-first schedule: an exit's feeding return sites converge before
  // the exit's component runs (or share its component), and the hub
  // ordering does the same for the indirect-call accumulator.
  const SccSchedule &Sched = Prog.CallerFirst;

  if (Reuse) {
    // Escalation guard: close the seeded dirty frontier over the schedule
    // DAG.  Flags only ever propagate along caller -> callee group edges,
    // so the closure over-approximates every group that could become
    // dirty during the run.  If it reaches an address-taken or
    // indirect-calling routine, the order-dependent indirect-call
    // accumulator would be involved — re-solve everything instead.
    std::vector<uint8_t> InClosure(Sched.NumGroups, 0);
    std::vector<uint32_t> Work;
    for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
      if (Reuse->Dirty->dirty(R)) {
        uint32_t Group = Sched.GroupOfRoutine[R];
        if (!InClosure[Group]) {
          InClosure[Group] = 1;
          Work.push_back(Group);
        }
      }
    while (!Work.empty()) {
      uint32_t Group = Work.back();
      Work.pop_back();
      for (uint32_t Succ : Sched.GroupSucc[Group])
        if (!InClosure[Succ]) {
          InClosure[Succ] = 1;
          Work.push_back(Succ);
        }
    }
    bool Escalate = false;
    for (uint32_t Group = 0; Group < Sched.NumGroups && !Escalate; ++Group)
      if (InClosure[Group])
        for (uint32_t R : Sched.Members[Group])
          if (Prog.Routines[R].AddressTaken ||
              Prog.Calls.HasIndirectCalls[R]) {
            Escalate = true;
            break;
          }
    if (Escalate) {
      telemetry::count("psg.phase2.reuse_escalations");
      if (Reuse->EscalatedOut)
        *Reuse->EscalatedOut = true;
      for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
        Reuse->Dirty->flag(R);
    }
  }

  PhaseScratch Scratch(Pool, Psg);
  std::vector<SolverStats> GroupStats(Sched.NumGroups);
  SolveJournal *Journal = Reuse ? Reuse->Journal : nullptr;

  // Union of the live sets of all indirect-call return nodes; flows into
  // every address-taken routine's exits.  Components read a level-start
  // snapshot and return their contribution; contributions merge at the
  // level join (union is commutative, so the merged value — and every
  // later component's snapshot — is deterministic).
  RegSet IndirectAccum;
  std::vector<RegSet> GroupAccum(Sched.NumGroups);

  SccDriver Driver(Prog, Sched, Pool, Gov, Reuse ? Reuse->Dirty : nullptr);
  Driver.run(
      "psg.phase2",
      [&](GroupTask &T) {
        resetGroupPhase2(Prog, Psg, Journal, T.Members);
        GroupAccum[T.Group] = solveGroupPhase2(
            Prog, Psg, ExitSeed, IsAddressTakenExit, IsIndirectReturn,
            IndirectAccum, T, Scratch, GroupStats[T.Group]);
        if (Reuse)
          flagCalleesOnLiveDiff(Prog, Psg, *Reuse, T.Members);
      },
      // The guard above proved no clean group touches the accumulator as
      // a producer-to-dirty-consumer, so a clean group's values stand and
      // its GroupAccum contribution stays empty.
      SccDriver::NoHook(),
      [&](const std::vector<uint32_t> &Level) {
        for (uint32_t Group : Level)
          IndirectAccum |= GroupAccum[Group];
      });
  return finishPhase("psg.phase2", GroupStats, Driver, Reuse);
}

SolveJournal::SolveJournal(const Program &Prog,
                           const ProgramSummaryGraph &Psg)
    : Sets(std::make_unique_for_overwrite<Masks[]>(Psg.Nodes.size())),
      Live(std::make_unique_for_overwrite<uint64_t[]>(Psg.Nodes.size())),
      Fed(std::make_unique_for_overwrite<Masks[]>(
          Psg.CrEdgeOfEntry.Ids.size())),
      Taken(Prog.Routines.size(), 0) {}

void SolveJournal::snapshot(const Program &Prog,
                            const ProgramSummaryGraph &Psg, uint32_t R) {
  if (Taken[R])
    return;
  Taken[R] = 1;
  for (uint32_t N = Psg.RoutineNodeBegin[R]; N < Psg.RoutineNodeBegin[R + 1];
       ++N) {
    Sets[N] = Masks::of(Psg.Nodes[N].Sets);
    Live[N] = Psg.Nodes[N].Live.mask();
  }
  auto [First, Last] = fedRange(Prog, Psg, R);
  for (uint32_t I = First; I < Last; ++I)
    Fed[I] = Masks::of(Psg.Edges[Psg.CrEdgeOfEntry.Ids[I]].Label);
}

void SolveJournal::rollback(const Program &Prog,
                            ProgramSummaryGraph &Psg) const {
  for (uint32_t R = 0; R < Taken.size(); ++R) {
    if (!Taken[R])
      continue;
    for (uint32_t N = Psg.RoutineNodeBegin[R]; N < Psg.RoutineNodeBegin[R + 1];
         ++N) {
      Psg.Nodes[N].Sets = Sets[N].sets();
      Psg.Nodes[N].Live = RegSet::fromMask(Live[N]);
    }
    auto [First, Last] = fedRange(Prog, Psg, R);
    for (uint32_t I = First; I < Last; ++I)
      Psg.Edges[Psg.CrEdgeOfEntry.Ids[I]].Label = Fed[I].sets();
  }
}
