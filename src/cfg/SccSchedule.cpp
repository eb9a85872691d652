//===- cfg/SccSchedule.cpp - SCC-condensation task schedules --------------===//

#include "cfg/SccSchedule.h"

#include "cfg/Program.h"

#include <algorithm>

using namespace spike;

namespace {

/// A dependency graph: node U's successors are Deps[U].  Two arrays
/// whatever the node count, where a list per node would cost an
/// allocation per node.
using DepGraph = CsrLists;

SccSchedule scheduleOf(const DepGraph &Deps) {
  size_t NumNodes = Deps.size();
  SccSchedule Sched;
  if (NumNodes == 0)
    return Sched;

  // Components complete in reverse topological order: an edge U -> V
  // (U before V) means V's component finishes first and gets the smaller
  // id, so iterating group ids in *descending* order walks dependencies
  // before dependents.
  Sched.NumGroups = sccComponents(Deps, Sched.GroupOfRoutine);

  // Every per-group and per-level list is allocated once, at its final
  // size.
  std::vector<uint32_t> Sizes(Sched.NumGroups, 0);
  for (uint32_t Group : Sched.GroupOfRoutine)
    ++Sizes[Group];
  Sched.Members.resize(Sched.NumGroups);
  for (uint32_t Group = 0; Group < Sched.NumGroups; ++Group)
    Sched.Members[Group].reserve(Sizes[Group]);
  for (uint32_t Node = 0; Node < NumNodes; ++Node)
    Sched.Members[Sched.GroupOfRoutine[Node]].push_back(Node);

  // Levels: longest dependency distance.  Descending group-id order
  // visits every predecessor group before its successors, so one sweep
  // over the cross-group edges suffices; the same sweep collects the
  // condensation DAG's successor adjacency, deduplicated by stamping
  // each successor group with the group that last listed it.
  std::vector<uint32_t> LevelOfGroup(Sched.NumGroups, 0);
  std::vector<uint32_t> ListedBy(Sched.NumGroups, ~uint32_t(0));
  std::vector<uint32_t> Succs;
  Sched.GroupSucc.resize(Sched.NumGroups);
  uint32_t MaxLevel = 0;
  for (uint32_t Group = Sched.NumGroups; Group-- > 0;) {
    Succs.clear();
    for (uint32_t Node : Sched.Members[Group])
      for (uint32_t Succ : Deps[Node]) {
        uint32_t SuccGroup = Sched.GroupOfRoutine[Succ];
        if (SuccGroup == Group)
          continue;
        LevelOfGroup[SuccGroup] =
            std::max(LevelOfGroup[SuccGroup], LevelOfGroup[Group] + 1);
        if (ListedBy[SuccGroup] != Group) {
          ListedBy[SuccGroup] = Group;
          Succs.push_back(SuccGroup);
        }
      }
    std::sort(Succs.begin(), Succs.end());
    Sched.GroupSucc[Group].assign(Succs.begin(), Succs.end());
    MaxLevel = std::max(MaxLevel, LevelOfGroup[Group]);
  }
  Sizes.assign(size_t(MaxLevel) + 1, 0);
  for (uint32_t Level : LevelOfGroup)
    ++Sizes[Level];
  Sched.Levels.resize(Sizes.size());
  for (size_t Level = 0; Level < Sizes.size(); ++Level)
    Sched.Levels[Level].reserve(Sizes[Level]);
  for (uint32_t Group = 0; Group < Sched.NumGroups; ++Group)
    Sched.Levels[LevelOfGroup[Group]].push_back(Group);

  return Sched;
}

} // namespace

SccSchedule
spike::buildSccSchedule(size_t NumNodes,
                        const std::vector<std::vector<uint32_t>> &Deps) {
  DepGraph Graph;
  for (size_t Node = 0; Node < NumNodes; ++Node) {
    Graph.Ids.insert(Graph.Ids.end(), Deps[Node].begin(), Deps[Node].end());
    Graph.endList();
  }
  return scheduleOf(Graph);
}

SccSchedule spike::buildCalleeFirstSchedule(const Program &Prog,
                                            const CallGraph &Graph) {
  // Dependency edge callee -> caller: a caller's call-return labels read
  // its callees' converged entry summaries.
  size_t Count = Prog.Routines.size();
  DepGraph Deps;
  Deps.Begin.reserve(Count + 1);
  for (uint32_t Callee = 0; Callee < Count; ++Callee) {
    for (uint32_t Caller : Graph.Callers[Callee])
      if (Caller != Callee)
        Deps.Ids.push_back(Caller);
    Deps.endList();
  }
  return scheduleOf(Deps);
}

SccSchedule spike::buildCallerFirstSchedule(const Program &Prog,
                                            const CallGraph &Graph) {
  // Dependency edge caller -> callee: a callee's exit liveness reads its
  // callers' converged return-site liveness.  The indirect coupling is
  // compressed through one synthetic hub node (indirect caller -> hub ->
  // every address-taken routine) instead of a quadratic edge set; a
  // cycle through the hub merges exactly the routines that genuinely
  // feed back into each other.
  size_t Count = Prog.Routines.size();
  bool AnyIndirect = false, AnyTaken = false;
  for (uint32_t R = 0; R < Count; ++R) {
    AnyIndirect |= bool(Graph.HasIndirectCalls[R]);
    AnyTaken |= Prog.Routines[R].AddressTaken;
  }
  bool UseHub = AnyIndirect && AnyTaken;
  uint32_t Hub = uint32_t(Count);

  DepGraph Deps;
  Deps.Begin.reserve(Count + 2);
  for (uint32_t Caller = 0; Caller < Count; ++Caller) {
    for (uint32_t Callee : Graph.Callees[Caller])
      if (Callee != Caller)
        Deps.Ids.push_back(Callee);
    if (UseHub && Graph.HasIndirectCalls[Caller])
      Deps.Ids.push_back(Hub);
    Deps.endList();
  }
  if (UseHub) {
    for (uint32_t R = 0; R < Count; ++R)
      if (Prog.Routines[R].AddressTaken)
        Deps.Ids.push_back(R);
    Deps.endList();
  }

  SccSchedule Sched = scheduleOf(Deps);
  if (UseHub) {
    // Drop the hub from its group's member list (its group stays in the
    // level structure; an empty group simply schedules nothing).
    std::vector<uint32_t> &HubMembers =
        Sched.Members[Sched.GroupOfRoutine[Hub]];
    HubMembers.erase(std::remove(HubMembers.begin(), HubMembers.end(), Hub),
                     HubMembers.end());
    Sched.GroupOfRoutine.resize(Count);
  }
  return Sched;
}
