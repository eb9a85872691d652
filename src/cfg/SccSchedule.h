//===- cfg/SccSchedule.h - SCC-condensation task schedules ----*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Task schedules for the parallel interprocedural solvers.
///
/// Both dataflow phases iterate to a fixpoint whose cross-routine
/// dependencies follow the call graph: phase 1 summaries flow from
/// callees to callers, phase 2 liveness flows from callers to callees
/// (plus the indirect-call coupling of Section 3.5, where every
/// indirect-call return site feeds the exits of every address-taken
/// routine).  Condensing the dependency graph into strongly connected
/// components yields a DAG; solving each component with the serial
/// worklist, components of the same condensation level concurrently and
/// levels in order, computes exactly the serial fixpoint: a component
/// only ever reads values its predecessors have already converged, so
/// neither the results nor the per-component iteration counts depend on
/// the number of threads.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_CFG_SCCSCHEDULE_H
#define SPIKE_CFG_SCCSCHEDULE_H

#include "cfg/CallGraph.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spike {

struct Program;

/// A dependency-respecting execution schedule over routine groups.
struct SccSchedule {
  /// Number of groups (strongly connected components of the dependency
  /// graph, possibly merged further by coupling edges).
  uint32_t NumGroups = 0;

  /// Group id per routine.
  std::vector<uint32_t> GroupOfRoutine;

  /// Member routines per group, ascending.  A group with no members (the
  /// synthetic coupling hub) schedules nothing.
  std::vector<std::vector<uint32_t>> Members;

  /// Group ids per condensation level, ascending within a level.  Groups
  /// in the same level have no dependencies between them and may solve
  /// concurrently; a group only depends on groups in strictly earlier
  /// levels.
  std::vector<std::vector<uint32_t>> Levels;

  /// Cross-group successor adjacency of the condensation DAG: GroupSucc[G]
  /// lists the groups that depend on G (deduplicated, ascending).  The
  /// incremental re-analysis engine walks this to close a dirty frontier
  /// over transitive dependents.
  std::vector<std::vector<uint32_t>> GroupSucc;
};

/// Builds the schedule for a dependency graph over \p NumNodes nodes:
/// Deps[U] lists the nodes V that must not be scheduled before U (an
/// edge U -> V).  Cycles collapse into one group.
SccSchedule buildSccSchedule(size_t NumNodes,
                             const std::vector<std::vector<uint32_t>> &Deps);

/// Phase 1 schedule: callees before callers (summaries flow upward).
SccSchedule buildCalleeFirstSchedule(const Program &Prog,
                                     const CallGraph &Graph);

/// Phase 2 schedule: callers before callees (liveness flows downward),
/// with every indirect-calling routine additionally ordered before every
/// address-taken routine — the return-site liveness of indirect calls
/// accumulates into the exits of all address-taken routines, and any
/// resulting feedback (an address-taken routine reaching an indirect
/// call) collapses into one group.
SccSchedule buildCallerFirstSchedule(const Program &Prog,
                                     const CallGraph &Graph);

} // namespace spike

#endif // SPIKE_CFG_SCCSCHEDULE_H
