//===- psg/PsgSolver.h - The two PSG dataflow phases ----------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two interprocedural dataflow phases run over the PSG.
///
/// Phase 1 (Section 3.2, Figure 8) propagates MAY-USE/MAY-DEF/MUST-DEF
/// backward over PSG edges and copies converged entry-node sets onto the
/// call-return edges of the entry's call sites, yielding each routine's
/// call-used / call-killed / call-defined summary.  The Section 3.4
/// callee-saved filter is applied when copying: registers a callee saves
/// and restores are removed so they never appear used/killed/defined to
/// callers.
///
/// Phase 2 (Section 3.3, Figure 10) re-propagates MAY-USE with exit nodes
/// seeded from the return points of the routine's callers, yielding
/// live-at-entry and live-at-exit.  Using the phase 1 call-return labels
/// restricts propagation to valid paths (the meet-over-all-valid-paths
/// solution discussed in Section 5).
///
/// Both phases are scheduled over the Tarjan SCC condensation of the call
/// graph by the shared driver (cfg/SccDriver.h): each strongly connected
/// component is solved with the serial worklist, components with no
/// dependency between them run concurrently on the optional ThreadPool,
/// and condensation levels are separated by joins.  Because every PSG
/// edge is intra-routine, a component's worklist is self-contained and
/// its iteration sequence — and therefore SolverStats — is identical for
/// every job count, including the pool-less serial path.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PSG_PSGSOLVER_H
#define SPIKE_PSG_PSGSOLVER_H

#include "psg/PsgGraph.h"
#include "support/RegSet.h"

#include <cstdint>
#include <vector>

namespace spike {

class DirtyFrontier;
class ResourceGovernor;
class ThreadPool;

/// Solver statistics (used by tests, the ablation bench, and the
/// telemetry counters).  Aggregated over components in component-id
/// order, so the totals are deterministic across thread counts.
struct SolverStats {
  /// Worklist pops: each pop evaluates one node's dataflow equation.
  uint64_t NodeEvaluations = 0;

  /// Out-edges visited across all evaluations; each visit is a constant
  /// number of RegSet operations, so this tracks the solver's set-op
  /// cost.
  uint64_t EdgeVisits = 0;
};

/// Converged state of a previous solve of a *previous version* of the
/// same program, enabling incremental re-analysis after a routine patch
/// (interproc/Incremental.h drives this).
///
/// The contract: the old and new programs have the same routine
/// partition (count, names, boundaries).  StructClean[r] is 1 when
/// routine r's code, CFG record, and annotation slices are identical in
/// both versions, so its per-routine PSG layout — node and edge id
/// ranges — is identical up to a constant offset.  Dirty is the
/// monotone per-routine frontier (cfg/SccDriver.h) the caller seeds and
/// the solver grows:
///
///   - Phase 1 expects Dirty seeded with the struct-dirty routines.
///   - Phase 2 expects Dirty seeded with phase 1's final flags plus the
///     struct-dirty routines and every routine called by a struct-dirty
///     routine in *either* version (a dropped call still shrinks the old
///     callee's exit liveness).
///
/// At its scheduled slot (the SccDriver's restore-or-solve step), an SCC
/// group with no dirty member restores the cached converged values
/// instead of iterating; a dirty group iterates from the standard
/// initial values — exactly what a fresh solve would do, because every
/// input it reads has converged to the fresh solve's value — and then
/// compares its outward-facing results (phase 1: call-return labels,
/// phase 2: return-site liveness) against the cache, flagging dependent
/// routines on any difference.  Phase 2 additionally escalates to a full
/// re-solve when the dirty closure over the schedule DAG reaches any
/// address-taken or indirect-calling routine, side-stepping the
/// order-dependent indirect-call accumulator.  The result — values and
/// labels — is bit-identical to a fresh solve of the new program; only
/// SolverStats (work actually done) shrinks.
struct PhaseReuse {
  const Program *OldProg = nullptr;
  const ProgramSummaryGraph *OldPsg = nullptr;
  const std::vector<uint8_t> *StructClean = nullptr; ///< Per routine.
  DirtyFrontier *Dirty = nullptr;

  /// Out-flag (optional): phase 2 sets it when the dirty closure forced a
  /// full re-solve.
  bool *EscalatedOut = nullptr;
};

/// Runs phase 1 to convergence.  \p SavedPerRoutine holds, per routine,
/// the callee-saved registers it saves and restores (Section 3.4).  When
/// \p Pool is non-null, call-graph components without mutual dependencies
/// solve concurrently on it; the results and statistics are identical
/// either way.  When \p Gov is non-null (and enabled), every SCC group's
/// worklist polls it per pop; a non-Ok verdict throws BudgetBlownError
/// naming the group's routines (unwound deterministically through the
/// pool: the lowest-index group of the level wins).
/// When \p Reuse is non-null, clean SCC groups restore cached state
/// instead of iterating (see PhaseReuse).
SolverStats runPhase1(const Program &Prog, ProgramSummaryGraph &Psg,
                      const std::vector<RegSet> &SavedPerRoutine,
                      ThreadPool *Pool = nullptr,
                      const ResourceGovernor *Gov = nullptr,
                      const PhaseReuse *Reuse = nullptr);

/// Runs phase 2 to convergence.  Phase 1 must have run first (the
/// call-return edge labels it produced are inputs here).  \p Pool,
/// \p Gov, and \p Reuse as in runPhase1.
SolverStats runPhase2(const Program &Prog, ProgramSummaryGraph &Psg,
                      ThreadPool *Pool = nullptr,
                      const ResourceGovernor *Gov = nullptr,
                      const PhaseReuse *Reuse = nullptr);

/// Returns the callee-saved-filtered copy of \p Sets for a routine whose
/// saved-and-restored register set is \p Saved (the Section 3.4 filter).
FlowSets filterCalleeSaved(const FlowSets &Sets, RegSet Saved);

} // namespace spike

#endif // SPIKE_PSG_PSGSOLVER_H
