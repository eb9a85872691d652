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
#include <memory>
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

/// The values an in-place re-solve overwrites, per routine, taken the
/// first time one of the routine's groups resets: its nodes' phase 1 and
/// phase 2 values and the call-return labels its entries feed.  Dirty
/// groups flag dependents against it, and rollback() puts every value
/// back when the re-solve is abandoned.  The task solving a routine's
/// group is the only writer of the routine's slots, so groups of one
/// level snapshot concurrently.  The graph's layout must not change
/// while the journal lives.
class SolveJournal {
public:
  SolveJournal(const Program &Prog, const ProgramSummaryGraph &Psg);

  /// Snapshots routine \p R unless an earlier reset already did.
  void snapshot(const Program &Prog, const ProgramSummaryGraph &Psg,
                uint32_t R);

  /// The snapshot liveness of node \p NodeId, and the snapshot label of
  /// the call-return edge at position \p Position of CrEdgeOfEntry.Ids;
  /// the owning routine must have been snapshotted.
  RegSet live(uint32_t NodeId) const { return RegSet::fromMask(Live[NodeId]); }
  FlowSets fedLabel(uint32_t Position) const { return Fed[Position].sets(); }

  /// Writes every snapshot back into \p Psg.
  void rollback(const Program &Prog, ProgramSummaryGraph &Psg) const;

private:
  /// Raw masks, so the buffers can start uninitialized: the pages of
  /// routines nobody snapshots are never touched.
  struct Masks {
    uint64_t MayUse, MayDef, MustDef;
    static Masks of(const FlowSets &S) {
      return {S.MayUse.mask(), S.MayDef.mask(), S.MustDef.mask()};
    }
    FlowSets sets() const {
      return {RegSet::fromMask(MayUse), RegSet::fromMask(MayDef),
              RegSet::fromMask(MustDef)};
    }
  };
  std::unique_ptr<Masks[]> Sets;    ///< Per node.
  std::unique_ptr<uint64_t[]> Live; ///< Per node.
  std::unique_ptr<Masks[]> Fed;     ///< Per CrEdgeOfEntry.Ids position.
  std::vector<uint8_t> Taken;       ///< Per routine.
};

/// What the phases need to re-solve a graph in place after a routine
/// patch (interproc/Incremental.h drives this).  The graph holds the
/// converged values of the previous program version, except in the
/// routines the patch rebuilt, whose nodes and call-return edges hold
/// build-time values.  Dirty is the monotone per-routine frontier
/// (cfg/SccDriver.h) the caller seeds and the solver grows:
///
///   - Phase 1 expects Dirty seeded with the rebuilt routines.
///   - Phase 2 expects Dirty seeded with phase 1's final flags plus every
///     routine called by a rebuilt routine in *either* version (a
///     dropped call still shrinks the old callee's exit liveness).
///     reanalyzeIncremental is the only place that seeds these callees.
///
/// Every SCC group a phase solves, fresh or in place, first resets its
/// members and the call-return labels its entries feed to the phase's
/// starting values, so a fresh solve is this re-solve with every group
/// dirty.  At its scheduled slot (the SccDriver's keep-or-solve step), an
/// SCC group with no dirty member keeps its values; in phase 1 it also
/// re-broadcasts its entries' labels into the call-return edges of
/// rebuilt callers.  A dirty group snapshots what it overwrites into the
/// journal before its reset, iterates exactly as a fresh solve would —
/// every input it reads has converged to the fresh solve's value — then
/// compares its outward-facing results (phase 1: call-return labels,
/// phase 2: return-site liveness) against the snapshot, flagging
/// dependents on any difference.  Phase 2 additionally escalates to a
/// full re-solve when the dirty closure over the schedule DAG reaches any
/// address-taken or indirect-calling routine, side-stepping the
/// order-dependent indirect-call accumulator.  The result — values and
/// labels — is bit-identical to a fresh solve of the new program; only
/// SolverStats (work actually done) shrinks.
struct PhaseReuse {
  const std::vector<uint8_t> *Rebuilt = nullptr; ///< Per routine.
  DirtyFrontier *Dirty = nullptr;
  SolveJournal *Journal = nullptr;

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
/// When \p Reuse is non-null, the phase re-solves \p Psg in place: clean
/// SCC groups keep their values instead of iterating (see PhaseReuse).
/// Without it every group resets what it solves first, so running the
/// phase again on a solved graph reproduces its values and SolverStats.
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
