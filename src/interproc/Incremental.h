//===- interproc/Incremental.h - Incremental re-analysis ------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental interprocedural re-analysis after a routine patch.
///
/// A resident service (spike-serve) holds a converged AnalysisResult and
/// receives a new image version that differs from the analyzed one in a
/// few routines' code.  Re-solving from scratch repeats work for every
/// routine the patch cannot have affected; reanalyzeIncremental instead
/// rebuilds the cheap structures (CFG, PSG — both already parallel and a
/// small fraction of total time), diffs the routine records to find the
/// *structurally dirty* set, and re-runs the two PSG phases with the
/// solver's PhaseReuse protocol (psg/PsgSolver.h): SCC groups outside the
/// dirty frontier restore their cached converged sets and labels; groups
/// on the frontier iterate exactly as a fresh solve would and extend the
/// frontier to dependents whose inputs actually changed (phase 1 toward
/// callers, phase 2 toward callees).  This is the only incremental
/// engine: derived state such as stack-slot facts (slice/SlotFlow.h) is
/// the caller's to drop and re-derive from the new result.
///
/// The contract — enforced by the differential oracle tests — is strict
/// bit-identity: the resulting summaries, PSG sets and labels equal a
/// from-scratch solve of the new image at every job count, and so does
/// every witness searched from them.  When the identity cannot be
/// guaranteed cheaply (routine partition changed, phase 2's dirty
/// closure reaches the indirect-call accumulator), the engine falls back
/// to a full solve and says so in the outcome instead of risking a stale
/// fact.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_INTERPROC_INCREMENTAL_H
#define SPIKE_INTERPROC_INCREMENTAL_H

#include "psg/Analyzer.h"

namespace spike {

/// What one incremental re-analysis did — the dirty-frontier accounting
/// a serving layer reports per patch (`stats` command, serve.* run-report
/// counters).
struct IncrementalOutcome {
  /// The engine fell back to a full from-scratch solve (the routine
  /// partition changed).  The result is still correct.
  bool Full = false;

  /// Phase 2's dirty closure reached an address-taken or
  /// indirect-calling routine, so phase 2 re-solved every routine
  /// (phase 1 reuse still applied).
  bool Phase2Escalated = false;

  /// Routines whose code / CFG record / annotation slices changed.
  uint64_t StructDirty = 0;

  /// Routines re-solved (not restored) by each register phase.
  uint64_t Phase1Dirty = 0;
  uint64_t Phase2Dirty = 0;

  /// Always 0: a patch does not touch slot facts.  The fields stay only
  /// because perfbench still sums them; they go with its next change.
  uint64_t SlotPhase1Dirty = 0;
  uint64_t SlotPhase2Dirty = 0;
};

/// Re-analyzes \p NewImg against the resident converged result \p A of a
/// previous image version, replacing \p A with a result bit-identical to
/// a fresh analyzeImage of \p NewImg under the same options.  The old
/// image \p A borrows must still be alive: the diff reads both versions'
/// words.  A replaced \p A borrows \p NewImg; an all-clean patch leaves
/// \p A (and its borrow of the old image) as it was, so a caller that
/// then retires the old image re-points A.Prog.Code at \p NewImg.  On a
/// BudgetBlownError (governed runs) \p A is untouched — the caller keeps
/// serving the old version and may retry degraded.
IncrementalOutcome reanalyzeIncremental(const Image &NewImg,
                                        const CallingConv &Conv,
                                        const AnalysisOptions &Opts,
                                        AnalysisResult &A);
IncrementalOutcome reanalyzeIncremental(const Image &&NewImg,
                                        const CallingConv &Conv,
                                        const AnalysisOptions &Opts,
                                        AnalysisResult &A) = delete;

} // namespace spike

#endif // SPIKE_INTERPROC_INCREMENTAL_H
