//===- interproc/Incremental.h - Incremental re-analysis ------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental interprocedural re-analysis after a routine patch, in
/// place.
///
/// A resident service (spike-serve) holds an image and its converged
/// AnalysisResult and receives new words for one routine.  Every
/// flow-summary edge comes from anchor-free paths inside one routine
/// (Section 3.1), so a patch changes that routine's CFG and PSG segment
/// and, through entrances and quarantine, rarely a few more.
/// reanalyzeIncremental writes the words into the image and rebuilds
/// only what they reach: validation and quarantine of the patched
/// routine, then the CFG lists, DEF/UBD, save set and PSG nodes and
/// edges of every routine whose CFG inputs moved — the patched routine,
/// routines whose entrances, call targets or quarantine it changes, and
/// every routine when the opaque-quarantine flag flips.  It builds them
/// with the fresh build's own builders (buildCfgLists, buildPsgLists)
/// and splices them over their old lists with later ids shifted, as a
/// fresh build splices every routine into an empty program and graph.
/// The call graph and schedules are rebuilt only when calls or
/// quarantine changed, the linkage CSRs only when an id they hold
/// moved.  Both
/// phases then re-solve in place (PhaseReuse, psg/PsgSolver.h): SCC
/// groups outside the dirty frontier keep their values, groups on it
/// iterate exactly as a fresh solve would and extend the frontier to
/// dependents whose inputs actually changed (phase 1 toward callers,
/// phase 2 toward callees).  This is the only incremental engine:
/// derived state such as stack-slot facts (slice/SlotFlow.h) is the
/// caller's to drop and re-derive from the new result.
///
/// The contract — enforced by the differential oracle tests — is strict
/// identity: afterwards the program (every array, the call graph, both
/// schedules, the validation report), the PSG (nodes, edges, in-edge ids,
/// linkage CSRs, values and labels), the summaries and the tracked
/// memory equal a fresh analyzeImage of the patched image at every job
/// count, and so does every witness searched from them.  A patch keeps
/// the routine partition by construction, so there is no full-solve
/// fallback; a `load` of another image analyzes it fresh.
///
/// Every change is journaled — the routine's old words, the CFG and PSG
/// lists the splices swapped out, the structures rebuilt, and the node
/// values and labels each dirty group overwrites — so a re-analysis that
/// throws (a blown budget, governed runs) leaves the image and the
/// result exactly as they were before the call.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_INTERPROC_INCREMENTAL_H
#define SPIKE_INTERPROC_INCREMENTAL_H

#include "psg/Analyzer.h"

#include <span>

namespace spike {

class ThreadPool;

/// What one incremental re-analysis did — the dirty-frontier accounting
/// a serving layer reports per patch (`stats` command, serve.* run-report
/// counters).
struct IncrementalOutcome {
  /// The patch was installed by a fresh whole-program solve: set by a
  /// server whose in-place re-solve blew its budget and whose degraded
  /// retry then analyzed the patched image from scratch.
  bool Full = false;

  /// Phase 2's dirty closure reached an address-taken or
  /// indirect-calling routine, so phase 2 re-solved every routine
  /// (phase 1 reuse still applied).
  bool Phase2Escalated = false;

  /// Routines whose CFG and PSG segment the patch rebuilt.
  uint64_t StructDirty = 0;

  /// Routines re-solved (not kept) by each register phase.
  uint64_t Phase1Dirty = 0;
  uint64_t Phase2Dirty = 0;

  /// Always 0: a patch does not touch slot facts.  The fields stay only
  /// because perfbench still sums them; they go with its next change.
  uint64_t SlotPhase1Dirty = 0;
  uint64_t SlotPhase2Dirty = 0;
};

/// Patches routine \p Routine of \p Img with \p Words, as many as the
/// routine has, and re-analyzes in place, on \p Pool, the resident result
/// \p A of \p Img (A.Prog views Img's words): afterwards Img holds the
/// new words and A equals a fresh analyzeImage of it under \p Opts.  When
/// the words equal the routine's and the quarantine options move nothing,
/// the call returns at once (the no-change save a client sends when
/// re-publishing an unmodified routine).  On a BudgetBlownError (governed
/// runs) or any other exception, \p Img and \p A are rolled back to their
/// state before the call, and the error propagates: the caller keeps
/// serving the old version and may retry degraded.
IncrementalOutcome reanalyzeIncremental(Image &Img, uint32_t Routine,
                                        std::span<const uint64_t> Words,
                                        const AnalysisOptions &Opts,
                                        AnalysisResult &A, ThreadPool &Pool);

} // namespace spike

#endif // SPIKE_INTERPROC_INCREMENTAL_H
