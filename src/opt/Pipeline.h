//===- opt/Pipeline.h - Analyze-optimize driver ---------------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the full Spike-style optimize loop on an image: interprocedural
/// analysis, then the three summary-consuming optimizations of Figure 1,
/// repeated until a fixpoint (deleting one routine's dead code can make
/// summaries of its callers/callees sharper).
///
/// The loop can audit itself (PipelineOptions): before the first round it
/// lints the image, and after every round it lints again and records any
/// finding the round introduced — a transformation that creates a new
/// warning or error in a routine is a transformation that broke something.
/// It can also cross-check each round's PSG summaries against the CFG
/// two-phase reference.  Both checks cost extra analysis passes and are
/// off by default.
///
/// Rounds are transactional: the driver snapshots the image before each
/// round, and if the round's output introduces a strict validation
/// finding the input did not have, or no longer survives a serialize /
/// re-parse round trip, the whole round is rolled back and the loop
/// stops.  A rolled-back round is recorded in PipelineStats (the stats it
/// accumulated are discarded with it), so a transformation bug degrades
/// into a refused optimization, never a corrupted output image.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_OPT_PIPELINE_H
#define SPIKE_OPT_PIPELINE_H

#include "binary/Image.h"
#include "isa/CallingConv.h"
#include "opt/DeadDefElim.h"
#include "opt/DeadStoreElim.h"
#include "opt/SaveRestoreElim.h"
#include "opt/SpillRemoval.h"
#include "opt/UnreachableElim.h"
#include "support/Budget.h"
#include "telemetry/Telemetry.h"

#include <functional>
#include <string>
#include <vector>

namespace spike {

/// Knobs for one optimizeImage run.
struct PipelineOptions {
  /// Maximum analyze-transform rounds; the loop stops early once a round
  /// changes nothing.
  unsigned MaxRounds = 3;

  /// Lint the image before the first round and after every round, and
  /// count findings (Warning or stronger, keyed by rule + routine) that a
  /// round introduced.  Their renderings land in PipelineStats::LintReports.
  bool LintSelfCheck = false;

  /// After each round, cross-check the round's PSG summaries against the
  /// CFG two-phase reference; mismatches are counted and reported.  Slow —
  /// meant for tests and fixtures, not production-size images.
  bool CrossCheck = false;

  /// Fault-injection seam: if set, runs on the round's output image after
  /// the passes and before the transactional commit check (which then
  /// always runs).  Tests and the fuzzer use it to prove that a round
  /// producing a corrupt image rolls back instead of escaping.
  std::function<void(Image &, unsigned Round)> PostRoundMutator;

  /// Worker lanes for every analysis the pipeline runs (the --jobs
  /// flag).  The optimized image, stats, and telemetry counters are
  /// identical for every value.
  unsigned Jobs = 1;

  /// Tag every transformation — and every rejected candidate — with the
  /// summary facts that justified the decision.  Records land in
  /// PipelineStats::Transforms and, when a telemetry session is active,
  /// in the run report's "transforms" array (queryable via
  /// `spike-explain --why-transformed`).  Off by default; the
  /// transformations themselves are identical either way.
  bool AttributeTransforms = false;

  /// Resource budget for every analysis the pipeline runs, polled by the
  /// solvers at worklist-pop granularity and by the driver between
  /// passes.  All-zero = ungoverned.  A budget blow mid-round rolls the
  /// round back and retries it with the blown SCC group's routines
  /// degraded to Section 3.5 unknowable summaries; when even a fully
  /// degraded analysis cannot fit, the loop stops and the last committed
  /// (valid) image is returned with StoppedOnBudget set.  Only
  /// cancellation escapes, as a BudgetBlownError exception.
  BudgetOptions Budget;

  /// Cooperative cancellation observed by every governor poll.
  CancellationToken *Cancel = nullptr;
};

/// Cumulative statistics over all pipeline rounds.
struct PipelineStats {
  uint64_t UnreachableRoutinesRemoved = 0;
  uint64_t UnreachableInstsRemoved = 0;
  uint64_t DeadDefsDeleted = 0;
  uint64_t DeadStoresDeleted = 0;
  uint64_t SpillPairsRemoved = 0;
  uint64_t SaveRestoreRegsEliminated = 0;
  uint64_t SaveRestoreInstsDeleted = 0;
  unsigned Rounds = 0;

  /// Rounds whose output failed post-round validation or the serialize /
  /// re-parse round trip and were rolled back to the round's input image —
  /// zero on a healthy run.  The reason lands in LintReports.
  unsigned RoundsRolledBack = 0;

  /// Findings the optimizer introduced (LintSelfCheck) — zero on a
  /// healthy run.
  uint64_t LintRegressions = 0;

  /// Summary mismatches against the reference analysis (CrossCheck) —
  /// zero on a healthy run.
  uint64_t CrossCheckMismatches = 0;

  /// Rendered diagnostics for every regression / mismatch, in the order
  /// they were detected.
  std::vector<std::string> LintReports;

  /// Cost and outcome of one analyze-transform round.
  struct RoundRecord {
    /// Wall-clock seconds the whole round took, including its analyses
    /// and the transactional commit check.
    double Seconds = 0;

    /// Largest MemoryTracker peak across the round's analysis runs.
    uint64_t AnalysisPeakBytes = 0;

    /// Deletions/eliminations the round performed (before any rollback).
    uint64_t Changes = 0;

    /// True if the round's output failed verification and was discarded.
    bool RolledBack = false;
  };

  /// One record per round actually executed, including rolled-back ones.
  std::vector<RoundRecord> PerRound;

  /// Transformation attributions (AttributeTransforms): what each pass
  /// did or declined to do, and the summary facts behind the verdict.
  /// Records of rolled-back rounds are discarded with the round.
  std::vector<telemetry::TransformRecord> Transforms;

  /// Routines the CFG builder quarantined in the last completed round's
  /// analysis — code the optimizer refuses to touch (Section 3.5).
  /// Includes the budget-degraded ones below (they share the bit).
  uint64_t QuarantinedRoutines = 0;

  /// Routines analyzed with Section 3.5 unknowable summaries in the last
  /// completed round because their SCC group blew the analysis budget.
  uint64_t BudgetDegradedRoutines = 0;

  /// Round attempts re-run after a budget blow forced degradation.
  unsigned BudgetRetries = 0;

  /// Dead-store passes skipped because the slot dataflow blew the budget
  /// (skipping an optimization is always sound).
  unsigned SlotFlowSkips = 0;

  /// True if the loop stopped because the analysis budget could not be
  /// met even with every routine degraded; the returned image is the
  /// last committed (valid) one.  The reason lands in LintReports.
  bool StoppedOnBudget = false;

  uint64_t totalDeleted() const {
    return DeadDefsDeleted + DeadStoresDeleted + 2 * SpillPairsRemoved +
           SaveRestoreInstsDeleted + UnreachableInstsRemoved;
  }

  /// True if every enabled self-check passed and no round was rolled
  /// back.
  bool clean() const {
    return RoundsRolledBack == 0 && LintRegressions == 0 &&
           CrossCheckMismatches == 0;
  }
};

/// Optimizes \p Img in place.
PipelineStats optimizeImage(Image &Img, const CallingConv &Conv,
                            const PipelineOptions &Opts);

/// Convenience overload with default options.
PipelineStats optimizeImage(Image &Img, const CallingConv &Conv = {},
                            unsigned MaxRounds = 3);

} // namespace spike

#endif // SPIKE_OPT_PIPELINE_H
