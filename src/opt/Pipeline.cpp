//===- opt/Pipeline.cpp - Analyze-optimize driver --------------------------===//

#include "opt/Pipeline.h"

#include "binary/Validator.h"
#include "lint/Linter.h"
#include "psg/Analyzer.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>

#include <set>
#include <utility>

using namespace spike;

namespace {

/// Lint configuration for the self-check: reachability rules are skipped
/// because the optimizer legitimately rewrites unreachable routines to
/// ret + nops (their trailing blocks change shape), and the baseline-vs-
/// after diff at Warning severity handles the rest.
LintOptions selfCheckOptions() {
  LintOptions Opts;
  Opts.disableRule(RuleId::UnreachableRoutine);
  Opts.disableRule(RuleId::UnreachableBlock);
  return Opts;
}

/// The (code, routine) keys of \p Report's strict findings.  Rollback
/// compares keys rather than whole reports: transforms legitimately move
/// findings around (addresses change), and the input image's pre-existing
/// defects must not be blamed on the optimizer.  Advisory findings are
/// excluded — they do not fail verification.
std::set<std::pair<unsigned, std::string>>
strictKeys(const ValidationReport &Report) {
  std::set<std::pair<unsigned, std::string>> Keys;
  for (const ValidationFinding &F : Report.Findings)
    if (F.Strict)
      Keys.insert({unsigned(F.Code), F.RoutineName});
  return Keys;
}

/// Returns the reason the round's output image is unacceptable, or "" if
/// it is fine: no strict validation finding beyond \p BaselineDefects,
/// and the image survives a serialize / re-parse round trip bit-for-bit.
std::string
roundFailure(const Image &Img,
             const std::set<std::pair<unsigned, std::string>>
                 &BaselineDefects) {
  for (const ValidationFinding &F : validateImage(Img).Findings) {
    if (!F.Strict)
      continue;
    if (!BaselineDefects.count({unsigned(F.Code), F.RoutineName}))
      return "output image fails validation: " + F.Message;
  }
  Expected<Image> Reloaded = loadImage(writeImage(Img));
  if (!Reloaded)
    return "output image fails re-parse: " + Reloaded.error().Message;
  if (!(*Reloaded == Img))
    return "output image does not survive a serialize/re-parse round "
           "trip";
  return "";
}

} // namespace

PipelineStats spike::optimizeImage(Image &Img, const CallingConv &Conv,
                                   const PipelineOptions &Opts) {
  telemetry::Span PipelineSpan("opt.pipeline");
  PipelineStats Stats;
  AnalysisOptions AOpts;
  AOpts.Jobs = Opts.Jobs;

  // One governor for the whole loop; analyzeImage re-arms the deadline
  // per analysis, so --deadline-ms bounds each analysis, not the run.
  ResourceGovernor Gov(Opts.Budget, /*Mem=*/nullptr, Opts.Cancel);
  ResourceGovernor *GovPtr = Gov.enabled() ? &Gov : nullptr;
  AOpts.Governor = GovPtr;

  // Routines degraded to Section 3.5 unknowable summaries after budget
  // blows.  The set persists across rounds — a retried round must not
  // rediscover the same blow — and only ever grows, which with the
  // degrade-everything escalation bounds the retries.
  std::vector<std::string> Degraded;
  bool TriedAll = false;
  BudgetVerdict FirstBlow = BudgetVerdict::Ok;
  std::string FirstBlowPhase;

  LintResult Baseline;
  if (Opts.LintSelfCheck) {
    LintOptions BaselineOpts = selfCheckOptions();
    BaselineOpts.Jobs = Opts.Jobs;
    Baseline = lintImage(Img, Conv, BaselineOpts);
  }

  // Defects the *input* already had are not the optimizer's fault; only
  // strict findings beyond this set roll a round back.
  const std::set<std::pair<unsigned, std::string>> BaselineDefects =
      strictKeys(validateImage(Img));

  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    // The round's transaction boundary: a validation failure or a budget
    // blow mid-round restores both and discards the partial work.
    Image Snapshot = Img;
    PipelineStats Entering = Stats;
    unsigned RetriesThisRound = 0;

    // One analyze-transform round against the current Img/Stats.
    // Returns true when the loop should run another round.  Every pass
    // mutates the image, so each one runs against a fresh analysis of a
    // copy of Img taken before the pass: an analysis borrows its image's
    // words, and the passes read them while rewriting Img.
    auto RunRound = [&]() -> bool {
    uint64_t ChangesThisRound = 0;
    telemetry::Span RoundSpan("opt.round");
    Stopwatch RoundTimer;
    RoundTimer.start();
    uint64_t RoundPeakBytes = 0;
    uint64_t RoundQuarantined = 0;
    uint64_t RoundBudgetDegraded = 0;

    {
      // Dead routines first: everything after has less code to chew on.
      // Both passes read one analysis of the round's entry image, which
      // Snapshot keeps unchanged while they rewrite Img.
      AnalysisResult Analysis = analyzeImage(Snapshot, Conv, AOpts);
      RoundPeakBytes = std::max(RoundPeakBytes, Analysis.Memory.peakBytes());
      RoundQuarantined = Analysis.Prog.numQuarantined();
      RoundBudgetDegraded = Analysis.Prog.numBudgetDegraded();
      {
        telemetry::Span PassSpan("pass.unreachable");
        UnreachableElimStats Unreachable =
            eliminateUnreachableRoutines(Img, Analysis.Prog);
        Stats.UnreachableRoutinesRemoved += Unreachable.RoutinesRemoved;
        Stats.UnreachableInstsRemoved += Unreachable.InstsRemoved;
        ChangesThisRound += Unreachable.RoutinesRemoved;
        if (Opts.AttributeTransforms)
          for (const std::string &Name : Unreachable.RemovedNames) {
            telemetry::TransformRecord Record;
            Record.Pass = "unreachable";
            Record.Outcome = "applied";
            Record.Routine = Name;
            Record.Detail =
                "no call path reaches the routine from the program entry "
                "or any address-taken routine: body rewritten to ret/nops";
            Stats.Transforms.push_back(std::move(Record));
          }
      }
      {
        telemetry::Span PassSpan("pass.save_restore");
        SaveRestoreElimStats SaveRestores =
            eliminateSaveRestores(Img, Analysis.Prog, Analysis.Summaries);
        Stats.SaveRestoreRegsEliminated += SaveRestores.EliminatedRegs;
        Stats.SaveRestoreInstsDeleted += SaveRestores.DeletedInsts;
        ChangesThisRound += SaveRestores.EliminatedRegs;
        if (Opts.AttributeTransforms && SaveRestores.EliminatedRegs != 0) {
          telemetry::TransformRecord Record;
          Record.Pass = "save_restore";
          Record.Outcome = "applied";
          Record.Detail =
              std::to_string(SaveRestores.EliminatedRegs) +
              " callee-saved register(s) reallocated, " +
              std::to_string(SaveRestores.DeletedInsts) +
              " save/restore instruction(s) deleted: the Section 3.4 "
              "sets show the saves are redundant";
          Stats.Transforms.push_back(std::move(Record));
        }
      }
    }

    if (GovPtr)
      GovPtr->pollOrThrow("opt.pass.spill_removal");
    {
      Image PrePass = Img;
      AnalysisResult Analysis = analyzeImage(PrePass, Conv, AOpts);
      RoundPeakBytes = std::max(RoundPeakBytes, Analysis.Memory.peakBytes());
      telemetry::Span PassSpan("pass.spill_removal");
      SpillRemovalStats Spills =
          removeCallSpills(Img, Analysis.Prog, Analysis.Summaries);
      Stats.SpillPairsRemoved += Spills.RemovedPairs;
      ChangesThisRound += Spills.RemovedPairs;
      if (Opts.AttributeTransforms)
        for (uint64_t Address : Spills.DeletedAddrs) {
          telemetry::TransformRecord Record;
          Record.Pass = "spill";
          Record.Outcome = "applied";
          Record.Address = int64_t(Address);
          int32_t RoutineIndex =
              findRoutineByAddress(Analysis.Prog, Address);
          if (RoutineIndex >= 0)
            Record.Routine =
                Analysis.Prog.Routines[uint32_t(RoutineIndex)].Name;
          Record.Detail =
              "call-context spill removed: the callee's call-defined "
              "summary shows the spilled register survives the call";
          Stats.Transforms.push_back(std::move(Record));
        }
    }

    // Dead stores go before dead defs: dead-def elimination may delete an
    // epilogue sp restore whose callers provably never read sp again —
    // sound for registers, but it breaks frame discipline and turns the
    // routine Opaque to the slot dataflow.  Running on still-disciplined
    // frames keeps the store analysis sharp, and nop-ing a store first
    // lets the dead-def pass delete the value producer in the same round.
    if (GovPtr)
      GovPtr->pollOrThrow("opt.pass.dead_store");
    {
      Image PrePass = Img;
      AnalysisResult Analysis = analyzeImage(PrePass, Conv, AOpts);
      RoundPeakBytes = std::max(RoundPeakBytes, Analysis.Memory.peakBytes());
      telemetry::Span PassSpan("pass.dead_store");
      try {
        ThreadPool SlotPool(Opts.Jobs);
        SlotFlowResult Flow = solveSlotFlow(Analysis.Prog, &SlotPool, GovPtr);
        DeadStoreStats DeadStores = eliminateDeadStackStores(
            Img, Analysis.Prog, Flow,
            Opts.AttributeTransforms ? &Stats.Transforms : nullptr);
        Stats.DeadStoresDeleted += DeadStores.DeletedInsts;
        ChangesThisRound += DeadStores.DeletedInsts;
      } catch (const BudgetBlownError &E) {
        // Only the slot dataflow blew.  Skipping an optimization is
        // always sound, so the round continues without this pass rather
        // than degrading register summaries the pass does not use.
        if (E.verdict() == BudgetVerdict::Cancelled)
          throw;
        ++Stats.SlotFlowSkips;
        Stats.LintReports.push_back(
            "round " + std::to_string(Round + 1) +
            ": dead-store pass skipped: slot dataflow budget blown (" +
            budgetVerdictName(E.verdict()) + ")");
        telemetry::count("degrade.slotflow_skips");
      }
    }

    if (GovPtr)
      GovPtr->pollOrThrow("opt.pass.dead_def");
    {
      Image PrePass = Img;
      AnalysisResult Analysis = analyzeImage(PrePass, Conv, AOpts);
      RoundPeakBytes = std::max(RoundPeakBytes, Analysis.Memory.peakBytes());
      telemetry::Span PassSpan("pass.dead_def");
      DeadDefStats DeadDefs = eliminateDeadDefs(
          Img, Analysis.Prog, Analysis.Summaries,
          Opts.AttributeTransforms ? &Stats.Transforms : nullptr);
      Stats.DeadDefsDeleted += DeadDefs.DeletedInsts;
      ChangesThisRound += DeadDefs.DeletedInsts;
    }

    ++Stats.Rounds;

    PipelineStats::RoundRecord Record;
    Record.Changes = ChangesThisRound;
    Record.AnalysisPeakBytes = RoundPeakBytes;

    bool Mutated = false;
    if (Opts.PostRoundMutator) {
      Opts.PostRoundMutator(Img, Round);
      Mutated = true;
    }

    // Transactional commit: a round whose output is no longer a valid,
    // round-trippable image never reaches the caller.
    if (ChangesThisRound != 0 || Mutated) {
      telemetry::Span CommitSpan("commit_check");
      std::string Failure = roundFailure(Img, BaselineDefects);
      if (!Failure.empty()) {
        Img = Snapshot;
        Stats = Entering;
        ++Stats.RoundsRolledBack;
        Stats.LintReports.push_back("round " + std::to_string(Round + 1) +
                                    " rolled back: " + Failure);
        Record.RolledBack = true;
        Record.Seconds = RoundTimer.seconds();
        Stats.PerRound.push_back(Record);
        Stats.QuarantinedRoutines = RoundQuarantined;
        Stats.BudgetDegradedRoutines = RoundBudgetDegraded;
        // Re-running the same transforms on the restored image would
        // fail the same way; stop here.
        return false;
      }
    }

    if (Opts.LintSelfCheck || Opts.CrossCheck) {
      AnalysisResult Analysis = analyzeImage(Img, Conv, AOpts);
      if (Opts.LintSelfCheck) {
        LintResult After =
            lintAnalysis(Img, Analysis, selfCheckOptions());
        for (const Diagnostic &D :
             newDiagnostics(Baseline, After, Severity::Warning)) {
          ++Stats.LintRegressions;
          Stats.LintReports.push_back(
              "round " + std::to_string(Round + 1) + ": " + D.str());
        }
      }
      if (Opts.CrossCheck) {
        for (const Diagnostic &D : crossCheckSummaries(Analysis)) {
          ++Stats.CrossCheckMismatches;
          Stats.LintReports.push_back(
              "round " + std::to_string(Round + 1) + ": " + D.str());
        }
      }
    }

    Record.Seconds = RoundTimer.seconds();
    Stats.PerRound.push_back(Record);
    Stats.QuarantinedRoutines = RoundQuarantined;
    Stats.BudgetDegradedRoutines = RoundBudgetDegraded;

    return ChangesThisRound != 0;
    };

    // The retry ladder: a budget blow rolls the round back and re-runs
    // it with the blown group's routines degraded; no growth or an
    // exhausted attempt budget escalates to degrade-everything for one
    // final attempt.  Only cancellation escapes as an exception.
    bool Continue = false;
    for (;;) {
      try {
        AOpts.Cfg.BudgetDegrade = Degraded;
        Continue = RunRound();
        break;
      } catch (const BudgetBlownError &E) {
        // The round's partial mutations were justified by summaries the
        // solver never finished computing; discard them.
        Img = Snapshot;
        if (E.verdict() == BudgetVerdict::Cancelled)
          throw;
        telemetry::count("degrade.budget_blows");
        if (FirstBlow == BudgetVerdict::Ok) {
          FirstBlow = E.verdict();
          FirstBlowPhase = E.phase();
        }
        ++Entering.BudgetRetries;
        if (TriedAll) {
          // Even one unknowable summary per routine did not fit the
          // budget: degradation has nothing left to give.  Stop with
          // the last committed image, which is valid.
          Entering.StoppedOnBudget = true;
          Entering.LintReports.push_back(
              "optimization stopped in round " + std::to_string(Round + 1) +
              ": analysis budget (" + budgetVerdictName(E.verdict()) +
              ") exceeded in " + E.phase() + " with every routine degraded");
          Stats = std::move(Entering);
          Continue = false;
          break;
        }
        bool Grew = mergeRoutineNames(Degraded, E.routines());
        if (!Grew ||
            RetriesThisRound + 1 >= std::max(1u, Opts.Budget.MaxAttempts)) {
          mergeRoutineNames(Degraded, primaryRoutineNames(Img));
          TriedAll = true;
        }
        ++RetriesThisRound;
        Entering.LintReports.push_back(
            "round " + std::to_string(Round + 1) + " retried: " + E.what() +
            "; " + std::to_string(Degraded.size()) + " routine(s) degraded");
        Stats = Entering;
      }
    }
    if (!Continue)
      break;
  }

  if (telemetry::active()) {
    telemetry::count("opt.rounds", Stats.Rounds);
    telemetry::count("opt.rounds_rolled_back", Stats.RoundsRolledBack);
    telemetry::count("opt.dead_defs_deleted", Stats.DeadDefsDeleted);
    telemetry::count("opt.dead_stores_deleted", Stats.DeadStoresDeleted);
    telemetry::count("opt.spill_pairs_removed", Stats.SpillPairsRemoved);
    telemetry::count("opt.save_restore_regs_eliminated",
                     Stats.SaveRestoreRegsEliminated);
    telemetry::count("opt.unreachable_routines_removed",
                     Stats.UnreachableRoutinesRemoved);
    telemetry::count("opt.unreachable_insts_removed",
                     Stats.UnreachableInstsRemoved);
    telemetry::count("opt.lint_regressions", Stats.LintRegressions);
    telemetry::count("opt.cross_check_mismatches",
                     Stats.CrossCheckMismatches);
    telemetry::count("opt.quarantined_routines", Stats.QuarantinedRoutines);
    telemetry::count("opt.budget_retries", Stats.BudgetRetries);
    telemetry::count("opt.budget_degraded_routines",
                     Stats.BudgetDegradedRoutines);
    for (const std::string &Name : Degraded)
      telemetry::degrade({Name, budgetVerdictName(FirstBlow),
                          FirstBlowPhase});
    for (const PipelineStats::RoundRecord &R : Stats.PerRound)
      telemetry::gaugeHigh("opt.memory.peak_bytes", R.AnalysisPeakBytes);
    // Round-level hot-spot attribution: one row per round (the SCC slot
    // carries the round index), plus the convergence histogram of
    // changes-per-round.  Change counts are deterministic; the measured
    // round times carry the "_ns" suffix the determinism scrub keys on.
    {
      std::string RoundPath = telemetry::active()->currentPath() +
                              "/opt.round";
      telemetry::Histogram RoundChanges, RoundNs;
      for (size_t Round = 0; Round < Stats.PerRound.size(); ++Round) {
        const PipelineStats::RoundRecord &R = Stats.PerRound[Round];
        RoundChanges.record(R.Changes);
        uint64_t Ns = uint64_t(R.Seconds * 1e9 + 0.5);
        RoundNs.record(Ns);
        telemetry::HotSpotRecord Row;
        Row.Phase = RoundPath;
        if (R.RolledBack)
          Row.Routine = "(rolled back)";
        Row.Scc = int64_t(Round);
        Row.Pops = R.Changes;
        Row.Ns = Ns;
        telemetry::hotspot(std::move(Row));
      }
      telemetry::recordHistogram("opt.round_changes", RoundChanges);
      telemetry::recordHistogram("opt.round_ns", RoundNs);
    }
    // Attribution records reach the session only here, after the loop:
    // a rolled-back round's records were discarded with its stats, so
    // the run report never attributes a transformation that did not
    // survive.
    for (const telemetry::TransformRecord &Record : Stats.Transforms) {
      telemetry::count(Record.Outcome == "applied"
                           ? "opt.transforms.applied"
                           : "opt.transforms.rejected");
      telemetry::attribute(Record);
    }
  }
  return Stats;
}

PipelineStats spike::optimizeImage(Image &Img, const CallingConv &Conv,
                                   unsigned MaxRounds) {
  PipelineOptions Opts;
  Opts.MaxRounds = MaxRounds;
  return optimizeImage(Img, Conv, Opts);
}
