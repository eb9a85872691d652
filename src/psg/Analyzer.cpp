//===- psg/Analyzer.cpp - End-to-end interprocedural analysis ------------===//

#include "psg/Analyzer.h"

#include "cfg/CfgBuilder.h"
#include "cfg/SaveRestore.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace spike;

AnalysisResult spike::analyzeImage(const Image &Img,
                                   const CallingConv &Conv,
                                   const AnalysisOptions &Opts) {
  AnalysisResult Result;
  telemetry::Span AnalyzeSpan("analyze");
  telemetry::count("analyze.runs");

  // The pool exists for every job count: at Jobs == 1 it spawns no
  // threads and runs tasks inline, so pool.tasks is identical across job
  // counts.  Tasks never touch the telemetry layer (sessions are
  // single-threaded); all accounting happens after the joins, here.
  ThreadPool Pool(Opts.Jobs);

  // The memory tracker the governor meters is this run's own; re-arming
  // here makes --deadline-ms bound one attempt, not the sum of retries.
  const ResourceGovernor *Gov = nullptr;
  if (Opts.Governor && Opts.Governor->enabled()) {
    Opts.Governor->attachMemory(&Result.Memory);
    Opts.Governor->arm();
    Gov = Opts.Governor;
  }

  Result.Prog = buildProgram(Img, Conv, &Result.Memory, Opts.Cfg, &Pool);
  Result.CfgBytes = Result.Memory.liveBytes();
  if (Gov)
    Gov->pollOrThrow("analyze.cfg-build");

  {
    telemetry::Span InitSpan("init");
    computeDefUbd(Result.Prog, &Pool);
    Result.SavedPerRoutine.resize(Result.Prog.Routines.size());
    forEachTask(&Pool, Result.Prog.Routines.size(),
                [&](size_t RoutineIndex, unsigned) {
                  Result.SavedPerRoutine[RoutineIndex] =
                      analyzeSaveRestore(Result.Prog,
                                         Result.Prog.Routines[RoutineIndex])
                          .Saved;
                });
    Result.Memory.charge(Result.SavedPerRoutine.size() * sizeof(RegSet));
    Result.InitBytes = Result.Memory.liveBytes() - Result.CfgBytes;
  }

  Result.Psg = buildPsg(Result.Prog, Opts.Psg, &Result.Memory, &Pool);
  Result.PsgBytes =
      Result.Memory.liveBytes() - Result.CfgBytes - Result.InitBytes;
  if (Gov)
    Gov->pollOrThrow("analyze.psg-build");

  Result.Phase1Stats = runPhase1(Result.Prog, Result.Psg,
                                 Result.SavedPerRoutine, &Pool, Gov);
  Result.Phase2Stats = runPhase2(Result.Prog, Result.Psg, &Pool, Gov);

  Result.Summaries = extractSummaries(Result.Prog, Result.Psg,
                                      Result.SavedPerRoutine);
  telemetry::gaugeHigh("analyze.memory.cfg_bytes", Result.CfgBytes);
  telemetry::gaugeHigh("analyze.memory.init_bytes", Result.InitBytes);
  telemetry::gaugeHigh("analyze.memory.psg_bytes", Result.PsgBytes);
  telemetry::gaugeHigh("analyze.memory.peak_bytes",
                       Result.Memory.peakBytes());
  telemetry::gaugeSet("analysis.jobs", Pool.jobs());
  telemetry::count("pool.tasks", Pool.tasksRun());
  telemetry::count("pool.steals", Pool.steals());
  // Lane utilization: which worker executed (or stole) how much.  The
  // batch-size histogram is deterministic — one sample per parallel
  // region, i.e. per SCC schedule level — while the steal counts and the
  // per-lane split depend on the schedule and are scrubbed alongside the
  // other "pool.*" values in the determinism tests.
  if (telemetry::active()) {
    telemetry::recordHistogram("pool.batch_tasks", Pool.batchTasks());
    telemetry::recordHistogram("pool.batch_steals", Pool.batchSteals());
    for (unsigned Lane = 0; Lane < Pool.jobs(); ++Lane) {
      std::string Prefix = "pool.lane." + std::to_string(Lane);
      telemetry::gaugeSet(Prefix + ".tasks", Pool.laneExecuted(Lane));
      telemetry::gaugeSet(Prefix + ".steals", Pool.laneStolen(Lane));
    }
  }
  return Result;
}

StageSeconds spike::stageSeconds(const telemetry::Session &S,
                                 size_t FirstSpan) {
  StageSeconds Seconds = {};
  const std::vector<telemetry::SpanEvent> &Spans = S.spans();
  for (size_t Id = FirstSpan; Id < Spans.size(); ++Id) {
    const telemetry::SpanEvent &E = Spans[Id];
    if (E.Open || E.Parent < 0 || Spans[E.Parent].Name != "analyze")
      continue;
    for (size_t I = 0; I < StageSpans.size(); ++I)
      if (E.Name == StageSpans[I].Span)
        Seconds[I] += double(E.DurNs) * 1e-9;
  }
  return Seconds;
}

StageSeconds spike::poolRegionSeconds(const telemetry::Session &S,
                                      size_t FirstSpan) {
  StageSeconds Seconds = {};
  const std::vector<telemetry::SpanEvent> &Spans = S.spans();
  for (size_t Id = FirstSpan; Id < Spans.size(); ++Id) {
    const telemetry::SpanEvent &E = Spans[Id];
    if (E.Open || std::find(PoolRegionSpans.begin(), PoolRegionSpans.end(),
                            E.Name) == PoolRegionSpans.end())
      continue;
    // Climb to the enclosing stage span, the one directly under
    // "analyze".
    for (int32_t Up = E.Parent; Up >= 0; Up = Spans[Up].Parent) {
      int32_t Parent = Spans[Up].Parent;
      if (Parent < 0 || Spans[Parent].Name != "analyze")
        continue;
      for (size_t I = 0; I < StageSpans.size(); ++I)
        if (Spans[Up].Name == StageSpans[I].Span)
          Seconds[I] += double(E.DurNs) * 1e-9;
      break;
    }
  }
  return Seconds;
}

std::vector<std::string> spike::primaryRoutineNames(const Image &Img) {
  std::vector<std::string> Names;
  for (const Symbol &Sym : Img.Symbols)
    if (!Sym.Secondary)
      Names.push_back(Sym.Name);
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}

Expected<GovernedAnalysis>
spike::analyzeImageGoverned(const Image &Img, const CallingConv &Conv,
                            AnalysisOptions Opts, const BudgetOptions &Budget,
                            CancellationToken *Token) {
  ResourceGovernor Gov(Budget, /*Mem=*/nullptr, Token);
  Opts.Governor = Gov.enabled() ? &Gov : nullptr;

  // The degrade set accumulates across attempts; every retry either grows
  // it or escalates to all routines, so the loop terminates.  Intentionally
  // NOT caught here: std::bad_alloc and faultinject::TaskFault — those are
  // environment failures, not budget verdicts, and propagate to the tool's
  // top-level handler.
  std::vector<std::string> Degraded = Opts.Cfg.BudgetDegrade;
  std::sort(Degraded.begin(), Degraded.end());
  Degraded.erase(std::unique(Degraded.begin(), Degraded.end()),
                 Degraded.end());

  GovernedAnalysis Out;
  const unsigned MaxAttempts = std::max(1u, Budget.MaxAttempts);
  bool TriedAll = false;
  for (unsigned Attempt = 1;; ++Attempt) {
    Out.Attempts = Attempt;
    Opts.Cfg.BudgetDegrade = Degraded;
    try {
      Out.Result = analyzeImage(Img, Conv, Opts);
    } catch (const BudgetBlownError &E) {
      if (Out.FirstBlow == BudgetVerdict::Ok)
        Out.FirstBlow = E.verdict();
      telemetry::count("degrade.budget_blows");

      // Cancellation is a request to stop, not to try harder with less.
      if (E.verdict() == BudgetVerdict::Cancelled)
        return E.toStatus();

      // Even one unknowable summary per routine did not fit the budget:
      // degradation has nothing left to give.
      if (TriedAll)
        return Status::error(ErrCode::BudgetUnsatisfiable,
                             std::string("analysis budget (") +
                                 budgetVerdictName(E.verdict()) +
                                 ") still exceeded in " + E.phase() +
                                 " with every routine degraded");

      bool Grew = mergeRoutineNames(Degraded, E.routines());
      // A blow that names no routines (stage-boundary poll) or no fresh
      // ones cannot be fixed by degrading the same set again; nor can an
      // attempt past the retry budget.  Escalate to degrade-everything
      // for one final attempt.
      if (!Grew || Attempt + 1 >= MaxAttempts) {
        mergeRoutineNames(Degraded, primaryRoutineNames(Img));
        TriedAll = true;
      }
      continue;
    }

    for (const Routine &R : Out.Result.Prog.Routines)
      if (R.Degrade == DegradeReason::Budget) {
        Out.DegradedRoutines.push_back(R.Name);
        telemetry::degrade({R.Name, budgetVerdictName(Out.FirstBlow), ""});
      }
    if (Attempt > 1)
      telemetry::count("degrade.analysis_retries", Attempt - 1);
    return Out;
  }
}
