//===- tools/spike-analyze.cpp - interprocedural analysis driver -----------===//
//
// Runs the Spike-style interprocedural dataflow analysis on an image and
// prints the per-routine summaries and/or cost statistics.
//
//   spike-analyze app.spkx [--summaries] [--stats] [--routine <name>]
//
// With no flags, prints stats.  --summaries prints every routine's
// call-used/call-defined/call-killed and live-at-entry/exit sets.  The
// per-stage seconds in --stats are the run's telemetry spans, so they are
// printed only when --trace, --metrics or --folded turned telemetry on.
//
//===----------------------------------------------------------------------===//

#include "lint/Linter.h"
#include "psg/Analyzer.h"
#include "psg/DotExport.h"
#include "ToolBudget.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <cstdio>
#include <cstring>
#include <iterator>
#include <numeric>
#include <string>

using namespace spike;

namespace {

void printRoutineSummaries(const AnalysisResult &Result,
                           uint32_t RoutineIndex) {
  const Routine &R = Result.Prog.Routines[RoutineIndex];
  const RoutineResults &RR = Result.Summaries.Routines[RoutineIndex];
  std::printf("%s: [%llu, %llu)\n", R.Name.c_str(),
              (unsigned long long)R.Begin, (unsigned long long)R.End);
  for (size_t E = 0; E < RR.EntrySummaries.size(); ++E) {
    const CallSummary &S = RR.EntrySummaries[E];
    std::printf("  entrance %zu @%llu:\n", E,
                (unsigned long long)R.EntryAddresses[E]);
    std::printf("    call-used:     %s\n", S.Used.str().c_str());
    std::printf("    call-defined:  %s\n", S.Defined.str().c_str());
    std::printf("    call-killed:   %s\n", S.Killed.str().c_str());
    std::printf("    live-at-entry: %s\n",
                RR.LiveAtEntry[E].str().c_str());
  }
  for (size_t X = 0; X < RR.LiveAtExit.size(); ++X)
    std::printf("  exit %zu @block %u: live-at-exit %s\n", X,
                R.ExitBlocks[X], RR.LiveAtExit[X].str().c_str());
}

int runTool(int Argc, char **Argv) {
  std::string Path, RoutineName, DotWhat;
  bool Summaries = false, Stats = false, Verify = false;
  unsigned Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  toolbudget::Options BudgetOpts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--summaries") == 0)
      Summaries = true;
    else if (std::strcmp(Argv[I], "--stats") == 0)
      Stats = true;
    else if (std::strcmp(Argv[I], "--verify") == 0)
      Verify = true;
    else if (std::strcmp(Argv[I], "--routine") == 0 && I + 1 < Argc)
      RoutineName = Argv[++I];
    else if (std::strcmp(Argv[I], "--dot") == 0 && I + 1 < Argc)
      DotWhat = Argv[++I]; // "psg", "cfg", or "callgraph"
    else if (toolopts::parseJobs(Argc, Argv, I, Jobs))
      ;
    else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts))
      ;
    else if (toolbudget::parseFlag(Argc, Argv, I, BudgetOpts))
      ;
    else if (Argv[I][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s <image.spkx> [--summaries] [--stats] "
                   "[--verify] [--routine <name>] %s %s %s\n",
                   Argv[0], toolopts::jobsUsage(), toolbudget::usage(),
                   tooltel::usage());
      return 2;
    } else
      Path = Argv[I];
  }
  if (Path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <image.spkx> [--summaries] [--stats] "
                 "[--verify] [--routine <name>] %s %s %s\n",
                 Argv[0], toolopts::jobsUsage(), toolbudget::usage(),
                 tooltel::usage());
    return 2;
  }
  if (!Summaries && !Verify && RoutineName.empty())
    Stats = true;

  toolbudget::Session Faults(BudgetOpts);
  tooltel::Emitter Telemetry("spike-analyze", TelemetryOpts);

  Expected<Image> Img = loadImageFile(Path);
  if (!Img)
    return toolbudget::exitError(Img.error());

  AnalysisOptions AOpts;
  AOpts.Jobs = Jobs;
  Expected<GovernedAnalysis> Governed = analyzeImageGoverned(
      *Img, {}, AOpts, BudgetOpts.Budget, Faults.token());
  if (!Governed)
    return toolbudget::exitError(Governed.error());
  AnalysisResult Result = std::move(Governed->Result);
  for (const std::string &Name : Governed->DegradedRoutines)
    std::fprintf(stderr,
                 "note: %s degraded to an unknowable summary "
                 "(budget: %s, attempt %u)\n",
                 Name.c_str(), budgetVerdictName(Governed->FirstBlow),
                 Governed->Attempts);

  if (Verify) {
    // Cross-check the PSG summaries against the CFG-level two-phase
    // reference analysis; any disagreement is a bug in one of the two.
    std::vector<Diagnostic> Mismatches = crossCheckSummaries(Result);
    for (const Diagnostic &D : Mismatches)
      std::fprintf(stderr, "%s\n", D.str().c_str());
    std::printf("verify: %zu mismatch(es) between PSG and CFG two-phase "
                "reference\n",
                Mismatches.size());
    if (!Mismatches.empty())
      return 1;
  }

  if (!DotWhat.empty()) {
    if (DotWhat == "callgraph") {
      std::fputs(callGraphToDot(Result.Prog, Result.Prog.Calls).c_str(),
                 stdout);
      return 0;
    }
    for (uint32_t R = 0; R < Result.Prog.Routines.size(); ++R) {
      if (Result.Prog.Routines[R].Name != RoutineName)
        continue;
      std::fputs(DotWhat == "cfg"
                     ? cfgToDot(Result.Prog, R).c_str()
                     : psgToDot(Result.Prog, Result.Psg, R).c_str(),
                 stdout);
      return 0;
    }
    std::fprintf(stderr,
                 "error: --dot %s needs --routine <name> (or use "
                 "--dot callgraph)\n",
                 DotWhat.c_str());
    return 1;
  }

  if (!RoutineName.empty()) {
    for (uint32_t R = 0; R < Result.Prog.Routines.size(); ++R)
      if (Result.Prog.Routines[R].Name == RoutineName) {
        printRoutineSummaries(Result, R);
        return 0;
      }
    std::fprintf(stderr, "error: no routine named '%s'\n",
                 RoutineName.c_str());
    return 1;
  }

  if (Summaries)
    for (uint32_t R = 0; R < Result.Prog.Routines.size(); ++R)
      printRoutineSummaries(Result, R);

  if (Stats) {
    std::printf("routines:      %zu\n", Result.Prog.Routines.size());
    std::printf("basic blocks:  %llu\n",
                (unsigned long long)Result.Prog.numBlocks());
    std::printf("instructions:  %zu\n", Result.Prog.numInsts());
    std::printf("PSG nodes:     %zu (%llu branch nodes)\n",
                Result.Psg.Nodes.size(),
                (unsigned long long)Result.Psg.numBranchNodes());
    std::printf("PSG edges:     %zu (%llu flow-summary)\n",
                Result.Psg.Edges.size(),
                (unsigned long long)Result.Psg.numFlowSummaryEdges());
    // The stage clock is the telemetry spans; --stats installs no session
    // of its own, since a session adds per-group cost attribution to the
    // phases it would be timing.
    // A build stage also shows its serial seconds: the time outside its
    // per-routine pool regions, which --jobs does not shrink.
    if (const telemetry::Session *Sess = Telemetry.session()) {
      StageSeconds Seconds = stageSeconds(*Sess);
      StageSeconds InPool = poolRegionSeconds(*Sess);
      std::printf("total time:    %.4f s (measured with telemetry on)\n",
                  std::accumulate(Seconds.begin(), Seconds.end(), 0.0));
      for (size_t I = 0; I < StageSpans.size(); ++I) {
        std::printf("  %-15s %.4f s\n", StageSpans[I].Label, Seconds[I]);
        if (InPool[I] > 0)
          std::printf("    %-13s %.4f s\n", "serial", Seconds[I] - InPool[I]);
      }
    } else {
      std::printf("stage times:   add --metrics=<file> to time the five "
                  "stages\n");
    }
    std::printf("memory:        %.2f MB\n", Result.Memory.peakMBytes());
    const uint64_t Layers[] = {Result.CfgBytes, Result.InitBytes,
                               Result.PsgBytes};
    for (size_t I = 0; I < std::size(Layers); ++I)
      std::printf("  %-15s %.2f MB\n", StageSpans[I].Label,
                  double(Layers[I]) / (1024.0 * 1024.0));
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-analyze");
  return toolbudget::guardedMain([&] { return runTool(Argc, Argv); });
}
