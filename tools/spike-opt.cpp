//===- tools/spike-opt.cpp - post-link optimizer driver ---------------------===//
//
// Runs the Figure 1 optimizations on an image (the Spike workflow).
//
//   spike-opt input.spkx -o output.spkx [--rounds N] [--verify]
//
// --verify additionally executes both images in the simulator and fails
// if observable behaviour changed.  --attribute tags every applied and
// rejected transformation with its justifying summary facts; the records
// land in the --metrics run report (and spike-explain --why-transformed
// prints them interactively).
//
//===----------------------------------------------------------------------===//

#include "opt/AnnotationDeriver.h"
#include "opt/Pipeline.h"
#include "sim/Simulator.h"
#include "ToolBudget.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace spike;

namespace {

int runTool(int Argc, char **Argv) {
  std::string InputPath, OutputPath;
  unsigned Rounds = 3;
  bool Verify = false;
  bool SelfCheck = false;
  bool DeriveAnnotations = false;
  bool Attribute = false;
  unsigned Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  toolbudget::Options BudgetOpts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "-o") == 0 && I + 1 < Argc)
      OutputPath = Argv[++I];
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--rounds"))
      Rounds = toolopts::parseUnsigned32(V, "--rounds");
    else if (std::strcmp(Argv[I], "--verify") == 0)
      Verify = true;
    else if (std::strcmp(Argv[I], "--self-check") == 0)
      SelfCheck = true;
    else if (std::strcmp(Argv[I], "--derive-annotations") == 0)
      DeriveAnnotations = true;
    else if (std::strcmp(Argv[I], "--attribute") == 0)
      Attribute = true;
    else if (toolopts::parseJobs(Argc, Argv, I, Jobs))
      ;
    else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts))
      ;
    else if (toolbudget::parseFlag(Argc, Argv, I, BudgetOpts))
      ;
    else if (Argv[I][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s <input.spkx> -o <output.spkx> "
                   "[--rounds N] [--verify] [--self-check] "
                   "[--derive-annotations] [--attribute] %s %s %s\n",
                   Argv[0], toolopts::jobsUsage(), toolbudget::usage(),
                   tooltel::usage());
      return 2;
    } else
      InputPath = Argv[I];
  }
  if (InputPath.empty() || OutputPath.empty()) {
    std::fprintf(stderr,
                 "usage: %s <input.spkx> -o <output.spkx> "
                 "[--rounds N] [--verify] [--self-check] "
                 "[--derive-annotations] [--attribute] %s %s %s\n",
                 Argv[0], toolopts::jobsUsage(), toolbudget::usage(),
                 tooltel::usage());
    return 2;
  }

  toolbudget::Session Faults(BudgetOpts);
  tooltel::Emitter Telemetry("spike-opt", TelemetryOpts);

  std::string Error;
  std::optional<Image> Img = readImageFile(InputPath, &Error);
  if (!Img) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  Image Original = *Img;
  if (DeriveAnnotations) {
    size_t Sites = annotateIndirectCalls(*Img);
    std::printf("derived annotations for %zu indirect call site(s)\n",
                Sites);
  }
  PipelineOptions Opts;
  Opts.MaxRounds = Rounds;
  Opts.LintSelfCheck = SelfCheck;
  Opts.Jobs = Jobs;
  Opts.AttributeTransforms = Attribute;
  Opts.Budget = BudgetOpts.Budget;
  Opts.Cancel = Faults.token();
  PipelineStats Stats = optimizeImage(*Img, CallingConv(), Opts);
  std::printf("rounds:                        %u\n", Stats.Rounds);
  std::printf("dead defs deleted:             %llu\n",
              (unsigned long long)Stats.DeadDefsDeleted);
  std::printf("spill pairs removed:           %llu\n",
              (unsigned long long)Stats.SpillPairsRemoved);
  std::printf("callee-saved regs reallocated: %llu\n",
              (unsigned long long)Stats.SaveRestoreRegsEliminated);
  std::printf("rounds rolled back:            %u\n",
              Stats.RoundsRolledBack);
  std::printf("quarantined routines:          %llu\n",
              (unsigned long long)Stats.QuarantinedRoutines);
  if (Stats.BudgetRetries || Stats.BudgetDegradedRoutines ||
      Stats.SlotFlowSkips || Stats.StoppedOnBudget) {
    std::printf("budget retries:                %u\n", Stats.BudgetRetries);
    std::printf("budget-degraded routines:      %llu\n",
                (unsigned long long)Stats.BudgetDegradedRoutines);
    if (Stats.SlotFlowSkips)
      std::printf("slot-flow passes skipped:      %u\n",
                  Stats.SlotFlowSkips);
    if (Stats.StoppedOnBudget)
      std::printf("optimization stopped early: budget exhausted even with "
                  "every routine degraded\n");
  }
  for (size_t R = 0; R < Stats.PerRound.size(); ++R) {
    const PipelineStats::RoundRecord &Rec = Stats.PerRound[R];
    std::printf("  round %zu: %.4f s, %.2f MB analysis peak, "
                "%llu change(s)%s\n",
                R + 1, Rec.Seconds,
                double(Rec.AnalysisPeakBytes) / (1024.0 * 1024.0),
                (unsigned long long)Rec.Changes,
                Rec.RolledBack ? ", ROLLED BACK" : "");
  }

  if (SelfCheck) {
    for (const std::string &Report : Stats.LintReports)
      std::fprintf(stderr, "self-check: %s\n", Report.c_str());
    if (!Stats.clean()) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: %llu lint regression(s)\n",
                   (unsigned long long)Stats.LintRegressions);
      return 1;
    }
    std::printf("self-check: no lint regressions across %u round(s)\n",
                Stats.Rounds);
  }

  if (Verify) {
    SimResult Before = simulate(Original);
    SimResult After = simulate(*Img);
    if (!Before.sameObservable(After)) {
      std::fprintf(stderr, "VERIFY FAILED: behaviour changed "
                           "(%s/%lld vs %s/%lld)\n",
                   simExitName(Before.Exit), (long long)Before.ExitValue,
                   simExitName(After.Exit), (long long)After.ExitValue);
      return 1;
    }
    std::printf("verify: identical observable behaviour; useful "
                "instructions %llu -> %llu\n",
                (unsigned long long)Before.usefulSteps(),
                (unsigned long long)After.usefulSteps());
  }

  if (!writeImageFile(*Img, OutputPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutputPath.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-opt");
  return toolbudget::guardedMain([&] { return runTool(Argc, Argv); });
}
