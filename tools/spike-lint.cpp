//===- tools/spike-lint.cpp - whole-program static analysis driver ---------===//
//
// Lints a fully linked image with the interprocedural analysis:
//
//   spike-lint app.spkx [--json] [--verify] [--min-severity <sev>]
//                       [--disable <SLnnn>] [--rounds <n>]
//
// With no flags, prints every diagnostic in text form, one per line, then
// a summary count.  --json emits a machine-readable document instead.
//
// --verify additionally (1) cross-checks the PSG summaries against the
// CFG-level two-phase reference analysis and (2) audits the optimizer:
// it runs the full optimize pipeline on a copy of the image with the
// per-round lint self-check and summary cross-check enabled, and reports
// any finding the optimizer introduced.
//
// Exit status: 0 clean (no errors, verification passed), 1 errors or
// verification failure (an unreadable file is a SL000 error; a readable
// but defective image is analyzed anyway, with each quarantined routine
// reported as a SL011 warning), 2 usage.
//
//===----------------------------------------------------------------------===//

#include "lint/JsonWriter.h"
#include "lint/Linter.h"
#include "opt/Pipeline.h"
#include "ToolBudget.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace spike;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s <image.spkx> [--json] [--verify] "
               "[--min-severity note|warning|error] [--disable <SLnnn>] "
               "[--rounds <n>] %s %s %s\n",
               Prog, toolopts::jobsUsage(), toolbudget::usage(),
               tooltel::usage());
  return 2;
}

int runTool(int Argc, char **Argv) {
  std::string Path;
  bool Json = false, Verify = false;
  unsigned Rounds = 3;
  LintOptions Opts;
  Opts.Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  toolbudget::Options BudgetOpts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(Argv[I], "--verify") == 0)
      Verify = true;
    else if (std::strcmp(Argv[I], "--min-severity") == 0 && I + 1 < Argc) {
      std::string Sev = Argv[++I];
      if (Sev == "note")
        Opts.MinSeverity = Severity::Note;
      else if (Sev == "warning")
        Opts.MinSeverity = Severity::Warning;
      else if (Sev == "error")
        Opts.MinSeverity = Severity::Error;
      else
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--disable") == 0 && I + 1 < Argc) {
      std::string Code = Argv[++I];
      bool Found = false;
      for (unsigned Rule = 0; Rule < NumLintRules; ++Rule)
        if (Code == ruleCode(RuleId(Rule)) ||
            Code == ruleName(RuleId(Rule))) {
          Opts.disableRule(RuleId(Rule));
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "error: unknown rule '%s'\n", Code.c_str());
        return 2;
      }
    } else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--rounds"))
      Rounds = toolopts::parseUnsigned32(V, "--rounds");
    else if (toolopts::parseJobs(Argc, Argv, I, Opts.Jobs))
      ;
    else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts))
      ;
    else if (toolbudget::parseFlag(Argc, Argv, I, BudgetOpts))
      ;
    else if (Argv[I][0] == '-')
      return usage(Argv[0]);
    else
      Path = Argv[I];
  }
  if (Path.empty())
    return usage(Argv[0]);

  toolbudget::Session Faults(BudgetOpts);
  tooltel::Emitter Telemetry("spike-lint", TelemetryOpts);

  std::string Error;
  std::optional<Image> Img = readImageFile(Path, &Error);
  if (!Img) {
    // A file we cannot even parse gets the same structured treatment as
    // one that parses but fails verification.
    LintResult Result;
    Result.Diags.push_back(
        makeDiagnostic(RuleId::MalformedImage, -1, "", -1, -1, Error));
    std::fputs(Json ? writeDiagnosticsJson(Result).c_str()
                    : (Result.Diags[0].str() + "\n").c_str(),
               stdout);
    return 1;
  }

  Opts.Verify = Verify;
  // Budget-degraded routines fall out of the analysis and surface as
  // SL013 warnings; a budget degradation cannot fix leads to a
  // structured error instead of a diagnostic list.
  AnalysisOptions AOpts;
  AOpts.Jobs = Opts.Jobs;
  Expected<GovernedAnalysis> Governed = analyzeImageGoverned(
      *Img, CallingConv(), AOpts, BudgetOpts.Budget, Faults.token());
  if (!Governed)
    return toolbudget::exitError(Governed.error());
  LintResult Result = lintAnalysis(*Img, Governed->Result, Opts);

  bool VerifyFailed = false;
  if (Verify && !Result.hasErrors()) {
    // Optimizer audit: optimize a copy with the self-checks on; findings
    // the pipeline introduces surface as SL010 regressions.
    Image Copy = *Img;
    PipelineOptions PipeOpts;
    PipeOpts.MaxRounds = Rounds;
    PipeOpts.LintSelfCheck = true;
    PipeOpts.CrossCheck = true;
    PipeOpts.Jobs = Opts.Jobs;
    PipeOpts.Budget = BudgetOpts.Budget;
    PipeOpts.Cancel = Faults.token();
    PipelineStats Stats = optimizeImage(Copy, CallingConv(), PipeOpts);
    for (const std::string &Report : Stats.LintReports)
      Result.Diags.push_back(makeDiagnostic(
          RuleId::OptRegression, -1, "", -1, -1,
          "optimizer introduced a finding: " + Report));
    VerifyFailed = !Stats.clean();
  }

  if (Json)
    std::fputs(writeDiagnosticsJson(Result).c_str(), stdout);
  else {
    for (const Diagnostic &D : Result.Diags)
      std::printf("%s\n", D.str().c_str());
    std::printf("%u error(s), %u warning(s), %u note(s)\n",
                Result.count(Severity::Error),
                Result.count(Severity::Warning),
                Result.count(Severity::Note));
    if (Verify)
      std::printf("verification: %s\n",
                  Result.hasErrors() || VerifyFailed ? "FAILED" : "passed");
  }
  return Result.hasErrors() || VerifyFailed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-lint");
  return toolbudget::guardedMain([&] { return runTool(Argc, Argv); });
}
