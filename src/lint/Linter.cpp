//===- lint/Linter.cpp - Whole-program binary diagnostics ------------------===//

#include "lint/Linter.h"

#include "cfg/CallGraph.h"
#include "interproc/CfgTwoPhase.h"
#include "lint/LintRules.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>

using namespace spike;

unsigned LintResult::count(Severity Sev) const {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Sev == Sev)
      ++N;
  return N;
}

namespace {

/// Sort key: program order first, then rule, so output is deterministic
/// and reads like a compiler's.  The key covers every rendered field, so
/// the order does not depend on the order the rules ran in.
bool diagLess(const Diagnostic &A, const Diagnostic &B) {
  return std::tie(A.RoutineIndex, A.Address, A.BlockIndex, A.Rule, A.Message,
                  A.RoutineName, A.Hint) <
         std::tie(B.RoutineIndex, B.Address, B.BlockIndex, B.Rule, B.Message,
                  B.RoutineName, B.Hint);
}

std::string setDiff(const char *What, RegSet Psg, RegSet Ref) {
  std::string S = What;
  S += ": psg=";
  S += Psg.str();
  S += " reference=";
  S += Ref.str();
  return S;
}

} // namespace

LintResult spike::lintAnalysis(const Image &Img,
                               const AnalysisResult &Analysis,
                               const LintOptions &Opts) {
  telemetry::Span LintSpan("lint");
  LintResult Result;
  LintContext Ctx{Img, Analysis, Analysis.Prog.Calls, Opts, Result.Diags};

  if (Opts.ruleEnabled(RuleId::UndefEntryRead))
    checkUndefEntryReads(Ctx);
  if (Opts.ruleEnabled(RuleId::CalleeSavedClobber))
    checkCalleeSavedClobbers(Ctx);
  if (Opts.ruleEnabled(RuleId::DeadDef))
    checkDeadDefs(Ctx);
  if (Opts.ruleEnabled(RuleId::UnreachableRoutine) ||
      Opts.ruleEnabled(RuleId::UnreachableBlock))
    checkUnreachable(Ctx);
  if (Opts.ruleEnabled(RuleId::JumpTableEscape) ||
      Opts.ruleEnabled(RuleId::MidRoutineCall) ||
      Opts.ruleEnabled(RuleId::FallThroughExit))
    checkControlFlow(Ctx);
  if (Opts.ruleEnabled(RuleId::QuarantinedRoutine))
    checkQuarantine(Ctx);
  if (Opts.ruleEnabled(RuleId::DeadStackStore))
    checkDeadStackStores(Ctx);
  if (Opts.ruleEnabled(RuleId::BudgetDegraded))
    checkBudgetDegraded(Ctx);

  if (Opts.Verify && Opts.ruleEnabled(RuleId::SummaryMismatch)) {
    telemetry::Span VerifySpan("lint.summary-mismatch");
    std::vector<Diagnostic> Mismatches = crossCheckSummaries(Analysis);
    Result.Diags.insert(Result.Diags.end(),
                        std::make_move_iterator(Mismatches.begin()),
                        std::make_move_iterator(Mismatches.end()));
  }

  std::sort(Result.Diags.begin(), Result.Diags.end(), diagLess);
  if (telemetry::active()) {
    telemetry::count("lint.diagnostics", Result.Diags.size());
    telemetry::count("lint.errors", Result.count(Severity::Error));
    telemetry::count("lint.warnings", Result.count(Severity::Warning));
    telemetry::count("lint.notes", Result.count(Severity::Note));
  }
  return Result;
}

LintResult spike::lintImage(const Image &Img, const CallingConv &Conv,
                            const LintOptions &Opts) {
  // Defective images are analyzed anyway: the CFG builder quarantines
  // every routine validation implicates and models it as unknowable code
  // (Section 3.5), so the rest of the program still gets real summaries.
  // SL011 reports each quarantine with its root cause.
  AnalysisOptions AOpts;
  AOpts.Jobs = Opts.Jobs;
  AnalysisResult Analysis = analyzeImage(Img, Conv, AOpts);
  return lintAnalysis(Img, Analysis, Opts);
}

std::vector<Diagnostic>
spike::crossCheckSummaries(const AnalysisResult &Analysis) {
  std::vector<Diagnostic> Out;
  const Program &Prog = Analysis.Prog;
  InterprocSummaries Ref = runCfgTwoPhase(Prog, Analysis.SavedPerRoutine);

  auto Report = [&](uint32_t RoutineIndex, std::string Detail) {
    const Routine &R = Prog.Routines[RoutineIndex];
    Out.push_back(makeDiagnostic(
        RuleId::SummaryMismatch, int32_t(RoutineIndex), R.Name, -1,
        int64_t(R.Begin),
        "PSG and CFG two-phase reference disagree, " + std::move(Detail)));
  };

  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const RoutineResults &P = Analysis.Summaries.Routines[RoutineIndex];
    const RoutineResults &C = Ref.Routines[RoutineIndex];
    for (uint32_t E = 0; E < P.EntrySummaries.size(); ++E) {
      const CallSummary &PS = P.EntrySummaries[E];
      const CallSummary &CS = C.EntrySummaries[E];
      std::string Where = "entrance " + std::to_string(E) + " ";
      if (PS.Used != CS.Used)
        Report(RoutineIndex, Where + setDiff("call-used", PS.Used, CS.Used));
      if (PS.Defined != CS.Defined)
        Report(RoutineIndex,
               Where + setDiff("call-defined", PS.Defined, CS.Defined));
      if (PS.Killed != CS.Killed)
        Report(RoutineIndex,
               Where + setDiff("call-killed", PS.Killed, CS.Killed));
      if (P.LiveAtEntry[E] != C.LiveAtEntry[E])
        Report(RoutineIndex, Where + setDiff("live-at-entry",
                                             P.LiveAtEntry[E],
                                             C.LiveAtEntry[E]));
    }
    for (uint32_t X = 0; X < P.LiveAtExit.size(); ++X)
      if (P.LiveAtExit[X] != C.LiveAtExit[X])
        Report(RoutineIndex,
               "exit " + std::to_string(X) +
                   " " + setDiff("live-at-exit", P.LiveAtExit[X],
                                 C.LiveAtExit[X]));
  }
  return Out;
}

std::vector<Diagnostic> spike::newDiagnostics(const LintResult &Before,
                                              const LintResult &After,
                                              Severity MinSev) {
  // Keys ignore block indices and addresses: transforms legitimately move
  // code, what must not happen is a *new kind* of finding in a routine.
  using Key = std::pair<unsigned, std::string>;
  std::set<Key> Baseline;
  for (const Diagnostic &D : Before.Diags)
    Baseline.insert({unsigned(D.Rule), D.RoutineName});

  std::vector<Diagnostic> Fresh;
  for (const Diagnostic &D : After.Diags) {
    if (D.Sev < MinSev)
      continue;
    if (!Baseline.count({unsigned(D.Rule), D.RoutineName}))
      Fresh.push_back(D);
  }
  return Fresh;
}
