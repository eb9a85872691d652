//===- tools/spike-explain.cpp - why is this register live? ---------------===//
//
// Answers provenance queries over the interprocedural analysis: for any
// solved bit, searches the converged graph for a shortest witness chain
// — the concrete PSG edges, callee summaries, and seeds that force it —
// and independently replays the chain against the graph before
// believing it.
//
//   spike-explain app.spkx --why-live r5@entry:foo
//   spike-explain app.spkx --why-may-use a1@call:bar#0
//   spike-explain app.spkx --why-may-def s3@entry:qux --dot
//   spike-explain app.spkx --why-dead t2@1234
//   spike-explain app.spkx --why-transformed
//   spike-explain app.spkx --check-witnesses
//
// Locations are <reg>@<kind>:<routine>[#i] with kind one of entry, exit,
// call, return (i indexes the routine's entrances / exits / call sites,
// default 0), or <reg>@node:<psg-node-id>.  --why-dead takes the
// definition's instruction address instead, and --why-transformed an
// optional address filter; an address is a decimal integer in [0, 2^53].
//
// Exit codes: 0 query answered (including "fact does not hold"), 1 load
// or replay or audit failure, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"
#include "provenance/Witness.h"
#include "psg/Analyzer.h"
#include "psg/DotExport.h"
#include "ToolBudget.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace spike;

namespace {

int usage(const char *Tool) {
  std::fprintf(
      stderr,
      "usage: %s <image.spkx> <query> [--dot] %s %s\n"
      "queries:\n"
      "  --why-live <reg>@<loc>     why is <reg> live at <loc>?\n"
      "  --why-may-use <reg>@<loc>  why may a call at <loc> use <reg>?\n"
      "  --why-may-def <reg>@<loc>  why may a call at <loc> define <reg>?\n"
      "  --why-dead [<reg>@]<addr>  why is the definition at <addr> dead\n"
      "                             (or what observes it)?\n"
      "  --why-transformed [<addr>] what did the optimizer do, and why?\n"
      "  --check-witnesses          build + replay a witness for every\n"
      "                             live-at-entry bit (CI contract)\n"
      "locations: <kind>:<routine>[#i] with kind entry|exit|call|return,\n"
      "or node:<psg-node-id>\n",
      Tool, toolopts::jobsUsage(), tooltel::usage());
  std::fprintf(stderr, "budget flags: %s\n", toolbudget::usage());
  return 2;
}

/// Parses \p Text as a whole-string decimal integer in [0, 2^53], the
/// address rule of the serve protocol.
bool parseAddress(const std::string &Text, uint64_t &Address) {
  // Sixteen digits hold 2^53 and cannot overflow strtoull.
  if (Text.empty() || Text.size() > 16 ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Address = std::strtoull(Text.c_str(), nullptr, 10);
  return Address <= (uint64_t(1) << 53);
}

/// Reports a malformed address operand; returns the usage exit code.
int badAddress(const std::string &Operand) {
  std::fprintf(stderr,
               "error: '%s' is not an address (want a decimal integer in "
               "[0, 2^53])\n",
               Operand.c_str());
  return 2;
}

int runTool(int Argc, char **Argv) {
  std::string Path, Query, Operand;
  bool Dot = false;
  unsigned Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  toolbudget::Options BudgetOpts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--why-live") == 0 ||
        std::strcmp(Argv[I], "--why-may-use") == 0 ||
        std::strcmp(Argv[I], "--why-may-def") == 0 ||
        std::strcmp(Argv[I], "--why-dead") == 0) {
      if (!Query.empty() || I + 1 >= Argc)
        return usage(Argv[0]);
      Query = Argv[I];
      Operand = Argv[++I];
    } else if (std::strcmp(Argv[I], "--why-transformed") == 0 ||
               std::strcmp(Argv[I], "--check-witnesses") == 0) {
      if (!Query.empty())
        return usage(Argv[0]);
      Query = Argv[I];
      // --why-transformed takes an optional address filter.
      if (Query == "--why-transformed" && I + 1 < Argc &&
          Argv[I + 1][0] != '-')
        Operand = Argv[++I];
    } else if (std::strcmp(Argv[I], "--dot") == 0)
      Dot = true;
    else if (toolopts::parseJobs(Argc, Argv, I, Jobs))
      ;
    else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts))
      ;
    else if (toolbudget::parseFlag(Argc, Argv, I, BudgetOpts))
      ;
    else if (Argv[I][0] == '-')
      return usage(Argv[0]);
    else if (Path.empty())
      Path = Argv[I];
    else
      return usage(Argv[0]);
  }
  if (Path.empty() || Query.empty())
    return usage(Argv[0]);

  // Address operands are checked before anything is loaded.
  uint64_t Address = 0;
  int RegArg = -1;
  if (Query == "--why-dead") {
    // Accept both "<reg>@<addr>" and a bare address.
    unsigned Reg = NumIntRegs;
    std::string Where, Err;
    bool HasReg = parseWitnessOperand(Operand, Reg, Where, Err);
    if (!parseAddress(HasReg ? Where : Operand, Address))
      return badAddress(Operand);
    RegArg = HasReg ? int(Reg) : -1;
  } else if (Query == "--why-transformed" && !Operand.empty() &&
             !parseAddress(Operand, Address)) {
    return badAddress(Operand);
  }

  toolbudget::Session Faults(BudgetOpts);
  tooltel::Emitter Telemetry("spike-explain", TelemetryOpts);

  std::string Error;
  std::optional<Image> Img = readImageFile(Path, &Error);
  if (!Img) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // --why-transformed needs the optimizer, not the analysis.
  if (Query == "--why-transformed") {
    PipelineOptions Opts;
    Opts.AttributeTransforms = true;
    Opts.Jobs = Jobs;
    Opts.Budget = BudgetOpts.Budget;
    Opts.Cancel = Faults.token();
    Image Work = *Img; // The image on disk stays untouched.
    PipelineStats Stats = optimizeImage(Work, {}, Opts);
    int64_t Filter = Operand.empty() ? -1 : int64_t(Address);
    uint64_t Shown = 0;
    for (const telemetry::TransformRecord &R : Stats.Transforms) {
      if (Filter >= 0 && R.Address != Filter)
        continue;
      ++Shown;
      std::printf("%s %s", R.Pass.c_str(), R.Outcome.c_str());
      if (!R.Routine.empty())
        std::printf(" [%s]", R.Routine.c_str());
      if (R.Address >= 0)
        std::printf(" @%lld", (long long)R.Address);
      std::printf(": %s\n", R.Detail.c_str());
    }
    std::printf("%llu record(s) over %u round(s)%s\n",
                (unsigned long long)Shown, Stats.Rounds,
                Filter >= 0 ? " (address-filtered)" : "");
    return 0;
  }

  AnalysisOptions AOpts;
  AOpts.Jobs = Jobs;
  Expected<GovernedAnalysis> Governed = analyzeImageGoverned(
      *Img, {}, AOpts, BudgetOpts.Budget, Faults.token());
  if (!Governed)
    return toolbudget::exitError(Governed.error());
  AnalysisResult Result = std::move(Governed->Result);
  for (const std::string &Name : Governed->DegradedRoutines)
    std::fprintf(stderr,
                 "note: %s degraded to an unknowable summary; witness "
                 "chains through it end at its summary\n",
                 Name.c_str());

  if (Query == "--check-witnesses") {
    WitnessAudit Audit = auditEntryLiveness(Result);
    for (const std::string &Failure : Audit.Failures)
      std::fprintf(stderr, "FAIL: %s\n", Failure.c_str());
    std::printf("check-witnesses: %llu entrance(s), %llu live bit(s), "
                "%zu failure(s)\n",
                (unsigned long long)Audit.EntriesChecked,
                (unsigned long long)Audit.BitsChecked,
                Audit.Failures.size());
    return Audit.Failures.empty() ? 0 : 1;
  }

  if (Query == "--why-dead") {
    DeadDefExplanation Ex = explainDeadDef(Result, Address, RegArg);
    std::fputs(Ex.Text.c_str(), stdout);
    return Ex.Found ? 0 : 1;
  }

  unsigned Reg = NumIntRegs;
  std::string Where;
  if (!parseWitnessOperand(Operand, Reg, Where, Error)) {
    std::fprintf(stderr,
                 "error: '%s' is not a <reg>@<location> operand\n",
                 Operand.c_str());
    return 2;
  }
  uint32_t NodeId = 0;
  if (!resolveWitnessNode(Result, Where, NodeId, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  ProvFact Fact = Query == "--why-live"      ? ProvFact::Live
                  : Query == "--why-may-use" ? ProvFact::MayUse
                                             : ProvFact::MayDef;
  Witness W = buildWitness(Result, Fact, NodeId, Reg);
  if (W.Holds && !replayWitness(Result, W, &Error)) {
    std::fprintf(stderr,
                 "error: witness replay failed (%s) — search and graph "
                 "disagree\n",
                 Error.c_str());
    return 1;
  }
  if (Dot && W.Holds) {
    WitnessPath Path = witnessPath(W);
    DotHighlight Highlight;
    Highlight.Nodes = Path.Nodes;
    Highlight.Edges = Path.Edges;
    std::fputs(psgPathToDot(Result.Prog, Result.Psg, Highlight).c_str(),
               stdout);
    return 0;
  }
  std::fputs(renderWitness(Result, W).c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-explain");
  return toolbudget::guardedMain([&] { return runTool(Argc, Argv); });
}
