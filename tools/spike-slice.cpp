//===- tools/spike-slice.cpp - dependence-graph slicing driver -------------===//
//
// Answers slicing queries over the instruction dependence graph: which
// instructions does this one transitively depend on (backward), and
// which instructions transitively depend on it (forward)?  The graph
// combines register reaching definitions, interprocedural stack-slot
// dataflow, control dependence, and call/return junction edges, so a
// slice follows values across routine boundaries and through frame
// slots.
//
//   spike-slice app.spkx --backward 123
//   spike-slice app.spkx --forward 42 --dot
//   spike-slice app.spkx --slots [--routine <name>]
//
// --slots prints each routine's solved slot facts (MAY-USE / MAY-DEF /
// LIVE-AT-EXIT, in entry-sp coordinates) instead of a slice.
//
// Exit codes: 0 query answered, 1 load or address failure, 2 usage
// error.  Answers are bit-identical for every --jobs value.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "psg/Analyzer.h"
#include "slice/DeadStore.h"
#include "slice/DepGraph.h"
#include "slice/Slicer.h"
#include "slice/SlotFlow.h"
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
      "usage: %s <image.spkx> <query> [--dot] [--routine <name>] %s %s\n"
      "queries:\n"
      "  --backward <addr>   what does the instruction at <addr> need?\n"
      "  --forward <addr>    what needs the instruction at <addr>?\n"
      "  --slots             per-routine stack-slot facts (MAY-USE,\n"
      "                      MAY-DEF, LIVE-AT-EXIT, dead stores)\n"
      "--dot renders the slice subgraph as Graphviz instead of a list\n",
      Tool, toolopts::jobsUsage(), tooltel::usage());
  std::fprintf(stderr, "budget flags: %s\n", toolbudget::usage());
  return 2;
}

void printSlice(const Program &Prog, const std::vector<uint64_t> &Slice,
                const char *Direction, uint64_t Seed) {
  std::printf("%s slice of %llu: %zu instruction(s)\n", Direction,
              (unsigned long long)Seed, Slice.size());
  for (uint64_t Address : Slice) {
    int32_t RoutineIndex = findRoutineByAddress(Prog, Address);
    std::printf("  %llu:\t%s\t; %s\n", (unsigned long long)Address,
                Prog.inst(Address).str(int64_t(Address)).c_str(),
                RoutineIndex >= 0
                    ? Prog.Routines[uint32_t(RoutineIndex)].Name.c_str()
                    : "?");
  }
}

int runTool(int Argc, char **Argv) {
  std::string Path, RoutineName;
  uint64_t Seed = 0;
  bool Backward = false, Forward = false, Slots = false, Dot = false;
  unsigned Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  toolbudget::Options BudgetOpts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--backward") == 0 && I + 1 < Argc) {
      Backward = true;
      Seed = std::strtoull(Argv[++I], nullptr, 0);
    } else if (std::strcmp(Argv[I], "--forward") == 0 && I + 1 < Argc) {
      Forward = true;
      Seed = std::strtoull(Argv[++I], nullptr, 0);
    } else if (std::strcmp(Argv[I], "--slots") == 0)
      Slots = true;
    else if (std::strcmp(Argv[I], "--dot") == 0)
      Dot = true;
    else if (std::strcmp(Argv[I], "--routine") == 0 && I + 1 < Argc)
      RoutineName = Argv[++I];
    else if (toolopts::parseJobs(Argc, Argv, I, Jobs))
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
  if (Path.empty() || (Backward && Forward) ||
      (!Backward && !Forward && !Slots))
    return usage(Argv[0]);

  toolbudget::Session Faults(BudgetOpts);
  tooltel::Emitter Telemetry("spike-slice", TelemetryOpts);

  std::string Error;
  std::optional<Image> Img = readImageFile(Path, &Error);
  if (!Img) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  AnalysisOptions AOpts;
  AOpts.Jobs = Jobs;
  AnalysisResult Analysis;
  if (BudgetOpts.any()) {
    Expected<GovernedAnalysis> Governed = analyzeImageGoverned(
        *Img, CallingConv(), AOpts, BudgetOpts.Budget, Faults.token());
    if (!Governed)
      return toolbudget::exitError(Governed.error());
    Analysis = std::move(Governed->Result);
    for (const std::string &Name : Governed->DegradedRoutines)
      std::fprintf(stderr,
                   "note: %s degraded to an unknowable summary; slices "
                   "through it are conservative\n",
                   Name.c_str());
  } else {
    Analysis = analyzeImage(*Img, CallingConv(), AOpts);
  }
  const Program &Prog = Analysis.Prog;

  // The slice phases get their own governed attempt: a blow here has no
  // retry ladder (a slice is a query, not a transformation) and escapes
  // as a structured error via guardedMain.
  ResourceGovernor SliceGov(BudgetOpts.Budget, &Analysis.Memory,
                            Faults.token());
  const ResourceGovernor *Gov = SliceGov.enabled() ? &SliceGov : nullptr;
  if (Gov)
    SliceGov.arm();
  ThreadPool SlotPool(Jobs);
  SlotFlowResult Flow = solveSlotFlow(Prog, &SlotPool, Gov);

  if (Slots) {
    if (Flow.GlobalEscape)
      std::printf("global escape: an sp value leaks (or a routine is "
                  "quarantined); every fact is {unknown}\n");
    std::vector<DeadStoreCandidate> DeadStores =
        findDeadStackStores(Prog, Flow);
    for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
         ++RoutineIndex) {
      const Routine &R = Prog.Routines[RoutineIndex];
      if (!RoutineName.empty() && R.Name != RoutineName)
        continue;
      const RoutineSlotFacts &F = Flow.Routines[RoutineIndex];
      std::printf("%s:%s\n", R.Name.c_str(),
                  F.Opaque ? "  (opaque: frame discipline unknown)" : "");
      std::printf("  may-use:      %s\n", F.MayUse.str().c_str());
      std::printf("  may-def:      %s\n", F.MayDef.str().c_str());
      std::printf("  live-at-exit: %s\n", F.LiveAtExit.str().c_str());
      for (const DeadStoreCandidate &C : DeadStores)
        if (C.RoutineIndex == RoutineIndex && C.Dead)
          std::printf("  dead store:   %llu: %s\n",
                      (unsigned long long)C.Address,
                      Prog.inst(C.Address).str().c_str());
    }
    return 0;
  }

  if (Seed >= Prog.numInsts()) {
    std::fprintf(stderr, "error: address %llu out of range (have %zu)\n",
                 (unsigned long long)Seed, Prog.numInsts());
    return 1;
  }

  ThreadPool *Pool = nullptr;
  ThreadPool OwnedPool(Jobs > 1 ? Jobs : 1);
  if (Jobs > 1)
    Pool = &OwnedPool;
  DependenceGraph Graph =
      buildDepGraph(Prog, Analysis.Summaries, Flow, Pool, Gov);
  std::vector<uint64_t> Slice = Backward ? backwardSlice(Graph, Seed)
                                         : forwardSlice(Graph, Seed);
  if (Dot)
    std::fputs(sliceToDot(Prog, Graph, Slice).c_str(), stdout);
  else
    printSlice(Prog, Slice, Backward ? "backward" : "forward", Seed);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-slice");
  return toolbudget::guardedMain([&] { return runTool(Argc, Argv); });
}
