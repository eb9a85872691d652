//===- examples/whole_program_analysis.cpp - large-app analysis CLI -------===//
//
// The scenario the paper's introduction motivates: interprocedural
// dataflow over a *large PC application*.  Generates a benchmark-shaped
// program (default: the gcc profile; pass a name like "winword" or
// "acad"), runs the analysis, and reports the Table 2 / Table 5 /
// Figure 13 statistics for it, plus a comparison against the
// whole-program-CFG baseline size.
//
// Usage: whole_program_analysis [benchmark-name] [scale]
//
//===----------------------------------------------------------------------===//

#include "interproc/Supergraph.h"
#include "psg/Analyzer.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace spike;

int main(int Argc, char **Argv) {
  const char *Name = Argc > 1 ? Argv[1] : "gcc";
  double Scale = Argc > 2 ? std::atof(Argv[2]) : 1.0;

  const BenchmarkProfile *Base = findProfile(Name);
  if (!Base) {
    std::fprintf(stderr, "error: unknown benchmark '%s'; choices:\n",
                 Name);
    for (const BenchmarkProfile &P : paperProfiles())
      std::fprintf(stderr, "  %s\n", P.Name.c_str());
    return 2;
  }
  BenchmarkProfile Profile =
      Scale == 1.0 ? *Base : scaledProfile(*Base, Scale);

  std::printf("generating '%s'-shaped program (%u routines)...\n",
              Name, Profile.Routines);
  Image Img = generateCfgProgram(Profile);
  std::printf("analyzing %zu instructions...\n\n", Img.Code.size());

  // The stage times are the analysis's telemetry spans, so the one
  // analysis runs under a session.
  telemetry::Session Session("whole_program_analysis");
  AnalysisResult Result;
  {
    telemetry::SessionScope Scope(Session);
    Result = analyzeImage(Img);
  }
  StageSeconds Seconds = stageSeconds(Session);
  double Total = std::accumulate(Seconds.begin(), Seconds.end(), 0.0);
  Supergraph Graph = buildSupergraph(Result.Prog);

  std::printf("-- program --\n");
  std::printf("routines:       %zu\n", Result.Prog.Routines.size());
  std::printf("basic blocks:   %llu\n",
              (unsigned long long)Result.Prog.numBlocks());
  std::printf("instructions:   %zu\n", Result.Prog.numInsts());
  std::printf("CFG arcs (incl. call/return): %llu\n\n",
              (unsigned long long)Graph.numArcs());

  std::printf("-- compact representation --\n");
  std::printf("PSG nodes:      %zu (%.2f per basic block)\n",
              Result.Psg.Nodes.size(),
              double(Result.Psg.Nodes.size()) /
                  double(Result.Prog.numBlocks()));
  std::printf("PSG edges:      %zu (%.2f per CFG arc)\n",
              Result.Psg.Edges.size(),
              double(Result.Psg.Edges.size()) / double(Graph.numArcs()));
  std::printf("branch nodes:   %llu\n\n",
              (unsigned long long)Result.Psg.NumBranchNodes);

  std::printf("-- cost --\n");
  std::printf("total dataflow time: %.3f s (measured with telemetry on)\n",
              Total);
  for (size_t I = 0; I < StageSpans.size(); ++I)
    std::printf("  %-15s %6.1f%%  (%.4f s)\n", StageSpans[I].Label,
                Total > 0 ? 100.0 * Seconds[I] / Total : 0.0, Seconds[I]);
  std::printf("analysis memory: %.2f MB\n", Result.Memory.peakMBytes());

  // A taste of the results: the three busiest routines' summaries.
  std::printf("\n-- sample summaries --\n");
  unsigned Printed = 0;
  for (uint32_t R = 0; R < Result.Prog.Routines.size() && Printed < 3;
       ++R) {
    const Routine &Rt = Result.Prog.Routines[R];
    if (Rt.CallBlocks.size() < 5)
      continue;
    const CallSummary &S = Result.Summaries.Routines[R].EntrySummaries[0];
    std::printf("%s: call-used %s\n", Rt.Name.c_str(),
                S.Used.str().c_str());
    std::printf("%*s  call-killed %s\n", int(Rt.Name.size()), "",
                S.Killed.str().c_str());
    ++Printed;
  }
  return 0;
}
