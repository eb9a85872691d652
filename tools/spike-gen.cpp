//===- tools/spike-gen.cpp - workload generator driver ----------------------===//
//
// Generates synthetic .spkx executables:
//
//   spike-gen --benchmark gcc [--scale 0.5] -o out.spkx      (analysis-shaped)
//   spike-gen --exec --routines 20 --seed 7 -o out.spkx      (runnable)
//   spike-gen --list
//
//===----------------------------------------------------------------------===//

#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace spike;

static void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s --benchmark <name> [--scale f] -o <out.spkx>\n"
               "       %s --exec [--routines N] [--seed S] -o <out.spkx>\n"
               "       %s --list\n"
               "  shared flags: %s %s (--jobs is accepted for CLI "
               "uniformity; generation is serial)\n",
               Prog, Prog, Prog, toolopts::jobsUsage(), tooltel::usage());
}

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-gen");
  std::string BenchmarkName, OutputPath;
  bool Exec = false, List = false;
  double Scale = 1.0;
  unsigned Routines = 16;
  uint64_t Seed = 42;
  unsigned Jobs = toolopts::defaultJobs(); // accepted for CLI uniformity
  tooltel::Options TelemetryOpts;

  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--benchmark") == 0 && I + 1 < Argc)
      BenchmarkName = Argv[++I];
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--scale"))
      Scale = toolopts::parseDouble(V, "--scale", /*Positive=*/true);
    else if (std::strcmp(Argv[I], "--exec") == 0)
      Exec = true;
    else if (std::strcmp(Argv[I], "--list") == 0)
      List = true;
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--routines"))
      Routines = toolopts::parseUnsigned32(V, "--routines");
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--seed"))
      Seed = toolopts::parseUnsigned(V, "--seed");
    else if (std::strcmp(Argv[I], "-o") == 0 && I + 1 < Argc)
      OutputPath = Argv[++I];
    else if (toolopts::parseJobs(Argc, Argv, I, Jobs))
      ;
    else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts))
      ;
    else {
      usage(Argv[0]);
      return 2;
    }
  }

  if (List) {
    std::printf("%-10s %-16s %9s %8s %10s\n", "name", "suite", "routines",
                "calls/rt", "branches/rt");
    for (const BenchmarkProfile &P : paperProfiles())
      std::printf("%-10s %-16s %9u %8.2f %10.2f\n", P.Name.c_str(),
                  P.Suite.c_str(), P.Routines, P.CallsPerRoutine,
                  P.BranchesPerRoutine);
    return 0;
  }
  if (OutputPath.empty() || (BenchmarkName.empty() && !Exec)) {
    usage(Argv[0]);
    return 2;
  }

  tooltel::Emitter Telemetry("spike-gen", TelemetryOpts);

  Image Img;
  if (Exec) {
    ExecProfile P;
    P.Routines = Routines;
    P.Seed = Seed;
    Img = generateExecProgram(P);
  } else {
    const BenchmarkProfile *Base = findProfile(BenchmarkName);
    if (!Base) {
      std::fprintf(stderr, "error: unknown benchmark '%s' (--list)\n",
                   BenchmarkName.c_str());
      return 1;
    }
    BenchmarkProfile P =
        Scale == 1.0 ? *Base : scaledProfile(*Base, Scale);
    Img = generateCfgProgram(P);
  }

  if (!writeImageFile(Img, OutputPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutputPath.c_str());
    return 1;
  }
  std::printf("%s: %zu instructions, %zu symbols, %zu jump tables\n",
              OutputPath.c_str(), Img.Code.size(), Img.Symbols.size(),
              Img.JumpTables.size());
  return 0;
}
