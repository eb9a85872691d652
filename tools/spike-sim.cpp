//===- tools/spike-sim.cpp - simulator driver --------------------------------===//
//
// Executes a .spkx image and reports its observable outcome.
//
//   spike-sim app.spkx [--args a0 a1 ...] [--max-steps N] [--dump-data]
//
// Exit status is 0 when the program halts, 1 otherwise.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <algorithm>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace spike;

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-sim");
  std::string Path;
  std::vector<int64_t> Args;
  SimOptions Opts;
  bool DumpData = false;
  bool Profile = false;
  unsigned Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--args") == 0) {
      while (I + 1 < Argc && Argv[I + 1][0] != '-')
        Args.push_back(std::strtoll(Argv[++I], nullptr, 10));
    } else if (const char *V =
                   toolopts::flagValue(Argc, Argv, I, "--max-steps")) {
      Opts.MaxSteps = toolopts::parseUnsigned(V, "--max-steps");
    } else if (std::strcmp(Argv[I], "--dump-data") == 0) {
      DumpData = true;
    } else if (std::strcmp(Argv[I], "--profile") == 0) {
      Profile = Opts.Profile = true;
    } else if (toolopts::parseJobs(Argc, Argv, I, Jobs)) {
    } else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts)) {
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s <image.spkx> [--args n...] "
                   "[--max-steps N] [--dump-data] [--profile] %s %s\n",
                   Argv[0], toolopts::jobsUsage(), tooltel::usage());
      return 2;
    } else
      Path = Argv[I];
  }
  if (Path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <image.spkx> [--args n...] "
                 "[--max-steps N] [--dump-data] [--profile] %s %s\n",
                 Argv[0], toolopts::jobsUsage(), tooltel::usage());
    return 2;
  }

  tooltel::Emitter Telemetry("spike-sim", TelemetryOpts);

  std::string Error;
  std::optional<Image> Img = readImageFile(Path, &Error);
  if (!Img) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  SimResult Result = simulateWithArgs(*Img, Args, Opts);
  std::printf("exit:        %s\n", simExitName(Result.Exit));
  std::printf("value:       %lld\n", (long long)Result.ExitValue);
  std::printf("steps:       %llu (%llu useful)\n",
              (unsigned long long)Result.Steps,
              (unsigned long long)Result.usefulSteps());
  if (DumpData) {
    std::printf("data:");
    for (int64_t Word : Result.FinalData)
      std::printf(" %lld", (long long)Word);
    std::printf("\n");
  }
  if (Profile) {
    // Attribute execution counts to routines and print the hottest.
    ThreadPool Pool(Jobs);
    Program Prog = buildProgram(*Img, CallingConv(), /*Mem=*/nullptr, {},
                                &Pool);
    struct Row {
      std::string Name;
      uint64_t Count;
    };
    std::vector<Row> Rows;
    for (const Routine &R : Prog.Routines) {
      uint64_t Count = 0;
      for (uint64_t A = R.Begin; A < R.End; ++A)
        Count += Result.ExecCounts[A];
      if (Count > 0)
        Rows.push_back({R.Name, Count});
    }
    std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
      return A.Count > B.Count;
    });
    std::printf("profile (dynamic instructions per routine):\n");
    for (size_t I = 0; I < Rows.size() && I < 10; ++I)
      std::printf("  %-20s %llu (%.1f%%)\n", Rows[I].Name.c_str(),
                  (unsigned long long)Rows[I].Count,
                  100.0 * double(Rows[I].Count) / double(Result.Steps));
  }
  return Result.Exit == SimExit::Halted ? 0 : 1;
}
