//===- bench/BenchUtil.h - Shared benchmark-harness helpers ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench harnesses (bench_paper, bench_serve).
///
/// Every harness accepts:
///   --scale <f>      scale every profile's routine count by f (default
///                    1.0, i.e. the paper's full benchmark sizes; use
///                    e.g. 0.1 for a quick pass),
///   --only <name>    run a single benchmark,
///   --jobs <n>       worker lanes for the parallel analysis engine
///                    (default 1; harnesses with a jobs sweep time the
///                    serial engine against this lane count),
///   --metrics <file> write a spike-run-report JSON document,
///   --trace <file>   write a Chrome trace-event JSON trace,
/// and honors the SPIKE_BENCH_SCALE environment variable as a default
/// for --scale.  The values go through the tools' readers
/// (tools/ToolOptions.h): a scale must be a positive number and a jobs
/// count in [1, 1024], and any other value exits 2 before a table runs.
///
/// Harness owns the run's telemetry::Session and keeps it installed for
/// the harness's whole lifetime, so every timing goes through the
/// telemetry span API rather than ad-hoc stopwatches, and the seconds a
/// table prints are exactly the spans the RunReport carries.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_BENCH_BENCHUTIL_H
#define SPIKE_BENCH_BENCHUTIL_H

#include "ToolOptions.h"
#include "synth/Profiles.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spike {
namespace benchutil {

/// Parsed common options.
struct Options {
  double Scale = 1.0;
  std::string Only;
  std::string MetricsPath;
  std::string TracePath;

  /// Lane count for harnesses that exercise the parallel engine; the
  /// jobs sweeps compare --jobs=1 against this value.
  unsigned Jobs = 1;
};

inline Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  if (const char *Env = std::getenv("SPIKE_BENCH_SCALE"))
    Opts.Scale = toolopts::parseDouble(Env, "SPIKE_BENCH_SCALE", true);
  for (int I = 1; I < Argc; ++I) {
    if (const char *V = toolopts::flagValue(Argc, Argv, I, "--scale"))
      Opts.Scale = toolopts::parseDouble(V, "--scale", true);
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--only"))
      Opts.Only = V;
    else if (toolopts::parseJobs(Argc, Argv, I, Opts.Jobs))
      ;
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--metrics"))
      Opts.MetricsPath = V;
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--trace"))
      Opts.TracePath = V;
    else {
      std::fprintf(stderr,
                   "usage: %s [--scale <f>] [--only <benchmark>] "
                   "[--jobs <n>] [--metrics <file>] [--trace <file>]\n",
                   Argv[0]);
      std::exit(2);
    }
  }
  return Opts;
}

/// Returns the selected paper profiles, scaled.
inline std::vector<BenchmarkProfile> selectedProfiles(const Options &Opts) {
  std::vector<BenchmarkProfile> Result;
  for (const BenchmarkProfile &P : paperProfiles()) {
    if (!Opts.Only.empty() && P.Name != Opts.Only)
      continue;
    BenchmarkProfile Scaled =
        Opts.Scale == 1.0 ? P : scaledProfile(P, Opts.Scale);
    Scaled.Name = P.Name; // Keep the paper's name for the table row.
    Result.push_back(Scaled);
  }
  return Result;
}

/// Prints the standard harness banner.
inline void banner(const char *What, const Options &Opts) {
  std::printf("== %s (scale %.3g) ==\n", What, Opts.Scale);
}

/// The harness's telemetry session: always active (the tables read its
/// stage spans), written out as a RunReport / trace on destruction when
/// the flags asked for one.
class Harness {
public:
  Harness(const char *Name, Options Opts)
      : S(Name), HarnessOpts(std::move(Opts)), Scope(S) {}

  ~Harness() {
    auto Write = [&](const std::string &Path,
                     std::string (*Render)(const telemetry::Session &)) {
      if (!Path.empty() && !telemetry::writeTextFile(Path, Render(S)))
        std::fprintf(stderr, "warning: cannot write telemetry file '%s'\n",
                     Path.c_str());
    };
    Write(HarnessOpts.TracePath, telemetry::traceJson);
    Write(HarnessOpts.MetricsPath, telemetry::runReportJson);
  }

  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  /// Runs \p Body inside a span named \p Name and returns its seconds —
  /// the harness's replacement for a raw stopwatch: the interval also
  /// lands in the trace and the RunReport's phase table, and the sample
  /// feeds the "bench.<name>_ns" histogram so repeated measurements of
  /// one benchmark diff percentile-aware in spike-profile --diff.
  template <typename Fn> double timed(std::string_view Name, Fn &&Body) {
    uint32_t Id = S.beginSpan(Name);
    std::forward<Fn>(Body)();
    S.endSpan(Id);
    double Seconds = S.spanSeconds(Id);
    S.record("bench." + std::string(Name) + "_ns",
             uint64_t(Seconds * 1e9 + 0.5));
    return Seconds;
  }

private:
  telemetry::Session S;
  Options HarnessOpts;
  telemetry::SessionScope Scope;
};

} // namespace benchutil
} // namespace spike

#endif // SPIKE_BENCH_BENCHUTIL_H
