//===- tools/spike-profile.cpp - Hot-spot profile reader -------------------===//
//
// Reads a spike-run-report JSON document (written by any tool's
// --metrics flag) and renders the profiling layer's view of it: ranked
// hot-SCC and hot-routine tables, histogram summaries, and per-phase
// attribution coverage.  Can also re-export the report as folded stacks
// (speedscope / inferno flamegraph input) and diff two reports.
//
//   spike-profile report.json [--topk N] [--folded <out>]
//   spike-profile --diff baseline.json current.json
//                 [--max-counter-growth f] [--max-time-growth f]
//                 [--time-floor s] [--exact-counts] [--warn-only]
//
// The diff reports counter deltas, per-phase time ratios, and a
// threshold-based regression verdict (telemetry::diffReports: a counter
// regresses when it grows more than --max-counter-growth, default 0.10,
// over a nonzero baseline; a phase when both runs spend more than
// --time-floor seconds, default 0.01, in it and the current run is more
// than --max-time-growth, default 0.25, slower; histogram percentiles
// must move more than one log2 bucket).  Reports from different builds
// get a note up front.  --exact-counts makes the diff strict on counts:
// every counter must be equal on both sides except the schedule-dependent
// steal and lane accounting, and times are not judged.
//
// A report whose run degraded routines to unknowable summaries (budget
// blows) is flagged prominently: its hot-spot attribution describes the
// degraded run, not the full-precision one.
//
// Exit status: 0 ok (or --warn-only), 1 diff regressions, 2 usage or
// unparseable input.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"

#include "telemetry/RunReport.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace spike;
using namespace spike::telemetry;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s <report.json> [--topk <n>] [--folded <out>]\n"
               "       %s --diff <baseline.json> <current.json> "
               "[--max-counter-growth <fraction>] "
               "[--max-time-growth <fraction>] [--time-floor <seconds>] "
               "[--exact-counts] [--warn-only]\n",
               Prog, Prog);
  return 2;
}

std::optional<RunReport> load(const std::string &Path) {
  std::string Error;
  std::optional<RunReport> Report = readRunReportFile(Path, &Error);
  if (!Report)
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
  return Report;
}

/// Prints the degraded-run banner when the profile lost precision to its
/// budget.  The attribution below describes the degraded run, and a
/// reader comparing profiles must know that before trusting a delta.
void printDegradedBanner(const RunReport &Report) {
  uint64_t BudgetBlows = 0;
  if (auto It = Report.Counters.find("degrade.budget_blows");
      It != Report.Counters.end())
    BudgetBlows = It->second;
  if (Report.Degradations.empty() && BudgetBlows == 0)
    return;
  std::printf("!! DEGRADED PROFILE: %zu routine(s) degraded to unknowable "
              "summaries",
              Report.Degradations.size());
  if (BudgetBlows != 0)
    std::printf(", %llu budget blow(s)", (unsigned long long)BudgetBlows);
  std::printf("\n");
  for (const auto &[Key, Count] : Report.degradeCounts())
    std::printf("!!   %s = %llu\n", Key.c_str(), (unsigned long long)Count);
  std::printf("!! hot-spot attribution below reflects the degraded run\n");
}

std::string formatMs(uint64_t Ns) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%.3f", double(Ns) / 1e6);
  return Buffer;
}

/// The ranked hot-SCC table: group-granularity hotspot rows (empty
/// Routine), by measured time descending.  Ties (all-zero times in a
/// scrubbed or very fast run) fall back to pops, then to the
/// deterministic (phase, scc) identity.
void printHotSccs(const RunReport &Report, unsigned TopK) {
  std::vector<const RunReport::HotSpot *> Rows;
  for (const RunReport::HotSpot &H : Report.Hotspots)
    if (H.Routine.empty() && H.Scc >= 0)
      Rows.push_back(&H);
  if (Rows.empty())
    return;
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const RunReport::HotSpot *A, const RunReport::HotSpot *B) {
                     if (A->Ns != B->Ns)
                       return A->Ns > B->Ns;
                     if (A->Pops != B->Pops)
                       return A->Pops > B->Pops;
                     if (A->Phase != B->Phase)
                       return A->Phase < B->Phase;
                     return A->Scc < B->Scc;
                   });
  std::printf("\nhot SCC groups (top %u of %zu):\n", TopK, Rows.size());
  std::printf("  %-42s %5s %10s %6s %10s %10s\n", "phase", "scc", "pops",
              "iters", "set_ops", "ms");
  for (size_t I = 0; I < Rows.size() && I < TopK; ++I) {
    const RunReport::HotSpot &H = *Rows[I];
    std::printf("  %-42s %5lld %10llu %6llu %10llu %10s\n", H.Phase.c_str(),
                (long long)H.Scc, (unsigned long long)H.Pops,
                (unsigned long long)H.Iters, (unsigned long long)H.SetOps,
                formatMs(H.Ns).c_str());
  }
}

/// The ranked hot-routine table: routine-granularity rows aggregated by
/// name across phases and groups, by attributed time descending (pops,
/// then name, break ties).
void printHotRoutines(const RunReport &Report, unsigned TopK) {
  struct Agg {
    uint64_t Pops = 0;
    uint64_t Ns = 0;
  };
  std::map<std::string, Agg> ByRoutine;
  for (const RunReport::HotSpot &H : Report.Hotspots)
    if (!H.Routine.empty()) {
      Agg &A = ByRoutine[H.Routine];
      A.Pops += H.Pops;
      A.Ns += H.Ns;
    }
  if (ByRoutine.empty())
    return;
  std::vector<std::pair<std::string, Agg>> Rows(ByRoutine.begin(),
                                                ByRoutine.end());
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const auto &A, const auto &B) {
                     if (A.second.Ns != B.second.Ns)
                       return A.second.Ns > B.second.Ns;
                     if (A.second.Pops != B.second.Pops)
                       return A.second.Pops > B.second.Pops;
                     return A.first < B.first;
                   });
  std::printf("\nhot routines (top %u of %zu):\n", TopK, Rows.size());
  std::printf("  %-42s %10s %10s\n", "routine", "pops", "ms");
  for (size_t I = 0; I < Rows.size() && I < TopK; ++I)
    std::printf("  %-42s %10llu %10s\n", Rows[I].first.c_str(),
                (unsigned long long)Rows[I].second.Pops,
                formatMs(Rows[I].second.Ns).c_str());
}

/// The histogram summary: moments and nearest-rank percentiles of every
/// recorded distribution, in name order.
void printHistograms(const RunReport &Report) {
  if (Report.Histograms.empty())
    return;
  std::printf("\nhistograms:\n");
  std::printf("  %-34s %10s %12s %12s %12s %12s\n", "name", "count", "mean",
              "p50", "p90", "max");
  for (const auto &[Name, H] : Report.Histograms) {
    double Mean = H.Count == 0 ? 0 : double(H.Sum) / double(H.Count);
    std::printf("  %-34s %10llu %12.1f %12llu %12llu %12llu\n", Name.c_str(),
                (unsigned long long)H.Count, Mean,
                (unsigned long long)H.percentile(50),
                (unsigned long long)H.percentile(90),
                (unsigned long long)H.Max);
  }
}

/// Per-phase attribution coverage: how much of each instrumented span's
/// wall time the group rows account for.  At --jobs=1 the attributed
/// sum approaches the span total; at higher job counts attributed CPU
/// time legitimately exceeds the span's wall time.
void printCoverage(const RunReport &Report) {
  struct Agg {
    uint64_t Ns = 0;
    uint64_t Pops = 0;
  };
  std::map<std::string, Agg> ByPhase;
  for (const RunReport::HotSpot &H : Report.Hotspots)
    if (H.Routine.empty() || H.Scc < 0) {
      Agg &A = ByPhase[H.Phase];
      A.Ns += H.Ns;
      A.Pops += H.Pops;
    }
  if (ByPhase.empty())
    return;
  std::printf("\nattribution coverage (attributed vs span wall time):\n");
  std::printf("  %-42s %10s %12s %12s %8s\n", "phase", "pops",
              "attributed ms", "span ms", "cover");
  for (const auto &[Phase, A] : ByPhase) {
    double SpanSeconds = Report.phaseSeconds(Phase);
    uint64_t SpanNs = uint64_t(SpanSeconds * 1e9 + 0.5);
    double Cover = SpanNs == 0 ? 0 : 100.0 * double(A.Ns) / double(SpanNs);
    std::printf("  %-42s %10llu %12s %12s %7.1f%%\n", Phase.c_str(),
                (unsigned long long)A.Pops, formatMs(A.Ns).c_str(),
                formatMs(SpanNs).c_str(), Cover);
  }
}

/// Re-exports a parsed report as folded stacks, through the same
/// renderer live sessions use.
bool writeFolded(const RunReport &Report, const std::string &Path) {
  std::vector<PhaseRow> Rows;
  Rows.reserve(Report.Phases.size());
  for (const RunReport::Phase &P : Report.Phases)
    Rows.push_back({P.Path, P.Seconds, P.Count});
  std::vector<HotSpotRecord> Spots;
  Spots.reserve(Report.Hotspots.size());
  for (const RunReport::HotSpot &H : Report.Hotspots)
    Spots.push_back({H.Phase, H.Routine, H.Scc, H.Pops, H.Iters, H.SetOps,
                     H.Ns});
  std::string Text = foldedStacks(Report.Tool, Rows, Spots);
  if (!writeTextFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  std::printf("\nfolded stacks written to %s (%zu bytes)\n", Path.c_str(),
              Text.size());
  return true;
}

int runReport(const std::string &Path, unsigned TopK,
              const std::string &FoldedPath) {
  std::optional<RunReport> Report = load(Path);
  if (!Report)
    return 2;
  std::printf("profile: %s (%s, %.4f s total)\n", Path.c_str(),
              Report->Tool.c_str(), Report->TotalSeconds);
  printDegradedBanner(*Report);
  printHotSccs(*Report, TopK);
  printHotRoutines(*Report, TopK);
  printHistograms(*Report);
  printCoverage(*Report);
  if (Report->Hotspots.empty() && Report->Histograms.empty())
    std::printf("no profiling data: the run predates the profiling layer "
                "or recorded no solver work\n");
  if (!FoldedPath.empty() && !writeFolded(*Report, FoldedPath))
    return 2;
  return 0;
}

int runDiff(const std::string &BaselinePath, const std::string &CurrentPath,
            const DiffOptions &Opts, bool WarnOnly) {
  std::optional<RunReport> Baseline = load(BaselinePath);
  if (!Baseline)
    return 2;
  std::optional<RunReport> Current = load(CurrentPath);
  if (!Current)
    return 2;
  std::printf("baseline: %s (%s, %.4f s)\n", BaselinePath.c_str(),
              Baseline->Tool.c_str(), Baseline->TotalSeconds);
  printDegradedBanner(*Baseline);
  std::printf("current:  %s (%s, %.4f s)\n", CurrentPath.c_str(),
              Current->Tool.c_str(), Current->TotalSeconds);
  printDegradedBanner(*Current);

  // Different binaries explain most timing deltas on their own; say so
  // up front (informational — never a regression by itself).
  if (!Baseline->Build.empty() && !Current->Build.empty() &&
      Baseline->Build != Current->Build) {
    auto Field = [](const RunReport &R, const char *K) {
      auto It = R.Build.find(K);
      return It == R.Build.end() ? std::string("?") : It->second;
    };
    std::printf("note: reports come from different builds "
                "(baseline %s/%s/%s, current %s/%s/%s)\n",
                Field(*Baseline, "git").c_str(),
                Field(*Baseline, "type").c_str(),
                Field(*Baseline, "sanitizer").c_str(),
                Field(*Current, "git").c_str(),
                Field(*Current, "type").c_str(),
                Field(*Current, "sanitizer").c_str());
  }

  ReportDiff Diff = diffReports(*Baseline, *Current, Opts);
  std::fputs(Diff.str().c_str(), stdout);

  if (Diff.Regressions != 0 && WarnOnly)
    std::printf("warn-only: exit status suppressed\n");
  return Diff.Regressions != 0 && !WarnOnly ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-profile");
  std::vector<std::string> Paths;
  bool DiffMode = false, WarnOnly = false;
  unsigned TopK = 10;
  std::string FoldedPath;
  DiffOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--diff") == 0)
      DiffMode = true;
    else if (std::strcmp(Argv[I], "--warn-only") == 0)
      WarnOnly = true;
    else if (std::strcmp(Argv[I], "--exact-counts") == 0)
      Opts.ExactCounts = true;
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--topk")) {
      TopK = toolopts::parseUnsigned32(V, "--topk");
      if (TopK == 0) {
        std::fprintf(stderr, "error: --topk expects a positive count\n");
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--folded") == 0 && I + 1 < Argc)
      FoldedPath = Argv[++I];
    else if (std::strncmp(Argv[I], "--folded=", 9) == 0)
      FoldedPath = Argv[I] + 9;
    else if (const char *V =
                 toolopts::flagValue(Argc, Argv, I, "--max-counter-growth"))
      Opts.MaxCounterGrowth =
          toolopts::parseDouble(V, "--max-counter-growth", false);
    else if (const char *V =
                 toolopts::flagValue(Argc, Argv, I, "--max-time-growth"))
      Opts.MaxTimeGrowth = toolopts::parseDouble(V, "--max-time-growth", false);
    else if (const char *V = toolopts::flagValue(Argc, Argv, I, "--time-floor"))
      Opts.TimeFloorSeconds = toolopts::parseDouble(V, "--time-floor", false);
    else if (Argv[I][0] == '-')
      return usage(Argv[0]);
    else
      Paths.push_back(Argv[I]);
  }

  if (DiffMode) {
    if (Paths.size() != 2)
      return usage(Argv[0]);
    return runDiff(Paths[0], Paths[1], Opts, WarnOnly);
  }
  if (Paths.size() != 1)
    return usage(Argv[0]);
  return runReport(Paths[0], TopK, FoldedPath);
}
