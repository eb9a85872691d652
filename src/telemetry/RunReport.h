//===- telemetry/RunReport.h - Machine-readable run reports ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RunReport document: one JSON file per tool run holding the
/// session's phase breakdown (span aggregation), counters, and gauges —
/// the machine-readable form of the paper's Table 4/5-style stage
/// statistics.  Written by telemetry::runReportJson(), read back here,
/// and diffed by spike-profile --diff (and CI) for threshold-based
/// regression verdicts.
///
/// Schema (version 1):
///
/// \code
///   {
///     "schema": "spike-run-report",
///     "version": 1,
///     "tool": "spike-analyze",
///     "total_seconds": 1.234567,
///     "phases": [
///       {"path": "analyze/cfg.build", "seconds": 0.123, "count": 1},
///       ...
///     ],
///     "counters": {"psg.nodes": 4242, ...},
///     "gauges": {"analyze.memory.peak_bytes": 123456, ...},
///     "transforms": [
///       {"pass": "dead_def", "outcome": "applied", "address": 17,
///        "routine": "P1", "detail": "..."},
///       ...
///     ],
///     "degraded": [
///       {"routine": "P7", "reason": "deadline", "phase": "psg.phase1"},
///       ...
///     ]
///   }
/// \endcode
///
/// The "transforms" member is additive (still version 1): it appears only
/// when the optimizer ran with transformation attribution enabled, and
/// readers that predate it ignore it.  "degraded" is additive the same
/// way: present only when the resource governor degraded routines to
/// unknowable summaries (see support/Budget.h).
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TELEMETRY_RUNREPORT_H
#define SPIKE_TELEMETRY_RUNREPORT_H

#include "telemetry/Histogram.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spike {
namespace telemetry {

/// A parsed RunReport document.
struct RunReport {
  std::string Tool;
  double TotalSeconds = 0;

  /// The "build" provenance object (git/compiler/flags/type/sanitizer),
  /// verbatim.  Additive member: empty for reports written before build
  /// provenance existed.  Informational — never diffed — but
  /// spike-profile --diff prints a note when the two sides were produced
  /// by different binaries, since that alone explains most timing
  /// deltas.
  std::map<std::string, std::string> Build;

  struct Phase {
    std::string Path;
    double Seconds = 0;
    uint64_t Count = 0;
  };
  std::vector<Phase> Phases;

  std::map<std::string, uint64_t> Counters;
  std::map<std::string, uint64_t> Gauges;

  /// One parsed histogram: the summary moments plus the sparse log2
  /// bucket counts (bucket index -> count; see telemetry::Histogram for
  /// the bucketing function).  Additive member: empty for reports
  /// written before the profiling layer existed.
  struct HistogramData {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = 0;
    uint64_t Max = 0;
    std::map<unsigned, uint64_t> Buckets;

    /// Nearest-rank percentile at bucket granularity, mirroring
    /// Histogram::percentile(); 0 when empty.
    uint64_t percentile(double P) const {
      if (Count == 0)
        return 0;
      if (P < 0)
        P = 0;
      if (P > 100)
        P = 100;
      uint64_t Rank = uint64_t(P / 100.0 * double(Count - 1)) + 1;
      uint64_t Seen = 0;
      for (const auto &[Bucket, N] : Buckets) {
        Seen += N;
        if (Seen >= Rank) {
          uint64_t Hi = Histogram::bucketHi(Bucket);
          return Hi < Max ? Hi : Max;
        }
      }
      return Max;
    }
  };
  std::map<std::string, HistogramData> Histograms;

  /// One hot-spot attribution row (see telemetry::HotSpotRecord).
  /// Additive member, like Histograms.
  struct HotSpot {
    std::string Phase;
    std::string Routine;
    int64_t Scc = -1;
    uint64_t Pops = 0;
    uint64_t Iters = 0;
    uint64_t SetOps = 0;
    uint64_t Ns = 0;
  };
  std::vector<HotSpot> Hotspots;

  /// One optimizer decision with its justification (see
  /// telemetry::TransformRecord).  Empty unless the report was written
  /// with transformation attribution enabled.
  struct Transform {
    std::string Pass;
    std::string Outcome;
    int64_t Address = -1;
    std::string Routine;
    std::string Detail;
  };
  std::vector<Transform> Transforms;

  /// Record counts keyed "transform.<pass>.<outcome>" — the diffable
  /// aggregation of Transforms.
  std::map<std::string, uint64_t> transformCounts() const {
    std::map<std::string, uint64_t> Counts;
    for (const Transform &T : Transforms)
      ++Counts["transform." + T.Pass + "." + T.Outcome];
    return Counts;
  }

  /// One routine the resource governor degraded to an unknowable
  /// summary (see telemetry::DegradeRecord).  Empty on ungoverned runs
  /// and on governed runs that fit their budget.
  struct Degraded {
    std::string Routine;
    std::string Reason;
    std::string Phase;
  };
  std::vector<Degraded> Degradations;

  /// Record counts keyed "degrade.<reason>" — the diffable aggregation
  /// of Degradations.
  std::map<std::string, uint64_t> degradeCounts() const {
    std::map<std::string, uint64_t> Counts;
    for (const Degraded &D : Degradations)
      ++Counts["degrade." + D.Reason];
    return Counts;
  }

  /// Seconds of phase \p Path, or 0 if absent.
  double phaseSeconds(const std::string &Path) const {
    for (const Phase &P : Phases)
      if (P.Path == Path)
        return P.Seconds;
    return 0;
  }
};

/// Parses a RunReport from JSON text; rejects documents whose "schema"
/// is not "spike-run-report" or whose "version" is unknown.
std::optional<RunReport> parseRunReport(std::string_view Json,
                                        std::string *Error = nullptr);

/// Reads and parses \p Path.
std::optional<RunReport> readRunReportFile(const std::string &Path,
                                           std::string *Error = nullptr);

/// Thresholds for the regression verdict.
struct DiffOptions {
  /// A counter or gauge regresses when it grows by more than this
  /// fraction over a nonzero baseline.
  double MaxCounterGrowth = 0.10;

  /// A phase regresses when its time grows by more than this fraction...
  double MaxTimeGrowth = 0.25;

  /// ...and both sides are above this floor (sub-floor phases are noise).
  double TimeFloorSeconds = 0.01;

  /// Strict count mode: a counter regresses on any change, up or down,
  /// unless it is schedule-dependent, and times (phases, time-valued
  /// histograms) are never judged.
  bool ExactCounts = false;
};

/// One compared quantity.
struct DiffRow {
  enum class Kind { Counter, Gauge, Phase, Transform, Degrade, Histogram };
  Kind K = Kind::Counter;
  std::string Name;
  double Baseline = 0;
  double Current = 0;

  /// Current / Baseline; 1.0 when both are zero, +inf-ish growth is
  /// capped by the caller's rendering.
  double Ratio = 1.0;

  bool Regression = false;
};

/// The diff of two RunReports.
struct ReportDiff {
  std::vector<DiffRow> Rows;
  unsigned Regressions = 0;

  /// Human-readable rendering: one line per changed quantity, regressions
  /// flagged, then the verdict.
  std::string str() const;
};

/// Compares \p Current against \p Baseline.  Quantities missing from
/// either side are treated as zero on that side; growth over a zero
/// baseline never regresses (new counters appear whenever new code is
/// instrumented).  Transformation attribution diffs by
/// "transform.<pass>.<outcome>" count with an outcome-aware verdict: an
/// "applied" count that *drops* regresses (the optimizer lost a
/// transformation), a "rejected" count that grows beyond
/// MaxCounterGrowth regresses (summaries got weaker).
///
/// Degradation is held to a stricter standard: "degrade.*" counters and
/// the per-reason Degradations counts regress on ANY growth, zero
/// baseline included — a run that silently starts losing precision to
/// its budget is exactly the regression these records exist to catch.
/// The serve health counters "serve.protocol_errors" and
/// "serve.degraded_replies" follow the same any-growth rule, and the
/// serve request histograms ("serve.latency.*", "serve.queue_wait.*")
/// hold nanoseconds and diff with the time semantics below despite not
/// ending in "_ns".
///
/// Histograms diff percentile-aware: each histogram present on either
/// side contributes "<name>.mean", "<name>.p50", and "<name>.p90" rows.
/// Time-valued histograms (names ending "_ns" or ".ns") use the
/// MaxTimeGrowth threshold above a TimeFloorSeconds-equivalent floor;
/// count-valued histograms use MaxCounterGrowth, zero baselines never
/// regressing — the same semantics as phases and counters respectively.
/// The mean is exact and carries the thresholds unmodified; p50/p90 are
/// quantized to log2 bucket bounds and additionally require more than
/// one bucket step to regress.
///
/// With DiffOptions::ExactCounts, counters must be equal (the thresholds
/// above do not apply to them) and no time regresses; gauges, count-valued
/// histograms, transforms and degradations keep the verdicts above.
///
/// Schedule-dependent quantities — steal accounting ("pool.steals",
/// "pool.batch_steals") and per-lane utilization ("pool.lane.*") — are
/// rendered for inspection but never count as regressions: two runs at
/// the same --jobs legitimately disagree about who stole what.
ReportDiff diffReports(const RunReport &Baseline, const RunReport &Current,
                       const DiffOptions &Opts = {});

} // namespace telemetry
} // namespace spike

#endif // SPIKE_TELEMETRY_RUNREPORT_H
