//===- telemetry/RunReport.cpp - Machine-readable run reports --------------===//

#include "telemetry/RunReport.h"

#include "telemetry/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace spike;
using namespace spike::telemetry;

namespace {

std::optional<RunReport> failParse(std::string *Error, const char *Message) {
  if (Error && Error->empty())
    *Error = Message;
  return std::nullopt;
}

/// Stores \p V in \p Out if it is an exact integer in [0, 2^53];
/// false for anything else (a fraction, a negative, a huge or
/// non-numeric value), which must fail the parse.
bool asUint(const JsonValue &V, uint64_t &Out) {
  std::optional<uint64_t> U = V.exactUint();
  if (U)
    Out = *U;
  return U.has_value();
}

/// asUint on member \p Name of \p Obj; an absent member keeps \p Out.
bool readUint(const JsonValue &Obj, std::string_view Name, uint64_t &Out) {
  const JsonValue *V = Obj.find(Name);
  return !V || asUint(*V, Out);
}

/// readUint for the signed fields whose -1 (or absence) means "none".
bool readIndex(const JsonValue &Obj, std::string_view Name, int64_t &Out) {
  const JsonValue *V = Obj.find(Name);
  uint64_t U = 0;
  if (!V || (V->isNumber() && V->Num == -1))
    Out = -1;
  else if (asUint(*V, U))
    Out = int64_t(U);
  else
    return false;
  return true;
}

std::optional<RunReport> fromJson(const JsonValue &Doc, std::string *Error) {
  if (!Doc.isObject())
    return failParse(Error, "run report is not a JSON object");
  if (Doc.stringOr("schema", "") != "spike-run-report")
    return failParse(Error, "not a spike-run-report document");
  if (Doc.numberOr("version", 0) != 1)
    return failParse(Error, "unsupported spike-run-report version");

  RunReport Report;
  Report.Tool = Doc.stringOr("tool", "<unknown>");
  Report.TotalSeconds = Doc.numberOr("total_seconds", 0);

  // Optional, additive: build provenance of the writing binary.
  if (const JsonValue *Build = Doc.findObject("build"))
    for (const auto &[Key, Value] : Build->Members)
      if (Value.isString())
        Report.Build[Key] = Value.Str;

  if (const JsonValue *Phases = Doc.findArray("phases")) {
    for (const JsonValue &Item : Phases->Items) {
      if (!Item.isObject())
        return failParse(Error, "phase entry is not an object");
      RunReport::Phase Phase;
      Phase.Path = Item.stringOr("path", "");
      if (Phase.Path.empty())
        return failParse(Error, "phase entry without a path");
      Phase.Seconds = Item.numberOr("seconds", 0);
      if (!readUint(Item, "count", Phase.Count))
        return failParse(Error, "phase count is not an integer in [0, 2^53]");
      Report.Phases.push_back(std::move(Phase));
    }
  }

  auto ReadRegistry = [&](const char *Name,
                          std::map<std::string, uint64_t> &Into) {
    if (const JsonValue *Registry = Doc.findObject(Name))
      for (const auto &[Key, Value] : Registry->Members)
        if (!asUint(Value, Into[Key]))
          return false;
    return true;
  };
  if (!ReadRegistry("counters", Report.Counters) ||
      !ReadRegistry("gauges", Report.Gauges))
    return failParse(Error, "counter or gauge is not an integer in [0, 2^53]");

  // Optional, additive: absent in reports written without attribution
  // (and in every pre-attribution baseline on disk).
  if (const JsonValue *Transforms = Doc.findArray("transforms")) {
    for (const JsonValue &Item : Transforms->Items) {
      if (!Item.isObject())
        return failParse(Error, "transform entry is not an object");
      RunReport::Transform T;
      T.Pass = Item.stringOr("pass", "");
      T.Outcome = Item.stringOr("outcome", "");
      if (T.Pass.empty() || T.Outcome.empty())
        return failParse(Error, "transform entry without pass/outcome");
      if (!readIndex(Item, "address", T.Address))
        return failParse(Error, "transform address is not -1 or an integer "
                                "in [0, 2^53]");
      T.Routine = Item.stringOr("routine", "");
      T.Detail = Item.stringOr("detail", "");
      Report.Transforms.push_back(std::move(T));
    }
  }

  // Optional, additive: absent in reports written before the profiling
  // layer existed.
  if (const JsonValue *Histograms = Doc.findObject("histograms")) {
    for (const auto &[Name, Value] : Histograms->Members) {
      if (!Value.isObject())
        return failParse(Error, "histogram entry is not an object");
      RunReport::HistogramData H;
      if (!readUint(Value, "count", H.Count) ||
          !readUint(Value, "sum", H.Sum) || !readUint(Value, "min", H.Min) ||
          !readUint(Value, "max", H.Max))
        return failParse(Error, "histogram count/sum/min/max is not an "
                                "integer in [0, 2^53]");
      if (const JsonValue *Buckets = Value.findObject("buckets"))
        for (const auto &[Index, N] : Buckets->Members) {
          char *End = nullptr;
          unsigned long Bucket = std::strtoul(Index.c_str(), &End, 10);
          if (End != Index.c_str() + Index.size() ||
              Bucket >= Histogram::NumBuckets ||
              !asUint(N, H.Buckets[unsigned(Bucket)]))
            return failParse(Error, "malformed histogram bucket");
        }
      Report.Histograms.emplace(Name, std::move(H));
    }
  }

  // Optional, additive, same vintage as "histograms".
  if (const JsonValue *HotSpots = Doc.findArray("hotspots")) {
    for (const JsonValue &Item : HotSpots->Items) {
      if (!Item.isObject())
        return failParse(Error, "hotspot entry is not an object");
      RunReport::HotSpot H;
      H.Phase = Item.stringOr("phase", "");
      if (H.Phase.empty())
        return failParse(Error, "hotspot entry without a phase");
      H.Routine = Item.stringOr("routine", "");
      if (!readIndex(Item, "scc", H.Scc) || !readUint(Item, "pops", H.Pops) ||
          !readUint(Item, "iters", H.Iters) ||
          !readUint(Item, "set_ops", H.SetOps) || !readUint(Item, "ns", H.Ns))
        return failParse(Error, "hotspot scc/pops/iters/set_ops/ns is not an "
                                "integer in [0, 2^53]");
      Report.Hotspots.push_back(std::move(H));
    }
  }

  // Optional, additive: absent unless the resource governor degraded
  // something.
  if (const JsonValue *Degraded = Doc.findArray("degraded")) {
    for (const JsonValue &Item : Degraded->Items) {
      if (!Item.isObject())
        return failParse(Error, "degraded entry is not an object");
      RunReport::Degraded D;
      D.Routine = Item.stringOr("routine", "");
      D.Reason = Item.stringOr("reason", "");
      if (D.Routine.empty() || D.Reason.empty())
        return failParse(Error, "degraded entry without routine/reason");
      D.Phase = Item.stringOr("phase", "");
      Report.Degradations.push_back(std::move(D));
    }
  }
  return Report;
}

const char *kindName(DiffRow::Kind K) {
  switch (K) {
  case DiffRow::Kind::Counter:
    return "counter";
  case DiffRow::Kind::Gauge:
    return "gauge";
  case DiffRow::Kind::Phase:
    return "phase";
  case DiffRow::Kind::Transform:
    return "transform";
  case DiffRow::Kind::Degrade:
    return "degrade";
  case DiffRow::Kind::Histogram:
    return "histogram";
  }
  return "<unknown>";
}

/// True for histogram names that hold nanosecond samples — the naming
/// convention DESIGN.md fixes: schedule-dependent time histograms end
/// in "_ns" (or ".ns") and are diffed with phase-time semantics.
bool isTimeHistogram(const std::string &Name) {
  auto EndsWith = [&](const char *Suffix, size_t Len) {
    return Name.size() >= Len &&
           Name.compare(Name.size() - Len, Len, Suffix) == 0;
  };
  // The serve request histograms hold nanoseconds but are keyed by
  // command ("serve.latency.analyze"), so the prefix carries the unit.
  return EndsWith("_ns", 3) || EndsWith(".ns", 3) ||
         Name.rfind("serve.latency.", 0) == 0 ||
         Name.rfind("serve.queue_wait.", 0) == 0;
}

/// Serve-side health counters held to the degrade.* standard: ANY growth
/// regresses, zero baseline included.  A server that starts mis-parsing
/// requests or degrading replies is a correctness problem no 10% grace
/// threshold should hide.
bool isServeHealthCounter(const std::string &Name) {
  return Name == "serve.protocol_errors" || Name == "serve.degraded_replies";
}

/// True for registry entries the determinism contract documents as
/// schedule-dependent: steal accounting and per-lane utilization.  Two
/// runs at the same --jobs legitimately disagree about who stole what,
/// so these render in the diff but never count as regressions.
bool isScheduleDependent(const std::string &Name) {
  return Name == "pool.steals" || Name == "pool.batch_steals" ||
         Name.rfind("pool.lane.", 0) == 0;
}

/// Diffs one name->value registry into \p Diff.
void diffRegistry(const std::map<std::string, uint64_t> &Baseline,
                  const std::map<std::string, uint64_t> &Current,
                  DiffRow::Kind K, const DiffOptions &Opts,
                  ReportDiff &Diff) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> Merged;
  for (const auto &[Name, Value] : Baseline)
    Merged[Name].first = Value;
  for (const auto &[Name, Value] : Current)
    Merged[Name].second = Value;

  for (const auto &[Name, Values] : Merged) {
    const auto [Base, Cur] = Values;
    DiffRow Row;
    Row.K = K;
    Row.Name = Name;
    Row.Baseline = double(Base);
    Row.Current = double(Cur);
    Row.Ratio = Base == 0 ? (Cur == 0 ? 1.0 : double(Cur)) // growth over 0
                          : double(Cur) / double(Base);
    // Degradation counters regress on ANY growth, zero baseline
    // included: a run silently losing precision to its budget is the
    // regression these counters exist to catch.
    if (isScheduleDependent(Name))
      Row.Regression = false;
    else if (K == DiffRow::Kind::Counter && Opts.ExactCounts)
      Row.Regression = Cur != Base;
    else if (K == DiffRow::Kind::Counter &&
             (Name.rfind("degrade.", 0) == 0 || isServeHealthCounter(Name)))
      Row.Regression = Cur > Base;
    else
      Row.Regression = Base != 0 && double(Cur) > double(Base) *
                                                      (1 +
                                                       Opts.MaxCounterGrowth);
    Diff.Regressions += Row.Regression;
    Diff.Rows.push_back(std::move(Row));
  }
}

} // namespace

std::optional<RunReport>
spike::telemetry::parseRunReport(std::string_view Json, std::string *Error) {
  std::optional<JsonValue> Doc = parseJson(Json, Error);
  if (!Doc)
    return std::nullopt;
  return fromJson(*Doc, Error);
}

std::optional<RunReport>
spike::telemetry::readRunReportFile(const std::string &Path,
                                    std::string *Error) {
  std::optional<JsonValue> Doc = parseJsonFile(Path, Error);
  if (!Doc)
    return std::nullopt;
  return fromJson(*Doc, Error);
}

ReportDiff spike::telemetry::diffReports(const RunReport &Baseline,
                                         const RunReport &Current,
                                         const DiffOptions &Opts) {
  ReportDiff Diff;
  diffRegistry(Baseline.Counters, Current.Counters, DiffRow::Kind::Counter,
               Opts, Diff);
  diffRegistry(Baseline.Gauges, Current.Gauges, DiffRow::Kind::Gauge, Opts,
               Diff);

  std::map<std::string, std::pair<double, double>> Phases;
  for (const RunReport::Phase &P : Baseline.Phases)
    Phases[P.Path].first += P.Seconds;
  for (const RunReport::Phase &P : Current.Phases)
    Phases[P.Path].second += P.Seconds;
  for (const auto &[Path, Times] : Phases) {
    const auto [Base, Cur] = Times;
    DiffRow Row;
    Row.K = DiffRow::Kind::Phase;
    Row.Name = Path;
    Row.Baseline = Base;
    Row.Current = Cur;
    Row.Ratio = Base > 0 ? Cur / Base : (Cur > 0 ? Cur / 1e-9 : 1.0);
    Row.Regression = !Opts.ExactCounts && Base > Opts.TimeFloorSeconds &&
                     Cur > Opts.TimeFloorSeconds &&
                     Cur > Base * (1 + Opts.MaxTimeGrowth);
    Diff.Regressions += Row.Regression;
    Diff.Rows.push_back(std::move(Row));
  }

  // Transformation attribution: outcome-aware verdicts on the
  // per-(pass, outcome) record counts.  Compare only when both sides
  // carry attribution — a pre-attribution baseline has nothing to say.
  if (!Baseline.Transforms.empty() && !Current.Transforms.empty()) {
    std::map<std::string, uint64_t> BaseCounts = Baseline.transformCounts();
    std::map<std::string, uint64_t> CurCounts = Current.transformCounts();
    std::map<std::string, std::pair<uint64_t, uint64_t>> Merged;
    for (const auto &[Name, Value] : BaseCounts)
      Merged[Name].first = Value;
    for (const auto &[Name, Value] : CurCounts)
      Merged[Name].second = Value;
    for (const auto &[Name, Values] : Merged) {
      const auto [Base, Cur] = Values;
      DiffRow Row;
      Row.K = DiffRow::Kind::Transform;
      Row.Name = Name;
      Row.Baseline = double(Base);
      Row.Current = double(Cur);
      Row.Ratio = Base == 0 ? (Cur == 0 ? 1.0 : double(Cur))
                            : double(Cur) / double(Base);
      bool IsApplied = Name.size() >= 8 &&
                       Name.compare(Name.size() - 8, 8, ".applied") == 0;
      if (IsApplied)
        // Losing transformations is the regression; finding more is fine.
        Row.Regression = Cur < Base;
      else
        Row.Regression = Base != 0 && double(Cur) > double(Base) *
                                                        (1 +
                                                         Opts.MaxCounterGrowth);
      Diff.Regressions += Row.Regression;
      Diff.Rows.push_back(std::move(Row));
    }
  }

  // Histograms: percentile-aware.  A shifted distribution can hide a
  // regression from aggregate counters (same pop count, much fatter
  // tail), so p50 and p90 are compared directly at bucket granularity.
  {
    std::map<std::string, std::pair<const RunReport::HistogramData *,
                                    const RunReport::HistogramData *>>
        Merged;
    for (const auto &[Name, H] : Baseline.Histograms)
      Merged[Name].first = &H;
    for (const auto &[Name, H] : Current.Histograms)
      Merged[Name].second = &H;
    const RunReport::HistogramData Empty;
    for (const auto &[Name, Sides] : Merged) {
      const RunReport::HistogramData &Base =
          Sides.first ? *Sides.first : Empty;
      const RunReport::HistogramData &Cur =
          Sides.second ? *Sides.second : Empty;
      bool Timed = isTimeHistogram(Name);
      bool Judged = !isScheduleDependent(Name) && !(Timed && Opts.ExactCounts);
      // The phase floor expressed in this histogram's unit: sub-floor
      // time percentiles are noise exactly like sub-floor phases.
      double Floor = Timed ? Opts.TimeFloorSeconds * 1e9 : 0;
      double Growth = Timed ? Opts.MaxTimeGrowth : Opts.MaxCounterGrowth;

      // The mean is exact (sum / count), so it carries the standard
      // threshold semantics unmodified.
      {
        DiffRow Row;
        Row.K = DiffRow::Kind::Histogram;
        Row.Name = Name + ".mean";
        Row.Baseline =
            Base.Count == 0 ? 0 : double(Base.Sum) / double(Base.Count);
        Row.Current =
            Cur.Count == 0 ? 0 : double(Cur.Sum) / double(Cur.Count);
        Row.Ratio = Row.Baseline == 0
                        ? (Row.Current == 0 ? 1.0 : Row.Current)
                        : Row.Current / Row.Baseline;
        Row.Regression = Judged && Row.Baseline > Floor &&
                         Row.Current > Floor && Row.Baseline > 0 &&
                         Row.Current > Row.Baseline * (1 + Growth);
        Diff.Regressions += Row.Regression;
        Diff.Rows.push_back(std::move(Row));
      }

      // Percentiles are quantized to log2 bucket bounds, so one bucket
      // step doubles the value without any real shift; a percentile
      // regresses only past the threshold AND more than one bucket
      // step, which catches tail blowups the mean can hide without
      // flagging quantization noise.
      for (double P : {50.0, 90.0}) {
        DiffRow Row;
        Row.K = DiffRow::Kind::Histogram;
        Row.Name = Name + (P == 50.0 ? ".p50" : ".p90");
        Row.Baseline = double(Base.percentile(P));
        Row.Current = double(Cur.percentile(P));
        Row.Ratio = Row.Baseline == 0
                        ? (Row.Current == 0 ? 1.0 : Row.Current)
                        : Row.Current / Row.Baseline;
        Row.Regression = Judged && Row.Baseline > Floor &&
                         Row.Current > Floor && Row.Baseline > 0 &&
                         Row.Current > Row.Baseline * (1 + Growth) &&
                         Row.Current > Row.Baseline * 2.5;
        Diff.Regressions += Row.Regression;
        Diff.Rows.push_back(std::move(Row));
      }
    }
  }

  // Degradation records: unlike attribution they are always written
  // when present, so an empty baseline genuinely means "nothing was
  // degraded" and any current degradation is a new one.
  if (!Baseline.Degradations.empty() || !Current.Degradations.empty()) {
    std::map<std::string, uint64_t> BaseCounts = Baseline.degradeCounts();
    std::map<std::string, uint64_t> CurCounts = Current.degradeCounts();
    std::map<std::string, std::pair<uint64_t, uint64_t>> Merged;
    for (const auto &[Name, Value] : BaseCounts)
      Merged[Name].first = Value;
    for (const auto &[Name, Value] : CurCounts)
      Merged[Name].second = Value;
    for (const auto &[Name, Values] : Merged) {
      const auto [Base, Cur] = Values;
      DiffRow Row;
      Row.K = DiffRow::Kind::Degrade;
      Row.Name = Name;
      Row.Baseline = double(Base);
      Row.Current = double(Cur);
      Row.Ratio = Base == 0 ? (Cur == 0 ? 1.0 : double(Cur))
                            : double(Cur) / double(Base);
      Row.Regression = Cur > Base;
      Diff.Regressions += Row.Regression;
      Diff.Rows.push_back(std::move(Row));
    }
  }
  return Diff;
}

std::string ReportDiff::str() const {
  std::string Out;
  char Line[256];
  for (const DiffRow &Row : Rows) {
    if (Row.Baseline == Row.Current && !Row.Regression)
      continue; // Unchanged quantities would drown the signal.
    if (Row.K == DiffRow::Kind::Phase)
      std::snprintf(Line, sizeof(Line),
                    "%s %-42s %12.6f -> %12.6f s  (x%.2f)%s\n",
                    kindName(Row.K), Row.Name.c_str(), Row.Baseline,
                    Row.Current, Row.Ratio,
                    Row.Regression ? "  REGRESSION" : "");
    else
      std::snprintf(Line, sizeof(Line),
                    "%s %-42s %12.0f -> %12.0f    (x%.2f)%s\n",
                    kindName(Row.K), Row.Name.c_str(), Row.Baseline,
                    Row.Current, Row.Ratio,
                    Row.Regression ? "  REGRESSION" : "");
    Out += Line;
  }
  std::snprintf(Line, sizeof(Line), "%u regression(s)\n", Regressions);
  Out += Line;
  return Out;
}
