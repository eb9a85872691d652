//===- telemetry/Telemetry.h - Pipeline instrumentation -------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-cost-when-disabled instrumentation for the whole pipeline.
///
/// Three cooperating pieces:
///
///   - **Spans**: hierarchical RAII scope timers.  Every instrumented
///     layer opens a Span around its unit of work ("cfg.build",
///     "psg.phase1", "opt.round", ...); nesting is tracked so a span's
///     slash-joined ancestor path ("opt.pipeline/opt.round/analyze")
///     names one row of the paper's stage breakdowns.  The raw events
///     render as Chrome trace-event / Perfetto JSON (traceJson), the
///     per-path aggregation as the "phases" array of a RunReport.
///
///   - **Counters and gauges**: a typed registry of named uint64
///     measurements.  Counters accumulate monotonically (worklist pops,
///     node evaluations, PSG nodes built, instructions deleted) and are
///     deterministic across identical runs; gauges record last-value or
///     high-watermark readings (peak analysis bytes) and may be
///     time-derived.
///
///   - **Session**: owns the above for one tool run.  A Session becomes
///     observable by installing it as the process-wide *active* session
///     (SessionScope); all instrumentation helpers are no-ops — no
///     allocation, no clock read, no output — while no session is
///     active, so production code pays one pointer test per site.
///
/// Like the rest of the repo, sessions are single-threaded, and the
/// active session is per thread: a pool task sees none unless it
/// installs a session of its own.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TELEMETRY_TELEMETRY_H
#define SPIKE_TELEMETRY_TELEMETRY_H

#include "telemetry/Histogram.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace spike {
namespace telemetry {

/// One recorded span: a named interval with a parent link.
struct SpanEvent {
  std::string Name;

  /// Index of the enclosing span in Session::spans(), or -1 for a root.
  int32_t Parent = -1;

  /// Trace row: 0 for a span the session opened, else the track
  /// Session::adoptSpans gave it, so spans that ran in parallel on other
  /// threads do not overlap on one row of the trace.
  uint32_t Track = 0;

  /// Nanoseconds since the session epoch.
  uint64_t StartNs = 0;

  /// Duration; meaningful once Open is false.
  uint64_t DurNs = 0;

  bool Open = true;
};

/// One row of the per-path phase aggregation: total seconds and entry
/// count of every span whose slash-joined ancestor path is \p Path.
struct PhaseRow {
  std::string Path;
  double Seconds = 0;
  uint64_t Count = 0;
};

/// One optimizer decision with its justification: a pass either applied
/// a transformation or rejected a candidate, and Detail names the
/// summary facts behind the verdict.  Collected per session (opt-in via
/// PipelineOptions::AttributeTransforms), rendered as the "transforms"
/// array of a RunReport, and queryable via `spike-explain
/// --why-transformed`.
struct TransformRecord {
  std::string Pass;    ///< "dead_def", "spill", "save_restore", ...
  std::string Outcome; ///< "applied" or "rejected".

  /// Instruction address the decision anchors to, or -1 (aggregate).
  int64_t Address = -1;

  std::string Routine; ///< Routine name, "" if whole-image.
  std::string Detail;  ///< The justifying facts, human-readable.
};

/// One row of the solver hot-spot attribution: the cost a phase charged
/// to one SCC group (Routine empty) or one routine within its group.
/// Collected after every parallel join in group-id order, rendered as
/// the additive "hotspots" array of a RunReport, and ranked by
/// `spike-profile --topk`.
///
/// Determinism contract: every field except Ns is bit-identical across
/// --jobs; Ns is measured wall time and therefore schedule-dependent
/// (tests scrub it the way they already scrub span seconds).  Per-phase
/// routine Ns values sum (within rounding) to their group's Ns, and
/// group Ns values sum to the enclosing span's measured time, so the
/// attribution is a partition, not a sample.
struct HotSpotRecord {
  std::string Phase;   ///< Span path of the charging phase.
  std::string Routine; ///< Routine name; "" for a group-level row.
  int64_t Scc = -1;    ///< SCC group id within the phase, -1 if none.
  uint64_t Pops = 0;   ///< Worklist pops attributed.
  uint64_t Iters = 0;  ///< Fixpoint iterations (passes over the group).
  uint64_t SetOps = 0; ///< RegSet/SlotSet operations attributed.
  uint64_t Ns = 0;     ///< Attributed solve time (schedule-dependent).
};

/// One soundness-preserving degradation the resource governor forced: a
/// routine collapsed to a Section 3.5 unknowable summary because its
/// analysis blew the budget.  Rendered as the "degraded" array of a
/// RunReport and diffed by spike-profile --diff, where *any* growth is
/// flagged as a regression (precision silently lost is the failure mode
/// these records exist to catch).
struct DegradeRecord {
  std::string Routine; ///< Routine name.
  std::string Reason;  ///< Blown verdict: "deadline", "memory", ...
  std::string Phase;   ///< Solver phase that blew, "" if unknown.
};

/// All telemetry of one tool run.
class Session {
public:
  explicit Session(std::string Tool) : Tool(std::move(Tool)) {
    Epoch = Clock::now();
  }

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const std::string &tool() const { return Tool; }

  /// Adds \p Delta to counter \p Name (creating it at zero).
  void add(std::string_view Name, uint64_t Delta) {
    auto It = Counters.find(Name);
    if (It == Counters.end())
      Counters.emplace(std::string(Name), Delta);
    else
      It->second += Delta;
  }

  /// Returns counter \p Name, or 0 if never touched.
  uint64_t counter(std::string_view Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  /// Overwrites gauge \p Name.
  void set(std::string_view Name, uint64_t Value) {
    auto It = Gauges.find(Name);
    if (It == Gauges.end())
      Gauges.emplace(std::string(Name), Value);
    else
      It->second = Value;
  }

  /// Raises gauge \p Name to \p Value if below it (high-watermark).
  void high(std::string_view Name, uint64_t Value) {
    auto It = Gauges.find(Name);
    if (It == Gauges.end())
      Gauges.emplace(std::string(Name), Value);
    else if (It->second < Value)
      It->second = Value;
  }

  /// Returns gauge \p Name, or 0 if never set.
  uint64_t gauge(std::string_view Name) const {
    auto It = Gauges.find(Name);
    return It == Gauges.end() ? 0 : It->second;
  }

  using Registry = std::map<std::string, uint64_t, std::less<>>;
  const Registry &counters() const { return Counters; }
  const Registry &gauges() const { return Gauges; }

  /// Adds one sample to histogram \p Name (creating it empty).
  void record(std::string_view Name, uint64_t Value) {
    histogramFor(Name).record(Value);
  }

  /// Merges a locally accumulated histogram into histogram \p Name —
  /// how per-group histograms built inside parallel tasks reach the
  /// session (serially, after the join, in group-id order).
  void mergeHistogram(std::string_view Name, const Histogram &H) {
    histogramFor(Name).merge(H);
  }

  /// Histogram \p Name, or null if never touched.
  const Histogram *histogram(std::string_view Name) const {
    auto It = Histograms.find(Name);
    return It == Histograms.end() ? nullptr : &It->second;
  }

  using HistogramRegistry = std::map<std::string, Histogram, std::less<>>;
  const HistogramRegistry &histograms() const { return Histograms; }

  /// Appends one hot-spot attribution row.
  void addHotSpot(HotSpotRecord Record) {
    HotSpots.push_back(std::move(Record));
  }

  const std::vector<HotSpotRecord> &hotspots() const { return HotSpots; }

  /// Appends one transformation-attribution record.
  void addTransform(TransformRecord Record) {
    Transforms.push_back(std::move(Record));
  }

  const std::vector<TransformRecord> &transforms() const {
    return Transforms;
  }

  /// Appends one budget-degradation record.
  void addDegrade(DegradeRecord Record) {
    Degrades.push_back(std::move(Record));
  }

  const std::vector<DegradeRecord> &degrades() const { return Degrades; }

  /// Opens a span named \p Name nested under the innermost open span.
  /// Returns its id for endSpan().
  uint32_t beginSpan(std::string_view Name);

  /// Closes span \p Id (and, defensively, any span opened after it that
  /// was leaked open).
  void endSpan(uint32_t Id);

  const std::vector<SpanEvent> &spans() const { return Spans; }

  /// Appends the spans of \p From, a session created after this one, on
  /// trace row \p Track: its roots nest under this session's innermost
  /// open span and its start times move to this session's clock.
  /// Nothing else of \p From is copied.
  void adoptSpans(const Session &From, uint32_t Track);

  /// Seconds recorded for closed span \p Id.
  double spanSeconds(uint32_t Id) const {
    return double(Spans[Id].DurNs) * 1e-9;
  }

  /// Wall-clock seconds since the session was created.
  double elapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }

  /// Aggregates closed spans by slash-joined ancestor path, sorted by
  /// path.
  std::vector<PhaseRow> phaseRows() const;

  /// The slash-joined ancestor path of span \p Id ("a/b/c").
  std::string spanPath(uint32_t Id) const;

  /// The path of the innermost open span, or "" outside any span —
  /// what a hot-spot record's Phase should name so folded stacks can
  /// attach routine leaves under the right frame.
  std::string currentPath() const {
    return OpenStack.empty() ? std::string() : spanPath(OpenStack.back());
  }

private:
  using Clock = std::chrono::steady_clock;

  uint64_t nowNs() const {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - Epoch)
                        .count());
  }

  Histogram &histogramFor(std::string_view Name) {
    auto It = Histograms.find(Name);
    if (It == Histograms.end())
      It = Histograms.emplace(std::string(Name), Histogram()).first;
    return It->second;
  }

  std::string Tool;
  Clock::time_point Epoch;
  Registry Counters;
  Registry Gauges;
  HistogramRegistry Histograms;
  std::vector<TransformRecord> Transforms;
  std::vector<DegradeRecord> Degrades;
  std::vector<HotSpotRecord> HotSpots;
  std::vector<SpanEvent> Spans;
  std::vector<uint32_t> OpenStack;
};

/// Returns the calling thread's active session, or null when telemetry
/// is disabled.
Session *active();

/// Installs a session as the calling thread's active one for a scope;
/// nests (the previous active session, if any, is restored on
/// destruction).
class SessionScope {
public:
  explicit SessionScope(Session &S);
  ~SessionScope();

  SessionScope(const SessionScope &) = delete;
  SessionScope &operator=(const SessionScope &) = delete;

private:
  Session *Previous;
};

/// Temporarily removes the calling thread's active session for a scope
/// (restored on destruction).  Sessions are single-threaded; code that
/// fans work out to pool tasks which may pass through instrumented
/// library calls (spike-serve's parallel query batches) pauses the
/// session first, because the calling thread runs tasks too: every
/// instrumentation site inside the region is then the same no-op it is
/// on a worker thread and in an untraced run — unconditionally, keeping
/// counters identical at every job count.
class SessionPause {
public:
  SessionPause();
  ~SessionPause();

  SessionPause(const SessionPause &) = delete;
  SessionPause &operator=(const SessionPause &) = delete;

private:
  Session *Previous;
};

/// RAII span charged to the active session; free when none is active.
class Span {
public:
  explicit Span(std::string_view Name) {
    if (Session *S = active()) {
      Owner = S;
      Id = S->beginSpan(Name);
    }
  }

  ~Span() {
    if (Owner)
      Owner->endSpan(Id);
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Session *Owner = nullptr;
  uint32_t Id = 0;
};

/// Adds \p Delta to counter \p Name of the active session, if any.
inline void count(std::string_view Name, uint64_t Delta = 1) {
  if (Session *S = active())
    S->add(Name, Delta);
}

/// Overwrites gauge \p Name of the active session, if any.
inline void gaugeSet(std::string_view Name, uint64_t Value) {
  if (Session *S = active())
    S->set(Name, Value);
}

/// Raises gauge \p Name of the active session, if any.
inline void gaugeHigh(std::string_view Name, uint64_t Value) {
  if (Session *S = active())
    S->high(Name, Value);
}

/// Adds one sample to histogram \p Name of the active session, if any.
/// Like count(), this is the only cost a disabled run pays: one pointer
/// test, no allocation, no clock read.
inline void record(std::string_view Name, uint64_t Value) {
  if (Session *S = active())
    S->record(Name, Value);
}

/// Merges a task-local histogram into the active session, if any.
inline void recordHistogram(std::string_view Name, const Histogram &H) {
  if (Session *S = active())
    if (!H.empty())
      S->mergeHistogram(Name, H);
}

/// Records a hot-spot attribution row on the active session, if any.
inline void hotspot(HotSpotRecord Record) {
  if (Session *S = active())
    S->addHotSpot(std::move(Record));
}

/// True when a session is active — solvers capture this *before* a
/// parallel loop to decide whether to pay for per-group clock reads
/// inside tasks (tasks themselves must never touch the session).
inline bool profiling() { return active() != nullptr; }

/// Records a transformation attribution on the active session, if any.
inline void attribute(TransformRecord Record) {
  if (Session *S = active())
    S->addTransform(std::move(Record));
}

/// Records a budget-degradation on the active session, if any.
inline void degrade(DegradeRecord Record) {
  if (Session *S = active())
    S->addDegrade(std::move(Record));
}

/// Renders the session's spans as a Chrome trace-event / Perfetto JSON
/// document ("traceEvents" complete events, microsecond timestamps).
std::string traceJson(const Session &S);

/// Renders the session as a RunReport JSON document (schema
/// "spike-run-report" version 1: tool, total_seconds, phases, counters,
/// gauges, and — additively — histograms and hotspots).  See
/// telemetry/RunReport.h for the reader and differ.
std::string runReportJson(const Session &S);

/// Renders phase rows plus hot-spot attribution as folded stacks — the
/// `stackcollapse` format flamegraph consumers (speedscope, inferno)
/// ingest: one `tool;frame;frame value` line per stack, values in
/// nanoseconds of *self* time (a frame's total minus its children's),
/// with hot routines appearing as leaf frames under their phase and
/// their time carved out of the phase's self time.  Line order is
/// path-sorted, so the document is deterministic up to the timing
/// values themselves.
std::string foldedStacks(const std::string &Tool,
                         const std::vector<PhaseRow> &Rows,
                         const std::vector<HotSpotRecord> &HotSpots);

/// foldedStacks() over a live session.
std::string foldedStacks(const Session &S);

/// Writes \p Contents to \p Path; false (with errno intact) on failure.
bool writeTextFile(const std::string &Path, const std::string &Contents);

} // namespace telemetry
} // namespace spike

#endif // SPIKE_TELEMETRY_TELEMETRY_H
