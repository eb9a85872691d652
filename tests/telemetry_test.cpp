//===- tests/telemetry_test.cpp - Telemetry layer tests --------------------===//
//
// Covers the instrumentation layer end to end: span hierarchy and phase
// aggregation, the Chrome trace-event and RunReport JSON documents
// (schema-checked through the in-tree JSON parser), counter determinism
// across identical runs, disabled-mode behavior, and the RunReport
// differ's thresholds.  (The disabled-mode allocation guarantee has its
// own binary: telemetry_noalloc_test.cpp.)
//
//===----------------------------------------------------------------------===//

#include "psg/Analyzer.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Json.h"
#include "telemetry/RunReport.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

using namespace spike;
using namespace spike::telemetry;

namespace {

//===----------------------------------------------------------------------===//
// Session, spans, registry
//===----------------------------------------------------------------------===//

TEST(TelemetrySession, CountersAndGauges) {
  Session S("test");
  S.add("a", 2);
  S.add("a", 3);
  S.set("g", 7);
  S.set("g", 4);
  S.high("h", 10);
  S.high("h", 3);
  EXPECT_EQ(S.counter("a"), 5u);
  EXPECT_EQ(S.counter("missing"), 0u);
  EXPECT_EQ(S.gauge("g"), 4u);
  EXPECT_EQ(S.gauge("h"), 10u);
}

TEST(TelemetrySession, SpanHierarchyAndPhaseRows) {
  Session S("test");
  uint32_t Outer = S.beginSpan("outer");
  uint32_t Inner1 = S.beginSpan("inner");
  S.endSpan(Inner1);
  uint32_t Inner2 = S.beginSpan("inner");
  S.endSpan(Inner2);
  S.endSpan(Outer);

  ASSERT_EQ(S.spans().size(), 3u);
  EXPECT_EQ(S.spans()[0].Parent, -1);
  EXPECT_EQ(S.spans()[1].Parent, 0);
  EXPECT_EQ(S.spans()[2].Parent, 0);
  EXPECT_EQ(S.spanPath(Inner2), "outer/inner");

  std::vector<PhaseRow> Rows = S.phaseRows();
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].Path, "outer");
  EXPECT_EQ(Rows[0].Count, 1u);
  EXPECT_EQ(Rows[1].Path, "outer/inner");
  EXPECT_EQ(Rows[1].Count, 2u);
  EXPECT_GE(Rows[0].Seconds, Rows[1].Seconds);
}

TEST(TelemetrySession, EndSpanClosesLeakedChildren) {
  Session S("test");
  uint32_t Outer = S.beginSpan("outer");
  S.beginSpan("leaked");
  S.endSpan(Outer); // Must close "leaked" too, not corrupt the stack.
  for (const SpanEvent &E : S.spans())
    EXPECT_FALSE(E.Open);
  uint32_t Next = S.beginSpan("next");
  S.endSpan(Next);
  EXPECT_EQ(S.spans().back().Parent, -1);
}

TEST(TelemetrySession, ScopeInstallsAndNests) {
  EXPECT_EQ(active(), nullptr);
  Session A("a");
  {
    SessionScope ScopeA(A);
    EXPECT_EQ(active(), &A);
    Session B("b");
    {
      SessionScope ScopeB(B);
      EXPECT_EQ(active(), &B);
      count("x");
    }
    EXPECT_EQ(active(), &A);
    count("x");
    EXPECT_EQ(B.counter("x"), 1u);
  }
  EXPECT_EQ(active(), nullptr);
  EXPECT_EQ(A.counter("x"), 1u);
}

TEST(TelemetrySession, AdoptSpansNestsThemOnTheirOwnTrack) {
  Session Host("host");
  uint32_t Outer = Host.beginSpan("outer");
  Session Query("query");
  uint32_t A = Query.beginSpan("a");
  Query.endSpan(Query.beginSpan("b"));
  Query.endSpan(A);
  Host.adoptSpans(Query, 3);
  Host.endSpan(Outer);

  ASSERT_EQ(Host.spans().size(), 3u);
  EXPECT_EQ(Host.spanPath(2), "outer/a/b");
  EXPECT_EQ(Host.spans()[0].Track, 0u);
  EXPECT_EQ(Host.spans()[1].Track, 3u);
  EXPECT_GE(Host.spans()[1].StartNs, Host.spans()[0].StartNs);
  EXPECT_EQ(Host.spans()[1].DurNs, Query.spans()[0].DurNs);

  std::optional<JsonValue> Doc = parseJson(traceJson(Host));
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Events = Doc->findArray("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->Items.size(), 3u);
  for (const JsonValue &Event : Events->Items)
    EXPECT_EQ(Event.numberOr("tid", -1),
              Event.stringOr("name", "") == "outer" ? 1 : 4);
}

TEST(TelemetryHelpers, NoOpWhenDisabled) {
  ASSERT_EQ(active(), nullptr);
  // None of these may crash or observably do anything.
  count("nope", 5);
  gaugeSet("nope", 5);
  gaugeHigh("nope", 5);
  Span S("nope");
}

//===----------------------------------------------------------------------===//
// JSON documents
//===----------------------------------------------------------------------===//

TEST(TelemetryJson, TraceDocumentSchema) {
  Session S("tracer");
  {
    SessionScope Scope(S);
    Span Outer("outer");
    Span Inner("inner");
    count("c", 1);
  }

  std::string Error;
  std::optional<JsonValue> Doc = parseJson(traceJson(S), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  ASSERT_TRUE(Doc->isObject());
  EXPECT_EQ(Doc->stringOr("displayTimeUnit", ""), "ms");

  const JsonValue *Events = Doc->findArray("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->Items.size(), 2u);
  for (const JsonValue &Event : Events->Items) {
    ASSERT_TRUE(Event.isObject());
    EXPECT_EQ(Event.stringOr("ph", ""), "X");
    EXPECT_EQ(Event.numberOr("pid", -1), 1);
    EXPECT_EQ(Event.numberOr("tid", -1), 1);
    EXPECT_FALSE(Event.stringOr("name", "").empty());
    EXPECT_GE(Event.numberOr("ts", -1), 0);
    EXPECT_GE(Event.numberOr("dur", -1), 0);
  }

  const JsonValue *Other = Doc->findObject("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_EQ(Other->stringOr("tool", ""), "tracer");
}

TEST(TelemetryJson, RunReportRoundTrip) {
  Session S("rtt");
  {
    SessionScope Scope(S);
    Span Outer("outer");
    Span Inner("inner");
    count("counter.one", 41);
    count("counter.one");
    gaugeHigh("gauge.peak", 1 << 20);
  }

  std::string Error;
  std::optional<RunReport> Report =
      parseRunReport(runReportJson(S), &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  EXPECT_EQ(Report->Tool, "rtt");
  EXPECT_GT(Report->TotalSeconds, 0.0);
  EXPECT_EQ(Report->Counters.at("counter.one"), 42u);
  EXPECT_EQ(Report->Gauges.at("gauge.peak"), uint64_t(1) << 20);
  ASSERT_EQ(Report->Phases.size(), 2u);
  EXPECT_EQ(Report->Phases[0].Path, "outer");
  EXPECT_EQ(Report->Phases[1].Path, "outer/inner");
  EXPECT_EQ(Report->phaseSeconds("outer/inner"),
            Report->Phases[1].Seconds);
}

TEST(TelemetryJson, StringEscaping) {
  Session S("quote\"back\\slash\ttab");
  S.add("key\nwith\nnewlines", 1);
  std::string Error;
  std::optional<RunReport> Report =
      parseRunReport(runReportJson(S), &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  EXPECT_EQ(Report->Tool, "quote\"back\\slash\ttab");
  EXPECT_EQ(Report->Counters.count("key\nwith\nnewlines"), 1u);
}

TEST(TelemetryJson, ParserRejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(parseJson("", &Error).has_value());
  EXPECT_FALSE(parseJson("{", &Error).has_value());
  EXPECT_FALSE(parseJson("{\"a\":}", &Error).has_value());
  EXPECT_FALSE(parseJson("[1,2,]", &Error).has_value());
  EXPECT_FALSE(parseJson("{} trailing", &Error).has_value());
  EXPECT_FALSE(parseJson("\"unterminated", &Error).has_value());
  // Depth bomb: beyond MaxDepth must fail cleanly, not overflow.
  std::string Deep(500, '[');
  Deep += std::string(500, ']');
  EXPECT_FALSE(parseJson(Deep, &Error).has_value());
}

TEST(TelemetryJson, ParserAcceptsBasics) {
  std::string Error;
  std::optional<JsonValue> Doc = parseJson(
      R"({"s":"aA\n","n":-1.5e2,"b":true,"z":null,"a":[1,2]})",
      &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->stringOr("s", ""), "aA\n");
  EXPECT_EQ(Doc->numberOr("n", 0), -150.0);
  const JsonValue *B = Doc->find("b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->isBool() && B->B);
  const JsonValue *A = Doc->findArray("a");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Items.size(), 2u);
}

TEST(TelemetryJson, RunReportParserRejectsWrongSchema) {
  std::string Error;
  EXPECT_FALSE(parseRunReport("{}", &Error).has_value());
  EXPECT_FALSE(
      parseRunReport(R"({"schema":"other","version":1})", &Error)
          .has_value());
  EXPECT_FALSE(
      parseRunReport(R"({"schema":"spike-run-report","version":2})",
                     &Error)
          .has_value());
  EXPECT_TRUE(
      parseRunReport(R"({"schema":"spike-run-report","version":1})",
                     &Error)
          .has_value());
}

TEST(TelemetryJson, RunReportParserRejectsInexactIntegers) {
  // Every integer field takes an exact integer in [0, 2^53]; the address
  // and scc fields also take their -1 "none" sentinel.
  const std::string Head = R"({"schema":"spike-run-report","version":1,)";
  const std::vector<std::string> Fields = {
      R"("phases":[{"path":"a","seconds":0,"count":%}])",
      R"("counters":{"c":%})",
      R"("gauges":{"g":%})",
      R"("histograms":{"h":{"count":%}})",
      R"("histograms":{"h":{"sum":%}})",
      R"("histograms":{"h":{"min":%}})",
      R"("histograms":{"h":{"max":%}})",
      R"("histograms":{"h":{"buckets":{"3":%}}})",
      R"("hotspots":[{"phase":"p","pops":%}])",
      R"("hotspots":[{"phase":"p","iters":%}])",
      R"("hotspots":[{"phase":"p","set_ops":%}])",
      R"("hotspots":[{"phase":"p","ns":%}])",
      R"("hotspots":[{"phase":"p","scc":%}])",
      R"("transforms":[{"pass":"p","outcome":"o","address":%}])",
  };
  auto Parse = [&](const std::string &Field, const std::string &Value) {
    std::string Body = Field;
    Body.replace(Body.find('%'), 1, Value);
    std::string Error;
    bool Ok = parseRunReport(Head + Body + "}", &Error).has_value();
    EXPECT_EQ(Ok, Error.empty()) << Body;
    return Ok;
  };
  for (const std::string &Field : Fields) {
    EXPECT_TRUE(Parse(Field, "9007199254740992")) << Field;
    for (const char *Bad : {"2.5", "1e300", "\"7\""})
      EXPECT_FALSE(Parse(Field, Bad)) << Field << " " << Bad;
    bool Sentinel = Field.find("scc") != std::string::npos ||
                    Field.find("address") != std::string::npos;
    EXPECT_EQ(Parse(Field, "-1"), Sentinel) << Field;
  }
  std::optional<RunReport> R = parseRunReport(
      Head + R"("hotspots":[{"phase":"p","scc":-1,"pops":12}]})");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Hotspots[0].Scc, -1);
  EXPECT_EQ(R->Hotspots[0].Pops, 12u);
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

/// Runs the full analysis under a fresh session and returns its counters.
Session::Registry analyzeCounters(const Image &Img) {
  Session S("determinism");
  {
    SessionScope Scope(S);
    AnalysisResult Result = analyzeImage(Img);
    (void)Result;
  }
  return S.counters();
}

TEST(TelemetryDeterminism, IdenticalRunsProduceIdenticalCounters) {
  BenchmarkProfile Profile = scaledProfile(*findProfile("go"), 0.05);
  Image Img = generateCfgProgram(Profile);

  Session::Registry First = analyzeCounters(Img);
  Session::Registry Second = analyzeCounters(Img);
  EXPECT_FALSE(First.empty());
  EXPECT_EQ(First, Second);

  // The structural counters the paper's tables are built from must be
  // present and nonzero.
  for (const char *Name :
       {"cfg.routines", "cfg.blocks", "cfg.insts", "psg.nodes",
        "psg.edges", "psg.phase1.worklist_pops", "psg.phase1.edge_visits",
        "psg.phase2.worklist_pops"})
    EXPECT_GT(First[Name], 0u) << Name;
}

//===----------------------------------------------------------------------===//
// Diffing
//===----------------------------------------------------------------------===//

RunReport reportWith(std::map<std::string, uint64_t> Counters,
                     std::vector<RunReport::Phase> Phases = {}) {
  RunReport R;
  R.Tool = "test";
  R.Counters = std::move(Counters);
  R.Phases = std::move(Phases);
  return R;
}

TEST(TelemetryDiff, IdenticalReportsHaveNoRegressions) {
  RunReport R = reportWith({{"a", 10}, {"b", 0}},
                           {{"p", 1.0, 1}, {"q", 0.5, 2}});
  ReportDiff Diff = diffReports(R, R, DiffOptions());
  EXPECT_EQ(Diff.Regressions, 0u);
  EXPECT_NE(Diff.str().find("0 regression(s)"), std::string::npos);
}

TEST(TelemetryDiff, CounterGrowthBeyondThresholdRegresses) {
  DiffOptions Opts;
  Opts.MaxCounterGrowth = 0.10;
  RunReport Base = reportWith({{"a", 100}});

  ReportDiff Ok = diffReports(Base, reportWith({{"a", 110}}), Opts);
  EXPECT_EQ(Ok.Regressions, 0u);

  ReportDiff Bad = diffReports(Base, reportWith({{"a", 111}}), Opts);
  EXPECT_EQ(Bad.Regressions, 1u);
  EXPECT_NE(Bad.str().find("REGRESSION"), std::string::npos);

  // Shrinking is never a regression; growth over zero is never one
  // either (new instrumentation appears in new revisions).
  EXPECT_EQ(diffReports(Base, reportWith({{"a", 1}}), Opts).Regressions,
            0u);
  EXPECT_EQ(diffReports(reportWith({{"a", 0}}),
                        reportWith({{"a", 50}}), Opts)
                .Regressions,
            0u);
  EXPECT_EQ(diffReports(reportWith({}), reportWith({{"new", 5}}), Opts)
                .Regressions,
            0u);
}

TEST(TelemetryDiff, PhaseTimeUsesFloorAndThreshold) {
  DiffOptions Opts;
  Opts.MaxTimeGrowth = 0.25;
  Opts.TimeFloorSeconds = 0.01;

  auto PhaseReport = [](double Seconds) {
    RunReport R;
    R.Tool = "test";
    R.Phases.push_back({"solve", Seconds, 1});
    return R;
  };

  // Both sides under the floor: noise, never a regression.
  EXPECT_EQ(diffReports(PhaseReport(0.001), PhaseReport(0.009),
                        Opts)
                .Regressions,
            0u);
  // Above floor but within threshold.
  EXPECT_EQ(diffReports(PhaseReport(0.1), PhaseReport(0.12), Opts)
                .Regressions,
            0u);
  // Above floor and beyond threshold.
  EXPECT_EQ(diffReports(PhaseReport(0.1), PhaseReport(0.2), Opts)
                .Regressions,
            1u);
}

TEST(TelemetryDiff, TransformOutcomeAwareVerdict) {
  auto TransformReport = [](uint64_t Applied, uint64_t Rejected) {
    RunReport R;
    R.Tool = "test";
    for (uint64_t I = 0; I < Applied; ++I)
      R.Transforms.push_back({"dead_def", "applied", int64_t(I), "f", "d"});
    for (uint64_t I = 0; I < Rejected; ++I)
      R.Transforms.push_back({"dead_def", "rejected", int64_t(I), "f", "d"});
    return R;
  };
  DiffOptions Opts;
  Opts.MaxCounterGrowth = 0.10;

  // Same counts: clean.
  EXPECT_EQ(diffReports(TransformReport(10, 20), TransformReport(10, 20),
                        Opts)
                .Regressions,
            0u);
  // Losing an applied transformation regresses, however small the drop.
  EXPECT_EQ(diffReports(TransformReport(10, 20), TransformReport(9, 20),
                        Opts)
                .Regressions,
            1u);
  // Gaining applied transformations is an improvement, not a regression.
  EXPECT_EQ(diffReports(TransformReport(10, 20), TransformReport(15, 20),
                        Opts)
                .Regressions,
            0u);
  // Rejections growing within the counter threshold: noise.
  EXPECT_EQ(diffReports(TransformReport(10, 20), TransformReport(10, 22),
                        Opts)
                .Regressions,
            0u);
  // Rejections growing beyond it: summaries got weaker.
  EXPECT_EQ(diffReports(TransformReport(10, 20), TransformReport(10, 25),
                        Opts)
                .Regressions,
            1u);
  // A baseline without attribution has nothing to say about transforms.
  EXPECT_EQ(diffReports(reportWith({{"a", 1}}), TransformReport(0, 99),
                        Opts)
                .Regressions,
            0u);
}

TEST(TelemetryJson, TransformRecordsRoundTrip) {
  Session S("attr");
  {
    SessionScope Scope(S);
    TransformRecord Record;
    Record.Pass = "dead_def";
    Record.Outcome = "applied";
    Record.Address = 42;
    Record.Routine = "P\"1"; // Exercises escaping.
    Record.Detail = "r3 is dead after the definition";
    attribute(Record);
    Record.Outcome = "rejected";
    Record.Address = -1; // Omitted from the document.
    attribute(std::move(Record));
  }
  ASSERT_EQ(S.transforms().size(), 2u);

  std::string Json = runReportJson(S);
  std::string Error;
  std::optional<RunReport> Report = parseRunReport(Json, &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  ASSERT_EQ(Report->Transforms.size(), 2u);
  EXPECT_EQ(Report->Transforms[0].Pass, "dead_def");
  EXPECT_EQ(Report->Transforms[0].Outcome, "applied");
  EXPECT_EQ(Report->Transforms[0].Address, 42);
  EXPECT_EQ(Report->Transforms[0].Routine, "P\"1");
  EXPECT_EQ(Report->Transforms[1].Address, -1);

  std::map<std::string, uint64_t> Counts = Report->transformCounts();
  EXPECT_EQ(Counts.at("transform.dead_def.applied"), 1u);
  EXPECT_EQ(Counts.at("transform.dead_def.rejected"), 1u);

  // A session with no attribution omits the member entirely.
  Session Empty("plain");
  {
    SessionScope Scope(Empty);
    count("c");
  }
  EXPECT_EQ(runReportJson(Empty).find("\"transforms\""),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

TEST(TelemetryHistogram, BucketingEdges) {
  EXPECT_EQ(Histogram::bucketFor(0), 0u);
  EXPECT_EQ(Histogram::bucketFor(1), 1u);
  EXPECT_EQ(Histogram::bucketFor(2), 2u);
  EXPECT_EQ(Histogram::bucketFor(3), 2u);
  EXPECT_EQ(Histogram::bucketFor(4), 3u);
  EXPECT_EQ(Histogram::bucketFor(7), 3u);
  EXPECT_EQ(Histogram::bucketFor(8), 4u);
  EXPECT_EQ(Histogram::bucketFor(uint64_t(1) << 62), 63u);
  EXPECT_EQ(Histogram::bucketFor(~uint64_t(0)), 63u);
  // Every bucket's bounds land back in that bucket.
  for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
    EXPECT_EQ(Histogram::bucketFor(Histogram::bucketLo(B)), B) << B;
    EXPECT_EQ(Histogram::bucketFor(Histogram::bucketHi(B)), B) << B;
  }
}

TEST(TelemetryHistogram, MomentsAndMerge) {
  Histogram H;
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0u);
  for (uint64_t V : {5, 0, 17, 1})
    H.record(V);
  EXPECT_FALSE(H.empty());
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 23u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 17u);
  EXPECT_EQ(H.mean(), 5u); // 23/4 rounded down.
  EXPECT_EQ(H.bucket(0), 1u); // the 0
  EXPECT_EQ(H.bucket(1), 1u); // the 1
  EXPECT_EQ(H.bucket(3), 1u); // the 5
  EXPECT_EQ(H.bucket(5), 1u); // the 17

  // Merging two halves equals recording everything into one — the
  // property the parallel join relies on.
  Histogram A, B, All;
  for (uint64_t V : {3, 9, 100}) {
    A.record(V);
    All.record(V);
  }
  for (uint64_t V : {0, 7}) {
    B.record(V);
    All.record(V);
  }
  Histogram Merged = A;
  Merged.merge(B);
  EXPECT_TRUE(Merged == All);
  EXPECT_FALSE(Merged == A);
}

TEST(TelemetryHistogram, PercentileNearestRankAtBucketGranularity) {
  Histogram H;
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V);
  EXPECT_EQ(H.percentile(0), 1u);
  // The rank-50 sample sits in bucket 6 ([32,63]).
  EXPECT_EQ(H.percentile(50), 63u);
  // The rank-90 sample's bucket hi (127) exceeds the observed max.
  EXPECT_EQ(H.percentile(90), 100u);
  EXPECT_EQ(H.percentile(100), 100u);
  // Out-of-range P clamps instead of misbehaving.
  EXPECT_EQ(H.percentile(-5), 1u);
  EXPECT_EQ(H.percentile(400), 100u);

  Histogram Single;
  Single.record(42);
  for (double P : {0.0, 50.0, 99.0})
    EXPECT_EQ(Single.percentile(P), 42u) << P;

  Histogram Empty;
  EXPECT_EQ(Empty.percentile(50), 0u);
}

TEST(TelemetryJson, HistogramsAndHotspotsRoundTrip) {
  Session S("prof");
  Histogram Local;
  {
    SessionScope Scope(S);
    Span Phase("solve");
    record("solver.pops", 3);
    record("solver.pops", 900);
    record("solver.pops", 0);
    for (uint64_t V : {1, 2, 3, 70})
      Local.record(V);
    recordHistogram("solver.iters", Local);

    HotSpotRecord Group;
    Group.Phase = "solve";
    Group.Scc = 4;
    Group.Pops = 17;
    Group.Iters = 3;
    Group.SetOps = 120;
    Group.Ns = 5000;
    hotspot(Group);
    HotSpotRecord Routine = Group;
    Routine.Routine = "P9";
    hotspot(std::move(Routine));
  }

  std::string Error;
  std::optional<RunReport> Report =
      parseRunReport(runReportJson(S), &Error);
  ASSERT_TRUE(Report.has_value()) << Error;

  ASSERT_EQ(Report->Histograms.count("solver.pops"), 1u);
  const RunReport::HistogramData &Pops =
      Report->Histograms.at("solver.pops");
  EXPECT_EQ(Pops.Count, 3u);
  EXPECT_EQ(Pops.Sum, 903u);
  EXPECT_EQ(Pops.Min, 0u);
  EXPECT_EQ(Pops.Max, 900u);
  // Sparse buckets: the 0, the 3, and the 900 ([512,1023]).
  ASSERT_EQ(Pops.Buckets.size(), 3u);
  EXPECT_EQ(Pops.Buckets.at(0), 1u);
  EXPECT_EQ(Pops.Buckets.at(2), 1u);
  EXPECT_EQ(Pops.Buckets.at(10), 1u);

  // The reader-side percentile mirrors the writer's.
  const Histogram *Live = S.histogram("solver.iters");
  ASSERT_NE(Live, nullptr);
  const RunReport::HistogramData &Iters =
      Report->Histograms.at("solver.iters");
  for (double P : {0.0, 50.0, 90.0, 100.0})
    EXPECT_EQ(Iters.percentile(P), Live->percentile(P)) << P;

  ASSERT_EQ(Report->Hotspots.size(), 2u);
  EXPECT_EQ(Report->Hotspots[0].Phase, "solve");
  EXPECT_EQ(Report->Hotspots[0].Routine, "");
  EXPECT_EQ(Report->Hotspots[0].Scc, 4);
  EXPECT_EQ(Report->Hotspots[0].Pops, 17u);
  EXPECT_EQ(Report->Hotspots[0].Iters, 3u);
  EXPECT_EQ(Report->Hotspots[0].SetOps, 120u);
  EXPECT_EQ(Report->Hotspots[0].Ns, 5000u);
  EXPECT_EQ(Report->Hotspots[1].Routine, "P9");

  // Sessions that never profiled omit both members entirely, keeping
  // old readers and byte-level report diffs quiet.
  Session Plain("plain");
  {
    SessionScope Scope(Plain);
    count("c");
  }
  std::string Json = runReportJson(Plain);
  EXPECT_EQ(Json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(Json.find("\"hotspots\""), std::string::npos);
}

TEST(TelemetryJson, HostileNamesInProfilingDataRoundTrip) {
  // Routine names are attacker-ish input as far as the JSON writer is
  // concerned: quotes, backslashes, and every class of control byte the
  // escaper special-cases (\b, \f, \n, and a raw ).
  const std::string Hostile = std::string("r\"q\\b\b\f\n") + "\x01" + "end";
  Session S("prof\"tool");
  {
    SessionScope Scope(S);
    Span P("phase\\one");
    record(Hostile, 7);
    HotSpotRecord Row;
    Row.Phase = S.currentPath();
    Row.Routine = Hostile;
    Row.Pops = 1;
    Row.Ns = 1;
    hotspot(std::move(Row));
  }

  std::string Error;
  std::optional<RunReport> Report =
      parseRunReport(runReportJson(S), &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  EXPECT_EQ(Report->Tool, "prof\"tool");
  EXPECT_EQ(Report->Histograms.count(Hostile), 1u);
  ASSERT_EQ(Report->Hotspots.size(), 1u);
  EXPECT_EQ(Report->Hotspots[0].Phase, "phase\\one");
  EXPECT_EQ(Report->Hotspots[0].Routine, Hostile);

  // The trace document survives the same span name.
  std::optional<JsonValue> Trace = parseJson(traceJson(S), &Error);
  ASSERT_TRUE(Trace.has_value()) << Error;
  const JsonValue *Events = Trace->findArray("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->Items.size(), 1u);
  EXPECT_EQ(Events->Items[0].stringOr("name", ""), "phase\\one");
}

TEST(TelemetryJson, FoldedStacksFormatAndSelfTimeCarving) {
  std::vector<PhaseRow> Rows = {
      {"analyze", 1.0, 1},
      {"analyze/solve", 0.6, 1},
  };
  std::vector<HotSpotRecord> Spots;
  HotSpotRecord Group;
  Group.Phase = "analyze/solve";
  Group.Scc = 0;
  Group.Ns = 600000000; // Group rows are skipped: routine rows cover them.
  Spots.push_back(Group);
  HotSpotRecord R1;
  R1.Phase = "analyze/solve";
  R1.Routine = "hot routine;1"; // Frame delimiters must be rewritten.
  R1.Scc = 0;
  R1.Ns = 250000000;
  Spots.push_back(R1);
  HotSpotRecord R2 = R1;
  R2.Routine = "P2";
  R2.Ns = 100000000;
  Spots.push_back(R2);

  // Self time decomposes the wall clock: analyze keeps 0.4s after its
  // child, solve keeps 0.25s after its routine leaves, and all four
  // lines sum back to the 1s root total.
  EXPECT_EQ(foldedStacks("my tool", Rows, Spots),
            "my_tool;analyze 400000000\n"
            "my_tool;analyze;solve 250000000\n"
            "my_tool;analyze;solve;P2 100000000\n"
            "my_tool;analyze;solve;hot_routine:1 250000000\n");

  // Empty input renders an empty document, not a stray tool line.
  EXPECT_EQ(foldedStacks("t", {}, {}), "");
}

//===----------------------------------------------------------------------===//
// Histogram diffing
//===----------------------------------------------------------------------===//

RunReport::HistogramData histFrom(std::initializer_list<uint64_t> Values) {
  Histogram H;
  for (uint64_t V : Values)
    H.record(V);
  RunReport::HistogramData D;
  D.Count = H.count();
  D.Sum = H.sum();
  D.Min = H.min();
  D.Max = H.max();
  for (unsigned B = 0; B < Histogram::NumBuckets; ++B)
    if (H.bucket(B))
      D.Buckets[B] = H.bucket(B);
  return D;
}

RunReport reportWithHist(const std::string &Name,
                         RunReport::HistogramData D) {
  RunReport R;
  R.Tool = "test";
  R.Histograms.emplace(Name, std::move(D));
  return R;
}

const DiffRow *rowNamed(const ReportDiff &Diff, const std::string &Name) {
  for (const DiffRow &Row : Diff.Rows)
    if (Row.Name == Name)
      return &Row;
  return nullptr;
}

TEST(TelemetryDiff, HistogramMeanCarriesCounterThreshold) {
  RunReport Base = reportWithHist("solver.pops", histFrom({100, 100}));

  ReportDiff Ok = diffReports(
      Base, reportWithHist("solver.pops", histFrom({110, 110})), {});
  EXPECT_EQ(Ok.Regressions, 0u);

  ReportDiff Bad = diffReports(
      Base, reportWithHist("solver.pops", histFrom({111, 111})), {});
  EXPECT_EQ(Bad.Regressions, 1u);
  EXPECT_NE(Bad.str().find("histogram solver.pops.mean"),
            std::string::npos)
      << Bad.str();

  // A zero baseline is new instrumentation, never a regression.
  RunReport Empty;
  Empty.Tool = "test";
  EXPECT_EQ(diffReports(Empty,
                        reportWithHist("solver.pops", histFrom({999})),
                        {})
                .Regressions,
            0u);
}

TEST(TelemetryDiff, HistogramPercentilesNeedMoreThanABucketStep) {
  RunReport Base = reportWithHist("solver.pops", histFrom({10, 10, 10}));

  // 2x growth: beyond the counter threshold but only one log2 bucket
  // step — quantization noise, not a flagged tail.
  ReportDiff OneStep = diffReports(
      Base, reportWithHist("solver.pops", histFrom({20, 20, 20})), {});
  const DiffRow *P50 = rowNamed(OneStep, "solver.pops.p50");
  ASSERT_NE(P50, nullptr);
  EXPECT_FALSE(P50->Regression);

  // 2.6x: more than a bucket step — a genuinely fatter distribution.
  ReportDiff Blown = diffReports(
      Base, reportWithHist("solver.pops", histFrom({26, 26, 26})), {});
  P50 = rowNamed(Blown, "solver.pops.p50");
  ASSERT_NE(P50, nullptr);
  EXPECT_TRUE(P50->Regression);
  const DiffRow *P90 = rowNamed(Blown, "solver.pops.p90");
  ASSERT_NE(P90, nullptr);
  EXPECT_TRUE(P90->Regression);
}

TEST(TelemetryDiff, ScheduleDependentEntriesNeverRegress) {
  // Steal accounting and lane utilization vary between two runs at the
  // same --jobs; they render in the diff but carry no verdict.
  RunReport Base = reportWith({{"pool.steals", 10}});
  Base.Gauges["pool.lane.0.tasks"] = 5;
  Base.Histograms.emplace("pool.batch_steals", histFrom({2, 2}));
  RunReport Cur = reportWith({{"pool.steals", 500}});
  Cur.Gauges["pool.lane.0.tasks"] = 400;
  Cur.Histograms.emplace("pool.batch_steals", histFrom({60, 60}));

  ReportDiff Diff = diffReports(Base, Cur, {});
  EXPECT_EQ(Diff.Regressions, 0u);
  // The rows are still there for a human reading the rendering.
  EXPECT_NE(rowNamed(Diff, "pool.steals"), nullptr);
  EXPECT_NE(rowNamed(Diff, "pool.batch_steals.mean"), nullptr);
}

TEST(TelemetryDiff, TimeHistogramsUseTimeThresholdAndFloor) {
  // Sub-floor time samples are noise at any ratio (floor = 0.01s in
  // nanoseconds), exactly like sub-floor phases.
  EXPECT_EQ(
      diffReports(reportWithHist("solve.routine_ns", histFrom({1000})),
                  reportWithHist("solve.routine_ns", histFrom({900000})),
                  {})
          .Regressions,
      0u);

  // Above the floor the 25% time threshold applies where the 10%
  // counter threshold would already have fired.
  RunReport Base =
      reportWithHist("solve.routine_ns", histFrom({100000000}));
  EXPECT_EQ(diffReports(Base,
                        reportWithHist("solve.routine_ns",
                                       histFrom({120000000})),
                        {})
                .Regressions,
            0u);
  EXPECT_EQ(diffReports(Base,
                        reportWithHist("solve.routine_ns",
                                       histFrom({130000000})),
                        {})
                .Regressions,
            1u);
}

TEST(TelemetryDiff, RenderingSkipsUnchangedRows) {
  DiffOptions Opts;
  RunReport Base = reportWith({{"same", 3}, {"grew", 100}});
  RunReport Cur = reportWith({{"same", 3}, {"grew", 200}});
  ReportDiff Diff = diffReports(Base, Cur, Opts);
  ASSERT_EQ(Diff.Regressions, 1u);
  std::string Text = Diff.str();
  EXPECT_EQ(Text.find("same"), std::string::npos);
  EXPECT_NE(Text.find("counter grew"), std::string::npos);
  EXPECT_NE(Text.find("(x2.00)"), std::string::npos);
  EXPECT_NE(Text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(Text.find("1 regression(s)\n"), std::string::npos);
}

} // namespace

// ---------------------------------------------------------------------------
// Prometheus text exposition: the scrape surface behind `metrics` and
// spike-top (DESIGN.md §16).
// ---------------------------------------------------------------------------

#include "telemetry/Prometheus.h"

namespace {

const PromSample *sampleNamed(const std::vector<PromSample> &S,
                              const char *Name) {
  for (const PromSample &P : S)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

TEST(TelemetryProm, NameSanitizationAndLabelEscaping) {
  EXPECT_EQ(promName("serve.latency.patch-routine"),
            "serve_latency_patch_routine");
  EXPECT_EQ(promName("a:b_c9"), "a:b_c9");
  EXPECT_EQ(promName("9lives"), "_9lives");
  EXPECT_EQ(promName("spaces and \"quotes\""), "spaces_and__quotes_");

  EXPECT_EQ(promLabelValue("plain"), "plain");
  EXPECT_EQ(promLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(promLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(promLabelValue("a\nb"), "a\\nb");
}

TEST(TelemetryProm, WriterParserRoundTrip) {
  const std::string Hostile = "loop\"und\\er\nscore";

  PromWriter W;
  W.counter("spike_x_total", 7);
  W.gauge("spike_g", 3);
  Histogram H;
  H.record(10);
  H.record(100);
  H.record(1000);
  W.histogram("spike_h_ns", H);
  W.info("spike_build_info", {{"git", "abc"}, {"type", "Rel"}});
  W.labeled("spike_hot_routine_ns", {{"routine", Hostile}}, 42);

  std::string Error;
  std::optional<std::vector<PromSample>> Samples =
      parseExposition(W.str(), &Error);
  ASSERT_TRUE(Samples) << Error;

  const PromSample *X = sampleNamed(*Samples, "spike_x_total");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->Value, 7.0);
  ASSERT_NE(sampleNamed(*Samples, "spike_g"), nullptr);

  // The histogram reassembles: cumulative buckets ending at +Inf == count.
  const PromSample *Count = sampleNamed(*Samples, "spike_h_ns_count");
  ASSERT_NE(Count, nullptr);
  EXPECT_EQ(Count->Value, 3.0);
  double LastCum = 0;
  bool SawInf = false;
  for (const PromSample &P : *Samples) {
    if (P.Name != "spike_h_ns_bucket")
      continue;
    EXPECT_GE(P.Value, LastCum); // Cumulative, non-decreasing.
    LastCum = P.Value;
    if (P.label("le") == "+Inf") {
      SawInf = true;
      EXPECT_EQ(P.Value, 3.0);
    }
  }
  EXPECT_TRUE(SawInf);

  // Info-metric labels and hostile label values round-trip unescaped.
  const PromSample *Info = sampleNamed(*Samples, "spike_build_info");
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->Value, 1.0);
  EXPECT_EQ(Info->label("git"), "abc");
  const PromSample *Hot = sampleNamed(*Samples, "spike_hot_routine_ns");
  ASSERT_NE(Hot, nullptr);
  EXPECT_EQ(Hot->label("routine"), Hostile);
  EXPECT_EQ(Hot->Value, 42.0);
}

TEST(TelemetryProm, ParserRejectsMalformedInput) {
  for (const char *Doc : {
           "spike_x\n",                  // No value.
           "spike_x{le=\"1\" 3\n",       // Unterminated label set.
           "spike_x{l=\"a\\q\"} 1\n",    // Bad escape.
           "1bad 3\n",                   // Name starts with a digit.
           "spike_x notanumber\n",       // Unparseable value.
       }) {
    std::string Error;
    EXPECT_FALSE(parseExposition(Doc, &Error)) << Doc;
    EXPECT_FALSE(Error.empty()) << Doc;
  }
  // The empty document is valid (a server with nothing to say).
  EXPECT_TRUE(parseExposition("", nullptr));
}

TEST(TelemetryProm, RenderSessionSkipsPrefixAndAggregatesHotspots) {
  const std::string Hostile = "evil\"routine\nname";
  Session S("prom");
  {
    SessionScope Scope(S);
    telemetry::count("serve.queries", 5); // Mirrored name: must be skipped.
    telemetry::count("solver.pops", 11);
    telemetry::record("solve.routine_ns", 50);
    telemetry::hotspot({"psg.phase1", Hostile, 0, 3, 1, 7, 100});
    telemetry::hotspot({"psg.phase2", Hostile, 1, 2, 1, 5, 50});
  }

  PromWriter W;
  renderSessionProm(W, S, "serve.");
  std::string Error;
  std::optional<std::vector<PromSample>> Samples =
      parseExposition(W.str(), &Error);
  ASSERT_TRUE(Samples) << Error;

  const PromSample *Pops = sampleNamed(*Samples, "spike_solver_pops");
  ASSERT_NE(Pops, nullptr);
  EXPECT_EQ(Pops->Value, 11.0);
  // The skip prefix kept the mirrored serve.* counters out (spike-serve
  // exports the authoritative family itself).
  for (const PromSample &P : *Samples)
    EXPECT_EQ(P.Name.find("serve_queries"), std::string::npos) << P.Name;

  // Hot-spot rows aggregate per routine, the name as a label value.
  const PromSample *Ns = sampleNamed(*Samples, "spike_hot_routine_ns");
  ASSERT_NE(Ns, nullptr);
  EXPECT_EQ(Ns->label("routine"), Hostile);
  EXPECT_EQ(Ns->Value, 150.0);
  const PromSample *HotPops = sampleNamed(*Samples, "spike_hot_routine_pops");
  ASSERT_NE(HotPops, nullptr);
  EXPECT_EQ(HotPops->Value, 5.0);
}

TEST(TelemetryJson, RunReportCarriesBuildInfo) {
  Session S("build");
  {
    SessionScope Scope(S);
    telemetry::count("c", 1);
  }
  std::string Json = runReportJson(S);
  EXPECT_NE(Json.find("\"build\": {"), std::string::npos);

  std::string Error;
  std::optional<RunReport> R = parseRunReport(Json, &Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_EQ(R->Build.count("git"), 1u);
  EXPECT_EQ(R->Build.count("compiler"), 1u);
  EXPECT_EQ(R->Build.count("type"), 1u);
}

TEST(TelemetryDiff, ServeHealthCountersRegressOnAnyGrowth) {
  // serve.protocol_errors / serve.degraded_replies are held to the
  // degrade.* standard: any growth regresses, zero baseline included —
  // no 10% grace for a server that starts mis-parsing requests.
  for (const char *Name : {"serve.protocol_errors", "serve.degraded_replies"}) {
    RunReport Zero = reportWith({{Name, 0}});
    EXPECT_EQ(diffReports(Zero, reportWith({{Name, 1}}), {}).Regressions, 1u)
        << Name;
    EXPECT_EQ(diffReports(Zero, reportWith({{Name, 0}}), {}).Regressions, 0u)
        << Name;
    RunReport Ten = reportWith({{Name, 10}});
    EXPECT_EQ(diffReports(Ten, reportWith({{Name, 11}}), {}).Regressions, 1u)
        << Name;
  }
  // An ordinary counter with the same shape stays under the threshold
  // rule (growth over zero is new instrumentation, never a regression).
  EXPECT_EQ(diffReports(reportWith({{"serve.queries", 0}}),
                        reportWith({{"serve.queries", 5}}), {})
                .Regressions,
            0u);
}

TEST(TelemetryDiff, ServeLatencyHistogramsUseTimeSemantics) {
  // serve.latency.<cmd> / serve.queue_wait.<cmd> hold nanoseconds even
  // though the name carries no _ns suffix: sub-floor samples are noise.
  EXPECT_EQ(
      diffReports(reportWithHist("serve.latency.analyze", histFrom({1000})),
                  reportWithHist("serve.latency.analyze", histFrom({900000})),
                  {})
          .Regressions,
      0u);
  EXPECT_EQ(diffReports(
                reportWithHist("serve.queue_wait.lint", histFrom({1000})),
                reportWithHist("serve.queue_wait.lint", histFrom({800000})),
                {})
                .Regressions,
            0u);
  // Above the 0.01s floor the 25% time threshold applies.
  EXPECT_EQ(diffReports(
                reportWithHist("serve.latency.analyze",
                               histFrom({100000000})),
                reportWithHist("serve.latency.analyze",
                               histFrom({130000000})),
                {})
                .Regressions,
            1u);
}

} // namespace
