//===- tests/tools_test.cpp - CLI tool integration tests -------------------===//
//
// Drives the installed command-line tools end to end through a real
// shell: assemble -> simulate -> analyze -> optimize (verified) ->
// disassemble -> re-assemble.  SPIKE_TOOLS_DIR and a scratch directory
// come from the build system.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Json.h"
#include "telemetry/RunReport.h"
#include "TestPaths.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string toolsDir() { return SPIKE_TOOLS_DIR; }

std::string scratchPath(const std::string &Name) {
  // Per-test directory: these cases run concurrently under `ctest -j`,
  // and a shared TempDir() name lets one test clobber another's file.
  return spike::testpaths::scratchFile(Name);
}

/// Runs a command, captures stdout, returns exit status via \p Status.
std::string runCommand(const std::string &Command, int *Status) {
  std::string Output;
  std::string Wrapped = Command + " 2>&1";
  std::FILE *Pipe = ::popen(Wrapped.c_str(), "r");
  if (!Pipe) {
    *Status = -1;
    return Output;
  }
  char Buffer[512];
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  *Status = ::pclose(Pipe);
  return Output;
}

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  Out << Contents;
}

const char *DemoSource = R"(
; recursive factorial demo
.start main
main:
  lda a0, 5
  jsr fact
  halt v0
fact:
  subi sp, sp, 4
  stq ra, 0(sp)
  stq s0, 1(sp)
  mov s0, a0
  lda v0, 1
  beq s0, .Lbase
  subi a0, s0, 1
  jsr fact
  lda t0, 0
.Lmul:
  add t0, t0, v0
  subi s0, s0, 1
  bne s0, .Lmul
  mov v0, t0
  ldq s0, 1(sp)   ; reload for the loop-consumed copy
.Lbase:
  ldq s0, 1(sp)
  ldq ra, 0(sp)
  addi sp, sp, 4
  ret
)";

} // namespace

TEST(ToolsTest, AssembleSimulateAnalyzeOptimizeDisassemble) {
  std::string Asm = scratchPath("tools_demo.s");
  std::string Img = scratchPath("tools_demo.spkx");
  std::string Opt = scratchPath("tools_demo_opt.spkx");
  writeFile(Asm, DemoSource);

  int Status = 0;
  std::string Out;

  Out = runCommand(toolsDir() + "/spike-as " + Asm + " -o " + Img,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("instructions"), std::string::npos);

  Out = runCommand(toolsDir() + "/spike-sim " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("value:       120"), std::string::npos) << Out;

  Out = runCommand(toolsDir() + "/spike-analyze " + Img +
                       " --routine fact",
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("call-used"), std::string::npos);
  EXPECT_NE(Out.find("live-at-entry"), std::string::npos);

  Out = runCommand(toolsDir() + "/spike-opt " + Img + " -o " + Opt +
                       " --verify",
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("identical observable behaviour"),
            std::string::npos)
      << Out;

  Out = runCommand(toolsDir() + "/spike-objdump " + Opt, &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("fact:"), std::string::npos);

  std::remove(Asm.c_str());
  std::remove(Img.c_str());
  std::remove(Opt.c_str());
}

TEST(ToolsTest, ObjdumpOutputReassembles) {
  std::string Asm = scratchPath("tools_rt.s");
  std::string Img = scratchPath("tools_rt.spkx");
  std::string Dump = scratchPath("tools_rt_dump.s");
  std::string Img2 = scratchPath("tools_rt2.spkx");
  writeFile(Asm, DemoSource);

  int Status = 0;
  runCommand(toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0);
  std::string Listing =
      runCommand(toolsDir() + "/spike-objdump " + Img, &Status);
  ASSERT_EQ(Status, 0);
  writeFile(Dump, Listing);
  std::string Out = runCommand(
      toolsDir() + "/spike-as " + Dump + " -o " + Img2, &Status);
  ASSERT_EQ(Status, 0) << Out;

  // Both images behave identically.
  std::string Run1 = runCommand(toolsDir() + "/spike-sim " + Img, &Status);
  std::string Run2 =
      runCommand(toolsDir() + "/spike-sim " + Img2, &Status);
  EXPECT_EQ(Run1, Run2);

  for (const std::string &Path : {Asm, Img, Dump, Img2})
    std::remove(Path.c_str());
}

TEST(ToolsTest, UsageErrorsExitNonZero) {
  int Status = 0;
  runCommand(toolsDir() + "/spike-as", &Status);
  EXPECT_NE(Status, 0);
  runCommand(toolsDir() + "/spike-sim /nonexistent.spkx", &Status);
  EXPECT_NE(Status, 0);
  runCommand(toolsDir() + "/spike-objdump --bogus", &Status);
  EXPECT_NE(Status, 0);
}

TEST(ToolsTest, FuzzCreatesMissingArtifactDir) {
  // The serve arm's `load` crossovers read corpus files written into the
  // artifact directory, so a missing directory must be created.
  std::string Dir = scratchPath("artifacts");
  std::filesystem::remove_all(Dir);
  int Status = 0;
  std::string Out =
      runCommand(toolsDir() + "/spike-fuzz --seed 1 --iterations 0 "
                              "--serve-iterations 3 --skip-oracle "
                              "--artifact-dir " + Dir,
                 &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("replayed clean"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Telemetry flags and spike-stats
//===----------------------------------------------------------------------===//

TEST(ToolsTest, AnalyzeWritesMetricsAndTrace) {
  std::string Asm = scratchPath("telemetry_demo.s");
  std::string Img = scratchPath("telemetry_demo.spkx");
  std::string Metrics = scratchPath("telemetry_demo.metrics.json");
  std::string Trace = scratchPath("telemetry_demo.trace.json");
  writeFile(Asm, DemoSource);

  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;
  Out = runCommand(toolsDir() + "/spike-analyze " + Img + " --metrics=" +
                       Metrics + " --trace=" + Trace,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;

  std::string Error;
  std::optional<spike::telemetry::RunReport> Report =
      spike::telemetry::readRunReportFile(Metrics, &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  EXPECT_EQ(Report->Tool, "spike-analyze");
  EXPECT_GT(Report->TotalSeconds, 0.0);
  EXPECT_GT(Report->Counters.at("psg.nodes"), 0u);
  EXPECT_GT(Report->Counters.at("cfg.routines"), 0u);
  EXPECT_GT(Report->Counters.at("psg.phase1.worklist_pops"), 0u);
  EXPECT_GT(Report->phaseSeconds("analyze/psg.phase1"), 0.0);
  EXPECT_GT(Report->Gauges.at("analyze.memory.peak_bytes"), 0u);

  std::optional<spike::telemetry::JsonValue> Doc =
      spike::telemetry::parseJsonFile(Trace, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const spike::telemetry::JsonValue *Events = Doc->findArray("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_FALSE(Events->Items.empty());

  for (const std::string &Path : {Asm, Img, Metrics, Trace})
    std::remove(Path.c_str());
}

TEST(ToolsTest, OptMetricsAndRoundSummary) {
  std::string Asm = scratchPath("telemetry_opt.s");
  std::string Img = scratchPath("telemetry_opt.spkx");
  std::string Opt = scratchPath("telemetry_opt_out.spkx");
  std::string Metrics = scratchPath("telemetry_opt.metrics.json");
  writeFile(Asm, DemoSource);

  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;
  Out = runCommand(toolsDir() + "/spike-opt " + Img + " -o " + Opt +
                       " --metrics=" + Metrics,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;

  // The human summary surfaces the transactional/quarantine state and a
  // per-round cost line.
  EXPECT_NE(Out.find("rounds rolled back:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("quarantined routines:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("round 1:"), std::string::npos) << Out;

  std::string Error;
  std::optional<spike::telemetry::RunReport> Report =
      spike::telemetry::readRunReportFile(Metrics, &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  EXPECT_EQ(Report->Tool, "spike-opt");
  EXPECT_GT(Report->Counters.at("opt.rounds"), 0u);
  EXPECT_EQ(Report->Counters.at("opt.rounds_rolled_back"), 0u);
  EXPECT_GT(Report->phaseSeconds("opt.pipeline"), 0.0);

  for (const std::string &Path : {Asm, Img, Opt, Metrics})
    std::remove(Path.c_str());
}

TEST(ToolsTest, StatsSelfDiffIsCleanAndExitsZero) {
  std::string Asm = scratchPath("stats_self.s");
  std::string Img = scratchPath("stats_self.spkx");
  std::string Metrics = scratchPath("stats_self.metrics.json");
  writeFile(Asm, DemoSource);

  int Status = 0;
  runCommand(toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0);
  runCommand(toolsDir() + "/spike-analyze " + Img +
                 " --metrics=" + Metrics,
             &Status);
  ASSERT_EQ(Status, 0);

  std::string Out = runCommand(toolsDir() + "/spike-stats " + Metrics +
                                   " " + Metrics,
                               &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos) << Out;

  for (const std::string &Path : {Asm, Img, Metrics})
    std::remove(Path.c_str());
}

TEST(ToolsTest, StatsGoldenDiffFlagsRegression) {
  std::string Baseline = scratchPath("stats_base.json");
  std::string Current = scratchPath("stats_cur.json");
  writeFile(Baseline, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,
    "phases":[{"path":"solve","seconds":0.10,"count":1}],
    "counters":{"worklist.pops":100,"stable":7},"gauges":{}})");
  writeFile(Current, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.2,
    "phases":[{"path":"solve","seconds":0.20,"count":1}],
    "counters":{"worklist.pops":150,"stable":7},"gauges":{}})");

  int Status = 0;
  std::string Out = runCommand(toolsDir() + "/spike-stats " + Baseline +
                                   " " + Current,
                               &Status);
  EXPECT_NE(Status, 0) << Out;
  EXPECT_NE(Out.find("counter worklist.pops"), std::string::npos) << Out;
  EXPECT_NE(Out.find("phase solve"), std::string::npos) << Out;
  EXPECT_NE(Out.find("2 regression(s)"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("stable"), std::string::npos) << Out;

  // --warn-only reports but does not fail.
  Out = runCommand(toolsDir() + "/spike-stats " + Baseline + " " +
                       Current + " --warn-only",
                   &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("2 regression(s)"), std::string::npos) << Out;

  // Loosened thresholds accept the same pair.
  Out = runCommand(toolsDir() + "/spike-stats " + Baseline + " " +
                       Current +
                       " --max-counter-growth 1.0 --max-time-growth 2.0",
                   &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos) << Out;

  for (const std::string &Path : {Baseline, Current})
    std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// spike-profile
//===----------------------------------------------------------------------===//

TEST(ToolsTest, ProfileRendersTablesAndFoldedExport) {
  std::string Img = scratchPath("profile_demo.spkx");
  std::string Metrics = scratchPath("profile_demo.metrics.json");
  std::string Folded = scratchPath("profile_demo.folded");

  int Status = 0;
  std::string Out = runCommand(toolsDir() +
                                   "/spike-gen --benchmark go "
                                   "--scale 0.05 -o " +
                                   Img,
                               &Status);
  ASSERT_EQ(Status, 0) << Out;
  Out = runCommand(toolsDir() + "/spike-analyze " + Img +
                       " --metrics=" + Metrics,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;

  Out = runCommand(toolsDir() + "/spike-profile " + Metrics +
                       " --topk 5 --folded " + Folded,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("hot SCC groups"), std::string::npos) << Out;
  EXPECT_NE(Out.find("hot routines"), std::string::npos) << Out;
  EXPECT_NE(Out.find("histograms:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("attribution coverage"), std::string::npos) << Out;
  EXPECT_NE(Out.find("psg.phase1"), std::string::npos) << Out;
  // A clean run carries no degradation banner.
  EXPECT_EQ(Out.find("DEGRADED"), std::string::npos) << Out;

  // The folded export is shaped for speedscope/inferno: every line is
  // "frame(;frame)* <ns>" — exactly one space, an all-digit value, and
  // the tool name as the root frame.
  std::ifstream In(Folded);
  ASSERT_TRUE(In.good());
  std::string Line;
  unsigned Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    ASSERT_GT(Space, 0u) << Line;
    EXPECT_EQ(Line.find(' '), Space) << Line;
    EXPECT_EQ(Line.rfind("spike-analyze", 0), 0u) << Line;
    for (size_t I = Space + 1; I < Line.size(); ++I)
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(Line[I])))
          << Line;
  }
  EXPECT_GT(Lines, 0u);

  for (const std::string &Path : {Img, Metrics, Folded})
    std::remove(Path.c_str());
}

TEST(ToolsTest, ProfileDiffSharesStatsThresholdSemantics) {
  std::string Baseline = scratchPath("profile_base.json");
  std::string Current = scratchPath("profile_cur.json");
  writeFile(Baseline, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,"phases":[],"counters":{},"gauges":{},
    "histograms":{"solver.pops":{"count":2,"sum":200,"min":100,"max":100,
      "buckets":{"7":2}}}})");
  writeFile(Current, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,"phases":[],"counters":{},"gauges":{},
    "histograms":{"solver.pops":{"count":2,"sum":300,"min":150,"max":150,
      "buckets":{"8":2}}}})");

  // Self-diff is clean.
  int Status = 0;
  std::string Out = runCommand(toolsDir() + "/spike-profile --diff " +
                                   Baseline + " " + Baseline,
                               &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos) << Out;

  // A 1.5x mean regresses; the one-bucket p50 step does not.
  Out = runCommand(toolsDir() + "/spike-profile --diff " + Baseline +
                       " " + Current,
                   &Status);
  EXPECT_NE(Status, 0) << Out;
  EXPECT_NE(Out.find("histogram solver.pops.mean"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("1 regression(s)"), std::string::npos) << Out;

  // --warn-only reports but does not fail — the CI bench-smoke mode.
  Out = runCommand(toolsDir() + "/spike-profile --diff " + Baseline +
                       " " + Current + " --warn-only",
                   &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("1 regression(s)"), std::string::npos) << Out;

  for (const std::string &Path : {Baseline, Current})
    std::remove(Path.c_str());
}

TEST(ToolsTest, ProfileFlagsDegradedRunsAndRejectsBadUsage) {
  std::string Degraded = scratchPath("profile_degraded.json");
  writeFile(Degraded, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,"phases":[],"counters":{},"gauges":{},
    "degraded":[{"routine":"P7","reason":"deadline","phase":"psg.phase1"}]})");

  int Status = 0;
  std::string Out =
      runCommand(toolsDir() + "/spike-profile " + Degraded, &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("!! DEGRADED PROFILE"), std::string::npos) << Out;
  EXPECT_NE(Out.find("degrade.deadline = 1"), std::string::npos) << Out;

  runCommand(toolsDir() + "/spike-profile", &Status);
  EXPECT_NE(Status, 0);
  runCommand(toolsDir() + "/spike-profile --diff " + Degraded, &Status);
  EXPECT_NE(Status, 0);
  Out = runCommand(toolsDir() + "/spike-profile " + Degraded +
                       " --topk nonsense",
                   &Status);
  EXPECT_NE(Status, 0);
  EXPECT_NE(Out.find("--topk"), std::string::npos) << Out;
  runCommand(toolsDir() + "/spike-profile /nonexistent.json", &Status);
  EXPECT_NE(Status, 0);

  std::remove(Degraded.c_str());
}

TEST(ToolsTest, StatsRejectsBadInput) {
  std::string Garbage = scratchPath("stats_garbage.json");
  writeFile(Garbage, "not json at all");

  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-stats " + Garbage + " " + Garbage, &Status);
  EXPECT_NE(Status, 0);

  runCommand(toolsDir() + "/spike-stats", &Status);
  EXPECT_NE(Status, 0);

  std::remove(Garbage.c_str());
}

//===----------------------------------------------------------------------===//
// spike-serve: the resident line-protocol server
//===----------------------------------------------------------------------===//

TEST(ToolsTest, ServeSessionRepliesAndRunReport) {
  std::string Asm = scratchPath("serve_demo.s");
  std::string Img = scratchPath("serve_demo.spkx");
  std::string Session = scratchPath("serve_session.txt");
  std::string Metrics = scratchPath("serve_run.json");
  writeFile(Asm, DemoSource);

  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;

  // The `patch-routine` payload is the routine's own words (an identity
  // patch), fetched the way a real client would: spike-objdump --words.
  std::string Words = runCommand(
      toolsDir() + "/spike-objdump " + Img + " --routine fact --words",
      &Status);
  ASSERT_EQ(Status, 0) << Words;
  while (!Words.empty() && (Words.back() == '\n' || Words.back() == '\r'))
    Words.pop_back();
  ASSERT_FALSE(Words.empty());
  EXPECT_EQ(Words.front(), '[');

  writeFile(Session, "analyze\n"
                     "lint\n"
                     "bogus-command {}\n"
                     "patch-routine {\"routine\":\"fact\",\"code\":" +
                         Words + "}\n"
                     "stats\n"
                     "shutdown\n");
  Out = runCommand(toolsDir() + "/spike-serve " + Img + " --jobs=2" +
                       " --metrics=" + Metrics + " < " + Session,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;

  // One JSON reply per line, in order, errors as replies not exits.
  EXPECT_NE(Out.find("\"cmd\":\"analyze\",\"seq\":0,\"ok\":true"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"cmd\":\"bogus-command\",\"seq\":2,\"ok\":false"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"cmd\":\"patch-routine\",\"seq\":3,\"ok\":true"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"full\":false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"patches\":1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"cmd\":\"shutdown\",\"seq\":5,\"ok\":true"),
            std::string::npos)
      << Out;

  // The RunReport carries the serve.* counters.
  std::string Error;
  std::optional<spike::telemetry::RunReport> Report =
      spike::telemetry::readRunReportFile(Metrics, &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  EXPECT_EQ(Report->Tool, "spike-serve");
  EXPECT_EQ(Report->Counters.at("serve.queries"), 2u);
  EXPECT_EQ(Report->Counters.at("serve.errors"), 1u);
  EXPECT_EQ(Report->Counters.at("serve.patches"), 1u);

  for (const std::string &Path : {Asm, Img, Session, Metrics})
    std::remove(Path.c_str());
}

TEST(ToolsTest, ServeUsageErrorsAndUniformFlags) {
  int Status = 0;
  std::string Out =
      runCommand(toolsDir() + "/spike-serve --bogus-flag", &Status);
  EXPECT_NE(Status, 0);
  EXPECT_NE(Out.find("usage:"), std::string::npos) << Out;
  // The uniform tool flags are all advertised.
  for (const char *Flag : {"--jobs", "--trace", "--metrics", "--deadline-ms"})
    EXPECT_NE(Out.find(Flag), std::string::npos) << Flag << " not in: " << Out;

  // A broken image is a structured startup error, not a protocol reply.
  Out = runCommand(toolsDir() + "/spike-serve /nonexistent.spkx", &Status);
  EXPECT_NE(Status, 0);
  EXPECT_NE(Out.find("error"), std::string::npos) << Out;
}

TEST(ToolsTest, ServeBlownBudgetDegradesReplyNotServer) {
  std::string Asm = scratchPath("serve_budget.s");
  std::string Img = scratchPath("serve_budget.spkx");
  std::string Session = scratchPath("serve_budget_session.txt");
  std::string Metrics = scratchPath("serve_budget_run.json");
  writeFile(Asm, DemoSource);

  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;
  std::string Words = runCommand(
      toolsDir() + "/spike-objdump " + Img + " --routine fact --words",
      &Status);
  ASSERT_EQ(Status, 0) << Words;
  while (!Words.empty() && (Words.back() == '\n' || Words.back() == '\r'))
    Words.pop_back();

  // --max-iters=1 blows on any re-analysis: the patch reply degrades
  // (the `!! DEGRADED` banner), and the server keeps answering.
  writeFile(Session, "patch-routine {\"routine\":\"fact\",\"code\":" +
                         Words + "}\n"
                     "stats\n"
                     "shutdown\n");
  Out = runCommand(toolsDir() + "/spike-serve " + Img +
                       " --max-iters=1 --metrics=" + Metrics + " < " +
                       Session,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("\"degraded\":true"), std::string::npos) << Out;
  EXPECT_NE(Out.find("!! DEGRADED"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"cmd\":\"stats\",\"seq\":1,\"ok\":true"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"cmd\":\"shutdown\",\"seq\":2,\"ok\":true"),
            std::string::npos)
      << Out;

  std::string Error;
  std::optional<spike::telemetry::RunReport> Report =
      spike::telemetry::readRunReportFile(Metrics, &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  EXPECT_GE(Report->Counters.at("serve.degraded_replies"), 1u);

  for (const std::string &Path : {Asm, Img, Session, Metrics})
    std::remove(Path.c_str());
}

TEST(ToolsTest, VersionFlagIsUniformAcrossTools) {
  int Status = 0;
  std::string Suffix;
  for (const char *Tool :
       {"spike-as", "spike-analyze", "spike-serve", "spike-stats",
        "spike-top", "spike-profile"}) {
    std::string Out =
        runCommand(toolsDir() + "/" + Tool + " --version", &Status);
    ASSERT_EQ(Status, 0) << Tool << ": " << Out;
    // "<tool> <git describe> (<compiler>, <type>, sanitizer=<s>)".
    ASSERT_EQ(Out.rfind(std::string(Tool) + " ", 0), 0u) << Out;
    EXPECT_NE(Out.find("sanitizer="), std::string::npos) << Out;
    std::string This = Out.substr(std::string(Tool).size());
    if (Suffix.empty())
      Suffix = This;
    else
      EXPECT_EQ(This, Suffix) << Tool; // One build, one provenance line.
  }
  // --version wins even when the rest of the command line is garbage.
  std::string Out = runCommand(
      toolsDir() + "/spike-serve --version --definitely-not-a-flag", &Status);
  EXPECT_EQ(Status, 0) << Out;
}

namespace {

/// A fixed-value exposition document: every derived table cell is exact.
const char *GoldenExposition = R"(# TYPE spike_serve_latency_analyze_ns histogram
spike_serve_latency_analyze_ns_bucket{le="1024"} 2
spike_serve_latency_analyze_ns_bucket{le="2048"} 3
spike_serve_latency_analyze_ns_bucket{le="+Inf"} 4
spike_serve_latency_analyze_ns_sum 6000
spike_serve_latency_analyze_ns_count 4
# TYPE spike_serve_latency_lint_ns histogram
spike_serve_latency_lint_ns_bucket{le="512"} 1
spike_serve_latency_lint_ns_bucket{le="+Inf"} 1
spike_serve_latency_lint_ns_sum 400
spike_serve_latency_lint_ns_count 1
# TYPE spike_serve_queue_wait_analyze_ns histogram
spike_serve_queue_wait_analyze_ns_bucket{le="256"} 4
spike_serve_queue_wait_analyze_ns_bucket{le="+Inf"} 4
spike_serve_queue_wait_analyze_ns_sum 800
spike_serve_queue_wait_analyze_ns_count 4
# TYPE spike_hot_routine_ns gauge
spike_hot_routine_ns{routine="main"} 7000
spike_hot_routine_ns{routine="fact"} 5000
# TYPE spike_hot_routine_pops gauge
spike_hot_routine_pops{routine="main"} 9
spike_hot_routine_pops{routine="fact"} 3
# TYPE spike_serve_queries_total counter
spike_serve_queries_total 4
spike_serve_loads_total 1
spike_serve_patches_total 2
spike_serve_patch_full_solves_total 1
spike_serve_errors_total 1
spike_serve_protocol_errors_total 2
spike_serve_degraded_replies_total 1
spike_serve_depgraph_hits_total 3
spike_serve_depgraph_builds_total 1
)";

/// A fixed-value access log matching the JSONL schema.
const char *GoldenAccessLog =
    R"({"schema":"spike-serve-access-log","version":1,"jobs":4,"slow_ms":0,"build":{"git":"test","compiler":"t","flags":"","type":"T","sanitizer":"off"}}
{"seq":0,"cmd":"analyze","command":"analyze","ok":true,"protocol_error":false,"degraded":false,"bytes_in":7,"bytes_out":100,"queue_ns":10,"exec_ns":5000,"slow":true}
{"seq":1,"cmd":"lint","command":"lint","ok":true,"protocol_error":false,"degraded":false,"bytes_in":4,"bytes_out":50,"queue_ns":10,"exec_ns":9000,"slow":true}
{"seq":2,"cmd":"wat","command":"?","ok":false,"protocol_error":true,"degraded":false,"bytes_in":3,"bytes_out":60,"queue_ns":5,"exec_ns":200,"slow":false}
{"seq":3,"cmd":"analyze","command":"analyze","ok":true,"protocol_error":false,"degraded":true,"degrade_reason":"iteration-cap","bytes_in":7,"bytes_out":90,"queue_ns":10,"exec_ns":7000,"slow":true}
)";

} // namespace

TEST(ToolsTest, TopRendersGoldenTables) {
  std::string Prom = scratchPath("golden.prom");
  std::string Log = scratchPath("golden.log");
  writeFile(Prom, GoldenExposition);
  writeFile(Log, GoldenAccessLog);

  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-top --once < " + Prom, &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_EQ(Out,
            "top commands by p99 latency\n"
            "  command           count      mean_ns       p50_ns       "
            "p90_ns       p99_ns\n"
            "  analyze               4         1500         1024         "
            "2048         2048\n"
            "  lint                  1          400          512          "
            "512          512\n"
            "top commands by p99 queue wait\n"
            "  command           count      mean_ns       p50_ns       "
            "p90_ns       p99_ns\n"
            "  analyze               4          200          256          "
            "256          256\n"
            "top routines by attributed ns\n"
            "  routine                              ns       pops\n"
            "  main                               7000          9\n"
            "  fact                               5000          3\n"
            "rates\n"
            "  requests 8  errors 1 (12.5%)  protocol_errors 2  degraded 1 "
            "(12.5%)\n"
            "  patches 2  full_solves 1 (50.0%)  depgraph_hit 75.0%\n");

  Out = runCommand(toolsDir() + "/spike-top --once < " + Log, &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_EQ(Out, "access log: 4 records, 1 protocol errors, 1 degraded\n"
                 "  command           count   errors     slow  exec_ns_total\n"
                 "  analyze               2        0        2          12000\n"
                 "  lint                  1        0        1           9000\n"
                 "  ?                     1        1        0            200\n"
                 "slowest requests\n"
                 "  seq 1  lint                   9000 ns\n"
                 "  seq 3  analyze                7000 ns\n"
                 "  seq 0  analyze                5000 ns\n");

  // --top=1 truncates every ranked table deterministically.
  Out = runCommand(toolsDir() + "/spike-top --once --top=1 < " + Prom,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("analyze"), std::string::npos);
  EXPECT_EQ(Out.find("\n  lint"), std::string::npos) << Out;
}

TEST(ToolsTest, TopValidatesStrictly) {
  std::string Prom = scratchPath("valid.prom");
  std::string Log = scratchPath("valid.log");
  writeFile(Prom, GoldenExposition);
  writeFile(Log, GoldenAccessLog);

  int Status = 0;
  std::string Out = runCommand(
      toolsDir() + "/spike-top --validate < " + Prom, &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("exposition OK: 26 sample(s)"), std::string::npos)
      << Out;

  Out = runCommand(toolsDir() + "/spike-top --validate < " + Log, &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("access log OK: 4 record(s)"), std::string::npos) << Out;

  // A malformed sample line fails the exposition check.
  std::string BadProm = scratchPath("bad.prom");
  writeFile(BadProm, std::string(GoldenExposition) + "spike_broken\n");
  Out = runCommand(toolsDir() + "/spike-top --validate < " + BadProm,
                   &Status);
  EXPECT_NE(Status, 0);
  EXPECT_NE(Out.find("exposition invalid"), std::string::npos) << Out;

  // A record missing schema fields fails the access-log check.
  std::string BadLog = scratchPath("bad.log");
  writeFile(BadLog, std::string(GoldenAccessLog) + "{\"seq\":4}\n");
  Out = runCommand(toolsDir() + "/spike-top --validate < " + BadLog, &Status);
  EXPECT_NE(Status, 0);
  EXPECT_NE(Out.find("access log invalid"), std::string::npos) << Out;
}

TEST(ToolsTest, ServeAccessLogMetricsAndTopEndToEnd) {
  std::string Asm = scratchPath("serve_obs.s");
  std::string Img = scratchPath("serve_obs.spkx");
  std::string Session = scratchPath("serve_obs_session.txt");
  std::string Log = scratchPath("serve_obs_access.log");
  std::string Replies = scratchPath("serve_obs_replies.txt");
  std::string Prom = scratchPath("serve_obs.prom");
  writeFile(Asm, DemoSource);

  int Status = 0;
  std::string Out =
      runCommand(toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;

  writeFile(Session, "analyze {\"routine\":\"fact\"}\n"
                     "wat {}\n"
                     "metrics {}\n"
                     "shutdown {}\n");
  Out = runCommand(toolsDir() + "/spike-serve " + Img + " --access-log=" +
                       Log + " --slow-ms=0 < " + Session,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  writeFile(Replies, Out);

  // The access log validates strictly and rolls up as a table.
  Out = runCommand(toolsDir() + "/spike-top --validate < " + Log, &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("access log OK: 4 record(s)"), std::string::npos) << Out;
  Out = runCommand(toolsDir() + "/spike-top --once < " + Log, &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("access log: 4 records, 1 protocol errors"),
            std::string::npos)
      << Out;

  // The reply stream feeds spike-top (the metrics reply's body), and
  // --prom-out re-exports raw exposition that validates in turn.
  Out = runCommand(toolsDir() + "/spike-top --once --prom-out=" + Prom +
                       " < " + Replies,
                   &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("top commands by p99 latency"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("analyze"), std::string::npos) << Out;
  Out = runCommand(toolsDir() + "/spike-top --validate < " + Prom, &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("exposition OK:"), std::string::npos) << Out;

  // --no-observe contradicts the observability flags.
  Out = runCommand(toolsDir() + "/spike-serve " + Img +
                       " --no-observe --access-log=" + Log,
                   &Status);
  EXPECT_NE(Status, 0);
  EXPECT_NE(Out.find("contradicts"), std::string::npos) << Out;

  for (const std::string &Path : {Asm, Img, Session, Log, Replies, Prom})
    std::remove(Path.c_str());
}
