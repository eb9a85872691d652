//===- tests/tools_test.cpp - CLI tool integration tests -------------------===//
//
// Drives the installed command-line tools end to end through a real
// shell: assemble -> simulate -> analyze -> optimize (verified) ->
// disassemble -> re-assemble, plus a small-scale bench_paper run.
// SPIKE_TOOLS_DIR, SPIKE_BENCH_DIR and a scratch directory come from the
// build system.
//
//===----------------------------------------------------------------------===//

#include "binary/Image.h"
#include "telemetry/Json.h"
#include "telemetry/RunReport.h"
#include "TestPaths.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

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

TEST(ToolsTest, ExplainRejectsMalformedAddresses) {
  // An address operand is a whole decimal integer in [0, 2^53]; anything
  // else is a usage error, never a query about a truncated address.
  std::string Asm = scratchPath("explain_demo.s");
  std::string Img = scratchPath("explain_demo.spkx");
  writeFile(Asm, DemoSource);
  int Status = 0;
  std::string Out =
      runCommand(toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;

  std::string Explain = toolsDir() + "/spike-explain " + Img;
  for (const char *Query :
       {"--why-dead foo", "--why-dead 12abc", "--why-dead -1",
        "--why-transformed xyz", "--why-dead t0@9007199254740993"}) {
    Out = runCommand(Explain + " " + Query, &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Query << "\n" << Out;
    EXPECT_EQ(Out.find("def-site"), std::string::npos) << Query << Out;
  }
  // A location's node id or #i index is a whole decimal number in range;
  // anything else resolves to no node (exit 1), never to node 0.
  for (const char *Query :
       {"--why-live ra@node:abc", "--why-live ra@node:4294967296",
        "--why-live ra@entry:r0#zz", "--why-live ra@entry:fact#zz"}) {
    Out = runCommand(Explain + " " + Query, &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Query << "\n" << Out;
    EXPECT_EQ(Out.find("witness:"), std::string::npos) << Query << Out;
  }
  for (const char *Query : {"--why-live ra@entry:fact",
                            "--why-live ra@entry:fact#0",
                            "--why-live ra@node:0"}) {
    Out = runCommand(Explain + " " + Query, &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 0) << Query << "\n" << Out;
  }
  // Well-formed addresses still answer.
  Out = runCommand(Explain + " --why-dead 1", &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 0) << Out;
  EXPECT_NE(Out.find("def-site @1"), std::string::npos) << Out;
  Out = runCommand(Explain + " --why-transformed 1", &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 0) << Out;
  EXPECT_NE(Out.find("(address-filtered)"), std::string::npos) << Out;
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

TEST(ToolsTest, FuzzCountFlagsAreCheckedInBothForms) {
  // `--flag=<n>` reads like `--flag <n>`; zero iterations run nothing.
  int Status = 0;
  std::string Out = runCommand(toolsDir() + "/spike-fuzz --seed=5 "
                                            "--iterations=0 "
                                            "--serve-iterations=0 "
                                            "--skip-oracle",
                               &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 0) << Out;
  EXPECT_NE(Out.find("0 mutants"), std::string::npos) << Out;
  for (const char *Bad :
       {"--seed abc", "--seed=-1", "--seed 5x", "--iterations=-2",
        "--serve-iterations 99999999999999999999", "--iterations="}) {
    Out = runCommand(toolsDir() + "/spike-fuzz " + Bad +
                         " --iterations 0 --skip-oracle",
                     &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Bad << ": " << Out;
    EXPECT_NE(Out.find("error: --"), std::string::npos) << Bad << ": " << Out;
  }
}

TEST(ToolsTest, UnsignedFlagsRejectGarbageSignsAndOverflow) {
  // strtoull alone reads "abc" as 0 and "-5" as 2^64 - 5; every unsigned
  // flag makes those, and values its variable cannot hold, usage errors.
  std::string Asm = scratchPath("flags_demo.s");
  std::string Img = scratchPath("flags_demo.spkx");
  std::string Gen = scratchPath("flags_gen.spkx");
  writeFile(Asm, DemoSource);
  int Status = 0;
  std::string Out =
      runCommand(toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;

  const std::string Flags[] = {
      "/spike-slice " + Img + " --backward",
      "/spike-slice " + Img + " --forward",
      "/spike-gen --exec -o " + Gen + " --seed",
      "/spike-gen --exec -o " + Gen + " --routines",
      "/spike-sim " + Img + " --max-steps",
      "/spike-lint " + Img + " --rounds",
      "/spike-opt " + Img + " -o " + Gen + " --rounds",
  };
  for (const std::string &Flag : Flags)
    for (const char *Bad : {" abc", " -5", "=7x", " 18446744073709551616"}) {
      Out = runCommand(toolsDir() + Flag + Bad, &Status);
      EXPECT_EQ(WEXITSTATUS(Status), 2) << Flag << Bad << ": " << Out;
      EXPECT_NE(Out.find("expects an unsigned number"), std::string::npos)
          << Flag << Bad << ": " << Out;
    }
  // 2^32 fits the 64-bit flags but not an `unsigned` round or routine count.
  for (const std::string &Flag :
       {"/spike-lint " + Img + " --rounds",
        "/spike-opt " + Img + " -o " + Gen + " --rounds",
        "/spike-gen --exec -o " + Gen + " --routines"}) {
    Out = runCommand(toolsDir() + Flag + "=4294967296", &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Flag << ": " << Out;
    EXPECT_NE(Out.find("expects a number up to 4294967295"),
              std::string::npos)
        << Flag << ": " << Out;
  }

  // Numbers still read in both forms; the slice seeds also take hex.
  for (const std::string &Good :
       {"/spike-slice " + Img + " --backward=0x5",
        "/spike-slice " + Img + " --forward 5",
        "/spike-gen --exec -o " + Gen + " --seed=5 --routines 3",
        "/spike-sim " + Img + " --max-steps=1000",
        "/spike-lint " + Img + " --rounds=2 --verify",
        "/spike-opt " + Img + " -o " + Gen + " --rounds 2"}) {
    Out = runCommand(toolsDir() + Good, &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 0) << Good << ": " << Out;
  }
  Out = runCommand(toolsDir() + "/spike-slice " + Img + " --backward=0x5",
                   &Status);
  EXPECT_EQ(Out, runCommand(toolsDir() + "/spike-slice " + Img +
                                " --backward 5",
                            &Status));
  // A leading zero is still decimal, never octal, and only a lower-case
  // "0x" starts hex.
  Out = runCommand(toolsDir() + "/spike-slice " + Img + " --backward 010",
                   &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 0) << Out;
  EXPECT_EQ(Out, runCommand(toolsDir() + "/spike-slice " + Img +
                                " --backward 10",
                            &Status));
  Out = runCommand(toolsDir() + "/spike-slice " + Img + " --backward 0X5",
                   &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 2) << Out;
  EXPECT_NE(Out.find("expects an unsigned number"), std::string::npos) << Out;
}

TEST(ToolsTest, AnalyzeRefusesAnnotationRegistersPastR31) {
  // An annotation mask is a 64-bit field in the file, but a register set
  // holds r0..r31: a higher bit is a coded load error, never a register
  // the analysis keeps or drops.
  std::string Asm = scratchPath("annot_demo.s");
  std::string Img = scratchPath("annot_demo.spkx");
  writeFile(Asm, DemoSource);
  int Status = 0;
  std::string Out =
      runCommand(toolsDir() + "/spike-as " + Asm + " -o " + Img, &Status);
  ASSERT_EQ(Status, 0) << Out;
  spike::Expected<spike::Image> Loaded = spike::loadImageFile(Img);
  ASSERT_TRUE(Loaded);
  spike::IndirectCallAnnotation Annot;
  Annot.Address = 1;
  Annot.Used = spike::RegSet({16, 17});
  Loaded->CallAnnotations.push_back(Annot);
  std::vector<uint8_t> Bytes = spike::writeImage(*Loaded);
  // The image ends with the annotation's Used, Defined and Killed masks
  // and the empty jump-annotation section; name r40 in Used.
  Bytes[Bytes.size() - 32 + 5] |= 1;
  std::ofstream(Img, std::ios::binary)
      .write(reinterpret_cast<const char *>(Bytes.data()),
             std::streamsize(Bytes.size()));
  Out = runCommand(toolsDir() + "/spike-analyze " + Img, &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 1) << Out;
  EXPECT_NE(Out.find("error: [AnnotationRegisterOutOfRange]"),
            std::string::npos)
      << Out;
}

TEST(ToolsTest, FractionalFlagsRejectGarbageAndOutOfRange) {
  // atof alone reads "abc" as 0 and lets "-3" through, so spike-gen once
  // wrote a 2-routine image at scale "abc" and died in bad_alloc at
  // scale -3.  Every fractional flag now takes a finite number, the
  // whole string, in both flag forms: a positive --scale, non-negative
  // spike-profile thresholds.
  std::string Gen = scratchPath("fraction_gen.spkx");
  std::string Report = scratchPath("fraction_report.json");
  writeFile(Report, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,
    "phases":[{"path":"solve","seconds":0.10,"count":1}],
    "counters":{"worklist.pops":100},"gauges":{}})");
  int Status = 0;
  const std::string Scale = "/spike-gen --benchmark go -o " + Gen + " --scale";
  for (const char *Bad : {" abc", "=abc", " -3", "=-3", " 0", "=0", " nan",
                          "=inf", " 0.5x", "=1e999", "=' 0.5'"}) {
    std::string Out = runCommand(toolsDir() + Scale + Bad, &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Scale << Bad << ": " << Out;
    EXPECT_NE(Out.find("--scale expects a positive number"), std::string::npos)
        << Scale << Bad << ": " << Out;
  }
  for (const char *Flag :
       {"--max-counter-growth", "--max-time-growth", "--time-floor"}) {
    const std::string Diff = "/spike-profile --diff " + Report + " " + Report +
                             " " + Flag;
    for (const char *Bad :
         {" abc", "=abc", " -0.5", "=-1", " nan", "=inf", " 0.1x", "=1e999"}) {
      std::string Out = runCommand(toolsDir() + Diff + Bad, &Status);
      EXPECT_EQ(WEXITSTATUS(Status), 2) << Diff << Bad << ": " << Out;
      EXPECT_NE(Out.find(std::string(Flag) + " expects a non-negative number"),
                std::string::npos)
          << Diff << Bad << ": " << Out;
    }
    for (const char *Good : {" 0", "=0.25", " 1e-3"}) {
      std::string Out = runCommand(toolsDir() + Diff + Good, &Status);
      EXPECT_EQ(WEXITSTATUS(Status), 0) << Diff << Good << ": " << Out;
    }
  }
  for (const char *Good : {" 0.05", "=0.05"}) {
    std::string Out = runCommand(toolsDir() + Scale + Good, &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 0) << Scale << Good << ": " << Out;
  }
  for (const std::string &Path : {Gen, Report})
    std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Telemetry flags and run-report diffs (spike-profile --diff)
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

  std::string Out = runCommand(toolsDir() + "/spike-profile --diff " +
                                   Metrics + " " + Metrics,
                               &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos) << Out;
  // One build on both sides: no cross-build note.
  EXPECT_EQ(Out.find("note: reports come from different builds"),
            std::string::npos)
      << Out;

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
  std::string Out = runCommand(toolsDir() + "/spike-profile --diff " +
                                   Baseline + " " + Current,
                               &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 1) << Out;
  EXPECT_NE(Out.find("counter worklist.pops"), std::string::npos) << Out;
  EXPECT_NE(Out.find("phase solve"), std::string::npos) << Out;
  EXPECT_NE(Out.find("2 regression(s)"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("stable"), std::string::npos) << Out;

  // --warn-only reports but does not fail.
  Out = runCommand(toolsDir() + "/spike-profile --diff " + Baseline + " " +
                       Current + " --warn-only",
                   &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("2 regression(s)"), std::string::npos) << Out;

  // Loosened thresholds accept the same pair.
  Out = runCommand(toolsDir() + "/spike-profile --diff " + Baseline + " " +
                       Current +
                       " --max-counter-growth 1.0 --max-time-growth 2.0",
                   &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos) << Out;

  for (const std::string &Path : {Baseline, Current})
    std::remove(Path.c_str());
}

TEST(ToolsTest, ProfileDiffExactCountsJudgesEveryCounterButSteals) {
  std::string Baseline = scratchPath("exact_base.json");
  std::string Changed = scratchPath("exact_changed.json");
  std::string Steals = scratchPath("exact_steals.json");
  writeFile(Baseline, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,
    "phases":[{"path":"solve","seconds":0.10,"count":1}],
    "counters":{"psg.nodes":100,"pool.steals":5},"gauges":{}})");
  // One counter drops by one, which the threshold diff accepts.
  writeFile(Changed, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,
    "phases":[{"path":"solve","seconds":0.10,"count":1}],
    "counters":{"psg.nodes":99,"pool.steals":5},"gauges":{}})");
  // Only the steal count and the time move.
  writeFile(Steals, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":5.0,
    "phases":[{"path":"solve","seconds":0.50,"count":1}],
    "counters":{"psg.nodes":100,"pool.steals":50},"gauges":{}})");

  int Status = 0;
  std::string Out = runCommand(toolsDir() + "/spike-profile --diff " +
                                   Baseline + " " + Changed +
                                   " --exact-counts",
                               &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 1) << Out;
  EXPECT_NE(Out.find("counter psg.nodes"), std::string::npos) << Out;
  EXPECT_NE(Out.find("1 regression(s)"), std::string::npos) << Out;
  Out = runCommand(toolsDir() + "/spike-profile --diff " + Baseline + " " +
                       Changed,
                   &Status);
  EXPECT_EQ(Status, 0) << Out;

  Out = runCommand(toolsDir() + "/spike-profile --diff " + Baseline + " " +
                       Steals + " --exact-counts",
                   &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos) << Out;

  for (const std::string &Path : {Baseline, Changed, Steals})
    std::remove(Path.c_str());
}

TEST(ToolsTest, ProfileDiffNotesReportsFromDifferentBuilds) {
  std::string Baseline = scratchPath("build_base.json");
  std::string Current = scratchPath("build_cur.json");
  writeFile(Baseline, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,"phases":[],"counters":{"c":1},
    "gauges":{},"build":{"git":"v1","type":"Release","sanitizer":"none"}})");
  writeFile(Current, R"({"schema":"spike-run-report","version":1,
    "tool":"t","total_seconds":1.0,"phases":[],"counters":{"c":1},
    "gauges":{},"build":{"git":"v2","type":"Debug"}})");

  // Informational only: the verdict and exit status are unaffected.
  int Status = 0;
  std::string Out = runCommand(toolsDir() + "/spike-profile --diff " +
                                   Baseline + " " + Current,
                               &Status);
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("note: reports come from different builds (baseline "
                     "v1/Release/none, current v2/Debug/?)"),
            std::string::npos)
      << Out;
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
  for (const char *Bad : {" --topk nonsense", " --topk -1", " --topk=0"}) {
    Out = runCommand(toolsDir() + "/spike-profile " + Degraded + Bad,
                     &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Bad << ": " << Out;
    EXPECT_NE(Out.find("--topk"), std::string::npos) << Bad << ": " << Out;
  }
  runCommand(toolsDir() + "/spike-profile /nonexistent.json", &Status);
  EXPECT_NE(Status, 0);

  std::remove(Degraded.c_str());
}

TEST(ToolsTest, StatsRejectsBadInput) {
  std::string Garbage = scratchPath("stats_garbage.json");
  writeFile(Garbage, "not json at all");

  int Status = 0;
  std::string Out = runCommand(toolsDir() + "/spike-profile --diff " +
                                   Garbage + " " + Garbage,
                               &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 2) << Out;

  runCommand(toolsDir() + "/spike-profile --diff", &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 2);

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
       {"spike-as", "spike-analyze", "spike-serve", "spike-explain",
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

TEST(ToolsTest, TopRejectsNegativeAndMalformedCounts) {
  // strtoull alone reads "-1" as 2^64 - 1; these are usage errors.
  for (const char *Bad :
       {"--top=-1", "--interval=-1", "--top=abc", "--interval 5ms"}) {
    int Status = 0;
    std::string Out = runCommand(toolsDir() + "/spike-top --once " + Bad +
                                     " < /dev/null",
                                 &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Bad << ": " << Out;
    EXPECT_NE(Out.find("expects an unsigned number"), std::string::npos)
        << Bad << ": " << Out;
  }
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

  // So does a seq or exec_ns that is not an integer in [0, 2^53].
  for (const char *Fields :
       {R"("seq":-1,"exec_ns":10)", R"("seq":2.5,"exec_ns":10)",
        R"("seq":4,"exec_ns":1e300)", R"("seq":4,"exec_ns":-1)"}) {
    writeFile(BadLog, std::string(GoldenAccessLog) + "{" + Fields +
                          R"(,"cmd":"lint","command":"lint","ok":true,)"
                          R"("queue_ns":1,"slow":true})" + "\n");
    Out = runCommand(toolsDir() + "/spike-top --validate < " + BadLog,
                     &Status);
    EXPECT_NE(Status, 0) << Fields;
    EXPECT_NE(Out.find("access log invalid"), std::string::npos)
        << Fields << Out;
  }
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

TEST(ToolsTest, AnalyzeStatsStageTimesAreTheSpans) {
  std::string Img = scratchPath("stats_spans.spkx");
  std::string Metrics = scratchPath("stats_spans.metrics.json");
  int Status = 0;
  std::string Out = runCommand(toolsDir() + "/spike-gen --benchmark gcc "
                                   "--scale 0.05 -o " + Img,
                               &Status);
  ASSERT_EQ(Status, 0) << Out;

  // Each stage line is the seconds of its "analyze/<stage>" span.
  const std::pair<const char *, const char *> Stages[] = {
      {"CFG Build", "analyze/cfg.build"},
      {"Initialization", "analyze/init"},
      {"PSG Build", "analyze/psg.build"},
      {"Phase 1", "analyze/psg.phase1"},
      {"Phase 2", "analyze/psg.phase2"}};
  // The seconds printed on the "  <Label> ... s" line, or -1 if none.
  auto StageLine = [](const std::string &Text, const std::string &Label) {
    std::istringstream Lines(Text);
    for (std::string Line; std::getline(Lines, Line);)
      if (Line.rfind("  " + Label + " ", 0) == 0 && Line.back() == 's' &&
          Line.find("MB") == std::string::npos)
        return std::atof(Line.c_str() + 2 + std::strlen(Label.c_str()));
    return -1.0;
  };

  Out = runCommand(toolsDir() + "/spike-analyze " + Img +
                       " --stats --metrics=" + Metrics,
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  std::string Error;
  std::optional<spike::telemetry::RunReport> Report =
      spike::telemetry::readRunReportFile(Metrics, &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  size_t TotalAt = Out.find("total time:");
  ASSERT_NE(TotalAt, std::string::npos) << Out;
  EXPECT_NE(Out.find("telemetry on", TotalAt), std::string::npos) << Out;
  double Total = std::atof(Out.c_str() + TotalAt + 11);
  double Sum = 0;
  for (const auto &[Label, Path] : Stages) {
    double Printed = StageLine(Out, Label);
    ASSERT_GE(Printed, 0.0) << Label << "\n" << Out;
    // Equal at 4 decimals: the line's rounding plus the report's 6.
    EXPECT_NEAR(Printed, Report->phaseSeconds(Path), 0.51e-4) << Label;
    Sum += Printed;
  }
  EXPECT_NEAR(Sum, Total, 3e-4) << Out;

  // Under each build stage, "serial" is the stage's span minus the
  // pool-region spans nested under it; the other stages print none.
  struct BuildStage {
    const char *Label;
    std::string Path;
    std::vector<std::string> Regions;
  };
  const BuildStage Builds[] = {
      {"CFG Build",
       "analyze/cfg.build",
       {"binary.validate/binary.validate.code", "cfg.scan", "cfg.leaders",
        "cfg.routines", "cfg.arcs"}},
      {"PSG Build",
       "analyze/psg.build",
       {"psg.count", "psg.routines", "psg.index"}}};
  for (const BuildStage &B : Builds) {
    size_t At = Out.find("  " + std::string(B.Label) + " ");
    ASSERT_NE(At, std::string::npos) << Out;
    size_t Next = Out.find('\n', At) + 1;
    ASSERT_EQ(Out.compare(Next, 10, "    serial"), 0) << B.Label << "\n" << Out;
    double Serial = std::atof(Out.c_str() + Next + 10);
    double Expected = Report->phaseSeconds(B.Path);
    for (const std::string &Region : B.Regions)
      Expected -= Report->phaseSeconds(B.Path + "/" + Region);
    EXPECT_NEAR(Serial, Expected, 2e-4) << B.Label;
  }
  size_t SerialLines = 0;
  for (size_t At = Out.find("    serial"); At != std::string::npos;
       At = Out.find("    serial", At + 1))
    ++SerialLines;
  EXPECT_EQ(SerialLines, 2u) << Out;

  // Without telemetry there is no stage clock: sizes and memory only.
  Out = runCommand(toolsDir() + "/spike-analyze " + Img + " --stats",
                   &Status);
  ASSERT_EQ(Status, 0) << Out;
  EXPECT_EQ(Out.find("total time:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("add --metrics"), std::string::npos) << Out;
  EXPECT_NE(Out.find("memory:"), std::string::npos) << Out;
  for (const auto &[Label, Path] : Stages)
    EXPECT_LT(StageLine(Out, Label), 0.0) << Label << "\n" << Out;

  for (const std::string &Path : {Img, Metrics})
    std::remove(Path.c_str());
}

TEST(BenchPaper, Smoke) {
  int Status = 0;
  std::string Out = runCommand(
      std::string(SPIKE_BENCH_DIR) + "/bench_paper --scale 0.05 --jobs 2",
      &Status);
  EXPECT_EQ(Status, 0) << Out;
  for (const char *Title :
       {"== Table 2:", "== Table 3:", "== Table 4:", "== Table 5:",
        "== Figure 13:", "== Figure 14:", "== Figure 15:", "== Ablation:",
        "== Optimization benefit", "jobs sweep (acad)",
        "jobs sweep (exec 96 routines)"})
    EXPECT_NE(Out.find(Title), std::string::npos) << Title << "\n" << Out;
}

TEST(BenchPaper, BadJobsAndScaleExitTwoBeforeAnyTable) {
  // atoi and atof once read --jobs -1 as 2^32 - 1 lanes, "2x" as 2, "abc"
  // and 0 as 1, and a bad scale as full scale.  Each value now exits 2 as
  // soon as it is read, so the trailing unknown flag, which would also
  // exit 2, is never reached: the message says which flag was refused.
  const std::string Bench = std::string(SPIKE_BENCH_DIR) + "/bench_paper";
  int Status = 0;
  for (const char *Bad : {"--jobs -1", "--jobs 2x", "--jobs abc", "--jobs 0",
                          "--jobs=1025", "--jobs ' 4'"}) {
    std::string Out =
        runCommand(Bench + " " + Bad + " --no-such-flag", &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Bad << ": " << Out;
    EXPECT_NE(Out.find("error: --jobs expects a count in [1, 1024]"),
              std::string::npos)
        << Bad << ": " << Out;
    EXPECT_EQ(Out.find("== "), std::string::npos) << Bad << ": " << Out;
  }
  for (const char *Bad : {"--scale abc", "--scale -1", "--scale=0"}) {
    std::string Out =
        runCommand(Bench + " " + Bad + " --no-such-flag", &Status);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Bad << ": " << Out;
    EXPECT_NE(Out.find("error: --scale expects a positive number"),
              std::string::npos)
        << Bad << ": " << Out;
  }
  std::string Out =
      runCommand("SPIKE_BENCH_SCALE=abc " + Bench + " --no-such-flag", &Status);
  EXPECT_EQ(WEXITSTATUS(Status), 2) << Out;
  EXPECT_NE(Out.find("error: SPIKE_BENCH_SCALE expects a positive number"),
            std::string::npos)
      << Out;
}
