//===- tests/lint_test.cpp - spike-lint rules, verifier, CLI ---------------===//
//
// Covers the lint subsystem from three directions:
//   - golden tests on the paper's Figure 2 example and small handcrafted
//     programs that trigger each rule exactly,
//   - property tests: clean generated programs from every calibrated
//     profile produce zero error-severity diagnostics, and seeded
//     corruptions fire exactly the rule they inject,
//   - the verifier: PSG-vs-reference cross-check and the optimizer
//     pre/post lint audit, both through the library and the CLI.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "isa/Encoding.h"
#include "isa/Registers.h"
#include "lint/JsonWriter.h"
#include "lint/LintRules.h"
#include "lint/Linter.h"
#include "opt/Pipeline.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Telemetry.h"
#include "DifferentialCorpus.h"
#include "TestPaths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace spike;

namespace {

/// The paper's Figure 2 program (same construction as
/// examples/paper_example.cpp):
///   __start: call P1, call P3, halt
///   P1: def R0, def R1, call P2, use R0
///   P2: use R1, def R2 (always), def R3 (one path)
///   P3: def R1, call P2
Image figure2Image() {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P1");
  B.emitCall("P3");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");

  B.beginRoutine("P1");
  B.emit(inst::lda(0, 5));
  B.emit(inst::lda(1, 7));
  B.emitCall("P2");
  B.emit(inst::mov(2, 0));
  B.emit(inst::ret());

  B.beginRoutine("P2");
  ProgramBuilder::LabelId Skip = B.makeLabel();
  B.emit(inst::mov(2, 1));
  B.emitCondBr(Opcode::Beq, 2, Skip);
  B.emit(inst::lda(3, 1));
  B.bind(Skip);
  B.emit(inst::ret());

  B.beginRoutine("P3");
  B.emit(inst::lda(1, 9));
  B.emitCall("P2");
  B.emit(inst::ret());
  return B.build();
}

/// Rule ids present in \p Diags at severity >= \p MinSev.
std::set<RuleId> ruleSet(const std::vector<Diagnostic> &Diags,
                         Severity MinSev = Severity::Note) {
  std::set<RuleId> Rules;
  for (const Diagnostic &D : Diags)
    if (D.Sev >= MinSev)
      Rules.insert(D.Rule);
  return Rules;
}

/// Count of diagnostics with rule \p Rule.
unsigned countRule(const LintResult &Result, RuleId Rule) {
  unsigned N = 0;
  for (const Diagnostic &D : Result.Diags)
    if (D.Rule == Rule)
      ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden tests: Figure 2
//===----------------------------------------------------------------------===//

TEST(LintGolden, Figure2IsErrorFree) {
  LintResult Result = lintImage(figure2Image());
  EXPECT_FALSE(Result.hasErrors());
  // Nothing is live at the program entry point and no routine touches a
  // callee-saved register, so both interprocedural warnings stay quiet.
  EXPECT_EQ(countRule(Result, RuleId::UndefEntryRead), 0u);
  EXPECT_EQ(countRule(Result, RuleId::CalleeSavedClobber), 0u);
  EXPECT_EQ(countRule(Result, RuleId::UnreachableRoutine), 0u);
}

TEST(LintGolden, Figure2DeadDefsAreTheKnownTwo) {
  // Address map: __start occupies [0,4), P1 [4,9), P2 [9,13), P3 [13,16).
  //   @7  mov r2, r0   P1's use-after-call result, never observed
  //   @11 lda r3, 1    P2's one-path def of R3, never used anywhere
  Image Img = figure2Image();
  AnalysisResult Analysis = analyzeImage(Img);
  std::vector<uint64_t> Dead =
      findDeadDefs(Analysis.Prog, Analysis.Summaries);
  EXPECT_EQ(Dead, (std::vector<uint64_t>{7, 11}));

  LintResult Result = lintAnalysis(Img, Analysis);
  EXPECT_EQ(countRule(Result, RuleId::DeadDef), 2u);
}

TEST(LintGolden, Figure2SummariesMatchReference) {
  Image Img = figure2Image();
  AnalysisResult Analysis = analyzeImage(Img);
  EXPECT_TRUE(crossCheckSummaries(Analysis).empty());

  LintOptions Opts;
  Opts.Verify = true;
  LintResult Result = lintAnalysis(Img, Analysis, Opts);
  EXPECT_EQ(countRule(Result, RuleId::SummaryMismatch), 0u);
}

//===----------------------------------------------------------------------===//
// One handcrafted program per rule
//===----------------------------------------------------------------------===//

TEST(LintRules, UndefEntryReadFires) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emit(inst::mov(reg::V0, reg::T0)); // t0 never defined anywhere
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  LintResult Result = lintImage(B.build());
  ASSERT_EQ(countRule(Result, RuleId::UndefEntryRead), 1u);
  for (const Diagnostic &D : Result.Diags)
    if (D.Rule == RuleId::UndefEntryRead) {
      EXPECT_EQ(D.RoutineName, "__start");
      EXPECT_NE(D.Message.find("t0"), std::string::npos);
    }
}

TEST(LintRules, CalleeSavedClobberFires) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P");
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("P");
  B.emit(inst::lda(reg::S0, 1)); // clobbers s0, no save/restore
  B.emit(inst::mov(reg::V0, reg::S0));
  B.emit(inst::ret());
  LintResult Result = lintImage(B.build());
  // The clobber is transitive: P defines s0 unsaved, and __start (which
  // calls P without saving s0 either) breaks the guarantee for *its*
  // callers too, so both routines report.
  ASSERT_EQ(countRule(Result, RuleId::CalleeSavedClobber), 2u);
  std::set<std::string> Names;
  for (const Diagnostic &D : Result.Diags)
    if (D.Rule == RuleId::CalleeSavedClobber) {
      Names.insert(D.RoutineName);
      EXPECT_NE(D.Message.find("s0"), std::string::npos);
    }
  EXPECT_EQ(Names, (std::set<std::string>{"__start", "P"}));
}

TEST(LintRules, UnreachableRoutineFires) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("orphan");
  B.emit(inst::ret());
  LintResult Result = lintImage(B.build());
  EXPECT_EQ(countRule(Result, RuleId::UnreachableRoutine), 1u);
  // Rules below routine level stay quiet inside the dead routine.
  EXPECT_EQ(countRule(Result, RuleId::CalleeSavedClobber), 0u);
}

TEST(LintRules, UnreachableBlockFires) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  ProgramBuilder::LabelId Join = B.makeLabel();
  B.emitBr(Join);
  B.emit(inst::lda(reg::T0, 1)); // skipped by the branch above
  B.bind(Join);
  B.emit(inst::lda(reg::V0, 0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  LintResult Result = lintImage(B.build());
  EXPECT_EQ(countRule(Result, RuleId::UnreachableBlock), 1u);
}

TEST(LintRules, JumpTableEscapeFires) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  ProgramBuilder::LabelId A = B.makeLabel(), C = B.makeLabel();
  B.emit(inst::lda(reg::T0, 0));
  B.emitTableJump(reg::T0, {A, C});
  B.bind(A);
  B.emit(inst::lda(reg::V0, 1));
  B.bind(C);
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("other");
  B.emit(inst::ret());
  Image Img = B.build();

  // Clean to start with.
  EXPECT_EQ(countRule(lintImage(Img), RuleId::JumpTableEscape), 0u);

  // Point one arm into the other routine.  The CFG builder demotes the
  // whole table to an unresolved jump (which keeps analysis sound), so
  // only the lint makes the defect visible.
  uint64_t OtherBegin = 0;
  for (const Symbol &Sym : Img.Symbols)
    if (Sym.Name == "other")
      OtherBegin = Sym.Address;
  Img.JumpTables[0].Targets[1] = OtherBegin;
  ASSERT_FALSE(Img.verify().has_value());
  LintResult Result = lintImage(Img);
  EXPECT_EQ(countRule(Result, RuleId::JumpTableEscape), 1u);
  EXPECT_TRUE(Result.hasErrors());
}

TEST(LintRules, MidRoutineCallFires) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  ProgramBuilder::LabelId Mid = B.makeLabel();
  B.emitCallTo(Mid); // calls an unnamed address inside P
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("P");
  B.emit(inst::lda(reg::V0, 1));
  B.bind(Mid);
  B.emit(inst::lda(reg::V0, 2));
  B.emit(inst::ret());
  LintResult Result = lintImage(B.build());
  EXPECT_EQ(countRule(Result, RuleId::MidRoutineCall), 1u);
  EXPECT_TRUE(Result.hasErrors());
}

TEST(LintRules, NamedSecondaryEntranceDoesNotFire) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P_alt");
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("P");
  B.emit(inst::lda(reg::V0, 1));
  B.addSecondaryEntry("P_alt"); // a legitimate named entrance
  B.emit(inst::lda(reg::V0, 2));
  B.emit(inst::ret());
  LintResult Result = lintImage(B.build());
  EXPECT_EQ(countRule(Result, RuleId::MidRoutineCall), 0u);
  EXPECT_FALSE(Result.hasErrors());
}

TEST(LintRules, FallThroughExitFires) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P");
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("P");
  B.emit(inst::lda(reg::V0, 1)); // no ret: falls off the routine's end
  B.beginRoutine("Q");
  B.emit(inst::ret());
  LintResult Result = lintImage(B.build());
  EXPECT_EQ(countRule(Result, RuleId::FallThroughExit), 1u);
  EXPECT_TRUE(Result.hasErrors());
}

TEST(LintRules, DisabledRulesStayQuiet) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emit(inst::mov(reg::V0, reg::T0));
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  Image Img = B.build();

  LintOptions Opts;
  Opts.disableRule(RuleId::UndefEntryRead);
  EXPECT_EQ(countRule(lintImage(Img, CallingConv(), Opts),
                      RuleId::UndefEntryRead),
            0u);

  Opts = LintOptions();
  Opts.EntryDefinedRegs = RegSet::allBelow(NumIntRegs);
  EXPECT_EQ(countRule(lintImage(Img, CallingConv(), Opts),
                      RuleId::UndefEntryRead),
            0u);
}

TEST(LintRules, MalformedImageQuarantinesAndReports) {
  Image Img;
  Img.Code.push_back(~uint64_t(0)); // does not decode
  ASSERT_TRUE(Img.verify().has_value());
  // The defect is absorbed: the one (anonymous) routine is quarantined
  // and reported as SL011; no other rule fires on placeholder code.
  LintResult Result = lintImage(Img);
  ASSERT_EQ(Result.Diags.size(), 1u);
  EXPECT_EQ(Result.Diags[0].Rule, RuleId::QuarantinedRoutine);
  EXPECT_NE(Result.Diags[0].Message.find("undecodable"),
            std::string::npos);
  EXPECT_FALSE(Result.hasErrors());
}

//===----------------------------------------------------------------------===//
// Result plumbing
//===----------------------------------------------------------------------===//

namespace {

/// Number of spans named \p Name that \p Sess opened.
long spansNamed(const telemetry::Session &Sess, const std::string &Name) {
  return std::count_if(
      Sess.spans().begin(), Sess.spans().end(),
      [&](const telemetry::SpanEvent &E) { return E.Name == Name; });
}

} // namespace

TEST(LintResultTest, MinSeverityFiltersAndSortIsDeterministic) {
  Image Img = figure2Image();
  LintResult A = lintImage(Img), B = lintImage(Img);
  ASSERT_EQ(A.Diags.size(), B.Diags.size());
  for (size_t I = 0; I < A.Diags.size(); ++I)
    EXPECT_EQ(A.Diags[I].str(), B.Diags[I].str());
  EXPECT_TRUE(std::is_sorted(
      A.Diags.begin(), A.Diags.end(),
      [](const Diagnostic &X, const Diagnostic &Y) {
        return X.RoutineIndex < Y.RoutineIndex ||
               (X.RoutineIndex == Y.RoutineIndex && X.Address < Y.Address);
      }));

  // The floor chooses which rules run.  Severity is fixed per rule, so
  // a floored run returns exactly the note-level list at or above the
  // floor, in the same order, without running the note rules.
  for (const auto &[Name, Subject] : testcorpus::differentialCorpus()) {
    AnalysisResult Analysis = analyzeImage(Subject);
    telemetry::Session NoteSess("lint_test");
    LintResult Notes;
    {
      telemetry::SessionScope Scope(NoteSess);
      Notes = lintAnalysis(Subject, Analysis);
    }
    EXPECT_EQ(spansNamed(NoteSess, "lint.dead-def"), 1) << Name;
    EXPECT_EQ(spansNamed(NoteSess, "lint.dead-stack-store"), 1) << Name;
    EXPECT_EQ(spansNamed(NoteSess, "slice.slotflow"), 1) << Name;

    for (Severity Floor : {Severity::Warning, Severity::Error}) {
      std::string Where = Name + " at " + severityName(Floor);
      LintOptions Opts;
      Opts.MinSeverity = Floor;
      telemetry::Session Sess("lint_test");
      LintResult Floored;
      {
        telemetry::SessionScope Scope(Sess);
        Floored = lintAnalysis(Subject, Analysis, Opts);
      }
      std::vector<std::string> Want, Got;
      for (const Diagnostic &D : Notes.Diags)
        if (D.Sev >= Floor)
          Want.push_back(D.str());
      for (const Diagnostic &D : Floored.Diags)
        Got.push_back(D.str());
      EXPECT_EQ(Got, Want) << Where;
      for (const char *Skipped :
           {"slice.slotflow", "lint.dead-def", "lint.dead-stack-store"})
        EXPECT_EQ(spansNamed(Sess, Skipped), 0) << Where << ": " << Skipped;
      EXPECT_EQ(spansNamed(Sess, "lint.control-flow"), 1) << Where;
    }
  }
}

TEST(LintResultTest, NewDiagnosticsDiffsByRuleAndRoutine) {
  LintResult Before, After;
  Before.Diags.push_back(
      makeDiagnostic(RuleId::CalleeSavedClobber, 0, "P", 0, 5, "old"));
  // Same key, different address: not new.
  After.Diags.push_back(
      makeDiagnostic(RuleId::CalleeSavedClobber, 0, "P", 2, 9, "moved"));
  // New routine for the same rule: new.
  After.Diags.push_back(
      makeDiagnostic(RuleId::CalleeSavedClobber, 1, "Q", 0, 20, "new"));
  // Below the severity floor: ignored.
  After.Diags.push_back(makeDiagnostic(RuleId::DeadDef, 1, "Q", 0, 21, "n"));

  std::vector<Diagnostic> Fresh = newDiagnostics(Before, After);
  ASSERT_EQ(Fresh.size(), 1u);
  EXPECT_EQ(Fresh[0].RoutineName, "Q");
  EXPECT_EQ(Fresh[0].Rule, RuleId::CalleeSavedClobber);
}

TEST(LintResultTest, JsonOutputIsWellFormed) {
  LintResult Result;
  Result.Diags.push_back(makeDiagnostic(
      RuleId::UndefEntryRead, 0, "weird\"name\\", 1, 2, "line\nbreak"));
  std::string Json = writeDiagnosticsJson(Result);
  EXPECT_NE(Json.find("\"rule\": \"SL001\""), std::string::npos);
  EXPECT_NE(Json.find("weird\\\"name\\\\"), std::string::npos);
  EXPECT_NE(Json.find("line\\nbreak"), std::string::npos);
  EXPECT_NE(Json.find("\"counts\": {\"note\": 0, \"warning\": 1, "
                      "\"error\": 0}"),
            std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
}

//===----------------------------------------------------------------------===//
// Property tests over the calibrated profiles
//===----------------------------------------------------------------------===//

class LintAllProfiles : public ::testing::TestWithParam<int> {};

TEST_P(LintAllProfiles, CleanProgramsHaveNoErrors) {
  const BenchmarkProfile &Base = paperProfiles()[size_t(GetParam())];
  BenchmarkProfile P = scaledProfile(Base, 55.0 / Base.Routines);
  Image Img = generateCfgProgram(P);
  LintResult Result = lintImage(Img);
  EXPECT_FALSE(Result.hasErrors())
      << Base.Name << ": " << Result.Diags.front().str();
  for (const Diagnostic &D : Result.Diags)
    EXPECT_LT(D.Sev, Severity::Error) << D.str();
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, LintAllProfiles,
                         ::testing::Range(0, 16));

namespace {

/// Rewrites the first "stq s_i, <slot>(sp)" prologue store of a reachable
/// routine into "stq sp, <slot>(sp)": the routine still restores s_i in
/// its epilogue, but no longer saves it, so its entry MAY-DEF keeps s_i.
/// Returns false if no candidate exists.
bool corruptSaveStore(Image &Img) {
  for (uint64_t Address = 0; Address < Img.Code.size(); ++Address) {
    std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
    if (!Inst || Inst->Op != Opcode::Stq || Inst->Rb != reg::SP)
      continue;
    if (Inst->Ra < reg::S0 || Inst->Ra > reg::S5)
      continue;
    Img.Code[Address] =
        encodeInstruction(inst::stq(reg::SP, Inst->Imm, reg::SP));
    return true;
  }
  return false;
}

} // namespace

TEST(LintCorruption, ClobberedSaveFiresExactlyCcClobber) {
  BenchmarkProfile P = scaledProfile(paperProfiles()[0], 0.4);
  P.SavedRegsPerRoutine = 2.5;  // make sure save/restore pairs exist
  P.EntrancesPerRoutine = 1.0;  // multi-entrance routines defeat save
                                // detection and would pre-fire SL002
  Image Clean = generateCfgProgram(P);
  Image Corrupt = Clean;
  ASSERT_TRUE(corruptSaveStore(Corrupt));

  LintResult Before = lintImage(Clean);
  LintResult After = lintImage(Corrupt);
  std::vector<Diagnostic> Fresh = newDiagnostics(Before, After);
  ASSERT_FALSE(Fresh.empty());
  EXPECT_EQ(ruleSet(Fresh), std::set<RuleId>{RuleId::CalleeSavedClobber});
}

TEST(LintCorruption, EscapedJumpTableFiresExactlyJumpTableRule) {
  BenchmarkProfile P = scaledProfile(paperProfiles()[0], 0.4);
  Image Clean = generateCfgProgram(P);
  ASSERT_FALSE(Clean.JumpTables.empty());
  Image Corrupt = Clean;
  // Redirect one arm of the first table to the program entry (which lies
  // in a different routine than any generated multiway branch).
  Corrupt.JumpTables[0].Targets[0] = Corrupt.EntryAddress;
  ASSERT_FALSE(Corrupt.verify().has_value());

  LintResult Before = lintImage(Clean);
  LintResult After = lintImage(Corrupt);
  // The demoted table floods liveness conservatively, which may shift
  // warnings; the *errors* introduced must be exactly the injected rule.
  std::vector<Diagnostic> Fresh =
      newDiagnostics(Before, After, Severity::Error);
  ASSERT_FALSE(Fresh.empty());
  EXPECT_EQ(ruleSet(Fresh), std::set<RuleId>{RuleId::JumpTableEscape});
}

//===----------------------------------------------------------------------===//
// The verifier: cross-check + optimizer audit
//===----------------------------------------------------------------------===//

class LintVerifier : public ::testing::TestWithParam<int> {};

TEST_P(LintVerifier, PsgMatchesReferenceAndOptimizerIntroducesNothing) {
  const BenchmarkProfile &Base = paperProfiles()[size_t(GetParam())];
  BenchmarkProfile P = scaledProfile(Base, 45.0 / Base.Routines);
  Image Img = generateCfgProgram(P);

  AnalysisResult Analysis = analyzeImage(Img);
  EXPECT_TRUE(crossCheckSummaries(Analysis).empty()) << Base.Name;

  PipelineOptions Opts;
  Opts.LintSelfCheck = true;
  Opts.CrossCheck = true;
  PipelineStats Stats = optimizeImage(Img, CallingConv(), Opts);
  EXPECT_EQ(Stats.LintRegressions, 0u)
      << Base.Name << ": " << Stats.LintReports.front();
  EXPECT_EQ(Stats.CrossCheckMismatches, 0u) << Base.Name;
  EXPECT_TRUE(Stats.clean());
}

// Three profiles from different regimes: compress (small SPECint),
// vortex (large SPECint, many routines), sqlservr (switch-heavy PC app).
INSTANTIATE_TEST_SUITE_P(ThreeProfiles, LintVerifier,
                         ::testing::Values(0, 7, 8));

TEST(LintSelfCheck, WarningFloorReportsWhatANoteBaselineWould) {
  // The self-check lints at a warning floor.  A clobbered callee-saved
  // register after round 1 must surface exactly as a note-level baseline
  // and note-level round lints, diffed at warning, would report it.
  BenchmarkProfile P = scaledProfile(paperProfiles()[0], 0.4);
  P.SavedRegsPerRoutine = 2.5;
  P.EntrancesPerRoutine = 1.0;
  Image Img = generateCfgProgram(P);

  std::vector<Image> RoundImages;
  PipelineOptions Opts;
  Opts.LintSelfCheck = true;
  Opts.PostRoundMutator = [&](Image &Out, unsigned Round) {
    if (Round == 0) {
      EXPECT_TRUE(corruptSaveStore(Out));
    }
    RoundImages.push_back(Out);
  };
  Image Optimized = Img;
  PipelineStats Stats = optimizeImage(Optimized, CallingConv(), Opts);
  ASSERT_EQ(Stats.RoundsRolledBack, 0u);
  ASSERT_FALSE(RoundImages.empty());

  LintOptions NoteOpts;
  NoteOpts.disableRule(RuleId::UnreachableRoutine);
  NoteOpts.disableRule(RuleId::UnreachableBlock);
  LintResult Baseline = lintImage(Img, CallingConv(), NoteOpts);
  std::vector<std::string> Want;
  for (size_t Round = 0; Round < RoundImages.size(); ++Round) {
    LintResult After = lintImage(RoundImages[Round], CallingConv(), NoteOpts);
    for (const Diagnostic &D :
         newDiagnostics(Baseline, After, Severity::Warning))
      Want.push_back("round " + std::to_string(Round + 1) + ": " + D.str());
  }
  ASSERT_FALSE(Want.empty());
  EXPECT_NE(Want.front().find("SL002"), std::string::npos) << Want.front();
  EXPECT_EQ(Stats.LintRegressions, Want.size());
  EXPECT_EQ(Stats.LintReports, Want);
}

//===----------------------------------------------------------------------===//
// CLI
//===----------------------------------------------------------------------===//

namespace {

std::string scratch(const std::string &Name) {
  // Per-test directory: concurrent ctest jobs must not share file names.
  return spike::testpaths::scratchFile(Name);
}

std::string run(const std::string &Command, int *ExitCode) {
  std::string Output;
  std::FILE *Pipe = ::popen((Command + " 2>&1").c_str(), "r");
  if (!Pipe) {
    *ExitCode = -1;
    return Output;
  }
  char Buffer[512];
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  int Status = ::pclose(Pipe);
  *ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Output;
}

} // namespace

TEST(LintCli, VerifyPassesOnGeneratedProgram) {
  BenchmarkProfile P = scaledProfile(paperProfiles()[0], 0.3);
  std::string Path = scratch("lint_cli.spkx");
  ASSERT_TRUE(writeImageFile(generateCfgProgram(P), Path));

  int Exit = 0;
  std::string Tool = std::string(SPIKE_TOOLS_DIR) + "/spike-lint";
  std::string Out = run(Tool + " " + Path + " --verify", &Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("verification: passed"), std::string::npos) << Out;

  Out = run(Tool + " " + Path + " --json --min-severity warning", &Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("\"counts\""), std::string::npos) << Out;

  // spike-analyze grows the same cross-check under the same flag name.
  std::string Analyze = std::string(SPIKE_TOOLS_DIR) + "/spike-analyze";
  Out = run(Analyze + " " + Path + " --verify", &Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("0 mismatch(es)"), std::string::npos) << Out;
}

TEST(LintCli, ErrorsProduceNonzeroExit) {
  ProgramBuilder B;
  B.beginRoutine("__start");
  B.emitCall("P");
  B.emit(inst::halt(reg::V0));
  B.setEntry("__start");
  B.beginRoutine("P");
  B.emit(inst::lda(reg::V0, 1)); // falls off the end: SL008
  B.beginRoutine("Q");
  B.emit(inst::ret());
  std::string Path = scratch("lint_cli_bad.spkx");
  ASSERT_TRUE(writeImageFile(B.build(), Path));

  int Exit = 0;
  std::string Tool = std::string(SPIKE_TOOLS_DIR) + "/spike-lint";
  std::string Out = run(Tool + " " + Path, &Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("SL008"), std::string::npos) << Out;

  Out = run(Tool + " nonexistent.spkx", &Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("SL000"), std::string::npos) << Out;

  Out = run(Tool + " --bogus-flag", &Exit);
  EXPECT_EQ(Exit, 2) << Out;
}
