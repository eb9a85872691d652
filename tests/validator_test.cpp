//===- tests/validator_test.cpp - semantic validation + quarantine --------===//
//
// The hardened-ingestion contract, tested in three layers:
//
//   1. the loader returns structured errors (ErrCode + byte offset) for
//      every malformed container, with golden codes per defect class,
//   2. validateImage grades semantic defects (strict vs advisory,
//      quarantining vs image-level) on a fixed corpus of bad images,
//   3. the CFG builder absorbs every quarantining defect: the offending
//      routine degrades to the paper's unknowable-code model and the
//      rest of the program keeps exact summaries — including a
//      force-quarantine soundness property checked against the exact
//      analysis across the synthetic profiles.
//
//===----------------------------------------------------------------------===//

#include "binary/ProgramBuilder.h"
#include "binary/Validator.h"
#include "isa/Encoding.h"
#include "isa/Registers.h"
#include "lint/Linter.h"
#include "opt/Pipeline.h"
#include "psg/Analyzer.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "TestPaths.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace spike;

namespace {

/// main calls helper and halts; helper increments and returns.
Image tinyProgram() {
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::lda(reg::A0, 7));
  B.emitCall("helper");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("helper");
  B.emit(inst::rri(Opcode::AddI, reg::V0, reg::A0, 1));
  B.emit(inst::ret());
  B.setEntry("main");
  return B.build();
}

/// First finding with \p Code, or nullptr.
const ValidationFinding *findCode(const ValidationReport &Report,
                                  ErrCode Code) {
  for (const ValidationFinding &F : Report.Findings)
    if (F.Code == Code)
      return &F;
  return nullptr;
}

int routineByName(const Program &Prog, const std::string &Name) {
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
    if (Prog.Routines[R].Name == Name)
      return int(R);
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Loader: structured container errors
//===----------------------------------------------------------------------===//

TEST(LoaderTest, GoldenContainerErrorCodes) {
  std::vector<uint8_t> Bytes = writeImage(tinyProgram());

  // Garbage magic.
  {
    std::vector<uint8_t> Bad = Bytes;
    Bad[0] ^= 0xff;
    Expected<Image> Result = loadImage(Bad);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::BadMagic);
  }
  // Header cut after the magic.
  {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + 12);
    Expected<Image> Result = loadImage(Prefix);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::TruncatedHeader);
    EXPECT_GE(Result.error().Offset, 0);
  }
  // Cut inside the code section (header is 24 bytes, code follows): the
  // count-vs-remaining guard catches it while reading the header, before
  // any allocation can happen.
  {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + 30);
    Expected<Image> Result = loadImage(Prefix);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::TruncatedHeader);
  }
  // A code count over MaxCodeWords (the 32-bit block bounds' limit) is
  // refused before any allocation, however many bytes follow.
  {
    std::vector<uint8_t> Huge = Bytes;
    for (int I = 0; I < 8; ++I) // The little-endian count at byte 16.
      Huge[16 + I] = uint8_t((MaxCodeWords + 1) >> (8 * I));
    Expected<Image> Result = loadImage(Huge);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::CodeTooLarge);
    EXPECT_EQ(Result.error().Offset, 24);
    EXPECT_TRUE(checkCodeSize(MaxCodeWords).ok());
  }
  // Cut inside the symbol table (code ends at byte 64).
  {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + 100);
    Expected<Image> Result = loadImage(Prefix);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::TruncatedSymbols);
  }
  // Trailing garbage after a complete image.
  {
    std::vector<uint8_t> Long = Bytes;
    Long.push_back(0x5a);
    Expected<Image> Result = loadImage(Long);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::TrailingBytes);
    EXPECT_EQ(uint64_t(Result.error().Offset), Bytes.size());
  }
  // Every strict prefix either loads (trailing sections are optional) or
  // fails with a structured truncation/magic code — never crashes.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(),
                                Bytes.begin() + int64_t(Len));
    Expected<Image> Result = loadImage(Prefix);
    if (!Result) {
      EXPECT_NE(Result.error().Code, ErrCode::None);
      EXPECT_FALSE(Result.error().Message.empty());
    }
  }
}

TEST(LoaderTest, FileErrorsAreDistinctAndNamed) {
  std::string Dir = spike::testpaths::testScratchDir();

  // Nonexistent file.
  {
    Expected<Image> Result = loadImageFile(Dir + "/does_not_exist.spkx");
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::IoOpen);
    EXPECT_NE(Result.error().Message.find("does_not_exist.spkx"),
              std::string::npos);
  }
  // Empty file: its own code, not "bad magic".
  {
    std::string Path = Dir + "/empty.spkx";
    std::ofstream(Path, std::ios::binary).close();
    Expected<Image> Result = loadImageFile(Path);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::EmptyFile);
    EXPECT_NE(Result.error().Message.find(Path), std::string::npos);
  }
  // Garbage content: bad magic, message still names the file.
  {
    std::string Path = Dir + "/garbage.spkx";
    std::ofstream Out(Path, std::ios::binary);
    Out << "not an image at all";
    Out.close();
    Expected<Image> Result = loadImageFile(Path);
    ASSERT_FALSE(Result);
    EXPECT_EQ(Result.error().Code, ErrCode::BadMagic);
    EXPECT_NE(Result.error().Message.find(Path), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Validator: semantic grading
//===----------------------------------------------------------------------===//

TEST(ValidatorTest, CleanImageHasNoFindings) {
  ValidationReport Report = validateImage(tinyProgram());
  EXPECT_TRUE(Report.clean());
  EXPECT_TRUE(Report.ok());
}

TEST(ValidatorTest, SymbolOutsideCodeIsStrict) {
  Image Img = tinyProgram();
  Img.Symbols.push_back({"oops", 999, false, false});
  ValidationReport Report = validateImage(Img);
  const ValidationFinding *F = findCode(Report, ErrCode::SymbolOutOfRange);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Strict);
  EXPECT_FALSE(F->Quarantines);
  EXPECT_TRUE(Img.verify().has_value());
}

TEST(ValidatorTest, EscapingJumpTableTargetIsStrict) {
  Image Img = tinyProgram();
  Img.JumpTables.push_back({{0, 999}}); // 999 is outside the code.
  ValidationReport Report = validateImage(Img);
  const ValidationFinding *F =
      findCode(Report, ErrCode::JumpTableTargetOutOfRange);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Strict);
  EXPECT_TRUE(Img.verify().has_value());
}

TEST(ValidatorTest, DanglingJumpTableIndexQuarantinesItsRoutine) {
  Image Img = tinyProgram();
  // helper's first instruction becomes "jmp_tab r1, 7" with no tables.
  Img.Code[3] = encodeInstruction(inst::jmpTab(1, 7));
  ValidationReport Report = validateImage(Img);
  const ValidationFinding *F =
      findCode(Report, ErrCode::DanglingJumpTableIndex);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Strict);
  EXPECT_TRUE(F->Quarantines);
  EXPECT_EQ(F->RoutineName, "helper");
  EXPECT_EQ(F->Address, 3);
  EXPECT_TRUE(Report.quarantines("helper"));
  EXPECT_FALSE(Report.quarantines("main"));
}

TEST(ValidatorTest, UndecodableOpcodeQuarantinesItsRoutine) {
  Image Img = tinyProgram();
  Img.Code[4] = ~uint64_t(0);
  ValidationReport Report = validateImage(Img);
  const ValidationFinding *F =
      findCode(Report, ErrCode::UndecodableOpcode);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Strict);
  EXPECT_TRUE(F->Quarantines);
  EXPECT_EQ(F->RoutineName, "helper");
}

TEST(ValidatorTest, WildCallTargetQuarantinesTheCaller) {
  Image Img = tinyProgram();
  Img.Code[1] = encodeInstruction(inst::jsr(500));
  ValidationReport Report = validateImage(Img);
  const ValidationFinding *F =
      findCode(Report, ErrCode::CallTargetOutOfRange);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Strict);
  EXPECT_TRUE(F->Quarantines);
  EXPECT_EQ(F->RoutineName, "main");
}

TEST(ValidatorTest, BogusAnnotationIsAdvisoryOnly) {
  Image Img = tinyProgram();
  // Address 0 is an lda, not a jsr_r: the annotation cannot attach.
  IndirectCallAnnotation Annot;
  Annot.Address = 0;
  Img.CallAnnotations.push_back(Annot);
  ValidationReport Report = validateImage(Img);
  const ValidationFinding *F =
      findCode(Report, ErrCode::AnnotationUnresolved);
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->Strict);
  EXPECT_FALSE(F->Quarantines);
  // Advisory findings do not fail verification.
  EXPECT_FALSE(Img.verify().has_value());
  EXPECT_FALSE(Report.ok());    // something was found...
  EXPECT_TRUE(Report.clean()); // ...but nothing strict
}

//===----------------------------------------------------------------------===//
// Quarantine: sound degradation in the CFG builder
//===----------------------------------------------------------------------===//

TEST(QuarantineTest, DefectDegradesOnlyTheOffendingRoutine) {
  Image Img = tinyProgram();
  Img.Code[3] = ~uint64_t(0); // helper becomes undecodable
  ASSERT_TRUE(Img.verify().has_value());

  AnalysisResult Analysis = analyzeImage(Img);
  const Program &Prog = Analysis.Prog;
  ASSERT_EQ(Prog.numQuarantined(), 1u);

  int Helper = routineByName(Prog, "helper");
  int Main = routineByName(Prog, "main");
  ASSERT_GE(Helper, 0);
  ASSERT_GE(Main, 0);
  EXPECT_TRUE(Prog.Routines[Helper].Quarantined);
  EXPECT_FALSE(Prog.Routines[Helper].QuarantineReason.empty());
  EXPECT_FALSE(Prog.Routines[Main].Quarantined);

  // The unknowable-code model: one synthetic block, unresolved control
  // flow, worst-case flow sets.
  const Routine &R = Prog.Routines[Helper];
  ASSERT_EQ(R.Blocks.size(), 1u);
  EXPECT_EQ(R.Blocks[0].Term, TerminatorKind::UnresolvedJump);
  RegSet AllRegs = RegSet::allBelow(NumIntRegs);
  EXPECT_EQ(R.Blocks[0].Ubd, AllRegs);
  EXPECT_TRUE(R.Blocks[0].Def.empty());

  // Callers see a worst-case summary: every register may be used and
  // overwritten, none is guaranteed defined.
  const FlowSets &Raw = Analysis.entrySets(uint32_t(Helper), 0);
  EXPECT_EQ(Raw.MayUse, AllRegs);
  EXPECT_TRUE(Raw.MustDef.empty());

  // main still gets a real (non-degenerate) analysis.
  EXPECT_FALSE(Analysis.Summaries.Routines[Main].EntrySummaries.empty());
}

TEST(QuarantineTest, CalleesOfQuarantinedCodeKeepAllRegsLiveAtExit) {
  // bad: jsr helper; <undecodable>.  helper: ret.  Entry halts at main.
  ProgramBuilder B;
  B.beginRoutine("main");
  B.emit(inst::halt(reg::V0));
  B.beginRoutine("bad");
  B.emitCall("helper");
  B.emit(inst::ret());
  B.beginRoutine("helper");
  B.emit(inst::rri(Opcode::AddI, reg::V0, reg::A0, 1));
  B.emit(inst::ret());
  B.setEntry("main");
  Image Img = B.build();
  // Corrupt bad's ret: the routine quarantines, but its jsr still marks
  // helper as called from unknowable code.
  Img.Code[2] = ~uint64_t(0);

  AnalysisResult Analysis = analyzeImage(Img);
  const Program &Prog = Analysis.Prog;
  int Bad = routineByName(Prog, "bad");
  int Helper = routineByName(Prog, "helper");
  ASSERT_GE(Bad, 0);
  ASSERT_GE(Helper, 0);
  EXPECT_TRUE(Prog.Routines[Bad].Quarantined);
  EXPECT_FALSE(Prog.Routines[Helper].Quarantined);
  EXPECT_TRUE(Prog.Routines[Helper].CalledFromQuarantine);

  // Garbage code need not respect the calling standard, so everything
  // must be assumed live when helper returns into it.
  ASSERT_EQ(Analysis.Summaries.Routines[Helper].LiveAtExit.size(), 1u);
  EXPECT_EQ(Analysis.Summaries.Routines[Helper].LiveAtExit[0],
            RegSet::allBelow(NumIntRegs));
}

TEST(QuarantineTest, LintReportsQuarantineAsSL011) {
  Image Img = tinyProgram();
  Img.Code[3] = ~uint64_t(0);
  LintResult Result = lintImage(Img);
  unsigned Quarantines = 0;
  for (const Diagnostic &D : Result.Diags)
    if (D.Rule == RuleId::QuarantinedRoutine) {
      ++Quarantines;
      EXPECT_EQ(D.RoutineName, "helper");
      EXPECT_NE(D.Message.find("quarantined"), std::string::npos);
    }
  EXPECT_EQ(Quarantines, 1u);
}

TEST(QuarantineTest, OptimizerRefusesQuarantinedBytes) {
  Image Img = tinyProgram();
  Img.Code[3] = ~uint64_t(0);
  Image Before = Img;

  PipelineStats Stats = optimizeImage(Img);
  EXPECT_TRUE(Stats.clean());
  EXPECT_EQ(Stats.RoundsRolledBack, 0u);
  // helper's bytes (addresses 3..4) are untouched.
  EXPECT_EQ(Img.Code[3], Before.Code[3]);
  EXPECT_EQ(Img.Code[4], Before.Code[4]);
}

TEST(QuarantineTest, PipelineRollsBackACorruptedRound) {
  // Inject a fault after the first round's passes: the round's output
  // must be discarded wholesale, leaving the caller's image exactly as
  // it entered the round.
  ExecProfile P;
  P.Routines = 6;
  P.Seed = 11;
  Image Img = generateExecProgram(P);
  Image Original = Img;

  PipelineOptions Opts;
  Opts.PostRoundMutator = [](Image &Out, unsigned) {
    Out.Code[0] = ~uint64_t(0); // a pass "wrote" an undecodable word
  };
  PipelineStats Stats = optimizeImage(Img, CallingConv(), Opts);
  EXPECT_EQ(Stats.RoundsRolledBack, 1u);
  EXPECT_FALSE(Stats.clean());
  EXPECT_EQ(Stats.Rounds, 0u); // the rolled-back round does not count
  ASSERT_EQ(Stats.LintReports.size(), 1u);
  EXPECT_NE(Stats.LintReports[0].find("rolled back"), std::string::npos);
  EXPECT_TRUE(Img == Original);
}

TEST(QuarantineTest, OptimizedOutputSurvivesRoundTrip) {
  ExecProfile P;
  P.Routines = 6;
  P.Seed = 11;
  Image Img = generateExecProgram(P);
  PipelineStats Stats = optimizeImage(Img);
  EXPECT_EQ(Stats.RoundsRolledBack, 0u);
  ValidationReport Report = validateImage(Img);
  EXPECT_EQ(Report.numStrict(), 0u);
  Expected<Image> Reloaded = loadImage(writeImage(Img));
  ASSERT_TRUE(bool(Reloaded));
  EXPECT_TRUE(*Reloaded == Img);
}

//===----------------------------------------------------------------------===//
// Force-quarantine soundness property
//===----------------------------------------------------------------------===//

namespace {

/// Checks that degrading \p Victim to quarantine in \p Img only widens
/// the may-sets and narrows the must-sets of every other routine,
/// relative to the exact analysis \p Exact.
void expectQuarantineSound(const Image &Img, const AnalysisResult &Exact,
                           const std::string &Victim) {
  AnalysisOptions Opts;
  Opts.Cfg.ForceQuarantine.push_back(Victim);
  AnalysisResult Degraded = analyzeImage(Img, CallingConv(), Opts);

  const Program &Prog = Exact.Prog;
  ASSERT_EQ(Degraded.Prog.Routines.size(), Prog.Routines.size());
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
    if (Degraded.Prog.Routines[R].Quarantined)
      continue; // Its own summary is worst-case by construction.
    const RoutineResults &E = Exact.Summaries.Routines[R];
    const RoutineResults &D = Degraded.Summaries.Routines[R];
    ASSERT_EQ(E.EntrySummaries.size(), D.EntrySummaries.size());
    for (uint32_t Entry = 0; Entry < E.EntrySummaries.size(); ++Entry) {
      const std::string Where =
          Prog.Routines[R].Name + " entrance " + std::to_string(Entry) +
          " (victim " + Victim + ")";
      // May-sets only widen.
      EXPECT_TRUE(D.EntrySummaries[Entry].Used.containsAll(
          E.EntrySummaries[Entry].Used))
          << "call-used shrank at " << Where;
      EXPECT_TRUE(D.EntrySummaries[Entry].Killed.containsAll(
          E.EntrySummaries[Entry].Killed))
          << "call-killed shrank at " << Where;
      EXPECT_TRUE(D.LiveAtEntry[Entry].containsAll(E.LiveAtEntry[Entry]))
          << "live-at-entry shrank at " << Where;
      // The raw must-set only narrows.  (The extracted Defined summary
      // is capped by MayDef and can shift either way on halt-only
      // paths; the unfiltered MustDef is the monotone quantity.)
      EXPECT_TRUE(Exact.entrySets(R, Entry).MustDef.containsAll(
          Degraded.entrySets(R, Entry).MustDef))
          << "must-def grew at " << Where;
    }
    ASSERT_EQ(E.LiveAtExit.size(), D.LiveAtExit.size());
    for (uint32_t Exit = 0; Exit < E.LiveAtExit.size(); ++Exit)
      EXPECT_TRUE(D.LiveAtExit[Exit].containsAll(E.LiveAtExit[Exit]))
          << Prog.Routines[R].Name << " exit " << Exit
          << " live-at-exit shrank (victim " << Victim << ")";
  }
}

} // namespace

TEST(QuarantineTest, ForcedQuarantineIsSoundAcrossProfiles) {
  // Exec programs plus a few structured benchmark profiles, quarantining
  // each routine in turn and checking every other routine's summaries
  // only degrade monotonically.
  std::vector<Image> Corpus;
  for (uint64_t Seed : {3u, 17u}) {
    ExecProfile P;
    P.Routines = 8;
    P.Seed = Seed;
    Corpus.push_back(generateExecProgram(P));
  }
  const std::vector<BenchmarkProfile> &Paper = paperProfiles();
  for (size_t I = 0; I < Paper.size(); I += 5)
    Corpus.push_back(generateCfgProgram(scaledProfile(Paper[I], 0.05)));

  for (const Image &Img : Corpus) {
    AnalysisResult Exact = analyzeImage(Img);
    for (uint32_t R = 0; R < Exact.Prog.Routines.size(); ++R)
      expectQuarantineSound(Img, Exact, Exact.Prog.Routines[R].Name);
  }
}
