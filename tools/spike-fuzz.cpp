//===- tools/spike-fuzz.cpp - fault-injection fuzzer for image ingestion ---===//
//
// Deterministic, seeded mutation fuzzing of the whole ingestion and
// optimization stack:
//
//   spike-fuzz [--seed <n>] [--iterations <n>] [--artifact-dir <dir>]
//              [--skip-oracle] [--verbose]
//
// Two services:
//
//   1. Soundness oracle (startup).  For every synthetic profile, the
//      exact interprocedural analysis is compared against re-analyses
//      with individual routines force-quarantined: degrading a routine
//      to the unknowable-code model may only widen may-sets and narrow
//      must-sets of every other routine.  A violation means quarantine
//      degradation is not conservative — the one property the whole
//      hardening scheme rests on.
//
//   2. Mutation loop.  Each iteration derives a mutant from a corpus of
//      valid images (byte flips, truncation, extension, word overwrites,
//      structured symbol / jump-table / annotation / entry corruption,
//      two-image crossover) and drives it through
//      load -> validate -> analyze -> lint -> optimize, asserting the
//      ingestion trichotomy: every mutant ends as a *clean error* (load
//      rejected with a structured code), a *quarantined-but-sound*
//      result (strict validation findings, offenders quarantined with
//      worst-case summaries, SL011 reported, optimizer leaves their
//      bytes alone), or a *full result* (no strict finding, normal
//      pipeline).  Nothing may crash, hang, or silently mis-optimize.
//
//   3. Serve arm (--serve-iterations N).  Each iteration runs one
//      spike-serve session in-process: a deterministic random command
//      stream (valid queries, routine patches, image loads, malformed
//      lines, truncated JSON, random batching) against the resident
//      server.  Every reply must be one well-formed JSON object, the
//      server must never die, and at the end of the stream the resident
//      summaries, slot facts, and rendered entry witnesses must be
//      identical to a fresh full solve of the final patched image (the
//      fresh-solve oracle mirroring tests/serve_test.cpp).
//
// Exit status: 0 all iterations clean, 1 any property violated (the
// offending mutant is written to --artifact-dir if given), 2 usage.
//
//===----------------------------------------------------------------------===//

#include "binary/Validator.h"
#include "isa/Encoding.h"
#include "lint/Linter.h"
#include "opt/Pipeline.h"
#include "provenance/Witness.h"
#include "psg/Analyzer.h"
#include "serve/Serve.h"
#include "slice/Slicer.h"
#include "slice/SlotFlow.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Json.h"
#include "ToolBudget.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace spike;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--seed <n>] [--iterations <n>] "
               "[--serve-iterations <n>] "
               "[--artifact-dir <dir>] [--skip-oracle] [--verbose] "
               "%s %s %s\n",
               Prog, toolopts::jobsUsage(), toolbudget::usage(),
               tooltel::usage());
  return 2;
}

struct FuzzConfig {
  uint64_t Seed = 1;
  uint64_t Iterations = 10000;
  uint64_t ServeIterations = 0;
  std::string ArtifactDir;
  bool SkipOracle = false;
  bool Verbose = false;
  unsigned Jobs = 1;
  toolbudget::Options Budget;
  CancellationToken *Cancel = nullptr;
};

/// Global failure sink: remembers the first violation and counts all.
struct Verdicts {
  uint64_t Failures = 0;
  std::string FirstReport;

  void fail(const std::string &Report) {
    ++Failures;
    if (FirstReport.empty())
      FirstReport = Report;
    std::fprintf(stderr, "FAIL: %s\n", Report.c_str());
  }
};

#define FUZZ_CHECK(Cond, V, Context)                                     \
  do {                                                                   \
    if (!(Cond))                                                         \
      (V).fail(std::string(Context) + ": " #Cond);                       \
  } while (0)

//===----------------------------------------------------------------------===//
// Soundness oracle
//===----------------------------------------------------------------------===//

/// \p Outer must be a superset of \p Inner (top swallows everything).
bool slotContainsAll(const SlotSet &Outer, const SlotSet &Inner) {
  return (Outer | Inner) == Outer;
}

/// Compares the analysis of \p Img with \p Victim force-quarantined
/// against the exact analysis \p Exact.  Sound degradation may only
/// widen call-used / call-killed / live sets and narrow raw MUST-DEF of
/// every routine that is not itself quarantined.  The same monotonicity
/// contract holds for the slot dataflow (\p ExactFlow): degraded slot
/// may-sets only widen, opaqueness is never lost.
void checkDegradationSound(const Image &Img, const AnalysisResult &Exact,
                           const SlotFlowResult &ExactFlow,
                           const std::string &Victim, Verdicts &V,
                           const std::string &Context, unsigned Jobs) {
  AnalysisOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Cfg.ForceQuarantine.push_back(Victim);
  AnalysisResult Degraded = analyzeImage(Img, CallingConv(), Opts);

  const std::string Where = Context + " victim=" + Victim;
  FUZZ_CHECK(Degraded.Prog.Routines.size() == Exact.Prog.Routines.size(),
             V, Where);
  if (Degraded.Prog.Routines.size() != Exact.Prog.Routines.size())
    return;

  for (uint32_t R = 0; R < Exact.Prog.Routines.size(); ++R) {
    if (Degraded.Prog.Routines[R].Quarantined)
      continue; // Its own summary is worst-case by construction.
    const RoutineResults &E = Exact.Summaries.Routines[R];
    const RoutineResults &D = Degraded.Summaries.Routines[R];
    for (uint32_t Entry = 0; Entry < E.EntrySummaries.size(); ++Entry) {
      const std::string At =
          Where + " routine=" + Exact.Prog.Routines[R].Name +
          " entrance=" + std::to_string(Entry);
      FUZZ_CHECK(D.EntrySummaries[Entry].Used.containsAll(
                     E.EntrySummaries[Entry].Used),
                 V, At + " call-used shrank");
      FUZZ_CHECK(D.EntrySummaries[Entry].Killed.containsAll(
                     E.EntrySummaries[Entry].Killed),
                 V, At + " call-killed shrank");
      FUZZ_CHECK(D.LiveAtEntry[Entry].containsAll(E.LiveAtEntry[Entry]),
                 V, At + " live-at-entry shrank");
      // The extracted Defined summary is capped by MAY-DEF and is not
      // monotone on halt-only paths; the unfiltered MUST-DEF is.
      FUZZ_CHECK(Exact.entrySets(R, Entry).MustDef.containsAll(
                     Degraded.entrySets(R, Entry).MustDef),
                 V, At + " must-def grew");
    }
    for (uint32_t Exit = 0; Exit < E.LiveAtExit.size(); ++Exit)
      FUZZ_CHECK(D.LiveAtExit[Exit].containsAll(E.LiveAtExit[Exit]), V,
                 Where + " routine=" + Exact.Prog.Routines[R].Name +
                     " exit=" + std::to_string(Exit) +
                     " live-at-exit shrank");
  }

  // Slot dataflow under the same degradation.  Quarantining any routine
  // triggers the global escape collapse, and no routine's slot facts may
  // get more precise than the exact run's.
  SlotFlowResult DegradedFlow = solveSlotFlow(Degraded.Prog, Jobs);
  FUZZ_CHECK(DegradedFlow.GlobalEscape, V,
             Where + " quarantine without slot global escape");
  FUZZ_CHECK(!ExactFlow.GlobalEscape || DegradedFlow.GlobalEscape, V,
             Where + " slot global escape lost");
  for (uint32_t R = 0; R < Exact.Prog.Routines.size(); ++R) {
    if (Degraded.Prog.Routines[R].Quarantined)
      continue;
    const RoutineSlotFacts &EF = ExactFlow.Routines[R];
    const RoutineSlotFacts &DF = DegradedFlow.Routines[R];
    const std::string At =
        Where + " routine=" + Exact.Prog.Routines[R].Name;
    FUZZ_CHECK(!EF.Opaque || DF.Opaque, V, At + " slot opaqueness lost");
    FUZZ_CHECK(slotContainsAll(DF.MayUse, EF.MayUse), V,
               At + " slot may-use shrank");
    FUZZ_CHECK(slotContainsAll(DF.MayDef, EF.MayDef), V,
               At + " slot may-def shrank");
    FUZZ_CHECK(slotContainsAll(DF.LiveAtExit, EF.LiveAtExit), V,
               At + " slot live-at-exit shrank");
  }
}

/// Runs the oracle over every synthetic profile: each routine of each
/// image is force-quarantined in turn (bounded per image to keep the
/// startup cost sane for large profiles).
void runOracle(const std::vector<Image> &Corpus, Verdicts &V,
               bool Verbose, unsigned Jobs) {
  AnalysisOptions ExactOpts;
  ExactOpts.Jobs = Jobs;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const Image &Img = Corpus[I];
    AnalysisResult Exact = analyzeImage(Img, CallingConv(), ExactOpts);
    SlotFlowResult ExactFlow = solveSlotFlow(Exact.Prog, Jobs);
    uint32_t Count = uint32_t(Exact.Prog.Routines.size());
    // All routines for small images, an even stride for big ones.
    uint32_t Step = Count <= 16 ? 1 : Count / 16;
    const std::string Context = "oracle corpus[" + std::to_string(I) + "]";
    for (uint32_t R = 0; R < Count; R += Step)
      checkDegradationSound(Img, Exact, ExactFlow,
                            Exact.Prog.Routines[R].Name, V, Context, Jobs);
    if (Verbose)
      std::fprintf(stderr, "%s: %u routines checked\n", Context.c_str(),
                   (Count + Step - 1) / Step);
  }
}

//===----------------------------------------------------------------------===//
// Mutators
//===----------------------------------------------------------------------===//

/// Byte-level corruption of a serialized image.
std::vector<uint8_t> mutateBytes(std::vector<uint8_t> Bytes, Rng &Rand) {
  if (Bytes.empty())
    return Bytes;
  switch (Rand.below(4)) {
  case 0: { // flip 1-16 bytes
    unsigned Flips = 1 + unsigned(Rand.below(16));
    for (unsigned F = 0; F < Flips; ++F)
      Bytes[Rand.below(Bytes.size())] ^= uint8_t(1 + Rand.below(255));
    break;
  }
  case 1: // truncate
    Bytes.resize(Rand.below(Bytes.size()));
    break;
  case 2: { // extend with garbage
    unsigned Extra = 1 + unsigned(Rand.below(64));
    for (unsigned E = 0; E < Extra; ++E)
      Bytes.push_back(uint8_t(Rand.below(256)));
    break;
  }
  default: { // overwrite an aligned word (section-count lies, wild
             // addresses, undecodable opcodes — depending on position)
    static const uint64_t Interesting[] = {
        0,
        1,
        0x7f,
        0xff,
        0xffffffffull,
        0x7fffffffffffffffull,
        ~uint64_t(0),
    };
    uint64_t Word = Rand.chance(0.5)
                        ? Interesting[Rand.below(7)]
                        : Rand.below(~uint64_t(0));
    size_t Slots = Bytes.size() / 8;
    if (Slots == 0)
      break;
    size_t Offset = Rand.below(Slots) * 8;
    for (unsigned B = 0; B < 8; ++B)
      Bytes[Offset + B] = uint8_t(Word >> (8 * B));
    break;
  }
  }
  return Bytes;
}

/// Structured corruption: parse-level lies a byte flip rarely produces.
std::vector<uint8_t> mutateStructured(Image Img, Rng &Rand) {
  uint64_t CodeSize = Img.Code.size();
  auto WildAddress = [&]() -> uint64_t {
    switch (Rand.below(3)) {
    case 0:
      return CodeSize + Rand.below(1000);          // escaping
    case 1:
      return Rand.below(CodeSize ? CodeSize : 1);  // misaligned semantics
    default:
      return ~uint64_t(0) - Rand.below(16);        // wrap-around bait
    }
  };
  switch (Rand.below(6)) {
  case 0: // symbol corruption: wild address, duplicate, or shuffle
    if (!Img.Symbols.empty()) {
      Symbol &Sym = Img.Symbols[Rand.below(Img.Symbols.size())];
      if (Rand.chance(0.5))
        Sym.Address = WildAddress();
      else
        Img.Symbols.push_back(Sym); // duplicate (unsorted too)
    }
    break;
  case 1: // jump-table corruption: wild target or emptied table
    if (!Img.JumpTables.empty()) {
      JumpTable &Table = Img.JumpTables[Rand.below(Img.JumpTables.size())];
      if (Table.Targets.empty() || Rand.chance(0.3))
        Table.Targets.clear();
      else
        Table.Targets[Rand.below(Table.Targets.size())] = WildAddress();
    }
    break;
  case 2: // dangling table index / wild call target in code
    if (CodeSize != 0) {
      uint64_t Address = Rand.below(CodeSize);
      Instruction Inst = Rand.chance(0.5)
                             ? inst::jmpTab(1, int32_t(Rand.below(1000)))
                             : inst::jsr(int32_t(Rand.below(100000)));
      Img.Code[Address] = encodeInstruction(Inst);
    }
    break;
  case 3: { // bogus annotation
    IndirectCallAnnotation Annot;
    Annot.Address = WildAddress();
    Img.CallAnnotations.push_back(Annot);
    break;
  }
  case 4: // wild entry point
    Img.EntryAddress = WildAddress();
    break;
  default: // undecodable word
    if (CodeSize != 0)
      Img.Code[Rand.below(CodeSize)] =
          ~uint64_t(0) - Rand.below(1u << 20);
    break;
  }
  return writeImage(Img);
}

/// Splices the head of one serialized image onto the tail of another.
std::vector<uint8_t> crossover(const std::vector<uint8_t> &A,
                               const std::vector<uint8_t> &B, Rng &Rand) {
  std::vector<uint8_t> Out(A.begin(),
                           A.begin() + int64_t(Rand.below(A.size() + 1)));
  Out.insert(Out.end(), B.begin() + int64_t(Rand.below(B.size() + 1)),
             B.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// Per-mutant trichotomy
//===----------------------------------------------------------------------===//

/// Which arm of the ingestion trichotomy a mutant landed in.
enum class MutantOutcome { CleanError, Degraded, Full };

/// Drives one mutant through the full stack and asserts the trichotomy.
MutantOutcome runMutant(const std::vector<uint8_t> &Bytes, Verdicts &V,
                        const std::string &Context,
                        const FuzzConfig &Config) {
  unsigned Jobs = Config.Jobs;
  // Outcome 1: clean error.  Structured code, non-empty message, done.
  Expected<Image> Loaded = loadImage(Bytes);
  if (!Loaded) {
    FUZZ_CHECK(Loaded.error().Code != ErrCode::None, V, Context);
    FUZZ_CHECK(!Loaded.error().Message.empty(), V, Context);
    return MutantOutcome::CleanError;
  }
  Image Img = *Loaded;

  ValidationReport Report = validateImage(Img);
  AnalysisOptions AOpts;
  AOpts.Jobs = Jobs;
  // Under a resource budget the trichotomy gains no fourth arm: a
  // budget the degradation ladder cannot satisfy is a clean error,
  // anything else lands in the usual three with possibly more
  // quarantined routines.
  Expected<GovernedAnalysis> Governed = analyzeImageGoverned(
      Img, CallingConv(), AOpts, Config.Budget.Budget, Config.Cancel);
  if (!Governed) {
    FUZZ_CHECK(Governed.error().Code != ErrCode::None, V, Context);
    FUZZ_CHECK(!Governed.error().Message.empty(), V, Context);
    return MutantOutcome::CleanError;
  }
  AnalysisResult Analysis = std::move(Governed->Result);
  const Program &Prog = Analysis.Prog;
  RegSet AllRegs = RegSet::allBelow(NumIntRegs);

  if (Report.clean()) {
    // Outcome 3: full result.  verify() agrees, nothing is quarantined
    // except what the budget (if any) degraded.
    FUZZ_CHECK(!Img.verify().has_value(), V, Context);
    FUZZ_CHECK(Prog.numQuarantined() == Prog.numBudgetDegraded(), V,
               Context);
  } else {
    // Outcome 2: quarantined but sound.  verify() reports the defect,
    // every routine the validator implicates is quarantined and carries
    // a worst-case summary, and SL011 surfaces the degradation.
    FUZZ_CHECK(Img.verify().has_value(), V, Context);
    for (const ValidationFinding &F : Report.Findings) {
      if (!F.Quarantines)
        continue;
      bool Found = false;
      for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
        if (Prog.Routines[R].Name != F.RoutineName)
          continue;
        Found = true;
        FUZZ_CHECK(Prog.Routines[R].Quarantined, V,
                   Context + " " + F.RoutineName + " not quarantined");
        for (uint32_t Entry = 0;
             Entry < Prog.Routines[R].EntryAddresses.size(); ++Entry) {
          FUZZ_CHECK(Analysis.entrySets(R, Entry).MayUse == AllRegs, V,
                     Context + " quarantined may-use not worst-case");
          FUZZ_CHECK(Analysis.entrySets(R, Entry).MustDef.empty(), V,
                     Context + " quarantined must-def not empty");
        }
        break;
      }
      FUZZ_CHECK(Found, V,
                 Context + " quarantined routine '" + F.RoutineName +
                     "' missing from program");
    }
  }

  // Lint must classify without crashing; a degraded image must say so.
  LintResult Lint = lintAnalysis(Img, Analysis, LintOptions());
  if (!Report.ok()) {
    unsigned Quarantines = 0;
    for (const Diagnostic &D : Lint.Diags)
      Quarantines += D.Rule == RuleId::QuarantinedRoutine;
    FUZZ_CHECK(Quarantines >= 1, V, Context + " no SL011 for degraded image");
  }

  // Slice-subsystem soundness on every surviving mutant: slot facts must
  // respect quarantine (a quarantined routine is opaque and triggers the
  // global escape collapse) and slices over the dependence graph must be
  // well-formed — sorted, in range, and anchored at their seed.
  SlotFlowResult Flow = solveSlotFlow(Prog, Jobs);
  if (Prog.numQuarantined() != 0)
    FUZZ_CHECK(Flow.GlobalEscape, V,
               Context + " quarantine without slot global escape");
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
    if (Prog.Routines[R].Quarantined)
      FUZZ_CHECK(Flow.Routines[R].Opaque, V,
                 Context + " quarantined routine '" + Prog.Routines[R].Name +
                     "' not opaque in slot facts");
  if (Prog.numInsts() != 0) {
    DependenceGraph Graph = buildDepGraph(Prog, Analysis.Summaries, Flow);
    uint64_t SeedAddress = Prog.numInsts() / 2;
    for (bool BackwardDir : {true, false}) {
      std::vector<uint64_t> Slice = BackwardDir
                                        ? backwardSlice(Graph, SeedAddress)
                                        : forwardSlice(Graph, SeedAddress);
      bool SeedPresent = false, InRange = true, Sorted = true;
      for (size_t S = 0; S < Slice.size(); ++S) {
        SeedPresent |= Slice[S] == SeedAddress;
        InRange &= Slice[S] < Prog.numInsts();
        if (S != 0)
          Sorted &= Slice[S - 1] < Slice[S];
      }
      FUZZ_CHECK(SeedPresent, V, Context + " slice lost its seed");
      FUZZ_CHECK(InRange, V, Context + " slice address out of range");
      FUZZ_CHECK(Sorted, V, Context + " slice not sorted ascending");
    }
  }

  // The optimizer must refuse quarantined bytes and produce output that
  // still validates (no new strict findings) and round-trips; a round
  // that fails either check must roll back — and with sound passes none
  // should.
  std::vector<std::pair<uint64_t, uint64_t>> Frozen;
  for (const Routine &R : Prog.Routines)
    if (R.Quarantined)
      Frozen.push_back({R.Begin, R.End});
  Image Before = Img;

  PipelineOptions OptOpts;
  OptOpts.MaxRounds = 2;
  OptOpts.Jobs = Jobs;
  OptOpts.Budget = Config.Budget.Budget;
  OptOpts.Cancel = Config.Cancel;
  PipelineStats Stats = optimizeImage(Img, CallingConv(), OptOpts);
  FUZZ_CHECK(Stats.RoundsRolledBack == 0, V,
             Context + " optimizer round rolled back (pass bug?)");
  for (const auto &[Begin, End] : Frozen)
    for (uint64_t Address = Begin; Address < End; ++Address)
      FUZZ_CHECK(Img.Code[Address] == Before.Code[Address], V,
                 Context + " optimizer touched quarantined bytes");
  Expected<Image> Reloaded = loadImage(writeImage(Img));
  FUZZ_CHECK(bool(Reloaded), V, Context + " optimized image lost");
  if (Reloaded)
    FUZZ_CHECK(*Reloaded == Img, V, Context + " round-trip mismatch");
  return Report.clean() ? MutantOutcome::Full : MutantOutcome::Degraded;
}

std::vector<Image> buildCorpus() {
  std::vector<Image> Corpus;
  for (uint64_t Seed : {3u, 11u, 29u}) {
    ExecProfile P;
    P.Routines = 6;
    P.Seed = Seed;
    Corpus.push_back(generateExecProgram(P));
  }
  {
    ExecProfile P; // one with more indirection
    P.Routines = 10;
    P.IndirectCallProb = 0.25;
    P.Seed = 5;
    Corpus.push_back(generateExecProgram(P));
  }
  for (const BenchmarkProfile &Profile : paperProfiles())
    Corpus.push_back(generateCfgProgram(scaledProfile(Profile, 0.03)));
  return Corpus;
}

//===----------------------------------------------------------------------===//
// Serve arm: fuzz the resident server's line protocol
//===----------------------------------------------------------------------===//

/// A patchable routine of the resident program: named and wide enough
/// for a within-routine word shuffle.
const Routine *servePickRoutine(const Program &Prog, Rng &Rand) {
  std::vector<const Routine *> Candidates;
  for (const Routine &Rt : Prog.Routines)
    if (!Rt.Name.empty() && Rt.End - Rt.Begin >= 4)
      Candidates.push_back(&Rt);
  if (Candidates.empty())
    return nullptr;
  return Candidates[Rand.below(Candidates.size())];
}

/// Applies a 1-3 word within-routine shuffle to \p Img and returns the
/// patch-routine line performing it.  Words travel as decimal strings:
/// the opcode lives in the top byte and JSON numbers are doubles.
std::string servePatchLine(Image &Img, const Routine &Rt, Rng &Rand) {
  uint64_t Span = Rt.End - Rt.Begin;
  unsigned Edits = 1 + unsigned(Rand.below(3));
  for (unsigned E = 0; E < Edits; ++E) {
    uint64_t Dst = Rt.Begin + Rand.below(Span);
    uint64_t Src = Rt.Begin + Rand.below(Span);
    Img.Code[Dst] = Img.Code[Src];
  }
  std::string Line =
      "patch-routine {\"routine\":\"" + Rt.Name + "\",\"code\":[";
  for (uint64_t A = Rt.Begin; A < Rt.End; ++A) {
    if (A != Rt.Begin)
      Line += ",";
    Line += "\"" + std::to_string(Img.Code[A]) + "\"";
  }
  Line += "]}";
  return Line;
}

/// Malformed protocol input: unknown commands, type-confused arguments,
/// truncated JSON, and printable byte noise.  Never contains '\n' (the
/// stream layer owns line framing).
std::string garbageLine(Rng &Rand) {
  static const char *const Fixed[] = {
      "bogus {}",
      "analyze {\"routine\":42}",
      "slice {\"addr\":\"nope\"}",
      "slice {}",
      "explain {\"fact\":\"live\"}",
      "explain {\"fact\":\"confused\",\"loc\":\"r1@entry:main\"}",
      "explain {\"fact\":\"live\",\"loc\":\"r1@lunch:main\"}",
      "patch-routine {\"routine\":\"no-such-routine\",\"code\":[1,2]}",
      "patch-routine {\"routine\":17}",
      "patch-routine {\"routine\":\"main\",\"code\":\"not-an-array\"}",
      "load {\"path\":\"/nonexistent/image.spkx\"}",
      "load {}",
      "lint {\"min-severity\":\"fatal\"}",
      "{\"cmd\":\"analyze\"}",
      "patch-routine",
  };
  switch (Rand.below(3)) {
  case 0:
    return Fixed[Rand.below(std::size(Fixed))];
  case 1: { // truncated JSON
    const std::string Whole = "slice {\"addr\":123,\"dir\":\"backward\"}";
    return Whole.substr(0, 1 + Rand.below(Whole.size()));
  }
  default: { // printable byte noise
    std::string Line;
    size_t N = 1 + Rand.below(40);
    for (size_t I = 0; I < N; ++I)
      Line.push_back(char(0x20 + Rand.below(0x5f)));
    return Line;
  }
  }
}

/// A well-formed read-only query over the resident program (the address
/// or node may still be semantically bogus — that yields an error reply,
/// which is part of the contract under test).
std::string serveQueryLine(const Program &Prog, uint64_t CodeWords,
                           Rng &Rand) {
  switch (Rand.below(6)) {
  case 0:
    return "analyze";
  case 1: {
    if (Prog.Routines.empty())
      return "analyze";
    const Routine &Rt = Prog.Routines[Rand.below(Prog.Routines.size())];
    return "analyze {\"routine\":\"" + Rt.Name + "\"}";
  }
  case 2:
    return Rand.chance(0.5) ? "lint"
                            : "lint {\"min-severity\":\"warning\"}";
  case 3: {
    uint64_t Addr = Rand.below(CodeWords ? CodeWords : 1);
    return "slice {\"addr\":" + std::to_string(Addr) + ",\"dir\":\"" +
           (Rand.chance(0.5) ? "backward" : "forward") + "\"}";
  }
  case 4: {
    uint64_t Addr = Rand.below(CodeWords ? CodeWords : 1);
    return "explain {\"fact\":\"dead\",\"addr\":" + std::to_string(Addr) +
           "}";
  }
  default: {
    static const char *const Facts[] = {"live", "may-use", "may-def"};
    const Routine *Rt = servePickRoutine(Prog, Rand);
    if (!Rt)
      return "stats";
    return std::string("explain {\"fact\":\"") + Facts[Rand.below(3)] +
           "\",\"loc\":\"r" + std::to_string(Rand.below(NumIntRegs)) +
           "@" + (Rand.chance(0.5) ? "entry" : "exit") + ":" + Rt->Name +
           "\"}";
  }
  }
}

/// One fuzzed serve session: a deterministic random command stream
/// (queries, patches, loads, garbage, random batch boundaries) against a
/// resident server.  Every reply must be one well-formed JSON object
/// carrying an "ok" field; afterwards two oracles run — a twin server
/// replaying the identical stream line-by-line must answer byte-for-byte
/// the same, and the resident state must equal a fresh full solve of the
/// final patched image.  Appends the stream to \p StreamOut so a failing
/// session can be written as an artifact.
void runServeSession(const std::vector<Image> &Corpus,
                     const std::vector<std::string> &LoadPaths,
                     Verdicts &V, Rng &Rand, const std::string &Context,
                     std::vector<std::string> &StreamOut) {
  ServerOptions SO;
  SO.Jobs = 1 + unsigned(Rand.below(4));
  Server S(SO);
  size_t Base = Rand.below(Corpus.size());
  std::string Err;
  if (!S.loadImage(Corpus[Base], &Err)) {
    V.fail(Context + " base image rejected: " + Err);
    return;
  }
  Image Shadow = Corpus[Base];

  std::vector<std::string> &Lines = StreamOut; // whole stream, for twin
  std::vector<std::string> Replies;            // positionally parallel
  std::vector<std::string> Pending;            // current batch

  auto Flush = [&] {
    if (Pending.empty())
      return;
    std::vector<std::string> Batch = S.handleBatch(Pending);
    if (std::getenv("SPIKE_SERVE_DEBUG"))
      for (size_t I = 0; I < Batch.size(); ++I)
        std::fprintf(stderr, ">> %s\n<< %s\n", Pending[I].c_str(),
                     Batch[I].c_str());
    FUZZ_CHECK(Batch.size() == Pending.size(), V, Context + " reply count");
    for (const std::string &Reply : Batch) {
      FUZZ_CHECK(telemetry::parseJson(Reply).has_value(), V,
                 Context + " reply not JSON: " + Reply);
      FUZZ_CHECK(Reply.find("\"ok\":") != std::string::npos, V,
                 Context + " reply without ok field: " + Reply);
    }
    Replies.insert(Replies.end(), Batch.begin(), Batch.end());
    Pending.clear();
  };

  unsigned NumCmds = 6 + unsigned(Rand.below(18));
  for (unsigned C = 0; C < NumCmds; ++C) {
    std::string Line;
    switch (Rand.below(10)) {
    case 0: { // load crossover: jump to another corpus image
      Flush(); // barrier lines are built against the resident program
      size_t Next = Rand.below(LoadPaths.size());
      Line = "load {\"path\":" + telemetry::jsonQuote(LoadPaths[Next]) + "}";
      Shadow = Corpus[Next];
      break;
    }
    case 1:
    case 2: { // same-length routine patch
      Flush();
      const Routine *Rt = servePickRoutine(S.analysis().Prog, Rand);
      Line = Rt ? servePatchLine(Shadow, *Rt, Rand) : "stats";
      break;
    }
    case 3:
    case 4:
    case 5:
      Line = garbageLine(Rand);
      break;
    default:
      Line = serveQueryLine(S.analysis().Prog, Shadow.Code.size(), Rand);
      break;
    }
    Lines.push_back(Line);
    Pending.push_back(Line);
    if (Rand.chance(0.35))
      Flush();
  }
  Lines.push_back("stats");
  Pending.push_back("stats");
  Flush();

  // The server survived the stream: the trailing stats answered ok.
  FUZZ_CHECK(Replies.back().find("\"ok\":true") != std::string::npos, V,
             Context + " trailing stats failed: " + Replies.back());

  // Oracle 1: a fresh server replaying the identical stream one line at
  // a time answers byte-for-byte the same — batching, job count (the
  // twin shares SO.Jobs, but replies must not depend on it anyway), and
  // interleaving are unobservable.
  Server Twin(SO);
  if (!Twin.loadImage(Corpus[Base], &Err)) {
    V.fail(Context + " twin rejected the base image: " + Err);
    return;
  }
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string Reply = Twin.handleLine(Lines[I]);
    if (Reply != Replies[I]) {
      V.fail(Context + " replay diverged at line " + std::to_string(I) +
             " '" + Lines[I] + "': batch='" + Replies[I] + "' serial='" +
             Reply + "'");
      return;
    }
  }

  // Oracle 2: the resident state equals a fresh full solve of the final
  // patched image (the incremental engine left no stale facts behind).
  FUZZ_CHECK(S.image() == Shadow, V,
             Context + " resident image diverged from the patch stream");
  AnalysisOptions AO;
  AO.Jobs = 1;
  AnalysisResult Fresh = analyzeImage(Shadow, CallingConv(), AO);
  FUZZ_CHECK(S.analysis().Summaries == Fresh.Summaries, V,
             Context + " resident summaries diverge from fresh solve");
  FUZZ_CHECK(renderEntryWitnesses(S.analysis()) ==
                 renderEntryWitnesses(Fresh),
             V, Context + " resident witnesses diverge from fresh solve");
  SlotFlowResult FreshSlots = solveSlotFlow(Fresh.Prog, 1);
  FUZZ_CHECK(S.slotFlow() == FreshSlots, V,
             Context + " resident slot facts diverge from fresh solve");
}

int runTool(int Argc, char **Argv) {
  FuzzConfig Config;
  Config.Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  for (int I = 1; I < Argc; ++I) {
    if (const char *V = toolopts::flagValue(Argc, Argv, I, "--seed"))
      Config.Seed = toolopts::parseUnsigned(V, "--seed", 0);
    else if (const char *V =
                 toolopts::flagValue(Argc, Argv, I, "--iterations"))
      Config.Iterations = toolopts::parseUnsigned(V, "--iterations", 0);
    else if (const char *V =
                 toolopts::flagValue(Argc, Argv, I, "--serve-iterations"))
      Config.ServeIterations =
          toolopts::parseUnsigned(V, "--serve-iterations", 0);
    else if (std::strcmp(Argv[I], "--artifact-dir") == 0 && I + 1 < Argc)
      Config.ArtifactDir = Argv[++I];
    else if (std::strcmp(Argv[I], "--skip-oracle") == 0)
      Config.SkipOracle = true;
    else if (std::strcmp(Argv[I], "--verbose") == 0)
      Config.Verbose = true;
    else if (toolopts::parseJobs(Argc, Argv, I, Config.Jobs))
      ;
    else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts))
      ;
    else if (toolbudget::parseFlag(Argc, Argv, I, Config.Budget))
      ;
    else
      return usage(Argv[0]);
  }

  // Crash artifacts and the serve arm's on-disk load corpus both go to
  // the artifact directory; without it every `load` crossover would fail
  // and the shadow image would diverge from the server's.
  if (!Config.ArtifactDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Config.ArtifactDir, EC);
    if (EC) {
      std::fprintf(stderr, "error: cannot create --artifact-dir '%s': %s\n",
                   Config.ArtifactDir.c_str(), EC.message().c_str());
      return 2;
    }
  }

  toolbudget::Session Faults(Config.Budget);
  Config.Cancel = Faults.token();
  tooltel::Emitter Telemetry("spike-fuzz", TelemetryOpts);

  Verdicts V;
  std::vector<Image> Corpus = buildCorpus();
  std::vector<std::vector<uint8_t>> Serialized;
  for (const Image &Img : Corpus)
    Serialized.push_back(writeImage(Img));

  if (!Config.SkipOracle) {
    runOracle(Corpus, V, Config.Verbose, Config.Jobs);
    if (V.Failures != 0) {
      std::fprintf(stderr,
                   "spike-fuzz: soundness oracle FAILED (%llu violations)\n",
                   (unsigned long long)V.Failures);
      return 1;
    }
    std::printf("spike-fuzz: soundness oracle passed on %zu profiles\n",
                Corpus.size());
  }

  Rng Rand(Config.Seed);
  Stopwatch LoopTimer;
  LoopTimer.start();
  telemetry::Span LoopSpan("fuzz.mutation_loop");
  for (uint64_t Iter = 0; Iter < Config.Iterations; ++Iter) {
    const std::string Context =
        "seed=" + std::to_string(Config.Seed) +
        " iter=" + std::to_string(Iter);
    size_t Pick = Rand.below(Serialized.size());
    std::vector<uint8_t> Mutant;
    switch (Rand.below(4)) {
    case 0:
      Mutant = mutateStructured(Corpus[Pick], Rand);
      break;
    case 1:
      Mutant = crossover(Serialized[Pick],
                         Serialized[Rand.below(Serialized.size())], Rand);
      break;
    default:
      Mutant = mutateBytes(Serialized[Pick], Rand);
      break;
    }
    // Half the time, stack byte-level noise on top.
    if (Rand.chance(0.25))
      Mutant = mutateBytes(std::move(Mutant), Rand);

    uint64_t FailuresBefore = V.Failures;
    MutantOutcome Outcome = runMutant(Mutant, V, Context, Config);
    telemetry::count("fuzz.mutants");
    telemetry::count(Outcome == MutantOutcome::CleanError
                         ? "fuzz.outcome.error"
                         : Outcome == MutantOutcome::Degraded
                               ? "fuzz.outcome.degraded"
                               : "fuzz.outcome.full");
    if (V.Failures != FailuresBefore && !Config.ArtifactDir.empty()) {
      std::string Path = Config.ArtifactDir + "/crash-" +
                         std::to_string(Config.Seed) + "-" +
                         std::to_string(Iter) + ".spkx";
      std::ofstream Out(Path, std::ios::binary);
      Out.write(reinterpret_cast<const char *>(Mutant.data()),
                std::streamsize(Mutant.size()));
      std::fprintf(stderr, "spike-fuzz: mutant written to %s\n",
                   Path.c_str());
    }
    if (Config.Verbose && (Iter + 1) % 1000 == 0)
      std::fprintf(stderr, "spike-fuzz: %llu iterations\n",
                   (unsigned long long)(Iter + 1));
  }

  double LoopSeconds = LoopTimer.seconds();

  if (Config.ServeIterations != 0) {
    // The serve arm needs the corpus on disk so `load` crossovers walk
    // the real file path.  Files live next to the artifacts if a dir was
    // given, else in the system temp dir, and are removed afterwards.
    std::string Dir = Config.ArtifactDir;
    if (Dir.empty()) {
      const char *Tmp = std::getenv("TMPDIR");
      Dir = Tmp && *Tmp ? Tmp : "/tmp";
    }
    std::vector<std::string> LoadPaths;
    for (size_t I = 0; I < Serialized.size(); ++I) {
      std::string Path = Dir + "/spike-fuzz-serve-" +
                         std::to_string(Config.Seed) + "-" +
                         std::to_string(I) + ".spkx";
      std::ofstream Out(Path, std::ios::binary);
      Out.write(reinterpret_cast<const char *>(Serialized[I].data()),
                std::streamsize(Serialized[I].size()));
      LoadPaths.push_back(Path);
    }

    telemetry::Span ServeSpan("fuzz.serve_loop");
    uint64_t Commands = 0;
    for (uint64_t Iter = 0; Iter < Config.ServeIterations; ++Iter) {
      const std::string Context =
          "serve seed=" + std::to_string(Config.Seed) +
          " iter=" + std::to_string(Iter);
      uint64_t FailuresBefore = V.Failures;
      std::vector<std::string> Stream;
      runServeSession(Corpus, LoadPaths, V, Rand, Context, Stream);
      Commands += Stream.size();
      telemetry::count("fuzz.serve.sessions");
      if (V.Failures != FailuresBefore && !Config.ArtifactDir.empty()) {
        std::string Path = Config.ArtifactDir + "/serve-" +
                           std::to_string(Config.Seed) + "-" +
                           std::to_string(Iter) + ".txt";
        std::ofstream Out(Path, std::ios::binary);
        for (const std::string &Line : Stream)
          Out << Line << "\n";
        std::fprintf(stderr, "spike-fuzz: command stream written to %s\n",
                     Path.c_str());
      }
    }
    telemetry::count("fuzz.serve.commands", Commands);
    for (const std::string &Path : LoadPaths)
      std::remove(Path.c_str());

    if (V.Failures == 0)
      std::printf("spike-fuzz: %llu serve sessions (%llu commands) "
                  "replayed clean against the fresh-solve oracle\n",
                  (unsigned long long)Config.ServeIterations,
                  (unsigned long long)Commands);
  }

  telemetry::count("fuzz.failures", V.Failures);
  if (LoopSeconds > 0)
    telemetry::gaugeSet("fuzz.mutants_per_second",
                        uint64_t(double(Config.Iterations) / LoopSeconds));

  if (V.Failures != 0) {
    std::fprintf(stderr, "spike-fuzz: %llu violations; first: %s\n",
                 (unsigned long long)V.Failures, V.FirstReport.c_str());
    return 1;
  }
  std::printf("spike-fuzz: %llu mutants, all within the trichotomy "
              "(clean error | quarantined-but-sound | full result)\n",
              (unsigned long long)Config.Iterations);
  if (LoopSeconds > 0 && Config.Iterations != 0)
    std::printf("spike-fuzz: %.0f mutants/s over %.2f s\n",
                double(Config.Iterations) / LoopSeconds, LoopSeconds);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-fuzz");
  return toolbudget::guardedMain([&] { return runTool(Argc, Argv); });
}
