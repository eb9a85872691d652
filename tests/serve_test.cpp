//===- tests/serve_test.cpp - resident server & incremental oracle ---------===//
//
// The serving layer's contract has two halves, both enforced here:
//
//   - Incremental identity: after any sequence of `patch-routine`
//     commands, the resident program, PSG, summaries, tracked memory,
//     rendered entry witnesses, slot facts, and lint findings equal a
//     fresh full solve of the patched image — at every job count (the
//     differential oracle, over the same 20 synthetic profiles the
//     parallel engine is tested on, plus directed patches that move
//     node counts, entrances, quarantine and the opaque flag).
//
//   - Query determinism: a batch of in-flight analyze/explain/slice/lint
//     queries fanned out over the pool returns byte-identical replies
//     regardless of job count, batch shape, or submission order.
//
// Plus the robustness floor: malformed protocol lines are error replies,
// never crashes, and a blown per-request budget degrades that reply
// (the `!! DEGRADED` banner) without killing the server.
//
//===----------------------------------------------------------------------===//

#include "lint/Linter.h"
#include "provenance/Witness.h"
#include "serve/Serve.h"
#include "slice/SlotFlow.h"
#include "support/FaultInjection.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Json.h"
#include "AnalysisText.h"
#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace spike;
using testtext::describeAnalysis;
using testtext::expectSameLines;

namespace {

/// One randomized same-length routine patch: copy 1-3 words to other
/// positions within the same routine (stays decodable, may change
/// control flow, def/use sets, even quarantine the routine).  Mutates
/// \p Img in place and returns the protocol line performing it.
std::string mutateRoutine(Image &Img, const Routine &Rt,
                          std::mt19937_64 &Rng) {
  uint64_t Span = Rt.End - Rt.Begin;
  unsigned Edits = 1 + unsigned(Rng() % 3);
  for (unsigned E = 0; E < Edits; ++E) {
    uint64_t Dst = Rt.Begin + Rng() % Span;
    uint64_t Src = Rt.Begin + Rng() % Span;
    Img.Code[Dst] = Img.Code[Src];
  }
  std::string Line = "patch-routine {\"routine\":\"" + Rt.Name +
                     "\",\"code\":[";
  for (uint64_t A = Rt.Begin; A < Rt.End; ++A) {
    if (A != Rt.Begin)
      Line += ",";
    Line += "\"" + std::to_string(Img.Code[A]) + "\"";
  }
  Line += "]}";
  return Line;
}

/// Picks a patchable routine: named, non-empty, at least 4 words so the
/// mutation has room to do something interesting.
const Routine *pickRoutine(const Program &Prog, std::mt19937_64 &Rng) {
  std::vector<const Routine *> Candidates;
  for (const Routine &Rt : Prog.Routines)
    if (!Rt.Name.empty() && Rt.End - Rt.Begin >= 4)
      Candidates.push_back(&Rt);
  if (Candidates.empty())
    return nullptr;
  return Candidates[Rng() % Candidates.size()];
}

void expectSummariesEqual(const InterprocSummaries &Got,
                          const InterprocSummaries &Want,
                          const std::string &Where) {
  ASSERT_EQ(Got.Routines.size(), Want.Routines.size()) << Where;
  for (size_t R = 0; R < Got.Routines.size(); ++R) {
    const RoutineResults &G = Got.Routines[R];
    const RoutineResults &W = Want.Routines[R];
    const std::string At = Where + " routine " + std::to_string(R);
    ASSERT_EQ(G.EntrySummaries.size(), W.EntrySummaries.size()) << At;
    for (size_t E = 0; E < G.EntrySummaries.size(); ++E) {
      EXPECT_TRUE(G.EntrySummaries[E].Used == W.EntrySummaries[E].Used) << At;
      EXPECT_TRUE(G.EntrySummaries[E].Defined == W.EntrySummaries[E].Defined)
          << At;
      EXPECT_TRUE(G.EntrySummaries[E].Killed == W.EntrySummaries[E].Killed)
          << At;
    }
    ASSERT_EQ(G.LiveAtEntry.size(), W.LiveAtEntry.size()) << At;
    for (size_t E = 0; E < G.LiveAtEntry.size(); ++E)
      EXPECT_TRUE(G.LiveAtEntry[E] == W.LiveAtEntry[E]) << At;
    ASSERT_EQ(G.LiveAtExit.size(), W.LiveAtExit.size()) << At;
    for (size_t E = 0; E < G.LiveAtExit.size(); ++E)
      EXPECT_TRUE(G.LiveAtExit[E] == W.LiveAtExit[E]) << At;
  }
}

void expectSlotsEqual(const SlotFlowResult &Got, const SlotFlowResult &Want,
                      const std::string &Where) {
  EXPECT_EQ(Got.GlobalEscape, Want.GlobalEscape) << Where;
  EXPECT_EQ(Got.OpaqueRoutines, Want.OpaqueRoutines) << Where;
  ASSERT_EQ(Got.Routines.size(), Want.Routines.size()) << Where;
  for (size_t R = 0; R < Got.Routines.size(); ++R) {
    const RoutineSlotFacts &G = Got.Routines[R];
    const RoutineSlotFacts &W = Want.Routines[R];
    const std::string At = Where + " routine " + std::to_string(R);
    EXPECT_EQ(G.Opaque, W.Opaque) << At;
    EXPECT_TRUE(G.MayUse == W.MayUse) << At;
    EXPECT_TRUE(G.MayDef == W.MayDef) << At;
    EXPECT_TRUE(G.LiveAtExit == W.LiveAtExit) << At;
    EXPECT_TRUE(G.DeltaIn == W.DeltaIn) << At;
    EXPECT_TRUE(G.DeltaOut == W.DeltaOut) << At;
    EXPECT_TRUE(G.BlockLiveIn == W.BlockLiveIn) << At;
    EXPECT_TRUE(G.BlockLiveOut == W.BlockLiveOut) << At;
  }
}

std::vector<std::string> lintStrings(const Image &Img,
                                     const AnalysisResult &A) {
  LintResult R = lintAnalysis(Img, A, LintOptions());
  std::vector<std::string> Out;
  Out.reserve(R.Diags.size());
  for (const Diagnostic &D : R.Diags)
    Out.push_back(D.str());
  return Out;
}

/// Removes the per-connection `"seq":N` field so replies can be compared
/// across servers and submission orders.
std::string stripSeq(std::string Reply) {
  size_t Pos = Reply.find("\"seq\":");
  if (Pos == std::string::npos)
    return Reply;
  size_t End = Pos + 6;
  while (End < Reply.size() && Reply[End] >= '0' && Reply[End] <= '9')
    ++End;
  if (End < Reply.size() && Reply[End] == ',')
    ++End;
  return Reply.erase(Pos, End - Pos);
}

} // namespace

// ---------------------------------------------------------------------------
// Differential oracle: randomized patch sequences vs fresh full solves.
// ---------------------------------------------------------------------------

TEST(ServeIncrementalTest, DifferentialOracleAcrossProfilesAndJobs) {
  constexpr int Rounds = 2;
  for (auto &[Name, BaseImg] : testcorpus::differentialCorpus()) {
    // Precompute the patch script and the fresh-solve oracle once per
    // profile (the script is identical at every job count; identity of
    // the fresh solve across job counts is parallel_test's theorem).
    AnalysisOptions OracleOpts;
    OracleOpts.Jobs = 1;
    AnalysisResult Base = analyzeImage(BaseImg, CallingConv(), OracleOpts);

    std::mt19937_64 Rng(0x5e71e ^ std::hash<std::string>()(Name));
    Image Cur = BaseImg;
    std::vector<std::string> PatchLines;
    std::vector<AnalysisResult> Fresh;
    std::vector<SlotFlowResult> FreshSlots;
    std::vector<std::vector<std::string>> FreshLint;
    std::vector<std::string> FreshWitnesses;
    std::vector<std::vector<std::string>> FreshText;
    std::vector<Image> PatchedImages;
    for (int R = 0; R < Rounds; ++R) {
      const Routine *Rt = pickRoutine(Base.Prog, Rng);
      ASSERT_NE(Rt, nullptr) << Name;
      PatchLines.push_back(mutateRoutine(Cur, *Rt, Rng));
      PatchedImages.push_back(Cur);
      Fresh.push_back(analyzeImage(Cur, CallingConv(), OracleOpts));
      FreshSlots.push_back(solveSlotFlow(Fresh.back().Prog, 1u));
      FreshLint.push_back(lintStrings(Cur, Fresh.back()));
      FreshWitnesses.push_back(renderEntryWitnesses(Fresh.back()));
      FreshText.push_back(describeAnalysis(Fresh.back()));
    }

    for (unsigned Jobs : {1u, 2u, 4u, 7u}) {
      ServerOptions SOpts;
      SOpts.Jobs = Jobs;
      Server S(SOpts);
      std::string Error;
      ASSERT_TRUE(S.loadImage(BaseImg, &Error)) << Name << ": " << Error;
      for (int R = 0; R < Rounds; ++R) {
        const std::string Where =
            Name + " jobs=" + std::to_string(Jobs) + " round " +
            std::to_string(R);
        std::string Reply = S.handleLine(PatchLines[R]);
        ASSERT_NE(Reply.find("\"ok\":true"), std::string::npos)
            << Where << ": " << Reply;
        // The routine partition never changes, so the engine must take
        // the incremental path — a silent full fallback would make this
        // oracle vacuous.
        EXPECT_NE(Reply.find("\"full\":false"), std::string::npos)
            << Where << ": " << Reply;

        expectSummariesEqual(S.analysis().Summaries, Fresh[R].Summaries,
                             Where);
        // Structural identity: every program array, PSG node, edge,
        // in-edge id and linkage CSR, the call graph, both schedules,
        // the validation findings and the tracked memory.
        EXPECT_EQ(S.image(), PatchedImages[R]) << Where;
        expectSameLines(FreshText[R], describeAnalysis(S.analysis()), Where);
        EXPECT_EQ(renderEntryWitnesses(S.analysis()), FreshWitnesses[R])
            << Where << ": witnesses differ";
        expectSlotsEqual(S.slotFlow(), FreshSlots[R], Where);
        EXPECT_EQ(lintStrings(S.image(), S.analysis()), FreshLint[R])
            << Where;
      }
    }
  }
}

namespace {

/// The patch-routine line publishing \p Code as the words of routine
/// \p Name.
std::string patchLine(const std::string &Name,
                      const std::vector<uint64_t> &Code) {
  std::string Line = "patch-routine {\"routine\":\"" + Name + "\",\"code\":[";
  for (size_t I = 0; I < Code.size(); ++I)
    Line += (I ? ",\"" : "\"") + std::to_string(Code[I]) + "\"";
  return Line + "]}";
}

/// True if a word of \p Code decodes to \p Op.
bool hasOpcode(const std::vector<uint64_t> &Code, Opcode Op) {
  return std::any_of(Code.begin(), Code.end(), [&](uint64_t W) {
    std::optional<Instruction> Inst = decodeInstruction(W);
    return Inst && Inst->Op == Op;
  });
}

} // namespace

TEST(ServeIncrementalTest, DirectedPatchesRebuildInPlace) {
  // Patches that move what a one-word edit rarely does, each checked
  // against a fresh analysis of the patched image, element for element:
  // a halt that adds a PSG node, a jsr that gives another routine a new
  // secondary entrance (shifting its callers' entrance indices) and its
  // removal, a wild jsr that quarantines the routine and its revert, and
  // an undecodable word that quarantines it and flips the
  // opaque-quarantine flag for every routine, and its revert.  Every one
  // takes the in-place path.
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 11;
  Image Base = generateExecProgram(P);
  AnalysisResult Loaded = analyzeImage(Base, CallingConv(), AnalysisOptions());
  const Program &Prog = Loaded.Prog;
  auto CodeOf = [&](const Routine &Rt) {
    return std::vector<uint64_t>(Base.Code.begin() + Rt.Begin,
                                 Base.Code.begin() + Rt.End);
  };

  // The patched routine: healthy, no indirect call (quarantining it must
  // not make it opaque), and room for the edits.  The callee: another
  // healthy routine with a word past its primary that is no entrance yet.
  const Routine *Patched = nullptr, *Callee = nullptr;
  for (const Routine &Rt : Prog.Routines)
    if (!Patched && !Rt.Quarantined && Rt.End - Rt.Begin >= 6 &&
        !hasOpcode(CodeOf(Rt), Opcode::JsrR))
      Patched = &Rt;
  ASSERT_NE(Patched, nullptr);
  for (const Routine &Rt : Prog.Routines)
    if (&Rt != Patched && !Rt.Quarantined && Rt.End - Rt.Begin >= 3 &&
        Rt.EntryAddresses.size() == 1 && !Prog.Calls.Callers[uint32_t(
                                              &Rt - Prog.Routines.data())]
                                              .empty()) {
      Callee = &Rt;
      break;
    }
  ASSERT_NE(Callee, nullptr);
  ASSERT_FALSE(std::all_of(Prog.Routines.begin(), Prog.Routines.end(),
                           [](const Routine &Rt) {
                             return Rt.CalledFromQuarantine;
                           }))
      << "the subject is opaque already";
  const uint32_t PatchedIndex = uint32_t(Patched - Prog.Routines.data());
  const uint32_t CalleeIndex = uint32_t(Callee - Prog.Routines.data());
  const std::string Name = Patched->Name;
  const std::vector<uint64_t> Original = CodeOf(*Patched);
  const uint64_t Undecodable = ~uint64_t(0);
  ASSERT_FALSE(decodeInstruction(Undecodable));

  auto With = [&](Instruction Inst) {
    std::vector<uint64_t> Code = Original;
    Code[1] = encodeInstruction(Inst);
    return Code;
  };
  Instruction Halt{Opcode::Halt};
  Instruction CallSecondary{Opcode::Jsr};
  CallSecondary.Imm = int32_t(Callee->Begin + 1);
  Instruction WildCall{Opcode::Jsr};
  WildCall.Imm = int32_t(Base.Code.size() + 7);
  std::vector<uint64_t> Opaque = Original;
  Opaque[1] = Undecodable;

  struct Step {
    const char *What;
    std::vector<uint64_t> Code;
  };
  const std::vector<Step> Steps = {
      {"halt", With(Halt)},
      {"revert", Original},
      {"call a secondary entrance", With(CallSecondary)},
      {"drop the call", Original},
      {"quarantine", With(WildCall)},
      {"un-quarantine", Original},
      {"opaque", Opaque},
      {"not opaque", Original},
  };

  for (unsigned Jobs : {1u, 2u, 4u, 7u}) {
    ServerOptions SOpts;
    SOpts.Jobs = Jobs;
    Server S(SOpts);
    ASSERT_TRUE(S.loadImage(Base));
    for (const Step &St : Steps) {
      const std::string Where =
          std::string(St.What) + " jobs=" + std::to_string(Jobs);
      uint32_t NodesBefore = S.analysis().Psg.RoutineNodeBegin[PatchedIndex + 1] -
                             S.analysis().Psg.RoutineNodeBegin[PatchedIndex];
      std::string Reply = S.handleLine(patchLine(Name, St.Code));
      ASSERT_NE(Reply.find("\"ok\":true"), std::string::npos)
          << Where << ": " << Reply;
      EXPECT_NE(Reply.find("\"full\":false"), std::string::npos)
          << Where << ": " << Reply;
      EXPECT_EQ(Reply.find("\"struct_dirty\":0"), std::string::npos)
          << Where << ": " << Reply;

      Image Want = Base;
      std::copy(St.Code.begin(), St.Code.end(),
                Want.Code.begin() + Patched->Begin);
      ASSERT_EQ(S.image(), Want) << Where;
      AnalysisResult Fresh = analyzeImage(Want, CallingConv(), AnalysisOptions());
      expectSameLines(describeAnalysis(Fresh), describeAnalysis(S.analysis()),
                      Where);

      // Each step moved what it set out to move.
      const Program &Now = S.analysis().Prog;
      const Routine &Rt = Now.Routines[PatchedIndex];
      uint32_t Nodes = S.analysis().Psg.RoutineNodeBegin[PatchedIndex + 1] -
                       S.analysis().Psg.RoutineNodeBegin[PatchedIndex];
      std::string Step = St.What;
      if (Step == "halt") {
        EXPECT_NE(Nodes, NodesBefore) << Where;
      } else if (Step == "call a secondary entrance") {
        EXPECT_EQ(Now.Routines[CalleeIndex].EntryAddresses.size(), 2u)
            << Where;
      } else if (Step == "drop the call") {
        EXPECT_EQ(Now.Routines[CalleeIndex].EntryAddresses.size(), 1u)
            << Where;
      }
      EXPECT_EQ(Rt.Quarantined, Step == "quarantine" || Step == "opaque")
          << Where;
      bool AllMarked = std::all_of(
          Now.Routines.begin(), Now.Routines.end(),
          [](const Routine &R) { return R.CalledFromQuarantine; });
      EXPECT_EQ(AllMarked, Step == "opaque") << Where;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent-query determinism.
// ---------------------------------------------------------------------------

namespace {

/// A mixed read-only query workload over \p Prog: every routine's
/// summary, slices in both directions, witness queries, and a lint.
std::vector<std::string> queryWorkload(const Program &Prog) {
  std::vector<std::string> Lines;
  for (const Routine &Rt : Prog.Routines)
    if (!Rt.Name.empty())
      Lines.push_back("analyze {\"routine\":\"" + Rt.Name + "\"}");
  for (const Routine &Rt : Prog.Routines) {
    if (Rt.Name.empty() || Rt.Quarantined)
      continue;
    Lines.push_back("slice {\"addr\":" + std::to_string(Rt.Begin) +
                    ",\"dir\":\"backward\"}");
    Lines.push_back("slice {\"addr\":" + std::to_string(Rt.Begin) +
                    ",\"dir\":\"forward\"}");
    Lines.push_back("explain {\"fact\":\"live\",\"loc\":\"ra@entry:" +
                    Rt.Name + "\"}");
  }
  Lines.push_back("lint {}");
  Lines.push_back("analyze");
  return Lines;
}

} // namespace

TEST(ServeConcurrencyTest, BatchRepliesIdenticalAcrossJobCounts) {
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 11;
  Image Img = generateExecProgram(P);

  ServerOptions Serial;
  Serial.Jobs = 1;
  Server S1(Serial);
  ASSERT_TRUE(S1.loadImage(Img));
  std::vector<std::string> Lines = queryWorkload(S1.analysis().Prog);
  ASSERT_GT(Lines.size(), 30u);

  // Baseline: one line at a time on the serial server.
  std::vector<std::string> Expected;
  for (const std::string &L : Lines)
    Expected.push_back(S1.handleLine(L));

  for (unsigned Jobs : {2u, 4u, 7u}) {
    ServerOptions SOpts;
    SOpts.Jobs = Jobs;
    Server S(SOpts);
    ASSERT_TRUE(S.loadImage(Img));
    std::vector<std::string> Got = S.handleBatch(Lines);
    ASSERT_EQ(Got.size(), Expected.size());
    for (size_t I = 0; I < Got.size(); ++I)
      EXPECT_EQ(Got[I], Expected[I]) << "jobs=" << Jobs << " line " << I
                                     << ": " << Lines[I];
  }
}

TEST(ServeConcurrencyTest, BatchRepliesIndependentOfSubmissionOrder) {
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 29;
  Image Img = generateExecProgram(P);

  ServerOptions SOpts;
  SOpts.Jobs = 7;
  Server A(SOpts);
  ASSERT_TRUE(A.loadImage(Img));
  std::vector<std::string> Lines = queryWorkload(A.analysis().Prog);
  std::vector<std::string> InOrder = A.handleBatch(Lines);

  // Same queries, shuffled, on an identically-loaded server: each reply
  // must match its in-order twin once the arrival sequence number is
  // stripped.
  std::vector<size_t> Perm(Lines.size());
  for (size_t I = 0; I < Perm.size(); ++I)
    Perm[I] = I;
  std::mt19937_64 Rng(42);
  std::shuffle(Perm.begin(), Perm.end(), Rng);
  std::vector<std::string> Shuffled;
  for (size_t I : Perm)
    Shuffled.push_back(Lines[I]);

  Server B(SOpts);
  ASSERT_TRUE(B.loadImage(Img));
  std::vector<std::string> OutOfOrder = B.handleBatch(Shuffled);
  ASSERT_EQ(OutOfOrder.size(), InOrder.size());
  for (size_t I = 0; I < Perm.size(); ++I)
    EXPECT_EQ(stripSeq(OutOfOrder[I]), stripSeq(InOrder[Perm[I]]))
        << "query: " << Shuffled[I];

  // Re-running the same batch on the same (already warm) server changes
  // only the sequence numbers.
  std::vector<std::string> Again = B.handleBatch(Shuffled);
  for (size_t I = 0; I < Again.size(); ++I)
    EXPECT_EQ(stripSeq(Again[I]), stripSeq(OutOfOrder[I]));
}

TEST(ServeIncrementalTest, NoOpSaveKeepsDependenceGraph) {
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 11;
  ServerOptions SOpts;
  SOpts.Jobs = 2;
  Server S(SOpts);
  ASSERT_TRUE(S.loadImage(generateExecProgram(P)));

  std::vector<const Routine *> Healthy;
  for (const Routine &Rt : S.analysis().Prog.Routines)
    if (!Rt.Name.empty() && !Rt.Quarantined && Rt.End - Rt.Begin >= 4)
      Healthy.push_back(&Rt);
  ASSERT_GE(Healthy.size(), 2u);
  const Routine &Sliced = *Healthy[0], &Patched = *Healthy[1];
  const std::string Slice = "slice {\"addr\":" +
                            std::to_string(Sliced.End - 1) +
                            ",\"dir\":\"backward\"}";
  auto CodeOf = [&](const Routine &Rt) {
    return std::vector<uint64_t>(S.image().Code.begin() + Rt.Begin,
                                 S.image().Code.begin() + Rt.End);
  };

  std::string First = S.handleLine(Slice);
  ASSERT_NE(First.find("\"ok\":true"), std::string::npos) << First;
  EXPECT_EQ(S.stats().DepGraphBuilds, 1u);
  EXPECT_EQ(S.stats().DepGraphHits, 0u);

  // A no-op save: the routine's own words, republished.
  std::string Save = S.handleLine(patchLine(Patched.Name, CodeOf(Patched)));
  ASSERT_NE(Save.find("\"struct_dirty\":0"), std::string::npos) << Save;
  std::string Second = S.handleLine(Slice);
  EXPECT_EQ(S.stats().DepGraphBuilds, 1u);
  EXPECT_EQ(S.stats().DepGraphHits, 1u);
  Server Fresh(SOpts);
  ASSERT_TRUE(Fresh.loadImage(S.image()));
  EXPECT_EQ(stripSeq(Second), stripSeq(Fresh.handleLine(Slice)));

  // A one-word edit changes the analysis, so the next slice rebuilds.
  std::vector<uint64_t> Code = CodeOf(Patched);
  size_t Dst = 1;
  while (Dst < Code.size() && Code[Dst] == Code[0])
    ++Dst;
  ASSERT_LT(Dst, Code.size());
  Code[Dst] = Code[0];
  std::string Edit = S.handleLine(patchLine(Patched.Name, Code));
  ASSERT_EQ(Edit.find("\"struct_dirty\":0"), std::string::npos) << Edit;
  S.handleLine(Slice);
  EXPECT_EQ(S.stats().DepGraphBuilds, 2u);
  EXPECT_EQ(S.stats().DepGraphHits, 1u);
}

TEST(ServeIncrementalTest, SlotFactsAreDerivedOnFirstUse) {
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 11;
  telemetry::Session Sess("serve_test");
  telemetry::SessionScope Scope(Sess);
  auto SlotSolves = [&] {
    return std::count_if(Sess.spans().begin(), Sess.spans().end(),
                         [](const telemetry::SpanEvent &E) {
                           return E.Name == "slice.slotflow";
                         });
  };

  ServerOptions SOpts;
  SOpts.Jobs = 2;
  Server S(SOpts);
  ASSERT_TRUE(S.loadImage(generateExecProgram(P)));
  EXPECT_EQ(SlotSolves(), 0) << "load solved slot facts";

  // Each slotFlow() answer equals a fresh solve of the resident image,
  // computed with the session paused so it opens no span of its own.
  auto ExpectFresh = [&](const SlotFlowResult &Got, const char *When) {
    telemetry::SessionPause Paused;
    AnalysisResult Fresh =
        analyzeImage(S.image(), CallingConv(), AnalysisOptions());
    EXPECT_TRUE(Got == solveSlotFlow(Fresh.Prog)) << When;
  };

  // A one-word edit of a healthy routine, and its revert; the lines are
  // built up front because a patch replaces the resident routines.
  std::string EditLine, RevertLine;
  for (const Routine &Rt : S.analysis().Prog.Routines) {
    if (Rt.Name.empty() || Rt.Quarantined || Rt.End - Rt.Begin < 4)
      continue;
    std::vector<uint64_t> Code(S.image().Code.begin() + Rt.Begin,
                               S.image().Code.begin() + Rt.End);
    RevertLine = patchLine(Rt.Name, Code);
    size_t Dst = 1;
    while (Dst < Code.size() && Code[Dst] == Code[0])
      ++Dst;
    ASSERT_LT(Dst, Code.size());
    Code[Dst] = Code[0];
    EditLine = patchLine(Rt.Name, Code);
    break;
  }
  ASSERT_FALSE(EditLine.empty());

  std::string Edit = S.handleLine(EditLine);
  ASSERT_EQ(Edit.find("\"struct_dirty\":0"), std::string::npos) << Edit;
  EXPECT_EQ(SlotSolves(), 0) << "a dirty patch solved slot facts";

  ExpectFresh(S.slotFlow(), "first use");
  EXPECT_EQ(SlotSolves(), 1);
  ExpectFresh(S.slotFlow(), "second use");
  EXPECT_EQ(SlotSolves(), 1) << "a second call re-solved";

  // An all-clean save keeps the facts.
  std::string Save = S.handleLine(EditLine);
  ASSERT_NE(Save.find("\"struct_dirty\":0"), std::string::npos) << Save;
  ExpectFresh(S.slotFlow(), "after a no-op save");
  EXPECT_EQ(SlotSolves(), 1) << "a no-op save dropped slot facts";

  // A dirty patch drops them; the next call solves once more.
  std::string Revert = S.handleLine(RevertLine);
  ASSERT_EQ(Revert.find("\"struct_dirty\":0"), std::string::npos) << Revert;
  EXPECT_EQ(SlotSolves(), 1);
  ExpectFresh(S.slotFlow(), "after a dirty patch");
  EXPECT_EQ(SlotSolves(), 2);

  // `lint` never derives the server's facts: at the note floor SL012
  // solves facts of its own, at the warning floor nothing solves any.
  // The test's session is an embedder's, so each query's spans join it
  // and every solve shows as a `slice.slotflow` span.  Each lint reply
  // lists what lintAnalysis lists for the resident program.
  auto ReplyDiags = [](const std::string &Reply) {
    std::vector<std::string> Diags;
    std::optional<telemetry::JsonValue> V = telemetry::parseJson(Reply);
    EXPECT_TRUE(V && V->find("diags")) << Reply;
    if (const telemetry::JsonValue *D = V ? V->findArray("diags") : nullptr)
      for (const telemetry::JsonValue &Item : D->Items)
        Diags.push_back(Item.Str);
    return Diags;
  };
  auto LintNow = [&] {
    telemetry::SessionPause Paused;
    return lintStrings(S.image(), S.analysis());
  };

  Edit = S.handleLine(EditLine);
  ASSERT_EQ(Edit.find("\"struct_dirty\":0"), std::string::npos) << Edit;
  std::vector<std::string> Notes = LintNow(), Warnings;
  for (const std::string &D : Notes)
    if (D.rfind("note: ", 0) != 0)
      Warnings.push_back(D);
  ASSERT_NE(Notes.size(), Warnings.size()) << "the subject has no notes";
  EXPECT_EQ(ReplyDiags(S.handleLine("lint {\"min-severity\":\"warning\"}")),
            Warnings);
  EXPECT_EQ(SlotSolves(), 2) << "a warning-level lint solved slot facts";
  EXPECT_EQ(ReplyDiags(S.handleLine("lint")), Notes);
  EXPECT_EQ(SlotSolves(), 3) << "a note-level lint solved no slot facts";
  ExpectFresh(S.slotFlow(), "after a note-level lint");
  EXPECT_EQ(SlotSolves(), 4) << "a note-level lint derived the server's facts";
  std::string Slice = S.handleLine("slice {\"addr\":0}");
  EXPECT_NE(Slice.find("\"ok\":true"), std::string::npos) << Slice;
  EXPECT_EQ(SlotSolves(), 4) << "a slice re-solved derived facts";
}

TEST(ServeLifetimeTest, ResidentProgramViewsTheResidentImage) {
  // The resident program borrows the resident image's words.  A no-op
  // save keeps the old analysis but frees the old image, so the server
  // must re-point the program; every other step installs an analysis of
  // the new image.  After each step the view is checked, and analyze,
  // explain (which decodes a word) and slice answer like a server freshly
  // loaded with the same image.
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 11;
  ServerOptions SOpts;
  SOpts.Jobs = 2;
  Server S(SOpts);
  ASSERT_TRUE(S.loadImage(generateExecProgram(P)));

  // The edit, save and revert lines, built up front because a patch
  // replaces the resident routines.
  std::string SaveLine, EditLine, RevertLine, Queries[3];
  for (const Routine &Rt : S.analysis().Prog.Routines) {
    if (Rt.Name.empty() || Rt.Quarantined || Rt.End - Rt.Begin < 4)
      continue;
    std::vector<uint64_t> Code(S.image().Code.begin() + Rt.Begin,
                               S.image().Code.begin() + Rt.End);
    SaveLine = RevertLine = patchLine(Rt.Name, Code);
    size_t Dst = 1;
    while (Dst < Code.size() && Code[Dst] == Code[0])
      ++Dst;
    ASSERT_LT(Dst, Code.size());
    Code[Dst] = Code[0];
    EditLine = patchLine(Rt.Name, Code);
    std::string Addr = std::to_string(Rt.Begin + Dst);
    Queries[0] = "analyze {\"routine\":\"" + Rt.Name + "\"}";
    Queries[1] = "explain {\"fact\":\"dead\",\"addr\":" + Addr + "}";
    Queries[2] = "slice {\"addr\":" + Addr + ",\"dir\":\"backward\"}";
    break;
  }
  ASSERT_FALSE(EditLine.empty());

  auto Check = [&](const char *Step) {
    EXPECT_EQ(S.analysis().Prog.Code.data(), S.image().Code.data()) << Step;
    EXPECT_EQ(S.analysis().Prog.numInsts(), S.image().Code.size()) << Step;
    Server Fresh(SOpts);
    ASSERT_TRUE(Fresh.loadImage(S.image())) << Step;
    for (const std::string &Query : Queries) {
      std::string Reply = S.handleLine(Query);
      EXPECT_NE(Reply.find("\"ok\":true"), std::string::npos)
          << Step << ": " << Reply;
      EXPECT_EQ(stripSeq(Reply), stripSeq(Fresh.handleLine(Query)))
          << Step << ": " << Query;
    }
  };
  Check("load");
  std::string Save = S.handleLine(SaveLine);
  ASSERT_NE(Save.find("\"struct_dirty\":0"), std::string::npos) << Save;
  Check("no-op save");
  std::string Edit = S.handleLine(EditLine);
  ASSERT_EQ(Edit.find("\"struct_dirty\":0"), std::string::npos) << Edit;
  Check("edit");
  std::string Revert = S.handleLine(RevertLine);
  ASSERT_EQ(Revert.find("\"struct_dirty\":0"), std::string::npos) << Revert;
  Check("revert");
}

// ---------------------------------------------------------------------------
// Robustness floor.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, MalformedLinesAreErrorRepliesNotCrashes) {
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 3;
  Image Img = generateExecProgram(P);
  ServerOptions SOpts;
  SOpts.Jobs = 2;
  Server S(SOpts);
  ASSERT_TRUE(S.loadImage(Img));

  const char *Garbage[] = {
      "",
      "   ",
      "analyze {unterminated",
      "analyze [1,2,3]",
      "patch-routine {\"routine\":\"main\"}",
      "patch-routine {\"routine\":\"main\",\"code\":[-1]}",
      "slice {\"addr\":\"not-a-number\"}",
      "slice {\"addr\":999999999}",
      "slice {\"addr\":1.5}",
      "slice {\"addr\":-1}",
      "slice {\"addr\":1e300}",
      "explain {\"fact\":\"dead\",\"addr\":2.5}",
      "explain {\"fact\":\"dead\",\"addr\":-3}",
      "explain {\"fact\":\"frobnicate\"}",
      "explain {\"fact\":\"live\",\"loc\":\"zz9@entry:main\"}",
      // Node ids and #i indices are whole decimal numbers in range.
      "explain {\"fact\":\"live\",\"loc\":\"ra@node:abc\"}",
      "explain {\"fact\":\"live\",\"loc\":\"ra@node:4294967296\"}",
      "explain {\"fact\":\"live\",\"loc\":\"ra@entry:main#zz\"}",
      "no-such-command {}",
      "load {\"path\":\"/nonexistent/x.spkx\"}",
      "lint {\"min-severity\":\"fatal\"}",
  };
  for (const char *Line : Garbage) {
    std::string Reply = S.handleLine(Line);
    EXPECT_NE(Reply.find("\"ok\":false"), std::string::npos) << Line;
  }
  // A code word string is decimal digits or 0x and hex digits, in range:
  // nothing strtoull would skip, negate, wrap or read as octal.
  const Routine &Main = S.analysis().Prog.Routines.front();
  std::vector<uint64_t> Code(S.image().Code.begin() + Main.Begin,
                             S.image().Code.begin() + Main.End);
  ASSERT_GE(Code.size(), 2u);
  auto WithFirstWord = [&](const std::string &Word) {
    std::string Line = patchLine(Main.Name, Code);
    size_t First = Line.find('[') + 1;
    return Line.replace(First, Line.find(',', First) - First,
                        "\"" + Word + "\"");
  };
  const char *BadWords[] = {"-1", " 7", "+7", "7 ", "0x", "0x-1", "0X7",
                            "1e3", "18446744073709551616"};
  for (const char *Word : BadWords) {
    std::string Reply = S.handleLine(WithFirstWord(Word));
    EXPECT_NE(Reply.find("\"ok\":false"), std::string::npos) << Word;
  }
  // The server survived all of it and still answers real queries.
  std::string Reply = S.handleLine("analyze");
  EXPECT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;
  EXPECT_EQ(S.stats().Errors, std::size(Garbage) + std::size(BadWords));
  // A zero-padded decimal word is decimal, not octal.
  Reply = S.handleLine(WithFirstWord("010"));
  EXPECT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;
  EXPECT_EQ(S.image().Code[Main.Begin], 10u);
}

TEST(ServeBudgetTest, BlownPatchDegradesReplyAndServerSurvives) {
  ExecProfile P;
  P.Routines = 12;
  P.Seed = 5;
  Image Img = generateExecProgram(P);

  ServerOptions SOpts;
  SOpts.Jobs = 2;
  SOpts.Budget.MaxIterations = 1; // Deterministic: first SCC sweep blows.
  Server S(SOpts);
  // The governed load already degrades; that is fine — the point is the
  // patch path.
  ASSERT_TRUE(S.loadImage(Img));

  const Routine *Rt = nullptr;
  for (const Routine &R : S.analysis().Prog.Routines)
    if (!R.Name.empty() && R.End - R.Begin >= 4) {
      Rt = &R;
      break;
    }
  ASSERT_NE(Rt, nullptr);
  std::string Line =
      "patch-routine {\"routine\":\"" + Rt->Name + "\",\"code\":[";
  for (uint64_t A = Rt->Begin; A < Rt->End; ++A) {
    if (A != Rt->Begin)
      Line += ",";
    Line += "\"" + std::to_string(S.image().Code[A]) + "\"";
  }
  Line += "]}";
  std::string Reply = S.handleLine(Line);
  // Either the incremental path fit inside the budget (a no-op patch can)
  // or the reply carries the degraded banner; in both cases the server
  // keeps serving.
  if (Reply.find("\"degraded\":true") != std::string::npos) {
    EXPECT_NE(Reply.find("!! DEGRADED"), std::string::npos) << Reply;
  }
  std::string Stats = S.handleLine("stats");
  EXPECT_NE(Stats.find("\"ok\":true"), std::string::npos) << Stats;
}

namespace {

/// A one-word edit of a healthy routine of \p Prog at least four words
/// long, preferring members of the largest phase 1 SCC group (so the
/// re-solve iterates a while): the routine's index and its new words.
std::pair<uint32_t, std::vector<uint64_t>> oneWordEdit(const Program &Prog,
                                                       const Image &Img) {
  const SccSchedule &Sched = Prog.CalleeFirst;
  uint32_t Largest = 0;
  for (uint32_t G = 0; G < Sched.NumGroups; ++G)
    if (Sched.Members[G].size() > Sched.Members[Largest].size())
      Largest = G;
  for (bool InLargest : {true, false})
    for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
      const Routine &Rt = Prog.Routines[R];
      if (Rt.Quarantined || Rt.End - Rt.Begin < 4 ||
          (InLargest && Sched.GroupOfRoutine[R] != Largest))
        continue;
      std::vector<uint64_t> Code(Img.Code.begin() + Rt.Begin,
                                 Img.Code.begin() + Rt.End);
      size_t Dst = 1;
      while (Dst < Code.size() && Code[Dst] == Code[0])
        ++Dst;
      if (Dst == Code.size())
        continue;
      Code[Dst] = Code[0];
      return {R, Code};
    }
  return {~uint32_t(0), {}};
}

} // namespace

TEST(ServeBudgetTest, RejectedPatchLeavesTheResidentStateAsItWas) {
  // The deadline trips from the first clock read after the load, so the
  // in-place re-solve blows its budget and so does every attempt of the
  // degraded retry: the patch is rejected, and the engine's journal must
  // have put the image and the analysis back bit for bit.  Once the clock
  // is honest again the same patch lands in place.
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 11;
  Image Img = generateExecProgram(P);
  for (unsigned Jobs : {1u, 4u}) {
    const std::string Where = "jobs=" + std::to_string(Jobs);
    ServerOptions SOpts;
    SOpts.Jobs = Jobs;
    SOpts.Budget.DeadlineMs = 600000;
    Server S(SOpts);
    ASSERT_TRUE(S.loadImage(Img));
    auto [R, Code] = oneWordEdit(S.analysis().Prog, S.image());
    ASSERT_FALSE(Code.empty());
    const std::string Line =
        patchLine(S.analysis().Prog.Routines[R].Name, Code);
    std::vector<std::string> Before = describeAnalysis(S.analysis());
    {
      faultinject::Injector Skew({faultinject::FaultKind::DeadlineSkew, 1});
      faultinject::Scope Installed(Skew);
      std::string Reply = S.handleLine(Line);
      EXPECT_NE(Reply.find("\"ok\":false"), std::string::npos)
          << Where << ": " << Reply;
      EXPECT_NE(Reply.find("still serving the previous version"),
                std::string::npos)
          << Where << ": " << Reply;
    }
    EXPECT_EQ(S.image(), Img) << Where;
    EXPECT_EQ(S.analysis().Prog.Code.data(), S.image().Code.data()) << Where;
    expectSameLines(Before, describeAnalysis(S.analysis()), Where);
    EXPECT_EQ(S.stats().Patches, 0u) << Where;

    std::string Reply = S.handleLine(Line);
    EXPECT_NE(Reply.find("\"full\":false"), std::string::npos)
        << Where << ": " << Reply;
    AnalysisResult Fresh =
        analyzeImage(S.image(), CallingConv(), AnalysisOptions());
    expectSameLines(describeAnalysis(Fresh), describeAnalysis(S.analysis()),
                    Where + " after the patch landed");
  }
}

TEST(ServeIncrementalTest, EveryBlownPollRollsBackInPlace) {
  // A cancellation observed at the Nth governor poll of a re-analysis in
  // place — at the CFG or PSG stage boundary or at any worklist pop of
  // either phase — throws out of reanalyzeIncremental with the image and
  // the analysis exactly as they were.  N doubles until the patch
  // completes, which must then equal a fresh analysis.
  auto Corpus = testcorpus::differentialCorpus();
  auto Subject = std::find_if(Corpus.begin(), Corpus.end(),
                              [](const auto &C) { return C.first == "gcc"; });
  ASSERT_NE(Subject, Corpus.end());
  const Image Original = Subject->second;
  BudgetOptions Budget;
  Budget.DeadlineMs = 600000; // Enables polling; never trips.
  for (unsigned Jobs : {1u, 4u}) {
    Image Img = Original;
    AnalysisResult A = analyzeImage(Img, CallingConv(), AnalysisOptions());
    auto [R, Code] = oneWordEdit(A.Prog, Img);
    ASSERT_FALSE(Code.empty());
    std::vector<std::string> Before = describeAnalysis(A);
    ThreadPool Pool(Jobs);
    unsigned Blown = 0;
    bool Landed = false;
    for (uint64_t N = 1; !Landed; N *= 2) {
      const std::string Where =
          "jobs=" + std::to_string(Jobs) + " poll " + std::to_string(N);
      ResourceGovernor Gov(Budget, nullptr, nullptr);
      AnalysisOptions Opts;
      Opts.Governor = &Gov;
      faultinject::Injector Cancel({faultinject::FaultKind::Cancel, N});
      faultinject::Scope Installed(Cancel);
      try {
        IncrementalOutcome Out =
            reanalyzeIncremental(Img, R, Code, Opts, A, Pool);
        EXPECT_FALSE(Out.Full) << Where;
        Landed = true;
      } catch (const BudgetBlownError &E) {
        ++Blown;
        EXPECT_EQ(E.verdict(), BudgetVerdict::Cancelled) << Where;
        ASSERT_EQ(Img, Original) << Where;
        expectSameLines(Before, describeAnalysis(A), Where);
      }
    }
    EXPECT_GE(Blown, 4u) << "no poll inside the phases was reached";
    AnalysisResult Fresh = analyzeImage(Img, CallingConv(), AnalysisOptions());
    expectSameLines(describeAnalysis(Fresh), describeAnalysis(A),
                    "jobs=" + std::to_string(Jobs) + " landed");
  }
}

TEST(ServeBudgetTest, BlownSliceRepliesDoNotDependOnLint) {
  // A slice derives the server's slot facts under the request's budget;
  // `lint` solves its own, ungoverned, and never the server's.  With a
  // deadline that trips after the load (the clock seam skews every read
  // from the first on), each slice reply is the same degraded error
  // whether a note-level lint ran before it, runs beside it in one
  // batch, or not at all, at every job count; each lint reply is the
  // same too.
  ExecProfile P;
  P.Routines = 24;
  P.IndirectCallProb = 0.05;
  P.Seed = 11;
  Image Img = generateExecProgram(P);
  const std::string Slice = "slice {\"addr\":0}", Lint = "lint";
  const std::vector<std::vector<std::string>> Sessions = {
      {Slice}, {Lint, Slice}, {Slice, Lint}, {Lint, Lint, Slice, Slice}};

  std::set<std::string> SliceReplies, LintReplies;
  for (unsigned Jobs : {1u, 4u})
    for (const std::vector<std::string> &Lines : Sessions)
      for (bool OneBatch : {true, false}) {
        ServerOptions SOpts;
        SOpts.Jobs = Jobs;
        SOpts.Budget.DeadlineMs = 600000;
        Server S(SOpts);
        ASSERT_TRUE(S.loadImage(Img));
        faultinject::Injector Skew({faultinject::FaultKind::DeadlineSkew, 1});
        faultinject::Scope Installed(Skew);
        std::vector<std::string> Replies;
        if (OneBatch)
          Replies = S.handleBatch(Lines);
        else
          for (const std::string &Line : Lines)
            Replies.push_back(S.handleLine(Line));
        for (size_t I = 0; I < Lines.size(); ++I)
          (Lines[I] == Slice ? SliceReplies : LintReplies)
              .insert(stripSeq(Replies[I]));
        EXPECT_EQ(S.stats().DepGraphBuilds, 0u);
      }
  ASSERT_EQ(SliceReplies.size(), 1u) << *SliceReplies.rbegin();
  EXPECT_NE(SliceReplies.begin()->find("budget blown (deadline)"),
            std::string::npos)
      << *SliceReplies.begin();
  ASSERT_EQ(LintReplies.size(), 1u) << *LintReplies.rbegin();
  EXPECT_NE(LintReplies.begin()->find("\"ok\":true"), std::string::npos)
      << *LintReplies.begin();
}

// ---------------------------------------------------------------------------
// Request-scoped observability: the access log and its determinism
// contract (DESIGN.md §16).
// ---------------------------------------------------------------------------

#include "TestPaths.h"
#include "telemetry/Prometheus.h"

#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#define SPIKE_SERVE_TEST_POSIX 1
#endif

namespace {

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// The byte-identity scrub: timing fields (queue_ns/exec_ns/hotspot ns),
/// bytes_out (the stats/metrics replies embed timing digits, so their
/// length is timing-derived), and the header's jobs count.
std::string scrubTiming(const std::string &Log) {
  std::string Out = std::regex_replace(
      Log, std::regex("\"(queue_ns|exec_ns|ns|bytes_out)\":[0-9]+"),
      "\"$1\":X");
  return std::regex_replace(Out, std::regex("\"jobs\":[0-9]+"), "\"jobs\":X");
}

std::vector<std::string> logLines(const std::string &Log) {
  std::vector<std::string> Lines;
  size_t Pos = 0, Nl;
  while ((Nl = Log.find('\n', Pos)) != std::string::npos) {
    Lines.push_back(Log.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

} // namespace

TEST(ServeObserveTest, AccessLogSchemaAndScrubbedJobIdentity) {
  ExecProfile P;
  P.Routines = 16;
  P.Seed = 7;
  Image Img = generateExecProgram(P);

  // Pick a named routine once, off a throwaway analysis, so every job
  // variant runs the same session.
  std::string Target;
  {
    ServerOptions Probe;
    Probe.Jobs = 1;
    Server P0(Probe);
    ASSERT_TRUE(P0.loadImage(Img));
    std::mt19937_64 Rng(1);
    const Routine *Rt = pickRoutine(P0.analysis().Prog, Rng);
    ASSERT_NE(Rt, nullptr);
    Target = Rt->Name;
  }

  const std::vector<std::string> Session = {
      "analyze",
      "lint",
      "analyze {\"routine\":\"" + Target + "\"}",
      "bogus {}",
      "stats",
      "metrics",
  };

  std::vector<std::string> Scrubbed;
  std::string FirstLog;
  for (unsigned Jobs : {1u, 2u, 4u, 7u}) {
    std::string Path = testpaths::scratchFile("access.j" +
                                              std::to_string(Jobs) + ".log");
    ServerOptions SOpts;
    SOpts.Jobs = Jobs;
    SOpts.AccessLogPath = Path;
    SOpts.SlowMs = 0; // every request is "slow": hotspots attach wherever
                      // the dispatch charged any.
    Server S(SOpts);
    ASSERT_TRUE(S.startupError().empty()) << S.startupError();
    ASSERT_TRUE(S.loadImage(Img));
    S.handleBatch(Session);
    std::string Log = readWholeFile(Path);
    if (Scrubbed.empty())
      FirstLog = Log;
    Scrubbed.push_back(scrubTiming(Log));
  }

  // Schema: header first, then one record per request, in arrival order.
  std::vector<std::string> Lines = logLines(FirstLog);
  ASSERT_EQ(Lines.size(), 1 + Session.size());
  EXPECT_NE(Lines[0].find("\"schema\":\"spike-serve-access-log\""),
            std::string::npos);
  EXPECT_NE(Lines[0].find("\"version\":1"), std::string::npos);
  EXPECT_NE(Lines[0].find("\"slow_ms\":0"), std::string::npos);
  EXPECT_NE(Lines[0].find("\"build\":{"), std::string::npos);
  for (size_t I = 1; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    EXPECT_NE(L.find("\"seq\":" + std::to_string(I - 1)), std::string::npos)
        << L;
    for (const char *Key : {"\"cmd\":", "\"command\":", "\"ok\":",
                            "\"protocol_error\":", "\"degraded\":",
                            "\"bytes_in\":", "\"bytes_out\":", "\"queue_ns\":",
                            "\"exec_ns\":", "\"slow\":true"})
      EXPECT_NE(L.find(Key), std::string::npos) << Key << " missing in " << L;
  }
  // The garbage line is a protocol error with canonical command "?", and
  // the raw token survives in "cmd".
  EXPECT_NE(Lines[4].find("\"cmd\":\"bogus\""), std::string::npos);
  EXPECT_NE(Lines[4].find("\"command\":\"?\""), std::string::npos);
  EXPECT_NE(Lines[4].find("\"protocol_error\":true"), std::string::npos);
  EXPECT_NE(Lines[4].find("\"ok\":false"), std::string::npos);

  // Determinism: with timing scrubbed, every job count wrote the same
  // bytes.
  for (size_t I = 1; I < Scrubbed.size(); ++I)
    EXPECT_EQ(Scrubbed[0], Scrubbed[I]) << "jobs variant " << I;
}

TEST(ServeObserveTest, SlowPatchRecordCarriesFrontierAndHotspots) {
  ExecProfile P;
  P.Routines = 12;
  P.Seed = 11;
  Image Img = generateExecProgram(P);

  std::string Path = testpaths::scratchFile("access.log");
  ServerOptions SOpts;
  SOpts.Jobs = 2;
  SOpts.AccessLogPath = Path;
  SOpts.SlowMs = 0;
  Server S(SOpts);
  ASSERT_TRUE(S.loadImage(Img));

  // A real mutation: an identity patch dirties nothing, so reanalysis
  // would have no SCCs to attribute.  Keep drawing until the code
  // actually changed (deterministic: the Rng seed is fixed).
  std::mt19937_64 Rng(2);
  const Routine *Rt = pickRoutine(S.analysis().Prog, Rng);
  ASSERT_NE(Rt, nullptr);
  Image Mutated = S.image();
  std::string Line;
  for (int Draw = 0; Draw < 64; ++Draw) {
    Line = mutateRoutine(Mutated, *Rt, Rng);
    if (!std::equal(Mutated.Code.begin() + Rt->Begin,
                    Mutated.Code.begin() + Rt->End,
                    S.image().Code.begin() + Rt->Begin))
      break;
  }
  std::string Reply = S.handleLine(Line);
  ASSERT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;

  std::vector<std::string> Lines = logLines(readWholeFile(Path));
  ASSERT_EQ(Lines.size(), 2u);
  const std::string &Rec = Lines[1];
  EXPECT_NE(Rec.find("\"command\":\"patch-routine\""), std::string::npos);
  for (const char *Key :
       {"\"patch\":{\"full\":", "\"struct_dirty\":", "\"phase1_dirty\":",
        "\"phase2_dirty\":"})
    EXPECT_NE(Rec.find(Key), std::string::npos) << Key << " missing: " << Rec;
  // A patch does not touch slot facts, so it reports no slot frontier.
  EXPECT_EQ(Rec.find("slot_phase"), std::string::npos) << Rec;
  // --slow-ms=0 marks the patch slow, so the per-SCC attribution of its
  // reanalysis rides along.
  EXPECT_NE(Rec.find("\"slow\":true"), std::string::npos) << Rec;
  EXPECT_NE(Rec.find("\"hotspots\":[{\"phase\":"), std::string::npos) << Rec;
}

TEST(ServeObserveTest, QuerySpansJoinTheEmbeddersSession) {
  // Under an embedder's session each query's spans join it after the
  // batch, in arrival order, and its counters stay out: a warning-level
  // lint shows the checks it ran and none of the note-level ones, and
  // the phases and counters are the same at every job count.
  ExecProfile P;
  P.Routines = 16;
  P.Seed = 7;
  Image Img = generateExecProgram(P);
  const std::vector<std::string> Batch = {
      "lint {\"min-severity\":\"warning\"}", "analyze",
      "lint {\"min-severity\":\"warning\"}", "slice {\"addr\":0}"};

  std::vector<std::map<std::string, uint64_t>> Phases;
  std::vector<telemetry::Session::Registry> Counters;
  for (unsigned Jobs : {1u, 4u}) {
    ServerOptions SOpts;
    SOpts.Jobs = Jobs;
    Server S(SOpts);
    ASSERT_TRUE(S.loadImage(Img));
    telemetry::Session Sess("serve_test");
    {
      telemetry::SessionScope Scope(Sess);
      S.handleBatch(Batch);
    }
    std::map<std::string, uint64_t> &Rows = Phases.emplace_back();
    for (const telemetry::PhaseRow &Row : Sess.phaseRows())
      Rows[Row.Path] = Row.Count;
    Counters.push_back(Sess.counters());
  }

  const std::map<std::string, uint64_t> &Rows = Phases.front();
  auto CountOf = [&](const std::string &Path) {
    auto It = Rows.find(Path);
    return It == Rows.end() ? 0 : It->second;
  };
  EXPECT_EQ(CountOf("lint"), 2u);
  EXPECT_EQ(CountOf("lint/lint.control-flow"), 2u);
  EXPECT_EQ(CountOf("lint/lint.cc-clobber"), 2u);
  EXPECT_EQ(CountOf("slice.slotflow"), 1u) << "the slice derived no facts";
  EXPECT_EQ(CountOf("slice.depgraph"), 1u);
  for (const auto &[Path, Count] : Rows)
    for (const char *Skipped :
         {"lint.dead-def", "lint.dead-stack-store", "lint/slice."})
      EXPECT_EQ(Path.find(Skipped), std::string::npos) << Path;
  EXPECT_EQ(Phases[1], Phases[0]);

  const telemetry::Session::Registry &Counted = Counters.front();
  auto Queries = Counted.find("serve.queries");
  ASSERT_NE(Queries, Counted.end());
  EXPECT_EQ(Queries->second, Batch.size());
  EXPECT_EQ(Counted.count("lint.diagnostics"), 0u);
  EXPECT_EQ(Counters[1], Counters[0]);
}

TEST(ServeObserveTest, ObservedStatsGrowHistogramsUnobservedStaysStable) {
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 3;
  Image Img = generateExecProgram(P);

  // Observed (no access log — histograms only, the spike-serve default).
  ServerOptions OOpts;
  OOpts.Jobs = 2;
  OOpts.Observe = true;
  Server Observed(OOpts);
  ASSERT_TRUE(Observed.loadImage(Img));
  EXPECT_NE(Observed.handleLine("wat {}").find("\"ok\":false"),
            std::string::npos);
  Observed.handleLine("analyze");
  EXPECT_EQ(Observed.stats().ProtocolErrors, 1u);
  EXPECT_EQ(Observed.observer().latency(serve::Command::Analyze).count(), 1u);
  EXPECT_EQ(Observed.observer().latency(serve::Command::Unknown).count(), 1u);
  std::string Stats = Observed.handleLine("stats");
  EXPECT_NE(Stats.find("\"protocol_errors\":1"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"latency\":{"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"queue_wait\":{"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"analyze\":{\"count\":1"), std::string::npos)
      << Stats;

  // Unobserved (the library default): the stats reply keeps its original
  // shape — no latency block, no timestamps taken.
  ServerOptions UOpts;
  UOpts.Jobs = 2;
  Server Plain(UOpts);
  ASSERT_TRUE(Plain.loadImage(Img));
  Plain.handleLine("analyze");
  std::string PlainStats = Plain.handleLine("stats");
  EXPECT_NE(PlainStats.find("\"protocol_errors\":0"), std::string::npos)
      << PlainStats;
  EXPECT_EQ(PlainStats.find("\"latency\""), std::string::npos) << PlainStats;
  EXPECT_FALSE(Plain.observer().enabled());

  // The resident analysis is all the tracked memory: witnesses are
  // searched on demand, so nothing beside it stays resident.
  std::optional<telemetry::JsonValue> Doc = telemetry::parseJson(PlainStats);
  ASSERT_TRUE(Doc) << PlainStats;
  EXPECT_EQ(Doc->numberOr("analysis_bytes", -1),
            double(Plain.analysis().Memory.peakBytes()));
  EXPECT_EQ(Doc->find("provenance_bytes"), nullptr) << PlainStats;
}

TEST(ServeObserveTest, MetricsReplyIsParseableExposition) {
  ExecProfile P;
  P.Routines = 8;
  P.Seed = 5;
  Image Img = generateExecProgram(P);
  ServerOptions SOpts;
  SOpts.Jobs = 2;
  SOpts.Observe = true;
  Server S(SOpts);
  ASSERT_TRUE(S.loadImage(Img));
  S.handleLine("analyze");
  std::string Reply = S.handleLine("metrics");
  ASSERT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;
  ASSERT_NE(Reply.find("\"content_type\":\"text/plain; version=0.0.4\""),
            std::string::npos)
      << Reply;

  std::optional<telemetry::JsonValue> V = telemetry::parseJson(Reply);
  ASSERT_TRUE(V && V->isObject());
  const telemetry::JsonValue *Body = V->find("body");
  ASSERT_TRUE(Body && Body->isString());
  std::string Error;
  std::optional<std::vector<telemetry::PromSample>> Samples =
      telemetry::parseExposition(Body->Str, &Error);
  ASSERT_TRUE(Samples) << Error;

  auto Has = [&](const char *Name) {
    for (const telemetry::PromSample &Smp : *Samples)
      if (Smp.Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("spike_build_info"));
  EXPECT_TRUE(Has("spike_serve_queries_total"));
  EXPECT_TRUE(Has("spike_serve_protocol_errors_total"));
  EXPECT_TRUE(Has("spike_serve_loaded"));
  EXPECT_TRUE(Has("spike_serve_latency_analyze_ns_count"));
}

// ---------------------------------------------------------------------------
// Unix-socket lifecycle: stale files are reclaimed, live servers are
// not stolen, foreign files are never unlinked.
// ---------------------------------------------------------------------------

#ifdef SPIKE_SERVE_TEST_POSIX

namespace {

/// Connects to \p Path, retrying while the server thread binds; sends
/// \p Request and returns the reply line ("" on failure).
std::string roundTrip(const std::string &Path, const std::string &Request) {
  for (int Try = 0; Try < 200; ++Try) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return "";
    sockaddr_un Addr = {};
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) == 0) {
      (void)!::write(Fd, Request.c_str(), Request.size());
      ::shutdown(Fd, SHUT_WR);
      std::string Reply;
      char Buf[4096];
      ssize_t N;
      while ((N = ::read(Fd, Buf, sizeof Buf)) > 0)
        Reply.append(Buf, size_t(N));
      ::close(Fd);
      return Reply;
    }
    ::close(Fd);
    ::usleep(10000);
  }
  return "";
}

/// Binds a socket at \p Path and closes the fd without unlinking —
/// exactly what a SIGKILLed server leaves behind.
void leaveStaleSocket(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr), 0);
  ::close(Fd);
}

} // namespace

TEST(ServeSocketTest, StaleSocketFileIsReclaimed) {
  std::string Path = testpaths::scratchFile("stale.sock");
  leaveStaleSocket(Path);
  struct stat SB;
  ASSERT_EQ(::lstat(Path.c_str(), &SB), 0); // The stale inode exists.

  ServerOptions SOpts;
  SOpts.Jobs = 1;
  Server S(SOpts);
  int Rc = -1;
  std::string Error;
  std::thread Srv([&] { Rc = serveSocket(S, Path, &Error); });
  std::string Reply = roundTrip(Path, "shutdown {}\n");
  Srv.join();
  EXPECT_EQ(Rc, 0) << Error;
  EXPECT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;
  // The server unlinked its socket on the way out.
  EXPECT_NE(::lstat(Path.c_str(), &SB), 0);
}

TEST(ServeSocketTest, LiveServerSocketIsNotStolen) {
  std::string Path = testpaths::scratchFile("live.sock");
  ServerOptions SOpts;
  SOpts.Jobs = 1;
  Server First(SOpts);
  int FirstRc = -1;
  std::thread Srv([&] { FirstRc = serveSocket(First, Path, nullptr); });
  // Wait until the first server listens.
  std::string Probe = roundTrip(Path, "stats\n");
  ASSERT_NE(Probe.find("\"ok\":true"), std::string::npos) << Probe;

  Server Second(SOpts);
  std::string Error;
  EXPECT_EQ(serveSocket(Second, Path, &Error), 1);
  EXPECT_NE(Error.find("in use by a live server"), std::string::npos)
      << Error;

  // The first server is unharmed and still answers, then shuts down.
  std::string Reply = roundTrip(Path, "shutdown {}\n");
  EXPECT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;
  Srv.join();
  EXPECT_EQ(FirstRc, 0);
}

TEST(ServeSocketTest, NonSocketFileIsNeverUnlinked) {
  std::string Path = testpaths::scratchFile("not-a-socket");
  {
    std::ofstream Out(Path);
    Out << "precious data\n";
  }
  ServerOptions SOpts;
  SOpts.Jobs = 1;
  Server S(SOpts);
  std::string Error;
  EXPECT_EQ(serveSocket(S, Path, &Error), 1);
  EXPECT_NE(Error.find("not a socket"), std::string::npos) << Error;
  EXPECT_EQ(readWholeFile(Path), "precious data\n");
}

#endif // SPIKE_SERVE_TEST_POSIX
