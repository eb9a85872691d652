//===- tests/serve_test.cpp - resident server & incremental oracle ---------===//
//
// The serving layer's contract has two halves, both enforced here:
//
//   - Incremental bit-identity: after any sequence of `patch-routine`
//     commands, the resident summaries, rendered entry witnesses, slot
//     facts, and lint findings equal a fresh full solve of the patched
//     image — at every job count (the differential oracle, over the same
//     20 synthetic profiles the parallel engine is tested on).
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
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

using namespace spike;

namespace {

/// The 20 differential subjects, mirroring parallel_test: every paper
/// profile capped at ~120 routines plus 4 executable programs.
std::vector<std::pair<std::string, Image>> serveCorpus() {
  std::vector<std::pair<std::string, Image>> Corpus;
  for (const BenchmarkProfile &P : paperProfiles()) {
    double Scale = P.Routines > 120 ? 120.0 / P.Routines : 1.0;
    BenchmarkProfile Scaled = scaledProfile(P, Scale);
    Corpus.emplace_back(P.Name, generateCfgProgram(Scaled));
  }
  for (uint64_t Seed : {3u, 11u, 29u, 5u}) {
    ExecProfile P;
    P.Routines = 24;
    P.IndirectCallProb = Seed == 5 ? 0.25 : 0.05;
    P.Seed = Seed;
    Corpus.emplace_back("exec-" + std::to_string(Seed),
                        generateExecProgram(P));
  }
  return Corpus;
}

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
  for (auto &[Name, BaseImg] : serveCorpus()) {
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
        EXPECT_EQ(renderEntryWitnesses(S.analysis()), FreshWitnesses[R])
            << Where << ": witnesses differ";
        expectSlotsEqual(S.slotFlow(), FreshSlots[R], Where);
        EXPECT_EQ(lintStrings(S.image(), S.analysis()), FreshLint[R])
            << Where;
      }
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

namespace {

/// The patch-routine line publishing \p Code as the words of \p Rt.
std::string patchLine(const Routine &Rt, const std::vector<uint64_t> &Code) {
  std::string Line =
      "patch-routine {\"routine\":\"" + Rt.Name + "\",\"code\":[";
  for (size_t I = 0; I < Code.size(); ++I)
    Line += (I ? ",\"" : "\"") + std::to_string(Code[I]) + "\"";
  return Line + "]}";
}

} // namespace

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
  std::string Save = S.handleLine(patchLine(Patched, CodeOf(Patched)));
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
  std::string Edit = S.handleLine(patchLine(Patched, Code));
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
    RevertLine = patchLine(Rt, Code);
    size_t Dst = 1;
    while (Dst < Code.size() && Code[Dst] == Code[0])
      ++Dst;
    ASSERT_LT(Dst, Code.size());
    Code[Dst] = Code[0];
    EditLine = patchLine(Rt, Code);
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
    SaveLine = RevertLine = patchLine(Rt, Code);
    size_t Dst = 1;
    while (Dst < Code.size() && Code[Dst] == Code[0])
      ++Dst;
    ASSERT_LT(Dst, Code.size());
    Code[Dst] = Code[0];
    EditLine = patchLine(Rt, Code);
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
  // The server survived all of it and still answers real queries.
  std::string Reply = S.handleLine("analyze");
  EXPECT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;
  EXPECT_EQ(S.stats().Errors, std::size(Garbage));
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

// ---------------------------------------------------------------------------
// Request-scoped observability: the access log and its determinism
// contract (DESIGN.md §16).
// ---------------------------------------------------------------------------

#include "TestPaths.h"
#include "telemetry/Json.h"
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
