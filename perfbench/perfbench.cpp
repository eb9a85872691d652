//===- perfbench/perfbench.cpp - Paper-scale end-to-end benchmark ---------===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One seeded workload per process, driven only through the layers'
/// public entry points, with every output checked:
///
///   acad-analyze   whole-program analyzeImage of acad at --jobs 4 and 1
///   gcc-optimize   the full optimizeImage loop on gcc at --jobs 4
///   gcc-serve      a resident Server on gcc, one closed-loop client
///                  sending one-word edits, no-op saves and read queries
///
/// Usage:
///   perfbench --workload <name> [--seed <n>] [--seconds <s>]
///             [--trace 0|1] [--scale <f>] [--corrupt]
///
/// --seed 0 keeps the profile's calibrated generator seed; any other
/// value replaces BenchmarkProfile::Seed and also seeds the serve
/// request stream.  --trace 0 runs the timed measurement with no
/// telemetry session installed; --trace 1 runs the separate traced run
/// that times each analysis stage from here, under a telemetry Session.
/// --corrupt damages one result on purpose (a summary bit, an optimized
/// word, or a bad request) so a self-test can see the gates count it.
///
/// Every line before the last is human-readable ("metric <name> <value>
/// <unit>", "fingerprint {...}", the machine and build).  The last line
/// is one JSON object -- correct, attempted, failed, metrics -- whose
/// metrics are the ones every workload shares (end-to-end ones when
/// timed, per-layer ones when traced).
///
//===----------------------------------------------------------------------===//

#include "binary/Image.h"
#include "binary/Validator.h"
#include "cfg/CallGraph.h"
#include "cfg/CfgBuilder.h"
#include "cfg/SaveRestore.h"
#include "cfg/SccSchedule.h"
#include "interproc/CfgTwoPhase.h"
#include "isa/Registers.h"
#include "opt/Pipeline.h"
#include "psg/Analyzer.h"
#include "serve/Serve.h"
#include "slice/DepGraph.h"
#include "slice/SlotFlow.h"
#include "support/BuildInfo.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "synth/CfgGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/Telemetry.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace spike;

namespace {

/// Lanes of every parallel run; the caller thread is lane 0.
constexpr unsigned Jobs = 4;

/// Set-ups per process; setup_s is their median.
constexpr unsigned SetupReps = 5;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Runs \p Fn and returns its wall seconds.
template <typename Fn> double timeIt(Fn &&F) {
  Clock::time_point T0 = Clock::now();
  F();
  return since(T0);
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, at percentile 100 * (n - 10) / n.  With ten
/// samples or fewer no such percentile exists and the median stands in.
struct TailStat {
  double Value = 0;
  double Pct = 50;
  size_t Beyond = 0;
  size_t Count = 0;
};

TailStat tail(std::vector<double> V) {
  TailStat T;
  T.Count = V.size();
  if (V.size() <= 10) {
    T.Value = median(V);
    T.Beyond = V.size() / 2;
    return T;
  }
  std::sort(V.begin(), V.end());
  T.Beyond = 10;
  T.Value = V[V.size() - 11];
  T.Pct = 100.0 * double(V.size() - 10) / double(V.size());
  return T;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Collects gate outcomes and metrics.  Every metric prints one line at
/// once; the shared ones also land in the final JSON object.
class Report {
public:
  /// Counts one operation; a false \p Ok counts it as failed.
  void op(bool Ok, const char *What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::printf("gate FAILED: %s\n", What);
    }
  }

  /// A metric every workload reports (goes into the JSON line).
  void shared(const std::string &Name, double Value, const char *Unit,
              const std::string &Note = "") {
    line(Name, Value, Unit, Note);
    Json.push_back({Name, Value, Unit});
  }

  /// A metric only this workload has (human-readable line only).
  void extra(const std::string &Name, double Value, const char *Unit,
             const std::string &Note = "") {
    line(Name, Value, Unit, Note);
  }

  void extraTail(const std::string &Name, const std::vector<double> &Ms) {
    TailStat T = tail(Ms);
    extra(Name, T.Value, "ms",
          "p" + pct(T.Pct) + ", n=" + std::to_string(T.Count) + ", " +
              std::to_string(T.Beyond) + " beyond");
  }

  /// The operation counts, which the JSON line carries as attempted and
  /// failed.
  void printOps() {
    extra("ops", double(Attempted), "count");
    extra("ops_failed", double(Failed), "count");
  }

  void printJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                Failed == 0 ? "true" : "false", Attempted, Failed);
    for (size_t I = 0; I < Json.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  I ? ", " : "", Json[I].Name.c_str(), Json[I].Value,
                  Json[I].Unit);
    std::printf("}}\n");
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  static std::string pct(double P) {
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "%.1f", P);
    return Buf;
  }

  void line(const std::string &Name, double Value, const char *Unit,
            const std::string &Note) {
    std::printf("metric %-34s %14.6f %-6s%s%s\n", Name.c_str(), Value, Unit,
                Note.empty() ? "" : "  ", Note.c_str());
  }

  struct Entry {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Entry> Json;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  double Scale = 1.0;
  bool Corrupt = false;
};

BenchmarkProfile profileFor(const Args &A) {
  const char *Name = A.Workload == "acad-analyze" ? "acad" : "gcc";
  const BenchmarkProfile *Base = findProfile(Name);
  if (!Base)
    die(std::string("no profile named ") + Name);
  BenchmarkProfile P = A.Scale == 1.0 ? *Base : scaledProfile(*Base, A.Scale);
  if (A.Seed != 0)
    P.Seed = A.Seed;
  return P;
}

/// The generated program as a client hands it over: serialized bytes,
/// and the image parsed back from them.
struct Input {
  std::vector<uint8_t> Bytes;
  Image Img;
};

Input makeInput(const BenchmarkProfile &P) {
  Input In;
  In.Bytes = writeImage(generateCfgProgram(P));
  Expected<Image> Parsed = loadImage(In.Bytes);
  if (!Parsed)
    die("generated image does not parse: " + Parsed.error().str());
  In.Img = std::move(*Parsed);
  return In;
}

uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint8_t B : Bytes)
    H = (H ^ B) * 0x100000001b3ULL;
  return H;
}

/// Prints the input fingerprint the drift guard compares.
void printFingerprint(const Input &In, const AnalysisResult &R) {
  CallGraph CG = buildCallGraph(R.Prog);
  std::vector<uint64_t> SccSize(CG.NumSccs, 0);
  for (uint32_t Id : CG.SccId)
    ++SccSize[Id];
  uint64_t Largest = SccSize.empty()
                         ? 0
                         : *std::max_element(SccSize.begin(), SccSize.end());
  std::printf("fingerprint {\"routines\": %zu, \"instructions\": %zu, "
              "\"psg_nodes\": %zu, \"psg_edges\": %zu, \"largest_scc\": "
              "%" PRIu64 ", \"image_hash\": \"%016" PRIx64 "\"}\n",
              R.Prog.Routines.size(), In.Img.Code.size(),
              R.Psg.Nodes.size(), R.Psg.Edges.size(), Largest,
              fnv1a(In.Bytes));
}

//===----------------------------------------------------------------------===//
// Result comparison
//===----------------------------------------------------------------------===//

bool sameSummaries(const InterprocSummaries &A, const InterprocSummaries &B) {
  if (A.Routines.size() != B.Routines.size())
    return false;
  for (size_t R = 0; R < A.Routines.size(); ++R) {
    const RoutineResults &X = A.Routines[R];
    const RoutineResults &Y = B.Routines[R];
    if (X.EntrySummaries.size() != Y.EntrySummaries.size() ||
        X.LiveAtEntry != Y.LiveAtEntry || X.LiveAtExit != Y.LiveAtExit)
      return false;
    for (size_t E = 0; E < X.EntrySummaries.size(); ++E)
      if (X.EntrySummaries[E].Used != Y.EntrySummaries[E].Used ||
          X.EntrySummaries[E].Defined != Y.EntrySummaries[E].Defined ||
          X.EntrySummaries[E].Killed != Y.EntrySummaries[E].Killed)
        return false;
  }
  return true;
}

/// Summaries plus every converged PSG value.
bool sameSolution(const AnalysisResult &A, const AnalysisResult &B) {
  if (!sameSummaries(A.Summaries, B.Summaries) ||
      A.Psg.Nodes.size() != B.Psg.Nodes.size() ||
      A.Psg.Edges.size() != B.Psg.Edges.size())
    return false;
  for (size_t N = 0; N < A.Psg.Nodes.size(); ++N)
    if (!(A.Psg.Nodes[N].Sets == B.Psg.Nodes[N].Sets) ||
        A.Psg.Nodes[N].Live != B.Psg.Nodes[N].Live)
      return false;
  for (size_t E = 0; E < A.Psg.Edges.size(); ++E)
    if (!(A.Psg.Edges[E].Label == B.Psg.Edges[E].Label))
      return false;
  return true;
}

/// sameSolution plus the solver's work counters (a fresh solve of the
/// same image repeats them exactly at every job count).
bool sameAnalysis(const AnalysisResult &A, const AnalysisResult &B) {
  return sameSolution(A, B) &&
         A.Phase1Stats.NodeEvaluations == B.Phase1Stats.NodeEvaluations &&
         A.Phase2Stats.NodeEvaluations == B.Phase2Stats.NodeEvaluations &&
         A.Phase1Stats.EdgeVisits == B.Phase1Stats.EdgeVisits &&
         A.Phase2Stats.EdgeVisits == B.Phase2Stats.EdgeVisits;
}

bool sameSlots(const SlotFlowResult &A, const SlotFlowResult &B) {
  if (A.GlobalEscape != B.GlobalEscape ||
      A.OpaqueRoutines != B.OpaqueRoutines ||
      A.Routines.size() != B.Routines.size())
    return false;
  for (size_t R = 0; R < A.Routines.size(); ++R) {
    const RoutineSlotFacts &X = A.Routines[R];
    const RoutineSlotFacts &Y = B.Routines[R];
    if (X.Opaque != Y.Opaque || !(X.MayUse == Y.MayUse) ||
        !(X.MayDef == Y.MayDef) || !(X.LiveAtExit == Y.LiveAtExit) ||
        X.DeltaIn != Y.DeltaIn || X.DeltaOut != Y.DeltaOut ||
        X.BlockLiveIn != Y.BlockLiveIn || X.BlockLiveOut != Y.BlockLiveOut)
      return false;
  }
  return true;
}

/// Flips one call-used bit, the deliberate corruption of --corrupt.
void flipSummaryBit(AnalysisResult &R) {
  for (RoutineResults &Rt : R.Summaries.Routines)
    if (!Rt.EntrySummaries.empty()) {
      RegSet &Used = Rt.EntrySummaries[0].Used;
      Used = RegSet::fromMask(Used.mask() ^ 2);
      return;
    }
}

AnalysisOptions analysisOpts(unsigned Lanes) {
  AnalysisOptions O;
  O.Jobs = Lanes;
  return O;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Generates, serializes and parses the input SetupReps times (plus, for
/// the serve workload, loads it into \p Srv) and reports the median.
Input setUp(const Args &A, Report &Rep, std::optional<Server> *Srv = nullptr) {
  BenchmarkProfile P = profileFor(A);
  std::vector<double> Secs;
  Input In;
  for (unsigned I = 0; I < SetupReps; ++I) {
    if (Srv)
      Srv->reset();
    Clock::time_point T0 = Clock::now();
    Input Fresh = makeInput(P);
    if (Srv) {
      ServerOptions SO;
      SO.Jobs = Jobs;
      Srv->emplace(SO);
      Rep.op((*Srv)->loadImage(Fresh.Img), "server loadImage");
    }
    Secs.push_back(since(T0));
    In = std::move(Fresh);
  }
  std::string Note = "median of " + std::to_string(Secs.size());
  if (A.Trace)
    Rep.extra("setup_s", median(Secs), "s", Note);
  else
    Rep.shared("setup_s", median(Secs), "s", Note);
  return In;
}

//===----------------------------------------------------------------------===//
// acad-analyze
//===----------------------------------------------------------------------===//

void runAnalyze(const Args &A, Report &Rep) {
  Input In = setUp(A, Rep);
  AnalysisResult Ref = analyzeImage(In.Img, CallingConv(), analysisOpts(Jobs));
  printFingerprint(In, Ref);

  // The independent CFG-level reference, once, untimed.
  {
    ThreadPool Pool(Jobs);
    InterprocSummaries Cfg = runCfgTwoPhase(Ref.Prog, Ref.SavedPerRoutine,
                                            &Pool);
    Rep.op(sameSummaries(Cfg, Ref.Summaries),
           "PSG summaries differ from the CfgTwoPhase reference");
  }

  std::vector<double> J4, J1;
  Clock::time_point Start = Clock::now();
  while (since(Start) < A.Seconds || J1.size() < 3) {
    for (unsigned Lanes : {Jobs, 1u}) {
      Clock::time_point T0 = Clock::now();
      AnalysisResult R =
          analyzeImage(In.Img, CallingConv(), analysisOpts(Lanes));
      (Lanes == 1 ? J1 : J4).push_back(since(T0));
      if (A.Corrupt && J4.size() == 1 && J1.empty())
        flipSummaryBit(R);
      Rep.op(sameAnalysis(R, Ref), Lanes == 1
                                       ? "jobs-1 analysis differs"
                                       : "jobs-4 analysis differs");
    }
  }
  Rep.extra("analyze_s", median(J4), "s",
            "median of " + std::to_string(J4.size()));
  Rep.extra("analyze_j1_s", median(J1), "s",
            "median of " + std::to_string(J1.size()));
}

//===----------------------------------------------------------------------===//
// gcc-optimize
//===----------------------------------------------------------------------===//

PipelineOptions pipelineOpts(unsigned Lanes) {
  PipelineOptions O;
  O.Jobs = Lanes;
  return O;
}

void runOptimize(const Args &A, Report &Rep) {
  Input In = setUp(A, Rep);
  AnalysisResult Ref = analyzeImage(In.Img, CallingConv(), analysisOpts(Jobs));
  printFingerprint(In, Ref);

  // Untimed gates: the jobs-1 image every timed run must reproduce, and
  // one self-checking run (CFG two-phase cross-check + lint audit).
  Image Expected = In.Img;
  PipelineStats RefStats =
      optimizeImage(Expected, CallingConv(), pipelineOpts(1));
  Rep.op(RefStats.clean(), "jobs-1 optimize not clean");
  {
    Image Checked = In.Img;
    PipelineOptions O = pipelineOpts(Jobs);
    O.CrossCheck = true;
    O.LintSelfCheck = true;
    PipelineStats S = optimizeImage(Checked, CallingConv(), O);
    Rep.op(S.clean() && S.CrossCheckMismatches == 0 &&
               S.LintRegressions == 0 && Checked == Expected,
           "self-checking optimize found mismatches or regressions");
  }

  std::vector<double> Opt;
  Clock::time_point Start = Clock::now();
  while (since(Start) < A.Seconds || Opt.size() < 3) {
    Image Work = In.Img;
    Clock::time_point T0 = Clock::now();
    PipelineStats S = optimizeImage(Work, CallingConv(), pipelineOpts(Jobs));
    Opt.push_back(since(T0));
    if (A.Corrupt && Opt.size() == 1)
      Work.Code[Work.Code.size() / 2] ^= 1;
    Rep.op(Work == Expected && S.clean() &&
               S.totalDeleted() == RefStats.totalDeleted(),
           "optimized image differs from the jobs-1 image");
  }
  Rep.extra("optimize_s", median(Opt), "s",
            "median of " + std::to_string(Opt.size()));
  Rep.extra("insts_deleted", double(RefStats.totalDeleted()), "count",
            "repeats exactly");
}

//===----------------------------------------------------------------------===//
// gcc-serve
//===----------------------------------------------------------------------===//

/// A closed-loop client of one resident Server: each request is sent
/// when the previous reply arrived.  The stream is seeded: one patch
/// (a one-word edit or a no-op save of one routine), then one read
/// query of each kind.  The proportions are not taken from any recorded
/// editor traffic, so latencies are reported per request kind and never
/// pooled across kinds.
class ServeClient {
public:
  /// \p SliceChance is the probability that a cycle ends with a slice
  /// pair (0: the client sends no slices).
  ServeClient(Server &S, uint64_t Seed, double SliceChance = 0)
      : S(S), Rand(Seed * 0x9e3779b9 + 7), Original(S.image().Code),
        SliceChance(SliceChance) {
    for (const Routine &Rt : S.analysis().Prog.Routines)
      if (!Rt.Name.empty() && !Rt.Quarantined && Rt.End - Rt.Begin >= 4)
        Targets.push_back({Rt.Name, Rt.Begin, Rt.End});
    if (Targets.empty())
      die("no patchable routine in the serve image");
  }

  /// Latencies in ms per request kind ("edit", "save", "analyze",
  /// "explain", "lint", "slice_rebuild", "slice_hit").
  std::map<std::string, std::vector<double>> Ms;

  /// Dirty-frontier outcome of every one-word edit.
  std::vector<IncrementalOutcome> Edits;

  /// Runs one cycle: a patch, then one analyze, one explain and one
  /// whole-program lint.  Patches come in threes: a one-word edit of a
  /// routine, the one-word edit that reverts it, and a no-op save of
  /// another routine, so the image never drifts more than one word from
  /// the generated one.  With probability SliceChance the cycle then
  /// sends a backward and a forward slice from one address.  Every patch
  /// drops the server's dependence-graph cache today, so the first slice
  /// after a patch rebuilds the graph and the second hits it; a server
  /// that kept the graph across a patch would turn rebuilds into hits.
  void cycle(Report &Rep) {
    bool Edit = Cycles % 3 != 2;
    if (Cycles % 3 == 0)
      Edited = &pick();
    const Target &T = Edit ? *Edited : pick();
    std::vector<uint64_t> Code(S.image().Code.begin() + T.Begin,
                               S.image().Code.begin() + T.End);
    if (Cycles % 3 == 0) {
      // Copy one word of the routine over another, differing, one.
      for (unsigned Try = 0; Try < 16; ++Try) {
        uint64_t Dst = Rand.below(Code.size()), Src = Rand.below(Code.size());
        if (Code[Dst] != Code[Src]) {
          Code[Dst] = Code[Src];
          break;
        }
      }
    } else if (Cycles % 3 == 1) {
      Code.assign(Original.begin() + T.Begin, Original.begin() + T.End);
    }
    std::string Line = "patch-routine {\"routine\":\"" + T.Name +
                       "\",\"code\":[";
    for (size_t I = 0; I < Code.size(); ++I)
      Line += (I ? ",\"" : "\"") + std::to_string(Code[I]) + "\"";
    Line += "]}";
    send(Edit ? "edit" : "save", Line, Rep);
    if (Edit)
      Edits.push_back(S.stats().LastPatch);

    send("analyze", "analyze {\"routine\":\"" + pick().Name + "\"}", Rep);
    std::string Reg = regName(unsigned(Rand.below(NumIntRegs)));
    send("explain",
         "explain {\"fact\":\"live\",\"loc\":\"" + Reg + "@entry:" +
             pick().Name + "\"}",
         Rep);
    send("lint", "lint {\"min-severity\":\"warning\"}", Rep);
    if (SliceChance > 0 && Rand.chance(SliceChance)) {
      uint64_t Addr = pickAddr();
      for (const char *Dir : {"backward", "forward"}) {
        uint64_t Built = S.stats().DepGraphBuilds;
        double Lat = request("slice {\"addr\":" + std::to_string(Addr) +
                                 ",\"dir\":\"" + Dir + "\"}",
                             "slice", Rep);
        Ms[S.stats().DepGraphBuilds > Built ? "slice_rebuild" : "slice_hit"]
            .push_back(Lat);
      }
    }
    ++Cycles;
  }

  /// Sends one request that must fail (the --corrupt check).
  void sendBad(Report &Rep) { send("bad", "patch-routine {}", Rep); }

  uint64_t cycles() const { return Cycles; }

private:
  struct Target {
    std::string Name;
    uint64_t Begin, End;
  };

  const Target &pick() { return Targets[Rand.below(Targets.size())]; }

  uint64_t pickAddr() {
    const Target &T = pick();
    return T.Begin + Rand.below(T.End - T.Begin);
  }

  /// Sends one request, gates its reply and returns its latency in ms.
  double request(const std::string &Line, const char *What, Report &Rep) {
    Clock::time_point T0 = Clock::now();
    std::string Reply = S.handleLine(Line);
    double Lat = 1e3 * since(T0);
    Rep.op(Reply.find("\"ok\":true") != std::string::npos &&
               Reply.find("\"degraded\":true") == std::string::npos,
           What);
    return Lat;
  }

  void send(const char *Kind, const std::string &Line, Report &Rep) {
    Ms[Kind].push_back(request(Line, Kind, Rep));
  }

  Server &S;
  Rng Rand;
  const std::vector<uint64_t> Original;
  const double SliceChance;
  std::vector<Target> Targets;
  const Target *Edited = nullptr;
  uint64_t Cycles = 0;
};

/// The resident state must equal a fresh solve of the final image.
void checkResident(const Server &S, Report &Rep) {
  AnalysisResult Fresh =
      analyzeImage(S.image(), CallingConv(), analysisOpts(Jobs));
  SlotFlowResult Slots = solveSlotFlow(Fresh.Prog, Jobs);
  Rep.op(sameSolution(Fresh, S.analysis()) && sameSlots(Slots, S.slotFlow()),
         "resident state differs from a fresh solve of the final image");
}

/// The read queries every cycle sends, one of each.
constexpr const char *ReadKinds[] = {"analyze", "explain", "lint"};

void runServe(const Args &A, Report &Rep) {
  std::optional<Server> Srv;
  Input In = setUp(A, Rep, &Srv);
  AnalysisResult Ref = analyzeImage(In.Img, CallingConv(), analysisOpts(Jobs));
  printFingerprint(In, Ref);

  Clock::time_point Start = Clock::now();
  ServeClient Client(*Srv, A.Seed);
  if (A.Corrupt)
    Client.sendBad(Rep);
  // The process's RSS steps up by about 15 MB at random patches, and a
  // run handles as many patches as the machine's speed allows, so the
  // gated high-water mark is read after a fixed number of cycles, before
  // the first step.  Every run makes at least nine (three saves).
  constexpr uint64_t RssCycles = 6;
  double RssMb = 0;
  while (since(Start) < A.Seconds || Client.Ms["save"].size() < 3) {
    Client.cycle(Rep);
    if (Client.cycles() == RssCycles)
      RssMb = peakRssMb();
  }
  checkResident(*Srv, Rep);
  Rep.shared("peak_rss_mb", RssMb, "MB",
             "after " + std::to_string(RssCycles) + " cycles");
  Rep.extra("peak_rss_end_mb", peakRssMb(), "MB",
            "after all " + std::to_string(Client.cycles()) + " cycles");

  const std::vector<double> &Edit = Client.Ms["edit"];
  Rep.extra("edit_p50_ms", median(Edit), "ms",
            "n=" + std::to_string(Edit.size()));
  Rep.extraTail("edit_tail_ms", Edit);
  const std::vector<double> &Save = Client.Ms["save"];
  Rep.extra("save_p50_ms", median(Save), "ms",
            "n=" + std::to_string(Save.size()));
  for (const char *K : ReadKinds) {
    const std::vector<double> &Q = Client.Ms[K];
    std::string Name = std::string("query.") + K;
    Rep.extra(Name + "_p50_ms", median(Q), "ms",
              "n=" + std::to_string(Q.size()));
    Rep.extraTail(Name + "_tail_ms", Q);
  }
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Seconds of one analysis stage per staged run.
struct StageTimes {
  double Cfg = 0, Init = 0, Build = 0, Phase1 = 0, Phase2 = 0, Extract = 0;
  double sum() const { return Cfg + Init + Build + Phase1 + Phase2 + Extract; }
};

/// Runs analyzeImage's stages one by one, in its order, each inside a
/// span of the active session, and returns the assembled result.
AnalysisResult runStaged(const Image &Img, unsigned Lanes, StageTimes &T) {
  telemetry::Session &Sess = *telemetry::active();
  auto Stage = [&](const char *Name, auto &&Body) {
    uint32_t Id = Sess.beginSpan(Name);
    Body();
    Sess.endSpan(Id);
    return Sess.spanSeconds(Id);
  };
  AnalysisResult R;
  ThreadPool Pool(Lanes);
  T.Cfg = Stage("bench.cfg.build", [&] {
    R.Prog = buildProgram(Img, CallingConv(), &R.Memory, {}, &Pool);
  });
  T.Init = Stage("bench.cfg.init", [&] {
    computeDefUbd(R.Prog, &Pool);
    R.SavedPerRoutine.resize(R.Prog.Routines.size());
    forEachTask(&Pool, R.Prog.Routines.size(), [&](size_t I, unsigned) {
      R.SavedPerRoutine[I] =
          analyzeSaveRestore(R.Prog, R.Prog.Routines[I]).Saved;
    });
  });
  T.Build = Stage("bench.psg.build", [&] {
    R.Psg = buildPsg(R.Prog, {}, &R.Memory, &Pool);
  });
  T.Phase1 = Stage("bench.psg.phase1", [&] {
    R.Phase1Stats = runPhase1(R.Prog, R.Psg, R.SavedPerRoutine, &Pool);
  });
  T.Phase2 = Stage("bench.psg.phase2", [&] {
    R.Phase2Stats = runPhase2(R.Prog, R.Psg, &Pool);
  });
  T.Extract = Stage("bench.psg.extract", [&] {
    R.Summaries = extractSummaries(R.Prog, R.Psg, R.SavedPerRoutine);
  });
  return R;
}

struct SchedShape {
  uint64_t Groups = 0, Levels = 0, Largest = 0;
};

SchedShape shapeOf(const SccSchedule &S) {
  SchedShape Shape;
  Shape.Levels = S.Levels.size();
  for (const std::vector<uint32_t> &M : S.Members)
    if (!M.empty()) {
      ++Shape.Groups;
      Shape.Largest = std::max<uint64_t>(Shape.Largest, M.size());
    }
  return Shape;
}

/// Sum of the durations of every span named \p Name, in seconds.
double spanTotal(const telemetry::Session &Sess, const std::string &Name) {
  uint64_t Ns = 0;
  for (const telemetry::SpanEvent &E : Sess.spans())
    if (E.Name == Name && !E.Open)
      Ns += E.DurNs;
  return double(Ns) * 1e-9;
}

/// The optimizer's layers, from PipelineStats and the RunReport spans of
/// one traced optimizeImage.
void traceOptimize(const Input &In, Report &Rep) {
  telemetry::Session Sess("perfbench-opt");
  telemetry::SessionScope Scope(Sess);
  Image Work = In.Img;
  PipelineStats S = optimizeImage(Work, CallingConv(), pipelineOpts(Jobs));
  Rep.op(S.clean(), "traced optimize not clean");
  Rep.extra("opt.rounds", S.Rounds, "count");
  Rep.extra("opt.analyses", double(Sess.counter("analyze.runs")), "count");
  for (size_t I = 0; I < S.PerRound.size(); ++I) {
    std::string P = "opt.round" + std::to_string(I + 1);
    Rep.extra(P + "_s", S.PerRound[I].Seconds, "s");
    Rep.extra(P + "_changes", double(S.PerRound[I].Changes), "count");
  }
  for (const char *Pass : {"dead_def", "dead_store", "save_restore",
                           "spill_removal", "unreachable"})
    Rep.extra(std::string("opt.pass.") + Pass + "_s",
              spanTotal(Sess, std::string("pass.") + Pass), "s");
  Rep.extra("opt.pass.commit_check_s", spanTotal(Sess, "commit_check"), "s");
  Rep.extra("opt.slotflow_s", spanTotal(Sess, "slice.slotflow"), "s",
            "slot flow inside the optimize loop");
}

/// The chance that a traced serve cycle ends with a slice pair.  A
/// dependence-graph rebuild costs seconds on gcc, so this keeps a few
/// rebuilds, each after a different patch, within the traced budget.
constexpr double SliceChance = 1.0 / 3;

/// The serving layers: dirty frontiers per edit, per-command latency,
/// and the dependence-graph cache.
void traceServe(const Args &A, const Input &In, const AnalysisResult &Ref,
                Report &Rep) {
  ServerOptions SO;
  SO.Jobs = Jobs;
  Server Srv(SO);
  Rep.op(Srv.loadImage(In.Img), "server loadImage");
  ServeClient Client(Srv, A.Seed, SliceChance);
  Clock::time_point Start = Clock::now();
  while (since(Start) < A.Seconds / 2 || Client.Edits.size() < 3 ||
         Client.Ms["slice_hit"].empty())
    Client.cycle(Rep);
  checkResident(Srv, Rep);

  double N = double(Client.Edits.size());
  double Routines = double(Ref.Prog.Routines.size());
  double Struct = 0, P1 = 0, P2 = 0, Slot = 0, Esc = 0, Full = 0;
  for (const IncrementalOutcome &O : Client.Edits) {
    Struct += double(O.StructDirty);
    P1 += double(O.Phase1Dirty);
    P2 += double(O.Phase2Dirty);
    Slot += double(O.SlotPhase1Dirty + O.SlotPhase2Dirty);
    Esc += O.Phase2Escalated;
    Full += O.Full;
  }
  Rep.extra("incr.struct_dirty", Struct / N, "count", "mean per edit");
  Rep.extra("incr.phase1_dirty", P1 / N, "count", "mean per edit");
  Rep.extra("incr.phase2_dirty", P2 / N, "count", "mean per edit");
  Rep.extra("incr.slot_dirty", Slot / N, "count",
            "mean per edit, slot phases 1+2");
  Rep.extra("incr.reuse_ratio", 1.0 - (P1 + P2) / (2.0 * Routines * N),
            "ratio", "1 - re-solved / total, phases 1+2");
  Rep.extra("incr.p2_escalated_frac", Esc / N, "ratio");
  Rep.extra("incr.full_frac", Full / N, "ratio");
  for (const char *K :
       {"analyze", "explain", "lint", "slice_rebuild", "slice_hit"})
    Rep.extra(std::string("query.") + K + "_p50_ms", median(Client.Ms[K]),
              "ms", "n=" + std::to_string(Client.Ms[K].size()));
  const ServeStats &St = Srv.stats();
  double Lookups = double(St.DepGraphHits + St.DepGraphBuilds);
  Rep.extra("serve.depgraph_hit_ratio",
            Lookups ? double(St.DepGraphHits) / Lookups : 0, "ratio",
            std::to_string(St.DepGraphHits) + " hits, " +
                std::to_string(St.DepGraphBuilds) + " builds");

  // One dependence-graph build, inline like the server's.
  SlotFlowResult Slots = solveSlotFlow(Ref.Prog, Jobs);
  double Dep = timeIt([&] {
    DependenceGraph G = buildDepGraph(Ref.Prog, Ref.Summaries, Slots);
    (void)G;
  });
  Rep.extra("slice.depgraph_s", Dep, "s");
}

void runTraced(const Args &A, Report &Rep) {
  Input In = setUp(A, Rep);

  AnalysisResult Ref =
      analyzeImage(In.Img, CallingConv(), analysisOpts(Jobs));
  printFingerprint(In, Ref);

  std::vector<double> Parse, Validate, Plain, Traced, Remainder;
  std::vector<StageTimes> S4, S1;
  double ReportMb = 0, MemPeakMb = 0;
  std::optional<AnalysisResult> Staged;
  Clock::time_point Start = Clock::now();
  double Budget = A.Workload == "acad-analyze" ? A.Seconds : A.Seconds / 2;
  while (since(Start) < Budget || S4.size() < 3) {
    Parse.push_back(1e3 * timeIt([&] {
      Expected<Image> P = loadImage(In.Bytes);
      Rep.op(bool(P), "image parse");
    }));
    Validate.push_back(1e3 * timeIt([&] {
      ValidationReport V = validateImage(In.Img);
      Rep.op(V.clean(), "image validation");
    }));
    {
      Clock::time_point T0 = Clock::now();
      AnalysisResult R =
          analyzeImage(In.Img, CallingConv(), analysisOpts(Jobs));
      Plain.push_back(since(T0));
      MemPeakMb = R.Memory.peakMBytes();
    }

    telemetry::Session Sess("perfbench");
    telemetry::SessionScope Scope(Sess);
    Clock::time_point T0 = Clock::now();
    AnalysisResult Whole =
        analyzeImage(In.Img, CallingConv(), analysisOpts(Jobs));
    Traced.push_back(since(T0));
    if (S4.empty())
      ReportMb = double(telemetry::runReportJson(Sess).size()) / 1e6;

    StageTimes T4, T1;
    Staged = runStaged(In.Img, Jobs, T4);
    if (A.Corrupt && S4.empty())
      flipSummaryBit(*Staged);
    Rep.op(sameAnalysis(*Staged, Whole),
           "staged analysis differs from analyzeImage");
    AnalysisResult Serial = runStaged(In.Img, 1, T1);
    Rep.op(sameAnalysis(Serial, Whole), "jobs-1 staged analysis differs");
    S4.push_back(T4);
    S1.push_back(T1);
    Remainder.push_back(Traced.back() - T4.sum());
  }

  auto Med = [](const std::vector<StageTimes> &V, double StageTimes::*F) {
    std::vector<double> X;
    for (const StageTimes &T : V)
      X.push_back(T.*F);
    return median(X);
  };
  struct {
    const char *Name;
    double StageTimes::*Field;
  } Stages[] = {{"cfg.build", &StageTimes::Cfg},
                {"cfg.init", &StageTimes::Init},
                {"psg.build", &StageTimes::Build},
                {"psg.phase1", &StageTimes::Phase1},
                {"psg.phase2", &StageTimes::Phase2},
                {"psg.extract", &StageTimes::Extract}};
  std::string Note = "jobs 4, median of " + std::to_string(S4.size());
  Rep.shared("binary.parse_ms", median(Parse), "ms");
  Rep.shared("binary.validate_ms", median(Validate), "ms");
  for (auto &St : Stages)
    Rep.shared(std::string(St.Name) + "_s", Med(S4, St.Field), "s", Note);
  for (auto &St : Stages) {
    if (St.Field == &StageTimes::Extract)
      continue;
    double J4 = Med(S4, St.Field);
    Rep.shared(std::string(St.Name) + ".speedup",
               J4 > 0 ? Med(S1, St.Field) / J4 : 0, "x",
               "jobs-1 s / jobs-4 s");
  }
  Rep.shared("analyze.stage_remainder_s", median(Remainder), "s",
             "whole analyzeImage minus the summed stages");

  const AnalysisResult &R = *Staged;
  double Nodes = double(R.Psg.Nodes.size());
  Rep.shared("psg.nodes", Nodes, "count");
  Rep.shared("psg.edges", double(R.Psg.Edges.size()), "count");
  Rep.shared("psg.phase1.pops_per_node",
             double(R.Phase1Stats.NodeEvaluations) / Nodes, "ratio");
  Rep.shared("psg.phase2.pops_per_node",
             double(R.Phase2Stats.NodeEvaluations) / Nodes, "ratio");
  Rep.shared("psg.phase1.edge_visits", double(R.Phase1Stats.EdgeVisits),
             "count");
  Rep.shared("psg.phase2.edge_visits", double(R.Phase2Stats.EdgeVisits),
             "count");

  CallGraph CG = buildCallGraph(R.Prog);
  SchedShape P1 = shapeOf(buildCalleeFirstSchedule(R.Prog, CG));
  SchedShape P2 = shapeOf(buildCallerFirstSchedule(R.Prog, CG));
  Rep.shared("sched.p1.groups", double(P1.Groups), "count");
  Rep.shared("sched.p1.levels", double(P1.Levels), "count");
  Rep.shared("sched.p1.largest_group_routines", double(P1.Largest), "count");
  Rep.shared("sched.p2.largest_group_routines", double(P2.Largest), "count");
  Rep.shared("analyze.mem_peak_mb", MemPeakMb, "MB");

  std::vector<double> Slot;
  for (unsigned I = 0; I < 3; ++I)
    Slot.push_back(timeIt([&] {
      SlotFlowResult F = solveSlotFlow(R.Prog, Jobs);
      (void)F;
    }));
  Rep.shared("slice.slotflow_s", median(Slot), "s", "median of 3");

  Rep.shared("telemetry.overhead_s", median(Traced) - median(Plain), "s",
             "traced minus untraced analyzeImage");
  Rep.shared("telemetry.report_mb", ReportMb, "MB",
             "RunReport of one analyzeImage");

  if (A.Workload == "gcc-optimize")
    traceOptimize(In, Rep);
  else if (A.Workload == "gcc-serve")
    traceServe(A, In, Ref, Rep);

  Rep.extra("peak_rss_mb", peakRssMb(), "MB");
  Rep.printOps();
  Rep.printJson();
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + Flag);
      return Argv[++I];
    };
    if (Flag == "--workload")
      A.Workload = Value();
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value().c_str());
    else if (Flag == "--trace")
      A.Trace = Value() != "0";
    else if (Flag == "--scale")
      A.Scale = std::atof(Value().c_str());
    else if (Flag == "--corrupt")
      A.Corrupt = true;
    else
      die("usage: perfbench --workload acad-analyze|gcc-optimize|gcc-serve "
          "[--seed n] [--seconds s] [--trace 0|1] [--scale f] [--corrupt]");
  }
  if (A.Workload != "acad-analyze" && A.Workload != "gcc-optimize" &&
      A.Workload != "gcc-serve")
    die("unknown workload '" + A.Workload + "'");
  if (A.Scale <= 0 || A.Seconds < 0)
    die("--scale must be positive and --seconds non-negative");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::printf("workload %s seed %" PRIu64 " scale %g jobs %u trace %d\n",
              A.Workload.c_str(), A.Seed, A.Scale, Jobs, int(A.Trace));
  std::printf("machine nproc %u, build %s\n",
              std::thread::hardware_concurrency(), buildInfoLine().c_str());
  Report Rep;
  if (A.Trace) {
    runTraced(A, Rep);
    return 0;
  }
  if (A.Workload == "gcc-serve") {
    runServe(A, Rep);
  } else {
    if (A.Workload == "acad-analyze")
      runAnalyze(A, Rep);
    else
      runOptimize(A, Rep);
    Rep.shared("peak_rss_mb", peakRssMb(), "MB");
  }
  Rep.printOps();
  Rep.printJson();
  return 0;
}
