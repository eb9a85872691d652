//===- serve/Serve.cpp - Resident analysis server -------------------------===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "isa/Registers.h"
#include "lint/Linter.h"
#include "provenance/Witness.h"
#include "slice/Slicer.h"
#include "support/BuildInfo.h"
#include "support/ParseUnsigned.h"
#include "telemetry/Json.h"
#include "telemetry/Prometheus.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#define SPIKE_SERVE_POSIX 1
#endif

using spike::telemetry::JsonValue;
using spike::telemetry::jsonQuote;

namespace spike {

namespace {

/// Read-only commands: evaluated in parallel inside a batch because each
/// reply is a pure function of the resident state.
bool isQueryCommand(const std::string &Cmd) {
  return Cmd == "analyze" || Cmd == "lint" || Cmd == "explain" ||
         Cmd == "slice";
}

std::string u64(uint64_t V) { return std::to_string(V); }

/// Renders a RegSet as a JSON array of register names, ascending.
std::string regArray(const RegSet &S) {
  std::string Out = "[";
  bool First = true;
  for (unsigned R = 0; R < NumIntRegs; ++R) {
    if (!S.contains(R))
      continue;
    if (!First)
      Out += ",";
    Out += jsonQuote(regName(R));
    First = false;
  }
  return Out + "]";
}

std::string addrArray(const std::vector<uint64_t> &Addrs) {
  std::string Out = "[";
  for (size_t I = 0; I < Addrs.size(); ++I) {
    if (I)
      Out += ",";
    Out += u64(Addrs[I]);
  }
  return Out + "]";
}

int32_t findRoutine(const Program &Prog, const std::string &Name) {
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
    if (Prog.Routines[R].Name == Name)
      return int32_t(R);
  return -1;
}

/// Steady-clock nanoseconds; called only when the server observes
/// requests, so an unobserved server takes no timestamps at all.
uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

} // namespace

/// One parsed protocol line.
struct Server::Request {
  uint64_t Seq = 0;
  std::string Cmd;
  JsonValue Args; ///< Kind Null when the line carried no JSON.
  std::string ParseError;
};

/// One reply plus the accounting flags the batch loop aggregates after
/// the parallel join (query handlers never touch ServeStats directly).
struct Server::Reply {
  std::string Text;
  bool IsError = false;
  bool Degraded = false;
  bool DepBuilt = false;
  bool DepHit = false;

  // Observability accounting (read only when the observer is enabled).
  bool ProtocolError = false;            ///< Malformed line / unknown command.
  const char *DegradeReason = nullptr;   ///< Static verdict word, or null.
  bool HasPatch = false;                 ///< Frontier below is meaningful.
  IncrementalOutcome Frontier;           ///< The patch's dirty frontier.
  uint64_t QueueNs = 0;                  ///< Arrival to execution start.
  uint64_t ExecNs = 0;                   ///< Execution start to reply done.
};

// These helpers need Request's definition, so they live below it.
namespace {

std::string replyHead(const Server::Request &Req, bool Ok) {
  std::string Head = "{\"cmd\":";
  Head += jsonQuote(Req.Cmd.empty() ? "?" : Req.Cmd);
  Head += ",\"seq\":";
  Head += u64(Req.Seq);
  Head += Ok ? ",\"ok\":true" : ",\"ok\":false";
  return Head;
}

Server::Reply errorReply(const Server::Request &Req, const std::string &Msg) {
  Server::Reply R;
  R.IsError = true;
  R.Text = replyHead(Req, false) + ",\"error\":" + jsonQuote(Msg) + "}";
  return R;
}

/// The `"degraded":true,"note":...` tail of a reply whose budget blew.
std::string blownNote(const BudgetBlownError &E) {
  return ",\"degraded\":true,\"note\":" +
         jsonQuote(std::string("!! DEGRADED: budget blown (") +
                   budgetVerdictName(E.verdict()) + ") in " + E.phase());
}

Server::Reply degradedError(const Server::Request &Req,
                            const BudgetBlownError &E) {
  Server::Reply R;
  R.IsError = true;
  R.Degraded = true;
  R.DegradeReason = budgetVerdictName(E.verdict());
  R.Text = replyHead(Req, false) + blownNote(E) + "}";
  return R;
}

/// The note of a reply whose analysis degraded \p Names.
std::string degradedNote(const std::vector<std::string> &Names) {
  std::string Joined;
  for (const std::string &N : Names)
    Joined += (Joined.empty() ? "" : ", ") + N;
  return "!! DEGRADED: budget degraded " +
         (Joined.empty() ? std::string("(no routines)") : Joined);
}

} // namespace

Server::Server(ServerOptions Opts_)
    : Opts(std::move(Opts_)), Pool(Opts.Jobs ? Opts.Jobs : 1) {
  if (Opts.Observe || !Opts.AccessLogPath.empty() || Opts.SlowMs >= 0) {
    if (Obs.enable(Opts.AccessLogPath, Opts.SlowMs, Pool.jobs(),
                   &StartupError)) {
      // The resident fallback session: captures hot-spot attribution and
      // serve.* counters whenever the embedding tool has no session of
      // its own active, so `stats` and `metrics` always have substance.
      ObsSession.emplace("spike-serve");
    }
  }
}

Server::~Server() = default;

Expected<GovernedAnalysis> Server::analyzeFresh(const Image &NewImg) const {
  AnalysisOptions AOpts;
  AOpts.Jobs = Opts.Jobs;
  return analyzeImageGoverned(NewImg, Opts.Conv, AOpts, Opts.Budget);
}

void Server::installFresh(Image NewImg, AnalysisResult NewA) {
  A = std::move(NewA);
  replaceImage(std::move(NewImg));
  Slots.reset();
  Deps.reset();
  Loaded = true;
  ++St.Loads;
}

void Server::replaceImage(Image NewImg) {
  Img = std::move(NewImg);
  // The resident program borrows the words of the image it was analyzed
  // from: view the resident copy's.
  A.Prog.Code = Img.Code;
}

bool Server::loadImage(Image NewImg, std::string *Error) {
  try {
    Expected<GovernedAnalysis> G = analyzeFresh(NewImg);
    if (!G) {
      if (Error)
        *Error = G.error().str();
      return false;
    }
    installFresh(std::move(NewImg), std::move(G->Result));
    return true;
  } catch (const std::exception &E) {
    if (Error)
      *Error = E.what();
    return false;
  }
}

Server::Request Server::parseRequest(const std::string &Line,
                                     uint64_t Seq) const {
  Request Req;
  Req.Seq = Seq;
  size_t B = Line.find_first_not_of(" \t\r");
  if (B == std::string::npos) {
    Req.ParseError = "empty line";
    return Req;
  }
  size_t E = Line.find_first_of(" \t", B);
  Req.Cmd = Line.substr(B, E == std::string::npos ? std::string::npos : E - B);
  if (!Req.Cmd.empty() && Req.Cmd.back() == '\r')
    Req.Cmd.pop_back();
  if (E == std::string::npos)
    return Req;
  size_t ArgB = Line.find_first_not_of(" \t", E);
  if (ArgB == std::string::npos)
    return Req;
  std::string ArgText = Line.substr(ArgB);
  while (!ArgText.empty() &&
         (ArgText.back() == '\r' || ArgText.back() == ' ' ||
          ArgText.back() == '\t'))
    ArgText.pop_back();
  if (ArgText.empty())
    return Req;
  std::string JsonErr;
  std::optional<JsonValue> Parsed = telemetry::parseJson(ArgText, &JsonErr);
  if (!Parsed) {
    Req.ParseError = "bad JSON arguments: " + JsonErr;
    return Req;
  }
  if (!Parsed->isObject()) {
    Req.ParseError = "arguments must be a JSON object";
    return Req;
  }
  Req.Args = std::move(*Parsed);
  return Req;
}

Server::Reply Server::dispatch(const Request &Req) {
  try {
    if (!Req.ParseError.empty()) {
      Reply R = errorReply(Req, Req.ParseError);
      R.ProtocolError = true;
      return R;
    }
    if (Req.Cmd == "load")
      return handleLoad(Req);
    if (Req.Cmd == "analyze")
      return handleAnalyze(Req);
    if (Req.Cmd == "lint")
      return handleLint(Req);
    if (Req.Cmd == "explain")
      return handleExplain(Req);
    if (Req.Cmd == "slice")
      return handleSlice(Req);
    if (Req.Cmd == "patch-routine")
      return handlePatch(Req);
    if (Req.Cmd == "stats")
      return handleStats(Req);
    if (Req.Cmd == "metrics")
      return handleMetrics(Req);
    if (Req.Cmd == "shutdown") {
      Exited = true;
      Reply R;
      R.Text = replyHead(Req, true) + "}";
      return R;
    }
    Reply R = errorReply(Req, "unknown command '" + Req.Cmd + "'");
    R.ProtocolError = true;
    return R;
  } catch (const BudgetBlownError &E) {
    return degradedError(Req, E);
  } catch (const std::exception &E) {
    return errorReply(Req, std::string("internal error: ") + E.what());
  }
}

Server::Reply Server::handleLoad(const Request &Req) {
  std::string Path = Req.Args.stringOr("path", "");
  if (Path.empty())
    return errorReply(Req, "load needs {\"path\": \"<image.spkx>\"}");
  std::string Error;
  std::optional<Image> NewImg = readImageFile(Path, &Error);
  if (!NewImg)
    return errorReply(Req, Error);

  Expected<GovernedAnalysis> G = analyzeFresh(*NewImg);
  if (!G)
    return errorReply(Req, G.error().str());
  installFresh(std::move(*NewImg), std::move(G->Result));

  uint64_t Quarantined = 0;
  for (const Routine &R : A.Prog.Routines)
    Quarantined += R.Quarantined;
  Reply R;
  R.Text = replyHead(Req, true) + ",\"routines\":" +
           u64(A.Prog.Routines.size()) + ",\"quarantined\":" +
           u64(Quarantined);
  if (!G->DegradedRoutines.empty()) {
    R.Degraded = true;
    R.DegradeReason = "budget";
    R.Text += ",\"degraded\":true,\"note\":" +
              jsonQuote(degradedNote(G->DegradedRoutines));
  }
  R.Text += "}";
  return R;
}

Server::Reply Server::handleAnalyze(const Request &Req) const {
  if (!Loaded)
    return errorReply(Req, "no image loaded");
  std::string Name = Req.Args.stringOr("routine", "");
  if (Name.empty()) {
    uint64_t Quarantined = 0, AddressTaken = 0;
    for (const Routine &R : A.Prog.Routines) {
      Quarantined += R.Quarantined;
      AddressTaken += R.AddressTaken;
    }
    Reply R;
    R.Text = replyHead(Req, true) +
             ",\"routines\":" + u64(A.Prog.Routines.size()) +
             ",\"quarantined\":" + u64(Quarantined) +
             ",\"address_taken\":" + u64(AddressTaken) +
             ",\"psg_nodes\":" + u64(A.Psg.Nodes.size()) +
             ",\"phase1_evals\":" + u64(A.Phase1Stats.NodeEvaluations) +
             ",\"phase2_evals\":" + u64(A.Phase2Stats.NodeEvaluations) + "}";
    return R;
  }

  int32_t RIdx = findRoutine(A.Prog, Name);
  if (RIdx < 0)
    return errorReply(Req, "no routine named '" + Name + "'");
  const Routine &Rt = A.Prog.Routines[uint32_t(RIdx)];
  const RoutineResults &Res = A.Summaries.Routines[uint32_t(RIdx)];

  std::string Entries = "[";
  for (size_t I = 0; I < Res.EntrySummaries.size(); ++I) {
    if (I)
      Entries += ",";
    const CallSummary &S = Res.EntrySummaries[I];
    Entries += "{\"address\":" + u64(Rt.EntryAddresses[I]) +
               ",\"used\":" + regArray(S.Used) +
               ",\"defined\":" + regArray(S.Defined) +
               ",\"killed\":" + regArray(S.Killed) +
               ",\"live_in\":" + regArray(Res.LiveAtEntry[I]) + "}";
  }
  Entries += "]";
  std::string Exits = "[";
  for (size_t I = 0; I < Res.LiveAtExit.size(); ++I) {
    if (I)
      Exits += ",";
    Exits += "{\"live_out\":" + regArray(Res.LiveAtExit[I]) + "}";
  }
  Exits += "]";

  Reply R;
  R.Text = replyHead(Req, true) + ",\"routine\":" + jsonQuote(Rt.Name) +
           ",\"begin\":" + u64(Rt.Begin) + ",\"end\":" + u64(Rt.End) +
           std::string(",\"quarantined\":") +
           (Rt.Quarantined ? "true" : "false") +
           std::string(",\"address_taken\":") +
           (Rt.AddressTaken ? "true" : "false") + ",\"entries\":" + Entries +
           ",\"exits\":" + Exits + "}";
  return R;
}

Server::Reply Server::handleLint(const Request &Req) const {
  if (!Loaded)
    return errorReply(Req, "no image loaded");
  LintOptions LOpts;
  LOpts.Jobs = 1; // Parallelism comes from the query batch, not the rules.
  std::string MinSev = Req.Args.stringOr("min-severity", "");
  if (MinSev == "warning")
    LOpts.MinSeverity = Severity::Warning;
  else if (MinSev == "error")
    LOpts.MinSeverity = Severity::Error;
  else if (!MinSev.empty() && MinSev != "note")
    return errorReply(Req, "min-severity must be note|warning|error");
  if (const JsonValue *V = Req.Args.find("verify"); V && V->isBool())
    LOpts.Verify = V->B;

  LintResult Result = lintAnalysis(Img, A, LOpts);
  std::string Diags = "[";
  for (size_t I = 0; I < Result.Diags.size(); ++I) {
    if (I)
      Diags += ",";
    Diags += jsonQuote(Result.Diags[I].str());
  }
  Diags += "]";
  Reply R;
  R.Text = replyHead(Req, true) + ",\"count\":" + u64(Result.Diags.size()) +
           ",\"errors\":" + u64(Result.count(Severity::Error)) +
           ",\"warnings\":" + u64(Result.count(Severity::Warning)) +
           ",\"diags\":" + Diags + "}";
  return R;
}

Server::Reply Server::handleExplain(const Request &Req) const {
  if (!Loaded)
    return errorReply(Req, "no image loaded");
  std::string Fact = Req.Args.stringOr("fact", "");

  if (Fact == "dead") {
    const JsonValue *AddrV = Req.Args.find("addr");
    std::optional<uint64_t> Addr = AddrV ? AddrV->exactUint() : std::nullopt;
    if (!Addr)
      return errorReply(Req, "explain dead needs an integer \"addr\" in "
                             "[0, 2^53]");
    int RegArg = -1;
    std::string RegStr = Req.Args.stringOr("reg", "");
    if (!RegStr.empty()) {
      unsigned Reg = parseRegName(RegStr.c_str());
      if (Reg >= NumIntRegs)
        return errorReply(Req, "unknown register '" + RegStr + "'");
      RegArg = int(Reg);
    }
    DeadDefExplanation Ex = explainDeadDef(A, *Addr, RegArg);
    Reply R;
    R.Text = replyHead(Req, true) +
             std::string(",\"found\":") + (Ex.Found ? "true" : "false") +
             std::string(",\"dead\":") + (Ex.Dead ? "true" : "false") +
             ",\"reg\":" + jsonQuote(Ex.Found ? regName(Ex.Reg) : "") +
             ",\"text\":" + jsonQuote(Ex.Text) + "}";
    return R;
  }

  ProvFact PF;
  if (Fact == "live")
    PF = ProvFact::Live;
  else if (Fact == "may-use")
    PF = ProvFact::MayUse;
  else if (Fact == "may-def")
    PF = ProvFact::MayDef;
  else
    return errorReply(Req, "fact must be live|may-use|may-def|dead");

  std::string Loc = Req.Args.stringOr("loc", "");
  if (Loc.empty())
    return errorReply(Req, "explain needs {\"loc\": \"<reg>@<where>\"}");
  unsigned Reg = NumIntRegs;
  uint32_t NodeId = 0;
  std::string Where, Err;
  if (!parseWitnessOperand(Loc, Reg, Where, Err) ||
      !resolveWitnessNode(A, Where, NodeId, Err))
    return errorReply(Req, Err);

  Witness W = buildWitness(A, PF, NodeId, Reg);
  if (W.Holds && !replayWitness(A, W, &Err))
    return errorReply(Req, "witness replay failed: " + Err);
  Reply R;
  R.Text = replyHead(Req, true) + std::string(",\"holds\":") +
           (W.Holds ? "true" : "false") +
           ",\"steps\":" + u64(W.Steps.size()) +
           ",\"witness\":" + jsonQuote(renderWitness(A, W)) + "}";
  return R;
}

const SlotFlowResult &Server::slotsLocked(const ResourceGovernor *Gov) const {
  // Inline solve (no pool): slice queries already run inside pool tasks,
  // and the facts are identical at every pool size.
  if (!Slots)
    Slots = solveSlotFlow(A.Prog, nullptr, Gov);
  return *Slots;
}

const SlotFlowResult &Server::slotFlow() const {
  std::lock_guard<std::mutex> Lock(DepsMu);
  return slotsLocked(nullptr);
}

const DependenceGraph &Server::depGraph(bool &WasHit) {
  std::lock_guard<std::mutex> Lock(DepsMu);
  WasHit = Deps.has_value();
  if (Deps)
    return *Deps;
  // One governor covers both inline builds of the request.
  std::optional<ResourceGovernor> Gov;
  if (Opts.Budget.any()) {
    Gov.emplace(Opts.Budget, &A.Memory, nullptr);
    Gov->arm();
  }
  const ResourceGovernor *G = Gov ? &*Gov : nullptr;
  Deps = buildDepGraph(A.Prog, A.Summaries, slotsLocked(G), nullptr, G);
  return *Deps;
}

Server::Reply Server::handleSlice(const Request &Req) {
  if (!Loaded)
    return errorReply(Req, "no image loaded");
  const JsonValue *AddrV = Req.Args.find("addr");
  std::optional<uint64_t> AddrArg = AddrV ? AddrV->exactUint() : std::nullopt;
  if (!AddrArg)
    return errorReply(Req, "slice needs an integer \"addr\" in [0, 2^53]");
  uint64_t Addr = *AddrArg;
  std::string Dir = Req.Args.stringOr("dir", "backward");
  if (Dir != "backward" && Dir != "forward")
    return errorReply(Req, "dir must be backward|forward");
  if (Addr >= A.Prog.numInsts())
    return errorReply(Req, "address " + u64(Addr) + " out of range (have " +
                               u64(A.Prog.numInsts()) + " words)");

  bool WasHit = false;
  const DependenceGraph &Graph = depGraph(WasHit);
  std::vector<uint64_t> Addrs = Dir == "backward"
                                    ? backwardSlice(Graph, Addr)
                                    : forwardSlice(Graph, Addr);
  Reply R;
  R.DepHit = WasHit;
  R.DepBuilt = !WasHit;
  R.Text = replyHead(Req, true) + ",\"dir\":" + jsonQuote(Dir) +
           ",\"count\":" + u64(Addrs.size()) +
           ",\"addresses\":" + addrArray(Addrs) + "}";
  return R;
}

Server::Reply Server::handlePatch(const Request &Req) {
  if (!Loaded)
    return errorReply(Req, "no image loaded");
  std::string Name = Req.Args.stringOr("routine", "");
  if (Name.empty())
    return errorReply(Req, "patch-routine needs {\"routine\": \"name\", "
                           "\"code\": [words]}");
  int32_t RIdx = findRoutine(A.Prog, Name);
  if (RIdx < 0)
    return errorReply(Req, "no routine named '" + Name + "'");
  const Routine &Rt = A.Prog.Routines[uint32_t(RIdx)];

  const JsonValue *CodeV = Req.Args.findArray("code");
  if (!CodeV)
    return errorReply(Req, "patch-routine needs a \"code\" array");
  uint64_t Want = Rt.End - Rt.Begin;
  if (CodeV->Items.size() != Want)
    return errorReply(Req, "routine '" + Name + "' spans " + u64(Want) +
                               " word(s); got " + u64(CodeV->Items.size()) +
                               " (patches keep the routine partition)");
  // Instruction words use all 64 bits (the opcode sits at bit 56), which
  // exceeds JSON number precision — words may therefore also be sent as
  // decimal or 0x-prefixed strings, and numbers past 2^53 are rejected
  // rather than silently rounded.
  std::vector<uint64_t> Words;
  Words.reserve(CodeV->Items.size());
  for (const JsonValue &W : CodeV->Items) {
    if (W.isNumber()) {
      std::optional<uint64_t> Word = W.exactUint();
      if (!Word)
        return errorReply(Req, "\"code\" number not exactly representable; "
                               "send words above 2^53 as strings");
      Words.push_back(*Word);
    } else if (W.isString() && !W.Str.empty()) {
      std::optional<uint64_t> Word = parseUnsignedStrict(W.Str, true);
      if (!Word)
        return errorReply(Req, "bad \"code\" word '" + W.Str + "'");
      Words.push_back(*Word);
    } else {
      return errorReply(Req, "\"code\" entries must be numbers or "
                             "decimal/hex strings");
    }
  }

  AnalysisOptions AOpts;
  ResourceGovernor Gov(Opts.Budget, nullptr, nullptr);
  if (Opts.Budget.any())
    AOpts.Governor = &Gov;

  IncrementalOutcome Out;
  bool Degraded = false;
  const char *DegradeReason = nullptr;
  std::string DegradedNote;
  try {
    Out = reanalyzeIncremental(Img, uint32_t(RIdx), Words, AOpts, A, Pool);
  } catch (const BudgetBlownError &E) {
    // The budget blew mid-patch; the engine rolled the resident image and
    // result back.  Fall back to the governed degrade ladder so the patch
    // still lands with sound (degraded) summaries, per the `!! DEGRADED`
    // reply contract.
    Image NewImg = Img;
    std::copy(Words.begin(), Words.end(), NewImg.Code.begin() + Rt.Begin);
    Expected<GovernedAnalysis> G = analyzeFresh(NewImg);
    if (!G) {
      Reply R = errorReply(
          Req, "patch rejected, still serving the previous version: " +
                   G.error().str());
      R.Degraded = true;
      R.DegradeReason = budgetVerdictName(E.verdict());
      R.Text.pop_back(); // Replace the closing brace with the banner note.
      R.Text += blownNote(E) + "}";
      return R;
    }
    A = std::move(G->Result);
    replaceImage(std::move(NewImg));
    Out = IncrementalOutcome();
    Out.Full = true;
    Out.StructDirty = Out.Phase1Dirty = Out.Phase2Dirty =
        A.Prog.Routines.size();
    Degraded = true;
    DegradeReason = budgetVerdictName(E.verdict());
    DegradedNote = degradedNote(G->DegradedRoutines);
  }

  // Slot facts and the dependence graph are functions of the resident
  // analysis alone.  An all-clean patch (the no-op save) returns before
  // touching it, so both stay valid.
  if (Out.Full || Out.StructDirty != 0 || Degraded) {
    std::lock_guard<std::mutex> Lock(DepsMu);
    Slots.reset();
    Deps.reset();
  }
  ++St.Patches;
  St.PatchFullSolves += Out.Full;
  St.LastPatch = Out;

  Reply R;
  R.Degraded = Degraded;
  R.DegradeReason = DegradeReason;
  R.HasPatch = true;
  R.Frontier = Out;
  R.Text = replyHead(Req, true) + ",\"routine\":" + jsonQuote(Name) +
           std::string(",\"full\":") + (Out.Full ? "true" : "false") +
           std::string(",\"phase2_escalated\":") +
           (Out.Phase2Escalated ? "true" : "false") +
           ",\"struct_dirty\":" + u64(Out.StructDirty) +
           ",\"phase1_dirty\":" + u64(Out.Phase1Dirty) +
           ",\"phase2_dirty\":" + u64(Out.Phase2Dirty);
  if (Degraded)
    R.Text += ",\"degraded\":true,\"note\":" + jsonQuote(DegradedNote);
  R.Text += "}";
  return R;
}

Server::Reply Server::handleStats(const Request &Req) const {
  Reply R;
  R.Text = replyHead(Req, true) + std::string(",\"loaded\":") +
           (Loaded ? "true" : "false") + ",\"jobs\":" + u64(Pool.jobs()) +
           ",\"routines\":" + u64(Loaded ? A.Prog.Routines.size() : 0) +
           ",\"analysis_bytes\":" + u64(A.Memory.peakBytes()) +
           ",\"queries\":" + u64(St.Queries) + ",\"loads\":" + u64(St.Loads) +
           ",\"patches\":" + u64(St.Patches) +
           ",\"patch_full_solves\":" + u64(St.PatchFullSolves) +
           ",\"depgraph_builds\":" + u64(St.DepGraphBuilds) +
           ",\"depgraph_hits\":" + u64(St.DepGraphHits) +
           ",\"degraded_replies\":" + u64(St.DegradedReplies) +
           ",\"errors\":" + u64(St.Errors) +
           ",\"protocol_errors\":" + u64(St.ProtocolErrors) +
           ",\"last_patch\":{" +
           "\"full\":" + (St.LastPatch.Full ? "true" : "false") +
           ",\"struct_dirty\":" + u64(St.LastPatch.StructDirty) +
           ",\"phase1_dirty\":" + u64(St.LastPatch.Phase1Dirty) +
           ",\"phase2_dirty\":" + u64(St.LastPatch.Phase2Dirty) + "}";
  // The enriched-stats section: per-command latency / queue-wait
  // percentiles.  Present only when observing, so unobserved replies are
  // byte-for-byte what they were before observability existed.
  if (Obs.enabled())
    R.Text += "," + Obs.statsJson();
  R.Text += "}";
  return R;
}

Server::Reply Server::handleMetrics(const Request &Req) const {
  telemetry::PromWriter W;

  // Build provenance first, conventional `<name>_info` gauge.
  const BuildInfo &B = buildInfo();
  W.info("spike_build_info", {{"git", B.GitDescribe},
                              {"compiler", B.Compiler},
                              {"type", B.BuildType},
                              {"sanitizer", B.Sanitizer}});

  // The authoritative server counters (ServeStats is the source of
  // truth; session counters below only mirror a subset of these).
  W.gauge("spike_serve_loaded", Loaded ? 1 : 0);
  W.gauge("spike_serve_jobs", Pool.jobs());
  W.gauge("spike_serve_routines", Loaded ? A.Prog.Routines.size() : 0);
  W.counter("spike_serve_queries_total", St.Queries);
  W.counter("spike_serve_loads_total", St.Loads);
  W.counter("spike_serve_patches_total", St.Patches);
  W.counter("spike_serve_patch_full_solves_total", St.PatchFullSolves);
  W.counter("spike_serve_depgraph_builds_total", St.DepGraphBuilds);
  W.counter("spike_serve_depgraph_hits_total", St.DepGraphHits);
  W.counter("spike_serve_degraded_replies_total", St.DegradedReplies);
  W.counter("spike_serve_errors_total", St.Errors);
  W.counter("spike_serve_protocol_errors_total", St.ProtocolErrors);

  // Per-command request distributions, command baked into the metric
  // name (one histogram family per command keeps the writer label-free).
  if (Obs.enabled()) {
    for (unsigned I = 0; I < serve::NumCommands; ++I) {
      serve::Command C = serve::Command(I);
      if (Obs.latency(C).empty())
        continue;
      std::string Cmd = telemetry::promName(serve::commandName(C));
      W.histogram("spike_serve_latency_" + Cmd + "_ns", Obs.latency(C));
      W.histogram("spike_serve_queue_wait_" + Cmd + "_ns", Obs.queueWait(C));
    }
  }

  // Everything the live telemetry session accumulated — analysis-phase
  // counters, solver histograms, hot-spot attribution.  The serve.*
  // mirrors are skipped: the authoritative values already went out above
  // and the per-command histograms have their own families.
  const telemetry::Session *Sess = telemetry::active();
  if (!Sess && ObsSession)
    Sess = &*ObsSession;
  if (Sess)
    telemetry::renderSessionProm(W, *Sess, "serve.");

  Reply R;
  R.Text = replyHead(Req, true) +
           ",\"content_type\":" + jsonQuote("text/plain; version=0.0.4") +
           ",\"body\":" + jsonQuote(W.str()) + "}";
  return R;
}

std::string Server::handleLine(const std::string &Line) {
  return handleBatch({Line}).front();
}

std::vector<std::string>
Server::handleBatch(const std::vector<std::string> &Lines) {
  std::vector<std::string> Out(Lines.size());

  // When observing without an embedder session, install the resident
  // fallback session for the whole batch: serve.* counters, hot-spot
  // attribution, and the per-command histogram mirrors all land there,
  // so `metrics` has live substance between tool restarts.  Nested
  // scopes are fine — SessionScope restores the previous active session.
  std::optional<telemetry::SessionScope> ObsScope;
  if (Obs.enabled() && ObsSession && !telemetry::active())
    ObsScope.emplace(*ObsSession);
  telemetry::Session *Sess = telemetry::active();

  const bool Observing = Obs.enabled();
  const uint64_t Arrival = Observing ? nowNs() : 0;

  // Parse every line up front, in input order (sequence numbers are
  // assigned by arrival, not completion).
  std::vector<Request> Reqs;
  Reqs.reserve(Lines.size());
  for (const std::string &Line : Lines)
    Reqs.push_back(parseRequest(Line, NextSeq++));

  // Builds one request record from an accounted reply and hands it to
  // the observer with the hot spots its dispatch charged to the session.
  // Called serially, in arrival order, after any parallel join — the
  // determinism contract the byte-identity tests rely on.
  auto ObserveRequest = [&](size_t Idx, const Reply &R, size_t SpotsBefore) {
    serve::RequestRecord Rec;
    Rec.Seq = Reqs[Idx].Seq;
    Rec.Cmd = serve::commandFor(Reqs[Idx].Cmd);
    Rec.Ok = !R.IsError;
    Rec.ProtocolError = R.ProtocolError;
    Rec.Degraded = R.Degraded;
    Rec.DegradeReason = R.DegradeReason;
    Rec.BytesIn = Lines[Idx].size();
    Rec.BytesOut = Out[Idx].size();
    Rec.QueueNs = R.QueueNs;
    Rec.ExecNs = R.ExecNs;
    Rec.Slow = Obs.slow(R.ExecNs);
    Rec.HasPatch = R.HasPatch;
    Rec.Patch = R.Frontier;
    static const std::vector<telemetry::HotSpotRecord> NoSpots;
    if (Rec.Slow && Sess && SpotsBefore < Sess->hotspots().size()) {
      std::vector<telemetry::HotSpotRecord> Spots(
          Sess->hotspots().begin() + SpotsBefore, Sess->hotspots().end());
      Obs.observe(Rec, Reqs[Idx].Cmd, Spots);
    } else {
      Obs.observe(Rec, Reqs[Idx].Cmd, NoSpots);
    }
  };

  size_t I = 0;
  while (I < Lines.size()) {
    bool Query = Reqs[I].ParseError.empty() && isQueryCommand(Reqs[I].Cmd);
    if (!Query) {
      // Barrier command: runs serially with the telemetry session active.
      // Hot spots recorded during dispatch (a patch's re-solve, a load's
      // fresh analysis) belong to this request: bracket the session's
      // hot-spot vector and attach the delta if the request is slow.
      size_t SpotsBefore = Sess ? Sess->hotspots().size() : 0;
      uint64_t T0 = Observing ? nowNs() : 0;
      Reply R = dispatch(Reqs[I]);
      if (Observing) {
        R.QueueNs = T0 - Arrival;
        R.ExecNs = nowNs() - T0;
      }
      St.Errors += R.IsError;
      St.DegradedReplies += R.Degraded;
      St.ProtocolErrors += R.ProtocolError;
      if (R.IsError)
        telemetry::count("serve.errors");
      if (R.ProtocolError)
        telemetry::count("serve.protocol_errors");
      if (R.Degraded)
        telemetry::count("serve.degraded_replies");
      if (Reqs[I].Cmd == "load" && !R.IsError)
        telemetry::count("serve.loads");
      if (Reqs[I].Cmd == "patch-routine" && !R.IsError) {
        telemetry::count("serve.patches");
        telemetry::count("serve.patch.struct_dirty", St.LastPatch.StructDirty);
        telemetry::count("serve.patch.phase1_dirty", St.LastPatch.Phase1Dirty);
        telemetry::count("serve.patch.phase2_dirty", St.LastPatch.Phase2Dirty);
        if (St.LastPatch.Full)
          telemetry::count("serve.patch.full_solves");
      }
      Out[I] = std::move(R.Text);
      if (Observing)
        ObserveRequest(I, R, SpotsBefore);
      ++I;
      continue;
    }

    // Maximal run of read-only queries: fan out on the pool.  The
    // telemetry session is paused unconditionally (even at Jobs == 1) so
    // counters do not depend on the batch shape or job count; serve.*
    // counts are emitted after the join instead.  Under an embedder's
    // session (spike-serve --metrics), each query records into a session
    // of its own whose spans alone join the embedder's after the join,
    // in arrival order and each on its own trace row, so a RunReport's
    // phases show what each query ran (`lint/lint.dead-def`,
    // `slice.slotflow`, ...).  The resident
    // fallback session renders no spans and collects none.  Each task
    // takes its own execute timestamps — queue wait is time spent parked
    // behind the batch (and behind busier lanes) before its dispatch
    // began.
    size_t J = I;
    while (J < Lines.size() && Reqs[J].ParseError.empty() &&
           isQueryCommand(Reqs[J].Cmd))
      ++J;
    std::vector<Reply> Replies(J - I);
    std::vector<std::unique_ptr<telemetry::Session>> QuerySpans;
    if (Sess && !ObsScope)
      for (size_t K = I; K < J; ++K)
        QuerySpans.push_back(std::make_unique<telemetry::Session>("query"));
    {
      telemetry::SessionPause Paused;
      forEachTask(&Pool, J - I, [&](size_t K, unsigned) {
        std::optional<telemetry::SessionScope> Spans;
        if (!QuerySpans.empty())
          Spans.emplace(*QuerySpans[K]);
        if (Observing) {
          uint64_t T0 = nowNs();
          Replies[K] = dispatch(Reqs[I + K]);
          Replies[K].QueueNs = T0 - Arrival;
          Replies[K].ExecNs = nowNs() - T0;
        } else {
          Replies[K] = dispatch(Reqs[I + K]);
        }
      });
    }
    for (size_t K = 0; K < QuerySpans.size(); ++K)
      Sess->adoptSpans(*QuerySpans[K], uint32_t(K + 1));
    uint64_t Errors = 0, Degraded = 0, DepBuilds = 0, DepHits = 0;
    for (size_t K = 0; K < Replies.size(); ++K) {
      Errors += Replies[K].IsError;
      Degraded += Replies[K].Degraded;
      DepBuilds += Replies[K].DepBuilt;
      DepHits += Replies[K].DepHit;
      Out[I + K] = std::move(Replies[K].Text);
    }
    St.Queries += J - I;
    St.Errors += Errors;
    St.DegradedReplies += Degraded;
    St.DepGraphBuilds += DepBuilds;
    St.DepGraphHits += DepHits;
    telemetry::count("serve.queries", J - I);
    if (Errors)
      telemetry::count("serve.errors", Errors);
    if (Degraded)
      telemetry::count("serve.degraded_replies", Degraded);
    if (DepBuilds)
      telemetry::count("serve.depgraph.builds", DepBuilds);
    if (DepHits)
      telemetry::count("serve.depgraph.hits", DepHits);
    if (Observing) {
      // Observe the whole run serially, in arrival order, after the
      // join (and after SessionPause ended, so the histogram mirrors
      // reach the session).  Queries never record hot spots — they only
      // read resident state — so the bracket is empty by construction.
      size_t SpotsAt = Sess ? Sess->hotspots().size() : 0;
      for (size_t K = 0; K < Replies.size(); ++K)
        ObserveRequest(I + K, Replies[K], SpotsAt);
    }
    I = J;
  }
  return Out;
}

#ifdef SPIKE_SERVE_POSIX

int serveStream(Server &S, FILE *In, FILE *Out) {
  int Fd = fileno(In);
  std::string Buf;
  std::vector<std::string> Lines;
  char Chunk[4096];
  bool Eof = false;
  while (!Eof && !S.exited()) {
    // Block for input, then greedily drain whatever else is already
    // buffered so pipelined queries land in one batch.
    ssize_t N = ::read(Fd, Chunk, sizeof Chunk);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      Eof = true;
    else
      Buf.append(Chunk, size_t(N));
    while (!Eof) {
      struct pollfd P = {Fd, POLLIN, 0};
      if (::poll(&P, 1, 0) <= 0 || !(P.revents & (POLLIN | POLLHUP)))
        break;
      N = ::read(Fd, Chunk, sizeof Chunk);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        Eof = true;
        break;
      }
      if (N == 0) {
        Eof = true;
        break;
      }
      Buf.append(Chunk, size_t(N));
    }

    Lines.clear();
    size_t Pos = 0, Nl;
    while ((Nl = Buf.find('\n', Pos)) != std::string::npos) {
      Lines.push_back(Buf.substr(Pos, Nl - Pos));
      Pos = Nl + 1;
    }
    Buf.erase(0, Pos);
    if (Eof && !Buf.empty()) {
      Lines.push_back(Buf);
      Buf.clear();
    }
    if (Lines.empty())
      continue;
    for (const std::string &Reply : S.handleBatch(Lines)) {
      std::fputs(Reply.c_str(), Out);
      std::fputc('\n', Out);
    }
    std::fflush(Out);
  }
  return 0;
}

int serveSocket(Server &S, const std::string &Path, std::string *Error) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return 1;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof Addr);
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof Addr.sun_path) {
    if (Error)
      *Error = "socket path too long: " + Path;
    ::close(Fd);
    return 1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  // A leftover socket file — say, from a crashed or SIGKILLed server —
  // would make bind() fail with EADDRINUSE even though nothing is
  // listening.  Probe before binding: a connect() that succeeds means a
  // live server owns the path (refuse to steal it); ECONNREFUSED means
  // the inode is stale and safe to unlink and rebind.  Anything that is
  // not a socket is never removed.
  struct stat SB;
  if (::lstat(Path.c_str(), &SB) == 0) {
    if (!S_ISSOCK(SB.st_mode)) {
      if (Error)
        *Error = Path + " exists and is not a socket; refusing to replace it";
      ::close(Fd);
      return 1;
    }
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Probe >= 0) {
      int Rc = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof Addr);
      int ConnErr = errno;
      ::close(Probe);
      if (Rc == 0) {
        if (Error)
          *Error = Path + " is in use by a live server";
        ::close(Fd);
        return 1;
      }
      if (ConnErr != ECONNREFUSED && ConnErr != ENOENT) {
        if (Error)
          *Error = std::string("probe connect on ") + Path + ": " +
                   std::strerror(ConnErr);
        ::close(Fd);
        return 1;
      }
    }
    ::unlink(Path.c_str());
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0 ||
      ::listen(Fd, 4) < 0) {
    if (Error)
      *Error = std::string("bind/listen on ") + Path + ": " +
               std::strerror(errno);
    ::close(Fd);
    return 1;
  }
  while (!S.exited()) {
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      if (Error)
        *Error = std::string("accept: ") + std::strerror(errno);
      ::close(Fd);
      ::unlink(Path.c_str());
      return 1;
    }
    FILE *In = fdopen(Conn, "r");
    FILE *Out = fdopen(dup(Conn), "w");
    if (In && Out)
      serveStream(S, In, Out);
    if (In)
      fclose(In);
    if (Out)
      fclose(Out);
  }
  ::close(Fd);
  ::unlink(Path.c_str());
  return 0;
}

#else // !SPIKE_SERVE_POSIX

int serveStream(Server &S, FILE *In, FILE *Out) {
  // Portable fallback: line-at-a-time, no readahead batching.
  std::string Line;
  int C;
  while (!S.exited() && (C = std::fgetc(In)) != EOF) {
    if (C != '\n') {
      Line.push_back(char(C));
      continue;
    }
    std::fputs(S.handleLine(Line).c_str(), Out);
    std::fputc('\n', Out);
    std::fflush(Out);
    Line.clear();
  }
  if (!Line.empty() && !S.exited()) {
    std::fputs(S.handleLine(Line).c_str(), Out);
    std::fputc('\n', Out);
    std::fflush(Out);
  }
  return 0;
}

int serveSocket(Server &, const std::string &, std::string *Error) {
  if (Error)
    *Error = "unix-domain sockets are not supported on this platform";
  return 1;
}

#endif // SPIKE_SERVE_POSIX

} // namespace spike
