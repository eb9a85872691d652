//===- serve/Observe.cpp - Request-scoped service observability ----------===//

#include "serve/Observe.h"

#include "support/BuildInfo.h"
#include "telemetry/Json.h"

using namespace spike;
using namespace spike::serve;
using spike::telemetry::jsonQuote;

const char *spike::serve::commandName(Command C) {
  switch (C) {
  case Command::Load:
    return "load";
  case Command::Analyze:
    return "analyze";
  case Command::Lint:
    return "lint";
  case Command::Explain:
    return "explain";
  case Command::Slice:
    return "slice";
  case Command::Patch:
    return "patch-routine";
  case Command::Stats:
    return "stats";
  case Command::Metrics:
    return "metrics";
  case Command::Shutdown:
    return "shutdown";
  case Command::Unknown:
    break;
  }
  return "?";
}

Command spike::serve::commandFor(const std::string &Cmd) {
  for (unsigned I = 0; I < NumCommands - 1; ++I)
    if (Cmd == commandName(Command(I)))
      return Command(I);
  return Command::Unknown;
}

RequestObserver::~RequestObserver() {
  if (Log)
    std::fclose(Log);
}

bool RequestObserver::enable(const std::string &AccessLogPath, int64_t SlowMsIn,
                             unsigned Jobs, std::string *Error) {
  Enabled = true;
  SlowMs = SlowMsIn;
  if (AccessLogPath.empty())
    return true;
  Log = std::fopen(AccessLogPath.c_str(), "w");
  if (!Log) {
    if (Error)
      *Error = "cannot open access log '" + AccessLogPath + "'";
    Enabled = false;
    return false;
  }
  // The header line: schema id, the serving configuration, and the build
  // provenance of the binary that wrote the log.  `jobs` is the one
  // header field the byte-identity tests scrub.
  std::string Head = "{\"schema\":\"spike-serve-access-log\",\"version\":1";
  Head += ",\"jobs\":" + std::to_string(Jobs);
  Head += ",\"slow_ms\":" + std::to_string(SlowMs);
  Head += ",\"build\":" + buildInfoJson(&jsonQuote);
  Head += "}\n";
  std::fwrite(Head.data(), 1, Head.size(), Log);
  std::fflush(Log);
  return true;
}

void RequestObserver::observe(const RequestRecord &R, const std::string &RawCmd,
                              const std::vector<telemetry::HotSpotRecord> &Spots) {
  if (!Enabled)
    return;

  unsigned Idx = unsigned(R.Cmd);
  Latency[Idx].record(R.ExecNs);
  QueueWait[Idx].record(R.QueueNs);

  // Mirror into the active session so RunReports (and therefore
  // spike-profile --diff) carry the per-command distributions.
  const char *Name = commandName(R.Cmd);
  if (telemetry::active()) {
    telemetry::record(std::string("serve.latency.") + Name, R.ExecNs);
    telemetry::record(std::string("serve.queue_wait.") + Name, R.QueueNs);
  }

  if (!Log)
    return;

  std::string Line = "{\"seq\":" + std::to_string(R.Seq);
  Line += ",\"cmd\":" + jsonQuote(RawCmd);
  Line += ",\"command\":" + jsonQuote(Name);
  Line += std::string(",\"ok\":") + (R.Ok ? "true" : "false");
  Line += std::string(",\"protocol_error\":") +
          (R.ProtocolError ? "true" : "false");
  Line += std::string(",\"degraded\":") + (R.Degraded ? "true" : "false");
  if (R.DegradeReason)
    Line += ",\"degrade_reason\":" + jsonQuote(R.DegradeReason);
  Line += ",\"bytes_in\":" + std::to_string(R.BytesIn);
  Line += ",\"bytes_out\":" + std::to_string(R.BytesOut);
  Line += ",\"queue_ns\":" + std::to_string(R.QueueNs);
  Line += ",\"exec_ns\":" + std::to_string(R.ExecNs);
  Line += std::string(",\"slow\":") + (R.Slow ? "true" : "false");
  if (R.HasPatch) {
    Line += std::string(",\"patch\":{\"full\":") +
            (R.Patch.Full ? "true" : "false");
    Line += ",\"struct_dirty\":" + std::to_string(R.Patch.StructDirty);
    Line += ",\"phase1_dirty\":" + std::to_string(R.Patch.Phase1Dirty);
    Line += ",\"phase2_dirty\":" + std::to_string(R.Patch.Phase2Dirty);
    Line += "}";
  }
  if (R.Slow && !Spots.empty()) {
    Line += ",\"hotspots\":[";
    bool First = true;
    for (const telemetry::HotSpotRecord &S : Spots) {
      if (!First)
        Line += ",";
      First = false;
      Line += "{\"phase\":" + jsonQuote(S.Phase);
      Line += ",\"routine\":" + jsonQuote(S.Routine);
      Line += ",\"scc\":" + std::to_string(S.Scc);
      Line += ",\"pops\":" + std::to_string(S.Pops);
      Line += ",\"iters\":" + std::to_string(S.Iters);
      Line += ",\"set_ops\":" + std::to_string(S.SetOps);
      Line += ",\"ns\":" + std::to_string(S.Ns);
      Line += "}";
    }
    Line += "]";
  }
  Line += "}\n";
  std::fwrite(Line.data(), 1, Line.size(), Log);
  // One flush per record: a crashed or killed server leaves a log whose
  // last line is still well-formed JSONL.
  std::fflush(Log);
}

/// Renders one histogram family ("latency" or "queue_wait") as a JSON
/// object keyed by command name, empty histograms elided.
static std::string
familyJson(const char *Key,
           const std::array<telemetry::Histogram, NumCommands> &H) {
  std::string Out = std::string("\"") + Key + "\":{";
  bool First = true;
  for (unsigned I = 0; I < NumCommands; ++I) {
    const telemetry::Histogram &Hist = H[I];
    if (Hist.empty())
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += jsonQuote(commandName(Command(I)));
    Out += ":{\"count\":" + std::to_string(Hist.count());
    Out += ",\"mean_ns\":" + std::to_string(Hist.mean());
    Out += ",\"p50_ns\":" + std::to_string(Hist.percentile(50));
    Out += ",\"p90_ns\":" + std::to_string(Hist.percentile(90));
    Out += ",\"p99_ns\":" + std::to_string(Hist.percentile(99));
    Out += "}";
  }
  Out += "}";
  return Out;
}

std::string RequestObserver::statsJson() const {
  return familyJson("latency", Latency) + "," +
         familyJson("queue_wait", QueueWait);
}
