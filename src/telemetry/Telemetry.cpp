//===- telemetry/Telemetry.cpp - Pipeline instrumentation ------------------===//

#include "telemetry/Telemetry.h"

#include "support/BuildInfo.h"
#include "telemetry/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace spike;
using namespace spike::telemetry;

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

uint32_t Session::beginSpan(std::string_view Name) {
  SpanEvent Event;
  Event.Name = std::string(Name);
  Event.Parent = OpenStack.empty() ? -1 : int32_t(OpenStack.back());
  Event.StartNs = nowNs();
  uint32_t Id = uint32_t(Spans.size());
  Spans.push_back(std::move(Event));
  OpenStack.push_back(Id);
  return Id;
}

void Session::endSpan(uint32_t Id) {
  assert(Id < Spans.size() && "ending unknown span");
  uint64_t Now = nowNs();
  // Close any span opened after Id that was leaked open (an early return
  // that skipped a nested endSpan); RAII Spans never trigger this.
  while (!OpenStack.empty()) {
    uint32_t Top = OpenStack.back();
    OpenStack.pop_back();
    SpanEvent &Event = Spans[Top];
    if (Event.Open) {
      Event.DurNs = Now - Event.StartNs;
      Event.Open = false;
    }
    if (Top == Id)
      return;
  }
}

void Session::adoptSpans(const Session &From, uint32_t Track) {
  uint64_t Shift = uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(From.Epoch - Epoch)
          .count());
  int32_t Base = int32_t(Spans.size());
  int32_t Root = OpenStack.empty() ? -1 : int32_t(OpenStack.back());
  for (const SpanEvent &Event : From.Spans) {
    SpanEvent &Copy = Spans.emplace_back(Event);
    Copy.Parent = Event.Parent < 0 ? Root : Base + Event.Parent;
    Copy.Track = Track;
    Copy.StartNs += Shift;
  }
}

std::string Session::spanPath(uint32_t Id) const {
  const SpanEvent &Event = Spans[Id];
  if (Event.Parent < 0)
    return Event.Name;
  return spanPath(uint32_t(Event.Parent)) + "/" + Event.Name;
}

std::vector<PhaseRow> Session::phaseRows() const {
  std::map<std::string, PhaseRow> ByPath;
  for (uint32_t Id = 0; Id < Spans.size(); ++Id) {
    const SpanEvent &Event = Spans[Id];
    if (Event.Open)
      continue;
    std::string Path = spanPath(Id);
    PhaseRow &Row = ByPath[Path];
    Row.Path = Path;
    Row.Seconds += double(Event.DurNs) * 1e-9;
    Row.Count += 1;
  }
  std::vector<PhaseRow> Rows;
  Rows.reserve(ByPath.size());
  for (auto &[Path, Row] : ByPath)
    Rows.push_back(std::move(Row));
  return Rows;
}

//===----------------------------------------------------------------------===//
// Active-session plumbing
//===----------------------------------------------------------------------===//

namespace {
/// Per thread: a pool task that installs a session of its own records
/// into it without racing the thread that installed the caller's.
thread_local Session *ActiveSession = nullptr;
} // namespace

Session *spike::telemetry::active() { return ActiveSession; }

SessionScope::SessionScope(Session &S) : Previous(ActiveSession) {
  ActiveSession = &S;
}

SessionScope::~SessionScope() { ActiveSession = Previous; }

SessionPause::SessionPause() : Previous(ActiveSession) {
  ActiveSession = nullptr;
}

SessionPause::~SessionPause() { ActiveSession = Previous; }

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

std::string formatDouble(double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.6f", Value);
  return Buffer;
}

} // namespace

std::string spike::telemetry::traceJson(const Session &S) {
  std::string Out;
  Out += "{\"displayTimeUnit\": \"ms\",\n";
  Out += " \"otherData\": {\"tool\": \"" + jsonEscape(S.tool()) + "\"},\n";
  Out += " \"traceEvents\": [";
  bool First = true;
  for (uint32_t Id = 0; Id < S.spans().size(); ++Id) {
    const SpanEvent &Event = S.spans()[Id];
    if (Event.Open)
      continue;
    if (!First)
      Out += ",";
    First = false;
    // Complete ("X") events with microsecond timestamps, one synthetic
    // pid and one tid per track: chrome://tracing and Perfetto
    // reconstruct nesting from ts/dur overlap within a tid.
    Out += "\n  {\"name\": \"" + jsonEscape(Event.Name) +
           "\", \"cat\": \"spike\", \"ph\": \"X\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(1 + Event.Track) + ", \"ts\": " +
           formatDouble(double(Event.StartNs) * 1e-3) +
           ", \"dur\": " + formatDouble(double(Event.DurNs) * 1e-3) + "}";
  }
  Out += "\n]}\n";
  return Out;
}

std::string spike::telemetry::runReportJson(const Session &S) {
  std::string Out;
  Out += "{\n";
  Out += "  \"schema\": \"spike-run-report\",\n";
  Out += "  \"version\": 1,\n";
  Out += "  \"tool\": \"" + jsonEscape(S.tool()) + "\",\n";
  // Build provenance is additive (still version 1): pre-provenance
  // readers ignore the member, and it ties the report to the binary
  // that wrote it (diffing an ASan run against a release baseline is
  // the classic false regression this flags).
  Out += "  \"build\": " + buildInfoJson(&jsonQuote) + ",\n";
  Out += "  \"total_seconds\": " + formatDouble(S.elapsedSeconds()) + ",\n";

  Out += "  \"phases\": [";
  std::vector<PhaseRow> Rows = S.phaseRows();
  for (size_t I = 0; I < Rows.size(); ++I) {
    Out += I == 0 ? "\n" : ",\n";
    Out += "    {\"path\": \"" + jsonEscape(Rows[I].Path) +
           "\", \"seconds\": " + formatDouble(Rows[I].Seconds) +
           ", \"count\": " + std::to_string(Rows[I].Count) + "}";
  }
  Out += Rows.empty() ? "],\n" : "\n  ],\n";

  auto RenderRegistry = [&](const Session::Registry &Registry) {
    bool First = true;
    for (const auto &[Name, Value] : Registry) {
      Out += First ? "\n" : ",\n";
      First = false;
      Out += "    \"" + jsonEscape(Name) + "\": " + std::to_string(Value);
    }
    Out += First ? "}" : "\n  }";
  };
  Out += "  \"counters\": {";
  RenderRegistry(S.counters());
  Out += ",\n  \"gauges\": {";
  RenderRegistry(S.gauges());

  // Histograms are additive (still version 1): the member is omitted
  // when nothing recorded one, and pre-profiling readers ignore it.
  // Buckets render sparsely, keyed by bucket index.
  if (!S.histograms().empty()) {
    Out += ",\n  \"histograms\": {";
    bool FirstH = true;
    for (const auto &[Name, H] : S.histograms()) {
      Out += FirstH ? "\n" : ",\n";
      FirstH = false;
      Out += "    \"" + jsonEscape(Name) + "\": {\"count\": " +
             std::to_string(H.count()) + ", \"sum\": " +
             std::to_string(H.sum()) + ", \"min\": " +
             std::to_string(H.min()) + ", \"max\": " +
             std::to_string(H.max()) + ", \"buckets\": {";
      bool FirstB = true;
      for (unsigned I = 0; I < Histogram::NumBuckets; ++I) {
        if (H.bucket(I) == 0)
          continue;
        if (!FirstB)
          Out += ", ";
        FirstB = false;
        Out += "\"" + std::to_string(I) + "\": " + std::to_string(H.bucket(I));
      }
      Out += "}}";
    }
    Out += "\n  }";
  }

  // Hot-spot attribution rows are additive the same way.
  if (!S.hotspots().empty()) {
    Out += ",\n  \"hotspots\": [";
    const std::vector<HotSpotRecord> &Records = S.hotspots();
    for (size_t I = 0; I < Records.size(); ++I) {
      const HotSpotRecord &R = Records[I];
      Out += I == 0 ? "\n" : ",\n";
      Out += "    {\"phase\": \"" + jsonEscape(R.Phase) + "\"";
      if (!R.Routine.empty())
        Out += ", \"routine\": \"" + jsonEscape(R.Routine) + "\"";
      if (R.Scc >= 0)
        Out += ", \"scc\": " + std::to_string(R.Scc);
      Out += ", \"pops\": " + std::to_string(R.Pops) +
             ", \"iters\": " + std::to_string(R.Iters) +
             ", \"set_ops\": " + std::to_string(R.SetOps) +
             ", \"ns\": " + std::to_string(R.Ns) + "}";
    }
    Out += "\n  ]";
  }

  // Attribution records are additive: readers of version 1 that predate
  // them simply ignore the member, and it is omitted entirely when no
  // pass recorded one.
  if (!S.transforms().empty()) {
    Out += ",\n  \"transforms\": [";
    const std::vector<TransformRecord> &Records = S.transforms();
    for (size_t I = 0; I < Records.size(); ++I) {
      const TransformRecord &R = Records[I];
      Out += I == 0 ? "\n" : ",\n";
      Out += "    {\"pass\": \"" + jsonEscape(R.Pass) + "\", \"outcome\": \"" +
             jsonEscape(R.Outcome) + "\"";
      if (R.Address >= 0)
        Out += ", \"address\": " + std::to_string(R.Address);
      if (!R.Routine.empty())
        Out += ", \"routine\": \"" + jsonEscape(R.Routine) + "\"";
      Out += ", \"detail\": \"" + jsonEscape(R.Detail) + "\"}";
    }
    Out += "\n  ]";
  }

  // Degradation records are additive the same way: present only when
  // the resource governor degraded something.
  if (!S.degrades().empty()) {
    Out += ",\n  \"degraded\": [";
    const std::vector<DegradeRecord> &Records = S.degrades();
    for (size_t I = 0; I < Records.size(); ++I) {
      const DegradeRecord &R = Records[I];
      Out += I == 0 ? "\n" : ",\n";
      Out += "    {\"routine\": \"" + jsonEscape(R.Routine) +
             "\", \"reason\": \"" + jsonEscape(R.Reason) + "\"";
      if (!R.Phase.empty())
        Out += ", \"phase\": \"" + jsonEscape(R.Phase) + "\"";
      Out += "}";
    }
    Out += "\n  ]";
  }
  Out += "\n}\n";
  return Out;
}

namespace {

/// One frame name of a folded stack: ';' delimits frames and the final
/// space delimits the value, so both are rewritten.
std::string foldedFrame(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out) {
    if (C == ';')
      C = ':';
    else if (C == ' ' || C == '\n' || C == '\t' || C == '\r')
      C = '_';
  }
  return Out;
}

} // namespace

std::string
spike::telemetry::foldedStacks(const std::string &Tool,
                               const std::vector<PhaseRow> &Rows,
                               const std::vector<HotSpotRecord> &HotSpots) {
  // Total nanoseconds per span path, then self = total - children.
  std::map<std::string, uint64_t> Total;
  for (const PhaseRow &Row : Rows)
    Total[Row.Path] += uint64_t(Row.Seconds * 1e9 + 0.5);

  std::map<std::string, uint64_t> Self = Total;
  for (const auto &[Path, Ns] : Total) {
    size_t Slash = Path.rfind('/');
    if (Slash == std::string::npos)
      continue;
    auto Parent = Self.find(Path.substr(0, Slash));
    if (Parent == Self.end())
      continue;
    Parent->second -= Parent->second < Ns ? Parent->second : Ns;
  }

  // Routine-level hot-spot rows become leaf frames under their phase,
  // carved out of the phase's self time so the document still sums to
  // the measured wall clock.  Group-level rows are skipped: their time
  // is exactly the sum of their routine rows and would double-count.
  std::map<std::pair<std::string, std::string>, uint64_t> Leaves;
  for (const HotSpotRecord &R : HotSpots) {
    if (R.Routine.empty() || R.Ns == 0)
      continue;
    Leaves[{R.Phase, R.Routine}] += R.Ns;
    auto Phase = Self.find(R.Phase);
    if (Phase != Self.end())
      Phase->second -= Phase->second < R.Ns ? Phase->second : R.Ns;
  }

  std::string ToolFrame = foldedFrame(Tool);
  std::map<std::string, uint64_t> Lines;
  auto StackOf = [&](const std::string &Path) {
    std::string Stack = ToolFrame;
    if (Path.empty())
      return Stack;
    size_t Begin = 0;
    while (Begin <= Path.size()) {
      size_t End = Path.find('/', Begin);
      if (End == std::string::npos)
        End = Path.size();
      Stack += ";" + foldedFrame(Path.substr(Begin, End - Begin));
      Begin = End + 1;
    }
    return Stack;
  };
  for (const auto &[Path, Ns] : Self)
    if (Ns > 0)
      Lines[StackOf(Path)] += Ns;
  for (const auto &[Key, Ns] : Leaves)
    Lines[StackOf(Key.first) + ";" + foldedFrame(Key.second)] += Ns;

  std::string Out;
  for (const auto &[Stack, Ns] : Lines)
    Out += Stack + " " + std::to_string(Ns) + "\n";
  return Out;
}

std::string spike::telemetry::foldedStacks(const Session &S) {
  return foldedStacks(S.tool(), S.phaseRows(), S.hotspots());
}

bool spike::telemetry::writeTextFile(const std::string &Path,
                                     const std::string &Contents) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), File);
  bool Ok = Written == Contents.size();
  Ok = std::fclose(File) == 0 && Ok;
  return Ok;
}
