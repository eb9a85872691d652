//===- tools/spike-top.cpp - live serve observability top ----------------===//
//
// Renders ranked tables over a running spike-serve instance's
// observability surfaces: top commands by p99 latency, top commands by
// queue wait, top routines by attributed solve time, and the service
// health rates (error / protocol-error / degraded-reply / depgraph-hit).
//
//   spike-top --socket=/tmp/s                poll `metrics` live
//   spike-top --socket=/tmp/s --once         one scrape, one table, exit
//   spike-serve app.spkx < session | spike-top --once
//                                            reply-stream mode: feeds on
//                                            the `metrics` reply line
//   spike-top --once < metrics.prom          raw exposition mode
//   spike-top --once < access.log            access-log mode: per-command
//                                            rollup + slowest requests
//   spike-top --validate < metrics.prom      strict exposition check (CI)
//   spike-top --validate < access.log        strict JSONL schema check (CI)
//
// Input auto-detection: a first line containing the access-log schema id
// is an access log; a line starting with '{' that parses as a protocol
// reply is a reply stream (the `metrics` reply's "body" carries the
// exposition); anything else must be Prometheus text exposition.
//
// --validate doubles as the CI checker: it strict-parses the exposition
// (or the access-log JSONL schema) and exits non-zero on the first
// malformed line, so workflows need no external Prometheus tooling.
//
// Exit codes: 0 ok, 1 input/scrape/validation failure, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"

#include "telemetry/Histogram.h"
#include "telemetry/Json.h"
#include "telemetry/Prometheus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define SPIKE_TOP_POSIX 1
#endif

using namespace spike;
using telemetry::JsonValue;
using telemetry::PromSample;

namespace {

int usage(const char *Tool) {
  std::fprintf(stderr,
               "usage: %s [--socket=<path>] [--once] [--validate] "
               "[--top=<n>] [--interval=<ms>] [--prom-out=<file>]\n"
               "reads Prometheus exposition, spike-serve reply lines, or a "
               "serve access log\non stdin when no --socket is given\n",
               Tool);
  return 2;
}

/// Parses the value of \p Flag as a decimal number.
uint64_t parseNumber(const char *Value, const char *Flag) {
  char *End = nullptr;
  unsigned long long Parsed = std::strtoull(Value, &End, 10);
  if (End == Value || *End != '\0') {
    std::fprintf(stderr, "error: %s expects a number\n", Flag);
    std::exit(2);
  }
  return Parsed;
}

std::string readAll(std::FILE *F) {
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof Buf, F)) > 0)
    Out.append(Buf, N);
  return Out;
}

/// Human-ish but deterministic ns rendering: integral nanoseconds.
std::string ns(double V) { return std::to_string(uint64_t(V)); }

//===----------------------------------------------------------------------===//
// Exposition-derived tables
//===----------------------------------------------------------------------===//

/// One reassembled histogram: cumulative (le, count) pairs + sum/count.
struct HistView {
  std::vector<std::pair<double, double>> Cum; // ascending le
  double Sum = 0;
  double Count = 0;

  double mean() const { return Count > 0 ? Sum / Count : 0; }

  /// Nearest-rank percentile at bucket granularity (the le bound of the
  /// first bucket covering the rank), mirroring Histogram::percentile.
  double percentile(double P) const {
    if (Count <= 0)
      return 0;
    double Rank = std::floor(P / 100.0 * (Count - 1)) + 1;
    for (const auto &[Le, C] : Cum)
      if (C >= Rank)
        return Le;
    return Cum.empty() ? 0 : Cum.back().first;
  }
};

/// Groups `<base>_bucket` / `<base>_sum` / `<base>_count` samples back
/// into histograms keyed by base name.
std::map<std::string, HistView> collectHists(const std::vector<PromSample> &S) {
  std::map<std::string, HistView> Out;
  auto Suffix = [](const std::string &Name, const char *Tail,
                   std::string &Base) {
    size_t TL = std::strlen(Tail);
    if (Name.size() <= TL || Name.compare(Name.size() - TL, TL, Tail) != 0)
      return false;
    Base = Name.substr(0, Name.size() - TL);
    return true;
  };
  for (const PromSample &P : S) {
    std::string Base;
    if (Suffix(P.Name, "_bucket", Base)) {
      std::string Le = P.label("le");
      if (Le.empty())
        continue;
      double LeV = Le == "+Inf" ? HUGE_VAL : std::atof(Le.c_str());
      Out[Base].Cum.emplace_back(LeV, P.Value);
    } else if (Suffix(P.Name, "_sum", Base)) {
      Out[Base].Sum = P.Value;
    } else if (Suffix(P.Name, "_count", Base)) {
      Out[Base].Count = P.Value;
    }
  }
  for (auto &[Name, H] : Out)
    std::sort(H.Cum.begin(), H.Cum.end());
  return Out;
}

std::optional<double> scalar(const std::vector<PromSample> &S,
                             const char *Name) {
  for (const PromSample &P : S)
    if (P.Name == Name)
      return P.Value;
  return std::nullopt;
}

/// "spike_serve_latency_<cmd>_ns" -> <cmd>, if the name matches.
bool commandOfHist(const std::string &Base, const char *Prefix,
                   std::string &Cmd) {
  size_t PL = std::strlen(Prefix);
  const char *Tail = "_ns";
  if (Base.size() <= PL + 3 || Base.compare(0, PL, Prefix) != 0 ||
      Base.compare(Base.size() - 3, 3, Tail) != 0)
    return false;
  Cmd = Base.substr(PL, Base.size() - PL - 3);
  return true;
}

void renderHistTable(std::FILE *Out, const char *Title, const char *Prefix,
                     const std::map<std::string, HistView> &Hists,
                     uint64_t Top) {
  struct Row {
    std::string Cmd;
    const HistView *H;
  };
  std::vector<Row> Rows;
  for (const auto &[Base, H] : Hists) {
    std::string Cmd;
    if (commandOfHist(Base, Prefix, Cmd) && H.Count > 0)
      Rows.push_back({Cmd, &H});
  }
  // Rank by p99, ties broken by name so the table is deterministic.
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    double PA = A.H->percentile(99), PB = B.H->percentile(99);
    return PA != PB ? PA > PB : A.Cmd < B.Cmd;
  });
  if (Rows.size() > Top)
    Rows.resize(Top);
  std::fprintf(Out, "%s\n", Title);
  std::fprintf(Out, "  %-14s %8s %12s %12s %12s %12s\n", "command", "count",
               "mean_ns", "p50_ns", "p90_ns", "p99_ns");
  for (const Row &R : Rows)
    std::fprintf(Out, "  %-14s %8s %12s %12s %12s %12s\n", R.Cmd.c_str(),
                 ns(R.H->Count).c_str(), ns(R.H->mean()).c_str(),
                 ns(R.H->percentile(50)).c_str(),
                 ns(R.H->percentile(90)).c_str(),
                 ns(R.H->percentile(99)).c_str());
  if (Rows.empty())
    std::fprintf(Out, "  (no samples)\n");
}

void renderExposition(std::FILE *Out, const std::vector<PromSample> &Samples,
                      uint64_t Top) {
  std::map<std::string, HistView> Hists = collectHists(Samples);

  renderHistTable(Out, "top commands by p99 latency", "spike_serve_latency_",
                  Hists, Top);
  renderHistTable(Out, "top commands by p99 queue wait",
                  "spike_serve_queue_wait_", Hists, Top);

  // Hot routines by attributed solve time.
  struct Hot {
    std::string Routine;
    double Ns = 0, Pops = 0;
  };
  std::map<std::string, Hot> ByRoutine;
  for (const PromSample &P : Samples) {
    std::string R = P.label("routine");
    if (R.empty())
      continue;
    if (P.Name == "spike_hot_routine_ns") {
      ByRoutine[R].Routine = R;
      ByRoutine[R].Ns += P.Value;
    } else if (P.Name == "spike_hot_routine_pops") {
      ByRoutine[R].Routine = R;
      ByRoutine[R].Pops += P.Value;
    }
  }
  std::vector<Hot> Hots;
  for (const auto &[Name, H] : ByRoutine)
    Hots.push_back(H);
  std::sort(Hots.begin(), Hots.end(), [](const Hot &A, const Hot &B) {
    return A.Ns != B.Ns ? A.Ns > B.Ns : A.Routine < B.Routine;
  });
  if (Hots.size() > Top)
    Hots.resize(Top);
  std::fprintf(Out, "top routines by attributed ns\n");
  std::fprintf(Out, "  %-24s %14s %10s\n", "routine", "ns", "pops");
  for (const Hot &H : Hots)
    std::fprintf(Out, "  %-24s %14s %10s\n", H.Routine.c_str(),
                 ns(H.Ns).c_str(), ns(H.Pops).c_str());
  if (Hots.empty())
    std::fprintf(Out, "  (no attribution)\n");

  // Health rates over the reply totals.
  double Queries = scalar(Samples, "spike_serve_queries_total").value_or(0);
  double Loads = scalar(Samples, "spike_serve_loads_total").value_or(0);
  double Patches = scalar(Samples, "spike_serve_patches_total").value_or(0);
  double Full =
      scalar(Samples, "spike_serve_patch_full_solves_total").value_or(0);
  double Errors = scalar(Samples, "spike_serve_errors_total").value_or(0);
  double Proto =
      scalar(Samples, "spike_serve_protocol_errors_total").value_or(0);
  double Degraded =
      scalar(Samples, "spike_serve_degraded_replies_total").value_or(0);
  double Hits = scalar(Samples, "spike_serve_depgraph_hits_total").value_or(0);
  double Builds =
      scalar(Samples, "spike_serve_depgraph_builds_total").value_or(0);
  double Requests = Queries + Loads + Patches + Errors;
  auto Rate = [](double Num, double Den) {
    return Den > 0 ? 100.0 * Num / Den : 0.0;
  };
  std::fprintf(Out, "rates\n");
  std::fprintf(Out,
               "  requests %s  errors %s (%.1f%%)  protocol_errors %s  "
               "degraded %s (%.1f%%)\n",
               ns(Requests).c_str(), ns(Errors).c_str(), Rate(Errors, Requests),
               ns(Proto).c_str(), ns(Degraded).c_str(),
               Rate(Degraded, Requests));
  std::fprintf(Out,
               "  patches %s  full_solves %s (%.1f%%)  depgraph_hit %.1f%%\n",
               ns(Patches).c_str(), ns(Full).c_str(), Rate(Full, Patches),
               Rate(Hits, Hits + Builds));
}

//===----------------------------------------------------------------------===//
// Access-log tables
//===----------------------------------------------------------------------===//

struct LogStats {
  struct PerCmd {
    uint64_t Count = 0, Errors = 0, Slow = 0;
    uint64_t ExecNs = 0; // summed
  };
  std::map<std::string, PerCmd> ByCmd;
  struct SlowReq {
    uint64_t Seq = 0, ExecNs = 0;
    std::string Cmd;
  };
  std::vector<SlowReq> Slow;
  uint64_t Records = 0, ProtocolErrors = 0, Degraded = 0;
};

/// Parses one access-log record line into \p L; false on schema errors.
bool foldLogRecord(const JsonValue &V, LogStats &L, std::string *Error) {
  const JsonValue *Seq = V.find("seq");
  const JsonValue *Cmd = V.find("command");
  const JsonValue *Ok = V.find("ok");
  const JsonValue *Exec = V.find("exec_ns");
  const JsonValue *Queue = V.find("queue_ns");
  const JsonValue *Slow = V.find("slow");
  if (!Seq || !Seq->isNumber() || !Cmd || !Cmd->isString() || !Ok ||
      !Ok->isBool() || !Exec || !Exec->isNumber() || !Queue ||
      !Queue->isNumber() || !Slow || !Slow->isBool()) {
    if (Error)
      *Error = "record missing seq/command/ok/exec_ns/queue_ns/slow";
    return false;
  }
  std::optional<uint64_t> SeqN = Seq->exactUint(), ExecNs = Exec->exactUint();
  if (!SeqN || !ExecNs) {
    if (Error)
      *Error = "record seq/exec_ns is not an integer in [0, 2^53]";
    return false;
  }
  ++L.Records;
  LogStats::PerCmd &P = L.ByCmd[Cmd->Str];
  ++P.Count;
  P.Errors += !Ok->B;
  P.Slow += Slow->B;
  P.ExecNs += *ExecNs;
  if (const JsonValue *PE = V.find("protocol_error"); PE && PE->isBool())
    L.ProtocolErrors += PE->B;
  if (const JsonValue *D = V.find("degraded"); D && D->isBool())
    L.Degraded += D->B;
  if (Slow->B)
    L.Slow.push_back({*SeqN, *ExecNs, Cmd->Str});
  return true;
}

void renderLog(std::FILE *Out, const LogStats &L, uint64_t Top) {
  std::fprintf(Out, "access log: %s records, %s protocol errors, "
                    "%s degraded\n",
               ns(double(L.Records)).c_str(),
               ns(double(L.ProtocolErrors)).c_str(),
               ns(double(L.Degraded)).c_str());
  struct Row {
    std::string Cmd;
    const LogStats::PerCmd *P;
  };
  std::vector<Row> Rows;
  for (const auto &[Cmd, P] : L.ByCmd)
    Rows.push_back({Cmd, &P});
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    return A.P->ExecNs != B.P->ExecNs ? A.P->ExecNs > B.P->ExecNs
                                      : A.Cmd < B.Cmd;
  });
  if (Rows.size() > Top)
    Rows.resize(Top);
  std::fprintf(Out, "  %-14s %8s %8s %8s %14s\n", "command", "count", "errors",
               "slow", "exec_ns_total");
  for (const Row &R : Rows)
    std::fprintf(Out, "  %-14s %8llu %8llu %8llu %14llu\n", R.Cmd.c_str(),
                 (unsigned long long)R.P->Count,
                 (unsigned long long)R.P->Errors,
                 (unsigned long long)R.P->Slow,
                 (unsigned long long)R.P->ExecNs);
  std::vector<LogStats::SlowReq> Slow = L.Slow;
  std::sort(Slow.begin(), Slow.end(),
            [](const LogStats::SlowReq &A, const LogStats::SlowReq &B) {
              return A.ExecNs != B.ExecNs ? A.ExecNs > B.ExecNs
                                          : A.Seq < B.Seq;
            });
  if (Slow.size() > Top)
    Slow.resize(Top);
  std::fprintf(Out, "slowest requests\n");
  for (const LogStats::SlowReq &S : Slow)
    std::fprintf(Out, "  seq %llu  %-14s %12llu ns\n",
                 (unsigned long long)S.Seq, S.Cmd.c_str(),
                 (unsigned long long)S.ExecNs);
  if (Slow.empty())
    std::fprintf(Out, "  (none)\n");
}

//===----------------------------------------------------------------------===//
// Input detection and validation
//===----------------------------------------------------------------------===//

enum class InputKind { Exposition, ReplyStream, AccessLog };

InputKind detectInput(const std::string &Text) {
  size_t Eol = Text.find('\n');
  std::string First = Text.substr(0, Eol);
  if (First.find("spike-serve-access-log") != std::string::npos)
    return InputKind::AccessLog;
  if (!First.empty() && First[0] == '{') {
    // A reply stream line carries "cmd" and "seq"; an access log without
    // its header line still carries "seq" but spells the command
    // "command".  Fall back on exposition for anything unparsable.
    if (std::optional<JsonValue> V = telemetry::parseJson(First)) {
      if (V->isObject() && V->find("cmd"))
        return InputKind::ReplyStream;
      if (V->isObject() && V->find("seq"))
        return InputKind::AccessLog;
    }
  }
  return InputKind::Exposition;
}

/// Pulls the exposition text out of a reply stream: the last `metrics`
/// reply's "body".
std::optional<std::string> expositionOfReplies(const std::string &Text,
                                               std::string *Error) {
  std::optional<std::string> Body;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string Line =
        Text.substr(Pos, Eol == std::string::npos ? Eol : Eol - Pos);
    Pos = Eol == std::string::npos ? Text.size() : Eol + 1;
    if (Line.empty())
      continue;
    std::optional<JsonValue> V = telemetry::parseJson(Line);
    if (!V || !V->isObject()) {
      if (Error)
        *Error = "reply stream line is not a JSON object: " + Line;
      return std::nullopt;
    }
    if (V->stringOr("cmd", "") != "metrics")
      continue;
    const JsonValue *B = V->find("body");
    if (!B || !B->isString()) {
      if (Error)
        *Error = "metrics reply has no \"body\" string";
      return std::nullopt;
    }
    Body = B->Str;
  }
  if (!Body && Error)
    *Error = "no `metrics` reply found in the stream (run the session "
             "with a `metrics {}` line)";
  return Body;
}

/// Strict access-log walk; fills \p L and returns false on the first
/// malformed line.
bool foldAccessLog(const std::string &Text, LogStats &L, std::string *Error) {
  size_t Pos = 0;
  unsigned LineNo = 0;
  bool SawHeader = false;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string Line =
        Text.substr(Pos, Eol == std::string::npos ? Eol : Eol - Pos);
    Pos = Eol == std::string::npos ? Text.size() : Eol + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    std::string JsonErr;
    std::optional<JsonValue> V = telemetry::parseJson(Line, &JsonErr);
    if (!V || !V->isObject()) {
      if (Error)
        *Error = "line " + std::to_string(LineNo) +
                 ": not a JSON object: " + JsonErr;
      return false;
    }
    if (V->stringOr("schema", "") == "spike-serve-access-log") {
      if (SawHeader || LineNo != 1) {
        if (Error)
          *Error = "line " + std::to_string(LineNo) +
                   ": header must be the first line, once";
        return false;
      }
      SawHeader = true;
      continue;
    }
    std::string RecErr;
    if (!foldLogRecord(*V, L, &RecErr)) {
      if (Error)
        *Error = "line " + std::to_string(LineNo) + ": " + RecErr;
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Socket scrape
//===----------------------------------------------------------------------===//

#ifdef SPIKE_TOP_POSIX
std::optional<std::string> scrapeSocket(const std::string &Path,
                                        std::string *Error) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return std::nullopt;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof Addr);
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof Addr.sun_path) {
    if (Error)
      *Error = "socket path too long: " + Path;
    ::close(Fd);
    return std::nullopt;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0) {
    if (Error)
      *Error = std::string("connect to ") + Path + ": " +
               std::strerror(errno);
    ::close(Fd);
    return std::nullopt;
  }
  const char *Req = "metrics {}\n";
  size_t Off = 0, Len = std::strlen(Req);
  while (Off < Len) {
    ssize_t N = ::write(Fd, Req + Off, Len - Off);
    if (N <= 0) {
      if (Error)
        *Error = std::string("write: ") + std::strerror(errno);
      ::close(Fd);
      return std::nullopt;
    }
    Off += size_t(N);
  }
  ::shutdown(Fd, SHUT_WR);
  std::string Reply;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof Buf)) > 0) {
    Reply.append(Buf, size_t(N));
    if (Reply.find('\n') != std::string::npos)
      break;
  }
  ::close(Fd);
  return Reply;
}
#else
std::optional<std::string> scrapeSocket(const std::string &, std::string *E) {
  if (E)
    *E = "unix-domain sockets are not supported on this platform";
  return std::nullopt;
}
#endif

int runTool(int Argc, char **Argv) {
  std::string SocketPath, PromOut;
  bool Once = false, Validate = false;
  uint64_t Top = 10, IntervalMs = 2000;
  for (int I = 1; I < Argc; ++I) {
    if (const char *Socket = toolopts::flagValue(Argc, Argv, I, "--socket"))
      SocketPath = Socket;
    else if (const char *Out = toolopts::flagValue(Argc, Argv, I, "--prom-out"))
      PromOut = Out;
    else if (const char *N = toolopts::flagValue(Argc, Argv, I, "--top"))
      Top = parseNumber(N, "--top");
    else if (const char *Ms = toolopts::flagValue(Argc, Argv, I, "--interval"))
      IntervalMs = parseNumber(Ms, "--interval");
    else if (std::strcmp(Argv[I], "--once") == 0)
      Once = true;
    else if (std::strcmp(Argv[I], "--validate") == 0)
      Validate = true;
    else
      return usage(Argv[0]);
  }
  if (Top == 0)
    Top = 1;

  // One round: obtain input, validate/render, return exit status.
  auto Round = [&]() -> int {
    std::string Text, Error;
    InputKind Kind;
    if (!SocketPath.empty()) {
      std::optional<std::string> Reply = scrapeSocket(SocketPath, &Error);
      if (!Reply) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      Text = *Reply;
      Kind = InputKind::ReplyStream;
    } else {
      Text = readAll(stdin);
      Kind = detectInput(Text);
    }

    if (Kind == InputKind::AccessLog) {
      LogStats L;
      if (!foldAccessLog(Text, L, &Error)) {
        std::fprintf(stderr, "error: access log invalid: %s\n", Error.c_str());
        return 1;
      }
      if (Validate) {
        std::printf("access log OK: %llu record(s)\n",
                    (unsigned long long)L.Records);
        return 0;
      }
      renderLog(stdout, L, Top);
      return 0;
    }

    std::string Exposition;
    if (Kind == InputKind::ReplyStream) {
      std::optional<std::string> Body = expositionOfReplies(Text, &Error);
      if (!Body) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      Exposition = *Body;
    } else {
      Exposition = Text;
    }

    if (!PromOut.empty()) {
      std::FILE *F = std::fopen(PromOut.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "error: cannot write '%s'\n", PromOut.c_str());
        return 1;
      }
      std::fwrite(Exposition.data(), 1, Exposition.size(), F);
      std::fclose(F);
    }

    std::optional<std::vector<PromSample>> Samples =
        telemetry::parseExposition(Exposition, &Error);
    if (!Samples) {
      std::fprintf(stderr, "error: exposition invalid: %s\n", Error.c_str());
      return 1;
    }
    if (Validate) {
      std::printf("exposition OK: %llu sample(s)\n",
                  (unsigned long long)Samples->size());
      return 0;
    }
    renderExposition(stdout, *Samples, Top);
    return 0;
  };

  if (SocketPath.empty() || Once || Validate)
    return Round();

#ifdef SPIKE_TOP_POSIX
  // Live mode: poll until the server goes away.
  for (;;) {
    std::printf("---\n");
    if (int Rc = Round())
      return Rc;
    std::fflush(stdout);
    ::usleep(useconds_t(IntervalMs * 1000));
  }
#else
  return Round();
#endif
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-top");
  return runTool(Argc, Argv);
}
