//===- tools/spike-serve.cpp - resident analysis server -------------------===//
//
// Serves the interprocedural analysis over a newline-delimited line
// protocol (see serve/Serve.h): load an image once, keep the summaries
// and slot facts resident, answer queries, and re-analyze incrementally
// when a routine is patched.
//
//   spike-serve app.spkx                      serve stdin/stdout
//   spike-serve app.spkx --socket=/tmp/s      serve a unix-domain socket
//   echo 'analyze {"routine":"main"}' | spike-serve app.spkx
//
// Each request line is `<command> [<json-object>]`; each reply is one
// line of JSON.  Commands: load, analyze, lint, explain, slice,
// patch-routine, stats, metrics, shutdown.  Budget flags apply per
// request: a blown request carries the `!! DEGRADED` banner in its reply
// and the server keeps serving.
//
// Request observability is on by default (--no-observe turns it off):
// per-command latency/queue-wait histograms feed the `stats` and
// `metrics` replies, --access-log=<file> appends one JSONL record per
// request, and requests at or over --slow-ms=<n> milliseconds carry
// per-SCC hot-spot attribution in their access-log record (--slow-ms=0
// attributes everything; spike-top renders the result live).
//
// Exit codes: 0 served until EOF/shutdown, 1 load or socket failure,
// 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"
#include "ToolBudget.h"
#include "ToolOptions.h"
#include "ToolTelemetry.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace spike;

namespace {

int usage(const char *Tool) {
  std::fprintf(stderr,
               "usage: %s [<image.spkx>] [--socket=<path>] "
               "[--access-log=<file>] [--slow-ms=<n>] [--no-observe] "
               "%s %s\n"
               "protocol: one `<command> [<json>]` per line on stdin (or the "
               "socket),\n"
               "one JSON reply per line; commands: load analyze lint explain "
               "slice\n"
               "patch-routine stats metrics shutdown\n",
               Tool, toolopts::jobsUsage(), tooltel::usage());
  std::fprintf(stderr, "budget flags: %s\n", toolbudget::usage());
  return 2;
}

/// Parses the `--slow-ms` value (milliseconds, >= 0).
int64_t parseSlowMs(const char *Value) {
  char *End = nullptr;
  long long Parsed = std::strtoll(Value, &End, 10);
  if (End == Value || *End != '\0' || Parsed < 0) {
    std::fprintf(stderr, "error: --slow-ms expects milliseconds >= 0\n");
    std::exit(2);
  }
  return Parsed;
}

int runTool(int Argc, char **Argv) {
  std::string ImagePath, SocketPath, AccessLogPath;
  bool NoObserve = false;
  int64_t SlowMs = -1;
  unsigned Jobs = toolopts::defaultJobs();
  tooltel::Options TelemetryOpts;
  toolbudget::Options BudgetOpts;
  for (int I = 1; I < Argc; ++I) {
    if (const char *Socket = toolopts::flagValue(Argc, Argv, I, "--socket"))
      SocketPath = Socket;
    else if (const char *Log =
                 toolopts::flagValue(Argc, Argv, I, "--access-log"))
      AccessLogPath = Log;
    else if (const char *Ms = toolopts::flagValue(Argc, Argv, I, "--slow-ms"))
      SlowMs = parseSlowMs(Ms);
    else if (std::strcmp(Argv[I], "--no-observe") == 0)
      NoObserve = true;
    else if (toolopts::parseJobs(Argc, Argv, I, Jobs))
      ;
    else if (tooltel::parseFlag(Argc, Argv, I, TelemetryOpts))
      ;
    else if (toolbudget::parseFlag(Argc, Argv, I, BudgetOpts))
      ;
    else if (Argv[I][0] == '-')
      return usage(Argv[0]);
    else if (ImagePath.empty())
      ImagePath = Argv[I];
    else
      return usage(Argv[0]);
  }

  toolbudget::Session Faults(BudgetOpts);
  tooltel::Emitter Telemetry("spike-serve", TelemetryOpts);

  ServerOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Budget = BudgetOpts.Budget;
  // The served tool observes by default (the embeddable library does
  // not); --no-observe restores the zero-timestamp configuration.
  Opts.Observe = !NoObserve;
  Opts.AccessLogPath = AccessLogPath;
  Opts.SlowMs = SlowMs;
  if (NoObserve && (!AccessLogPath.empty() || SlowMs >= 0)) {
    std::fprintf(stderr, "error: --no-observe contradicts --access-log / "
                         "--slow-ms\n");
    return 2;
  }
  Server S(Opts);
  if (!S.startupError().empty()) {
    std::fprintf(stderr, "error: %s\n", S.startupError().c_str());
    return 1;
  }

  if (!ImagePath.empty()) {
    std::string Error;
    std::optional<Image> Img = readImageFile(ImagePath, &Error);
    if (!Img) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!S.loadImage(std::move(*Img), &Error)) {
      std::fprintf(stderr, "error: cannot analyze '%s': %s\n",
                   ImagePath.c_str(), Error.c_str());
      return 1;
    }
  }

  if (!SocketPath.empty()) {
    std::string Error;
    if (serveSocket(S, SocketPath, &Error) != 0) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    return 0;
  }
  return serveStream(S, stdin, stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  toolopts::handleVersion(Argc, Argv, "spike-serve");
  return toolbudget::guardedMain([&] { return runTool(Argc, Argv); });
}
