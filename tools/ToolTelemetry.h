//===- tools/ToolTelemetry.h - Shared --trace/--metrics plumbing -*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every spike tool accepts the same observability flags:
///
///   --trace=<file>     write a Chrome trace-event / Perfetto JSON trace
///   --metrics=<file>   write a spike-run-report JSON document
///   --folded=<file>    write folded stacks (speedscope / inferno
///                      `flamegraph.pl` input: one `path;to;frame N`
///                      line per stack, N in self-nanoseconds)
///
/// (the two-token forms `--trace <file>` etc. work too).  A flag given
/// without a file path, or with an empty one, is a usage error — the
/// run is observably misconfigured and silently dropping the request
/// would defeat the point of asking for telemetry.
/// ToolTelemetry ties them to a telemetry::Session: when either flag is
/// given, the Emitter installs a session as the process-wide active one
/// for the tool's whole run and writes the requested files when the tool
/// exits (including early error returns — the Emitter is RAII).  When
/// neither flag is given no session exists and every instrumentation
/// site in the libraries stays a no-op.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TOOLS_TOOLTELEMETRY_H
#define SPIKE_TOOLS_TOOLTELEMETRY_H

#include "ToolOptions.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <optional>
#include <string>

namespace spike {
namespace tooltel {

/// Where to write the trace, run report, and folded stacks; empty means
/// "not requested".
struct Options {
  std::string TracePath;
  std::string MetricsPath;
  std::string FoldedPath;

  bool enabled() const {
    return !TracePath.empty() || !MetricsPath.empty() ||
           !FoldedPath.empty();
  }
};

/// Consumes `--trace=<f>` / `--metrics=<f>` / `--folded=<f>` (and their
/// two-token forms) at position \p I of the argument list.  Returns true
/// if Argv[I] was a telemetry flag; \p I is advanced past any consumed
/// value token.  A recognized flag with a missing or empty path exits
/// with a usage error (toolopts::flagValue).
inline bool parseFlag(int Argc, char **Argv, int &I, Options &Opts) {
  auto Match = [&](const char *Name, std::string &Into) {
    const char *Value = toolopts::flagValue(Argc, Argv, I, Name);
    if (Value)
      Into = Value;
    return Value != nullptr;
  };
  return Match("--trace", Opts.TracePath) ||
         Match("--metrics", Opts.MetricsPath) ||
         Match("--folded", Opts.FoldedPath);
}

/// The usage-line suffix documenting the shared flags.
inline const char *usage() {
  return "[--trace=<file>] [--metrics=<file>] [--folded=<file>]";
}

/// Owns the tool run's Session and writes the output files on
/// destruction (or on an explicit finish()).
class Emitter {
public:
  Emitter(const char *Tool, Options Opts) : Opts(std::move(Opts)) {
    if (this->Opts.enabled()) {
      S.emplace(Tool);
      Scope.emplace(*S);
    }
  }

  ~Emitter() { finish(); }

  Emitter(const Emitter &) = delete;
  Emitter &operator=(const Emitter &) = delete;

  /// The session, or null when neither flag was given.
  telemetry::Session *session() { return S ? &*S : nullptr; }

  /// Writes the requested files (idempotent).  A write failure warns on
  /// stderr but never changes the tool's exit status: losing telemetry
  /// must not turn a successful run into a failed one.
  void finish() {
    if (Done || !S)
      return;
    Done = true;
    Scope.reset(); // Stop observing before serializing.
    // Each document is rendered only when its file was asked for.
    auto Write = [&](const std::string &Path,
                     std::string (*Render)(const telemetry::Session &)) {
      if (!Path.empty() && !telemetry::writeTextFile(Path, Render(*S)))
        std::fprintf(stderr, "warning: cannot write telemetry file '%s'\n",
                     Path.c_str());
    };
    Write(Opts.TracePath, telemetry::traceJson);
    Write(Opts.MetricsPath, telemetry::runReportJson);
    Write(Opts.FoldedPath, telemetry::foldedStacks);
  }

private:
  Options Opts;
  std::optional<telemetry::Session> S;
  std::optional<telemetry::SessionScope> Scope;
  bool Done = false;
};

} // namespace tooltel
} // namespace spike

#endif // SPIKE_TOOLS_TOOLTELEMETRY_H
