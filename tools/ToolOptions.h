//===- tools/ToolOptions.h - Shared --jobs plumbing -----------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every spike tool accepts the same parallelism flag:
///
///   --jobs=<n>   worker lanes for the parallel analysis engine
///
/// (the two-token form `--jobs <n>` works too).  The default is the
/// hardware concurrency; `--jobs=1` runs everything inline on the main
/// thread.  Every value produces identical output — the engine schedules
/// work over the call graph's SCC condensation, so results, summaries,
/// and telemetry counters do not depend on the lane count (only the
/// pool.steals counter and the analysis.jobs gauge reflect it).
///
/// flagValue() is the one reader of `--name=<v>` / `--name <v>` flags;
/// the jobs, budget and telemetry flags and the tools' own valued flags
/// all go through it.  parseUnsigned() and parseUnsigned32() check the
/// unsigned numbers among their values, parseDouble() the fractional
/// ones.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TOOLS_TOOLOPTIONS_H
#define SPIKE_TOOLS_TOOLOPTIONS_H

#include "support/BuildInfo.h"
#include "support/ThreadPool.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>

namespace spike {
namespace toolopts {

/// Handles the shared `--version` flag: when present anywhere in the
/// argument list, prints "<tool> <git describe> (<compiler>, <type>,
/// sanitizer=<s>)" on stdout and exits 0.  Called first by every tool
/// main, before any other flag parsing, so `--version` works even when
/// other arguments would be usage errors.
inline void handleVersion(int Argc, char **Argv, const char *Tool) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--version") == 0) {
      std::printf("%s %s\n", Tool, buildInfoLine().c_str());
      std::exit(0);
    }
  }
}

/// The one reader of valued flags: consumes `<name>=<v>` / `<name> <v>`
/// at position \p I of the argument list.  Returns null when Argv[I] is
/// a different flag; otherwise returns the value, with \p I advanced past
/// a separate value token.  A missing or empty value exits with a usage
/// error.
inline const char *flagValue(int Argc, char **Argv, int &I,
                             const char *Name) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Argv[I], Name, Len) != 0)
    return nullptr;
  const char *Value = nullptr;
  if (Argv[I][Len] == '=')
    Value = Argv[I] + Len + 1;
  else if (Argv[I][Len] == '\0')
    Value = I + 1 < Argc ? Argv[++I] : "";
  else
    return nullptr;
  if (*Value == '\0') {
    std::fprintf(stderr, "error: %s expects a value\n", Name);
    std::exit(2);
  }
  return Value;
}

/// Parses \p Value, the value of \p Flag, as an unsigned number in base
/// \p Base (0 also takes 0x-prefixed hex).  A sign, a trailing character
/// or a value past 2^64 - 1 exits with a usage error: strtoull alone
/// would read "-1" as 2^64 - 1.
inline uint64_t parseUnsigned(const char *Value, const char *Flag,
                              int Base = 10) {
  char *End = nullptr;
  errno = 0;
  unsigned long long Parsed = std::strtoull(Value, &End, Base);
  if (!std::isdigit((unsigned char)Value[0]) || *End != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "error: %s expects an unsigned number\n", Flag);
    std::exit(2);
  }
  return uint64_t(Parsed);
}

/// parseUnsigned() for a flag whose variable is an `unsigned`: a decimal
/// value past 2^32 - 1 is a usage error too, never a truncated count.
inline unsigned parseUnsigned32(const char *Value, const char *Flag) {
  uint64_t Parsed = parseUnsigned(Value, Flag);
  if (Parsed > UINT_MAX) {
    std::fprintf(stderr, "error: %s expects a number up to %u\n", Flag,
                 UINT_MAX);
    std::exit(2);
  }
  return unsigned(Parsed);
}

/// Parses \p Value, the value of \p Flag, as a finite decimal number,
/// the whole string: above zero when \p Positive, at least zero
/// otherwise.  Anything else exits with a usage error: atof alone reads
/// "abc" as 0 and lets a negative scale through.
inline double parseDouble(const char *Value, const char *Flag,
                          bool Positive) {
  char *End = nullptr;
  errno = 0;
  double Parsed = std::strtod(Value, &End);
  bool InRange = Positive ? Parsed > 0 : Parsed >= 0;
  if (std::isspace((unsigned char)Value[0]) || End == Value || *End != '\0' ||
      errno == ERANGE || !std::isfinite(Parsed) || !InRange) {
    std::fprintf(stderr, "error: %s expects a %s number\n", Flag,
                 Positive ? "positive" : "non-negative");
    std::exit(2);
  }
  return Parsed;
}

/// Consumes `--jobs=<n>` / `--jobs <n>` at position \p I of the argument
/// list.  Returns true if Argv[I] was the jobs flag; \p I is advanced
/// past any consumed value token.  A non-numeric or zero count exits
/// with a usage error, matching the tools' flag handling.
inline bool parseJobs(int Argc, char **Argv, int &I, unsigned &Jobs) {
  const char *Value = flagValue(Argc, Argv, I, "--jobs");
  if (!Value)
    return false;
  char *End = nullptr;
  unsigned long Parsed = std::strtoul(Value, &End, 10);
  if (End == Value || *End != '\0' || Parsed == 0 || Parsed > 1024) {
    std::fprintf(stderr, "error: --jobs expects a count in [1, 1024]\n");
    std::exit(2);
  }
  Jobs = unsigned(Parsed);
  return true;
}

/// The usage-line fragment documenting the shared flag.
inline const char *jobsUsage() { return "[--jobs=<n>]"; }

/// The default job count when the flag is absent: the hardware
/// concurrency.
inline unsigned defaultJobs() { return ThreadPool::defaultJobs(); }

} // namespace toolopts
} // namespace spike

#endif // SPIKE_TOOLS_TOOLOPTIONS_H
