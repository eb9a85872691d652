//===- tools/ToolBudget.h - Shared resource-budget plumbing ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every spike tool accepts the same resource-governance flags:
///
///   --deadline-ms=<ms>      wall-clock budget per analysis attempt
///   --mem-budget-mb=<mb>    ceiling on live analysis bytes
///   --max-iters=<n>         fixpoint-iteration cap per SCC group
///                           (the only deterministic trigger)
///   --inject-fault=<kind>@<n>
///                           schedule one deterministic fault:
///                           alloc@N, task-throw@N, deadline-skew@N,
///                           cancel@N
///
/// (two-token forms work too).  A blown budget degrades the blown SCC
/// group's routines to Section 3.5 unknowable summaries and retries —
/// sound, never wrong — and the tool reports what was degraded.  When
/// degradation cannot help (cancellation, a budget too small for even a
/// fully degraded run, an injected environment fault), the tool exits
/// with a structured Status error via guardedMain() below.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TOOLS_TOOLBUDGET_H
#define SPIKE_TOOLS_TOOLBUDGET_H

#include "ToolOptions.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace spike {
namespace toolbudget {

/// Everything the shared flags configure.
struct Options {
  BudgetOptions Budget;
  faultinject::FaultPlan Fault; ///< Kind None when --inject-fault absent.

  bool any() const {
    return Budget.any() || Fault.Kind != faultinject::FaultKind::None;
  }
};

namespace detail {

inline uint64_t parseCount(const char *Value, const char *Flag) {
  uint64_t Parsed = toolopts::parseUnsigned(Value, Flag);
  if (Parsed == 0) {
    std::fprintf(stderr, "error: %s expects a positive count\n", Flag);
    std::exit(2);
  }
  return Parsed;
}

} // namespace detail

/// Consumes one budget/fault flag at position \p I of the argument list;
/// returns true if Argv[I] was one of them.  Malformed values exit with
/// a usage error, matching the tools' flag handling.
inline bool parseFlag(int Argc, char **Argv, int &I, Options &Opts) {
  using toolopts::flagValue;
  if (const char *V = flagValue(Argc, Argv, I, "--deadline-ms")) {
    Opts.Budget.DeadlineMs = detail::parseCount(V, "--deadline-ms");
    return true;
  }
  if (const char *V = flagValue(Argc, Argv, I, "--mem-budget-mb")) {
    Opts.Budget.MemBudgetMB = detail::parseCount(V, "--mem-budget-mb");
    return true;
  }
  if (const char *V = flagValue(Argc, Argv, I, "--max-iters")) {
    Opts.Budget.MaxIterations = detail::parseCount(V, "--max-iters");
    return true;
  }
  if (const char *V = flagValue(Argc, Argv, I, "--inject-fault")) {
    std::string Err;
    if (!faultinject::parsePlan(V, Opts.Fault, Err)) {
      std::fprintf(stderr, "error: --inject-fault: %s\n", Err.c_str());
      std::exit(2);
    }
    return true;
  }
  return false;
}

/// The usage-line fragment documenting the shared flags.
inline const char *usage() {
  return "[--deadline-ms=<ms>] [--mem-budget-mb=<mb>] [--max-iters=<n>] "
         "[--inject-fault=<kind>@<n>]";
}

/// Owns the run's fault injector (installed for the session's lifetime
/// when a fault was scheduled) and the cooperative cancellation token.
/// Construct one in main() after flag parsing, before any analysis.
class Session {
public:
  explicit Session(const Options &Opts) {
    if (Opts.Fault.Kind != faultinject::FaultKind::None) {
      Inj.emplace(Opts.Fault);
      Installed.emplace(*Inj);
    }
  }

  /// The token a governor polls, or null when no fault is scheduled:
  /// then nothing can cancel the run, and a null token leaves a governor
  /// without a budget disabled.
  CancellationToken *token() { return Inj ? &Token : nullptr; }

private:
  std::optional<faultinject::Injector> Inj;
  std::optional<faultinject::Scope> Installed;
  CancellationToken Token;
};

/// Prints \p S as the tool's structured error and returns the error exit
/// code.
inline int exitError(const Status &S) {
  std::fprintf(stderr, "error: %s\n", S.str().c_str());
  return 1;
}

/// Runs \p Body (the tool's real main) under the robustness contract:
/// every budget or injected-fault failure mode becomes a structured
/// Status error on stderr and exit code 1, never an uncaught exception.
template <typename Fn> int guardedMain(Fn &&Body) {
  try {
    return Body();
  } catch (const BudgetBlownError &E) {
    return exitError(E.toStatus());
  } catch (const faultinject::TaskFault &F) {
    return exitError(Status::error(ErrCode::InjectedFault, F.what()));
  } catch (const std::bad_alloc &) {
    // A scheduled alloc fault and a genuine OOM take the same exit: the
    // process ran out of the memory it was allowed.
    return exitError(Status::error(
        ErrCode::MemBudgetExceeded,
        "allocation failed while analyzing (out of memory or injected "
        "alloc fault)"));
  }
}

} // namespace toolbudget
} // namespace spike

#endif // SPIKE_TOOLS_TOOLBUDGET_H
