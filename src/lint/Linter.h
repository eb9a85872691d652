//===- lint/Linter.h - Whole-program binary diagnostics -------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spike-lint driver: runs the interprocedural analysis on an Image
/// and evaluates the rule catalogue of LintRules.h over the results.
///
/// Two verification services ride on the same machinery:
///
///   - crossCheckSummaries() compares the PSG summaries against the
///     CFG-level two-phase reference (interproc/CfgTwoPhase) on the same
///     program and reports every differing set as an SL009 diagnostic —
///     an executable refutation check for the analysis itself.
///
///   - newDiagnostics() diffs two lint runs, keyed by (rule, routine),
///     so a transformation can be audited: optimizing an image must not
///     introduce findings at Warning severity or above.  The optimizer
///     pipeline exposes this as a per-round self-check
///     (PipelineOptions::LintSelfCheck) and spike-lint --verify performs
///     the full pre/post audit from the command line.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_LINT_LINTER_H
#define SPIKE_LINT_LINTER_H

#include "binary/Image.h"
#include "isa/CallingConv.h"
#include "lint/Diagnostic.h"
#include "psg/Analyzer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spike {

/// Options for one lint run.
struct LintOptions {
  /// Also cross-check the PSG summaries against the CFG two-phase
  /// reference (adds SL009 errors on mismatch).  Quadratic-ish in
  /// program size; intended for CI and fixtures, not 30k-routine images.
  bool Verify = false;

  /// Bitmask of RuleId values to skip (bit i disables rule i).
  uint32_t DisabledRules = 0;

  /// The severity floor: a rule whose severity is below it does not run.
  /// Severity is fixed per rule (ruleSeverity), so skipping such a rule
  /// yields exactly the result of running it and dropping its output.
  Severity MinSeverity = Severity::Note;

  /// Registers assumed defined before the program's first instruction
  /// (loader-provided state).  Defaults to sp/gp/ra/zero of \c Conv at
  /// lint time; a non-empty set here overrides that.
  RegSet EntryDefinedRegs;

  /// Worker lanes for the analysis lintImage runs (the --jobs flag);
  /// diagnostics are identical for every value.
  unsigned Jobs = 1;

  /// Returns true if \p Rule runs: it is not disabled and its severity
  /// reaches MinSeverity.
  bool ruleEnabled(RuleId Rule) const {
    return !(DisabledRules >> unsigned(Rule) & 1) &&
           ruleSeverity(Rule) >= MinSeverity;
  }

  /// Disables \p Rule.
  void disableRule(RuleId Rule) { DisabledRules |= 1u << unsigned(Rule); }
};

/// Everything one lint run produces.
struct LintResult {
  std::vector<Diagnostic> Diags;

  /// Returns the number of diagnostics at exactly \p Sev.
  unsigned count(Severity Sev) const;

  /// Returns true if any diagnostic is an Error.
  bool hasErrors() const { return count(Severity::Error) != 0; }
};

/// Lints \p Img end to end: runs the interprocedural analysis, evaluates
/// every enabled rule.  A malformed image is analyzed anyway — the CFG
/// builder quarantines defective routines and models them as unknowable
/// code — and each quarantine is reported as an SL011 warning with its
/// root cause.  (SL000 remains the spike-lint CLI's code for files that
/// cannot be loaded at all.)
LintResult lintImage(const Image &Img, const CallingConv &Conv = {},
                     const LintOptions &Opts = {});

/// Evaluates the rules over an analysis that already ran (no re-analysis;
/// \p Analysis must describe \p Img).
LintResult lintAnalysis(const Image &Img, const AnalysisResult &Analysis,
                        const LintOptions &Opts = {});

/// Compares \p Analysis's PSG summaries with the CfgTwoPhase reference on
/// the same program.  Returns one SL009 error per differing set; empty
/// means the two independent solvers agree bit-for-bit.
std::vector<Diagnostic> crossCheckSummaries(const AnalysisResult &Analysis);

/// Returns the diagnostics of \p After at severity >= \p MinSev whose
/// (rule, routine-name) key has no diagnostic of the same key in
/// \p Before: the findings a transformation *introduced*.  Keys ignore
/// addresses because transforms legitimately move code.
std::vector<Diagnostic> newDiagnostics(const LintResult &Before,
                                       const LintResult &After,
                                       Severity MinSev = Severity::Warning);

} // namespace spike

#endif // SPIKE_LINT_LINTER_H
