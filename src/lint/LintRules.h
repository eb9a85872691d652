//===- lint/LintRules.h - The spike-lint rule catalogue -------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Individual lint rules.  Every rule consumes the results of the normal
/// interprocedural analysis (the paper's summaries, the call graph, the
/// Section 3.4 save/restore sets) — no rule re-derives facts the
/// optimizer does not already have, which is the point: once the PSG
/// makes whole-program dataflow cheap, *checking* comes for free.
///
/// The catalogue:
///
///   SL001 undef-read       A caller-saved register is live at the entry
///                          of the program entry routine: something may
///                          read it before anything defines it.  Callee-
///                          saved registers are excluded (reading those
///                          at startup is SL002's concern) as are the
///                          runtime-provided sp/gp/ra/zero.
///   SL002 cc-clobber       A routine's entry MAY-DEF (pre-filter)
///                          contains a callee-saved register the routine
///                          does not save and restore (Section 3.4 set):
///                          callers lose state the standard guarantees.
///   SL003 dead-def         A pure register definition whose target is
///                          dead under the interprocedural summaries —
///                          DeadDefElim's condition reported instead of
///                          transformed.
///   SL004 unreachable-routine   No direct-call path from the program
///                          entry or any address-taken routine.
///   SL005 unreachable-block     A block of a *reachable* routine that no
///                          entrance reaches intra-procedurally.
///   SL006 cf-jump-table    A jump-table target lies outside the routine
///                          containing the multiway branch.
///   SL007 cf-mid-call      A direct call targets a mid-routine address
///                          no symbol names (an entrance that exists only
///                          because the call created it).
///   SL008 cf-fallthrough   A reachable block falls off the end of its
///                          routine (no terminator, no successor).
///   SL012 dead-stack-store A stack-slot store no later load — in this
///                          routine, any callee, or any caller — can
///                          observe under the interprocedural slot
///                          dataflow.  DeadStoreElim's condition
///                          reported instead of transformed.
///   SL013 budget-degraded  A routine analyzed as Section 3.5 unknowable
///                          code not because it is unknowable but because
///                          its SCC group blew the analysis budget: the
///                          results here are sound but maximally
///                          conservative, and a larger budget would
///                          sharpen them.
///
/// Each check opens a `lint.<name>` telemetry span (`lint.dead-def`,
/// `lint.control-flow`, ...) on entry, so a RunReport's phases show
/// per-check cost and a check that does not run shows none.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_LINT_LINTRULES_H
#define SPIKE_LINT_LINTRULES_H

#include "binary/Image.h"
#include "cfg/CallGraph.h"
#include "lint/Diagnostic.h"
#include "psg/Analyzer.h"

#include <vector>

namespace spike {

struct LintOptions;

/// Everything a rule may consult, plus the sink it appends to.
struct LintContext {
  const Image &Img;
  const AnalysisResult &Analysis;
  const CallGraph &Graph;
  const LintOptions &Opts;
  std::vector<Diagnostic> &Out;
};

/// SL001: possibly-undefined register reads at program startup.
void checkUndefEntryReads(LintContext &Ctx);

/// SL002: calling-convention clobbers of callee-saved registers.
void checkCalleeSavedClobbers(LintContext &Ctx);

/// SL003: dead definitions (unobserved stores into registers).
void checkDeadDefs(LintContext &Ctx);

/// SL004 + SL005: unreachable routines and blocks.
void checkUnreachable(LintContext &Ctx);

/// SL006 + SL007 + SL008: suspicious control flow.
void checkControlFlow(LintContext &Ctx);

/// SL011: routines quarantined by semantic validation (with the root
/// cause) and image-level degradations the CFG builder applied.
void checkQuarantine(LintContext &Ctx);

/// SL012: dead stack-slot stores (unobserved stores into frame slots),
/// classified by the interprocedural slot dataflow (slice/DeadStore.h).
void checkDeadStackStores(LintContext &Ctx);

/// SL013: routines degraded to unknowable summaries by the analysis
/// budget (DegradeReason::Budget) — sound, but a larger budget would
/// sharpen them.  SL011 covers the genuinely unknowable quarantines.
void checkBudgetDegraded(LintContext &Ctx);

/// One pure register definition that *looks* dead locally: its target is
/// dead under an optimistic intraprocedural liveness (nothing live at
/// exits, nothing live at unknown jumps, calls consume nothing).  The
/// interprocedural verdict then splits the candidates: Dead ones are
/// exactly what DeadDefElim rewrites; the rest are saved by an
/// interprocedural fact (a callee that reads the register, a caller that
/// needs it after return, an unknown-code boundary) — the interesting
/// rejections the optimizer attributes in its run report.
struct DeadDefCandidate {
  uint64_t Address = 0;
  uint32_t RoutineIndex = 0;
  uint32_t BlockIndex = 0;
  unsigned Reg = 0;

  /// True if the destination is dead under the real \p Summaries too
  /// (DeadDefElim's condition); false if interprocedural facts keep it
  /// live.
  bool Dead = false;
};

/// Every dead-looking pure definition in \p Prog, classified against
/// \p Summaries (see DeadDefCandidate).  Optimistic liveness only uses
/// smaller boundary sets, so every interprocedurally dead definition is a
/// candidate: findDeadDefs() is the Dead subset of this list.
std::vector<DeadDefCandidate>
findDeadDefCandidates(const Program &Prog,
                      const InterprocSummaries &Summaries);

/// The address of every pure register definition in \p Prog whose
/// destination is dead under \p Summaries.  Shared by the SL003 rule and
/// by opt/DeadDefElim (which rewrites exactly these addresses to nops).
std::vector<uint64_t> findDeadDefs(const Program &Prog,
                                   const InterprocSummaries &Summaries);

} // namespace spike

#endif // SPIKE_LINT_LINTRULES_H
