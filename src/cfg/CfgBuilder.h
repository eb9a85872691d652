//===- cfg/CfgBuilder.h - Image -> Program CFG construction ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the decoded Program model (routines + basic blocks) from an
/// executable Image, and computes per-block DEF/UBD sets.
///
/// This is the "CFG Build" and "Initialization" part of the analysis whose
/// time Figure 13 reports.  Construction follows standard leader-based
/// block discovery, with the paper's convention that call instructions end
/// basic blocks, plus:
///   - multiway-branch successors extracted from the image's jump tables
///     (Section 3.5),
///   - indirect jumps whose targets cannot be determined marked
///     UnresolvedJump so the analyses can assume all registers live,
///   - call targets that are not named entry points added as extra
///     routine entrances (a post-link optimizer must discover these),
///   - routines whose code fails semantic validation *quarantined*:
///     modelled as a single UnresolvedJump block with worst-case DEF/UBD
///     (exactly how Section 3.5 treats unknowable code) instead of
///     rejecting the whole image.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_CFG_CFGBUILDER_H
#define SPIKE_CFG_CFGBUILDER_H

#include "binary/Image.h"
#include "cfg/Program.h"
#include "support/MemoryTracker.h"

namespace spike {

class ThreadPool;

/// Options for CFG construction.
struct CfgBuildOptions {
  /// Routine names to quarantine even if their code validates.  Used by
  /// the fuzzer's soundness oracle (and tests) to check that degraded
  /// summaries stay conservative relative to exact ones.
  std::vector<std::string> ForceQuarantine;

  /// Routine names to degrade because their SCC group blew its analysis
  /// budget on a previous attempt (DegradeReason::Budget).  Same
  /// worst-case Section 3.5 collapse as quarantine; distinct reason so
  /// lint (SL013) and run reports can tell "the code is garbage" from
  /// "the budget was too small".
  std::vector<std::string> BudgetDegrade;
};

/// Decodes \p Img and builds the routine/basic-block structure.
///
/// The image need *not* verify(): semantic defects are absorbed by
/// quarantining the offending routines (their findings are recorded in
/// Program::Validation).  DEF/UBD sets are *not* filled in; call
/// computeDefUbd afterwards (the split matches the paper's stage
/// breakdown).  \p Mem, when non-null, is charged for the analysis data
/// structures created here, serially and in routine order.  Validation,
/// decoding, entrance discovery, block building and call resolution run
/// one task per routine on \p Pool (inline when null); cross-routine
/// facts merge serially in routine order, so the Program is identical at
/// every job count.  The Program leaves with its call graph and both
/// solver schedules built (Program::Calls, CalleeFirst, CallerFirst).
Program buildProgram(const Image &Img, const CallingConv &Conv,
                     MemoryTracker *Mem = nullptr,
                     const CfgBuildOptions &Options = {},
                     ThreadPool *Pool = nullptr);

/// Computes the DEF and UBD register sets of every basic block
/// ("Initialization ... consists mainly of the time spent generating the
/// DEF and UBD sets for each basic block").
///
/// A call terminator's register uses (e.g. jsr_r's target register) are
/// included in UBD, but its def of ra is excluded: the ra def is modelled
/// on the call-return edge by the interprocedural analyses.  Routines are
/// independent, so \p Pool (when non-null) runs one task per routine.
void computeDefUbd(Program &Prog, ThreadPool *Pool = nullptr);

/// Returns the index of the routine containing \p Address, or -1.
int32_t findRoutineByAddress(const Program &Prog, uint64_t Address);

} // namespace spike

#endif // SPIKE_CFG_CFGBUILDER_H
