//===- opt/DeadDefElim.h - Interprocedural dead-def elimination -*- C++-*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deletes register definitions that are dead under the interprocedural
/// summaries — the Figure 1(a)/(b) optimizations:
///
///   (a) a value computed for return is deleted when live-at-exit shows no
///       caller uses it,
///   (b) an argument set up before a call is deleted when the callee's
///       call-used set shows the callee never reads it.
///
/// Both reduce to one rule: a side-effect-free register definition whose
/// destination is not live immediately after it can be removed.  Liveness
/// is computed per routine with each call replaced by its call-summary
/// instruction and each exit using its live-at-exit set (Section 2).
/// "Impossible in a traditional compiler" because the summaries cross
/// separately compiled modules.
///
/// Deleted instructions are overwritten with nops so that no address in
/// the image changes; a production rewriter would compact afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_OPT_DEADDEFELIM_H
#define SPIKE_OPT_DEADDEFELIM_H

#include "binary/Image.h"
#include "cfg/Program.h"
#include "psg/Summaries.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <vector>

namespace spike {

/// Result of one dead-def elimination run.
struct DeadDefStats {
  uint64_t DeletedInsts = 0;

  /// Addresses that were overwritten with nops (for tests/reports).
  std::vector<uint64_t> DeletedAddrs;
};

/// Runs dead-def elimination over every routine of \p Prog, rewriting
/// \p Img in place.  \p Summaries must come from an analysis of \p Prog.
/// \p Prog must be built from a copy of \p Img taken before the pass: a
/// Program borrows its image's words, and they must not change under it
/// while the pass rewrites \p Img.
///
/// When \p Records is non-null, the pass attributes its decisions: one
/// "applied" record per deleted definition and one "rejected" record per
/// dead-looking candidate an interprocedural fact saved (a callee that
/// reads the register, a caller that needs it after return, an unknown-
/// code boundary).  The transformation itself is identical either way.
DeadDefStats
eliminateDeadDefs(Image &Img, const Program &Prog,
                  const InterprocSummaries &Summaries,
                  std::vector<telemetry::TransformRecord> *Records = nullptr);

} // namespace spike

#endif // SPIKE_OPT_DEADDEFELIM_H
