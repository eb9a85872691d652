//===- psg/Summaries.h - Extracted per-routine summaries ------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The final product of the analysis: the Section 2 dataflow information
/// Spike keeps per routine so that routines can then be analyzed and
/// optimized one at a time:
///
///   - call-used / call-defined / call-killed per entrance,
///   - live-at-entry per entrance,
///   - live-at-exit per exit.
///
/// Optimizations consume these through callEffect(), which renders the
/// summary of a specific call site as the "call-summary instruction" of
/// Figure 3: the registers it uses and the registers it (must) define,
/// with the caller-side ra handling already applied.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PSG_SUMMARIES_H
#define SPIKE_PSG_SUMMARIES_H

#include "cfg/Program.h"
#include "dataflow/Liveness.h"
#include "psg/PsgGraph.h"
#include "support/RegSet.h"

#include <vector>

namespace spike {

/// What a call to one routine entrance does, as seen by a caller
/// (Section 2; callee-saved registers already filtered per Section 3.4).
struct CallSummary {
  RegSet Used;    ///< call-used: may be used before being defined.
  RegSet Defined; ///< call-defined: must be defined.
  RegSet Killed;  ///< call-killed: may be overwritten.

  bool operator==(const CallSummary &) const = default;
};

/// Summaries for one routine.
struct RoutineResults {
  /// Per entrance (parallel to Routine::EntryAddresses).
  std::vector<CallSummary> EntrySummaries;

  /// Registers live at each entrance (parallel to EntryAddresses).
  std::vector<RegSet> LiveAtEntry;

  /// Registers live at each exit (parallel to Routine::ExitBlocks).
  std::vector<RegSet> LiveAtExit;

  bool operator==(const RoutineResults &) const = default;
};

/// Whole-program summaries plus the lookups optimizations need.
struct InterprocSummaries {
  std::vector<RoutineResults> Routines;

  /// Bit-exact equality: what the jobs sweeps and the incremental oracles
  /// compare.
  bool operator==(const InterprocSummaries &) const = default;

  /// Returns the liveness effect of the call that terminates block
  /// \p BlockIndex of routine \p RoutineIndex: Used excludes ra (the call
  /// instruction itself defines it) and Defined includes ra.
  CallEffect callEffect(const Program &Prog, uint32_t RoutineIndex,
                        uint32_t BlockIndex) const;

  /// Returns the registers the call terminating \p BlockIndex may
  /// overwrite (call-killed plus ra), the set Figure 1(c)/(d) consult.
  RegSet callKilled(const Program &Prog, uint32_t RoutineIndex,
                    uint32_t BlockIndex) const;

  /// Returns the live-at-exit set of the Return block \p BlockIndex.
  RegSet liveAtExitOfBlock(const Program &Prog, uint32_t RoutineIndex,
                           uint32_t BlockIndex) const;
};

/// Reads the converged node values out of \p Psg (phases 1 and 2 must
/// have run) and builds the per-routine summary tables.
/// \p SavedPerRoutine is the Section 3.4 filter set per routine.
InterprocSummaries extractSummaries(const Program &Prog,
                                    const ProgramSummaryGraph &Psg,
                                    const std::vector<RegSet> &SavedPerRoutine);

/// The summary table of routine \p RoutineIndex alone, whose Section 3.4
/// filter set is \p Saved.
RoutineResults extractRoutineSummaries(const Program &Prog,
                                       const ProgramSummaryGraph &Psg,
                                       RegSet Saved, uint32_t RoutineIndex);

} // namespace spike

#endif // SPIKE_PSG_SUMMARIES_H
