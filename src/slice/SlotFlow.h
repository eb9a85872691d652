//===- slice/SlotFlow.h - Stack-slot memory dataflow ----------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural stack-slot dataflow: the memory analogue of the
/// paper's register summaries, solved by the same two-phase schedule.
///
/// Every sp-relative access `imm(sp)` names a frame slot.  Slots are
/// tracked as word offsets from each routine's *entry* sp (SlotSet):
/// the prologue's `subi sp, sp, n` makes the routine's own slots
/// negative offsets, while non-negative offsets reach into the caller's
/// frame.  A per-routine forward pass first recovers the sp delta at
/// every block (constant-propagation over Adjust effects); phase 1 then
/// propagates slot MAY-USE / MAY-DEF facts callee-first across the call
/// graph, translating callee facts into caller coordinates by the delta
/// at each call site; phase 2 propagates slot liveness caller-first,
/// giving each routine the set of caller slots still live after it
/// returns and each block its slot live-in/live-out sets.  Both phases
/// run over the SCC condensation levels exactly like the register
/// engine, so the facts are bit-identical at every --jobs count.
///
/// Soundness model (the frame-discipline contract, DESIGN.md §12):
/// memory below the current sp is dead, frames are only addressed
/// sp-relatively, and absolute stack addresses are never forged.  Under
/// that contract the analysis is exact up to three conservative
/// collapses: a routine that breaks frame discipline locally (sp
/// escape, unknown delta, unresolved control flow, quarantine) becomes
/// Opaque — all its facts are top; an unknowable callee (indirect call,
/// opaque or quarantined callee) folds top into its caller's facts at
/// the call site; and if any reachable code leaks an sp value or any
/// routine is quarantined, escaped frame pointers may roam anywhere, so
/// every routine's facts collapse to top (GlobalEscape).
///
/// Every solve is from scratch: lint, spike-slice and the optimizer's
/// dead-store pass each solve their own copy, and spike-serve derives
/// its copy on the first query that reads it, dropping it when a patch
/// changes the program.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SLICE_SLOTFLOW_H
#define SPIKE_SLICE_SLOTFLOW_H

#include "cfg/Program.h"
#include "support/SlotSet.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <vector>

namespace spike {

/// Sentinel: the sp delta of a block is unknown (or the block is
/// unreachable from every entrance, in which case no fact is needed).
inline constexpr int64_t UnknownDelta = INT64_MIN;

/// Slot facts of one routine, all in entry-sp coordinates.
struct RoutineSlotFacts {
  /// True if the routine broke frame discipline (or is quarantined):
  /// every set below is top and no store inside it is ever a dead-store
  /// candidate.
  bool Opaque = false;

  /// Slots the routine (or any callee) may read / may write.  The
  /// non-negative part is what callers see; negative offsets are the
  /// routine's own frame, which dies at return.
  SlotSet MayUse;
  SlotSet MayDef;

  /// Slots still live after the routine returns, from every caller's
  /// perspective (non-negative offsets only, or top).
  SlotSet LiveAtExit;

  /// Per block: the sp delta on entry / after the terminator, or
  /// UnknownDelta.  In a non-Opaque routine every reachable block has a
  /// known delta; UnknownDelta marks unreachable blocks.
  std::vector<int64_t> DeltaIn;
  std::vector<int64_t> DeltaOut;

  /// Per block: slot liveness at block entry / exit (phase 2).
  std::vector<SlotSet> BlockLiveIn;
  std::vector<SlotSet> BlockLiveOut;

  bool operator==(const RoutineSlotFacts &) const = default;
};

/// The solved slot dataflow of a whole program.
struct SlotFlowResult {
  std::vector<RoutineSlotFacts> Routines;

  /// True if an sp value escapes somewhere reachable (or any routine is
  /// quarantined): every routine's sets are top.
  bool GlobalEscape = false;

  /// Number of routines with Opaque facts.
  uint64_t OpaqueRoutines = 0;

  /// Bit-exact equality, as the serve and jobs oracles compare.
  bool operator==(const SlotFlowResult &) const = default;

  /// The slot analogue of the register call-used set: slots (in the
  /// *caller's* entry coordinates) the call in \p Block of \p Routine
  /// may read.  Top for indirect calls and unknowable callees.
  SlotSet callMayUse(const Program &Prog, uint32_t Routine,
                     uint32_t Block) const;

  /// The slot analogue of call-killed: caller-coordinate slots the call
  /// in \p Block may write.
  SlotSet callMayDef(const Program &Prog, uint32_t Routine,
                     uint32_t Block) const;
};

class ResourceGovernor;

/// Solves the slot dataflow of \p Prog on \p Pool (or inline when null).
/// Results are bit-identical for every pool size.  When \p Gov is
/// non-null, each SCC group's fixpoint sweep polls it per iteration and
/// throws BudgetBlownError naming the group's routines on a non-Ok
/// verdict.
SlotFlowResult solveSlotFlow(const Program &Prog, ThreadPool *Pool,
                             const ResourceGovernor *Gov = nullptr);

/// Convenience overload owning a pool with \p Jobs lanes.
SlotFlowResult solveSlotFlow(const Program &Prog, unsigned Jobs = 1);

} // namespace spike

#endif // SPIKE_SLICE_SLOTFLOW_H
