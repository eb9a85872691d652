//===- opt/DeadStoreElim.h - Interprocedural dead-store elim ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deletes stack-slot stores whose value no later load can observe —
/// the memory analogue of dead-def elimination.  The verdict comes from
/// the interprocedural slot dataflow (slice/SlotFlow.h): a store is
/// dead only when the slot is not live after it on any path, counting
/// loads in callees (slot MAY-USE translated to this frame) and loads
/// in callers (slot live-at-exit).  Stores in routines that break frame
/// discipline are never touched, and a single reachable sp escape
/// disables the pass program-wide (GlobalEscape).
///
/// Deleted instructions are overwritten with nops so that no address in
/// the image changes, matching every other pass in the pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_OPT_DEADSTOREELIM_H
#define SPIKE_OPT_DEADSTOREELIM_H

#include "binary/Image.h"
#include "cfg/Program.h"
#include "slice/SlotFlow.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <vector>

namespace spike {

/// Result of one dead-store elimination run.
struct DeadStoreStats {
  uint64_t DeletedInsts = 0;

  /// Addresses that were overwritten with nops (for tests/reports).
  std::vector<uint64_t> DeletedAddrs;
};

/// Runs dead-store elimination over every routine of \p Prog, rewriting
/// \p Img in place.  \p Flow must be the solved slot dataflow of \p Prog.
/// \p Prog must be built from a copy of \p Img taken before the pass: a
/// Program borrows its image's words, and they must not change under it
/// while the pass rewrites \p Img.
///
/// When \p Records is non-null, the pass attributes its decisions: one
/// "applied" record per deleted store and one "rejected" record per
/// store an interprocedural fact keeps alive (a callee or caller that
/// may read the slot).  The transformation itself is identical either
/// way.
DeadStoreStats eliminateDeadStackStores(
    Image &Img, const Program &Prog, const SlotFlowResult &Flow,
    std::vector<telemetry::TransformRecord> *Records = nullptr);

} // namespace spike

#endif // SPIKE_OPT_DEADSTOREELIM_H
