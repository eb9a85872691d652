//===- opt/SpillRemoval.h - Remove spills around calls --------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 1(c) optimization: a compiler that could not see the callee
/// spilled a caller-saved register around a call; the interprocedural
/// call-killed set reveals the call does not actually overwrite it, so
/// the spill store/reload pair is deleted.
///
/// Pattern recognized (store in the call's block, reload at the return
/// point):
///
///     stq  Rt, k(sp)
///     ...               (no redef of Rt, no other access to k(sp))
///     jsr  P            [ Rt not in call-killed(P) ]
///     ldq  Rt, k(sp)
///
/// Both memory operations are replaced by nops.  The stack slot is dead
/// afterwards unless other code touches it, which the pass rules out by
/// scanning the routine for other accesses to the same slot.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_OPT_SPILLREMOVAL_H
#define SPIKE_OPT_SPILLREMOVAL_H

#include "binary/Image.h"
#include "cfg/Program.h"
#include "psg/Summaries.h"

#include <cstdint>
#include <vector>

namespace spike {

/// Result of one spill-removal run.
struct SpillRemovalStats {
  uint64_t RemovedPairs = 0;
  std::vector<uint64_t> DeletedAddrs;
};

/// Removes redundant spills around calls in \p Img (described by \p Prog,
/// analyzed into \p Summaries).
/// \p Prog must be built from a copy of \p Img taken before the pass: a
/// Program borrows its image's words, and they must not change under it
/// while the pass rewrites \p Img.
SpillRemovalStats removeCallSpills(Image &Img, const Program &Prog,
                                   const InterprocSummaries &Summaries);

} // namespace spike

#endif // SPIKE_OPT_SPILLREMOVAL_H
