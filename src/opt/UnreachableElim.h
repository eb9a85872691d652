//===- opt/UnreachableElim.h - Dead routine removal -----------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program unreachable-routine elimination: a staple of post-link
/// optimizers (only there is the entire program visible, so "no one can
/// ever call this" becomes provable).
///
/// Roots are the program entry routine and every address-taken routine
/// (an indirect call could reach those).  Everything not reachable from
/// a root through direct calls is dead: its body is rewritten to a
/// single ret followed by nops.  A production rewriter would reclaim the
/// space outright; keeping addresses stable here matches the other
/// passes and keeps the image verifiable.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_OPT_UNREACHABLEELIM_H
#define SPIKE_OPT_UNREACHABLEELIM_H

#include "binary/Image.h"
#include "cfg/Program.h"

#include <cstdint>
#include <vector>

namespace spike {

/// Result of one unreachable-elimination run.
struct UnreachableElimStats {
  uint64_t RoutinesRemoved = 0;
  uint64_t InstsRemoved = 0;

  /// Names of the removed routines (for reports and tests).
  std::vector<std::string> RemovedNames;
};

/// Rewrites every unreachable routine of \p Prog in \p Img.
/// \p Prog must be built from a copy of \p Img taken before the pass: a
/// Program borrows its image's words, and they must not change under it
/// while the pass rewrites \p Img.
UnreachableElimStats eliminateUnreachableRoutines(Image &Img,
                                                  const Program &Prog);

} // namespace spike

#endif // SPIKE_OPT_UNREACHABLEELIM_H
