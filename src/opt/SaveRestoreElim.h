//===- opt/SaveRestoreElim.h - Callee-saved reallocation ------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 1(d) optimization: a value the compiler placed in a
/// callee-saved register Rs (forcing a save and restore around the whole
/// routine) is moved to a caller-saved register Rt that the summaries
/// prove no call in the routine kills or reads, and the save/restore pair
/// is deleted.  Per [Cohn96], call overhead including callee-saved
/// save/restores can reach 16% of execution time in large applications,
/// so this is the highest-value use of the call-killed summaries.
///
/// Conditions checked for each saved register Rs and candidate Rt:
///   - Rs is proven saved-and-restored (cfg/SaveRestore),
///   - Rt is a calling-standard temporary, never used or defined anywhere
///     in the routine,
///   - Rt is not in call-killed and not in call-used of any call in the
///     routine (so no callee reads or writes it),
///   - the routine has no unresolved indirect jumps,
///   - Rs's stack slot is accessed only by the save/restore instructions.
///
/// The rewrite renames every occurrence of Rs in the routine to Rt and
/// replaces the save/restore memory operations with nops.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_OPT_SAVERESTOREELIM_H
#define SPIKE_OPT_SAVERESTOREELIM_H

#include "binary/Image.h"
#include "cfg/Program.h"
#include "cfg/SaveRestore.h"
#include "psg/Summaries.h"

#include <cstdint>
#include <vector>

namespace spike {

/// Result of one save/restore-elimination run.
struct SaveRestoreElimStats {
  uint64_t EliminatedRegs = 0;  ///< Callee-saved registers reallocated.
  uint64_t DeletedInsts = 0;    ///< Save/restore memory ops removed.
  uint64_t RenamedInsts = 0;    ///< Instructions rewritten Rs -> Rt.
};

/// Runs the reallocation over every routine of \p Prog, rewriting \p Img.
/// \p Prog must be built from a copy of \p Img taken before the pass: a
/// Program borrows its image's words, and they must not change under it
/// while the pass rewrites \p Img.
SaveRestoreElimStats
eliminateSaveRestores(Image &Img, const Program &Prog,
                      const InterprocSummaries &Summaries);

} // namespace spike

#endif // SPIKE_OPT_SAVERESTOREELIM_H
