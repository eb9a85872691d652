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
/// Routines build one way.  buildCfgLists builds the CFG lists of a
/// routine subset back to back, one task per routine, and
/// spliceCfgLists swaps them into the program's arrays; buildProgram
/// builds every routine and splices into an empty program, and an
/// in-place re-analysis (interproc/Incremental.h) builds the routines a
/// patch reaches and splices them over their old lists.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_CFG_CFGBUILDER_H
#define SPIKE_CFG_CFGBUILDER_H

#include "binary/Image.h"
#include "cfg/Program.h"
#include "support/MemoryTracker.h"
#include "support/Splice.h"

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

/// Builds the routine/basic-block structure of \p Img.
///
/// The Program borrows Img.Code (Program::Code) and decodes words on
/// demand, so \p Img must outlive it, unchanged; passing a temporary
/// image does not compile.  A code section over MaxCodeWords throws
/// std::length_error carrying the [CodeTooLarge] Status text.
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
Program buildProgram(const Image &&Img, const CallingConv &Conv,
                     MemoryTracker *Mem = nullptr,
                     const CfgBuildOptions &Options = {},
                     ThreadPool *Pool = nullptr) = delete;

/// Computes the DEF and UBD register sets of every basic block
/// ("Initialization ... consists mainly of the time spent generating the
/// DEF and UBD sets for each basic block").
///
/// A call terminator's register uses (e.g. jsr_r's target register) are
/// included in UBD, but its def of ra is excluded: the ra def is modelled
/// on the call-return edge by the interprocedural analyses.  Routines are
/// independent, so \p Pool (when non-null) runs one task per routine.
void computeDefUbd(Program &Prog, ThreadPool *Pool = nullptr);

/// computeDefUbd for \p Routines alone.
void computeDefUbd(Program &Prog, std::span<const uint32_t> Routines,
                   ThreadPool *Pool);

/// Returns the index of the routine containing \p Address, or -1.
int32_t findRoutineByAddress(const Program &Prog, uint64_t Address);

/// Per-block flags for blocks reachable from any entrance of \p R by
/// intra-routine CFG arcs.
std::vector<bool> reachableBlocks(const Routine &R);

/// Every routine's entrances, as the code and the routines' quarantine
/// imply them: the primary, secondary symbols, and every direct call's
/// target.  Also which routines quarantined or unowned code may call.
struct EntranceScan {
  /// Routine r's entrances, ascending and distinct, are Entries[Begin[r],
  /// Begin[r + 1]).
  std::vector<uint64_t> Entries;
  std::vector<uint32_t> Begin;
  /// Per routine: Routine::CalledFromQuarantine.
  std::vector<uint8_t> CalledFromQuarantine;

  std::span<const uint64_t> entries(uint32_t R) const;
};

/// Scans \p Img's code for the entrances of \p Prog's routines, whose
/// bounds and quarantine must be final; one task per routine on \p Pool.
EntranceScan scanEntrances(const Image &Img, const Program &Prog,
                           ThreadPool *Pool = nullptr);

/// True when the words \p Old and \p New of one routine, scanned as
/// quarantined code when \p OldBad / \p NewBad, register the same
/// entrances and CalledFromQuarantine marks and are equally opaque, so
/// replacing one by the other leaves every routine's entrances alone.
bool sameEntranceFacts(const Program &Prog, std::span<const uint64_t> Old,
                       bool OldBad, std::span<const uint64_t> New,
                       bool NewBad);

/// The quarantine fields of a routine.
struct QuarantineState {
  bool Quarantined = false;
  DegradeReason Degrade = DegradeReason::None;
  std::string Reason;

  bool operator==(const QuarantineState &) const = default;
};

/// The quarantine of the routine named \p Name under \p Sorted (its
/// name lists sorted), when \p ValidationReason is the message of the
/// first validation finding that quarantines it (null if none): the
/// first cause wins, validation before forced before budget.
QuarantineState quarantineState(const std::string &Name,
                                const std::string *ValidationReason,
                                const CfgBuildOptions &Sorted);

/// \p Options with its name lists sorted, as quarantineState reads them.
CfgBuildOptions sortedNames(CfgBuildOptions Options);

/// The six CFG lists of a routine subset, each back to back in subset
/// order (block indices in them are routine-local), and each routine's
/// Routine::NumBranches.
struct CfgLists {
  FlatLists<BasicBlock> Blocks;
  FlatLists<uint32_t> Arcs;
  FlatLists<uint64_t> EntryAddresses;
  FlatLists<uint32_t> EntryBlocks;
  FlatLists<uint32_t> ExitBlocks;
  FlatLists<uint32_t> CallBlocks;
  std::vector<unsigned> NumBranches;
};

/// Builds the CFG lists of \p Routines, ascending, from \p Prog's code,
/// bounds and quarantine flags, one task per routine on \p Pool.  Each
/// routine's entrances, and the entrances its direct calls resolve
/// against, are \p Scan's when given and \p Prog's otherwise.  DEF/UBD
/// are left for computeDefUbd.
CfgLists buildCfgLists(const Program &Prog, std::span<const uint32_t> Routines,
                       const EntranceScan *Scan, ThreadPool *Pool = nullptr);

/// Swaps \p Lists, built for \p Routines, with those routines' lists in
/// \p Prog's six arrays, and their NumBranches, shifting the lists of
/// later routines, then re-points every routine's spans.  Afterwards
/// \p Lists holds the replaced lists, so a second call puts them back.
void spliceCfgLists(Program &Prog, std::span<const uint32_t> Routines,
                    CfgLists &Lists);

/// Replaces \p Prog's Section 3.5 annotations at addresses [Begin, End)
/// with \p Img's usable ones there: those on the matching instruction
/// inside a routine that is not quarantined.
void copyAnnotations(Program &Prog, const Image &Img, uint64_t Begin,
                     uint64_t End);

/// Builds Prog.Calls and both solver schedules from the final routines.
void buildSchedules(Program &Prog, ThreadPool *Pool = nullptr);

/// The bytes buildProgram charges for routine \p R, and for the call
/// graph and schedules of \p Prog.
uint64_t routineCfgBytes(const Routine &R);
uint64_t scheduleBytes(const Program &Prog);

} // namespace spike

#endif // SPIKE_CFG_CFGBUILDER_H
