//===- cfg/Program.h - Decoded program, routines, basic blocks -*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded whole-program model the analyses run over.
///
/// A Program is built from an Image by the CFG builder: the code section is
/// partitioned into routines at primary symbol addresses, and each routine
/// is split into basic blocks.  The Program borrows the image's code words
/// and decodes them on demand (Program::inst), so the image must outlive
/// every Program built from it.  Following the paper, a basic block
/// is ended by a branch *or by a call instruction* ("the following
/// discussion assumes a basic block is ended by a call instruction"), so a
/// block contains at most one call, as its terminator.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_CFG_PROGRAM_H
#define SPIKE_CFG_PROGRAM_H

#include "binary/Image.h"
#include "binary/Validator.h"
#include "cfg/CallGraph.h"
#include "cfg/SccSchedule.h"
#include "isa/CallingConv.h"
#include "isa/Encoding.h"
#include "isa/Instruction.h"
#include "support/RegSet.h"

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace spike {

/// How a basic block transfers control at its end.
enum class TerminatorKind : uint8_t {
  FallThrough,    ///< No terminator instruction; falls into the next block.
  Branch,         ///< Unconditional intra-routine branch.
  CondBranch,     ///< Conditional branch: target + fall-through.
  Call,           ///< Direct call; falls through to the return point.
  IndirectCall,   ///< Call through a register; falls through.
  Return,         ///< Routine exit.
  TableJump,      ///< Multiway branch through an extracted jump table.
  UnresolvedJump, ///< Indirect jump with unknown targets (Section 3.5).
  Halt,           ///< Program termination.
};

/// A basic block: the half-open instruction range [Begin, End).  Addresses
/// fit 32 bits because buildProgram refuses images over MaxCodeWords.
struct BasicBlock {
  uint32_t Begin = 0;
  uint32_t End = 0;

  /// Where this block's successor and predecessor lists start in the
  /// owning Routine::Arcs.  Each list ends where the next block's starts
  /// (the last block's at the end of its half of Arcs), so no count is
  /// stored; read the lists through Routine::succs()/preds().
  uint32_t FirstSucc = 0;
  uint32_t FirstPred = 0;

  TerminatorKind Term = TerminatorKind::FallThrough;

  /// For (direct) Call: target routine index, else -1.
  int32_t CalleeRoutine = -1;

  /// For Call: index into the callee's EntryAddresses for the targeted
  /// entrance, else -1.  (Calls may target secondary entrances.)
  int32_t CalleeEntry = -1;

  /// For TableJump: jump-table index in the image, else -1.
  int32_t JumpTableIndex = -1;

  /// Registers defined in the block (the call terminator's own def of ra
  /// is excluded; it is modelled on the call-return edge).
  RegSet Def;

  /// Registers used before being defined in the block (includes uses by
  /// the terminator itself, e.g. ret's use of ra or jsr_r's use of its
  /// target register).
  RegSet Ubd;

  /// Returns the number of instructions in the block.
  uint64_t size() const { return End - Begin; }

  /// Returns true if the block ends with a (direct or indirect) call.
  bool endsWithCall() const {
    return Term == TerminatorKind::Call ||
           Term == TerminatorKind::IndirectCall;
  }
};

static_assert(sizeof(BasicBlock) == 40, "BasicBlock layout changed");

/// Why a routine was collapsed to the paper's Section 3.5 unknowable
/// model.  Validation and Forced are the PR 2 quarantine family; Budget
/// is resource governance: the routine's SCC group blew its analysis
/// budget and was soundly degraded instead of aborting the run.
enum class DegradeReason : uint8_t {
  None = 0,   ///< Analyzed normally.
  Validation, ///< Semantic validation found the code unanalyzable.
  Forced,     ///< Forced by build options (fuzzer oracle, tests).
  Budget,     ///< Analysis budget exceeded (deadline/memory/iterations).
};

/// Stable lower-case name ("none", "validation", "forced", "budget").
inline const char *degradeReasonName(DegradeReason Reason) {
  switch (Reason) {
  case DegradeReason::None:
    return "none";
  case DegradeReason::Validation:
    return "validation";
  case DegradeReason::Forced:
    return "forced";
  case DegradeReason::Budget:
    return "budget";
  }
  return "unknown";
}

/// A routine: a contiguous instruction range with one or more entrances.
///
/// A Routine is a view: its CFG lists are spans into the owning
/// Program's arrays (Program::AllBlocks and its siblings), so building a
/// routine allocates nothing of its own.
struct Routine {
  std::string Name;
  uint64_t Begin = 0;
  uint64_t End = 0;

  std::span<const BasicBlock> Blocks;

  /// Intra-routine CFG arcs, CSR-packed: every block's successor list in
  /// block order, then every block's predecessor list in block order.
  /// Call blocks have their return point (fall-through block) as
  /// successor; the interprocedural effect of the call is modelled by the
  /// analyses, not by CFG arcs.  Successors are deduplicated;
  /// predecessors are in ascending block order.
  std::span<const uint32_t> Arcs;

  /// Entrance addresses, ascending: EntryAddresses[0] is the primary
  /// entry; the rest are secondary entrances (extra symbols or
  /// call-targeted addresses).
  std::span<const uint64_t> EntryAddresses;

  /// Block index of each entrance (parallel to EntryAddresses).
  std::span<const uint32_t> EntryBlocks;

  /// Blocks ending with Return, in block-index order.
  std::span<const uint32_t> ExitBlocks;

  /// Blocks ending with a call, in block-index order (the routine's call
  /// sites).
  std::span<const uint32_t> CallBlocks;

  /// True if the routine's address escapes: it may be called indirectly
  /// and may return to unknown callers.
  bool AddressTaken = false;

  /// True if semantic validation found the routine's code unanalyzable
  /// (undecodable words, dangling jump-table indices, wild calls).  The
  /// routine is modelled like the paper's unknowable code: a single
  /// UnresolvedJump block with worst-case DEF/UBD, no exits, no call
  /// sites.  The optimizer must not transform it.
  bool Quarantined = false;

  /// Human-readable root cause for the quarantine (first finding).
  std::string QuarantineReason;

  /// Which family of cause set Quarantined.  Every consumer of the
  /// Quarantined bit treats all reasons identically (worst-case model,
  /// never transformed); the reason only steers diagnostics (SL011 vs
  /// SL013) and run-report accounting.
  DegradeReason Degrade = DegradeReason::None;

  /// True if a quarantined (or unowned) code region may call into this
  /// routine: a direct jsr from quarantined code names it, or quarantined
  /// code contains indirect calls / undecodable words, which may reach
  /// anything.  The analyses then assume *all* registers live at its
  /// exits — garbage code need not respect the calling standard.
  bool CalledFromQuarantine = false;

  /// Number of conditional + unconditional + multiway branch terminators
  /// (Table 3's "Branches/Routine" statistic).
  unsigned NumBranches = 0;

  /// Returns the number of entrances.
  unsigned numEntries() const { return unsigned(EntryAddresses.size()); }

  /// Returns the successor block indices of block \p BlockIndex.  The
  /// successor lists fill the first half of Arcs.
  std::span<const uint32_t> succs(uint32_t BlockIndex) const {
    uint32_t First = Blocks[BlockIndex].FirstSucc;
    uint32_t End = BlockIndex + 1 < Blocks.size()
                       ? Blocks[BlockIndex + 1].FirstSucc
                       : uint32_t(Arcs.size() / 2);
    return Arcs.subspan(First, End - First);
  }

  /// Returns the predecessor block indices of block \p BlockIndex.  The
  /// predecessor lists fill the second half of Arcs.
  std::span<const uint32_t> preds(uint32_t BlockIndex) const {
    uint32_t First = Blocks[BlockIndex].FirstPred;
    uint32_t End = BlockIndex + 1 < Blocks.size()
                       ? Blocks[BlockIndex + 1].FirstPred
                       : uint32_t(Arcs.size());
    return Arcs.subspan(First, End - First);
  }
};

/// Targets of one jump table (address list), decoded form.
struct JumpTableTargets {
  std::vector<uint64_t> Targets;
};

/// The whole program as the analyses see it.
///
/// Every routine's CFG lists live in the six All* arrays below, routine
/// after routine in routine order; Routine holds spans into them.  A
/// Program is therefore move-only: moving keeps the arrays' storage (and
/// every span) in place, where a copy would leave the copy's routines
/// pointing into the original.
///
/// The instructions are not copied: Code views the words of the image the
/// Program was built from, and inst() decodes one on each read.  Whoever
/// holds a Program keeps that image alive and unchanged, or re-points
/// Code at an image with the same words (a server that replaces its
/// image does so).
struct Program {
  Program() = default;
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// The borrowed code words, indexed by address (Image::Code).
  std::span<const uint64_t> Code;

  /// Jump tables copied from the image.
  std::vector<JumpTableTargets> JumpTables;

  /// Routines in address order.
  std::vector<Routine> Routines;

  /// Index of the routine containing the program entry point, or -1.
  int32_t EntryRoutine = -1;

  /// The calling standard in effect.
  CallingConv Conv;

  /// Section 3.5 side tables, keyed by instruction address (copied from
  /// the image by the CFG builder; annotations inside quarantined
  /// routines are dropped so degraded code is modelled worst-case).
  std::map<uint64_t, IndirectCallAnnotation> CallAnnotations;
  std::map<uint64_t, RegSet> JumpLiveAnnotations;

  /// The semantic-validation findings the builder acted on (quarantines,
  /// dropped symbols/annotations); kept for diagnostics (lint rule SL011).
  ValidationReport Validation;

  /// The storage behind Routine::Blocks, Arcs, EntryAddresses,
  /// EntryBlocks, ExitBlocks and CallBlocks, filled in place by
  /// buildProgram.  Block indices stored in them are routine-local.
  std::vector<BasicBlock> AllBlocks;
  std::vector<uint32_t> AllArcs;
  std::vector<uint64_t> AllEntryAddresses;
  std::vector<uint32_t> AllEntryBlocks;
  std::vector<uint32_t> AllExitBlocks;
  std::vector<uint32_t> AllCallBlocks;

  /// The call graph and the two solver schedules over it, built once by
  /// buildProgram after every routine is final.  Every analysis,
  /// optimization and export reads these copies; nothing later edits a
  /// routine's calls, entrances or flags, so they cannot go stale.
  CallGraph Calls;
  SccSchedule CalleeFirst; ///< Phase 1 order (buildCalleeFirstSchedule).
  SccSchedule CallerFirst; ///< Phase 2 order (buildCallerFirstSchedule).

  /// Returns the instruction at \p Address, decoded from Code.  An
  /// undecodable word reads as a halt placeholder: the validator
  /// quarantined its routine, or it lies before the first routine, so no
  /// analysis takes the placeholder for real code.
  Instruction inst(uint64_t Address) const {
    return decodeInstruction(Code[Address])
        .value_or(Instruction{Opcode::Halt});
  }

  /// Returns the number of instructions (Table 2 statistic).
  uint64_t numInsts() const { return Code.size(); }

  /// Returns the number of quarantined routines (all degrade reasons).
  uint64_t numQuarantined() const {
    uint64_t Count = 0;
    for (const Routine &R : Routines)
      Count += R.Quarantined;
    return Count;
  }

  /// Returns the number of routines degraded by resource governance.
  uint64_t numBudgetDegraded() const {
    uint64_t Count = 0;
    for (const Routine &R : Routines)
      Count += R.Degrade == DegradeReason::Budget;
    return Count;
  }

  /// Returns the annotation for the indirect call at \p Address, or null.
  const IndirectCallAnnotation *callAnnotationAt(uint64_t Address) const {
    auto It = CallAnnotations.find(Address);
    return It == CallAnnotations.end() ? nullptr : &It->second;
  }

  /// Returns the registers assumed live at the target of the unresolved
  /// jump at \p Address: its annotation, or (absent one) all registers.
  RegSet jumpTargetLive(uint64_t Address) const {
    auto It = JumpLiveAnnotations.find(Address);
    return It == JumpLiveAnnotations.end() ? RegSet::allBelow(NumIntRegs)
                                           : It->second;
  }

  /// Returns the total number of basic blocks (Table 2 statistic).
  uint64_t numBlocks() const { return AllBlocks.size(); }

  /// Returns the total number of intra-routine CFG arcs, not counting
  /// call/return arcs.
  uint64_t numArcs() const { return AllArcs.size() / 2; }
};

} // namespace spike

#endif // SPIKE_CFG_PROGRAM_H
