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
/// decoded, partitioned into routines at primary symbol addresses, and each
/// routine is split into basic blocks.  Following the paper, a basic block
/// is ended by a branch *or by a call instruction* ("the following
/// discussion assumes a basic block is ended by a call instruction"), so a
/// block contains at most one call, as its terminator.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_CFG_PROGRAM_H
#define SPIKE_CFG_PROGRAM_H

#include "binary/Image.h"
#include "binary/Validator.h"
#include "isa/CallingConv.h"
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

/// A basic block: the half-open instruction range [Begin, End).
struct BasicBlock {
  uint64_t Begin = 0;
  uint64_t End = 0;

  /// This block's successor and predecessor lists as ranges of the
  /// owning Routine::Arcs; read them through Routine::succs()/preds().
  uint32_t FirstSucc = 0;
  uint32_t NumSuccs = 0;
  uint32_t FirstPred = 0;
  uint32_t NumPreds = 0;

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
struct Routine {
  std::string Name;
  uint64_t Begin = 0;
  uint64_t End = 0;

  std::vector<BasicBlock> Blocks;

  /// Intra-routine CFG arcs, CSR-packed: every block's successor list in
  /// block order, then every block's predecessor list in block order.
  /// Call blocks have their return point (fall-through block) as
  /// successor; the interprocedural effect of the call is modelled by the
  /// analyses, not by CFG arcs.  Successors are deduplicated;
  /// predecessors are in ascending block order.
  std::vector<uint32_t> Arcs;

  /// Entrance addresses: EntryAddresses[0] is the primary entry; the rest
  /// are secondary entrances (extra symbols or call-targeted addresses).
  std::vector<uint64_t> EntryAddresses;

  /// Block index of each entrance (parallel to EntryAddresses).
  std::vector<uint32_t> EntryBlocks;

  /// Blocks ending with Return, in block-index order.
  std::vector<uint32_t> ExitBlocks;

  /// Blocks ending with a call, in block-index order (the routine's call
  /// sites).
  std::vector<uint32_t> CallBlocks;

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

  /// Returns the successor block indices of block \p BlockIndex.
  std::span<const uint32_t> succs(uint32_t BlockIndex) const {
    const BasicBlock &Block = Blocks[BlockIndex];
    return {Arcs.data() + Block.FirstSucc, Block.NumSuccs};
  }

  /// Returns the predecessor block indices of block \p BlockIndex.
  std::span<const uint32_t> preds(uint32_t BlockIndex) const {
    const BasicBlock &Block = Blocks[BlockIndex];
    return {Arcs.data() + Block.FirstPred, Block.NumPreds};
  }
};

/// Targets of one jump table (address list), decoded form.
struct JumpTableTargets {
  std::vector<uint64_t> Targets;
};

/// The decoded whole program.
struct Program {
  /// Decoded instructions, indexed by address.
  std::vector<Instruction> Insts;

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
  uint64_t numBlocks() const {
    uint64_t Count = 0;
    for (const Routine &R : Routines)
      Count += R.Blocks.size();
    return Count;
  }

  /// Returns the total number of intra-routine CFG arcs, not counting
  /// call/return arcs.
  uint64_t numArcs() const {
    uint64_t Count = 0;
    for (const Routine &R : Routines)
      Count += R.Arcs.size() / 2;
    return Count;
  }
};

} // namespace spike

#endif // SPIKE_CFG_PROGRAM_H
