//===- cfg/CfgBuilder.cpp - Image -> Program CFG construction ------------===//

#include "cfg/CfgBuilder.h"

#include "isa/Encoding.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace spike;

int32_t spike::findRoutineByAddress(const Program &Prog, uint64_t Address) {
  // Routines are sorted by Begin and contiguous; binary search the last
  // routine with Begin <= Address.
  const auto &Routines = Prog.Routines;
  auto It = std::upper_bound(
      Routines.begin(), Routines.end(), Address,
      [](uint64_t A, const Routine &R) { return A < R.Begin; });
  if (It == Routines.begin())
    return -1;
  --It;
  if (Address >= It->End)
    return -1;
  return int32_t(It - Routines.begin());
}

namespace {

/// Scratch buffers of the routine builder.  One instance per pool lane
/// is reused across all routines that lane builds, so building a routine
/// allocates only the routine's own block and arc arrays.
struct RoutineScratch {
  std::vector<bool> IsLeader;
  std::vector<uint32_t> BlockOfAddress;
  std::vector<uint32_t> Succs; ///< Successor lists, block after block.
};

/// Builds the basic blocks of one routine.
class RoutineBuilder {
public:
  RoutineBuilder(const Program &Prog, Routine &R, RoutineScratch &Scratch)
      : Prog(Prog), R(R), IsLeader(Scratch.IsLeader),
        BlockOfAddress(Scratch.BlockOfAddress), Succs(Scratch.Succs) {}

  void run() {
    findLeaders();
    makeBlocks();
    connectBlocks();
    indexAnchors();
  }

private:
  uint64_t localSize() const { return R.End - R.Begin; }

  bool inRoutine(uint64_t Address) const {
    return Address >= R.Begin && Address < R.End;
  }

  /// Returns the branch target of the instruction at \p Address, assuming
  /// it is a relative branch.
  uint64_t branchTarget(uint64_t Address) const {
    const Instruction &Inst = Prog.Insts[Address];
    return uint64_t(int64_t(Address) + 1 + Inst.Imm);
  }

  void markLeader(uint64_t Address) {
    if (inRoutine(Address))
      IsLeader[Address - R.Begin] = true;
  }

  void findLeaders() {
    IsLeader.assign(localSize(), false);
    IsLeader[0] = true;
    for (uint64_t Entry : R.EntryAddresses)
      markLeader(Entry);
    for (uint64_t Address = R.Begin; Address < R.End; ++Address) {
      const Instruction &Inst = Prog.Insts[Address];
      const OpcodeInfo &Info = opcodeInfo(Inst.Op);
      if (!Inst.endsBlock())
        continue;
      if (Address + 1 < R.End)
        IsLeader[Address + 1 - R.Begin] = true;
      if (Info.IsCondBranch || Info.IsUncondBranch)
        markLeader(branchTarget(Address));
      if (Info.IsTableJump) {
        // The validator quarantines routines with dangling table
        // indices, so a healthy routine's index is in range; the bounds
        // check is defense in depth, not a reachable path.
        uint64_t TableIndex = uint64_t(uint32_t(Inst.Imm));
        if (TableIndex >= Prog.JumpTables.size())
          continue;
        const JumpTableTargets &Table = Prog.JumpTables[TableIndex];
        for (uint64_t Target : Table.Targets)
          markLeader(Target);
      }
    }
  }

  void makeBlocks() {
    // Every block starts at a leader and every leader starts a block.
    R.Blocks.reserve(
        size_t(std::count(IsLeader.begin(), IsLeader.end(), true)));
    BlockOfAddress.assign(localSize(), ~uint32_t(0));
    uint64_t Address = R.Begin;
    while (Address < R.End) {
      BasicBlock Block;
      Block.Begin = Address;
      uint64_t Cursor = Address;
      for (;;) {
        BlockOfAddress[Cursor - R.Begin] = uint32_t(R.Blocks.size());
        if (Prog.Insts[Cursor].endsBlock()) {
          ++Cursor;
          break;
        }
        ++Cursor;
        if (Cursor == R.End || IsLeader[Cursor - R.Begin])
          break;
      }
      Block.End = Cursor;
      R.Blocks.push_back(std::move(Block));
      Address = Cursor;
    }
  }

  uint32_t blockAt(uint64_t Address) const {
    assert(inRoutine(Address) && "address outside routine");
    uint32_t Block = BlockOfAddress[Address - R.Begin];
    assert(Block != ~uint32_t(0) && "address not covered by a block");
    return Block;
  }

  /// Appends \p Succ to the successor list being built for \p Block.
  void addSucc(const BasicBlock &Block, uint32_t Succ) {
    auto First = Succs.begin() + Block.FirstSucc;
    if (std::find(First, Succs.end(), Succ) == Succs.end())
      Succs.push_back(Succ);
  }

  /// Sets each block's terminator kind and packs Routine::Arcs: the
  /// successor lists in block order, then the predecessor lists, filled
  /// in ascending source-block order.
  void connectBlocks() {
    Succs.clear();
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      BasicBlock &Block = R.Blocks[BlockIndex];
      Block.FirstSucc = uint32_t(Succs.size());
      uint64_t Last = Block.End - 1;
      const Instruction &Term = Prog.Insts[Last];
      const OpcodeInfo &Info = opcodeInfo(Term.Op);
      bool HasFallThrough = Block.End < R.End;

      if (!Term.endsBlock()) {
        Block.Term = TerminatorKind::FallThrough;
        if (HasFallThrough)
          addSucc(Block, blockAt(Block.End));
        continue;
      }

      if (Info.IsUncondBranch) {
        uint64_t Target = branchTarget(Last);
        if (!inRoutine(Target)) {
          // A branch leaving the routine (e.g. a tail call) has unknown
          // register behaviour at this level; treat conservatively.
          Block.Term = TerminatorKind::UnresolvedJump;
          ++R.NumBranches;
          continue;
        }
        Block.Term = TerminatorKind::Branch;
        addSucc(Block, blockAt(Target));
        ++R.NumBranches;
        continue;
      }

      if (Info.IsCondBranch) {
        uint64_t Target = branchTarget(Last);
        if (!inRoutine(Target)) {
          Block.Term = TerminatorKind::UnresolvedJump;
          ++R.NumBranches;
          continue;
        }
        Block.Term = TerminatorKind::CondBranch;
        addSucc(Block, blockAt(Target));
        if (HasFallThrough)
          addSucc(Block, blockAt(Block.End));
        ++R.NumBranches;
        continue;
      }

      if (Info.IsCall) {
        Block.Term = Info.IsIndirectCall ? TerminatorKind::IndirectCall
                                         : TerminatorKind::Call;
        if (HasFallThrough)
          addSucc(Block, blockAt(Block.End));
        continue;
      }

      if (Info.IsReturn) {
        Block.Term = TerminatorKind::Return;
        continue;
      }

      if (Info.IsTableJump) {
        uint64_t TableIndex = uint64_t(uint32_t(Term.Imm));
        if (TableIndex >= Prog.JumpTables.size()) {
          // Dangling index: same defense in depth as in findLeaders —
          // degrade to an unresolved jump instead of indexing out of
          // bounds.
          Block.Term = TerminatorKind::UnresolvedJump;
          ++R.NumBranches;
          continue;
        }
        const JumpTableTargets &Table = Prog.JumpTables[TableIndex];
        bool AllInRoutine = true;
        for (uint64_t Target : Table.Targets)
          AllInRoutine &= inRoutine(Target);
        if (!AllInRoutine) {
          Block.Term = TerminatorKind::UnresolvedJump;
          ++R.NumBranches;
          continue;
        }
        Block.Term = TerminatorKind::TableJump;
        Block.JumpTableIndex = Term.Imm;
        for (uint64_t Target : Table.Targets)
          addSucc(Block, blockAt(Target));
        ++R.NumBranches;
        continue;
      }

      if (Info.IsUnresolvedJump) {
        Block.Term = TerminatorKind::UnresolvedJump;
        continue;
      }

      assert(Info.IsHalt && "unhandled terminator kind");
      Block.Term = TerminatorKind::Halt;
    }

    // Each successor list ends where the next block's begins.
    uint32_t NumArcs = uint32_t(Succs.size());
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      BasicBlock &Block = R.Blocks[BlockIndex];
      uint32_t End = BlockIndex + 1 < R.Blocks.size()
                         ? R.Blocks[BlockIndex + 1].FirstSucc
                         : NumArcs;
      Block.NumSuccs = End - Block.FirstSucc;
    }

    R.Arcs.resize(2 * size_t(NumArcs));
    std::copy(Succs.begin(), Succs.end(), R.Arcs.begin());
    for (uint32_t Succ : Succs)
      ++R.Blocks[Succ].NumPreds;
    uint32_t Next = NumArcs;
    for (BasicBlock &Block : R.Blocks) {
      Block.FirstPred = Next;
      Next += Block.NumPreds;
      Block.NumPreds = 0;
    }
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex)
      for (uint32_t Succ : R.succs(BlockIndex)) {
        BasicBlock &SuccBlock = R.Blocks[Succ];
        R.Arcs[SuccBlock.FirstPred + SuccBlock.NumPreds++] = BlockIndex;
      }
  }

  void indexAnchors() {
    R.EntryBlocks.clear();
    R.EntryBlocks.reserve(R.EntryAddresses.size());
    for (uint64_t Entry : R.EntryAddresses) {
      assert(Prog.Insts.size() > Entry && inRoutine(Entry));
      // Entrances always start a block (they were marked as leaders).
      assert(R.Blocks[blockAt(Entry)].Begin == Entry &&
             "entrance does not start a block");
      R.EntryBlocks.push_back(blockAt(Entry));
    }
    size_t NumExits = 0, NumCalls = 0;
    for (const BasicBlock &Block : R.Blocks) {
      NumExits += Block.Term == TerminatorKind::Return;
      NumCalls += Block.endsWithCall();
    }
    R.ExitBlocks.reserve(NumExits);
    R.CallBlocks.reserve(NumCalls);
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      const BasicBlock &Block = R.Blocks[BlockIndex];
      if (Block.Term == TerminatorKind::Return)
        R.ExitBlocks.push_back(BlockIndex);
      if (Block.endsWithCall())
        R.CallBlocks.push_back(BlockIndex);
    }
  }

  const Program &Prog;
  Routine &R;
  std::vector<bool> &IsLeader;
  std::vector<uint32_t> &BlockOfAddress;
  std::vector<uint32_t> &Succs;
};

} // namespace

Program spike::buildProgram(const Image &Img, const CallingConv &Conv,
                            MemoryTracker *Mem,
                            const CfgBuildOptions &Options,
                            ThreadPool *Pool) {
  telemetry::Span BuildSpan("cfg.build");
  Program Prog;
  Prog.Conv = Conv;
  Prog.Validation = validateImage(Img);

  // Decode the code section.  Undecodable words get a halt placeholder:
  // the validator quarantines their owning routine (or, for unowned
  // garbage, the opaque-region scan below makes every routine
  // CalledFromQuarantine), so the placeholder is never analyzed as if it
  // were real code.
  std::vector<bool> Undecodable(Img.Code.size(), false);
  Prog.Insts.reserve(Img.Code.size());
  for (uint64_t Address = 0; Address < Img.Code.size(); ++Address) {
    std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
    if (!Inst) {
      Undecodable[Address] = true;
      Instruction Placeholder;
      Placeholder.Op = Opcode::Halt;
      Prog.Insts.push_back(Placeholder);
      continue;
    }
    Prog.Insts.push_back(*Inst);
  }
  chargeIf(Mem, Prog.Insts.size() * sizeof(Instruction));

  for (const JumpTable &Table : Img.JumpTables) {
    Prog.JumpTables.push_back({Table.Targets});
    chargeIf(Mem, Table.Targets.size() * sizeof(uint64_t));
  }

  // Partition the code into routines at primary symbol addresses.
  // Defensively sort and dedup rather than trusting finalize() was run:
  // out-of-range, unsorted, or duplicate primaries are validator
  // findings, and the partition here must match the one the validator
  // used for attribution (in-range primaries, sorted, first-at-address
  // wins).
  std::vector<const Symbol *> Primaries;
  for (const Symbol &Sym : Img.Symbols)
    if (!Sym.Secondary && Sym.Address < Img.Code.size())
      Primaries.push_back(&Sym);
  std::stable_sort(Primaries.begin(), Primaries.end(),
                   [](const Symbol *A, const Symbol *B) {
                     return A->Address < B->Address;
                   });
  Primaries.erase(std::unique(Primaries.begin(), Primaries.end(),
                              [](const Symbol *A, const Symbol *B) {
                                return A->Address == B->Address;
                              }),
                  Primaries.end());

  if (Primaries.empty() && !Img.Code.empty()) {
    // Defensive: an image with no symbols is one anonymous routine.
    Routine R;
    R.Name = "<anon>";
    R.Begin = 0;
    R.End = Img.Code.size();
    R.EntryAddresses.push_back(0);
    Prog.Routines.push_back(std::move(R));
  } else {
    Prog.Routines.reserve(Primaries.size());
    for (size_t I = 0; I < Primaries.size(); ++I) {
      Routine R;
      R.Name = Primaries[I]->Name;
      R.Begin = Primaries[I]->Address;
      R.End = I + 1 < Primaries.size() ? Primaries[I + 1]->Address
                                       : Img.Code.size();
      R.AddressTaken = Primaries[I]->AddressTaken;
      R.EntryAddresses.push_back(R.Begin);
      Prog.Routines.push_back(std::move(R));
    }
  }

  // Quarantine routines the validator attributed defects to, plus any
  // the caller forces (the fuzzer's soundness oracle).
  for (const ValidationFinding &F : Prog.Validation.Findings) {
    if (!F.Quarantines || F.Address < 0)
      continue;
    int32_t RoutineIndex = findRoutineByAddress(Prog, uint64_t(F.Address));
    if (RoutineIndex < 0)
      continue;
    Routine &R = Prog.Routines[RoutineIndex];
    if (!R.Quarantined) {
      R.Quarantined = true;
      R.QuarantineReason = F.Message;
      R.Degrade = DegradeReason::Validation;
    }
  }
  for (const std::string &Name : Options.ForceQuarantine)
    for (Routine &R : Prog.Routines)
      if (R.Name == Name && !R.Quarantined) {
        R.Quarantined = true;
        R.QuarantineReason = "quarantine forced by build options";
        R.Degrade = DegradeReason::Forced;
      }
  for (const std::string &Name : Options.BudgetDegrade)
    for (Routine &R : Prog.Routines)
      if (R.Name == Name && !R.Quarantined) {
        R.Quarantined = true;
        R.QuarantineReason = "analysis budget exceeded";
        R.Degrade = DegradeReason::Budget;
      }

  // Attach secondary entrances to their containing routines; orphaned
  // secondaries (out of range or in a symbol gap) are dropped — the
  // validator reported them.
  for (const Symbol &Sym : Img.Symbols) {
    if (!Sym.Secondary)
      continue;
    int32_t RoutineIndex = findRoutineByAddress(Prog, Sym.Address);
    if (RoutineIndex < 0)
      continue;
    Routine &R = Prog.Routines[RoutineIndex];
    if (std::find(R.EntryAddresses.begin(), R.EntryAddresses.end(),
                  Sym.Address) == R.EntryAddresses.end())
      R.EntryAddresses.push_back(Sym.Address);
    if (Sym.AddressTaken)
      R.AddressTaken = true;
  }

  // Discover call-targeted entrances the symbol table does not name, and
  // work out what quarantined (or unowned) code can reach.  A direct jsr
  // from such a region names its target, which must then assume a caller
  // that ignores the calling standard; indirect calls or undecodable
  // words there can reach *anything*.
  bool OpaqueQuarantine = false;
  for (uint64_t Address = 0; Address < Prog.Insts.size(); ++Address) {
    int32_t Owner = findRoutineByAddress(Prog, Address);
    bool InBadRegion =
        Owner < 0 || Prog.Routines[uint32_t(Owner)].Quarantined;
    if (Undecodable[Address]) {
      OpaqueQuarantine = true;
      continue;
    }
    const Instruction &Inst = Prog.Insts[Address];
    if (Inst.Op == Opcode::JsrR && InBadRegion)
      OpaqueQuarantine = true;
    if (Inst.Op != Opcode::Jsr)
      continue;
    int32_t TargetRoutine = -1;
    if (Inst.Imm >= 0 && uint64_t(Inst.Imm) < Prog.Insts.size())
      TargetRoutine = findRoutineByAddress(Prog, uint64_t(Inst.Imm));
    if (TargetRoutine < 0) {
      // Wild call: the validator quarantined its owner (or it sits in
      // unowned code).  Either way there is no entrance to register.
      continue;
    }
    Routine &R = Prog.Routines[uint32_t(TargetRoutine)];
    uint64_t Target = uint64_t(Inst.Imm);
    if (std::find(R.EntryAddresses.begin(), R.EntryAddresses.end(),
                  Target) == R.EntryAddresses.end())
      R.EntryAddresses.push_back(Target);
    if (InBadRegion)
      R.CalledFromQuarantine = true;
  }
  if (OpaqueQuarantine)
    for (Routine &R : Prog.Routines)
      R.CalledFromQuarantine = true;

  // Build per-routine CFGs, one task per routine: each builder reads
  // only the shared instruction stream and writes only its own routine.
  // A quarantined routine is modelled exactly like the paper's unknowable
  // code (Section 3.5): one block spanning the whole routine, terminated
  // by an unresolved jump, using and defining nothing we can rely on —
  // worst-case UBD, empty DEF — with no exits and no call sites.  Every
  // entrance maps to that block.
  std::vector<RoutineScratch> Scratch(Pool ? Pool->jobs() : 1);
  forEachTask(Pool, Prog.Routines.size(), [&](size_t RoutineIndex,
                                              unsigned Lane) {
    Routine &R = Prog.Routines[RoutineIndex];
    std::sort(R.EntryAddresses.begin(), R.EntryAddresses.end());
    if (R.Quarantined) {
      BasicBlock Block;
      Block.Begin = R.Begin;
      Block.End = R.End;
      Block.Term = TerminatorKind::UnresolvedJump;
      Block.Ubd = RegSet::allBelow(NumIntRegs);
      R.Blocks.push_back(std::move(Block));
      R.EntryBlocks.assign(R.EntryAddresses.size(), 0);
      return;
    }
    RoutineBuilder Builder(Prog, R, Scratch[Lane]);
    Builder.run();
  });

  // Resolve direct-call targets to (routine, entrance) pairs.
  // Quarantined routines have no call blocks; healthy routines' call
  // targets are guaranteed resolvable by the validator.
  for (Routine &R : Prog.Routines) {
    for (uint32_t BlockIndex : R.CallBlocks) {
      BasicBlock &Block = R.Blocks[BlockIndex];
      if (Block.Term != TerminatorKind::Call)
        continue;
      const Instruction &Call = Prog.Insts[Block.End - 1];
      uint64_t Target = uint64_t(uint32_t(Call.Imm));
      int32_t CalleeIndex = findRoutineByAddress(Prog, Target);
      assert(CalleeIndex >= 0 && "unresolved direct call");
      const Routine &Callee = Prog.Routines[CalleeIndex];
      auto It = std::find(Callee.EntryAddresses.begin(),
                          Callee.EntryAddresses.end(), Target);
      assert(It != Callee.EntryAddresses.end() &&
             "call target was not registered as an entrance");
      Block.CalleeRoutine = CalleeIndex;
      Block.CalleeEntry = int32_t(It - Callee.EntryAddresses.begin());
    }
  }

  // Copy the Section 3.5 side tables, dropping annotations that do not
  // resolve to the matching instruction inside a healthy routine:
  // quarantined code is modelled worst-case, and trusting an annotation
  // planted in garbage would un-do that conservatism.
  auto AnnotationUsable = [&](uint64_t Address, Opcode Expected) {
    if (Address >= Prog.Insts.size() || Undecodable[Address])
      return false;
    if (Prog.Insts[Address].Op != Expected)
      return false;
    int32_t Owner = findRoutineByAddress(Prog, Address);
    return Owner >= 0 && !Prog.Routines[uint32_t(Owner)].Quarantined;
  };
  for (const IndirectCallAnnotation &Annot : Img.CallAnnotations)
    if (AnnotationUsable(Annot.Address, Opcode::JsrR))
      Prog.CallAnnotations[Annot.Address] = Annot;
  for (const IndirectJumpAnnotation &Annot : Img.JumpAnnotations)
    if (AnnotationUsable(Annot.Address, Opcode::JmpR))
      Prog.JumpLiveAnnotations[Annot.Address] = Annot.LiveAtTarget;

  // Locate the entry routine (-1 when the entry address is out of range
  // or falls outside every routine; both are validator findings).
  Prog.EntryRoutine = Img.EntryAddress < Img.Code.size()
                          ? findRoutineByAddress(Prog, Img.EntryAddress)
                          : -1;

  if (Mem) {
    for (const Routine &R : Prog.Routines) {
      Mem->charge(sizeof(Routine) +
                  R.EntryAddresses.size() * sizeof(uint64_t) +
                  (R.EntryBlocks.size() + R.ExitBlocks.size() +
                   R.CallBlocks.size()) *
                      sizeof(uint32_t));
      for (const BasicBlock &Block : R.Blocks)
        Mem->charge(sizeof(BasicBlock) +
                    (Block.NumSuccs + Block.NumPreds) * sizeof(uint32_t));
    }
  }

  if (telemetry::active()) {
    telemetry::count("cfg.routines", Prog.Routines.size());
    telemetry::count("cfg.blocks", Prog.numBlocks());
    telemetry::count("cfg.insts", Prog.Insts.size());
    telemetry::count("cfg.quarantined_routines", Prog.numQuarantined());
    telemetry::count("degrade.budget_routines", Prog.numBudgetDegraded());
  }

  return Prog;
}

void spike::computeDefUbd(Program &Prog, ThreadPool *Pool) {
  forEachTask(Pool, Prog.Routines.size(), [&](size_t RoutineIndex, unsigned) {
    Routine &R = Prog.Routines[RoutineIndex];
    // Quarantined routines keep their hand-set worst-case sets (empty
    // DEF, all-registers UBD); recomputing from the placeholder-decoded
    // garbage would be unsound.
    if (R.Quarantined)
      return;
    for (BasicBlock &Block : R.Blocks) {
      RegSet Def, Ubd;
      for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
        const Instruction &Inst = Prog.Insts[Address];
        bool IsCallTerminator =
            Address == Block.End - 1 && opcodeInfo(Inst.Op).IsCall;
        Ubd |= Inst.uses() - Def;
        if (!IsCallTerminator)
          Def |= Inst.defs();
      }
      Block.Def = Def;
      Block.Ubd = Ubd;
    }
  });
}
