//===- cfg/CfgBuilder.cpp - Image -> Program CFG construction ------------===//

#include "cfg/CfgBuilder.h"

#include "isa/Encoding.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <numeric>

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
    resolveCalls();
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

  /// Resolves each direct call to its (routine, entrance) pair.  The
  /// validator quarantines a routine with a wild call, so a healthy
  /// routine's targets always resolve, and the scan registered each
  /// target as an entrance of its routine.
  void resolveCalls() {
    for (uint32_t BlockIndex : R.CallBlocks) {
      BasicBlock &Block = R.Blocks[BlockIndex];
      if (Block.Term != TerminatorKind::Call)
        continue;
      uint64_t Target = uint64_t(uint32_t(Prog.Insts[Block.End - 1].Imm));
      int32_t CalleeIndex = findRoutineByAddress(Prog, Target);
      assert(CalleeIndex >= 0 && "unresolved direct call");
      const std::vector<uint64_t> &Entries =
          Prog.Routines[CalleeIndex].EntryAddresses;
      auto It = std::find(Entries.begin(), Entries.end(), Target);
      assert(It != Entries.end() &&
             "call target was not registered as an entrance");
      Block.CalleeRoutine = CalleeIndex;
      Block.CalleeEntry = int32_t(It - Entries.begin());
    }
  }

  const Program &Prog;
  Routine &R;
  std::vector<bool> &IsLeader;
  std::vector<uint32_t> &BlockOfAddress;
  std::vector<uint32_t> &Succs;
};

/// A direct call the entrance scan found: the routine it enters, the
/// entrance address, and whether the calling word lies in quarantined
/// or unowned code.
struct CallFact {
  uint32_t Callee = 0;
  uint64_t Target = 0;
  bool FromBadRegion = false;
};

/// Where one scanned chunk's call facts sit in its lane's buffer.
struct CallFactSegment {
  unsigned Lane = 0;
  size_t Begin = 0;
  size_t Count = 0;
};

/// One pool lane's scan output, reused across the chunks it scans.
struct ScanLane {
  std::vector<CallFact> Facts;
  /// An undecodable word, or an indirect call in quarantined or unowned
  /// code: either may reach any routine.
  bool Opaque = false;
};

/// Adds \p Address to \p R's entrances unless it is already one.
void addEntrance(Routine &R, uint64_t Address) {
  if (std::find(R.EntryAddresses.begin(), R.EntryAddresses.end(),
                Address) == R.EntryAddresses.end())
    R.EntryAddresses.push_back(Address);
}

/// Quarantines \p R for \p Reason unless an earlier cause already did.
void quarantine(Routine &R, const std::string &Reason, DegradeReason Cause) {
  if (R.Quarantined)
    return;
  R.Quarantined = true;
  R.QuarantineReason = Reason;
  R.Degrade = Cause;
}

/// Quarantines every routine whose name is in \p Names.  \p ByName
/// lists the routine indices sorted by name, so each name costs one
/// binary search however many names and routines there are.  Unknown
/// names match nothing; a repeated name finds its routines already
/// quarantined.
void quarantineNamed(Program &Prog, const std::vector<uint32_t> &ByName,
                     const std::vector<std::string> &Names,
                     const std::string &Reason, DegradeReason Cause) {
  for (const std::string &Name : Names) {
    auto It = std::lower_bound(ByName.begin(), ByName.end(), Name,
                               [&](uint32_t R, const std::string &Key) {
                                 return Prog.Routines[R].Name < Key;
                               });
    for (; It != ByName.end() && Prog.Routines[*It].Name == Name; ++It)
      quarantine(Prog.Routines[*It], Reason, Cause);
  }
}

} // namespace

Program spike::buildProgram(const Image &Img, const CallingConv &Conv,
                            MemoryTracker *Mem,
                            const CfgBuildOptions &Options,
                            ThreadPool *Pool) {
  telemetry::Span BuildSpan("cfg.build");
  Program Prog;
  Prog.Conv = Conv;
  Prog.Validation = validateImage(Img, Pool);

  // The decoded code section; the scan below fills it.
  Prog.Insts.resize(Img.Code.size());
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

  // Quarantine routines the validator attributed defects to, then those
  // the caller forces (the fuzzer's soundness oracle), then those a
  // blown budget degrades; the first cause's reason sticks.
  for (const ValidationFinding &F : Prog.Validation.Findings) {
    if (!F.Quarantines || F.Address < 0)
      continue;
    int32_t RoutineIndex = findRoutineByAddress(Prog, uint64_t(F.Address));
    if (RoutineIndex < 0)
      continue;
    quarantine(Prog.Routines[RoutineIndex], F.Message,
               DegradeReason::Validation);
  }
  if (!Options.ForceQuarantine.empty() || !Options.BudgetDegrade.empty()) {
    std::vector<uint32_t> ByName(Prog.Routines.size());
    std::iota(ByName.begin(), ByName.end(), 0);
    std::sort(ByName.begin(), ByName.end(), [&](uint32_t A, uint32_t B) {
      return Prog.Routines[A].Name < Prog.Routines[B].Name;
    });
    quarantineNamed(Prog, ByName, Options.ForceQuarantine,
                    "quarantine forced by build options",
                    DegradeReason::Forced);
    quarantineNamed(Prog, ByName, Options.BudgetDegrade,
                    "analysis budget exceeded", DegradeReason::Budget);
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
    addEntrance(R, Sym.Address);
    if (Sym.AddressTaken)
      R.AddressTaken = true;
  }

  // Decode the code section and discover call-targeted entrances, one
  // task per routine plus one for the unowned words before the first
  // routine.  Undecodable words get a halt placeholder: the validator
  // quarantines their owning routine (or, for unowned garbage, the
  // opaque flag below makes every routine CalledFromQuarantine), so the
  // placeholder is never analyzed as if it were real code.  A direct jsr
  // from quarantined or unowned code names its target, which must then
  // assume a caller that ignores the calling standard; indirect calls or
  // undecodable words there can reach *anything*.
  std::vector<uint8_t> Undecodable(Img.Code.size(), 0);
  std::vector<ScanLane> Lanes(Pool ? Pool->jobs() : 1);
  std::vector<CallFactSegment> Segments(Prog.Routines.size() + 1);
  {
    telemetry::Span ScanSpan("cfg.scan");
    forEachTask(Pool, Segments.size(), [&](size_t Chunk, unsigned Lane) {
      uint64_t Begin = 0, End = Prog.Insts.size();
      bool InBadRegion = true;
      if (Chunk == 0) {
        if (!Prog.Routines.empty())
          End = Prog.Routines.front().Begin;
      } else {
        const Routine &Owner = Prog.Routines[Chunk - 1];
        Begin = Owner.Begin;
        End = Owner.End;
        InBadRegion = Owner.Quarantined;
      }
      ScanLane &L = Lanes[Lane];
      Segments[Chunk] = {Lane, L.Facts.size(), 0};
      for (uint64_t Address = Begin; Address < End; ++Address) {
        std::optional<Instruction> Inst =
            decodeInstruction(Img.Code[Address]);
        if (!Inst) {
          Undecodable[Address] = 1;
          Prog.Insts[Address].Op = Opcode::Halt;
          L.Opaque = true;
          continue;
        }
        Prog.Insts[Address] = *Inst;
        if (Inst->Op == Opcode::JsrR && InBadRegion)
          L.Opaque = true;
        if (Inst->Op != Opcode::Jsr)
          continue;
        // A wild call has no entrance to register: the validator
        // quarantined its owner (or it sits in unowned code).
        if (Inst->Imm < 0 || uint64_t(Inst->Imm) >= Prog.Insts.size())
          continue;
        // A healthy call to a primary entrance adds nothing: every
        // routine already has its primary entrance.
        int32_t Callee = findRoutineByAddress(Prog, uint64_t(Inst->Imm));
        if (Callee >= 0 &&
            (InBadRegion ||
             uint64_t(Inst->Imm) != Prog.Routines[uint32_t(Callee)].Begin))
          L.Facts.push_back(
              {uint32_t(Callee), uint64_t(Inst->Imm), InBadRegion});
      }
      Segments[Chunk].Count = L.Facts.size() - Segments[Chunk].Begin;
    });
  }

  // Register the discovered entrances in routine order.
  bool OpaqueQuarantine = false;
  for (const ScanLane &L : Lanes)
    OpaqueQuarantine |= L.Opaque;
  for (const CallFactSegment &Seg : Segments)
    for (size_t I = Seg.Begin; I < Seg.Begin + Seg.Count; ++I) {
      const CallFact &Fact = Lanes[Seg.Lane].Facts[I];
      Routine &R = Prog.Routines[Fact.Callee];
      addEntrance(R, Fact.Target);
      if (Fact.FromBadRegion)
        R.CalledFromQuarantine = true;
    }
  Lanes.clear();
  for (Routine &R : Prog.Routines) {
    std::sort(R.EntryAddresses.begin(), R.EntryAddresses.end());
    if (OpaqueQuarantine)
      R.CalledFromQuarantine = true;
  }

  // Build per-routine CFGs and resolve their direct calls, one task per
  // routine: each task reads only the instruction stream and the (now
  // final) routine bounds and entrances, and writes only its own
  // routine.  A quarantined routine is modelled exactly like the paper's
  // unknowable code (Section 3.5): one block spanning the whole routine,
  // terminated by an unresolved jump, using and defining nothing we can
  // rely on — worst-case UBD, empty DEF — with no exits and no call
  // sites.  Every entrance maps to that block.
  {
    telemetry::Span RoutinesSpan("cfg.routines");
    std::vector<RoutineScratch> Scratch(Pool ? Pool->jobs() : 1);
    forEachTask(Pool, Prog.Routines.size(), [&](size_t RoutineIndex,
                                                unsigned Lane) {
      Routine &R = Prog.Routines[RoutineIndex];
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

  // Charges stay serial and in routine order, so the Nth tracked
  // allocation (--inject-fault alloc@N) is the same at every job count.
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

  {
    telemetry::Span GraphSpan("cfg.callgraph");
    Prog.Calls = buildCallGraph(Prog, Pool);
    // The two schedules only read the graph: one task each.
    forEachTask(Pool, 2, [&](size_t Which, unsigned) {
      if (Which == 0)
        Prog.CalleeFirst = buildCalleeFirstSchedule(Prog, Prog.Calls);
      else
        Prog.CallerFirst = buildCallerFirstSchedule(Prog, Prog.Calls);
    });
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
