//===- cfg/CfgBuilder.cpp - Image -> Program CFG construction ------------===//

#include "cfg/CfgBuilder.h"

#include "isa/Encoding.h"
#include "support/Splice.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>

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

std::vector<bool> spike::reachableBlocks(const Routine &R) {
  std::vector<bool> Reach(R.Blocks.size(), false);
  std::vector<uint32_t> Work;
  for (uint32_t Entry : R.EntryBlocks)
    if (!Reach[Entry]) {
      Reach[Entry] = true;
      Work.push_back(Entry);
    }
  while (!Work.empty()) {
    uint32_t Block = Work.back();
    Work.pop_back();
    for (uint32_t Succ : R.succs(Block))
      if (!Reach[Succ]) {
        Reach[Succ] = true;
        Work.push_back(Succ);
      }
  }
  return Reach;
}

namespace {

/// Returns the branch target of the relative branch at \p Address.
uint64_t branchTarget(const Program &Prog, uint64_t Address) {
  return uint64_t(int64_t(Address) + 1 + Prog.inst(Address).Imm);
}

/// Marks the leaders of healthy routine \p R, whose entrances are
/// \p Entries, in \p Leader (one flag per word of the routine, indexed
/// from R.Begin) and returns the routine's block count: every block
/// starts at a leader and every leader starts a block.
uint32_t markLeaders(const Program &Prog, const Routine &R,
                     std::span<const uint64_t> Entries,
                     std::span<uint8_t> Leader) {
  auto Mark = [&](uint64_t Address) {
    if (Address >= R.Begin && Address < R.End)
      Leader[Address - R.Begin] = 1;
  };
  Leader[0] = 1;
  for (uint64_t Entry : Entries)
    Mark(Entry);
  for (uint64_t Address = R.Begin; Address < R.End; ++Address) {
    const Instruction Inst = Prog.inst(Address);
    const OpcodeInfo &Info = opcodeInfo(Inst.Op);
    if (!Inst.endsBlock())
      continue;
    if (Address + 1 < R.End)
      Leader[Address + 1 - R.Begin] = 1;
    if (Info.IsCondBranch || Info.IsUncondBranch)
      Mark(branchTarget(Prog, Address));
    if (Info.IsTableJump) {
      // The validator quarantines routines with dangling table
      // indices, so a healthy routine's index is in range; the bounds
      // check is defense in depth, not a reachable path.
      uint64_t TableIndex = uint64_t(uint32_t(Inst.Imm));
      if (TableIndex >= Prog.JumpTables.size())
        continue;
      for (uint64_t Target : Prog.JumpTables[TableIndex].Targets)
        Mark(Target);
    }
  }
  return uint32_t(std::count(Leader.begin(), Leader.end(), uint8_t(1)));
}

/// Scratch buffers of the routine builder.  One instance per pool lane
/// is reused across all routines that lane builds, so building a routine
/// allocates nothing.
struct RoutineScratch {
  std::vector<uint32_t> BlockOfAddress;
  /// Successor lists of the lane's routines, routine after routine and,
  /// within a routine, block after block.
  std::vector<uint32_t> Succs;
};

/// Where one chunk's records sit in its lane's buffer.
struct LaneSegment {
  unsigned Lane = 0;
  size_t Begin = 0;
  size_t Count = 0;
};

/// Builds the basic blocks of one healthy routine, whose entrances are
/// \p Entries, in place in \p Blocks, its entrance blocks in
/// \p EntryBlocks, and counts its branches in \p NumBranches.  Successor
/// lists go to the lane's Succs buffer: the routine's arc count is known
/// only once they are deduplicated, so placeArcs packs them later.
/// Direct calls resolve against \p Scan's entrances when given, the
/// program's otherwise.
class RoutineBuilder {
public:
  RoutineBuilder(const Program &Prog, const Routine &R,
                 std::span<const uint64_t> Entries,
                 std::span<BasicBlock> Blocks, std::span<uint32_t> EntryBlocks,
                 std::span<const uint8_t> Leader, RoutineScratch &Scratch,
                 unsigned &NumBranches, const EntranceScan *Scan)
      : Prog(Prog), R(R), Entries(Entries), Blocks(Blocks),
        EntryBlocks(EntryBlocks), Leader(Leader),
        BlockOfAddress(Scratch.BlockOfAddress), Succs(Scratch.Succs),
        SuccBase(Scratch.Succs.size()), NumBranches(NumBranches), Scan(Scan) {}

  void run() {
    makeBlocks();
    connectBlocks();
    indexEntries();
    resolveCalls();
  }

private:
  uint64_t localSize() const { return R.End - R.Begin; }

  bool inRoutine(uint64_t Address) const {
    return Address >= R.Begin && Address < R.End;
  }

  void makeBlocks() {
    BlockOfAddress.assign(localSize(), ~uint32_t(0));
    uint32_t Next = 0;
    uint64_t Address = R.Begin;
    while (Address < R.End) {
      BasicBlock &Block = Blocks[Next];
      Block.Begin = uint32_t(Address);
      uint64_t Cursor = Address;
      for (;;) {
        BlockOfAddress[Cursor - R.Begin] = Next;
        if (Prog.inst(Cursor).endsBlock()) {
          ++Cursor;
          break;
        }
        ++Cursor;
        if (Cursor == R.End || Leader[Cursor - R.Begin])
          break;
      }
      Block.End = uint32_t(Cursor);
      ++Next;
      Address = Cursor;
    }
    assert(Next == Blocks.size() && "block count disagrees with markLeaders");
  }

  uint32_t blockAt(uint64_t Address) const {
    assert(inRoutine(Address) && "address outside routine");
    uint32_t Block = BlockOfAddress[Address - R.Begin];
    assert(Block != ~uint32_t(0) && "address not covered by a block");
    return Block;
  }

  /// Appends \p Succ to the successor list being built for \p Block.
  void addSucc(const BasicBlock &Block, uint32_t Succ) {
    auto First = Succs.begin() + SuccBase + Block.FirstSucc;
    if (std::find(First, Succs.end(), Succ) == Succs.end())
      Succs.push_back(Succ);
  }

  /// Sets each block's terminator kind and successor list.
  void connectBlocks() {
    for (uint32_t BlockIndex = 0; BlockIndex < Blocks.size(); ++BlockIndex) {
      BasicBlock &Block = Blocks[BlockIndex];
      Block.FirstSucc = uint32_t(Succs.size() - SuccBase);
      uint64_t Last = Block.End - 1;
      const Instruction Term = Prog.inst(Last);
      const OpcodeInfo &Info = opcodeInfo(Term.Op);
      bool HasFallThrough = Block.End < R.End;

      if (!Term.endsBlock()) {
        Block.Term = TerminatorKind::FallThrough;
        if (HasFallThrough)
          addSucc(Block, blockAt(Block.End));
        continue;
      }

      if (Info.IsUncondBranch) {
        uint64_t Target = branchTarget(Prog, Last);
        if (!inRoutine(Target)) {
          // A branch leaving the routine (e.g. a tail call) has unknown
          // register behaviour at this level; treat conservatively.
          Block.Term = TerminatorKind::UnresolvedJump;
          ++NumBranches;
          continue;
        }
        Block.Term = TerminatorKind::Branch;
        addSucc(Block, blockAt(Target));
        ++NumBranches;
        continue;
      }

      if (Info.IsCondBranch) {
        uint64_t Target = branchTarget(Prog, Last);
        if (!inRoutine(Target)) {
          Block.Term = TerminatorKind::UnresolvedJump;
          ++NumBranches;
          continue;
        }
        Block.Term = TerminatorKind::CondBranch;
        addSucc(Block, blockAt(Target));
        if (HasFallThrough)
          addSucc(Block, blockAt(Block.End));
        ++NumBranches;
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
          // Dangling index: same defense in depth as in markLeaders —
          // degrade to an unresolved jump instead of indexing out of
          // bounds.
          Block.Term = TerminatorKind::UnresolvedJump;
          ++NumBranches;
          continue;
        }
        const JumpTableTargets &Table = Prog.JumpTables[TableIndex];
        bool AllInRoutine = true;
        for (uint64_t Target : Table.Targets)
          AllInRoutine &= inRoutine(Target);
        if (!AllInRoutine) {
          Block.Term = TerminatorKind::UnresolvedJump;
          ++NumBranches;
          continue;
        }
        Block.Term = TerminatorKind::TableJump;
        Block.JumpTableIndex = Term.Imm;
        for (uint64_t Target : Table.Targets)
          addSucc(Block, blockAt(Target));
        ++NumBranches;
        continue;
      }

      if (Info.IsUnresolvedJump) {
        Block.Term = TerminatorKind::UnresolvedJump;
        continue;
      }

      assert(Info.IsHalt && "unhandled terminator kind");
      Block.Term = TerminatorKind::Halt;
    }
  }

  void indexEntries() {
    for (size_t I = 0; I < Entries.size(); ++I) {
      uint64_t Entry = Entries[I];
      assert(Prog.numInsts() > Entry && inRoutine(Entry));
      // Entrances always start a block (they were marked as leaders).
      assert(Blocks[blockAt(Entry)].Begin == Entry &&
             "entrance does not start a block");
      EntryBlocks[I] = blockAt(Entry);
    }
  }

  /// Resolves each direct call to its (routine, entrance) pair.  The
  /// validator quarantines a routine with a wild call, so a healthy
  /// routine's targets always resolve, and the entrance registration
  /// listed each target as an entrance of its routine.
  void resolveCalls() {
    for (BasicBlock &Block : Blocks) {
      if (Block.Term != TerminatorKind::Call)
        continue;
      uint64_t Target = uint64_t(uint32_t(Prog.inst(Block.End - 1).Imm));
      int32_t CalleeIndex = findRoutineByAddress(Prog, Target);
      assert(CalleeIndex >= 0 && "unresolved direct call");
      std::span<const uint64_t> Entries =
          Scan ? Scan->entries(uint32_t(CalleeIndex))
               : Prog.Routines[CalleeIndex].EntryAddresses;
      auto It = std::lower_bound(Entries.begin(), Entries.end(), Target);
      assert(It != Entries.end() && *It == Target &&
             "call target was not registered as an entrance");
      Block.CalleeRoutine = CalleeIndex;
      Block.CalleeEntry = int32_t(It - Entries.begin());
    }
  }

  const Program &Prog;
  const Routine &R;
  std::span<const uint64_t> Entries;
  std::span<BasicBlock> Blocks;
  std::span<uint32_t> EntryBlocks;
  std::span<const uint8_t> Leader;
  std::vector<uint32_t> &BlockOfAddress;
  std::vector<uint32_t> &Succs;
  size_t SuccBase;
  unsigned &NumBranches;
  const EntranceScan *Scan;
};

/// Packs a routine's arcs into \p Arcs, its slice of Program::AllArcs:
/// the successor lists \p Succs that RoutineBuilder left in its lane's
/// buffer, then the predecessor lists, each in ascending source-block
/// order.  Also lists the routine's exit and call blocks.  The blocks
/// are fresh (every FirstPred 0).
void placeArcs(std::span<BasicBlock> Blocks, std::span<const uint32_t> Succs,
               std::span<uint32_t> Arcs, std::span<uint32_t> ExitBlocks,
               std::span<uint32_t> CallBlocks) {
  std::copy(Succs.begin(), Succs.end(), Arcs.begin());
  // Count each block's predecessors in its FirstPred, turn the counts
  // into list ends, then fill every list backwards from its end in
  // descending source-block order: each list comes out ascending, with
  // FirstPred back at its start.
  for (uint32_t Succ : Succs)
    ++Blocks[Succ].FirstPred;
  uint32_t End = uint32_t(Succs.size());
  for (BasicBlock &Block : Blocks) {
    End += Block.FirstPred;
    Block.FirstPred = End;
  }
  for (uint32_t BlockIndex = uint32_t(Blocks.size()); BlockIndex-- > 0;) {
    uint32_t SuccEnd = BlockIndex + 1 < Blocks.size()
                           ? Blocks[BlockIndex + 1].FirstSucc
                           : uint32_t(Succs.size());
    for (uint32_t Arc = Blocks[BlockIndex].FirstSucc; Arc < SuccEnd; ++Arc)
      Arcs[--Blocks[Succs[Arc]].FirstPred] = BlockIndex;
  }
  size_t NumExits = 0, NumCalls = 0;
  for (uint32_t BlockIndex = 0; BlockIndex < Blocks.size(); ++BlockIndex) {
    const BasicBlock &Block = Blocks[BlockIndex];
    if (Block.Term == TerminatorKind::Return)
      ExitBlocks[NumExits++] = BlockIndex;
    if (Block.endsWithCall())
      CallBlocks[NumCalls++] = BlockIndex;
  }
}

/// A direct call the entrance scan found: the routine it enters, the
/// entrance address, and whether the calling word lies in quarantined
/// or unowned code.
struct CallFact {
  uint32_t Callee = 0;
  uint64_t Target = 0;
  bool FromBadRegion = false;

  auto operator<=>(const CallFact &) const = default;
};

/// One pool lane's scan output, reused across the chunks it scans.
struct ScanLane {
  std::vector<CallFact> Facts;
  /// An undecodable word, or an indirect call in quarantined or unowned
  /// code: either may reach any routine.
  bool Opaque = false;
};

/// Scans \p Words for what they imply about other routines: the entrances
/// their direct calls register (appended to \p L's facts) and whether
/// they are opaque.  \p InBadRegion says the words are quarantined or
/// unowned code.  Undecodable words read as a halt placeholder
/// (Program::inst): the validator quarantines their owning routine (or,
/// for unowned garbage, the opaque flag makes every routine
/// CalledFromQuarantine), so the placeholder is never analyzed as if it
/// were real code.  A direct jsr from quarantined or unowned code names
/// its target, which must then assume a caller that ignores the calling
/// standard; indirect calls or undecodable words there can reach
/// *anything*.
void scanWords(const Program &Prog, std::span<const uint64_t> Words,
               bool InBadRegion, ScanLane &L) {
  for (uint64_t Word : Words) {
    std::optional<Instruction> Inst = decodeInstruction(Word);
    if (!Inst) {
      L.Opaque = true;
      continue;
    }
    if (Inst->Op == Opcode::JsrR && InBadRegion)
      L.Opaque = true;
    if (Inst->Op != Opcode::Jsr)
      continue;
    // A wild call has no entrance to register: the validator
    // quarantined its owner (or it sits in unowned code).
    if (Inst->Imm < 0 || uint64_t(Inst->Imm) >= Prog.numInsts())
      continue;
    // A healthy call to a primary entrance adds nothing: every
    // routine already has its primary entrance.
    int32_t Callee = findRoutineByAddress(Prog, uint64_t(Inst->Imm));
    if (Callee >= 0 &&
        (InBadRegion ||
         uint64_t(Inst->Imm) != Prog.Routines[uint32_t(Callee)].Begin))
      L.Facts.push_back({uint32_t(Callee), uint64_t(Inst->Imm), InBadRegion});
  }
}

/// Why buildProgram quarantines a routine it is told to.
const char *const ForcedReason = "quarantine forced by build options";
const char *const BudgetReason = "analysis budget exceeded";

/// Models quarantined routine \p R like the paper's unknowable code
/// (Section 3.5): one block spanning the whole routine, terminated by an
/// unresolved jump, using and defining nothing we can rely on —
/// worst-case UBD, empty DEF — with no exits and no call sites.  Every
/// entrance maps to that block.
void makeQuarantinedBlock(const Routine &R, BasicBlock &Block) {
  Block.Begin = uint32_t(R.Begin);
  Block.End = uint32_t(R.End);
  Block.Term = TerminatorKind::UnresolvedJump;
  Block.Ubd = RegSet::allBelow(NumIntRegs);
}

/// Counts the exit and call blocks among \p Blocks.
std::pair<uint32_t, uint32_t> countExitsAndCalls(
    std::span<const BasicBlock> Blocks) {
  uint32_t NumExits = 0, NumCalls = 0;
  for (const BasicBlock &Block : Blocks) {
    NumExits += Block.Term == TerminatorKind::Return;
    NumCalls += Block.endsWithCall();
  }
  return {NumExits, NumCalls};
}

/// Calls \p Visit with the bytes of each container of Prog.Calls and the
/// two schedules, in the order buildProgram charges them.
template <class VisitFn>
void forEachScheduleContainer(const Program &Prog, VisitFn Visit) {
  const CallGraph &Graph = Prog.Calls;
  for (const std::vector<uint32_t> *Ids :
       {&Graph.Callees.Begin, &Graph.Callees.Ids, &Graph.Callers.Begin,
        &Graph.Callers.Ids, &Graph.SccId})
    Visit(elementBytes(*Ids));
  for (const std::vector<bool> *Flags :
       {&Graph.HasIndirectCalls, &Graph.InCycle, &Graph.Reachable})
    Visit(elementBytes(*Flags));
  for (const SccSchedule *Sched : {&Prog.CalleeFirst, &Prog.CallerFirst}) {
    Visit(elementBytes(Sched->GroupOfRoutine));
    for (const std::vector<std::vector<uint32_t>> *Lists :
         {&Sched->Members, &Sched->Levels, &Sched->GroupSucc})
      Visit(elementBytes(*Lists) + nestedElementBytes(*Lists));
  }
}

/// Calls \p Visit with each charge buildProgram makes for routine \p R,
/// in order: its record with its entrance, exit and call lists, then
/// each block with its arcs.
template <class VisitFn>
void forEachRoutineCharge(const Routine &R, VisitFn Visit) {
  Visit(sizeof(Routine) + R.EntryAddresses.size() * sizeof(uint64_t) +
        (R.EntryBlocks.size() + R.ExitBlocks.size() + R.CallBlocks.size()) *
            sizeof(uint32_t));
  for (uint32_t Block = 0; Block < R.Blocks.size(); ++Block)
    Visit(sizeof(BasicBlock) +
          (R.succs(Block).size() + R.preds(Block).size()) * sizeof(uint32_t));
}

/// Fills the DEF and UBD sets of a healthy routine's \p Blocks.
void computeBlockSets(const Program &Prog, std::span<BasicBlock> Blocks) {
  for (BasicBlock &Block : Blocks) {
    RegSet Def, Ubd;
    for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
      const Instruction Inst = Prog.inst(Address);
      bool IsCallTerminator =
          Address == Block.End - 1 && opcodeInfo(Inst.Op).IsCall;
      Ubd |= Inst.uses() - Def;
      if (!IsCallTerminator)
        Def |= Inst.defs();
    }
    Block.Def = Def;
    Block.Ubd = Ubd;
  }
}

} // namespace

std::span<const uint64_t> EntranceScan::entries(uint32_t R) const {
  return std::span(Entries).subspan(Begin[R], Begin[R + 1] - Begin[R]);
}

EntranceScan spike::scanEntrances(const Image &Img, const Program &Prog,
                                  ThreadPool *Pool) {
  // Entrances besides the primaries, as (routine, address) pairs: the
  // secondary symbols here, the scan's call targets below.  Orphaned
  // secondaries (out of range or in a symbol gap) are dropped — the
  // validator reported them.
  std::vector<std::pair<uint32_t, uint64_t>> Entrances;
  for (const Symbol &Sym : Img.Symbols) {
    if (!Sym.Secondary)
      continue;
    int32_t RoutineIndex = findRoutineByAddress(Prog, Sym.Address);
    if (RoutineIndex >= 0)
      Entrances.push_back({uint32_t(RoutineIndex), Sym.Address});
  }

  // Scan the code for call-targeted entrances, one task per routine plus
  // one for the unowned words before the first routine.
  std::vector<ScanLane> Lanes(Pool ? Pool->jobs() : 1);
  std::vector<LaneSegment> Segments(Prog.Routines.size() + 1);
  {
    telemetry::Span ScanSpan("cfg.scan");
    forEachTask(Pool, Segments.size(), [&](size_t Chunk, unsigned Lane) {
      uint64_t Begin = 0, End = Prog.numInsts();
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
      scanWords(Prog, Prog.Code.subspan(Begin, End - Begin), InBadRegion, L);
      Segments[Chunk].Count = L.Facts.size() - Segments[Chunk].Begin;
    });
  }

  // Register the entrances in routine order: a counting sort puts each
  // routine's primary, secondary symbols and call targets in its slice
  // of Entries, where they are sorted, deduplicated and packed down.
  size_t Count = Prog.Routines.size();
  EntranceScan Scan;
  Scan.CalledFromQuarantine.assign(Count, 0);
  bool Opaque = false;
  for (const ScanLane &L : Lanes)
    Opaque |= L.Opaque;
  for (const LaneSegment &Seg : Segments)
    for (size_t I = Seg.Begin; I < Seg.Begin + Seg.Count; ++I) {
      const CallFact &Fact = Lanes[Seg.Lane].Facts[I];
      Entrances.push_back({Fact.Callee, Fact.Target});
      if (Fact.FromBadRegion)
        Scan.CalledFromQuarantine[Fact.Callee] = 1;
    }
  Lanes.clear();
  if (Opaque)
    std::fill(Scan.CalledFromQuarantine.begin(),
              Scan.CalledFromQuarantine.end(), 1);
  std::vector<uint32_t> &EntryBegin = Scan.Begin;
  EntryBegin.assign(Count + 1, 0);
  for (const auto &[Owner, Address] : Entrances)
    ++EntryBegin[Owner + 1];
  for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex)
    EntryBegin[RoutineIndex + 1] += EntryBegin[RoutineIndex] + 1;
  std::vector<uint64_t> &Entries = Scan.Entries;
  Entries.resize(EntryBegin[Count]);
  {
    std::vector<uint32_t> Cursor(EntryBegin.begin(), EntryBegin.end() - 1);
    for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex)
      Entries[Cursor[RoutineIndex]++] = Prog.Routines[RoutineIndex].Begin;
    for (const auto &[Owner, Address] : Entrances)
      Entries[Cursor[Owner]++] = Address;
  }
  uint32_t Packed = 0;
  for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex) {
    auto First = Entries.begin() + EntryBegin[RoutineIndex];
    auto Last = Entries.begin() + EntryBegin[RoutineIndex + 1];
    std::sort(First, Last);
    Last = std::unique(First, Last);
    if (Entries.begin() + Packed != First)
      std::copy(First, Last, Entries.begin() + Packed);
    EntryBegin[RoutineIndex] = Packed;
    Packed += uint32_t(Last - First);
  }
  EntryBegin[Count] = Packed;
  Entries.resize(Packed);
  Entries.shrink_to_fit();
  return Scan;
}

bool spike::sameEntranceFacts(const Program &Prog,
                              std::span<const uint64_t> Old, bool OldBad,
                              std::span<const uint64_t> New, bool NewBad) {
  ScanLane Before, After;
  scanWords(Prog, Old, OldBad, Before);
  scanWords(Prog, New, NewBad, After);
  for (std::vector<CallFact> *Facts : {&Before.Facts, &After.Facts}) {
    std::sort(Facts->begin(), Facts->end());
    Facts->erase(std::unique(Facts->begin(), Facts->end()), Facts->end());
  }
  return Before.Opaque == After.Opaque && Before.Facts == After.Facts;
}

QuarantineState spike::quarantineState(const std::string &Name,
                                        const std::string *ValidationReason,
                                        const CfgBuildOptions &Sorted) {
  auto Named = [&](const std::vector<std::string> &Names) {
    return std::binary_search(Names.begin(), Names.end(), Name);
  };
  if (ValidationReason)
    return {true, DegradeReason::Validation, *ValidationReason};
  if (Named(Sorted.ForceQuarantine))
    return {true, DegradeReason::Forced, ForcedReason};
  if (Named(Sorted.BudgetDegrade))
    return {true, DegradeReason::Budget, BudgetReason};
  return {};
}

CfgBuildOptions spike::sortedNames(CfgBuildOptions Options) {
  std::sort(Options.ForceQuarantine.begin(), Options.ForceQuarantine.end());
  std::sort(Options.BudgetDegrade.begin(), Options.BudgetDegrade.end());
  return Options;
}

Program spike::buildProgram(const Image &Img, const CallingConv &Conv,
                            MemoryTracker *Mem,
                            const CfgBuildOptions &Options,
                            ThreadPool *Pool) {
  telemetry::Span BuildSpan("cfg.build");
  if (Status TooLarge = checkCodeSize(Img.Code.size()); !TooLarge.ok())
    throw std::length_error(TooLarge.str());
  Program Prog;
  Prog.Code = Img.Code;
  Prog.Conv = Conv;
  Prog.Validation = validateImage(Img, Pool);

  for (const JumpTable &Table : Img.JumpTables) {
    Prog.JumpTables.push_back({Table.Targets});
    chargeIf(Mem, Table.Targets.size() * sizeof(uint64_t));
  }

  // The partition the validator attributed its findings to.
  std::vector<RoutineExtent> Extents = partitionRoutines(Img);
  Prog.Routines.reserve(Extents.size());
  for (const RoutineExtent &E : Extents) {
    Routine R;
    R.Name = E.Name;
    R.Begin = E.Begin;
    R.End = E.End;
    R.AddressTaken = E.AddressTaken;
    Prog.Routines.push_back(std::move(R));
  }
  size_t Count = Prog.Routines.size();

  // Each routine's quarantine: the first validation finding attributed to
  // it, then the options.
  std::vector<const std::string *> FirstFinding(Count, nullptr);
  for (const ValidationFinding &F : Prog.Validation.Findings) {
    if (!F.Quarantines || F.Address < 0)
      continue;
    int32_t RoutineIndex = findRoutineByAddress(Prog, uint64_t(F.Address));
    if (RoutineIndex >= 0 && !FirstFinding[RoutineIndex])
      FirstFinding[RoutineIndex] = &F.Message;
  }
  CfgBuildOptions Sorted = sortedNames(Options);
  for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex) {
    Routine &R = Prog.Routines[RoutineIndex];
    QuarantineState Q =
        quarantineState(R.Name, FirstFinding[RoutineIndex], Sorted);
    R.Quarantined = Q.Quarantined;
    R.Degrade = Q.Degrade;
    R.QuarantineReason = std::move(Q.Reason);
  }

  // An address-taken secondary symbol makes its routine address-taken.
  for (const Symbol &Sym : Img.Symbols) {
    if (!Sym.Secondary || !Sym.AddressTaken)
      continue;
    int32_t RoutineIndex = findRoutineByAddress(Prog, Sym.Address);
    if (RoutineIndex >= 0)
      Prog.Routines[RoutineIndex].AddressTaken = true;
  }

  EntranceScan Scan = scanEntrances(Img, Prog, Pool);
  for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex)
    Prog.Routines[RoutineIndex].CalledFromQuarantine =
        Scan.CalledFromQuarantine[RoutineIndex];

  // A fresh build is the rebuild of every routine, spliced into the empty
  // program.
  std::vector<uint32_t> Every(Count);
  std::iota(Every.begin(), Every.end(), 0);
  CfgLists Lists = buildCfgLists(Prog, Every, &Scan, Pool);
  spliceCfgLists(Prog, Every, Lists);

  copyAnnotations(Prog, Img, 0, Prog.numInsts());

  // Locate the entry routine (-1 when the entry address is out of range
  // or falls outside every routine; both are validator findings).
  Prog.EntryRoutine = Img.EntryAddress < Img.Code.size()
                          ? findRoutineByAddress(Prog, Img.EntryAddress)
                          : -1;

  buildSchedules(Prog, Pool);

  // Charges stay serial and in routine order, so the Nth tracked
  // allocation (--inject-fault alloc@N) is the same at every job count:
  // each routine's (forEachRoutineCharge), then one per container of the
  // call graph and the schedules.
  if (Mem) {
    for (const Routine &R : Prog.Routines)
      forEachRoutineCharge(R, [&](size_t Bytes) { Mem->charge(Bytes); });
    forEachScheduleContainer(Prog, [&](size_t Bytes) { Mem->charge(Bytes); });
  }

  if (telemetry::active()) {
    telemetry::count("cfg.routines", Prog.Routines.size());
    telemetry::count("cfg.blocks", Prog.numBlocks());
    telemetry::count("cfg.insts", Prog.numInsts());
    telemetry::count("cfg.quarantined_routines", Prog.numQuarantined());
    telemetry::count("degrade.budget_routines", Prog.numBudgetDegraded());
  }

  return Prog;
}

CfgLists spike::buildCfgLists(const Program &Prog,
                              std::span<const uint32_t> Routines,
                              const EntranceScan *Scan, ThreadPool *Pool) {
  // Build the lists in three passes, each one task per routine that reads
  // the instruction stream and the routine's bounds, flags and entrances,
  // and writes only its own lists.  The serial steps between the passes
  // size the lists from the counts the pass before found, so every
  // routine writes in place:
  //   1. mark leaders and count each routine's blocks;
  //   2. split and connect the blocks, index the entrances and resolve
  //      the direct calls;
  //   3. pack the arcs and list the exit and call blocks.
  // A quarantined routine is one block (makeQuarantinedBlock).
  size_t Count = Routines.size();
  CfgLists L;
  // Open zeroes a list set's counts; Close sums them to offsets and
  // sizes the items.
  auto Open = [&](auto &Lists) { Lists.Begin.assign(Count + 1, 0); };
  auto Close = [&](auto &Lists) {
    std::partial_sum(Lists.Begin.begin(), Lists.Begin.end(),
                     Lists.Begin.begin());
    Lists.Items.resize(Lists.Begin[Count]);
  };
  auto EntriesOf = [&](size_t I) {
    return Scan ? Scan->entries(Routines[I])
                : Prog.Routines[Routines[I]].EntryAddresses;
  };
  // The entrances, and where each routine's words sit in Leader.
  std::vector<uint32_t> WordBegin(Count + 1, 0);
  Open(L.EntryAddresses);
  for (size_t I = 0; I < Count; ++I) {
    const Routine &R = Prog.Routines[Routines[I]];
    WordBegin[I + 1] = WordBegin[I] + uint32_t(R.End - R.Begin);
    L.EntryAddresses.Begin[I + 1] = uint32_t(EntriesOf(I).size());
  }
  Close(L.EntryAddresses);
  for (size_t I = 0; I < Count; ++I)
    std::ranges::copy(EntriesOf(I), L.EntryAddresses.list(I).begin());
  L.EntryBlocks.Begin = L.EntryAddresses.Begin;
  L.EntryBlocks.Items.resize(L.EntryAddresses.Items.size());
  L.NumBranches.assign(Count, 0);

  std::vector<uint8_t> Leader(WordBegin[Count], 0);
  auto LeadersOf = [&](size_t I) {
    return std::span(Leader).subspan(WordBegin[I],
                                     WordBegin[I + 1] - WordBegin[I]);
  };
  Open(L.Blocks);
  {
    telemetry::Span LeadersSpan("cfg.leaders");
    forEachTask(Pool, Count, [&](size_t I, unsigned) {
      const Routine &R = Prog.Routines[Routines[I]];
      L.Blocks.Begin[I + 1] =
          R.Quarantined ? 1
                        : markLeaders(Prog, R, L.EntryAddresses.list(I),
                                      LeadersOf(I));
    });
  }
  Close(L.Blocks);

  std::vector<RoutineScratch> Scratch(Pool ? Pool->jobs() : 1);
  std::vector<LaneSegment> SuccSegments(Count);
  Open(L.Arcs);
  Open(L.ExitBlocks);
  Open(L.CallBlocks);
  {
    telemetry::Span RoutinesSpan("cfg.routines");
    forEachTask(Pool, Count, [&](size_t I, unsigned Lane) {
      const Routine &R = Prog.Routines[Routines[I]];
      std::span<BasicBlock> Blocks = L.Blocks.list(I);
      RoutineScratch &S = Scratch[Lane];
      size_t SuccBase = S.Succs.size();
      if (R.Quarantined)
        makeQuarantinedBlock(R, Blocks[0]);
      else
        RoutineBuilder(Prog, R, L.EntryAddresses.list(I), Blocks,
                       L.EntryBlocks.list(I), LeadersOf(I), S,
                       L.NumBranches[I], Scan)
            .run();
      auto [NumExits, NumCalls] = countExitsAndCalls(Blocks);
      SuccSegments[I] = {Lane, SuccBase, S.Succs.size() - SuccBase};
      L.Arcs.Begin[I + 1] = 2 * uint32_t(S.Succs.size() - SuccBase);
      L.ExitBlocks.Begin[I + 1] = NumExits;
      L.CallBlocks.Begin[I + 1] = NumCalls;
    });
  }
  Close(L.Arcs);
  Close(L.ExitBlocks);
  Close(L.CallBlocks);
  {
    telemetry::Span ArcsSpan("cfg.arcs");
    forEachTask(Pool, Count, [&](size_t I, unsigned) {
      const LaneSegment &Seg = SuccSegments[I];
      placeArcs(L.Blocks.list(I),
                std::span<const uint32_t>(Scratch[Seg.Lane].Succs)
                    .subspan(Seg.Begin, Seg.Count),
                L.Arcs.list(I), L.ExitBlocks.list(I), L.CallBlocks.list(I));
    });
  }
  return L;
}

namespace {

/// Swaps \p Lists, built for \p Routines, with those routines' lists
/// \p Member in \p All, then re-points every routine's Member: each list
/// starts where the previous routine's ends.
template <class T>
void spliceList(Program &Prog, std::span<const uint32_t> Routines,
                std::span<const T> Routine::*Member, std::vector<T> &All,
                FlatLists<T> &Lists) {
  std::vector<Slice> Slices;
  Slices.reserve(Routines.size());
  for (uint32_t R : Routines) {
    std::span<const T> Old = Prog.Routines[R].*Member;
    Slices.push_back({size_t(Old.data() - All.data()), Old.size()});
  }
  std::vector<uint32_t> NewBegin = Lists.Begin;
  swapSlices(All, Slices, Lists.Items, Lists.Begin);
  size_t Pos = 0, Next = 0;
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
    std::span<const T> &List = Prog.Routines[R].*Member;
    size_t Count = List.size();
    if (Next < Routines.size() && Routines[Next] == R) {
      Count = NewBegin[Next + 1] - NewBegin[Next];
      ++Next;
    }
    List = std::span<const T>(All).subspan(Pos, Count);
    Pos += Count;
  }
}

} // namespace

void spike::spliceCfgLists(Program &Prog, std::span<const uint32_t> Routines,
                           CfgLists &Lists) {
  spliceList(Prog, Routines, &Routine::Blocks, Prog.AllBlocks, Lists.Blocks);
  spliceList(Prog, Routines, &Routine::Arcs, Prog.AllArcs, Lists.Arcs);
  spliceList(Prog, Routines, &Routine::EntryAddresses, Prog.AllEntryAddresses,
             Lists.EntryAddresses);
  spliceList(Prog, Routines, &Routine::EntryBlocks, Prog.AllEntryBlocks,
             Lists.EntryBlocks);
  spliceList(Prog, Routines, &Routine::ExitBlocks, Prog.AllExitBlocks,
             Lists.ExitBlocks);
  spliceList(Prog, Routines, &Routine::CallBlocks, Prog.AllCallBlocks,
             Lists.CallBlocks);
  for (size_t I = 0; I < Routines.size(); ++I)
    std::swap(Prog.Routines[Routines[I]].NumBranches, Lists.NumBranches[I]);
}

void spike::copyAnnotations(Program &Prog, const Image &Img, uint64_t Begin,
                            uint64_t End) {
  // Drop annotations that do not resolve to the matching instruction
  // inside a healthy routine: quarantined code is modelled worst-case,
  // and trusting an annotation planted in garbage would un-do that
  // conservatism.
  auto Usable = [&](uint64_t Address, Opcode Expected) {
    if (Address < Begin || Address >= End || Address >= Prog.numInsts())
      return false;
    std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
    if (!Inst || Inst->Op != Expected)
      return false;
    int32_t Owner = findRoutineByAddress(Prog, Address);
    return Owner >= 0 && !Prog.Routines[uint32_t(Owner)].Quarantined;
  };
  Prog.CallAnnotations.erase(Prog.CallAnnotations.lower_bound(Begin),
                             Prog.CallAnnotations.lower_bound(End));
  Prog.JumpLiveAnnotations.erase(Prog.JumpLiveAnnotations.lower_bound(Begin),
                                 Prog.JumpLiveAnnotations.lower_bound(End));
  for (const IndirectCallAnnotation &Annot : Img.CallAnnotations)
    if (Usable(Annot.Address, Opcode::JsrR))
      Prog.CallAnnotations[Annot.Address] = Annot;
  for (const IndirectJumpAnnotation &Annot : Img.JumpAnnotations)
    if (Usable(Annot.Address, Opcode::JmpR))
      Prog.JumpLiveAnnotations[Annot.Address] = Annot.LiveAtTarget;
}

void spike::buildSchedules(Program &Prog, ThreadPool *Pool) {
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

uint64_t spike::routineCfgBytes(const Routine &R) {
  uint64_t Bytes = 0;
  forEachRoutineCharge(R, [&](size_t Charge) { Bytes += Charge; });
  return Bytes;
}

uint64_t spike::scheduleBytes(const Program &Prog) {
  uint64_t Bytes = 0;
  forEachScheduleContainer(Prog, [&](size_t ContainerBytes) {
    Bytes += ContainerBytes;
  });
  return Bytes;
}

void spike::computeDefUbd(Program &Prog, std::span<const uint32_t> Routines,
                          ThreadPool *Pool) {
  forEachTask(Pool, Routines.size(), [&](size_t I, unsigned) {
    const Routine &R = Prog.Routines[Routines[I]];
    // Quarantined routines keep their hand-set worst-case sets (empty
    // DEF, all-registers UBD); recomputing from the placeholder-decoded
    // garbage would be unsound.
    if (R.Quarantined)
      return;
    // Routine::Blocks is a read-only view; write through the owning array.
    computeBlockSets(Prog, std::span(Prog.AllBlocks).subspan(
                               size_t(R.Blocks.data() - Prog.AllBlocks.data()),
                               R.Blocks.size()));
  });
}

void spike::computeDefUbd(Program &Prog, ThreadPool *Pool) {
  std::vector<uint32_t> Every(Prog.Routines.size());
  std::iota(Every.begin(), Every.end(), 0);
  computeDefUbd(Prog, Every, Pool);
}
