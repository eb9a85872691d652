//===- cfg/CfgBuilder.cpp - Image -> Program CFG construction ------------===//

#include "cfg/CfgBuilder.h"

#include "isa/Encoding.h"
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

namespace {

/// Returns the branch target of the relative branch at \p Address.
uint64_t branchTarget(const Program &Prog, uint64_t Address) {
  return uint64_t(int64_t(Address) + 1 + Prog.inst(Address).Imm);
}

/// Marks the leaders of healthy routine \p R in \p Leader (indexed by
/// address; each routine writes only its own range) and returns the
/// routine's block count: every block starts at a leader and every
/// leader starts a block.
uint32_t markLeaders(const Program &Prog, const Routine &R,
                     std::vector<uint8_t> &Leader) {
  auto Mark = [&](uint64_t Address) {
    if (Address >= R.Begin && Address < R.End)
      Leader[Address] = 1;
  };
  Leader[R.Begin] = 1;
  for (uint64_t Entry : R.EntryAddresses)
    Mark(Entry);
  for (uint64_t Address = R.Begin; Address < R.End; ++Address) {
    const Instruction Inst = Prog.inst(Address);
    const OpcodeInfo &Info = opcodeInfo(Inst.Op);
    if (!Inst.endsBlock())
      continue;
    if (Address + 1 < R.End)
      Leader[Address + 1] = 1;
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
  return uint32_t(std::count(Leader.begin() + R.Begin,
                             Leader.begin() + R.End, uint8_t(1)));
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

/// Returns routine \p R's slice of \p All, given the routine-order
/// offsets \p Begin of every routine's slice.
template <class T>
std::span<T> sliceOf(std::vector<T> &All, const std::vector<uint32_t> &Begin,
                     size_t R) {
  return std::span(All).subspan(Begin[R], Begin[R + 1] - Begin[R]);
}

/// Builds the basic blocks of one healthy routine in place, in its slice
/// of Program::AllBlocks, and its entrance blocks.  Successor lists go
/// to the lane's Succs buffer: the routine's arc count is known only
/// once they are deduplicated, so placeArcs packs them later.
class RoutineBuilder {
public:
  RoutineBuilder(const Program &Prog, Routine &R, std::span<BasicBlock> Blocks,
                 std::span<uint32_t> EntryBlocks,
                 const std::vector<uint8_t> &Leader, RoutineScratch &Scratch)
      : Prog(Prog), R(R), Blocks(Blocks), EntryBlocks(EntryBlocks),
        Leader(Leader), BlockOfAddress(Scratch.BlockOfAddress),
        Succs(Scratch.Succs), SuccBase(Scratch.Succs.size()) {}

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
        if (Cursor == R.End || Leader[Cursor])
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
          ++R.NumBranches;
          continue;
        }
        Block.Term = TerminatorKind::Branch;
        addSucc(Block, blockAt(Target));
        ++R.NumBranches;
        continue;
      }

      if (Info.IsCondBranch) {
        uint64_t Target = branchTarget(Prog, Last);
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
          // Dangling index: same defense in depth as in markLeaders —
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
  }

  void indexEntries() {
    for (size_t I = 0; I < R.EntryAddresses.size(); ++I) {
      uint64_t Entry = R.EntryAddresses[I];
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
          Prog.Routines[CalleeIndex].EntryAddresses;
      auto It = std::lower_bound(Entries.begin(), Entries.end(), Target);
      assert(It != Entries.end() && *It == Target &&
             "call target was not registered as an entrance");
      Block.CalleeRoutine = CalleeIndex;
      Block.CalleeEntry = int32_t(It - Entries.begin());
    }
  }

  const Program &Prog;
  Routine &R;
  std::span<BasicBlock> Blocks;
  std::span<uint32_t> EntryBlocks;
  const std::vector<uint8_t> &Leader;
  std::vector<uint32_t> &BlockOfAddress;
  std::vector<uint32_t> &Succs;
  size_t SuccBase;
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
};

/// One pool lane's scan output, reused across the chunks it scans.
struct ScanLane {
  std::vector<CallFact> Facts;
  /// An undecodable word, or an indirect call in quarantined or unowned
  /// code: either may reach any routine.
  bool Opaque = false;
};

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

  // Entrances besides the primaries, as (routine, address) pairs: the
  // secondary symbols here, the scan's call targets below.  Orphaned
  // secondaries (out of range or in a symbol gap) are dropped — the
  // validator reported them.
  std::vector<std::pair<uint32_t, uint64_t>> Entrances;
  for (const Symbol &Sym : Img.Symbols) {
    if (!Sym.Secondary)
      continue;
    int32_t RoutineIndex = findRoutineByAddress(Prog, Sym.Address);
    if (RoutineIndex < 0)
      continue;
    Entrances.push_back({uint32_t(RoutineIndex), Sym.Address});
    if (Sym.AddressTaken)
      Prog.Routines[RoutineIndex].AddressTaken = true;
  }

  // Decode the code section and discover call-targeted entrances, one
  // task per routine plus one for the unowned words before the first
  // routine.  Undecodable words read as a halt placeholder
  // (Program::inst): the validator quarantines their owning routine (or,
  // for unowned garbage, the opaque flag below makes every routine
  // CalledFromQuarantine), so the placeholder is never analyzed as if it
  // were real code.  A direct jsr from quarantined or unowned code names
  // its target, which must then assume a caller that ignores the calling
  // standard; indirect calls or undecodable words there can reach
  // *anything*.
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
      for (uint64_t Address = Begin; Address < End; ++Address) {
        std::optional<Instruction> Inst =
            decodeInstruction(Img.Code[Address]);
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
          L.Facts.push_back(
              {uint32_t(Callee), uint64_t(Inst->Imm), InBadRegion});
      }
      Segments[Chunk].Count = L.Facts.size() - Segments[Chunk].Begin;
    });
  }

  // Register the entrances in routine order: a counting sort puts each
  // routine's primary, secondary symbols and call targets in its slice
  // of AllEntryAddresses, where they are sorted, deduplicated and packed
  // down.
  size_t Count = Prog.Routines.size();
  bool OpaqueQuarantine = false;
  for (const ScanLane &L : Lanes)
    OpaqueQuarantine |= L.Opaque;
  for (const LaneSegment &Seg : Segments)
    for (size_t I = Seg.Begin; I < Seg.Begin + Seg.Count; ++I) {
      const CallFact &Fact = Lanes[Seg.Lane].Facts[I];
      Entrances.push_back({Fact.Callee, Fact.Target});
      if (Fact.FromBadRegion)
        Prog.Routines[Fact.Callee].CalledFromQuarantine = true;
    }
  Lanes.clear();
  std::vector<uint32_t> EntryBegin(Count + 1, 0);
  for (const auto &[Owner, Address] : Entrances)
    ++EntryBegin[Owner + 1];
  for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex)
    EntryBegin[RoutineIndex + 1] += EntryBegin[RoutineIndex] + 1;
  std::vector<uint64_t> &Entries = Prog.AllEntryAddresses;
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
  for (size_t RoutineIndex = 0; RoutineIndex < Count; ++RoutineIndex) {
    Routine &R = Prog.Routines[RoutineIndex];
    R.EntryAddresses = sliceOf(Entries, EntryBegin, RoutineIndex);
    if (OpaqueQuarantine)
      R.CalledFromQuarantine = true;
  }

  // Build the per-routine CFGs in three passes, each one task per
  // routine that reads the instruction stream and the (now final)
  // routine bounds and entrances, and writes only its own routine and
  // its own slices of the program-wide arrays.  The serial steps between
  // the passes size those arrays from the counts the pass before found,
  // so every routine writes in place:
  //   1. mark leaders and count each routine's blocks;
  //   2. split and connect the blocks, index the entrances and resolve
  //      the direct calls;
  //   3. pack the arcs and list the exit and call blocks.
  // A quarantined routine is modelled exactly like the paper's
  // unknowable code (Section 3.5): one block spanning the whole routine,
  // terminated by an unresolved jump, using and defining nothing we can
  // rely on — worst-case UBD, empty DEF — with no exits and no call
  // sites.  Every entrance maps to that block.
  std::vector<uint32_t> BlockBegin(Count + 1, 0);
  {
    std::vector<uint8_t> Leader(Prog.numInsts(), 0);
    {
      telemetry::Span LeadersSpan("cfg.leaders");
      forEachTask(Pool, Count, [&](size_t RoutineIndex, unsigned) {
        const Routine &R = Prog.Routines[RoutineIndex];
        BlockBegin[RoutineIndex + 1] =
            R.Quarantined ? 1 : markLeaders(Prog, R, Leader);
      });
    }
    std::partial_sum(BlockBegin.begin(), BlockBegin.end(),
                     BlockBegin.begin());
    Prog.AllBlocks.resize(BlockBegin[Count]);
    Prog.AllEntryBlocks.resize(Entries.size());

    std::vector<RoutineScratch> Scratch(Pool ? Pool->jobs() : 1);
    std::vector<LaneSegment> SuccSegments(Count);
    std::vector<uint32_t> ArcBegin(Count + 1, 0), ExitBegin(Count + 1, 0),
        CallBegin(Count + 1, 0);
    {
      telemetry::Span RoutinesSpan("cfg.routines");
      forEachTask(Pool, Count, [&](size_t RoutineIndex, unsigned Lane) {
        Routine &R = Prog.Routines[RoutineIndex];
        std::span<BasicBlock> Blocks =
            sliceOf(Prog.AllBlocks, BlockBegin, RoutineIndex);
        std::span<uint32_t> EntryBlocks =
            sliceOf(Prog.AllEntryBlocks, EntryBegin, RoutineIndex);
        RoutineScratch &S = Scratch[Lane];
        size_t SuccBase = S.Succs.size();
        if (R.Quarantined) {
          BasicBlock &Block = Blocks[0];
          Block.Begin = uint32_t(R.Begin);
          Block.End = uint32_t(R.End);
          Block.Term = TerminatorKind::UnresolvedJump;
          Block.Ubd = RegSet::allBelow(NumIntRegs);
        } else {
          RoutineBuilder(Prog, R, Blocks, EntryBlocks, Leader, S).run();
        }
        uint32_t NumExits = 0, NumCalls = 0;
        for (const BasicBlock &Block : Blocks) {
          NumExits += Block.Term == TerminatorKind::Return;
          NumCalls += Block.endsWithCall();
        }
        SuccSegments[RoutineIndex] = {Lane, SuccBase,
                                      S.Succs.size() - SuccBase};
        ArcBegin[RoutineIndex + 1] = 2 * uint32_t(S.Succs.size() - SuccBase);
        ExitBegin[RoutineIndex + 1] = NumExits;
        CallBegin[RoutineIndex + 1] = NumCalls;
        R.Blocks = Blocks;
        R.EntryBlocks = EntryBlocks;
      });
    }
    for (std::vector<uint32_t> *Begin : {&ArcBegin, &ExitBegin, &CallBegin})
      std::partial_sum(Begin->begin(), Begin->end(), Begin->begin());
    Prog.AllArcs.resize(ArcBegin[Count]);
    Prog.AllExitBlocks.resize(ExitBegin[Count]);
    Prog.AllCallBlocks.resize(CallBegin[Count]);
    {
      telemetry::Span ArcsSpan("cfg.arcs");
      forEachTask(Pool, Count, [&](size_t RoutineIndex, unsigned) {
        Routine &R = Prog.Routines[RoutineIndex];
        const LaneSegment &Seg = SuccSegments[RoutineIndex];
        std::span<uint32_t> Arcs = sliceOf(Prog.AllArcs, ArcBegin, RoutineIndex);
        std::span<uint32_t> ExitBlocks =
            sliceOf(Prog.AllExitBlocks, ExitBegin, RoutineIndex);
        std::span<uint32_t> CallBlocks =
            sliceOf(Prog.AllCallBlocks, CallBegin, RoutineIndex);
        placeArcs(sliceOf(Prog.AllBlocks, BlockBegin, RoutineIndex),
                  std::span<const uint32_t>(Scratch[Seg.Lane].Succs)
                      .subspan(Seg.Begin, Seg.Count),
                  Arcs, ExitBlocks, CallBlocks);
        R.Arcs = Arcs;
        R.ExitBlocks = ExitBlocks;
        R.CallBlocks = CallBlocks;
      });
    }
  }

  // Copy the Section 3.5 side tables, dropping annotations that do not
  // resolve to the matching instruction inside a healthy routine:
  // quarantined code is modelled worst-case, and trusting an annotation
  // planted in garbage would un-do that conservatism.
  auto AnnotationUsable = [&](uint64_t Address, Opcode Expected) {
    if (Address >= Prog.numInsts())
      return false;
    std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
    if (!Inst || Inst->Op != Expected)
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

  // Charges stay serial and in routine order, so the Nth tracked
  // allocation (--inject-fault alloc@N) is the same at every job count.
  // Each routine charges its own record and slices of the six CFG
  // arrays, one charge per block; the call graph and the schedules
  // follow, one charge per container.
  if (Mem) {
    for (const Routine &R : Prog.Routines) {
      Mem->charge(sizeof(Routine) +
                  R.EntryAddresses.size() * sizeof(uint64_t) +
                  (R.EntryBlocks.size() + R.ExitBlocks.size() +
                   R.CallBlocks.size()) *
                      sizeof(uint32_t));
      for (uint32_t Block = 0; Block < R.Blocks.size(); ++Block)
        Mem->charge(sizeof(BasicBlock) +
                    (R.succs(Block).size() + R.preds(Block).size()) *
                        sizeof(uint32_t));
    }
    const CallGraph &Graph = Prog.Calls;
    for (const std::vector<uint32_t> *Ids :
         {&Graph.Callees.Begin, &Graph.Callees.Ids, &Graph.Callers.Begin,
          &Graph.Callers.Ids, &Graph.SccId})
      Mem->charge(elementBytes(*Ids));
    for (const std::vector<bool> *Flags :
         {&Graph.HasIndirectCalls, &Graph.InCycle, &Graph.Reachable})
      Mem->charge(elementBytes(*Flags));
    for (const SccSchedule *Sched : {&Prog.CalleeFirst, &Prog.CallerFirst}) {
      Mem->charge(elementBytes(Sched->GroupOfRoutine));
      for (const std::vector<std::vector<uint32_t>> *Lists :
           {&Sched->Members, &Sched->Levels, &Sched->GroupSucc})
        Mem->charge(elementBytes(*Lists) + nestedElementBytes(*Lists));
    }
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

void spike::computeDefUbd(Program &Prog, ThreadPool *Pool) {
  forEachTask(Pool, Prog.Routines.size(), [&](size_t RoutineIndex, unsigned) {
    const Routine &R = Prog.Routines[RoutineIndex];
    // Quarantined routines keep their hand-set worst-case sets (empty
    // DEF, all-registers UBD); recomputing from the placeholder-decoded
    // garbage would be unsound.
    if (R.Quarantined)
      return;
    // Routine::Blocks is a read-only view; write through the owning array.
    std::span<BasicBlock> Blocks = std::span(Prog.AllBlocks).subspan(
        size_t(R.Blocks.data() - Prog.AllBlocks.data()), R.Blocks.size());
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
  });
}
