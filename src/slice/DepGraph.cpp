//===- slice/DepGraph.cpp - Instruction dependence graph ------------------===//

#include "slice/DepGraph.h"

#include "isa/Registers.h"
#include "isa/StackRef.h"
#include "support/Budget.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <map>

using namespace spike;

namespace {

/// A small dynamic bitset: one bit per routine-local instruction plus a
/// pseudo "entry" bit for values flowing in from the caller.
class Bits {
public:
  explicit Bits(size_t N = 0) : Words((N + 63) / 64, 0) {}

  void set(size_t I) { Words[I >> 6] |= uint64_t(1) << (I & 63); }
  bool test(size_t I) const {
    return (Words[I >> 6] >> (I & 63)) & 1;
  }
  void clearAll() { std::fill(Words.begin(), Words.end(), 0); }
  void setAll(size_t N) {
    clearAll();
    for (size_t I = 0; I < N; ++I)
      set(I);
  }

  Bits &operator|=(const Bits &Other) {
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] |= Other.Words[I];
    return *this;
  }
  Bits &operator&=(const Bits &Other) {
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= Other.Words[I];
    return *this;
  }
  friend bool operator==(const Bits &A, const Bits &B) {
    return A.Words == B.Words;
  }

  /// Calls \p Fn with each set bit index, ascending.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t Word = Words[W];
      while (Word) {
        unsigned Bit = unsigned(__builtin_ctzll(Word));
        F(W * 64 + Bit);
        Word &= Word - 1;
      }
    }
  }

private:
  std::vector<uint64_t> Words;
};

/// Blocks reachable from any entrance of \p R.
std::vector<bool> reachableBlocks(const Routine &R) {
  std::vector<bool> Reach(R.Blocks.size(), false);
  std::vector<uint32_t> Work(R.EntryBlocks.begin(), R.EntryBlocks.end());
  for (uint32_t Entry : R.EntryBlocks)
    Reach[Entry] = true;
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

/// Register reaching-definitions inside one routine, emitting RegData
/// edges (and Call edges for values that flow in from call sites).
void addRegEdges(const Program &Prog, const InterprocSummaries &Summaries,
                 uint32_t RoutineIndex,
                 const std::vector<uint64_t> &CallSites,
                 const std::vector<bool> &Reach,
                 std::vector<DepEdge> &Out) {
  const Routine &R = Prog.Routines[RoutineIndex];
  size_t NumInsts = size_t(R.End - R.Begin);
  size_t EntryBit = NumInsts;
  size_t NumBlocks = R.Blocks.size();

  // Transfer for the instruction at \p Address over per-reg def sets.
  auto Step = [&](uint32_t BlockIndex, uint64_t Address,
                  std::vector<Bits> &State) {
    const BasicBlock &Block = R.Blocks[BlockIndex];
    size_t LocalBit = size_t(Address - R.Begin);
    if (Address == Block.End - 1 && Block.endsWithCall()) {
      // The call summary is this instruction's effect: must-defs kill,
      // may-defs (call-killed) merely add a possible definition.
      RegSet Defined =
          Summaries.callEffect(Prog, RoutineIndex, BlockIndex).Defined;
      RegSet Killed =
          Summaries.callKilled(Prog, RoutineIndex, BlockIndex);
      for (unsigned Reg : Killed | Defined) {
        if (Defined.contains(Reg))
          State[Reg].clearAll();
        State[Reg].set(LocalBit);
      }
      return;
    }
    for (unsigned Reg : Prog.inst(Address).defs()) {
      State[Reg].clearAll();
      State[Reg].set(LocalBit);
    }
  };

  // Registers the instruction reads, with boundary effects folded in.
  auto UsesAt = [&](uint32_t BlockIndex, uint64_t Address) {
    const BasicBlock &Block = R.Blocks[BlockIndex];
    RegSet Uses = Prog.inst(Address).uses();
    if (Address == Block.End - 1) {
      if (Block.endsWithCall())
        Uses |=
            Summaries.callEffect(Prog, RoutineIndex, BlockIndex).Used;
      else if (Block.Term == TerminatorKind::Return)
        Uses |= Summaries.liveAtExitOfBlock(Prog, RoutineIndex,
                                            BlockIndex);
      else if (Block.Term == TerminatorKind::UnresolvedJump)
        Uses |= Prog.jumpTargetLive(Address);
    }
    return Uses;
  };

  std::vector<std::vector<Bits>> BlockOut(
      NumBlocks, std::vector<Bits>(NumIntRegs, Bits(NumInsts + 1)));
  auto InStateOf = [&](uint32_t BlockIndex) {
    std::vector<Bits> State(NumIntRegs, Bits(NumInsts + 1));
    bool IsEntry = std::find(R.EntryBlocks.begin(), R.EntryBlocks.end(),
                             BlockIndex) != R.EntryBlocks.end();
    if (IsEntry)
      for (unsigned Reg = 0; Reg < NumIntRegs; ++Reg)
        State[Reg].set(EntryBit);
    for (uint32_t Pred : R.preds(BlockIndex))
      for (unsigned Reg = 0; Reg < NumIntRegs; ++Reg)
        State[Reg] |= BlockOut[Pred][Reg];
    return State;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex) {
      if (!Reach[BlockIndex])
        continue;
      std::vector<Bits> State = InStateOf(BlockIndex);
      const BasicBlock &Block = R.Blocks[BlockIndex];
      for (uint64_t Address = Block.Begin; Address < Block.End; ++Address)
        Step(BlockIndex, Address, State);
      if (!(State == BlockOut[BlockIndex])) {
        BlockOut[BlockIndex] = std::move(State);
        Changed = true;
      }
    }
  }

  for (uint32_t BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex) {
    if (!Reach[BlockIndex])
      continue;
    std::vector<Bits> State = InStateOf(BlockIndex);
    const BasicBlock &Block = R.Blocks[BlockIndex];
    for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
      for (unsigned Reg : UsesAt(BlockIndex, Address))
        State[Reg].forEach([&](size_t Bit) {
          if (Bit == EntryBit) {
            for (uint64_t Site : CallSites)
              Out.push_back({Address, Site, DepKind::Call});
          } else {
            Out.push_back(
                {Address, R.Begin + uint64_t(Bit), DepKind::RegData});
          }
        });
      Step(BlockIndex, Address, State);
    }
  }
}

/// Stack-slot reaching-stores inside one routine with precise slot
/// facts, emitting SlotData edges (and Call edges for caller-frame
/// values flowing in).
void addSlotEdges(const Program &Prog, const SlotFlowResult &Flow,
                  uint32_t RoutineIndex,
                  const std::vector<uint64_t> &CallSites,
                  std::vector<DepEdge> &Out) {
  const Routine &R = Prog.Routines[RoutineIndex];
  const RoutineSlotFacts &F = Flow.Routines[RoutineIndex];
  unsigned Sp = Prog.Conv.SpReg;
  size_t NumInsts = size_t(R.End - R.Begin);
  size_t EntryBit = NumInsts;
  size_t NumBlocks = R.Blocks.size();

  // Decode each reachable block's slot accesses in entry coordinates.
  struct Access {
    uint64_t Address;
    int64_t Offset;
    bool IsStore;
  };
  std::vector<std::vector<Access>> Ops(NumBlocks);
  std::vector<int64_t> Interesting;
  auto Note = [&](int64_t Offset) { Interesting.push_back(Offset); };
  for (uint32_t BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex) {
    if (F.DeltaIn[BlockIndex] == UnknownDelta)
      continue;
    const BasicBlock &Block = R.Blocks[BlockIndex];
    int64_t Delta = F.DeltaIn[BlockIndex];
    for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
      const Instruction Inst = Prog.inst(Address);
      int64_t Adjust = 0;
      if (spEffectOf(Inst, Sp, Adjust) == SpEffect::Adjust) {
        Delta += Adjust;
        continue;
      }
      StackRef Ref = stackRefOf(Inst, Sp);
      if (Ref.Kind == StackRefKind::Slot) {
        int64_t Offset = Delta + int64_t(Ref.Offset);
        Ops[BlockIndex].push_back({Address, Offset, Ref.IsStore});
        Note(Offset);
      }
    }
    if (Block.Term == TerminatorKind::Call) {
      SlotSet MayDef = Flow.callMayDef(Prog, RoutineIndex, BlockIndex);
      SlotSet MayUse = Flow.callMayUse(Prog, RoutineIndex, BlockIndex);
      if (!MayDef.isTop())
        for (int64_t Offset : MayDef)
          Note(Offset);
      if (!MayUse.isTop())
        for (int64_t Offset : MayUse)
          Note(Offset);
    }
  }
  if (!F.LiveAtExit.isTop())
    for (int64_t Offset : F.LiveAtExit)
      Note(Offset);
  std::sort(Interesting.begin(), Interesting.end());
  Interesting.erase(std::unique(Interesting.begin(), Interesting.end()),
                    Interesting.end());
  if (Interesting.empty())
    return;
  std::map<int64_t, size_t> SlotIndex;
  for (size_t I = 0; I < Interesting.size(); ++I)
    SlotIndex.emplace(Interesting[I], I);
  size_t NumSlots = Interesting.size();

  // Offsets a call or exit may read, as interesting-slot indices.
  auto SlotsOf = [&](const SlotSet &Set, bool NonNegativeOnly) {
    std::vector<size_t> Indices;
    if (Set.isTop()) {
      for (size_t I = 0; I < NumSlots; ++I)
        if (!NonNegativeOnly || Interesting[I] >= 0)
          Indices.push_back(I);
    } else {
      for (int64_t Offset : Set) {
        auto It = SlotIndex.find(Offset);
        if (It != SlotIndex.end() &&
            (!NonNegativeOnly || Offset >= 0))
          Indices.push_back(It->second);
      }
    }
    return Indices;
  };

  auto Step = [&](uint32_t BlockIndex, uint64_t Address,
                  std::vector<Bits> &State, size_t OpCursor) {
    const BasicBlock &Block = R.Blocks[BlockIndex];
    if (Address == Block.End - 1 &&
        Block.Term == TerminatorKind::Call) {
      SlotSet MayDef = Flow.callMayDef(Prog, RoutineIndex, BlockIndex);
      // MAY-def: the callee might write these slots, so the call joins
      // the reaching set without killing anything.
      for (size_t I : SlotsOf(MayDef, /*NonNegativeOnly=*/false))
        State[I].set(size_t(Address - R.Begin));
      return;
    }
    const std::vector<Access> &BlockOps = Ops[BlockIndex];
    if (OpCursor < BlockOps.size() &&
        BlockOps[OpCursor].Address == Address &&
        BlockOps[OpCursor].IsStore) {
      size_t I = SlotIndex.at(BlockOps[OpCursor].Offset);
      State[I].clearAll();
      State[I].set(size_t(Address - R.Begin));
    }
  };

  std::vector<std::vector<Bits>> BlockOut(
      NumBlocks, std::vector<Bits>(NumSlots, Bits(NumInsts + 1)));
  auto InStateOf = [&](uint32_t BlockIndex) {
    std::vector<Bits> State(NumSlots, Bits(NumInsts + 1));
    bool IsEntry = std::find(R.EntryBlocks.begin(), R.EntryBlocks.end(),
                             BlockIndex) != R.EntryBlocks.end();
    if (IsEntry)
      for (size_t I = 0; I < NumSlots; ++I)
        if (Interesting[I] >= 0) // Caller-frame slots carry values in.
          State[I].set(EntryBit);
    for (uint32_t Pred : R.preds(BlockIndex))
      for (size_t I = 0; I < NumSlots; ++I)
        State[I] |= BlockOut[Pred][I];
    return State;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex) {
      if (F.DeltaIn[BlockIndex] == UnknownDelta)
        continue;
      std::vector<Bits> State = InStateOf(BlockIndex);
      const BasicBlock &Block = R.Blocks[BlockIndex];
      size_t OpCursor = 0;
      for (uint64_t Address = Block.Begin; Address < Block.End;
           ++Address) {
        Step(BlockIndex, Address, State, OpCursor);
        if (OpCursor < Ops[BlockIndex].size() &&
            Ops[BlockIndex][OpCursor].Address == Address)
          ++OpCursor;
      }
      if (!(State == BlockOut[BlockIndex])) {
        BlockOut[BlockIndex] = std::move(State);
        Changed = true;
      }
    }
  }

  auto Emit = [&](uint64_t Address, size_t Slot,
                  const std::vector<Bits> &State) {
    State[Slot].forEach([&](size_t Bit) {
      if (Bit == EntryBit) {
        for (uint64_t Site : CallSites)
          Out.push_back({Address, Site, DepKind::Call});
      } else {
        Out.push_back(
            {Address, R.Begin + uint64_t(Bit), DepKind::SlotData});
      }
    });
  };

  for (uint32_t BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex) {
    if (F.DeltaIn[BlockIndex] == UnknownDelta)
      continue;
    std::vector<Bits> State = InStateOf(BlockIndex);
    const BasicBlock &Block = R.Blocks[BlockIndex];
    size_t OpCursor = 0;
    for (uint64_t Address = Block.Begin; Address < Block.End;
         ++Address) {
      if (Address == Block.End - 1) {
        if (Block.Term == TerminatorKind::Call) {
          SlotSet MayUse =
              Flow.callMayUse(Prog, RoutineIndex, BlockIndex);
          for (size_t I : SlotsOf(MayUse, /*NonNegativeOnly=*/false))
            Emit(Address, I, State);
        } else if (Block.Term == TerminatorKind::Return) {
          for (size_t I :
               SlotsOf(F.LiveAtExit, /*NonNegativeOnly=*/true))
            Emit(Address, I, State);
        }
      }
      if (OpCursor < Ops[BlockIndex].size() &&
          Ops[BlockIndex][OpCursor].Address == Address &&
          !Ops[BlockIndex][OpCursor].IsStore)
        Emit(Address, SlotIndex.at(Ops[BlockIndex][OpCursor].Offset),
             State);
      Step(BlockIndex, Address, State, OpCursor);
      if (OpCursor < Ops[BlockIndex].size() &&
          Ops[BlockIndex][OpCursor].Address == Address)
        ++OpCursor;
    }
  }
}

/// Slot edges for a routine whose slot facts are unusable (Opaque or
/// GlobalEscape): every memory read may see every memory write, so each
/// load depends on every store and call, and every call and return
/// depends on every store.
void addOpaqueSlotEdges(const Program &Prog, uint32_t RoutineIndex,
                        std::vector<DepEdge> &Out) {
  const Routine &R = Prog.Routines[RoutineIndex];
  std::vector<uint64_t> Loads, Stores, Calls, Rets;
  for (const BasicBlock &Block : R.Blocks) {
    for (uint64_t Address = Block.Begin; Address < Block.End;
         ++Address) {
      const OpcodeInfo &Info = opcodeInfo(Prog.inst(Address).Op);
      if (Info.IsLoad)
        Loads.push_back(Address);
      else if (Info.IsStore)
        Stores.push_back(Address);
    }
    if (Block.endsWithCall())
      Calls.push_back(Block.End - 1);
    else if (Block.Term == TerminatorKind::Return)
      Rets.push_back(Block.End - 1);
  }
  for (uint64_t Load : Loads) {
    for (uint64_t Store : Stores)
      if (Load != Store)
        Out.push_back({Load, Store, DepKind::SlotData});
    for (uint64_t Call : Calls)
      if (Load != Call)
        Out.push_back({Load, Call, DepKind::SlotData});
  }
  for (uint64_t Reader : Calls)
    for (uint64_t Store : Stores)
      if (Reader != Store)
        Out.push_back({Reader, Store, DepKind::SlotData});
  for (uint64_t Reader : Rets)
    for (uint64_t Store : Stores)
      Out.push_back({Reader, Store, DepKind::SlotData});
}

/// Classic control dependence (postdominance frontier) plus "executes
/// because the routine was entered" edges to the routine's first
/// instruction for blocks no branch controls.
void addControlEdges(const Program &Prog, uint32_t RoutineIndex,
                     const std::vector<bool> &Reach,
                     std::vector<DepEdge> &Out) {
  const Routine &R = Prog.Routines[RoutineIndex];
  size_t NumBlocks = R.Blocks.size();
  size_t VirtualExit = NumBlocks;

  std::vector<Bits> PDom(NumBlocks + 1, Bits(NumBlocks + 1));
  PDom[VirtualExit].set(VirtualExit);
  for (uint32_t BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex)
    PDom[BlockIndex].setAll(NumBlocks + 1);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t BlockIndex = uint32_t(NumBlocks); BlockIndex-- > 0;) {
      if (!Reach[BlockIndex])
        continue;
      Bits New(NumBlocks + 1);
      New.setAll(NumBlocks + 1);
      // A block without successors leaves through the virtual exit.
      if (R.succs(BlockIndex).empty())
        New &= PDom[VirtualExit];
      for (uint32_t Succ : R.succs(BlockIndex))
        New &= PDom[Succ];
      New.set(BlockIndex);
      if (!(New == PDom[BlockIndex])) {
        PDom[BlockIndex] = New;
        Changed = true;
      }
    }
  }

  std::vector<bool> HasCdep(NumBlocks, false);
  std::vector<DepEdge> Local;
  for (uint32_t Branch = 0; Branch < NumBlocks; ++Branch) {
    if (!Reach[Branch] || R.succs(Branch).size() < 2)
      continue;
    uint64_t BranchAddr = R.Blocks[Branch].End - 1;
    for (uint32_t Succ : R.succs(Branch))
      PDom[Succ].forEach([&](size_t Dep) {
        if (Dep == VirtualExit)
          return;
        if (Dep != Branch && PDom[Branch].test(Dep))
          return; // Postdominates the branch: not controlled by it.
        HasCdep[Dep] = true;
        const BasicBlock &Block = R.Blocks[Dep];
        for (uint64_t Address = Block.Begin; Address < Block.End;
             ++Address)
          if (Address != BranchAddr)
            Local.push_back({Address, BranchAddr, DepKind::Control});
      });
  }
  // Deduplicate now: a block postdominating several successors of the
  // same branch is visited once per successor.
  std::sort(Local.begin(), Local.end(),
            [](const DepEdge &A, const DepEdge &B) {
              return std::tie(A.Dependent, A.Dependency) <
                     std::tie(B.Dependent, B.Dependency);
            });
  Local.erase(std::unique(Local.begin(), Local.end()), Local.end());
  Out.insert(Out.end(), Local.begin(), Local.end());

  for (uint32_t BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex) {
    if (!Reach[BlockIndex] || HasCdep[BlockIndex])
      continue;
    const BasicBlock &Block = R.Blocks[BlockIndex];
    for (uint64_t Address = Block.Begin; Address < Block.End; ++Address)
      if (Address != R.Begin)
        Out.push_back({Address, R.Begin, DepKind::Control});
  }
}

} // namespace

const char *spike::depKindName(DepKind Kind) {
  switch (Kind) {
  case DepKind::RegData:
    return "reg";
  case DepKind::SlotData:
    return "slot";
  case DepKind::Control:
    return "ctrl";
  case DepKind::Call:
    return "call";
  }
  return "?";
}

DependenceGraph spike::buildDepGraph(const Program &Prog,
                                     const InterprocSummaries &Summaries,
                                     const SlotFlowResult &Flow,
                                     ThreadPool *Pool,
                                     const ResourceGovernor *Gov) {
  telemetry::Span BuildSpan("slice.depgraph");
  DependenceGraph Graph;
  Graph.NumAddrs = Prog.numInsts();
  size_t NumRoutines = Prog.Routines.size();

  // Call sites per callee (direct sites, plus every indirect site for
  // address-taken routines).  Read-only inside the parallel tasks.
  std::vector<std::vector<uint64_t>> CallSites(NumRoutines);
  std::vector<uint64_t> IndirectSites;
  for (uint32_t RoutineIndex = 0; RoutineIndex < NumRoutines;
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    for (uint32_t CallBlock : R.CallBlocks) {
      const BasicBlock &Block = R.Blocks[CallBlock];
      uint64_t Address = Block.End - 1;
      if (Block.Term == TerminatorKind::Call)
        CallSites[uint32_t(Block.CalleeRoutine)].push_back(Address);
      else
        IndirectSites.push_back(Address);
    }
  }
  for (uint32_t RoutineIndex = 0; RoutineIndex < NumRoutines;
       ++RoutineIndex) {
    if (Prog.Routines[RoutineIndex].AddressTaken)
      CallSites[RoutineIndex].insert(CallSites[RoutineIndex].end(),
                                     IndirectSites.begin(),
                                     IndirectSites.end());
    std::sort(CallSites[RoutineIndex].begin(),
              CallSites[RoutineIndex].end());
  }

  // Intra-routine edges are independent per routine.
  std::vector<std::vector<DepEdge>> PerRoutine(NumRoutines);
  forEachTask(Pool, NumRoutines, [&](size_t Index, unsigned) {
    uint32_t RoutineIndex = uint32_t(Index);
    const Routine &R = Prog.Routines[RoutineIndex];
    if (Gov) {
      BudgetVerdict V = Gov->poll();
      if (V != BudgetVerdict::Ok)
        throw BudgetBlownError(V, "slice.depgraph", {R.Name});
    }
    if (R.Quarantined)
      return; // Placeholder bytes: no instruction-level facts.
    std::vector<DepEdge> &Out = PerRoutine[Index];
    std::vector<bool> Reach = reachableBlocks(R);
    addRegEdges(Prog, Summaries, RoutineIndex, CallSites[RoutineIndex],
                Reach, Out);
    if (Flow.GlobalEscape || Flow.Routines[RoutineIndex].Opaque)
      addOpaqueSlotEdges(Prog, RoutineIndex, Out);
    else
      addSlotEdges(Prog, Flow, RoutineIndex, CallSites[RoutineIndex],
                   Out);
    addControlEdges(Prog, RoutineIndex, Reach, Out);
  });

  // Junction edges across routine boundaries (serial, deterministic).
  std::vector<DepEdge> Junction;
  for (uint32_t RoutineIndex = 0; RoutineIndex < NumRoutines;
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    for (uint32_t CallBlock : R.CallBlocks) {
      const BasicBlock &Block = R.Blocks[CallBlock];
      uint64_t CallAddr = Block.End - 1;
      auto Link = [&](uint32_t Callee, uint64_t EntryAddr) {
        // The callee runs because of the call; the code after the call
        // resumes because the callee returned.
        Junction.push_back({EntryAddr, CallAddr, DepKind::Call});
        const Routine &CalleeR = Prog.Routines[Callee];
        for (uint32_t Exit : CalleeR.ExitBlocks) {
          const BasicBlock &ExitBlock = CalleeR.Blocks[Exit];
          if (ExitBlock.Term == TerminatorKind::Return)
            Junction.push_back(
                {CallAddr, ExitBlock.End - 1, DepKind::Call});
        }
      };
      if (Block.Term == TerminatorKind::Call) {
        uint32_t Callee = uint32_t(Block.CalleeRoutine);
        Link(Callee, Prog.Routines[Callee]
                         .EntryAddresses[uint32_t(Block.CalleeEntry)]);
      } else {
        for (uint32_t Callee = 0; Callee < NumRoutines; ++Callee)
          if (Prog.Routines[Callee].AddressTaken)
            Link(Callee, Prog.Routines[Callee].Begin);
      }
    }
  }

  // Merge, order, deduplicate, and drop degenerate self-edges.
  size_t Total = Junction.size();
  for (const std::vector<DepEdge> &Edges : PerRoutine)
    Total += Edges.size();
  Graph.Edges.reserve(Total);
  auto Keep = [&](const DepEdge &Edge) {
    if (Edge.Dependent != Edge.Dependency)
      Graph.Edges.push_back(Edge);
  };
  for (const std::vector<DepEdge> &Edges : PerRoutine)
    for (const DepEdge &Edge : Edges)
      Keep(Edge);
  for (const DepEdge &Edge : Junction)
    Keep(Edge);
  std::sort(Graph.Edges.begin(), Graph.Edges.end(),
            [](const DepEdge &A, const DepEdge &B) {
              return std::tie(A.Dependent, A.Dependency, A.Kind) <
                     std::tie(B.Dependent, B.Dependency, B.Kind);
            });
  Graph.Edges.erase(std::unique(Graph.Edges.begin(), Graph.Edges.end()),
                    Graph.Edges.end());

  // CSR in both directions.
  size_t NumAddrs = size_t(Graph.NumAddrs);
  Graph.BackwardIndex.assign(NumAddrs + 1, 0);
  for (const DepEdge &Edge : Graph.Edges)
    ++Graph.BackwardIndex[size_t(Edge.Dependent) + 1];
  for (size_t I = 0; I < NumAddrs; ++I)
    Graph.BackwardIndex[I + 1] += Graph.BackwardIndex[I];

  Graph.ForwardOrder.resize(Graph.Edges.size());
  for (uint32_t I = 0; I < Graph.ForwardOrder.size(); ++I)
    Graph.ForwardOrder[I] = I;
  std::sort(Graph.ForwardOrder.begin(), Graph.ForwardOrder.end(),
            [&](uint32_t A, uint32_t B) {
              const DepEdge &EA = Graph.Edges[A];
              const DepEdge &EB = Graph.Edges[B];
              return std::tie(EA.Dependency, EA.Dependent, EA.Kind) <
                     std::tie(EB.Dependency, EB.Dependent, EB.Kind);
            });
  Graph.ForwardIndex.assign(NumAddrs + 1, 0);
  for (const DepEdge &Edge : Graph.Edges)
    ++Graph.ForwardIndex[size_t(Edge.Dependency) + 1];
  for (size_t I = 0; I < NumAddrs; ++I)
    Graph.ForwardIndex[I + 1] += Graph.ForwardIndex[I];

  if (telemetry::active()) {
    telemetry::count("slice.dep_edges", Graph.Edges.size());
    telemetry::count("slice.dep_addrs", Graph.NumAddrs);
  }
  return Graph;
}
