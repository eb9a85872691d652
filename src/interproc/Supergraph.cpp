//===- interproc/Supergraph.cpp - Whole-program CFG baseline -------------===//

#include "interproc/Supergraph.h"

#include "telemetry/Telemetry.h"

#include "dataflow/CallPolicy.h"
#include "dataflow/Worklist.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace spike;

Supergraph spike::buildSupergraph(const Program &Prog) {
  telemetry::Span BuildSpan("interproc.supergraph");
  Supergraph Graph;
  Graph.BlockBase.resize(Prog.Routines.size());
  uint32_t Next = 0;
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    Graph.BlockBase[RoutineIndex] = Next;
    Next += uint32_t(Prog.Routines[RoutineIndex].Blocks.size());
  }

  bool NeedHubs = false;
  for (const Routine &R : Prog.Routines) {
    for (uint32_t Block : R.CallBlocks)
      if (R.Blocks[Block].Term == TerminatorKind::IndirectCall)
        NeedHubs = true;
    if (R.AddressTaken)
      NeedHubs = true;
  }
  if (NeedHubs) {
    Graph.HubCall = Next++;
    Graph.HubReturn = Next++;
  }
  Graph.NumNodes = Next;

  std::vector<std::pair<uint32_t, uint32_t>> Arcs;
  auto AddArc = [&](uint32_t From, uint32_t To) {
    Arcs.push_back({From, To});
  };

  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      const BasicBlock &Block = R.Blocks[BlockIndex];
      uint32_t From = Graph.nodeOf(RoutineIndex, BlockIndex);

      if (!Block.endsWithCall()) {
        for (uint32_t Succ : R.succs(BlockIndex)) {
          AddArc(From, Graph.nodeOf(RoutineIndex, Succ));
          ++Graph.NumIntraArcs;
        }
        continue;
      }

      // Call block: the fall-through arc is replaced by a call arc into
      // the callee and return arcs from the callee's exits.
      if (Block.Term == TerminatorKind::Call) {
        const Routine &Callee = Prog.Routines[Block.CalleeRoutine];
        uint32_t EntryBlock =
            Callee.EntryBlocks[uint32_t(Block.CalleeEntry)];
        AddArc(From, Graph.nodeOf(Block.CalleeRoutine, EntryBlock));
        ++Graph.NumCallArcs;
        for (uint32_t Succ : R.succs(BlockIndex))
          for (uint32_t ExitBlock : Callee.ExitBlocks) {
            AddArc(Graph.nodeOf(Block.CalleeRoutine, ExitBlock),
                   Graph.nodeOf(RoutineIndex, Succ));
            ++Graph.NumReturnArcs;
          }
      } else {
        assert(Graph.HubCall >= 0 && "indirect call without hubs");
        AddArc(From, uint32_t(Graph.HubCall));
        ++Graph.NumCallArcs;
        for (uint32_t Succ : R.succs(BlockIndex)) {
          AddArc(uint32_t(Graph.HubReturn),
                 Graph.nodeOf(RoutineIndex, Succ));
          ++Graph.NumReturnArcs;
          // Bypass arc: the calling standard guarantees nothing about
          // what an unknown callee defines, so liveness after the call
          // must be able to survive it unchanged (Section 3.5
          // conservatism; matches the PSG's assumption-based summary).
          AddArc(From, Graph.nodeOf(RoutineIndex, Succ));
          ++Graph.NumReturnArcs;
        }
      }
    }

    if (R.AddressTaken) {
      uint32_t EntryBlock = R.EntryBlocks.empty() ? 0 : R.EntryBlocks[0];
      AddArc(uint32_t(Graph.HubCall),
             Graph.nodeOf(RoutineIndex, EntryBlock));
      ++Graph.NumCallArcs;
      for (uint32_t ExitBlock : R.ExitBlocks) {
        AddArc(Graph.nodeOf(RoutineIndex, ExitBlock),
               uint32_t(Graph.HubReturn));
        ++Graph.NumReturnArcs;
      }
    }
  }

  // Deduplicate and CSR-pack both directions.
  std::sort(Arcs.begin(), Arcs.end());
  Arcs.erase(std::unique(Arcs.begin(), Arcs.end()), Arcs.end());

  Graph.SuccBegin.assign(Graph.NumNodes + 1, 0);
  for (const auto &[From, To] : Arcs)
    ++Graph.SuccBegin[From + 1];
  for (size_t I = 1; I < Graph.SuccBegin.size(); ++I)
    Graph.SuccBegin[I] += Graph.SuccBegin[I - 1];
  Graph.SuccIds.resize(Arcs.size());
  {
    std::vector<uint32_t> Cursor(Graph.SuccBegin.begin(),
                                 Graph.SuccBegin.end() - 1);
    for (const auto &[From, To] : Arcs)
      Graph.SuccIds[Cursor[From]++] = To;
  }

  Graph.PredBegin.assign(Graph.NumNodes + 1, 0);
  for (const auto &[From, To] : Arcs)
    ++Graph.PredBegin[To + 1];
  for (size_t I = 1; I < Graph.PredBegin.size(); ++I)
    Graph.PredBegin[I] += Graph.PredBegin[I - 1];
  Graph.PredIds.resize(Arcs.size());
  {
    std::vector<uint32_t> Cursor(Graph.PredBegin.begin(),
                                 Graph.PredBegin.end() - 1);
    for (const auto &[From, To] : Arcs)
      Graph.PredIds[Cursor[To]++] = From;
  }

  if (telemetry::active()) {
    telemetry::count("interproc.supergraph.nodes", Graph.NumNodes);
    telemetry::count("interproc.supergraph.arcs", Graph.numArcs());
  }
  return Graph;
}

SupergraphLiveness
spike::solveSupergraphLiveness(const Program &Prog,
                               const Supergraph &Graph) {
  SupergraphLiveness Result;
  Result.LiveIn.assign(Graph.NumNodes, RegSet());
  Result.LiveOut.assign(Graph.NumNodes, RegSet());

  RegSet RaOnly;
  RaOnly.insert(Prog.Conv.RaReg);
  RegSet UnknownCallerLive = Prog.Conv.unknownCallerLiveAtExit();

  // Precompute per-node block metadata; hubs are identity nodes.
  struct NodeMeta {
    RegSet Def;
    RegSet Ubd;
    RegSet Boundary;   ///< Added to live-out unconditionally.
    RegSet CallUses;   ///< Assumed consumed by the call terminator.
    bool IsCall = false;
  };
  std::vector<NodeMeta> Meta(Graph.NumNodes);
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    bool SeedExits =
        int32_t(RoutineIndex) == Prog.EntryRoutine || R.AddressTaken;
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      const BasicBlock &Block = R.Blocks[BlockIndex];
      NodeMeta &M = Meta[Graph.nodeOf(RoutineIndex, BlockIndex)];
      M.Def = Block.Def;
      M.Ubd = Block.Ubd;
      M.IsCall = Block.endsWithCall();
      if (Block.Term == TerminatorKind::UnresolvedJump)
        M.Boundary = Prog.jumpTargetLive(Block.End - 1);
      else if (Block.Term == TerminatorKind::Return && SeedExits)
        M.Boundary = UnknownCallerLive;
      // Indirect calls obey the calling standard (Section 3.5): assume
      // the argument-passing registers are consumed even if the actual
      // address-taken targets (also wired through the hubs) read fewer.
      if (Block.Term == TerminatorKind::IndirectCall)
        M.CallUses = indirectCallLabel(Prog, Block).MayUse;
    }
  }

  Worklist List(Graph.NumNodes);
  List.pushAll();
  while (!List.empty()) {
    uint32_t NodeId = List.pop();
    const NodeMeta &M = Meta[NodeId];

    RegSet LiveOut = M.Boundary;
    for (uint32_t I = Graph.SuccBegin[NodeId],
                  E = Graph.SuccBegin[NodeId + 1];
         I != E; ++I)
      LiveOut |= Result.LiveIn[Graph.SuccIds[I]];

    // A call block's terminator defines ra before entering the callee
    // and (for indirect calls) consumes the calling standard's assumed
    // argument registers.
    RegSet AfterBody =
        M.IsCall ? (LiveOut - RaOnly) | M.CallUses : LiveOut;
    RegSet LiveIn = M.Ubd | (AfterBody - M.Def);

    if (LiveOut == Result.LiveOut[NodeId] &&
        LiveIn == Result.LiveIn[NodeId])
      continue;
    Result.LiveOut[NodeId] = LiveOut;
    Result.LiveIn[NodeId] = LiveIn;
    for (uint32_t I = Graph.PredBegin[NodeId],
                  E = Graph.PredBegin[NodeId + 1];
         I != E; ++I)
      List.push(Graph.PredIds[I]);
  }

  return Result;
}
