//===- dataflow/Liveness.h - Intra-routine register liveness --*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward register liveness over one routine's CFG, parameterized by
/// call-site summaries and exit boundary values.
///
/// This solver is the consumer-side counterpart of the paper's Section 2:
/// once interprocedural analysis has produced live-at-exit sets and
/// call-used/call-defined summaries, a routine can be analyzed in
/// isolation by treating each call as a "call-summary instruction" and
/// each exit as an "exit instruction" that uses the live-at-exit
/// registers.  The optimizations in src/opt are all built on it, and the
/// Srivastava-style supergraph baseline reuses its transfer functions.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_DATAFLOW_LIVENESS_H
#define SPIKE_DATAFLOW_LIVENESS_H

#include "cfg/Program.h"
#include "dataflow/Worklist.h"
#include "support/RegSet.h"

#include <utility>
#include <vector>

namespace spike {

/// The liveness-relevant effect of one call site: \c Used is added to the
/// live set before the call; \c Defined (the registers the call *must*
/// define, including ra, which the call instruction itself writes) is
/// subtracted from the registers live after the call.
struct CallEffect {
  RegSet Used;
  RegSet Defined;
};

/// Per-block live-in/live-out sets for one routine.
struct LivenessResult {
  std::vector<RegSet> LiveIn;
  std::vector<RegSet> LiveOut;
};

/// Solves backward liveness on routine \p R.
///
/// \param CallFn       invoked with a call block's index; returns the
///                     call's CallEffect.
/// \param ExitFn       invoked with a Return block's index; returns the
///                     registers live at that exit.
/// \param UnresolvedFn invoked with an UnresolvedJump block's index;
///                     returns the registers assumed live at the jump's
///                     unknown target (Section 3.5: all registers, or
///                     the image's annotation).
template <typename CallFnT, typename ExitFnT, typename UnresolvedFnT>
LivenessResult solveLiveness(const Routine &R, CallFnT &&CallFn,
                             ExitFnT &&ExitFn,
                             UnresolvedFnT &&UnresolvedFn) {
  LivenessResult Result;
  size_t NumBlocks = R.Blocks.size();
  Result.LiveIn.assign(NumBlocks, RegSet());
  Result.LiveOut.assign(NumBlocks, RegSet());

  Worklist List(static_cast<uint32_t>(NumBlocks));
  List.pushAll();

  while (!List.empty()) {
    uint32_t BlockIndex = List.pop();
    const BasicBlock &Block = R.Blocks[BlockIndex];

    RegSet LiveOut;
    for (uint32_t Succ : R.succs(BlockIndex))
      LiveOut |= Result.LiveIn[Succ];
    switch (Block.Term) {
    case TerminatorKind::Return:
      LiveOut |= ExitFn(BlockIndex);
      break;
    case TerminatorKind::UnresolvedJump:
      LiveOut |= UnresolvedFn(BlockIndex);
      break;
    default:
      break;
    }

    RegSet BeforeTerm = LiveOut;
    if (Block.endsWithCall()) {
      CallEffect Effect = CallFn(BlockIndex);
      BeforeTerm = Effect.Used | (LiveOut - Effect.Defined);
    }
    RegSet LiveIn = Block.Ubd | (BeforeTerm - Block.Def);

    if (LiveOut == Result.LiveOut[BlockIndex] &&
        LiveIn == Result.LiveIn[BlockIndex])
      continue;
    Result.LiveOut[BlockIndex] = LiveOut;
    Result.LiveIn[BlockIndex] = LiveIn;
    for (uint32_t Pred : R.preds(BlockIndex))
      List.push(Pred);
  }
  return Result;
}

/// Convenience overload: a fixed live set (usually all registers) at
/// every unresolved indirect jump.
template <typename CallFnT, typename ExitFnT>
LivenessResult solveLiveness(const Routine &R, CallFnT &&CallFn,
                             ExitFnT &&ExitFn, RegSet UnresolvedLive) {
  return solveLiveness(R, std::forward<CallFnT>(CallFn),
                       std::forward<ExitFnT>(ExitFn),
                       [UnresolvedLive](uint32_t) { return UnresolvedLive; });
}

/// Computes the live set immediately before each instruction of block
/// \p BlockIndex given its solved \p LiveOut, replaying the block
/// backward.  \p CallEffectOrNull must be provided when the block ends
/// with a call.  Index 0 of the result corresponds to Block.Begin.
std::vector<RegSet> liveBeforeEachInst(const Program &Prog,
                                       const Routine &R, uint32_t BlockIndex,
                                       RegSet LiveOut,
                                       const CallEffect *CallEffectOrNull);

} // namespace spike

#endif // SPIKE_DATAFLOW_LIVENESS_H
