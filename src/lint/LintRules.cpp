//===- lint/LintRules.cpp - The spike-lint rule catalogue ------------------===//

#include "lint/LintRules.h"

#include "cfg/CallGraph.h"
#include "cfg/CfgBuilder.h"
#include "dataflow/Liveness.h"
#include "isa/Encoding.h"
#include "lint/Linter.h"
#include "slice/DeadStore.h"
#include "slice/SlotFlow.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

using namespace spike;

namespace {

/// Returns true if any block of \p R ends in an unresolved indirect jump,
/// in which case intra-routine reachability cannot be decided and the
/// reachability-based rules stay quiet for the routine.
bool hasUnresolvedJumps(const Routine &R) {
  for (const BasicBlock &Block : R.Blocks)
    if (Block.Term == TerminatorKind::UnresolvedJump)
      return true;
  return false;
}

/// Renders "s3 (r12)" style register references.
std::string regRef(unsigned Reg) {
  std::string S = regName(Reg);
  return S;
}

} // namespace

std::vector<bool> spike::reachableBlocks(const Routine &R) {
  std::vector<bool> Seen(R.Blocks.size(), false);
  std::vector<uint32_t> Stack;
  for (uint32_t Entry : R.EntryBlocks)
    if (!Seen[Entry]) {
      Seen[Entry] = true;
      Stack.push_back(Entry);
    }
  while (!Stack.empty()) {
    uint32_t BlockIndex = Stack.back();
    Stack.pop_back();
    for (uint32_t Succ : R.succs(BlockIndex))
      if (!Seen[Succ]) {
        Seen[Succ] = true;
        Stack.push_back(Succ);
      }
  }
  return Seen;
}

void spike::checkUndefEntryReads(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;
  if (Prog.EntryRoutine < 0)
    return;
  uint32_t RoutineIndex = uint32_t(Prog.EntryRoutine);
  const Routine &R = Prog.Routines[RoutineIndex];
  // A quarantined entry routine has worst-case live-at-entry (all
  // registers); reporting every register as possibly-undefined would
  // drown the real finding, which SL011 already carries.
  if (R.Quarantined)
    return;

  // The entrance execution actually starts at.
  uint32_t Entry = 0;
  for (uint32_t E = 0; E < R.EntryAddresses.size(); ++E)
    if (R.EntryAddresses[E] == Ctx.Img.EntryAddress)
      Entry = E;

  const CallingConv &Conv = Prog.Conv;
  RegSet Provided = Ctx.Opts.EntryDefinedRegs;
  if (Provided.empty()) {
    Provided.insert(Conv.SpReg);
    Provided.insert(Conv.GpReg);
    Provided.insert(Conv.RaReg);
    Provided.insert(Conv.ZeroReg);
  }

  // Callee-saved leakage at startup is SL002's concern; here only the
  // scratch/argument/return registers count, whose startup contents are
  // garbage on any real loader.
  RegSet Live =
      Ctx.Analysis.Summaries.Routines[RoutineIndex].LiveAtEntry[Entry];
  RegSet Suspicious = Live - Provided - Conv.CalleeSaved;
  for (unsigned Reg : Suspicious) {
    Diagnostic D = makeDiagnostic(
        RuleId::UndefEntryRead, int32_t(RoutineIndex), R.Name,
        int32_t(R.EntryBlocks[Entry]), int64_t(R.EntryAddresses[Entry]),
        "register " + regRef(Reg) +
            " is live at the program entry point: some path reads it "
            "before anything defines it");
    D.Hint = std::string("spike-explain --why-live ") + regName(Reg) +
             "@entry:" + R.Name;
    Ctx.Out.push_back(std::move(D));
  }
}

void spike::checkCalleeSavedClobbers(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;
  const CallingConv &Conv = Prog.Conv;
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    // A clobber in an unreachable routine can never reach a caller.
    if (!Ctx.Graph.Reachable[RoutineIndex])
      continue;
    const Routine &R = Prog.Routines[RoutineIndex];
    // Quarantined routines have worst-case MAY-DEF by construction;
    // SL011 reports the root cause instead.
    if (R.Quarantined)
      continue;
    RegSet Saved = Ctx.Analysis.SavedPerRoutine[RoutineIndex];

    // Union of the *unfiltered* MAY-DEF over all entrances (the Section
    // 3.4 filter is exactly what hides legitimate save/restore pairs, so
    // anything callee-saved left after subtracting Saved escapes to
    // callers).
    RegSet MayDef;
    for (uint32_t E = 0; E < R.numEntries(); ++E)
      MayDef |= Ctx.Analysis.entrySets(RoutineIndex, E).MayDef;

    RegSet Clobbered = (MayDef & Conv.CalleeSaved) - Saved;
    for (unsigned Reg : Clobbered) {
      Diagnostic D = makeDiagnostic(
          RuleId::CalleeSavedClobber, int32_t(RoutineIndex), R.Name,
          int32_t(R.EntryBlocks.empty() ? 0 : R.EntryBlocks[0]),
          int64_t(R.Begin),
          "callee-saved register " + regRef(Reg) +
              " may be clobbered (defined here or in a callee, and not "
              "saved/restored by this routine)");
      D.Hint = std::string("spike-explain --why-may-def ") + regName(Reg) +
               "@entry:" + R.Name;
      Ctx.Out.push_back(std::move(D));
    }
  }
}

std::vector<DeadDefCandidate>
spike::findDeadDefCandidates(const Program &Prog,
                             const InterprocSummaries &Summaries) {
  std::vector<DeadDefCandidate> Candidates;
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    // Quarantined code is never transformed (or reported on): its
    // decoded form is a placeholder, not the real instructions.
    if (R.Quarantined)
      continue;

    // The real lens: the interprocedural summaries, exactly what
    // DeadDefElim consults.
    LivenessResult Live = solveLiveness(
        R,
        [&](uint32_t BlockIndex) {
          return Summaries.callEffect(Prog, RoutineIndex, BlockIndex);
        },
        [&](uint32_t BlockIndex) {
          return Summaries.liveAtExitOfBlock(Prog, RoutineIndex,
                                             BlockIndex);
        },
        [&](uint32_t BlockIndex) {
          return Prog.jumpTargetLive(R.Blocks[BlockIndex].End - 1);
        });

    // The optimistic lens: nothing live at exits or unknown jumps, calls
    // consume nothing (call-defined kills are kept — they are local
    // facts).  Every boundary set shrinks and liveness is monotone in
    // them, so anything dead under the real lens is dead here too: the
    // candidate set covers every definition DeadDefElim could fire on,
    // and the candidates the real lens rejects are precisely the defs
    // only an interprocedural fact keeps alive.
    LivenessResult Optimistic = solveLiveness(
        R,
        [&](uint32_t BlockIndex) {
          CallEffect Effect =
              Summaries.callEffect(Prog, RoutineIndex, BlockIndex);
          Effect.Used = RegSet();
          return Effect;
        },
        [](uint32_t) { return RegSet(); },
        [](uint32_t) { return RegSet(); });

    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      const BasicBlock &Block = R.Blocks[BlockIndex];
      CallEffect Effect;
      CallEffect OptEffect;
      const CallEffect *EffectPtr = nullptr;
      const CallEffect *OptEffectPtr = nullptr;
      if (Block.endsWithCall()) {
        Effect = Summaries.callEffect(Prog, RoutineIndex, BlockIndex);
        OptEffect = Effect;
        OptEffect.Used = RegSet();
        EffectPtr = &Effect;
        OptEffectPtr = &OptEffect;
      }
      std::vector<RegSet> LiveBefore = liveBeforeEachInst(
          Prog, R, BlockIndex, Live.LiveOut[BlockIndex], EffectPtr);
      std::vector<RegSet> OptBefore = liveBeforeEachInst(
          Prog, R, BlockIndex, Optimistic.LiveOut[BlockIndex],
          OptEffectPtr);

      for (uint64_t Offset = 0; Offset < Block.size(); ++Offset) {
        uint64_t Address = Block.Begin + Offset;
        const Instruction Inst = Prog.inst(Address);
        // Only pure register computations qualify: loads may fault,
        // stores and control flow have side effects.
        switch (opcodeInfo(Inst.Op).Format) {
        case OperandFormat::RRR:
        case OperandFormat::RRI:
        case OperandFormat::RI:
        case OperandFormat::RR:
          break;
        default:
          continue;
        }
        RegSet Defs = Inst.defs();
        if (Defs.empty())
          continue; // Write to the zero register: already a nop.
        RegSet OptAfter = Offset + 1 < Block.size()
                              ? OptBefore[Offset + 1]
                              : Optimistic.LiveOut[BlockIndex];
        if (OptAfter.intersects(Defs))
          continue; // Observed within the routine itself: no candidate.
        RegSet LiveAfter = Offset + 1 < Block.size()
                               ? LiveBefore[Offset + 1]
                               : Live.LiveOut[BlockIndex];
        DeadDefCandidate C;
        C.Address = Address;
        C.RoutineIndex = RoutineIndex;
        C.BlockIndex = BlockIndex;
        C.Reg = *Defs.begin();
        C.Dead = !LiveAfter.intersects(Defs);
        Candidates.push_back(C);
      }
    }
  }
  return Candidates;
}

std::vector<uint64_t>
spike::findDeadDefs(const Program &Prog,
                    const InterprocSummaries &Summaries) {
  std::vector<uint64_t> Dead;
  for (const DeadDefCandidate &C : findDeadDefCandidates(Prog, Summaries))
    if (C.Dead)
      Dead.push_back(C.Address);
  return Dead;
}

void spike::checkDeadDefs(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;
  for (const DeadDefCandidate &C :
       findDeadDefCandidates(Prog, Ctx.Analysis.Summaries)) {
    if (!C.Dead)
      continue;
    const Routine &R = Prog.Routines[C.RoutineIndex];
    const Instruction Inst = Prog.inst(C.Address);
    Diagnostic D = makeDiagnostic(
        RuleId::DeadDef, int32_t(C.RoutineIndex), R.Name, -1,
        int64_t(C.Address),
        "definition of " + regRef(C.Reg) + " ('" + Inst.str() +
            "') is never observed, interprocedurally dead");
    D.Hint = std::string("spike-explain --why-dead ") + regName(C.Reg) +
             "@" + std::to_string(C.Address);
    Ctx.Out.push_back(std::move(D));
  }
}

void spike::checkUnreachable(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    if (!Ctx.Graph.Reachable[RoutineIndex]) {
      if (Ctx.Opts.ruleEnabled(RuleId::UnreachableRoutine))
        Ctx.Out.push_back(makeDiagnostic(
            RuleId::UnreachableRoutine, int32_t(RoutineIndex), R.Name,
            -1, int64_t(R.Begin),
            "no call path reaches this routine from the program entry "
            "or any address-taken routine"));
      continue; // Block-level findings inside dead routines are noise.
    }
    if (!Ctx.Opts.ruleEnabled(RuleId::UnreachableBlock))
      continue;
    if (hasUnresolvedJumps(R))
      continue; // Unknown jump targets: reachability undecidable.
    std::vector<bool> Reach = reachableBlocks(R);
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex)
      if (!Reach[BlockIndex])
        Ctx.Out.push_back(makeDiagnostic(
            RuleId::UnreachableBlock, int32_t(RoutineIndex), R.Name,
            int32_t(BlockIndex), int64_t(R.Blocks[BlockIndex].Begin),
            "block is unreachable from every entrance of the routine"));
  }
}

void spike::checkControlFlow(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;

  // Addresses the symbol table names (any call into the middle of a
  // routine that is not one of these exists only because the call
  // created the entrance).
  std::vector<uint64_t> SymbolAddrs;
  SymbolAddrs.reserve(Ctx.Img.Symbols.size());
  for (const Symbol &Sym : Ctx.Img.Symbols)
    SymbolAddrs.push_back(Sym.Address);
  std::sort(SymbolAddrs.begin(), SymbolAddrs.end());
  auto IsNamed = [&](uint64_t Address) {
    return std::binary_search(SymbolAddrs.begin(), SymbolAddrs.end(),
                              Address);
  };

  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    // A quarantined routine's single synthetic block does not describe
    // real control flow (its last word may not even decode), so the
    // control-flow rules have nothing sound to say about it.
    if (R.Quarantined)
      continue;
    bool ReachKnown = !hasUnresolvedJumps(R);
    std::vector<bool> Reach =
        ReachKnown ? reachableBlocks(R) : std::vector<bool>();

    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      const BasicBlock &Block = R.Blocks[BlockIndex];
      uint64_t Last = Block.End - 1;
      const Instruction Term = Prog.inst(Last);

      // SL006: jump-table targets must stay inside the routine.  The
      // CFG builder demotes escaping tables to unresolved jumps, which
      // keeps the analysis sound but silently weakens it; the lint
      // makes the defect visible.
      if (Term.Op == Opcode::JmpTab &&
          Ctx.Opts.ruleEnabled(RuleId::JumpTableEscape)) {
        const JumpTableTargets &Table =
            Prog.JumpTables[uint32_t(Term.Imm)];
        unsigned Escapes = 0;
        uint64_t FirstEscape = 0;
        for (uint64_t Target : Table.Targets)
          if (Target < R.Begin || Target >= R.End) {
            if (Escapes++ == 0)
              FirstEscape = Target;
          }
        if (Escapes > 0)
          Ctx.Out.push_back(makeDiagnostic(
              RuleId::JumpTableEscape, int32_t(RoutineIndex), R.Name,
              int32_t(BlockIndex), int64_t(Last),
              "jump table " + std::to_string(Term.Imm) + " has " +
                  std::to_string(Escapes) +
                  " target(s) outside the routine (first: @" +
                  std::to_string(FirstEscape) + ")"));
      }

      // SL007: direct calls into a mid-routine address nothing names.
      if (Block.Term == TerminatorKind::Call &&
          Ctx.Opts.ruleEnabled(RuleId::MidRoutineCall)) {
        assert(Block.CalleeRoutine >= 0 && Block.CalleeEntry >= 0);
        const Routine &Callee =
            Prog.Routines[uint32_t(Block.CalleeRoutine)];
        uint64_t Target =
            Callee.EntryAddresses[uint32_t(Block.CalleeEntry)];
        if (Target != Callee.Begin && !IsNamed(Target))
          Ctx.Out.push_back(makeDiagnostic(
              RuleId::MidRoutineCall, int32_t(RoutineIndex), R.Name,
              int32_t(BlockIndex), int64_t(Last),
              "call targets @" + std::to_string(Target) +
                  ", an unnamed address inside routine '" +
                  Callee.Name + "'"));
      }

      // SL008: a reachable block with no terminator and no successor
      // runs off the end of its routine into whatever comes next.
      if (Block.Term == TerminatorKind::FallThrough &&
          R.succs(BlockIndex).empty() && ReachKnown && Reach[BlockIndex] &&
          Ctx.Opts.ruleEnabled(RuleId::FallThroughExit))
        Ctx.Out.push_back(makeDiagnostic(
            RuleId::FallThroughExit, int32_t(RoutineIndex), R.Name,
            int32_t(BlockIndex), int64_t(Last),
            "control falls off the end of routine '" + R.Name +
                "' with no return, jump, or halt"));
    }
  }
}

void spike::checkQuarantine(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;

  // One diagnostic per quarantined routine, carrying its root cause.
  // Budget-degraded routines share the quarantine bit but are SL013's
  // concern: they are not unknowable code, just unaffordable code.
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    if (!R.Quarantined || R.Degrade == DegradeReason::Budget)
      continue;
    Ctx.Out.push_back(makeDiagnostic(
        RuleId::QuarantinedRoutine, int32_t(RoutineIndex), R.Name, -1,
        int64_t(R.Begin),
        "routine quarantined (analyzed as unknowable code, excluded "
        "from optimization): " +
            R.QuarantineReason));
  }

  // Image-level degradations the builder applied without quarantining a
  // routine (dropped symbols or annotations, out-of-range entry, unowned
  // code) are reported too — the analysis ran, but on a repaired view.
  for (const ValidationFinding &F : Prog.Validation.Findings) {
    if (F.Quarantines)
      continue; // Covered by the per-routine diagnostic above.
    Ctx.Out.push_back(makeDiagnostic(RuleId::QuarantinedRoutine, -1,
                                     F.RoutineName, -1, F.Address,
                                     std::string("image degraded: ") +
                                         F.Message));
  }
}

void spike::checkBudgetDegraded(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    if (R.Degrade != DegradeReason::Budget)
      continue;
    Diagnostic D = makeDiagnostic(
        RuleId::BudgetDegraded, int32_t(RoutineIndex), R.Name, -1,
        int64_t(R.Begin),
        "routine degraded to an unknowable summary because its analysis "
        "blew the resource budget: results are sound but maximally "
        "conservative here");
    D.Hint = "re-run with a larger --deadline-ms / --mem-budget-mb / "
             "--max-iters to analyze this routine precisely";
    Ctx.Out.push_back(std::move(D));
  }
}

void spike::checkDeadStackStores(LintContext &Ctx) {
  const Program &Prog = Ctx.Analysis.Prog;
  SlotFlowResult Flow = solveSlotFlow(Prog, Ctx.Opts.Jobs);
  for (const DeadStoreCandidate &C : findDeadStackStores(Prog, Flow)) {
    if (!C.Dead)
      continue;
    const Routine &R = Prog.Routines[C.RoutineIndex];
    const Instruction Inst = Prog.inst(C.Address);
    std::string Slot =
        C.SpOffset < 0 ? "[sp-" + std::to_string(-int64_t(C.SpOffset)) + "]"
                       : "[sp+" + std::to_string(C.SpOffset) + "]";
    Diagnostic D = makeDiagnostic(
        RuleId::DeadStackStore, int32_t(C.RoutineIndex), R.Name,
        int32_t(C.BlockIndex), int64_t(C.Address),
        "store to slot " + Slot + " ('" + Inst.str() +
            "') is never loaded back, interprocedurally dead");
    D.Hint =
        "spike-slice --forward " + std::to_string(C.Address);
    Ctx.Out.push_back(std::move(D));
  }
}
