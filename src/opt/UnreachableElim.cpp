//===- opt/UnreachableElim.cpp - Dead routine removal ----------------------===//

#include "opt/UnreachableElim.h"

#include "isa/Encoding.h"

#include <algorithm>
#include <vector>

using namespace spike;

UnreachableElimStats
spike::eliminateUnreachableRoutines(Image &Img, const Program &Prog) {
  UnreachableElimStats Stats;
  size_t Count = Prog.Routines.size();
  if (Count == 0)
    return Stats;

  const std::vector<bool> &Reachable = Prog.Calls.Reachable;

  uint64_t RetWord = encodeInstruction(inst::ret());
  uint64_t NopWord = encodeInstruction(inst::nop());
  for (uint32_t R = 0; R < Count; ++R) {
    if (Reachable[R])
      continue;
    const Routine &Dead = Prog.Routines[R];
    // Quarantined routines are call-graph roots and thus reachable, but
    // guard explicitly: the optimizer must never touch bytes it cannot
    // decode.
    if (Dead.Quarantined)
      continue;
    if (Dead.Begin >= Dead.End)
      continue;
    // Idempotence: a routine already reduced to ret+nops by an earlier
    // round is not a new change.
    bool AlreadyTrivial = Img.Code[Dead.Begin] == RetWord;
    for (uint64_t Address = Dead.Begin + 1;
         AlreadyTrivial && Address < Dead.End; ++Address)
      AlreadyTrivial = Img.Code[Address] == NopWord;
    if (AlreadyTrivial)
      continue;
    Img.Code[Dead.Begin] = RetWord;
    for (uint64_t Address = Dead.Begin + 1; Address < Dead.End; ++Address)
      Img.Code[Address] = NopWord;
    // The jsr_r / jmp_tab instructions any annotation described are gone;
    // a stale annotation on a nop would dangle.
    std::erase_if(Img.CallAnnotations, [&](const auto &A) {
      return A.Address >= Dead.Begin && A.Address < Dead.End;
    });
    std::erase_if(Img.JumpAnnotations, [&](const auto &A) {
      return A.Address >= Dead.Begin && A.Address < Dead.End;
    });
    ++Stats.RoutinesRemoved;
    Stats.InstsRemoved += Dead.End - Dead.Begin;
    Stats.RemovedNames.push_back(Dead.Name);
  }
  return Stats;
}
