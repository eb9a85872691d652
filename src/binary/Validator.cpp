//===- binary/Validator.cpp - Semantic image validation -------------------===//

#include "binary/Validator.h"

#include "isa/Encoding.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <optional>
#include <string_view>

using namespace spike;

bool ValidationReport::clean() const {
  return firstStrict() == nullptr;
}

const ValidationFinding *ValidationReport::firstStrict() const {
  for (const ValidationFinding &F : Findings)
    if (F.Strict)
      return &F;
  return nullptr;
}

size_t ValidationReport::numStrict() const {
  size_t N = 0;
  for (const ValidationFinding &F : Findings)
    N += F.Strict;
  return N;
}

size_t ValidationReport::numQuarantining() const {
  size_t N = 0;
  for (const ValidationFinding &F : Findings)
    N += F.Quarantines;
  return N;
}

bool ValidationReport::quarantines(const std::string &RoutineName) const {
  for (const ValidationFinding &F : Findings)
    if (F.Quarantines && F.RoutineName == RoutineName)
      return true;
  return false;
}

namespace {

/// The routines findings are attributed to: the partition the CFG
/// builder uses.
struct Partition {
  std::vector<RoutineExtent> Routines;

  /// Index of the routine containing \p Address, or -1 (gap / no code).
  int32_t ownerOf(uint64_t Address) const {
    auto It = std::upper_bound(
        Routines.begin(), Routines.end(), Address,
        [](uint64_t A, const RoutineExtent &E) { return A < E.Begin; });
    if (It == Routines.begin())
      return -1;
    --It;
    if (Address >= It->End)
      return -1;
    return int32_t(It - Routines.begin());
  }
};

/// Returns a finding; one that quarantines is attributed to \p Owner, the
/// routine containing its address (none when no routine does: then it
/// quarantines nothing).
ValidationFinding makeFinding(ErrCode Code, int64_t Address, bool Strict,
                              bool Quarantines, std::string Message,
                              std::optional<std::string_view> Owner) {
  ValidationFinding F;
  F.Code = Code;
  F.Address = Address;
  F.Strict = Strict;
  F.Message = std::move(Message);
  if (Quarantines && Address >= 0 && Owner) {
    F.RoutineName = std::string(*Owner);
    F.Quarantines = true;
  }
  return F;
}

/// True if the image's jump table exists but is unusable (empty or with
/// targets outside the code section).
bool tableBad(const Image &Img, uint64_t TableIndex) {
  const JumpTable &Table = Img.JumpTables[TableIndex];
  if (Table.Targets.empty())
    return true;
  for (uint64_t Target : Table.Targets)
    if (Target >= Img.Code.size())
      return true;
  return false;
}

/// Checks the code words [Begin, End), all owned by \p Owner (none for
/// the unowned words before the first routine): each decodes, a jmp_tab
/// names a usable table, and a jsr lands inside some routine.  Routines
/// tile the code from \p FirstRoutineBegin to its end, so that is the
/// whole "inside some routine" test.  Findings go to \p Out in address
/// order.
void checkWords(const Image &Img, uint64_t Begin, uint64_t End,
                std::optional<std::string_view> Owner,
                uint64_t FirstRoutineBegin,
                std::vector<ValidationFinding> &Out) {
  auto Add = [&](ErrCode Code, uint64_t Address, std::string Message) {
    Out.push_back(makeFinding(Code, int64_t(Address), /*Strict=*/true,
                              /*Quarantines=*/true, std::move(Message),
                              Owner));
  };
  for (uint64_t Address = Begin; Address < End; ++Address) {
    std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
    if (!Inst) {
      Add(ErrCode::UndecodableOpcode, Address,
          "undecodable instruction at address " + std::to_string(Address));
      continue;
    }
    if (Inst->Op == Opcode::JmpTab) {
      uint64_t TableIndex = uint64_t(uint32_t(Inst->Imm));
      if (TableIndex >= Img.JumpTables.size())
        Add(ErrCode::DanglingJumpTableIndex, Address,
            "jmp_tab at address " + std::to_string(Address) +
                " names a missing jump table");
      else if (tableBad(Img, TableIndex))
        Add(Img.JumpTables[TableIndex].Targets.empty()
                ? ErrCode::EmptyJumpTable
                : ErrCode::JumpTableTargetOutOfRange,
            Address,
            "jmp_tab at address " + std::to_string(Address) +
                " references unusable jump table " +
                std::to_string(TableIndex));
    }
    if (Inst->Op == Opcode::Jsr) {
      if (Inst->Imm < 0 || uint64_t(Inst->Imm) >= Img.Code.size())
        Add(ErrCode::CallTargetOutOfRange, Address,
            "jsr at address " + std::to_string(Address) +
                " targets outside the code section");
      else if (uint64_t(Inst->Imm) < FirstRoutineBegin)
        Add(ErrCode::CallTargetOutOfRange, Address,
            "jsr at address " + std::to_string(Address) +
                " targets code outside every routine");
    }
  }
}

/// True if the word at \p Address decodes to an instruction matching
/// \p Pred.
template <typename PredT>
bool decodesTo(const Image &Img, uint64_t Address, PredT Pred) {
  if (Address >= Img.Code.size())
    return false;
  std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
  return Inst && Pred(*Inst);
}

/// Appends a finding for every annotation that does not resolve to the
/// matching instruction kind.
void checkAnnotations(const Image &Img, std::vector<ValidationFinding> &Out) {
  for (const IndirectCallAnnotation &Annot : Img.CallAnnotations)
    if (!decodesTo(Img, Annot.Address, [](const Instruction &Inst) {
          return opcodeInfo(Inst.Op).IsIndirectCall;
        }))
      Out.push_back(makeFinding(
          ErrCode::AnnotationUnresolved, int64_t(Annot.Address),
          /*Strict=*/false, /*Quarantines=*/false,
          "call annotation at address " + std::to_string(Annot.Address) +
              " does not resolve to an indirect call",
          std::nullopt));
  for (const IndirectJumpAnnotation &Annot : Img.JumpAnnotations)
    if (!decodesTo(Img, Annot.Address, [](const Instruction &Inst) {
          return opcodeInfo(Inst.Op).IsUnresolvedJump;
        }))
      Out.push_back(makeFinding(
          ErrCode::AnnotationUnresolved, int64_t(Annot.Address),
          /*Strict=*/false, /*Quarantines=*/false,
          "jump annotation at address " + std::to_string(Annot.Address) +
              " does not resolve to an indirect jump",
          std::nullopt));
}

/// True for a finding of the per-word code checks (checkWords).  The
/// jump-table checks share two of its codes but carry no address.
bool isWordFinding(const ValidationFinding &F) {
  switch (F.Code) {
  case ErrCode::UndecodableOpcode:
  case ErrCode::DanglingJumpTableIndex:
  case ErrCode::EmptyJumpTable:
  case ErrCode::JumpTableTargetOutOfRange:
  case ErrCode::CallTargetOutOfRange:
    return F.Address >= 0;
  default:
    return false;
  }
}

class ImageValidator {
public:
  explicit ImageValidator(const Image &Img)
      : Img(Img), Part{partitionRoutines(Img)} {}

  ValidationReport run(ThreadPool *Pool) {
    checkSymbols();
    checkEntry();
    checkJumpTables();
    checkCode(Pool);
    checkGap();
    checkAnnotations(Img, Report.Findings);
    return std::move(Report);
  }

private:
  void add(ErrCode Code, int64_t Address, bool Strict, bool Quarantines,
           std::string Message) {
    Report.Findings.push_back(
        makeFinding(Code, Address, Strict, Quarantines, std::move(Message),
                    std::nullopt));
  }

  void checkSymbols() {
    for (const Symbol &Sym : Img.Symbols)
      if (Sym.Address >= Img.Code.size())
        add(ErrCode::SymbolOutOfRange, int64_t(Sym.Address),
            /*Strict=*/true, /*Quarantines=*/false,
            "symbol '" + Sym.Name + "' address out of range");

    // Primary ordering and uniqueness: the partition sorts and dedups
    // defensively, but an unsorted or duplicated table means the producer
    // violated the format contract, which verify() must report.
    uint64_t Prev = 0;
    bool First = true;
    for (const Symbol &Sym : Img.Symbols) {
      if (Sym.Secondary || Sym.Address >= Img.Code.size())
        continue;
      if (!First && Sym.Address < Prev)
        add(ErrCode::SymbolOrder, int64_t(Sym.Address), /*Strict=*/true,
            /*Quarantines=*/false,
            "primary symbol '" + Sym.Name +
                "' out of address order in the symbol table");
      if (!First && Sym.Address == Prev)
        add(ErrCode::DuplicateSymbol, int64_t(Sym.Address),
            /*Strict=*/true, /*Quarantines=*/false,
            "primary symbol '" + Sym.Name +
                "' duplicates an earlier routine address");
      Prev = Sym.Address;
      First = false;
    }
  }

  void checkEntry() {
    if (Img.Symbols.empty())
      return;
    if (Img.EntryAddress >= Img.Code.size())
      add(ErrCode::EntryOutOfRange, int64_t(Img.EntryAddress),
          /*Strict=*/true, /*Quarantines=*/false,
          "entry address out of range");
    else if (Part.ownerOf(Img.EntryAddress) < 0)
      add(ErrCode::EntryOutOfRange, int64_t(Img.EntryAddress),
          /*Strict=*/false, /*Quarantines=*/false,
          "entry address falls outside every routine");
  }

  void checkJumpTables() {
    for (size_t TableIndex = 0; TableIndex < Img.JumpTables.size();
         ++TableIndex) {
      const JumpTable &Table = Img.JumpTables[TableIndex];
      if (Table.Targets.empty())
        add(ErrCode::EmptyJumpTable, /*Address=*/-1, /*Strict=*/true,
            /*Quarantines=*/false,
            "jump table " + std::to_string(TableIndex) + " is empty");
      for (uint64_t Target : Table.Targets)
        if (Target >= Img.Code.size()) {
          add(ErrCode::JumpTableTargetOutOfRange, /*Address=*/-1,
              /*Strict=*/true, /*Quarantines=*/false,
              "jump table " + std::to_string(TableIndex) +
                  " target out of range");
          break;
        }
    }
  }

  /// The per-word checks, one task per routine plus one for the words
  /// before the first routine; each task collects its own findings, and
  /// they are appended in address order.
  void checkCode(ThreadPool *Pool) {
    std::vector<std::vector<ValidationFinding>> Found(Part.Routines.size() +
                                                      1);
    uint64_t FirstBegin =
        Part.Routines.empty() ? Img.Code.size() : Part.Routines.front().Begin;
    {
      telemetry::Span CodeSpan("binary.validate.code");
      forEachTask(Pool, Found.size(), [&](size_t Chunk, unsigned) {
        if (Chunk == 0) {
          checkWords(Img, 0, FirstBegin, std::nullopt, FirstBegin, Found[0]);
          return;
        }
        const RoutineExtent &Owner = Part.Routines[Chunk - 1];
        checkWords(Img, Owner.Begin, Owner.End, Owner.Name, FirstBegin,
                   Found[Chunk]);
      });
    }
    for (std::vector<ValidationFinding> &Chunk : Found)
      for (ValidationFinding &F : Chunk)
        Report.Findings.push_back(std::move(F));
  }

  void checkGap() {
    if (Img.Code.empty() || Part.Routines.empty())
      return;
    if (Part.Routines.front().Begin > 0)
      add(ErrCode::CodeOutsideRoutines, /*Address=*/0, /*Strict=*/false,
          /*Quarantines=*/false,
          std::to_string(Part.Routines.front().Begin) +
              " code words precede the first routine");
  }

  const Image &Img;
  Partition Part;
  ValidationReport Report;
};

} // namespace

ValidationReport spike::validateImage(const Image &Img, ThreadPool *Pool) {
  telemetry::Span ValidateSpan("binary.validate");
  ValidationReport Report = ImageValidator(Img).run(Pool);
  if (telemetry::active()) {
    uint64_t Strict = 0, Quarantines = 0;
    for (const ValidationFinding &F : Report.Findings) {
      Strict += F.Strict;
      Quarantines += F.Quarantines;
    }
    telemetry::count("validate.findings", Report.Findings.size());
    telemetry::count("validate.strict_findings", Strict);
    telemetry::count("validate.quarantining_findings", Quarantines);
  }
  return Report;
}

void spike::revalidateRoutine(const Image &Img, uint64_t Begin, uint64_t End,
                              const std::string &Owner,
                              uint64_t FirstRoutineBegin,
                              ValidationReport &Report) {
  // The words' findings sit among the other per-word findings in address
  // order, after the symbol, entry and jump-table findings and before the
  // gap and annotation ones: replace them where they are, or insert the
  // new ones where they belong.
  std::vector<ValidationFinding> &Findings = Report.Findings;
  auto InRange = [&](const ValidationFinding &F) {
    return isWordFinding(F) && uint64_t(F.Address) >= Begin &&
           uint64_t(F.Address) < End;
  };
  auto Pos = std::find_if(Findings.begin(), Findings.end(),
                          [&](const ValidationFinding &F) {
                            return (isWordFinding(F) &&
                                    uint64_t(F.Address) >= Begin) ||
                                   F.Code == ErrCode::CodeOutsideRoutines ||
                                   F.Code == ErrCode::AnnotationUnresolved;
                          });
  auto Last = std::find_if_not(Pos, Findings.end(), InRange);
  std::vector<ValidationFinding> Words;
  checkWords(Img, Begin, End, std::string_view(Owner), FirstRoutineBegin,
             Words);
  Pos = Findings.erase(Pos, Last);
  Findings.insert(Pos, std::make_move_iterator(Words.begin()),
                  std::make_move_iterator(Words.end()));

  // Annotation findings close the report, one per unresolved annotation
  // in table order; re-check them all when one lies in the range.
  auto Annotated = [&](uint64_t Address) {
    return Address >= Begin && Address < End;
  };
  bool Touched =
      std::any_of(Img.CallAnnotations.begin(), Img.CallAnnotations.end(),
                  [&](const auto &A) { return Annotated(A.Address); }) ||
      std::any_of(Img.JumpAnnotations.begin(), Img.JumpAnnotations.end(),
                  [&](const auto &A) { return Annotated(A.Address); });
  if (!Touched)
    return;
  Findings.erase(std::find_if(Findings.begin(), Findings.end(),
                              [](const ValidationFinding &F) {
                                return F.Code ==
                                       ErrCode::AnnotationUnresolved;
                              }),
                 Findings.end());
  checkAnnotations(Img, Findings);
}
