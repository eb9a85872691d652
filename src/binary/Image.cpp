//===- binary/Image.cpp - Executable image model --------------------------===//

#include "binary/Image.h"

#include "telemetry/Telemetry.h"

#include "binary/Validator.h"
#include "isa/Encoding.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace spike;

void Image::finalize() {
  std::stable_sort(Symbols.begin(), Symbols.end(),
                   [](const Symbol &A, const Symbol &B) {
                     if (A.Address != B.Address)
                       return A.Address < B.Address;
                     return !A.Secondary && B.Secondary;
                   });
}

std::optional<std::string> Image::verify() const {
  ValidationReport Report = validateImage(*this);
  if (const ValidationFinding *F = Report.firstStrict())
    return F->Message;
  return std::nullopt;
}

namespace {

/// Little-endian byte writer for the container format.
class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Bytes) : Bytes(Bytes) {}

  void u64(uint64_t Value) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(uint8_t(Value >> (8 * I)));
  }

  void str(const std::string &Value) {
    u64(Value.size());
    Bytes.insert(Bytes.end(), Value.begin(), Value.end());
  }

private:
  std::vector<uint8_t> &Bytes;
};

/// Little-endian byte reader with bounds checking.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &Bytes) : Bytes(Bytes) {}

  bool u64(uint64_t &Value) {
    if (Offset + 8 > Bytes.size())
      return false;
    Value = 0;
    for (int I = 0; I < 8; ++I)
      Value |= uint64_t(Bytes[Offset + I]) << (8 * I);
    Offset += 8;
    return true;
  }

  bool str(std::string &Value) {
    uint64_t Size = 0;
    // Compare against remaining() rather than Offset + Size: a huge
    // corrupted length would overflow the addition and slip past the
    // bounds check into a giant allocation.
    if (!u64(Size) || Size > remaining())
      return false;
    Value.assign(Bytes.begin() + Offset, Bytes.begin() + Offset + Size);
    Offset += Size;
    return true;
  }

  bool atEnd() const { return Offset == Bytes.size(); }

  /// Bytes left to read; used to sanity-check element counts before
  /// resizing containers (a corrupted count must not trigger a huge
  /// allocation).
  size_t remaining() const { return Bytes.size() - Offset; }

  /// Current byte offset, for error reporting.
  size_t offset() const { return Offset; }

private:
  const std::vector<uint8_t> &Bytes;
  size_t Offset = 0;
};

constexpr uint64_t ImageMagic = 0x3158454b49505357ull; // "WSPIKEX1"

} // namespace

std::vector<RoutineExtent> spike::partitionRoutines(const Image &Img) {
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

  std::vector<RoutineExtent> Routines;
  if (Primaries.empty()) {
    if (!Img.Code.empty())
      Routines.push_back({0, Img.Code.size(), "<anon>", false});
    return Routines;
  }
  Routines.reserve(Primaries.size());
  for (size_t I = 0; I < Primaries.size(); ++I)
    Routines.push_back({Primaries[I]->Address,
                        I + 1 < Primaries.size() ? Primaries[I + 1]->Address
                                                 : Img.Code.size(),
                        Primaries[I]->Name, Primaries[I]->AddressTaken});
  return Routines;
}

Status spike::checkCodeSize(uint64_t Words) {
  if (Words <= MaxCodeWords)
    return Status::success();
  return Status::error(ErrCode::CodeTooLarge,
                       "code section of " + std::to_string(Words) +
                           " words exceeds the limit of " +
                           std::to_string(MaxCodeWords));
}

std::vector<uint8_t> spike::writeImage(const Image &Img) {
  std::vector<uint8_t> Bytes;
  ByteWriter Writer(Bytes);
  Writer.u64(ImageMagic);
  Writer.u64(Img.EntryAddress);
  Writer.u64(Img.Code.size());
  for (uint64_t Word : Img.Code)
    Writer.u64(Word);
  Writer.u64(Img.Symbols.size());
  for (const Symbol &Sym : Img.Symbols) {
    Writer.str(Sym.Name);
    Writer.u64(Sym.Address);
    Writer.u64((Sym.Secondary ? 1 : 0) | (Sym.AddressTaken ? 2 : 0));
  }
  Writer.u64(Img.JumpTables.size());
  for (const JumpTable &Table : Img.JumpTables) {
    Writer.u64(Table.Targets.size());
    for (uint64_t Target : Table.Targets)
      Writer.u64(Target);
  }
  Writer.u64(Img.Data.size());
  for (int64_t Word : Img.Data)
    Writer.u64(uint64_t(Word));
  Writer.u64(Img.CallAnnotations.size());
  for (const IndirectCallAnnotation &Annot : Img.CallAnnotations) {
    Writer.u64(Annot.Address);
    Writer.u64(Annot.Used.mask());
    Writer.u64(Annot.Defined.mask());
    Writer.u64(Annot.Killed.mask());
  }
  Writer.u64(Img.JumpAnnotations.size());
  for (const IndirectJumpAnnotation &Annot : Img.JumpAnnotations) {
    Writer.u64(Annot.Address);
    Writer.u64(Annot.LiveAtTarget.mask());
  }
  return Bytes;
}

Expected<Image> spike::loadImage(const std::vector<uint8_t> &Bytes) {
  telemetry::Span LoadSpan("binary.load");
  telemetry::count("binary.load.bytes", Bytes.size());
  ByteReader Reader(Bytes);
  auto Fail = [&](ErrCode Code, const char *Message,
                  int64_t Address = -1) -> Expected<Image> {
    telemetry::count("binary.load.errors");
    return Status::error(Code, Message)
        .atOffset(int64_t(Reader.offset()))
        .atAddress(Address);
  };
  uint64_t Magic = 0;
  if (!Reader.u64(Magic) || Magic != ImageMagic)
    return Fail(ErrCode::BadMagic, "bad magic; not a SPKX image");
  Image Img;
  uint64_t Count = 0;
  // Each serialized element occupies at least MinElementBytes, so any
  // count larger than remaining()/MinElementBytes is corrupt; checking
  // first keeps corrupted inputs from triggering huge allocations.
  auto CountOk = [&](uint64_t N, uint64_t MinElementBytes) {
    return N <= Reader.remaining() / MinElementBytes;
  };
  if (!Reader.u64(Img.EntryAddress) || !Reader.u64(Count))
    return Fail(ErrCode::TruncatedHeader, "truncated header");
  if (Status TooLarge = checkCodeSize(Count); !TooLarge.ok()) {
    telemetry::count("binary.load.errors");
    return TooLarge.atOffset(int64_t(Reader.offset()));
  }
  if (!CountOk(Count, 8))
    return Fail(ErrCode::TruncatedHeader, "truncated header");
  Img.Code.resize(Count);
  for (uint64_t &Word : Img.Code)
    if (!Reader.u64(Word))
      return Fail(ErrCode::TruncatedCode, "truncated code section");
  if (!Reader.u64(Count) || !CountOk(Count, 24))
    return Fail(ErrCode::TruncatedSymbols, "truncated symbol table");
  Img.Symbols.resize(Count);
  for (Symbol &Sym : Img.Symbols) {
    uint64_t Flags = 0;
    if (!Reader.str(Sym.Name) || !Reader.u64(Sym.Address) ||
        !Reader.u64(Flags))
      return Fail(ErrCode::TruncatedSymbols, "truncated symbol record");
    Sym.Secondary = (Flags & 1) != 0;
    Sym.AddressTaken = (Flags & 2) != 0;
  }
  if (!Reader.u64(Count) || !CountOk(Count, 8))
    return Fail(ErrCode::TruncatedJumpTables,
                "truncated jump-table section");
  Img.JumpTables.resize(Count);
  for (JumpTable &Table : Img.JumpTables) {
    if (!Reader.u64(Count) || !CountOk(Count, 8))
      return Fail(ErrCode::TruncatedJumpTables, "truncated jump table");
    Table.Targets.resize(Count);
    for (uint64_t &Target : Table.Targets)
      if (!Reader.u64(Target))
        return Fail(ErrCode::TruncatedJumpTables,
                    "truncated jump-table entry");
  }
  if (!Reader.u64(Count) || !CountOk(Count, 8))
    return Fail(ErrCode::TruncatedData, "truncated data section");
  Img.Data.resize(Count);
  for (int64_t &Word : Img.Data) {
    uint64_t Raw = 0;
    if (!Reader.u64(Raw))
      return Fail(ErrCode::TruncatedData, "truncated data word");
    Word = int64_t(Raw);
  }
  // Section 3.5 annotation tables (absent in older images).  A mask keeps
  // its 64-bit field, but one naming a register at or past MaxRegisters
  // is refused, so no annotation set is ever truncated to a RegSet.
  if (!Reader.atEnd()) {
    if (!Reader.u64(Count) || !CountOk(Count, 32))
      return Fail(ErrCode::TruncatedAnnotations,
                  "truncated call-annotation section");
    Img.CallAnnotations.resize(Count);
    for (IndirectCallAnnotation &Annot : Img.CallAnnotations) {
      uint64_t Used = 0, Defined = 0, Killed = 0;
      if (!Reader.u64(Annot.Address) || !Reader.u64(Used) ||
          !Reader.u64(Defined) || !Reader.u64(Killed))
        return Fail(ErrCode::TruncatedAnnotations,
                    "truncated call annotation");
      if ((Used | Defined | Killed) >> MaxRegisters)
        return Fail(ErrCode::AnnotationRegisterOutOfRange,
                    "call annotation names a register past r31",
                    int64_t(Annot.Address));
      Annot.Used = RegSet::fromMask(RegSet::Word(Used));
      Annot.Defined = RegSet::fromMask(RegSet::Word(Defined));
      Annot.Killed = RegSet::fromMask(RegSet::Word(Killed));
    }
    if (!Reader.u64(Count) || !CountOk(Count, 16))
      return Fail(ErrCode::TruncatedAnnotations,
                  "truncated jump-annotation section");
    Img.JumpAnnotations.resize(Count);
    for (IndirectJumpAnnotation &Annot : Img.JumpAnnotations) {
      uint64_t Live = 0;
      if (!Reader.u64(Annot.Address) || !Reader.u64(Live))
        return Fail(ErrCode::TruncatedAnnotations,
                    "truncated jump annotation");
      if (Live >> MaxRegisters)
        return Fail(ErrCode::AnnotationRegisterOutOfRange,
                    "jump annotation names a register past r31",
                    int64_t(Annot.Address));
      Annot.LiveAtTarget = RegSet::fromMask(RegSet::Word(Live));
    }
  }
  if (!Reader.atEnd())
    return Fail(ErrCode::TrailingBytes, "trailing bytes after image");
  if (telemetry::active()) {
    telemetry::count("binary.load.images");
    telemetry::count("binary.load.code_words", Img.Code.size());
    telemetry::count("binary.load.symbols", Img.Symbols.size());
    telemetry::count("binary.load.jump_tables", Img.JumpTables.size());
  }
  return Img;
}

std::optional<Image> spike::readImage(const std::vector<uint8_t> &Bytes,
                                      std::string *ErrorOut) {
  Expected<Image> Result = loadImage(Bytes);
  if (!Result) {
    if (ErrorOut)
      *ErrorOut = Result.error().Message;
    return std::nullopt;
  }
  return Result.take();
}

bool spike::writeImageFile(const Image &Img, const std::string &Path) {
  std::vector<uint8_t> Bytes = writeImage(Img);
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  std::fclose(File);
  return Written == Bytes.size();
}

Expected<Image> spike::loadImageFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return Status::error(ErrCode::IoOpen, "cannot open '" + Path + "'");
  std::vector<uint8_t> Bytes;
  uint8_t Buffer[4096];
  size_t Read = 0;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Bytes.insert(Bytes.end(), Buffer, Buffer + Read);
  // A short read must be reported as an I/O failure, not misdiagnosed
  // as a malformed image by the parser below.
  bool ReadError = std::ferror(File) != 0;
  std::fclose(File);
  if (ReadError)
    return Status::error(ErrCode::IoRead,
                         "read error while reading '" + Path + "'")
        .atOffset(int64_t(Bytes.size()));
  if (Bytes.empty())
    return Status::error(ErrCode::EmptyFile, "'" + Path + "' is empty");
  Expected<Image> Result = loadImage(Bytes);
  if (!Result) {
    Status Err = Result.error();
    Err.Message = "'" + Path + "': " + Err.Message;
    return Err;
  }
  return Result;
}

std::optional<Image> spike::readImageFile(const std::string &Path,
                                          std::string *ErrorOut) {
  Expected<Image> Result = loadImageFile(Path);
  if (!Result) {
    if (ErrorOut)
      *ErrorOut = Result.error().Message;
    return std::nullopt;
  }
  return Result.take();
}

void spike::disassemble(const Image &Img, std::string &Out) {
  std::ostringstream OS;
  OS << ".start " << Img.EntryAddress << '\n';

  // Index symbols by address for label printing.
  std::vector<const Symbol *> ByAddress;
  ByAddress.reserve(Img.Symbols.size());
  for (const Symbol &Sym : Img.Symbols)
    ByAddress.push_back(&Sym);
  std::stable_sort(ByAddress.begin(), ByAddress.end(),
                   [](const Symbol *A, const Symbol *B) {
                     return A->Address < B->Address;
                   });
  size_t NextSymbol = 0;
  for (uint64_t Address = 0; Address < Img.Code.size(); ++Address) {
    while (NextSymbol < ByAddress.size() &&
           ByAddress[NextSymbol]->Address == Address) {
      const Symbol *Sym = ByAddress[NextSymbol];
      OS << Sym->Name;
      if (Sym->Secondary)
        OS << " (secondary entry)";
      else if (Sym->AddressTaken)
        OS << " (address taken)";
      OS << ":\n";
      ++NextSymbol;
    }
    std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
    OS << "  " << Address << ":\t";
    if (Inst)
      OS << Inst->str(int64_t(Address));
    else
      OS << "<bad encoding>";
    OS << '\n';
  }
  for (size_t TableIndex = 0; TableIndex < Img.JumpTables.size();
       ++TableIndex) {
    OS << ".table " << TableIndex << ':';
    for (uint64_t Target : Img.JumpTables[TableIndex].Targets)
      OS << ' ' << Target;
    OS << '\n';
  }
  if (!Img.Data.empty()) {
    OS << ".data";
    for (int64_t Word : Img.Data)
      OS << ' ' << Word;
    OS << '\n';
  }
  Out += OS.str();
}
