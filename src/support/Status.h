//===- support/Status.h - Structured errors for ingestion -----*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured error reporting for the binary-ingestion path.
///
/// Spike consumes whatever bytes a linker (or a hostile disk) produced, so
/// "it failed" is not enough: callers need to know *what* failed (a stable
/// error code they can match on), *where* (a byte offset in the container
/// or an instruction-word address), and *whose fault it is* (the routine
/// the defect lies in, when attributable).  Status carries all of that;
/// Expected<T> is the usual value-or-error result wrapper.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_STATUS_H
#define SPIKE_SUPPORT_STATUS_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace spike {

/// Stable machine-matchable codes for everything the loader and the
/// semantic validator can object to.  Tests pin these as golden values;
/// renumbering is an ABI break for saved fuzz corpora.
enum class ErrCode : uint8_t {
  None = 0,

  // File I/O.
  IoOpen,    ///< The file could not be opened.
  IoRead,    ///< A read error (std::ferror) occurred mid-file.
  EmptyFile, ///< The file exists but contains no bytes.

  // Container parsing (readImage).
  BadMagic,            ///< First word is not the SPKX magic.
  TruncatedHeader,     ///< Header fields cut short.
  TruncatedCode,       ///< Code section cut short.
  TruncatedSymbols,    ///< Symbol table cut short.
  TruncatedJumpTables, ///< Jump-table section cut short.
  TruncatedData,       ///< Data section cut short.
  TruncatedAnnotations, ///< Section 3.5 annotation tables cut short.
  TrailingBytes,       ///< Bytes remain after the last section.

  // Semantic validation (validateImage).
  UndecodableOpcode,         ///< A code word does not decode.
  SymbolOutOfRange,          ///< Symbol address outside the code section.
  SymbolOrder,               ///< Primary symbols not sorted by address.
  DuplicateSymbol,           ///< Two primaries claim the same address.
  EntryOutOfRange,           ///< Program entry outside the code section.
  JumpTableTargetOutOfRange, ///< Table target outside the code section.
  EmptyJumpTable,            ///< A jump table with no targets.
  DanglingJumpTableIndex,    ///< jmp_tab names a table that does not exist.
  CallTargetOutOfRange,      ///< jsr targets outside code or outside any
                             ///< routine.
  AnnotationUnresolved, ///< Annotation address is not the matching kind of
                        ///< instruction.
  CodeOutsideRoutines,  ///< Code words before the first primary symbol.

  // Resource governance (ResourceGovernor / analyzeImageGoverned).
  DeadlineExpired,      ///< --deadline-ms wall-clock budget exhausted.
  MemBudgetExceeded,    ///< --mem-budget-mb analysis-memory ceiling hit.
  IterationCapExceeded, ///< --max-iters fixpoint-iteration cap hit.
  Cancelled,            ///< Cooperative cancellation was requested.
  BudgetUnsatisfiable,  ///< Budget blown even with every routine degraded.
  InjectedFault,        ///< A --inject-fault seam fired (bad_alloc or
                        ///< task fault) and could not be degraded around.

  // Analysis limits.
  CodeTooLarge, ///< Code section over MaxCodeWords (binary/Image.h).
};

/// Short stable name for an error code ("BadMagic", "EmptyJumpTable", ...).
const char *errorCodeName(ErrCode Code);

/// One structured error: code, human-readable message, and as much
/// location context as the producer had.
struct Status {
  ErrCode Code = ErrCode::None;
  std::string Message;

  /// Byte offset into the container where parsing stopped, or -1.
  int64_t Offset = -1;

  /// Instruction-word address the error refers to, or -1.
  int64_t Address = -1;

  /// Name of the routine the error is attributed to, when known.
  std::string Routine;

  bool ok() const { return Code == ErrCode::None; }

  /// Renders "[Code] message (byte offset N, address A, routine 'R')",
  /// omitting absent context.
  std::string str() const;

  static Status success() { return Status(); }

  static Status error(ErrCode Code, std::string Message) {
    Status S;
    S.Code = Code;
    S.Message = std::move(Message);
    return S;
  }

  Status &atOffset(int64_t ByteOffset) {
    Offset = ByteOffset;
    return *this;
  }

  Status &atAddress(int64_t WordAddress) {
    Address = WordAddress;
    return *this;
  }

  Status &inRoutine(std::string Name) {
    Routine = std::move(Name);
    return *this;
  }
};

/// Value-or-Status result.  Converts from either; test with operator bool,
/// then dereference or call error().
template <typename T> class Expected {
public:
  Expected(T Val) : Value(std::move(Val)) {}
  Expected(Status Err) : Err(std::move(Err)) {}

  explicit operator bool() const { return Value.has_value(); }

  T &operator*() { return *Value; }
  const T &operator*() const { return *Value; }
  T *operator->() { return &*Value; }
  const T *operator->() const { return &*Value; }

  /// The error; only meaningful when operator bool() is false.
  const Status &error() const { return Err; }

  /// Moves the value out; only valid when operator bool() is true.
  T take() { return std::move(*Value); }

private:
  std::optional<T> Value;
  Status Err;
};

} // namespace spike

#endif // SPIKE_SUPPORT_STATUS_H
