//===- binary/Image.h - Executable image model ----------------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable image format Spike-style analysis consumes.
///
/// Spike is a *post-link-time* optimizer: its input is a fully linked
/// executable.  Our synthetic equivalent is an Image with
///   - a code section of fixed-size instruction words (addresses are word
///     indices starting at 0),
///   - a symbol table naming routine entry points (primary entries define
///     routine boundaries; secondary entries model routines with multiple
///     entrances, which Table 3 reports),
///   - jump-table records ("Spike extracts the jump-table stored with the
///     program to find all possible targets of the jump", Section 3.5),
///   - a data section of 64-bit words for the simulator.
///
/// Images serialize to a small binary file format so the repository
/// genuinely contains load/decode ("disassembly") infrastructure rather
/// than passing in-memory IR around.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_BINARY_IMAGE_H
#define SPIKE_BINARY_IMAGE_H

#include "isa/Instruction.h"
#include "support/Status.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spike {

/// Word address at which the data section is mapped at run time (the
/// ABI's "data segment base"); load/store address arithmetic in generated
/// programs and the simulator both use it.
inline constexpr uint64_t DataSectionBase = 0x200000;

/// The largest code section, in words, that the analyses accept: basic
/// blocks store instruction addresses in 32 bits.  loadImage rejects a
/// larger section and buildProgram throws on one (checkCodeSize), so an
/// address is never truncated.
inline constexpr uint64_t MaxCodeWords = UINT32_MAX;

/// Returns success when a code section of \p Words words is within
/// MaxCodeWords, else an ErrCode::CodeTooLarge error.
Status checkCodeSize(uint64_t Words);

/// A named code address in the image's symbol table.
struct Symbol {
  std::string Name;

  /// Instruction-word address of the entry point.
  uint64_t Address = 0;

  /// True for additional entrances into a routine defined by an earlier
  /// primary symbol; false for the symbol that starts a routine.
  bool Secondary = false;

  /// True if the symbol's address escapes (stored in data, passed around),
  /// making the routine a potential target of indirect calls and its
  /// callers unknowable.
  bool AddressTaken = false;

  bool operator==(const Symbol &) const = default;
};

/// All possible targets of one multiway (jump-table) branch.
struct JumpTable {
  std::vector<uint64_t> Targets;

  bool operator==(const JumpTable &) const = default;
};

/// Compiler/linker-provided summary for one *indirect call* site — the
/// Section 3.5 improvement the paper proposes: "The compiler or linker
/// has exact information ... about the registers assumed to be
/// call-used, call-killed, and call-defined by each indirect call.
/// Making this information available to Spike would ensure safe and
/// accurate dataflow information."  When present, the analysis uses
/// these sets instead of the calling standard's blanket assumption.
struct IndirectCallAnnotation {
  uint64_t Address = 0; ///< Address of the jsr_r instruction.
  RegSet Used;          ///< call-used by any possible target.
  RegSet Defined;       ///< call-defined by every possible target.
  RegSet Killed;        ///< call-killed by any possible target.

  bool operator==(const IndirectCallAnnotation &) const = default;
};

/// Compiler/linker-provided live set for one *unresolved indirect jump*:
/// the registers assumed live at the jump's (unknown) target.  Without
/// it the analysis assumes all registers live (Section 3.5).
struct IndirectJumpAnnotation {
  uint64_t Address = 0; ///< Address of the jmp_r instruction.
  RegSet LiveAtTarget;

  bool operator==(const IndirectJumpAnnotation &) const = default;
};

/// A fully linked synthetic executable.
struct Image {
  /// Encoded instruction words; the address of Code[i] is i.
  std::vector<uint64_t> Code;

  /// Routine entries, sorted by address by finalize().
  std::vector<Symbol> Symbols;

  /// Jump tables referenced by JmpTab instructions via table index.
  std::vector<JumpTable> JumpTables;

  /// Initial contents of the data section (simulator memory image).
  std::vector<int64_t> Data;

  /// Optional Section 3.5 side tables (empty when the toolchain provided
  /// no extra information).
  std::vector<IndirectCallAnnotation> CallAnnotations;
  std::vector<IndirectJumpAnnotation> JumpAnnotations;

  /// Address of the first instruction executed (the program entry).
  uint64_t EntryAddress = 0;

  /// Returns the number of instructions in the code section.
  uint64_t numInstructions() const { return Code.size(); }

  /// Sorts symbols by address (stable; primaries before secondaries at the
  /// same address).  Must be called before analysis.
  void finalize();

  /// Semantic validation: symbol addresses and jump-table targets must
  /// be inside the code section, JmpTab indices must name existing tables,
  /// jsr targets must land inside some routine, and every code word must
  /// decode.  Returns the first *strict* finding of validateImage() (see
  /// binary/Validator.h), or std::nullopt if the image is well formed.
  std::optional<std::string> verify() const;

  /// Bytewise structural equality (used by the transactional optimizer to
  /// check that a round's output still round-trips through the container
  /// format unchanged).
  bool operator==(const Image &) const = default;
};

/// One routine of an image's partition into routines.
struct RoutineExtent {
  uint64_t Begin = 0;
  uint64_t End = 0;
  std::string_view Name; ///< Into the image's symbol table, or "<anon>".
  bool AddressTaken = false;
};

/// Tiles \p Img's code into routines: one per in-range primary symbol,
/// stable-sorted by address with the first symbol at an address winning,
/// each ending where the next begins; one "<anon>" routine over the whole
/// code when there is no such symbol (none when the code is empty).  The
/// validator attributes its findings to these routines and buildProgram
/// builds them; neither trusts finalize() to have run, since
/// out-of-range, unsorted or duplicate primaries are validator findings.
std::vector<RoutineExtent> partitionRoutines(const Image &Img);

/// Serializes \p Img into a byte vector (the "SPKX" container format).
std::vector<uint8_t> writeImage(const Image &Img);

/// Parses a byte vector produced by writeImage, reporting structured
/// errors: a container defect yields a Status with a stable ErrCode and
/// the byte offset at which parsing stopped.  Semantic validation is a
/// separate concern (validateImage in binary/Validator.h): a container-
/// well-formed image always loads, even if its contents are garbage, so
/// the CFG builder can quarantine the bad parts instead of rejecting the
/// whole image.
Expected<Image> loadImage(const std::vector<uint8_t> &Bytes);

/// Reads and parses the image at \p Path.  Adds I/O-level error codes
/// (IoOpen, IoRead, EmptyFile) and prefixes every error message with the
/// path.
Expected<Image> loadImageFile(const std::string &Path);

/// Parses a byte vector produced by writeImage.  Returns std::nullopt and
/// sets \p ErrorOut (if non-null) on malformed input.  Convenience
/// wrapper around loadImage.
std::optional<Image> readImage(const std::vector<uint8_t> &Bytes,
                               std::string *ErrorOut = nullptr);

/// Writes \p Img to \p Path.  Returns false on I/O failure.
bool writeImageFile(const Image &Img, const std::string &Path);

/// Reads an image from \p Path.  Convenience wrapper around
/// loadImageFile.
std::optional<Image> readImageFile(const std::string &Path,
                                   std::string *ErrorOut = nullptr);

/// Prints a textual disassembly of the whole image to \p Out, with symbol
/// labels and jump-table contents (a smoke-testable "spike-objdump").
void disassemble(const Image &Img, std::string &Out);

} // namespace spike

#endif // SPIKE_BINARY_IMAGE_H
