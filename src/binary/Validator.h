//===- binary/Validator.h - Semantic image validation ---------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic validation of a loaded image, with routine attribution.
///
/// readImage() checks only the container: sections present, counts sane.
/// Everything the CFG builder *trusts* beyond that — symbol addresses
/// inside the code section, primary symbols sorted and distinct, jump
/// tables non-empty with in-range targets, every jmp_tab index naming an
/// existing table, jsr targets landing inside some routine, annotation
/// addresses resolving to the matching instruction kind, every code word
/// decoding — is checked here, and each defect is attributed to the
/// routine that contains it when one does.
///
/// Findings come in two grades.  *Strict* findings are what
/// Image::verify() reports: the image violates an invariant the analysis
/// relies on.  Non-strict findings are advisory (a dropped annotation,
/// code outside any routine).  Independently, a finding may *quarantine*
/// a routine: the CFG builder then models that routine like the paper's
/// unknowable code (Section 3.5) — worst-case summaries, no
/// transformation — instead of rejecting the whole image, so analysis of
/// the healthy remainder proceeds.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_BINARY_VALIDATOR_H
#define SPIKE_BINARY_VALIDATOR_H

#include "binary/Image.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spike {

class ThreadPool;

/// One semantic defect found in an image.
struct ValidationFinding {
  ErrCode Code = ErrCode::None;

  /// Instruction-word address the defect refers to, or -1 (image-level).
  int64_t Address = -1;

  /// Name of the routine the defect lies in; empty if not attributable.
  std::string RoutineName;

  /// True if the image violates an invariant the analysis relies on;
  /// Image::verify() reports exactly the strict findings.
  bool Strict = false;

  /// True if the defect makes the containing routine unanalyzable: the
  /// CFG builder quarantines RoutineName instead of rejecting the image.
  bool Quarantines = false;

  std::string Message;
};

/// The result of validating one image.
struct ValidationReport {
  std::vector<ValidationFinding> Findings;

  /// True when nothing at all was found.
  bool ok() const { return Findings.empty(); }

  /// True when no *strict* finding exists (advisory findings allowed).
  bool clean() const;

  /// The first strict finding, or nullptr.
  const ValidationFinding *firstStrict() const;

  size_t numStrict() const;
  size_t numQuarantining() const;

  /// True if some finding quarantines the named routine.
  bool quarantines(const std::string &RoutineName) const;
};

/// Validates \p Img.  Never crashes on arbitrary (container-well-formed)
/// images; every check is bounds-guarded.  The per-word code checks run
/// one task per routine on \p Pool (inline when null), and their
/// findings are concatenated in address order, so the report is the same
/// at every job count.
ValidationReport validateImage(const Image &Img, ThreadPool *Pool = nullptr);

/// Brings \p Report, a report of \p Img before the words [Begin, End) of
/// routine \p Owner changed in place, up to what validateImage(Img) now
/// returns: re-checks those words, and every annotation when one lies
/// among them.  Only those findings can change, because every other check
/// reads the symbols, the jump tables or other words.  The routines tile
/// the code from \p FirstRoutineBegin to its end.
void revalidateRoutine(const Image &Img, uint64_t Begin, uint64_t End,
                       const std::string &Owner, uint64_t FirstRoutineBegin,
                       ValidationReport &Report);

} // namespace spike

#endif // SPIKE_BINARY_VALIDATOR_H
