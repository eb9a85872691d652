//===- lint/JsonWriter.h - JSON rendering of lint results -----*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable output for spike-lint: the diagnostics of one run as
/// a JSON document, so CI jobs and editors can consume findings without
/// scraping the text format.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_LINT_JSONWRITER_H
#define SPIKE_LINT_JSONWRITER_H

#include "lint/Linter.h"

#include <string>

namespace spike {

/// Renders \p Result as a JSON document:
///
/// \code
///   {
///     "diagnostics": [
///       {"rule": "SL002", "name": "cc-clobber", "severity": "warning",
///        "routine": "P1", "block": 2, "address": 17,
///        "message": "..."},
///       ...
///     ],
///     "counts": {"note": 0, "warning": 2, "error": 0}
///   }
/// \endcode
///
/// Absent locations (routine/block/address) are omitted from the object
/// rather than emitted as sentinels.
std::string writeDiagnosticsJson(const LintResult &Result);

} // namespace spike

#endif // SPIKE_LINT_JSONWRITER_H
