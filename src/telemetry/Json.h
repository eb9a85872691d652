//===- telemetry/Json.h - Minimal JSON document reader --------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser and document model, enough to
/// read back the documents this project writes (RunReports, trace files,
/// lint output) for diffing, schema validation, and tests.  No
/// dependencies, no streaming, no unicode escapes beyond pass-through of
/// UTF-8 bytes (\uXXXX escapes decode the ASCII range only).
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TELEMETRY_JSON_H
#define SPIKE_TELEMETRY_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spike {
namespace telemetry {

/// One JSON value; arrays and objects own their children.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Items;                            ///< Array.
  std::vector<std::pair<std::string, JsonValue>> Members;  ///< Object.

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup (first match); null if absent or not an
  /// object.
  const JsonValue *find(std::string_view Name) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Key, Value] : Members)
      if (Key == Name)
        return &Value;
    return nullptr;
  }

  /// find() + kind check helpers; null on mismatch.
  const JsonValue *findObject(std::string_view Name) const {
    const JsonValue *V = find(Name);
    return V && V->isObject() ? V : nullptr;
  }
  const JsonValue *findArray(std::string_view Name) const {
    const JsonValue *V = find(Name);
    return V && V->isArray() ? V : nullptr;
  }

  /// Member \p Name as a number, or \p Default.
  double numberOr(std::string_view Name, double Default) const {
    const JsonValue *V = find(Name);
    return V && V->isNumber() ? V->Num : Default;
  }

  /// This value as an exact integer in [0, 2^53] (the range a double
  /// holds without rounding), or std::nullopt for anything else:
  /// non-numbers, fractions, negatives and larger magnitudes.
  std::optional<uint64_t> exactUint() const {
    if (K != Kind::Number || !(Num >= 0 && Num <= 9007199254740992.0))
      return std::nullopt;
    uint64_t V = uint64_t(Num);
    if (double(V) != Num)
      return std::nullopt;
    return V;
  }

  /// Member \p Name as a string, or \p Default.
  std::string stringOr(std::string_view Name, std::string Default) const {
    const JsonValue *V = find(Name);
    return V && V->isString() ? V->Str : std::move(Default);
  }
};

/// Parses \p Text as one JSON document (trailing whitespace allowed).
/// On failure returns std::nullopt and, if \p Error is non-null, a
/// message with the byte offset.
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Error = nullptr);

/// Reads and parses \p Path; I/O problems are reported like parse
/// errors.
std::optional<JsonValue> parseJsonFile(const std::string &Path,
                                       std::string *Error = nullptr);

/// Escapes \p S for a JSON string literal (the contents, not the
/// surrounding quotes).  The single authoritative escaper for every JSON
/// writer in the project: quotes, backslashes, and all control
/// characters (including \b and \f, which ad-hoc escapers tend to drop)
/// round-trip through parseJson() exactly.  Bytes >= 0x80 pass through
/// as UTF-8.
std::string jsonEscape(std::string_view S);

/// jsonEscape() wrapped in double quotes — a complete JSON string token.
inline std::string jsonQuote(std::string_view S) {
  return "\"" + jsonEscape(S) + "\"";
}

} // namespace telemetry
} // namespace spike

#endif // SPIKE_TELEMETRY_JSON_H
