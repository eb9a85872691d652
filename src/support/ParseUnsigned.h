//===- support/ParseUnsigned.h - Strict unsigned parsing ------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_PARSEUNSIGNED_H
#define SPIKE_SUPPORT_PARSEUNSIGNED_H

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace spike {

/// Parses all of \p Text as a number in [0, 2^64 - 1]: decimal digits,
/// or "0x" and hex digits when \p AllowHex.  Anything else (an empty
/// string, a sign, a space, a trailing character, a value out of range)
/// gives nullopt, where strtoull would skip, negate, wrap or read a
/// leading zero as octal.
inline std::optional<uint64_t> parseUnsignedStrict(std::string_view Text,
                                                   bool AllowHex = false) {
  int Base = 10;
  if (AllowHex && Text.starts_with("0x")) {
    Text.remove_prefix(2);
    Base = 16;
  }
  uint64_t Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Err] = std::from_chars(Text.data(), End, Value, Base);
  if (Text.empty() || Err != std::errc() || Stop != End)
    return std::nullopt;
  return Value;
}

} // namespace spike

#endif // SPIKE_SUPPORT_PARSEUNSIGNED_H
