//===- support/ParseDecimal.h - Strict integer flag values ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the value of an integer command-line flag: decimal digits only
/// (no sign, space or suffix), within a stated range.  strtoul would
/// read "abc" as 0, "12abc" as 12 and "-1" as the type's maximum, so a
/// typo could become a thread count.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SUPPORT_PARSEDECIMAL_H
#define SLDB_SUPPORT_PARSEDECIMAL_H

#include <charconv>
#include <limits>
#include <string_view>

namespace sldb {

/// Parses \p S into \p Out when it is an unsigned decimal integer in
/// [\p Min, \p Max]; otherwise returns false and leaves \p Out alone.
template <typename T>
bool parseDecimal(std::string_view S, T &Out, T Min = 0,
                  T Max = std::numeric_limits<T>::max()) {
  T V{};
  auto [End, Err] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (Err != std::errc() || End != S.data() + S.size() || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace sldb

#endif // SLDB_SUPPORT_PARSEDECIMAL_H
