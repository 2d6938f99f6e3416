#pragma once
/// \file parse_number.hpp
/// Strict text-to-number parsing, shared by every wire format, journal and
/// command line. The parser takes the whole text or nothing: no leading or
/// trailing bytes, no whitespace, no '+', no value outside the target type.
/// The caller turns nullopt into its own error (a CheckError naming the line,
/// an ERR reply, a usage message).

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace emutile {

/// `T` an integer type: decimal digits, after a '-' only when `T` is signed,
/// with a value that fits in `T`. `T` a floating type: a finite decimal real
/// (`1`, `0.05`, `2.5e-3`).
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace emutile
