#pragma once
/// \file flag_number.hpp
/// Checked numeric flag values for the command-line tools: a value is the
/// whole argument, fits its type and respects its lower bound, so a typo
/// never reads as 0.

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "util/parse_number.hpp"

namespace emutile {

/// `text`, the value of `flag`, as a T no smaller than `lo`. Anything else
/// names the flag and the bad value on stderr, then exits with the status
/// `usage()` returns (it prints the tool's usage line).
template <class T, class Usage>
T flag_number(const std::string& flag, const char* text, T lo, Usage usage) {
  const auto value = parse_number<T>(text);
  if (!value || *value < lo) {
    std::cerr << flag << " wants a number";
    if (lo > std::numeric_limits<T>::lowest()) std::cerr << " >= " << lo;
    std::cerr << ", not '" << text << "'\n";
    std::exit(usage());
  }
  return *value;
}

}  // namespace emutile
