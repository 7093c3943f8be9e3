// Strict numeric command-line arguments, shared by the tools: the whole
// token must be a base-10 integer inside the flag's range, or a finite
// number > 0, so "2x" or "abc" is a usage error rather than the 2 or 0 that
// atoi or atof would read.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

namespace sdem::tools {

/// The value of integer flag `flag`: the whole token must be a base-10
/// integer in [lo, hi]. Otherwise the tool names the flag and its range on
/// stderr and exits with `usage()`, which prints the tool's usage and
/// returns its usage-error status.
template <typename T, typename Usage>
T int_flag(const char* flag, const char* token, T lo, T hi, Usage usage) {
  const char* end = token + std::strlen(token);
  T v = 0;
  const auto [ptr, ec] = std::from_chars(token, end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    std::fprintf(stderr, "%s needs an integer in [%s, %s], not \"%s\"\n",
                 flag, std::to_string(lo).c_str(), std::to_string(hi).c_str(),
                 token);
    std::exit(usage());
  }
  return v;
}

/// The value of real-valued argument `name` (a positional or a flag): the
/// whole token must be a finite number > 0, or the tool exits with
/// `usage()` as int_flag does.
template <typename Usage>
double positive_arg(const char* name, const char* token, Usage usage) {
  const char* end = token + std::strlen(token);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(token, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || !(v > 0.0)) {
    std::fprintf(stderr, "%s needs a finite number > 0, not \"%s\"\n", name,
                 token);
    std::exit(usage());
  }
  return v;
}

}  // namespace sdem::tools
