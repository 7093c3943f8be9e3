// Strict integer command-line flags, shared by the tools: the whole token
// must be a base-10 integer inside the flag's range, so "2x" or "abc" is a
// usage error rather than the 2 or 0 that atoi would read.
#pragma once

#include <charconv>
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

}  // namespace sdem::tools
