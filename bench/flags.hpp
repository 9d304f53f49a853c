// Strict flag-value parsing for the benches (same spirit as the
// SARIS_SWEEP_THREADS validation): garbage, trailing junk, overflow and a
// value below the flag's minimum print one line naming the flag and exit 2,
// instead of atoi-truncating into surprising cluster, tile or seed values.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/types.hpp"

namespace saris {

inline u32 parse_u32(const char* flag, const char* value, u32 min_value) {
  char* end = nullptr;
  errno = 0;
  unsigned long v = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      v > 0xFFFFFFFFull || v < min_value) {
    std::fprintf(stderr, "%s needs an integer >= %u, got \"%s\"\n", flag,
                 min_value, value);
    std::exit(2);
  }
  return static_cast<u32>(v);
}

inline u64 parse_u64(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s needs an integer, got \"%s\"\n", flag, value);
    std::exit(2);
  }
  return static_cast<u64>(v);
}

}  // namespace saris
