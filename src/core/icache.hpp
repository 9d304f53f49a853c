// Small set-associative instruction-cache model (per core, LRU).
//
// Kernels are short loops, so after a cold first pass nearly everything
// hits; the model exists because the paper lists instruction-cache misses
// among the residual saris inefficiencies and because large unrolled
// baseline bodies can exceed a way.
//
// Most fetches fall in the line looked up last (8 instructions per 32-byte
// line), so access() answers those with one inline compare and keeps the
// tag search out of line. The fast path leaves LRU exact without touching
// it: the last line looked up is its set's most recent way, and a repeat
// hit on it changes no way's rank, so every later victim choice is the
// same.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace saris {

class ICache {
 public:
  ICache(u32 num_sets = 16, u32 assoc = 2, u32 line_bytes = 32,
         u32 miss_latency = 10);

  /// Look up `byte_addr`; returns 0 on hit or the miss latency in cycles
  /// (the line is filled as a side effect).
  u32 access(u32 byte_addr) {
    const u32 line = byte_addr >> line_shift_;
    if (line == last_line_) {
      ++hits_;
      return 0;
    }
    return lookup(line);
  }

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u32 miss_latency() const { return miss_latency_; }

 private:
  struct Way {
    bool valid = false;
    u32 tag = 0;
    u64 lru = 0;
  };

  /// No line looked up since power-on; byte addresses shift to smaller
  /// line numbers.
  static constexpr u32 kNoLine = ~0u;

  /// Tag search, LRU update and fill for a line other than last_line_.
  u32 lookup(u32 line);

  u32 num_sets_;
  u32 assoc_;
  u32 miss_latency_;
  u32 line_shift_;  ///< log2(line bytes)
  u32 set_shift_;   ///< log2(num_sets)
  u64 tick_ = 0;
  u32 last_line_ = kNoLine;  ///< the line lookup() hit or filled last
  std::vector<Way> ways_;  ///< num_sets_ * assoc_
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace saris
