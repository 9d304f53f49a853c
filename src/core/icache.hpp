// Small set-associative instruction-cache model (per core, LRU).
//
// Kernels are short loops, so after a cold first pass nearly everything
// hits; the model exists because the paper lists instruction-cache misses
// among the residual saris inefficiencies and because large unrolled
// baseline bodies can exceed a way.
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
  u32 access(u32 byte_addr);

  /// Back to power-on: all lines invalid, hit/miss counters zero. Part of
  /// the cluster re-arm contract — a re-armed core must pay the same cold
  /// misses a freshly constructed one would.
  void reset();

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u32 miss_latency() const { return miss_latency_; }

 private:
  struct Way {
    bool valid = false;
    u32 tag = 0;
    u64 lru = 0;
  };

  u32 num_sets_;
  u32 assoc_;
  u32 miss_latency_;
  u32 line_shift_;  ///< log2(line bytes)
  u32 set_shift_;   ///< log2(num_sets)
  u64 tick_ = 0;
  std::vector<Way> ways_;  ///< num_sets_ * assoc_
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace saris
