#include "core/icache.hpp"

#include <bit>

#include "common/log.hpp"

namespace saris {

ICache::ICache(u32 num_sets, u32 assoc, u32 line_bytes, u32 miss_latency)
    : num_sets_(num_sets),
      assoc_(assoc),
      miss_latency_(miss_latency),
      line_shift_(static_cast<u32>(std::countr_zero(line_bytes))),
      set_shift_(static_cast<u32>(std::countr_zero(num_sets))),
      ways_(num_sets * assoc) {
  SARIS_CHECK(num_sets > 0 && assoc > 0 && line_bytes >= 4,
              "bad icache geometry");
  SARIS_CHECK((num_sets & (num_sets - 1)) == 0, "sets must be a power of 2");
  SARIS_CHECK((line_bytes & (line_bytes - 1)) == 0,
              "line size must be a power of 2");
}

u32 ICache::lookup(u32 line) {
  ++tick_;
  last_line_ = line;
  const u32 set = line & (num_sets_ - 1);
  const u32 tag = line >> set_shift_;
  Way* base = &ways_[set * assoc_];
  // Hit?
  for (u32 w = 0; w < assoc_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lru = tick_;
      ++hits_;
      return 0;
    }
  }
  // Miss: fill LRU way.
  ++misses_;
  Way* victim = &base[0];
  for (u32 w = 1; w < assoc_; ++w) {
    if (!base[w].valid || base[w].lru < victim->lru) victim = &base[w];
    if (!victim->valid) break;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  return miss_latency_;
}

}  // namespace saris
