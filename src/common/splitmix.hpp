// splitmix64 (Steele, Lea and Flood): the one seeded generator of the
// simulator, its benches and its tests. A draw is a pure function of the
// evolving state word, with no hidden global state, so a seed replays.
#pragma once

#include "common/types.hpp"

namespace saris {

/// The splitmix64 output finalizer: a bijective avalanche mix.
constexpr u64 mix64(u64 z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The next draw: advance `state` by the golden-ratio increment, then mix.
constexpr u64 splitmix64(u64& state) {
  state += 0x9E3779B97F4A7C15ull;
  return mix64(state);
}

}  // namespace saris
