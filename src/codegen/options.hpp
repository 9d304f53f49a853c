// Tunables of the code generators, exposed for ablation benches, and the
// two compile-time analysis switches. Defaults reproduce the paper's
// configuration ("unroll up to four-fold iff beneficial", FREP where
// possible, reassociation, coefficient streaming for register-bound codes)
// with the verifier on and the cost pass off. compile_kernel's arguments,
// these options among them, alone decide its artifact, so the plan cache
// can key on them.
#pragma once

#include "common/types.hpp"

namespace saris {

struct CodegenOptions {
  u32 unroll = 0;          ///< 0 = auto (paper heuristic), else forced
  u32 chains = 0;          ///< accumulator chains; 0 = auto
  bool use_frep = true;    ///< saris: allow FREP hardware loops
  i32 stream_coeffs = -1;  ///< saris: -1 auto, 0 never, 1 force
  /// Static kernel verifier at compile time. Part of the plan-cache key so
  /// a cached artifact always carries the verdict it was compiled with.
  bool verify = true;
  /// Static cost pass + performance linter at compile time. Results land in
  /// VerifyReport::cost; lint findings are advisory and never fail a
  /// compile.
  bool analyze_cost = false;

  /// Canonical equality/hash over every tunable. The plan cache keys
  /// compiled kernels on this, so any new field added above MUST take part
  /// in both (the defaulted == does so automatically; extend hash() too).
  bool operator==(const CodegenOptions&) const = default;

  /// FNV-1a over the tunables; collision-safe use pairs it with ==.
  u64 hash() const {
    u64 h = 14695981039346656037ull;
    auto mix = [&h](u64 v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(unroll);
    mix(chains);
    mix(use_frep ? 1 : 0);
    mix(static_cast<u64>(static_cast<i64>(stream_coeffs)));
    mix(verify ? 1 : 0);
    mix(analyze_cost ? 1 : 0);
    return h;
  }
};

}  // namespace saris
