// Generic worklist dataflow solver over the FREP-expanded CFG, plus the
// three instantiations the verifier uses:
//
//  - SSR stream-state (forward): per-lane {unconfigured, read, write} and the
//    SSR enable flag, used both for diagnostics (reads of never-launched
//    lanes deadlock the FPU) and to overlay stream semantics on register
//    use/def sets (a pop is not an architectural use; a push is not a def).
//  - Register liveness (backward) over both register files. It drives
//    dead-store detection and yields the core's register pressure (read by
//    lint's pressure rule and the plan-cache cell summary).
//  - Reaching definitions (forward), with a pseudo entry definition per
//    register; a use reached only by the entry definition is a
//    use-before-def. All real definitions of one register answer that
//    question alike, so each instruction's row is two bits per register:
//    some real definition reaches, and the entry definition reaches.
//
// The solver is deliberately instruction-granular: kernels are a few hundred
// virtual instructions, so block-level transfer composition would buy
// nothing.
//
// A solver problem P provides:
//   using Value = ...;
//   static constexpr bool kForward = ...;
//   Value boundary() const;  // entry value (forward) / exit value (backward)
//   Value init() const;      // optimistic bottom value
//   bool join(Value& into, const Value& from) const;  // true if changed
//   void transfer(u32 vi, const VirtInstr& in, Value& v) const;
#pragma once

#include <array>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/diagnostic.hpp"

namespace saris {

/// Bitset over both register files (bit i of `x` = xi, bit i of `f` = fi).
struct RegSet {
  u32 x = 0;
  u32 f = 0;

  void add_x(u8 i) {
    if (i != 0) x |= 1u << i;  // x0 is hardwired; never tracked
  }
  void add_f(u8 i) { f |= 1u << i; }
  bool has_x(u8 i) const { return (x >> i) & 1u; }
  bool empty() const { return x == 0 && f == 0; }

  RegSet& operator|=(const RegSet& o) {
    x |= o.x;
    f |= o.f;
    return *this;
  }
  /// Set difference (this minus o).
  RegSet minus(const RegSet& o) const { return RegSet{x & ~o.x, f & ~o.f}; }
  bool operator==(const RegSet&) const = default;
};

template <typename P>
struct DataflowResult {
  std::vector<typename P::Value> in;   ///< per virtual instruction
  std::vector<typename P::Value> out;  ///< per virtual instruction
};

template <typename P>
DataflowResult<P> solve(const Cfg& cfg, const P& prob) {
  const u32 n = cfg.size();
  DataflowResult<P> r;
  r.in.assign(n, prob.init());
  r.out.assign(n, prob.init());

  // Ring worklist: an instruction is queued at most once, so n slots
  // suffice. Seed in meet-order so the first sweep already propagates far.
  std::vector<u32> ring(n);
  std::vector<u8> queued(n, 1);
  for (u32 k = 0; k < n; ++k) ring[k] = P::kForward ? k : n - 1 - k;
  u32 head = 0;
  u32 count = n;
  auto enqueue = [&](u32 vi) {
    if (queued[vi]) return;
    queued[vi] = 1;
    const u32 tail = head + count;
    ring[tail < n ? tail : tail - n] = vi;
    ++count;
  };

  typename P::Value v = prob.init();  // the one scratch value
  while (count > 0) {
    const u32 vi = ring[head];
    head = head + 1 < n ? head + 1 : 0;
    --count;
    queued[vi] = 0;

    v = prob.init();
    if constexpr (P::kForward) {
      if (cfg.preds(vi).empty() || vi == 0) prob.join(v, prob.boundary());
      for (u32 p : cfg.preds(vi)) prob.join(v, r.out[p]);
      r.in[vi] = v;
      prob.transfer(vi, cfg.vinstrs()[vi], v);
      if (!(v == r.out[vi])) {
        r.out[vi] = v;
        for (u32 s : cfg.succs(vi)) enqueue(s);
      }
    } else {
      if (cfg.succs(vi).empty()) prob.join(v, prob.boundary());
      for (u32 s : cfg.succs(vi)) prob.join(v, r.in[s]);
      r.out[vi] = v;
      prob.transfer(vi, cfg.vinstrs()[vi], v);
      if (!(v == r.in[vi])) {
        r.in[vi] = v;
        for (u32 p : cfg.preds(vi)) enqueue(p);
      }
    }
  }
  return r;
}

// ---- SSR stream state ----

/// May-sets encoded as bitmasks; a singleton mask is a "definitely" fact.
struct SsrState {
  static constexpr u8 kOff = 1, kOn = 2;
  static constexpr u8 kUnconfigured = 1, kRead = 2, kWrite = 4;
  u8 enabled = 0;               ///< {kOff, kOn} mask
  std::array<u8, 3> lane{};     ///< {kUnconfigured, kRead, kWrite} masks
  bool operator==(const SsrState&) const = default;
};

struct SsrStateProblem {
  using Value = SsrState;
  static constexpr bool kForward = true;
  Value boundary() const {
    SsrState s;
    s.enabled = SsrState::kOff;
    s.lane = {SsrState::kUnconfigured, SsrState::kUnconfigured,
              SsrState::kUnconfigured};
    return s;
  }
  Value init() const { return SsrState{}; }
  bool join(Value& into, const Value& from) const {
    const SsrState before = into;
    into.enabled |= from.enabled;
    for (u32 l = 0; l < 3; ++l) into.lane[l] |= from.lane[l];
    return !(into == before);
  }
  void transfer(u32 /*vi*/, const VirtInstr& v, Value& s) const;
};

// ---- per-instruction use/def with the SSR overlay ----

struct UseDef {
  RegSet use;
  RegSet def;
  bool stream_push = false;  ///< FP result goes to a write-stream FIFO
};

/// Architectural use/def sets of one virtual instruction given the SSR
/// stream state on entry: reads of a definitely-enabled, definitely-read-
/// stream lane are pops (no register use); FP writes to a definitely-
/// enabled, definitely-write-stream lane are pushes (no register def).
UseDef use_def(const VirtInstr& v, const SsrState& before);

// ---- liveness ----

struct LivenessProblem {
  const std::vector<UseDef>& ud;  ///< per virtual instruction
  using Value = RegSet;
  static constexpr bool kForward = false;
  Value boundary() const { return RegSet{}; }
  Value init() const { return RegSet{}; }
  bool join(Value& into, const Value& from) const {
    const RegSet before = into;
    into |= from;
    return !(into == before);
  }
  /// in = use ∪ (out − def); on entry `v` holds the out-set.
  void transfer(u32 vi, const VirtInstr&, Value& v) const {
    RegSet t = v.minus(ud[vi].def);
    t |= ud[vi].use;
    v = t;
  }
};

/// Per-core register pressure: the peak number of simultaneously-live
/// registers and the pc where it occurs. A pc's live sets are the union
/// over its virtual (stagger-rotated) copies; live-in sets are scanned
/// before live-out sets, and the first strict maximum wins.
struct RegPressure {
  u32 max_live_x = 0;
  u32 max_live_f = 0;
  u32 at_pc_x = 0;
  u32 at_pc_f = 0;
};

/// Run the full dataflow stage on one core's CFG: SSR stream state, SSR
/// misuse diagnostics, liveness, dead stores, reaching definitions and
/// use-before-def. Returns the register pressure liveness yields.
/// `prog_size` is the original program size.
RegPressure analyze_dataflow(const Cfg& cfg, u32 prog_size,
                             std::vector<Diagnostic>& diags);

}  // namespace saris
