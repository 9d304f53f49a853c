// FREP hardware-loop sequencer.
//
// `frep reps, body_len` makes the next `body_len` offloaded FP instructions
// replay `reps` times in total. The first pass flows through the normal
// fetch path (and is captured into the sequence buffer); the remaining
// `reps-1` iterations are injected straight into the FPU queue while the
// integer core runs ahead — Snitch's pseudo-dual-issue.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/instr.hpp"

namespace saris {

/// Register staggering of one replayed body instruction: every FP register
/// field at or above `base` moves up by `off` (unused fields sit at f0, below
/// any base the code generators emit). False when a field passes f31.
inline bool stagger_rotate(Instr& in, u32 base, u32 off) {
  bool in_range = true;
  for (FReg* r : {&in.frd, &in.frs1, &in.frs2, &in.frs3}) {
    if (r->idx < base) continue;
    in_range = in_range && r->idx + off < kNumFRegs;
    r->idx = static_cast<u8>(r->idx + off);
  }
  return in_range;
}

class FrepSequencer {
 public:
  /// Begin capturing `body_len` instructions; `reps` total iterations.
  /// `stagger` > 1 enables register staggering (Snitch frep stagger): on
  /// replay iteration k, FP register operands with index >= `stagger_base`
  /// are offset by k % stagger — hardware register rotation that removes
  /// cross-iteration WAW/RAW hazards without growing the body.
  void start(u64 reps, u32 body_len, u32 stagger = 1, u32 stagger_base = 32);

  bool capturing() const { return to_capture_ > 0; }
  /// Replay phase active (injecting instructions into the FPU queue)?
  bool replaying() const { return !capturing() && reps_left_ > 0; }
  bool busy() const { return capturing() || replaying(); }

  /// Capture one fetched FP body instruction (first iteration).
  void capture(const Instr& in);

  /// During replay: next instruction to inject, if any.
  bool has_next() const { return replaying(); }
  Instr next();

  /// Back to power-on (no capture, no replay, empty buffer) — the cluster
  /// re-arm path; a drained sequencer resets to exactly this state anyway.
  void reset();

 private:
  std::vector<Instr> buf_;
  u32 to_capture_ = 0;
  u64 reps_left_ = 0;  ///< full iterations still to inject
  u32 pos_ = 0;
  u32 stagger_ = 1;
  u32 stagger_base_ = 32;
  u32 stagger_off_ = 0;  ///< replay iteration mod stagger_ (fetch pass = 0)
};

}  // namespace saris
