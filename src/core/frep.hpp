// FREP hardware-loop sequencer.
//
// `frep reps, body_len` makes the next `body_len` offloaded FP instructions
// replay `reps` times in total. The first pass flows through the normal
// fetch path, and the sequencer captures the decoded FPU queue entries
// (core/fp_op.hpp) it enqueued; the remaining `reps-1` iterations are
// injected straight into the FPU queue while the integer core runs ahead —
// Snitch's pseudo-dual-issue. When the capture completes, the sequencer
// staggers the body once for each register offset the replays will use, so
// a replay only copies its entry into the queue slot: nothing is re-decoded
// or re-staggered.
#pragma once

#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "core/fp_op.hpp"
#include "isa/instr.hpp"

namespace saris {

/// Register staggering of one FP register an op reads or writes: at or
/// above `base` it moves up by `off`. False when it passes f31. Both
/// stagger_rotate forms apply this rule and nothing else.
inline bool stagger_reg(FReg& r, u32 base, u32 off) {
  if (r.idx < base) return true;
  const u32 idx = r.idx + off;
  r.idx = static_cast<u8>(idx);
  return idx < kNumFRegs;
}

/// Staggering of one replayed body op, as its decoded queue entry: the
/// destination it writes and each source it reads. False when one passes
/// f31.
inline bool stagger_rotate(FpOp& q, u32 base, u32 off) {
  bool in_range = true;
  if (q.writes_dst()) in_range &= stagger_reg(q.dst, base, off);
  for (u32 k = 0; k < q.nsrc; ++k) {
    in_range &= stagger_reg(q.src[k], base, off);
  }
  return in_range;
}

/// The same staggering on an instruction (the CFG's FREP expansion): frd
/// if the op writes it and each frs slot it reads.
inline bool stagger_rotate(Instr& in, u32 base, u32 off) {
  const OpDesc& d = op_desc(in.op);
  bool in_range = true;
  if (d.f_write) in_range &= stagger_reg(in.frd, base, off);
  if (d.f_reads & kSlot1) in_range &= stagger_reg(in.frs1, base, off);
  if (d.f_reads & kSlot2) in_range &= stagger_reg(in.frs2, base, off);
  if (d.f_reads & kSlot3) in_range &= stagger_reg(in.frs3, base, off);
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
  bool replaying() const { return !capturing() && ops_left_ > 0; }
  bool busy() const { return capturing() || replaying(); }

  /// Capture the decoded entry of one fetched FP body instruction (first
  /// iteration). The body's last op also builds its staggered copies, and
  /// aborts if a register of one passes f31.
  void capture(const FpOp& q);

  /// Copy the next op, already staggered, into `slot`, a fresh FPU queue
  /// entry.
  void next(FpOp& slot);

 private:
  /// Append a copy of the captured body for each offset 1..copies_-1.
  void stagger_copies();

  /// The body staggered by offset 0, 1, ..., copies_-1, one after another.
  /// Iteration k replays copy k % stagger, and a replay reaches only
  /// min(stagger, reps) offsets, so no other copy is built.
  std::vector<FpOp> buf_;
  u32 to_capture_ = 0;
  u64 ops_left_ = 0;  ///< replayed ops still to inject
  u32 cur_ = 0;       ///< index in buf_ of the next op to inject
  u32 copies_ = 1;
  u32 stagger_base_ = 32;
};

inline void FrepSequencer::next(FpOp& slot) {
  SARIS_CHECK(replaying(), "next() while not replaying");
  slot = buf_[cur_];
  if (++cur_ == buf_.size()) cur_ = 0;
  --ops_left_;
}

}  // namespace saris
