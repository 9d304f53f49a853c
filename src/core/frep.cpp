#include "core/frep.hpp"

#include "common/log.hpp"

namespace saris {

void FrepSequencer::start(u64 reps, u32 body_len, u32 stagger,
                          u32 stagger_base) {
  SARIS_CHECK(!busy(), "frep while sequencer busy (core must stall)");
  SARIS_CHECK(reps >= 1, "frep with zero repetitions");
  SARIS_CHECK(frep_body_len_ok(body_len),
              "frep body length " << body_len << " exceeds buffer of "
                                  << kFrepBufferDepth);
  SARIS_CHECK(frep_stagger_ok(stagger), "bad frep stagger " << stagger);
  buf_.clear();
  to_capture_ = body_len;
  reps_left_ = reps - 1;  // first iteration goes through the fetch path
  pos_ = 0;
  stagger_ = stagger;
  stagger_base_ = stagger_base;
  stagger_off_ = 1 % stagger;  // the fetch pass was iteration 0
}

void FrepSequencer::capture(const FpOp& q) {
  SARIS_CHECK(capturing(), "capture while not capturing");
  SARIS_CHECK(op_desc(q.op).frep_body,
              "frep body must be FP compute instructions");
  buf_.push_back(q);
  --to_capture_;
}

void FrepSequencer::next(FpOp& slot) {
  SARIS_CHECK(replaying(), "next() while not replaying");
  slot = buf_[pos_];
  if (stagger_ > 1) {
    const bool in_range = stagger_rotate(slot, stagger_base_, stagger_off_);
    SARIS_CHECK(in_range, "stagger past f31");
  }
  ++pos_;
  if (pos_ == buf_.size()) {
    pos_ = 0;
    --reps_left_;
    if (++stagger_off_ == stagger_) stagger_off_ = 0;
  }
}

}  // namespace saris
