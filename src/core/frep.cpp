#include "core/frep.hpp"

#include <algorithm>

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
  // The first iteration goes through the fetch path.
  ops_left_ = (reps - 1) * body_len;
  copies_ = static_cast<u32>(std::min<u64>(stagger, reps));
  buf_.reserve(copies_ * body_len);
  cur_ = copies_ > 1 ? body_len : 0;  // iteration 1 replays copy 1 % copies_
  stagger_base_ = stagger_base;
}

void FrepSequencer::capture(const FpOp& q) {
  SARIS_CHECK(capturing(), "capture while not capturing");
  SARIS_CHECK(op_desc(q.op).frep_body,
              "frep body must be FP compute instructions");
  buf_.push_back(q);
  if (--to_capture_ == 0) stagger_copies();
}

void FrepSequencer::stagger_copies() {
  const u32 len = static_cast<u32>(buf_.size());
  for (u32 off = 1; off < copies_; ++off) {
    for (u32 pos = 0; pos < len; ++pos) {
      buf_.push_back(buf_[pos]);  // reserved in start(): no reallocation
      SARIS_CHECK(stagger_rotate(buf_.back(), stagger_base_, off),
                  "stagger past f31");
    }
  }
}

}  // namespace saris
