#include "ssr/ssr_unit.hpp"

namespace saris {

static_assert(kNumSsrLanes == 3, "SsrUnit constructs exactly three lanes");

SsrUnit::SsrUnit(Tcdm& tcdm, u32 core_id)
    : tcdm_(tcdm),
      idx_port_(tcdm.make_port("idx" + std::to_string(core_id))),
      lanes_{SsrLane(tcdm, 0), SsrLane(tcdm, 1), SsrLane(tcdm, 2)} {}

bool SsrUnit::write_cfg(u32 lane_id, u32 word, u32 value) {
  const bool launch = lane(lane_id).write_cfg(word, value);
  launched_ = launch || launched_;
  return launch;
}

void SsrUnit::set_enabled(bool on) {
  if (!on) {
    SARIS_CHECK(!any_busy(), "SSR disable while a stream is busy");
  }
  enabled_ = on;
}

bool SsrUnit::any_busy() const {
  for (const SsrLane& l : lanes_) {
    if (l.busy()) return true;
  }
  return false;
}

void SsrUnit::issue_index_fetch() {
  // One shared index fetch per cycle, round-robin between the indirect-
  // capable lanes only — the affine lane can never want an index word.
  if (idx_inflight_lane_ != kNumSsrLanes) return;
  for (u32 k = 0; k < kNumIndirectSsrLanes; ++k) {
    const u32 cand = (idx_rr_ + k) % kNumIndirectSsrLanes;
    Addr addr = 0;
    if (lanes_[cand].wants_index_word(&addr)) {
      // Index fetches are 64-bit word reads; align down (layouts align
      // index arrays to 8 B, so this is exact).
      tcdm_.post(idx_port_, addr & ~static_cast<Addr>(7), kWordBytes,
                 /*is_write=*/false, 0);
      lanes_[cand].index_word_sent();
      idx_inflight_lane_ = cand;
      idx_rr_ = (cand + 1) % kNumIndirectSsrLanes;
      return;
    }
  }
}

u64 SsrUnit::total_elems_streamed() const {
  u64 n = 0;
  for (const SsrLane& l : lanes_) n += l.elems_streamed();
  return n;
}

u64 SsrUnit::total_idx_words_fetched() const {
  u64 n = 0;
  for (const SsrLane& l : lanes_) n += l.idx_words_fetched();
  return n;
}

}  // namespace saris
