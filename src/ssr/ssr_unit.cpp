#include "ssr/ssr_unit.hpp"

#include "common/log.hpp"

namespace saris {

SsrUnit::SsrUnit(Tcdm& tcdm, u32 core_id)
    : tcdm_(tcdm),
      idx_port_(tcdm.make_port("idx" + std::to_string(core_id))),
      idx_inflight_lane_(kNumSsrLanes) {
  for (u32 i = 0; i < kNumSsrLanes; ++i) {
    lanes_[i] = std::make_unique<SsrLane>(tcdm, i);
  }
}

SsrLane& SsrUnit::lane(u32 i) {
  SARIS_CHECK(i < kNumSsrLanes, "bad lane " << i);
  return *lanes_[i];
}

const SsrLane& SsrUnit::lane(u32 i) const {
  SARIS_CHECK(i < kNumSsrLanes, "bad lane " << i);
  return *lanes_[i];
}

void SsrUnit::set_enabled(bool on) {
  if (!on) {
    SARIS_CHECK(!any_busy(), "SSR disable while a stream is busy");
  }
  enabled_ = on;
}

bool SsrUnit::any_busy() const {
  for (const auto& l : lanes_) {
    if (l->busy()) return true;
  }
  return false;
}

bool SsrUnit::quiescent() const {
  if (idx_inflight_lane_ < kNumSsrLanes) return false;
  for (const auto& l : lanes_) {
    if (!l->quiescent()) return false;
  }
  return true;
}

void SsrUnit::collect(Cycle now) {
  for (auto& l : lanes_) l->collect(now);
  if (idx_inflight_lane_ < kNumSsrLanes && tcdm_.response_ready(idx_port_)) {
    u64 word = tcdm_.take_response(idx_port_);
    lanes_[idx_inflight_lane_]->deliver_index_word(word);
    idx_inflight_lane_ = kNumSsrLanes;
  }
}

void SsrUnit::tick(Cycle now) {
  // One shared index fetch per cycle, round-robin between the indirect-
  // capable lanes only — the affine lane can never want an index word.
  if (idx_inflight_lane_ == kNumSsrLanes && tcdm_.port_idle(idx_port_)) {
    for (u32 k = 0; k < kNumIndirectSsrLanes; ++k) {
      u32 cand = (idx_rr_ + k) % kNumIndirectSsrLanes;
      Addr addr = 0;
      if (lanes_[cand]->wants_index_word(&addr)) {
        // Index fetches are 64-bit word reads; align down (layouts align
        // index arrays to 8 B, so this is exact).
        tcdm_.post(idx_port_, addr & ~static_cast<Addr>(7), kWordBytes,
                   /*is_write=*/false, 0);
        lanes_[cand]->index_word_sent();
        idx_inflight_lane_ = cand;
        idx_rr_ = (cand + 1) % kNumIndirectSsrLanes;
        break;
      }
    }
  }
  for (auto& l : lanes_) l->tick(now);
}

u64 SsrUnit::total_elems_streamed() const {
  u64 n = 0;
  for (const auto& l : lanes_) n += l->elems_streamed();
  return n;
}

u64 SsrUnit::total_idx_words_fetched() const {
  u64 n = 0;
  for (const auto& l : lanes_) n += l->idx_words_fetched();
  return n;
}

void SsrUnit::reset() {
  for (auto& l : lanes_) l->reset();
  enabled_ = false;
  idx_inflight_lane_ = kNumSsrLanes;
  idx_rr_ = 0;
}

}  // namespace saris
