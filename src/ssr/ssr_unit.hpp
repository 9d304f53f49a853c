// Per-core SSR streamer: three lanes (two indirect-capable + one affine)
// plus the shared index-fetch port used by indirect streams.
//
// The index port models the SSSR streamer's dedicated index channel: packed
// indices (default 16-bit, four per TCDM word) are fetched through one port
// shared round-robin between the indirect lanes, so index traffic costs a
// quarter of data traffic and indirect streams can sustain close to one
// element per lane per cycle.
#pragma once

#include <array>

#include "common/log.hpp"
#include "isa/reg.hpp"
#include "ssr/ssr_lane.hpp"

namespace saris {

class SsrUnit {
 public:
  SsrUnit(Tcdm& tcdm, u32 core_id);

  SsrLane& lane(u32 i) {
    SARIS_CHECK(i < kNumSsrLanes, "bad lane " << i);
    return lanes_[i];
  }
  const SsrLane& lane(u32 i) const {
    SARIS_CHECK(i < kNumSsrLanes, "bad lane " << i);
    return lanes_[i];
  }

  /// Apply one config word to lane `lane` (scfgwi); a launch word starts
  /// its stream, and then this returns true. This is the only launch path,
  /// so the unit knows when its lanes first leave SsrStreamKind::kNone.
  /// Aborts on a busy lane or a bad write.
  bool write_cfg(u32 lane, u32 word, u32 value);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on);

  bool any_busy() const;

  /// Phase 1 each cycle: absorb data + index responses.
  void collect(Cycle now) {
    if (!launched_) return;
    for (SsrLane& l : lanes_) l.collect(now);
    if (idx_inflight_lane_ < kNumSsrLanes && tcdm_.response_ready(idx_port_)) {
      lanes_[idx_inflight_lane_].deliver_index_word(
          tcdm_.take_response(idx_port_));
      idx_inflight_lane_ = kNumSsrLanes;
    }
  }
  /// Phase 2 each cycle: issue new requests (data per lane, one shared
  /// index fetch).
  void tick(Cycle now) {
    if (!launched_) return;
    issue_index_fetch();
    for (SsrLane& l : lanes_) l.tick(now);
  }

  u64 total_elems_streamed() const;
  u64 total_idx_words_fetched() const;

 private:
  void issue_index_fetch();

  Tcdm& tcdm_;
  // Registered before the lanes' data ports: port ids fix the TCDM's
  // round-robin order, which is part of the timing contract.
  u32 idx_port_;
  std::array<SsrLane, kNumSsrLanes> lanes_;
  bool enabled_ = false;
  /// A lane has launched a stream since power-on. Until then every lane is
  /// SsrStreamKind::kNone (a lane leaves it only at launch and never returns
  /// to it) and no index word is in flight, so collect() and tick() have
  /// nothing to do. Base kernels never set it.
  bool launched_ = false;
  // Which lane the in-flight index word belongs to; kNumSsrLanes = none.
  u32 idx_inflight_lane_ = kNumSsrLanes;
  u32 idx_rr_ = 0;
};

inline void SsrUnit::issue_index_fetch() {
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

}  // namespace saris
