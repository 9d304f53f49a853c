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
#include <memory>

#include "isa/reg.hpp"
#include "ssr/ssr_lane.hpp"

namespace saris {

class SsrUnit {
 public:
  SsrUnit(Tcdm& tcdm, u32 core_id);

  SsrLane& lane(u32 i);
  const SsrLane& lane(u32 i) const;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on);

  bool any_busy() const;

  /// Cheap activity flag: when true, collect() and tick() are no-ops until
  /// the integer core launches a stream (or the FPU pushes into a write
  /// lane) — callers may skip them.
  bool quiescent() const;

  /// Phase 1 each cycle: absorb data + index responses.
  void collect(Cycle now);
  /// Phase 2 each cycle: issue new requests (data per lane, one shared
  /// index fetch).
  void tick(Cycle now);

  u64 total_elems_streamed() const;
  u64 total_idx_words_fetched() const;

  /// Back to power-on: every lane reset, streaming disabled, index-port
  /// round-robin and in-flight state cleared. Cluster re-arm path.
  void reset();

 private:
  Tcdm& tcdm_;
  std::array<std::unique_ptr<SsrLane>, kNumSsrLanes> lanes_;
  u32 idx_port_;
  bool enabled_ = false;
  // Which lane the in-flight index word belongs to; kNumSsrLanes = none.
  u32 idx_inflight_lane_;
  u32 idx_rr_ = 0;
};

}  // namespace saris
