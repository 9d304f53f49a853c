#include "ssr/ssr_unit.hpp"

namespace saris {

static_assert(kNumSsrLanes == 3, "SsrUnit constructs exactly three lanes");

SsrUnit::SsrUnit(Tcdm& tcdm, u32 core_id)
    : tcdm_(tcdm),
      idx_port_(tcdm.make_port("idx" + std::to_string(core_id))),
      lanes_{SsrLane(tcdm, core_id, 0), SsrLane(tcdm, core_id, 1),
             SsrLane(tcdm, core_id, 2)} {}

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
