#include "ssr/ssr_lane.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace saris {

SsrLane::SsrLane(Tcdm& tcdm, u32 lane_id)
    : tcdm_(tcdm),
      lane_id_(lane_id),
      data_port_(tcdm.make_port("ssr" + std::to_string(lane_id))) {}

bool SsrLane::busy() const {
  return kind_ != SsrStreamKind::kNone && to_consume_ > 0;
}

bool SsrLane::write_cfg(u32 word, u32 value) {
  SARIS_CHECK(!busy(), "scfgwi to busy SSR lane " << lane_id_
                                                  << " (core must stall)");
  const ScfgEffect e = apply_scfg_word(cfg_, ScfgSel{lane_id_, word}, value);
  SARIS_CHECK(e.status == ScfgStatus::kOk,
              "lane " << lane_id_ << ": " << scfg_status_text(e.status)
                      << " (word " << word << ", value " << value << ")");
  if (e.launch == SsrStreamKind::kNone) return false;
  launch(e.launch, value);
  return true;
}

void SsrLane::launch(SsrStreamKind kind, Addr base) {
  SARIS_CHECK(rfifo_.empty() && wfifo_.empty() && pending_gather_.empty() &&
                  inflight_data_ == 0 && !idx_req_inflight_,
              "launch on lane " << lane_id_ << " with residual state");
  kind_ = kind;
  switch (kind) {
    case SsrStreamKind::kAffineRead: {
      affine_.start(cfg_, base);
      to_fetch_ = to_consume_ = cfg_.affine_elems();
      break;
    }
    case SsrStreamKind::kAffineWrite: {
      affine_.start(cfg_, base);
      to_consume_ = cfg_.affine_elems();
      to_fetch_ = 0;
      break;
    }
    case SsrStreamKind::kIndirectRead: {
      indir_base_ = base;
      idx_fetch_addr_ = cfg_.idx_base;
      idx_to_fetch_ = cfg_.idx_count;
      idx_per_word_ = kWordBytes / cfg_.idx_size;
      to_fetch_ = to_consume_ = cfg_.idx_count;
      break;
    }
    case SsrStreamKind::kNone:
      SARIS_CHECK(false, "launch(kNone)");
  }
}

bool SsrLane::can_reserve_push() const {
  return is_write_stream() && wfifo_.size() + reserved_ < wfifo_.capacity();
}

void SsrLane::reserve_push() {
  SARIS_CHECK(can_reserve_push(), "reserve on full SSR write lane");
  ++reserved_;
}

void SsrLane::push(double v) {
  SARIS_CHECK(reserved_ > 0, "push without reservation on lane " << lane_id_);
  --reserved_;
  wfifo_.push(v);
}

void SsrLane::index_word_sent() {
  SARIS_CHECK(!idx_req_inflight_, "double index request");
  idx_req_inflight_ = true;
}

void SsrLane::deliver_index_word(u64 word) {
  SARIS_CHECK(idx_req_inflight_, "unexpected index word");
  idx_req_inflight_ = false;
  ++idx_words_fetched_;
  // The word may start mid-way if idx_base is not 8B-aligned; our layouts
  // always align index arrays, so decode from bit 0. apply_scfg_word admits
  // only 1-, 2- and 4-byte indices, so the mask never needs all 64 bits.
  const u32 n = static_cast<u32>(std::min<u64>(idx_per_word_, idx_to_fetch_));
  const u32 bits = 8 * cfg_.idx_size;
  const u64 mask = (1ull << bits) - 1;
  for (u32 k = 0; k < n; ++k) {
    const u64 idx = (word >> (bits * k)) & mask;
    Addr a = indir_base_ + static_cast<Addr>(idx * kWordBytes);
    pending_gather_.push(a);
  }
  idx_to_fetch_ -= n;
  idx_fetch_addr_ += kWordBytes;
}

}  // namespace saris
