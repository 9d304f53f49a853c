#include "ssr/ssr_lane.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace saris {

namespace {
double bits_to_f64(u64 bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}
u64 f64_to_bits(double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}
}  // namespace

SsrLane::SsrLane(Tcdm& tcdm, u32 lane_id)
    : tcdm_(tcdm),
      lane_id_(lane_id),
      data_port_(tcdm.make_port("ssr" + std::to_string(lane_id))),
      rfifo_(kSsrFifoDepth),
      pending_gather_(kSsrIdxQueueDepth),
      wfifo_(kSsrFifoDepth) {}

bool SsrLane::busy() const {
  return kind_ != SsrStreamKind::kNone && to_consume_ > 0;
}

void SsrLane::write_cfg(u32 word, u32 value) {
  SARIS_CHECK(!busy(), "scfgwi to busy SSR lane " << lane_id_
                                                  << " (core must stall)");
  const ScfgEffect e = apply_scfg_word(cfg_, ScfgSel{lane_id_, word}, value);
  SARIS_CHECK(e.status == ScfgStatus::kOk,
              "lane " << lane_id_ << ": " << scfg_status_text(e.status)
                      << " (word " << word << ", value " << value << ")");
  if (e.launch != SsrStreamKind::kNone) launch(e.launch, value);
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
      to_fetch_ = to_consume_ = cfg_.idx_count;
      break;
    }
    case SsrStreamKind::kNone:
      SARIS_CHECK(false, "launch(kNone)");
  }
}

bool SsrLane::can_pop() const { return is_read_stream() && !rfifo_.empty(); }

double SsrLane::pop() {
  SARIS_CHECK(can_pop(), "pop on empty SSR lane " << lane_id_);
  SARIS_CHECK(to_consume_ > 0, "pop past end of stream");
  --to_consume_;
  ++elems_streamed_;
  return rfifo_.pop();
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

void SsrLane::collect(Cycle /*now*/) {
  if (inflight_data_ > 0 && tcdm_.response_ready(data_port_)) {
    u64 data = tcdm_.take_response(data_port_);
    --inflight_data_;
    if (is_read_stream()) {
      rfifo_.push(bits_to_f64(data));
    } else {
      // Write acknowledged: one element drained to memory.
      SARIS_CHECK(to_consume_ > 0, "write ack past end of stream");
      --to_consume_;
      ++elems_streamed_;
    }
  }
}

void SsrLane::tick(Cycle /*now*/) {
  switch (kind_) {
    case SsrStreamKind::kNone:
      return;
    case SsrStreamKind::kAffineRead: {
      if (to_fetch_ > 0 && tcdm_.port_idle(data_port_) &&
          rfifo_.size() + inflight_data_ < rfifo_.capacity()) {
        Addr a = affine_.next();
        tcdm_.post(data_port_, a, kWordBytes, /*is_write=*/false, 0);
        ++inflight_data_;
        --to_fetch_;
      }
      break;
    }
    case SsrStreamKind::kIndirectRead: {
      if (to_fetch_ > 0 && !pending_gather_.empty() &&
          tcdm_.port_idle(data_port_) &&
          rfifo_.size() + inflight_data_ < rfifo_.capacity()) {
        Addr a = pending_gather_.pop();
        tcdm_.post(data_port_, a, kWordBytes, /*is_write=*/false, 0);
        ++inflight_data_;
        --to_fetch_;
      }
      break;
    }
    case SsrStreamKind::kAffineWrite: {
      if (!wfifo_.empty() && tcdm_.port_idle(data_port_) &&
          inflight_data_ == 0) {
        double v = wfifo_.pop();
        Addr a = affine_.next();
        tcdm_.post(data_port_, a, kWordBytes, /*is_write=*/true,
                   f64_to_bits(v));
        ++inflight_data_;
      }
      break;
    }
  }
}

bool SsrLane::wants_index_word(Addr* addr_out) const {
  if (kind_ != SsrStreamKind::kIndirectRead) return false;
  if (idx_to_fetch_ == 0 || idx_req_inflight_) return false;
  u32 per_word = kWordBytes / cfg_.idx_size;
  if (pending_gather_.space() < per_word) return false;
  *addr_out = idx_fetch_addr_;
  return true;
}

void SsrLane::index_word_sent() {
  SARIS_CHECK(!idx_req_inflight_, "double index request");
  idx_req_inflight_ = true;
}

void SsrLane::deliver_index_word(u64 word) {
  SARIS_CHECK(idx_req_inflight_, "unexpected index word");
  idx_req_inflight_ = false;
  ++idx_words_fetched_;
  u32 per_word = kWordBytes / cfg_.idx_size;
  // The word may start mid-way if idx_base is not 8B-aligned; our layouts
  // always align index arrays, so decode from bit 0.
  u32 n = static_cast<u32>(
      std::min<u64>(per_word, idx_to_fetch_));
  for (u32 k = 0; k < n; ++k) {
    u64 mask = (cfg_.idx_size == 8) ? ~0ull
                                    : ((1ull << (8 * cfg_.idx_size)) - 1);
    u64 idx = (word >> (8 * cfg_.idx_size * k)) & mask;
    Addr a = indir_base_ + static_cast<Addr>(idx * kWordBytes);
    pending_gather_.push(a);
  }
  idx_to_fetch_ -= n;
  idx_fetch_addr_ += kWordBytes;
}

void SsrLane::reset() {
  cfg_ = SsrLaneConfig{};
  kind_ = SsrStreamKind::kNone;
  affine_ = AffineAddrGen{};
  rfifo_.clear();
  to_fetch_ = 0;
  to_consume_ = 0;
  inflight_data_ = 0;
  indir_base_ = 0;
  idx_fetch_addr_ = 0;
  idx_to_fetch_ = 0;
  idx_req_inflight_ = false;
  pending_gather_.clear();
  wfifo_.clear();
  reserved_ = 0;
  elems_streamed_ = 0;
  idx_words_fetched_ = 0;
}

}  // namespace saris
