// One SSR lane: the hardware behind one stream-capable FP register.
//
// A read lane prefetches elements through its own TCDM port into a small
// data FIFO that the FPU pops when an instruction reads the mapped register.
// An indirect read lane first fetches packed indices (through a port shared
// between lanes — see SsrUnit), then gathers base + idx*8. A write lane
// accepts FPU results into a FIFO and drains them to affine addresses.
#pragma once

#include <bit>

#include "common/fixed_queue.hpp"
#include "common/log.hpp"
#include "mem/tcdm.hpp"
#include "ssr/addr_gen.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {

class SsrLane {
 public:
  /// Lanes below kNumIndirectSsrLanes are indirection-capable (Snitch
  /// SSSR); the rest are affine-only. `core_id` only names the data port
  /// (`ssr<lane>/core<core>`) in TCDM diagnostics.
  SsrLane(Tcdm& tcdm, u32 core_id, u32 lane_id);

  // ---- configuration (integer core, via scfgwi and SsrUnit::write_cfg) ----
  /// True while a stream is armed and not fully consumed/drained; config
  /// writes to a busy lane stall the integer core.
  bool busy() const;

  // ---- FPU-side interface ----
  bool is_read_stream() const {
    return kind_ == SsrStreamKind::kAffineRead ||
           kind_ == SsrStreamKind::kIndirectRead;
  }
  bool is_write_stream() const { return kind_ == SsrStreamKind::kAffineWrite; }
  /// Read stream: `n` elements available to pop this cycle?
  bool can_pop(u32 n = 1) const {
    return is_read_stream() && rfifo_.size() >= n;
  }
  double pop() {
    SARIS_CHECK(can_pop(), "pop on empty SSR lane " << lane_id_);
    SARIS_CHECK(to_consume_ > 0, "pop past end of stream");
    --to_consume_;
    ++elems_streamed_;
    return rfifo_.pop();
  }
  /// Write stream: room for one more result (accounting for in-flight FPU
  /// results that already reserved a slot)?
  bool can_reserve_push() const;
  void reserve_push();   ///< at FPU issue
  void push(double v);   ///< at FPU writeback (consumes one reservation)

  // ---- cycle behaviour ----
  /// Phase 1: absorb TCDM responses granted last cycle.
  void collect(Cycle /*now*/) {
    // A lane with nothing in flight has no response, so one poll suffices.
    if (!tcdm_.response_ready(data_port_)) return;
    const u64 data = tcdm_.take_response(data_port_);
    --inflight_data_;
    if (is_read_stream()) {
      rfifo_.push(std::bit_cast<double>(data));
    } else {
      // Write acknowledged: one element drained to memory.
      SARIS_CHECK(to_consume_ > 0, "write ack past end of stream");
      --to_consume_;
      ++elems_streamed_;
    }
  }

  /// Phase 2: issue new data requests / drain writes. Index words are
  /// delivered by the owning SsrUnit via deliver_index_word().
  void tick(Cycle /*now*/) {
    switch (kind_) {
      case SsrStreamKind::kNone:
        return;
      case SsrStreamKind::kAffineRead:
        if (to_fetch_ > 0 && inflight_data_ == 0 &&
            rfifo_.size() < rfifo_.capacity()) {
          tcdm_.post(data_port_, affine_.next(), kWordBytes,
                     /*is_write=*/false, 0);
          ++inflight_data_;
          --to_fetch_;
        }
        return;
      case SsrStreamKind::kIndirectRead:
        if (to_fetch_ > 0 && !pending_gather_.empty() &&
            inflight_data_ == 0 && rfifo_.size() < rfifo_.capacity()) {
          tcdm_.post(data_port_, pending_gather_.pop(), kWordBytes,
                     /*is_write=*/false, 0);
          ++inflight_data_;
          --to_fetch_;
        }
        return;
      case SsrStreamKind::kAffineWrite:
        if (!wfifo_.empty() && inflight_data_ == 0) {
          const double v = wfifo_.pop();
          tcdm_.post(data_port_, affine_.next(), kWordBytes,
                     /*is_write=*/true, std::bit_cast<u64>(v));
          ++inflight_data_;
        }
        return;
    }
  }

  /// Indirect support, driven by SsrUnit's shared index port:
  /// does this lane want an index-word fetch, and at which address?
  bool wants_index_word(Addr* addr_out) const {
    if (kind_ != SsrStreamKind::kIndirectRead) return false;
    if (idx_to_fetch_ == 0 || idx_req_inflight_) return false;
    if (pending_gather_.space() < idx_per_word_) return false;
    *addr_out = idx_fetch_addr_;
    return true;
  }
  void index_word_sent();                ///< the shared port took our request
  void deliver_index_word(u64 word);     ///< response arrived

  // ---- statistics ----
  u64 elems_streamed() const { return elems_streamed_; }
  u64 idx_words_fetched() const { return idx_words_fetched_; }

  u32 lane_id() const { return lane_id_; }
  const SsrLaneConfig& config() const { return cfg_; }
  SsrStreamKind kind() const { return kind_; }

 private:
  friend class SsrUnit;  // the one launch path (SsrUnit::write_cfg)

  /// Apply one config word (decoded by apply_scfg_word); a launch word
  /// starts the stream, and then this returns true. Aborts on a busy lane
  /// or a bad write.
  bool write_cfg(u32 word, u32 value);
  void launch(SsrStreamKind kind, Addr base);

  Tcdm& tcdm_;
  u32 lane_id_;
  u32 data_port_;

  SsrLaneConfig cfg_{};
  SsrStreamKind kind_ = SsrStreamKind::kNone;

  // Read-stream state.
  AffineAddrGen affine_{};
  FixedQueue<double, kSsrFifoDepth> rfifo_;
  u64 to_fetch_ = 0;    ///< data elements not yet requested
  u64 to_consume_ = 0;  ///< elements not yet popped (reads) / drained (writes)
  u32 inflight_data_ = 0;

  // Indirect state.
  Addr indir_base_ = 0;
  Addr idx_fetch_addr_ = 0;
  u64 idx_to_fetch_ = 0;  ///< indices not yet covered by a fetched word
  u32 idx_per_word_ = 0;  ///< indices packed in one TCDM word, set at launch
  bool idx_req_inflight_ = false;
  /// Decoded gather addresses.
  FixedQueue<Addr, kSsrIdxQueueDepth> pending_gather_;

  // Write-stream state.
  FixedQueue<double, kSsrFifoDepth> wfifo_;
  u32 reserved_ = 0;

  u64 elems_streamed_ = 0;
  u64 idx_words_fetched_ = 0;
};

}  // namespace saris
