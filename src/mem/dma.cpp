#include "mem/dma.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "fault/fault_plan.hpp"

namespace saris {

DmaJob make_tile_dma_job(bool to_tcdm, Addr tcdm_base, u64 mem_addr,
                         u32 grid_nx, u32 grid_ny, u32 x0, u32 y0, u32 z0,
                         u32 nx, u32 ny, u32 nz) {
  DmaJob j;
  j.to_tcdm = to_tcdm;
  j.tcdm_addr = tcdm_base + (static_cast<Addr>(z0) * grid_ny * grid_nx +
                             static_cast<Addr>(y0) * grid_nx + x0) *
                                kWordBytes;
  j.mem_addr = mem_addr;
  j.row_bytes = nx * kWordBytes;
  j.rows = ny;
  j.tcdm_row_stride = static_cast<i32>(grid_nx * kWordBytes);
  j.mem_row_stride = j.row_bytes;
  j.planes = nz;
  j.tcdm_plane_stride = static_cast<i32>(grid_nx * grid_ny * kWordBytes);
  j.mem_plane_stride = static_cast<i64>(j.row_bytes) * ny;
  return j;
}

Dma::Dma(Tcdm& tcdm, MemoryPort& mem)
    : tcdm_(tcdm), mem_(mem) {
  make_tcdm_ports();
}

void Dma::make_tcdm_ports() {
  u32 lanes = kDmaWidthBytes / kWordBytes;
  SARIS_CHECK(lanes < 32, "DMA datapath too wide for the u32 port bitmask");
  for (u32 i = 0; i < lanes; ++i) {
    ports_.push_back(tcdm_.make_port("dma" + std::to_string(i)));
    out_.push_back(Outstanding{});
  }
}

void Dma::push(const DmaJob& job) {
  SARIS_CHECK(job.row_bytes > 0 && job.row_bytes % kWordBytes == 0,
              "DMA row_bytes must be a positive multiple of 8");
  SARIS_CHECK(job.tcdm_addr % kWordBytes == 0 &&
                  job.mem_addr % kWordBytes == 0,
              "DMA addresses must be 8-byte aligned");
  SARIS_CHECK(job.rows >= 1 && job.planes >= 1, "DMA shape degenerate");

#define SARIS_DMA_JOB_COORDS(job)                                          \
  "tcdm_addr=" << (job).tcdm_addr << " mem_addr=" << (job).mem_addr       \
               << " row_bytes=" << (job).row_bytes << " rows="            \
               << (job).rows << "x" << (job).planes << " tcdm_strides=("  \
               << (job).tcdm_row_stride << "," << (job).tcdm_plane_stride \
               << ") mem_strides=(" << (job).mem_row_stride << ","        \
               << (job).mem_plane_stride << ")"

  DmaExtent t = job_extent(job.tcdm_addr, job.tcdm_row_stride,
                           job.tcdm_plane_stride, job.rows, job.planes,
                           job.row_bytes);
  SARIS_CHECK(t.lo >= 0 && t.hi <= static_cast<__int128>(tcdm_.size_bytes()),
              "DMA job TCDM extent out of range: "
                  << SARIS_DMA_JOB_COORDS(job)
                  << " tcdm_size=" << tcdm_.size_bytes());
  DmaExtent m = job_extent(job.mem_addr, job.mem_row_stride,
                           job.mem_plane_stride, job.rows, job.planes,
                           job.row_bytes);
  SARIS_CHECK(m.lo >= static_cast<__int128>(mem_.base_addr()) &&
                  m.hi <= static_cast<__int128>(mem_.end_addr()),
              "DMA job main-memory extent out of range: "
                  << SARIS_DMA_JOB_COORDS(job) << " mem_window=["
                  << mem_.base_addr() << ", " << mem_.end_addr() << ")");
#undef SARIS_DMA_JOB_COORDS

  jobs_.push(job);
}

bool Dma::idle() const { return !job_active_ && jobs_.empty(); }

void Dma::start_next_row() { overhead_left_ = kDmaRowOverheadCycles; }

bool Dma::advance_row_cursor() {
  row_pos_ = 0;
  ++cur_row_;
  if (cur_row_ >= cur_.rows) {
    cur_row_ = 0;
    ++cur_plane_;
    if (cur_plane_ >= cur_.planes) return false;
  }
  start_next_row();
  return true;
}

void Dma::retire_responses() {
  // Only ports with a word in flight can have a response; visit exactly
  // those, in ascending port order. A main-memory write additionally needs
  // a word of memory bandwidth: if the port denies the grant, the TCDM
  // response is simply left pending (the bank holds it and the datapath
  // port stays busy) and retires on a later cycle.
  for (u32 m = busy_mask_; m != 0; m &= m - 1) {
    const u32 i = static_cast<u32>(std::countr_zero(m));
    if (!tcdm_.response_ready(ports_[i])) continue;
    // An injected word error rejects the main-memory write before the port
    // sees it (no bandwidth credit consumed); the pending TCDM response is
    // simply retried next cycle, exactly like a denied grant.
    if (!out_[i].to_tcdm && faults_ &&
        faults_->dma_deny(fault_cluster_, fault_now_)) {
      continue;
    }
    if (!out_[i].to_tcdm && !mem_.acquire_word()) continue;
    u64 data = tcdm_.take_response(ports_[i]);
    if (!out_[i].to_tcdm) {
      mem_.write(out_[i].mem_addr, &data, kWordBytes);
    }
    busy_mask_ &= ~(1u << i);
    SARIS_CHECK(words_outstanding_ > 0, "DMA outstanding underflow");
    --words_outstanding_;
  }
}

void Dma::issue_words() {
  // Issue up to one full datapath width of word ops for this row, on free
  // ports (the clear bits of the busy mask) in ascending order; stop once
  // the row or the datapath-width budget is exhausted.
  u32 issued_bytes = 0;
  const u32 free = ~busy_mask_ & ((1u << ports_.size()) - 1);
  for (u32 m = free; m != 0; m &= m - 1) {
    if (row_pos_ >= cur_.row_bytes || issued_bytes >= kDmaWidthBytes) break;
    const u32 i = static_cast<u32>(std::countr_zero(m));
    // Reads from main memory draw a word of memory bandwidth at issue time
    // (writes draw theirs at retire); once the port's grant budget for the
    // cycle is gone, stop issuing entirely. An injected word error rejects
    // the read the same way, before any credit is drawn.
    if (cur_.to_tcdm && faults_ &&
        faults_->dma_deny(fault_cluster_, fault_now_)) {
      break;
    }
    if (cur_.to_tcdm && !mem_.acquire_word()) break;

    Addr taddr = cur_.tcdm_addr +
                 static_cast<i64>(cur_.tcdm_plane_stride) * cur_plane_ +
                 static_cast<i64>(cur_.tcdm_row_stride) * cur_row_ + row_pos_;
    u64 maddr = cur_.mem_addr + cur_.mem_plane_stride * cur_plane_ +
                cur_.mem_row_stride * cur_row_ + row_pos_;

    if (cur_.to_tcdm) {
      u64 data = 0;
      mem_.read(maddr, &data, kWordBytes);
      tcdm_.post(ports_[i], taddr, kWordBytes, /*is_write=*/true, data);
    } else {
      tcdm_.post(ports_[i], taddr, kWordBytes, /*is_write=*/false, 0);
    }
    out_[i] = Outstanding{cur_.to_tcdm, maddr};
    busy_mask_ |= 1u << i;
    ++words_outstanding_;
    row_pos_ += kWordBytes;
    issued_bytes += kWordBytes;
    bytes_moved_ += kWordBytes;
  }
}

void Dma::tick(Cycle now) {
  // Idle short-circuit: no job, no queue, nothing in flight — the phases
  // below would all no-op (and active_cycles_ is only counted with a job).
  if (!job_active_ && jobs_.empty() && words_outstanding_ == 0) return;

  fault_now_ = fault_offset_ + now;

  // Phase 1: retire responses from last cycle's arbitration.
  retire_responses();

  // Phase 2: job bookkeeping.
  if (!job_active_) {
    if (jobs_.empty()) return;
    cur_ = jobs_.pop();
    job_active_ = true;
    issuing_done_ = false;
    cur_row_ = 0;
    cur_plane_ = 0;
    row_pos_ = 0;
    start_next_row();
  }
  ++active_cycles_;

  if (issuing_done_) {
    if (words_outstanding_ == 0) job_active_ = false;
    return;
  }

  if (overhead_left_ > 0) {
    --overhead_left_;
    return;
  }

  // Phase 3: issue new word ops.
  issue_words();

  // Phase 4: advance to the next row once it is fully issued (outstanding
  // words drain in the background — rows pipeline across the per-row setup
  // overhead); the job finishes when the last row has drained.
  if (row_pos_ >= cur_.row_bytes) {
    if (!advance_row_cursor()) {
      issuing_done_ = true;
      if (words_outstanding_ == 0) job_active_ = false;
    }
  }
}

double Dma::bandwidth_utilization() const {
  if (active_cycles_ == 0) return 0.0;
  return static_cast<double>(bytes_moved_) /
         (static_cast<double>(active_cycles_) * kDmaWidthBytes);
}

}  // namespace saris
