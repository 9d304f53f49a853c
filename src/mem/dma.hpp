// 512-bit programmable DMA engine between main memory and TCDM.
//
// Models the cluster's iDMA at transfer-shape fidelity: up to 64 B move per
// cycle on both sides, a fixed per-row setup overhead (burst request issue),
// and word-granular arbitration on the TCDM side through eight ports. The
// per-row overhead is what makes short-row 3-D tile transfers less efficient
// than 2-D ones — the effect behind the paper's measured DMA bandwidth
// utilizations that feed the scale-out model.
#pragma once

#include <algorithm>
#include <vector>

#include "common/fixed_queue.hpp"
#include "mem/mem_port.hpp"
#include "mem/tcdm.hpp"

namespace saris {

class FaultPlan;

inline constexpr u32 kDmaWidthBytes = 64;       ///< 512-bit datapath
inline constexpr u32 kDmaRowOverheadCycles = 1; ///< burst setup per row
inline constexpr u32 kDmaJobQueueDepth = 16;

/// A (up to) 3-D strided copy; `rows`/`planes` of 1 give 1-D/2-D transfers.
/// Row payloads must be multiples of 8 bytes and 8-byte aligned on both
/// sides (always true for our double-precision grids).
struct DmaJob {
  bool to_tcdm = true;  ///< direction: main memory -> TCDM if true
  Addr tcdm_addr = 0;
  u64 mem_addr = 0;
  u32 row_bytes = 0;
  u32 rows = 1;
  i32 tcdm_row_stride = 0;
  i64 mem_row_stride = 0;
  u32 planes = 1;
  i32 tcdm_plane_stride = 0;
  i64 mem_plane_stride = 0;

  u64 total_bytes() const {
    return static_cast<u64>(row_bytes) * rows * planes;
  }
};

/// [lo, hi) byte extent of a strided 3-D transfer footprint: `base` plus
/// every row and plane offset, plus one row. 128-bit intermediates: strides
/// and counts are caller-controlled and the whole point is to reject jobs
/// whose arithmetic would wrap in 64 bits. Meaningful for rows, planes >= 1.
/// Dma::push checks both sides of a job with it; the static verifier checks
/// the overlap jobs' TCDM side with it at compile time.
struct DmaExtent {
  __int128 lo;
  __int128 hi;
};

inline DmaExtent job_extent(__int128 base, i64 row_stride, i64 plane_stride,
                            u32 rows, u32 planes, u32 row_bytes) {
  __int128 row_span = static_cast<__int128>(row_stride) * (rows - 1);
  __int128 plane_span = static_cast<__int128>(plane_stride) * (planes - 1);
  DmaExtent e;
  e.lo = base + std::min<__int128>(row_span, 0) +
         std::min<__int128>(plane_span, 0);
  e.hi = base + std::max<__int128>(row_span, 0) +
         std::max<__int128>(plane_span, 0) + row_bytes;
  return e;
}

/// Build the strided job for a box-shaped region of a row-major grid tile:
/// the TCDM side walks the tile at its natural pitch (grid_nx x grid_ny
/// doubles per plane) starting at element (x0, y0, z0); the main-memory
/// side is packed (rows and planes back-to-back at `mem_addr`). The region
/// is nx x ny x nz elements. Both overlap-DMA shapes of the kernel runner —
/// full halo'd tiles (origin 0, full extent) and interior-only transfers
/// (origin at the halo radius) — are instances of this one geometry.
DmaJob make_tile_dma_job(bool to_tcdm, Addr tcdm_base, u64 mem_addr,
                         u32 grid_nx, u32 grid_ny, u32 x0, u32 y0, u32 z0,
                         u32 nx, u32 ny, u32 nz);

class Dma {
 public:
  /// Issue main-memory traffic through `mem` — a DirectMemoryPort for the
  /// single-cluster case, or an HBM-frontend port whose per-cycle word
  /// grants model cross-cluster bandwidth contention. A word denied by the
  /// port stalls that phase (issue for reads, retire for writes) until the
  /// next cycle; with an always-granting port the engine is bit-identical
  /// to the pre-abstraction direct-memory path.
  Dma(Tcdm& tcdm, MemoryPort& mem);

  /// Enqueue a job (fails if the job queue is full — callers check `space`).
  /// Jobs are validated up front: shape, alignment, and the full strided
  /// extent against both the TCDM and main-memory sizes, so a bad job
  /// aborts here with its coordinates instead of mid-tick on a word access.
  void push(const DmaJob& job);
  bool queue_full() const { return jobs_.full(); }
  bool idle() const;

  /// Advance one cycle: collect TCDM responses, then issue new word ops.
  /// Must be called before Tcdm::arbitrate() each cycle.
  ///
  /// Cost scales with in-flight words, not datapath width: an active-port
  /// bitmask drives both response retirement (set bits) and word issue
  /// (clear bits), so long idle-drain tails touch only the ports that still
  /// have work — the same O(pending) trick as the TCDM arbiter.
  void tick(Cycle now);

  /// Attach a fault-injection plan (fault/fault_plan.hpp): while one of the
  /// plan's kDmaWordError windows is active for `cluster`, main-memory words
  /// are rejected BEFORE the memory port sees them — no bandwidth credit is
  /// consumed — and the engine retries them on later cycles. Null (the
  /// default) and empty plans are bit-identical to no plan at all.
  /// `cycle_offset` maps the engine's local clock into the plan's timeline:
  /// the System runner builds a fresh cluster for each tile (its clock
  /// starts at 0) and binds with the cluster's accumulated tick count so
  /// plan cycles stay monotonic. Every KernelRun binds at staging, with null
  /// for a run without a plan.
  void set_faults(FaultPlan* plan, u32 cluster, Cycle cycle_offset = 0) {
    faults_ = plan;
    fault_cluster_ = cluster;
    fault_offset_ = cycle_offset;
  }

  // ---- statistics ----
  u64 bytes_moved() const { return bytes_moved_; }
  u64 active_cycles() const { return active_cycles_; }
  /// Achieved fraction of the 64 B/cycle peak while the engine was active.
  double bandwidth_utilization() const;

 private:
  /// The word in flight on a datapath port (valid while its busy_mask_ bit
  /// is set).
  struct Outstanding {
    bool to_tcdm = false;
    u64 mem_addr = 0;  ///< main-memory address paired with this word
  };

  void make_tcdm_ports();
  void retire_responses();
  void issue_words();

  bool job_active_ = false;
  bool issuing_done_ = false;  ///< all rows issued, draining outstanding
  DmaJob cur_{};
  u32 cur_row_ = 0;
  u32 cur_plane_ = 0;
  u32 row_pos_ = 0;       ///< bytes of the current row already issued
  u32 overhead_left_ = 0; ///< remaining row-setup cycles
  u32 words_outstanding_ = 0;
  u32 busy_mask_ = 0;  ///< bit i set while port i has a word in flight

  void start_next_row();
  bool advance_row_cursor();  ///< returns false when the job is complete

  Tcdm& tcdm_;
  MemoryPort& mem_;
  FaultPlan* faults_ = nullptr;
  u32 fault_cluster_ = 0;
  Cycle fault_offset_ = 0;
  Cycle fault_now_ = 0;  ///< plan-timeline `now`, for mid-phase fault queries
  FixedQueue<DmaJob, kDmaJobQueueDepth> jobs_;
  std::vector<u32> ports_;
  std::vector<Outstanding> out_;

  u64 bytes_moved_ = 0;
  u64 active_cycles_ = 0;
};

}  // namespace saris
