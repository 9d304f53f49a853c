// Multi-cluster scale-out system: G Snitch clusters sharing one MainMemory
// behind the bandwidth-arbitrated HbmFrontend.
//
// Each cluster keeps its private TCDM, cores, barrier, and DMA engine; only
// the main-memory side is shared. Cluster g's DMA issues through HBM port g,
// whose address window is the cluster's private arena of the shared memory
// — arenas are chunk-aligned, so concurrent cluster ticks never touch the
// same lazily-allocated chunk and parallel ticking is race-free.
//
// Cycle protocol: every system cycle starts at a serial point
// (HbmFrontend::begin_cycle — HBM word credits dealt round-robin across
// demanding clusters in cluster-id order), then all clusters tick.
// run_until() ticks them serially or fans the ticks across worker threads
// with a per-cycle barrier whose completion step is the serial point —
// grant order is fixed by cluster id either way, so parallel results are
// bit-identical to serial (tests/test_system.cpp enforces it).
//
// A 1-cluster System forces the frontend into pass-through mode, preserving
// the contract that a simulated 1-cluster run is bit-identical to the
// single-cluster run_kernel pipeline.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "system/hbm_frontend.hpp"

namespace saris {

struct SystemConfig {
  u32 clusters = 1;
  /// Shape of every cluster. main_mem_bytes is ignored — clusters share the
  /// system memory (clusters * arena_bytes) instead of owning 512 MiB each.
  ClusterConfig cluster{};
  HbmConfig hbm{};
  /// Model the shared-memory bandwidth (the point of the System layer).
  /// Forced off for 1-cluster systems regardless of this flag: G=1 must stay
  /// bit-identical to the standalone run_kernel path, whose DMA has the
  /// memory to itself.
  bool hbm_limit = true;
  /// Per-cluster window of the shared memory; must be a multiple of
  /// MainMemory::kChunkBytes (keeps concurrent clusters off shared chunks).
  u64 arena_bytes = 16ull << 20;
};

class System {
 public:
  explicit System(const SystemConfig& cfg);

  u32 num_clusters() const { return static_cast<u32>(clusters_.size()); }
  Cluster& cluster(u32 g);
  /// Destroy cluster g, then construct it at power-on on the same HBM port
  /// and cluster id, and read the port's demand from the new DMA. Whatever
  /// still refers to the old cluster must be dropped first. The constructor
  /// builds every cluster this way, and the system runner builds one per
  /// tile from cluster g's after_tick.
  Cluster& fresh_cluster(u32 g);
  MainMemory& mem() { return mem_; }
  HbmFrontend& hbm() { return *hbm_; }
  u64 arena_base(u32 g) const { return static_cast<u64>(g) * cfg_.arena_bytes; }
  u64 arena_bytes() const { return cfg_.arena_bytes; }
  Cycle now() const { return now_; }

  /// Advance cycles until done(g) holds for every cluster; a cluster is
  /// ticked only while its own done(g) is false (and done is re-evaluated
  /// at every batch boundary, before the tick). after_tick(g), when set,
  /// runs right after each cluster tick — on the worker that owns g, so it
  /// may touch only cluster g's state. With threads > 1 the clusters tick
  /// on a worker pool with a per-boundary barrier; results are
  /// bit-identical to threads=1. Raises SimError(kMaxCyclesExceeded) with
  /// `label` in the message if max_cycles elapse (in the parallel path the
  /// overrun is latched at the barrier's noexcept completion step and
  /// raised from the calling thread once the pool has joined, so the
  /// labeled typed error propagates instead of a mid-barrier termination).
  /// after_tick runs on worker threads and must not let exceptions escape —
  /// a throwing callback would std::terminate the pool; catch run-level
  /// errors inside it and resolve them at the serial point (the system
  /// runner's quarantine does exactly this). Returns cycles elapsed.
  ///
  /// `batch` > 1 amortizes the per-cycle serial point: each boundary runs
  /// up to `batch` cycles before the next done/credit synchronization,
  /// when that is provably bit-identical to batch = 1. The HBM credit cap
  /// is one DMA datapath round, which a demanding engine can drain in a
  /// single cycle — so while any unfinished cluster's DMA holds work (or
  /// may_spawn_dma(g) says its after_tick may stage new work mid-batch)
  /// the credits must be re-dealt every cycle and the batch collapses to
  /// 1; demand-free spans (and the whole run when bandwidth is
  /// unarbitrated) batch freely, with the boundary dealing each skipped
  /// cycle's (empty) budget up front. Consequence of batching: done(g) is
  /// observed at boundaries only, so a cluster may be ticked up to
  /// batch - 1 cycles past the cycle its done(g) first became true —
  /// callers' per-tick bookkeeping must (and the system runner's does)
  /// treat those trailing ticks as no-ops.
  Cycle run_until(const std::function<bool(u32)>& done, u32 threads,
                  Cycle max_cycles, const std::string& label,
                  const std::function<void(u32)>& after_tick = {},
                  u32 batch = 1,
                  const std::function<bool(u32)>& may_spawn_dma = {});

 private:
  SystemConfig cfg_;
  MainMemory mem_;
  std::unique_ptr<HbmFrontend> hbm_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  Cycle now_ = 0;
};

}  // namespace saris
