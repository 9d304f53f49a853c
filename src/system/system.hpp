// Multi-cluster scale-out system: G Snitch clusters sharing one MainMemory
// behind the bandwidth-arbitrated HbmFrontend.
//
// Each cluster keeps its private TCDM, cores, barrier, and DMA engine; only
// the main-memory side is shared. Cluster g's DMA issues through HBM port g,
// whose address window is the cluster's private arena of the shared memory.
//
// Cycle protocol: every system cycle first deals the HBM word credits
// (HbmFrontend::begin_cycle, round-robin across demanding clusters in
// cluster-id order), then ticks the clusters in cluster-id order.
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
  ClusterConfig cluster{};  ///< shape of every cluster
  HbmConfig hbm{};
  /// Model the shared-memory bandwidth (the point of the System layer).
  /// Forced off for 1-cluster systems regardless of this flag: G=1 must stay
  /// bit-identical to the standalone run_kernel path, whose DMA has the
  /// memory to itself.
  bool hbm_limit = true;
  /// Per-cluster window of the shared memory; must be a multiple of
  /// MainMemory::kChunkBytes, so no two arenas share a lazily allocated
  /// chunk.
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

  /// Advance cycles until done(g) holds for every cluster. Each cycle
  /// re-checks done(g), deals the HBM credits and ticks the clusters whose
  /// done(g) was false, in cluster-id order; after_tick(g), when set, runs
  /// right after cluster g's tick. Raises SimError(kMaxCyclesExceeded) with
  /// `label` in the message if max_cycles elapse. Returns cycles elapsed.
  Cycle run_until(const std::function<bool(u32)>& done, Cycle max_cycles,
                  const std::string& label,
                  const std::function<void(u32)>& after_tick = {});

 private:
  SystemConfig cfg_;
  MainMemory mem_;
  std::unique_ptr<HbmFrontend> hbm_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  Cycle now_ = 0;
};

}  // namespace saris
