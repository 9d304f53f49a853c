// The Snitch compute cluster: eight cores, 128 KiB / 32-bank TCDM, DMA
// engine, hardware barrier, single clock domain.
//
// Every cycle ticks every core, as the RTL clocks them, so each core's
// performance counters are exact after every step. A core with nothing in
// flight (waiting at the barrier, or halted) ticks through Core::tick's
// quiescent fast path: its idle counters and nothing else.
// tests/test_contract.cpp pins the results for all 20 (code, variant)
// cells.
//
// The constructors are the one definition of power-on state. A cluster runs
// one kernel; a caller that runs another builds a new cluster, as the
// system runner does for every tile (System::fresh_cluster).
#pragma once

#include <memory>
#include <vector>

#include "cluster/barrier.hpp"
#include "core/core.hpp"
#include "mem/dma.hpp"
#include "mem/main_memory.hpp"
#include "mem/mem_port.hpp"
#include "mem/tcdm.hpp"

namespace saris {

/// Main memory a standalone cluster owns. It is chunk-lazy, so its size
/// costs nothing until written.
inline constexpr u64 kClusterMemBytes = 512ull << 20;

struct ClusterConfig {
  u32 num_cores = 8;
  u32 tcdm_bytes = kTcdmSizeBytes;
};

class Cluster {
 public:
  /// Standalone cluster: owns its MainMemory (kClusterMemBytes), DMA
  /// issues through an unlimited direct port — the single-cluster default.
  explicit Cluster(const ClusterConfig& cfg = ClusterConfig{});

  /// Scale-out cluster: no owned memory; the DMA issues through `mem_port`
  /// — typically one HBM-frontend port of a multi-cluster System, whose
  /// per-cycle word grants arbitrate the shared-memory bandwidth across
  /// clusters. `cluster_id` identifies this cluster within the system
  /// (grant order and sharding are keyed on it).
  Cluster(const ClusterConfig& cfg, MemoryPort& mem_port, u32 cluster_id);

  u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  u32 cluster_id() const { return id_; }
  bool owns_memory() const { return owned_mem_ != nullptr; }
  Core& core(u32 i);
  Tcdm& tcdm() { return tcdm_; }
  /// Owned-memory clusters only; a System-owned cluster has no private
  /// main memory (aborts — ask the System for the shared one).
  MainMemory& mem();
  Dma& dma() { return *dma_; }
  Barrier& barrier() { return barrier_; }

  Cycle now() const { return now_; }

  /// Advance one cycle: every core, DMA, TCDM arbitration, barrier.
  void step();

  /// Has every core halted?
  bool all_halted() const {
    for (const auto& c : cores_) {
      if (!c->halted()) return false;
    }
    return true;
  }

  /// Step until every core has halted or `max_cycles` have passed; returns
  /// the cycles it ran. all_halted() tells which ended the run.
  Cycle run_until_halted(Cycle max_cycles = 100'000'000);

 private:
  void init(MemoryPort& mem_port);

  ClusterConfig cfg_;
  u32 id_ = 0;
  Tcdm tcdm_;
  std::unique_ptr<MainMemory> owned_mem_;  ///< standalone clusters only
  std::unique_ptr<DirectMemoryPort> owned_port_;
  Barrier barrier_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::unique_ptr<Dma> dma_;  ///< constructed after the cores so compute
                              ///< ports precede DMA ports in arbitration
  Cycle now_ = 0;
};

}  // namespace saris
