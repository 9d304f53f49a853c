// The Snitch compute cluster: eight cores, 128 KiB / 32-bank TCDM, DMA
// engine, hardware barrier, single clock domain.
//
// The cycle loop is event-aware: cores whose subsystems are all idle and
// that are parked at the barrier (or halted) are taken off the active list
// and skipped entirely; the ticks they would have spent idling are credited
// back to their counters on wake-up (or lazily via sync_idle_counters), so
// every architectural result and performance counter is what ticking every
// core on every cycle would give. tests/test_contract.cpp pins those results
// for all 20 (code, variant) cells.
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

struct ClusterConfig {
  u32 num_cores = 8;
  u32 tcdm_bytes = kTcdmSizeBytes;
  u32 tcdm_banks = kTcdmBanks;
  u64 main_mem_bytes = 512ull * 1024 * 1024;
  /// Conflict-free TCDM (Tcdm::set_ideal_arbitration): every pending
  /// request granted each cycle. Validation mode for the static cost model
  /// — its walk assumes exactly this memory, so a run here must match the
  /// prediction bit-for-bit (tests/test_cost.cpp). Not a paper
  /// configuration.
  bool ideal_tcdm = false;
};

class Cluster {
 public:
  /// Standalone cluster: owns its MainMemory (cfg.main_mem_bytes), DMA
  /// issues through an unlimited direct port — the single-cluster default.
  explicit Cluster(const ClusterConfig& cfg = ClusterConfig{});

  /// Scale-out cluster: no owned memory; the DMA issues through `mem_port`
  /// — typically one HBM-frontend port of a multi-cluster System, whose
  /// per-cycle word grants arbitrate the shared-memory bandwidth across
  /// clusters. `cluster_id` identifies this cluster within the system
  /// (grant order and sharding are keyed on it). cfg.main_mem_bytes is
  /// ignored.
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

  /// Advance one cycle: active cores, DMA, TCDM arbitration, barrier.
  void step();

  /// Re-arm the cluster for the next kernel without reconstruction: cores
  /// (including FPU/SSR/FREP/I$ state and counters), barrier, TCDM
  /// (contents, arbitration state, statistics), and DMA return to power-on
  /// state, and the clock rewinds to 0. Kept across a re-arm: the cluster
  /// id, the memory-port binding (and any lazily allocated main-memory
  /// chunks behind it — overlap-DMA writes may linger there; nothing in the
  /// pipeline reads them back). Contract:
  /// a re-armed cluster is bit-identical to a freshly constructed one —
  /// stage the next kernel with stage_kernel and every simulated result and
  /// performance counter matches a fresh cluster's (tests/test_cluster.cpp,
  /// tests/test_system.cpp enforce this). Must be called between kernels
  /// (not with cores mid-flight); any cycle state is simply discarded.
  void rearm();

  /// O(1): a running count of halted cores.
  bool all_halted() const { return halted_count_ == cores_.size(); }

  /// Cores ticked by the most recent step(): the current active list plus
  /// deactivated_last_step() (cores parked/retired during that very step —
  /// a core can issue its last useful FPU op on the cycle it drains and
  /// parks, so it must still be scanned once). Lets per-cycle
  /// instrumentation (e.g. the FPU-activity timeline) visit only cores
  /// whose counters can have changed instead of scanning all of them.
  const std::vector<u32>& active_core_ids() const { return active_ids_; }
  const std::vector<u32>& deactivated_last_step() const {
    return just_deactivated_;
  }

  /// Fold the ticks skipped for parked/retired cores into their idle
  /// counters (FPU idle, barrier stalls) up to the current cycle. Called
  /// automatically by the run_until_* loops; call it manually before
  /// reading per-core counters from a hand-stepped cluster. Idempotent.
  void sync_idle_counters();

  /// Step until every core has halted; returns cycles elapsed. Aborts (with
  /// a CHECK diagnostic) if `max_cycles` elapse first — a deadlocked stream
  /// or missing halt is a programming error.
  Cycle run_until_halted(Cycle max_cycles = 100'000'000);

  /// Step until the DMA engine is idle (used for prologue/epilogue copies).
  Cycle run_until_dma_idle(Cycle max_cycles = 100'000'000);

 private:
  enum class CoreState : u8 {
    kActive,   ///< ticked every cycle
    kParked,   ///< quiescent at the barrier; woken on release
    kRetired,  ///< halted and quiescent; never ticked again
  };

  void init(MemoryPort& mem_port);
  void wake(u32 id);
  void reactivate(u32 id);
  void update_core_states();

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

  // Idle-skip bookkeeping.
  std::vector<CoreState> state_;
  std::vector<u32> active_ids_;
  std::vector<u32> just_deactivated_;  ///< parked/retired by the last step
  std::vector<Cycle> last_ticked_;  ///< counters are exact through here
  u32 halted_count_ = 0;
  std::vector<bool> halted_seen_;
  u64 barrier_episodes_seen_ = 0;
};

}  // namespace saris
