// Bandwidth-arbitrated frontend of the system-shared main memory.
//
// A multi-cluster System gives every cluster's DMA one HbmFrontend port
// instead of a private MainMemory. Each simulated cycle the frontend turns
// the HBM stack bandwidth (from HbmConfig: ceil(G / clusters_per_device)
// devices feeding G clusters) into a word-grant budget and deals it out
// round-robin across the ports with pending demand, one word per port per
// round, rotating the starting port every cycle. A cluster whose DMA wants
// more words than its grants stalls and retries — that is the cross-cluster
// contention the analytic scale-out model approximates with a fair share.
//
// Credits are dealt at the cycle boundary (begin_cycle), before any cluster
// ticks; each port's credits are consumed only by its own cluster's DMA
// during the tick, and the deal order is fixed by cluster id and the
// rotation counter.
//
// Ports carry an address window ([cluster_id * arena, +arena)): any word
// access outside the owning cluster's arena aborts, so no cluster reads or
// writes another's data.
#pragma once

#include <memory>
#include <vector>

#include "mem/main_memory.hpp"
#include "mem/mem_port.hpp"
#include "scaleout/hbm.hpp"

namespace saris {

class Dma;
class FaultPlan;

class HbmFrontend {
 public:
  class Port final : public MemoryPort {
   public:
    bool acquire_word() override;
    void read(u64 addr, void* dst, u64 len) override;
    void write(u64 addr, const void* src, u64 len) override;
    u64 base_addr() const override { return base_; }
    u64 end_addr() const override { return base_ + span_; }

    /// The DMA whose idleness signals this port's bandwidth demand; set by
    /// the System each time it builds the port's cluster. Ports with no
    /// client use the manual flag below (unit-test hook).
    void set_client(const Dma* dma) { client_ = dma; }
    void set_manual_demand(bool on) { manual_demand_ = on; }

    /// Quarantine (system/system_runner.hpp): a faulted cluster that has
    /// stopped ticking must also stop absorbing bandwidth, so a quarantined
    /// port's demand is forced off and its banked credits are dropped —
    /// the dealt budget flows entirely to the survivors.
    void set_quarantined(bool on) {
      quarantined_ = on;
      if (on) credit_bytes_ = 0;
    }
    bool quarantined() const { return quarantined_; }

    // ---- statistics ----
    u64 granted_bytes() const { return granted_bytes_; }
    /// acquire_word() refusals: each one is a DMA word op pushed to a later
    /// cycle — the direct measure of bandwidth backpressure on this cluster.
    u64 denied_grants() const { return denied_; }

   private:
    friend class HbmFrontend;
    Port(HbmFrontend& owner, u64 base, u64 span)
        : owner_(owner), base_(base), span_(span) {}
    void check_window(u64 addr, u64 len) const;

    HbmFrontend& owner_;
    u64 base_;
    u64 span_;
    const Dma* client_ = nullptr;
    bool manual_demand_ = false;
    bool quarantined_ = false;
    bool demand_ = false;       ///< latched at begin_cycle
    u32 credit_bytes_ = 0;      ///< spendable this cycle (plus banked cap)
    u64 granted_bytes_ = 0;
    u64 denied_ = 0;
  };

  /// `arena_bytes` is each port's private window of `mem` (port g covers
  /// [g * arena_bytes, (g+1) * arena_bytes)); mem must be at least
  /// num_ports * arena_bytes. `limited` = false turns every port into an
  /// unconditional pass-through (used by 1-cluster systems to preserve the
  /// run_kernel bit-identity contract). Raises kBadConfig when `hbm` fails
  /// validate(), or when limited and its bandwidth floors to a zero 16.16
  /// rate.
  HbmFrontend(MainMemory& mem, const HbmConfig& hbm, u32 num_ports,
              u64 arena_bytes, bool limited);

  Port& port(u32 g);
  u32 num_ports() const { return static_cast<u32>(ports_.size()); }
  bool limited() const { return limited_; }

  /// Attach a fault-injection plan (fault/fault_plan.hpp): while one of its
  /// kHbmThrottle windows is active, begin_cycle deals only the plan's
  /// keep-percent of the per-cycle budget (0 = a denied-grant blackout).
  /// Null and empty plans are bit-identical to no plan at all; pass nullptr
  /// to detach.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }

  /// Refresh per-port word credits for the coming cycle: round-robin deal
  /// of the cycle's bandwidth budget across demanding ports. Must be called
  /// exactly once per system cycle, before any cluster ticks.
  void begin_cycle();

  // ---- statistics ----
  u64 granted_bytes() const;
  u64 denied_grants() const;
  /// Granted fraction of the bandwidth offered so far (0 when unlimited or
  /// before the first cycle). Measured against the fixed-point budget
  /// actually dealt from, so it is <= 1 by construction.
  double utilization() const;
  /// The one ratio formula behind every utilization number: `bytes` over
  /// the fixed-point budget offered during `cycles`. Callers accounting
  /// run phases (first-tile vs steady-state) pass their own sampled bytes
  /// and window so all reported utilizations share this definition.
  double utilization_of(u64 bytes, Cycle cycles) const;

 private:
  MainMemory& mem_;
  HbmConfig hbm_;
  bool limited_;
  FaultPlan* faults_ = nullptr;
  std::vector<std::unique_ptr<Port>> ports_;
  u64 rate_fp_ = 0;   ///< bytes/cycle in 16.16 fixed point
  u64 carry_fp_ = 0;  ///< sub-word budget remainder carried across cycles
  u32 rr_ = 0;        ///< rotating first-served port
  Cycle cycles_ = 0;
};

}  // namespace saris
