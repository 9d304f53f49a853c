// Deterministic, seeded, cycle-addressed fault injection.
//
// A FaultPlan is a pre-compiled schedule of fault events, each addressed to
// a (cluster, cycle) coordinate; the run pipeline consults it at fixed
// points of the cycle loop, so the same plan replays bit-identical fault
// behavior on every run (the trace is test-enforced). The stall and
// bit-flip hooks run in KernelRun (runtime/kernel_runner.hpp) at every
// cycle boundary from staging until the DMA drains, in the single-cluster
// and System loops alike. Four fault kinds cover the failure modes the
// paper's machine would see in production:
//
//  - kHbmThrottle: for `duration` system cycles the HBM frontend deals only
//    `payload`% of its word-grant budget (0 = blackout: a denied-grant
//    burst). Degrades bandwidth; never fails a run by itself.
//  - kDmaWordError: for `duration` cluster cycles every main-memory word
//    the cluster's DMA tries to move is rejected before reaching the
//    memory port, forcing the engine to retry — transfer-level ECC retry
//    traffic. Slows the run; never fails it.
//  - kTcdmBitFlip: at the addressed cluster cycle one bit of a staged input
//    word in TCDM is flipped. Caught (if at all) by verification: the run
//    raises SimErrc::kInjectedFault, or survives when the flip lands below
//    the tolerance or in dead data.
//  - kClusterStall: at the addressed cluster cycle the cluster wedges. A
//    single-cluster run raises SimErrc::kClusterStall; a System run
//    quarantines the cluster and lets the survivors finish (graceful
//    degradation, system/system_runner.hpp).
//
// Determinism contracts (tests/test_fault.cpp):
//  - a null plan and an empty plan are bit-identical to each other and to
//    the pre-fault-harness simulator — every hook is a no-op;
//  - FaultPlan::storm(cfg, seed, attempt) is a pure function of its
//    arguments; the same seed replays the same storm;
//  - each event persists for `persistence` attempts, so a bounded retry
//    (runtime/sweep.hpp) deterministically clears transient faults
//    (persistence 1) and deterministically keeps hitting sticky ones.
//
// Call order: per-cluster queries (dma_deny, stall_due, take_bitflip) keep
// per-cluster cursors and must come with non-decreasing cycles, as
// System::run_until ticks clusters. trace() and the counters are for after
// the run.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace saris {

enum class FaultKind : u8 {
  kHbmThrottle = 0,
  kDmaWordError,
  kTcdmBitFlip,
  kClusterStall,
};

const char* fault_kind_name(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kDmaWordError;
  u32 cluster = 0;   ///< target cluster (ignored for kHbmThrottle)
  Cycle cycle = 0;   ///< activation: cluster-local (system cycle for HBM)
  Cycle duration = 1;  ///< window length (throttle / word-error kinds)
  /// Kind-specific: kHbmThrottle = percent of the budget kept (0..100);
  /// kTcdmBitFlip = bit selector (low 6 bits: bit index; rest: word
  /// selector into the staged inputs).
  u64 payload = 0;
  /// The event fires on attempts 0 .. persistence-1 of a retried job:
  /// 1 = transient (clears on the first retry), larger = sticky.
  u32 persistence = 1;
};

/// One fired fault, for the deterministic trace (window kinds record their
/// activation once, not every affected cycle/word).
struct FiredFault {
  FaultKind kind;
  u32 cluster;
  Cycle cycle;
  u64 payload;
  bool operator==(const FiredFault&) const = default;
};

/// Shape of a random storm: how many events of each kind to schedule within
/// `horizon` cluster cycles.
struct FaultStormConfig {
  u32 clusters = 1;
  u32 hbm_throttles = 0;
  u32 dma_word_errors = 0;
  u32 tcdm_bitflips = 0;
  u32 cluster_stalls = 0;
  Cycle horizon = 20'000;    ///< events are scheduled in [1, horizon]
  Cycle max_duration = 256;  ///< window kinds last 1..max_duration cycles
  u32 max_persistence = 2;   ///< events persist 1..max_persistence attempts
};

class FaultPlan {
 public:
  /// An empty plan: provably inert — every query returns "no fault".
  FaultPlan() = default;

  /// Pure function of (cfg, seed, attempt): a deterministic pseudo-random
  /// storm. The event list is generated from `seed` alone and then filtered
  /// by `attempt < persistence`, so retries replay the SAME storm minus the
  /// events that have expired — never a different one.
  static FaultPlan storm(const FaultStormConfig& cfg, u64 seed,
                         u32 attempt = 0);

  /// Hand-authored plans (tests, targeted experiments). Events may be added
  /// in any order; `attempt` filtering applies as in storm().
  void add(const FaultEvent& e);

  bool empty() const;

  // ---- hot-path queries ----
  /// True while a kDmaWordError window covers (cluster, now): the word the
  /// DMA is about to move must be rejected (it will retry next cycle).
  bool dma_deny(u32 cluster, Cycle now);
  /// Percent of the HBM word-grant budget to deal this system cycle
  /// (100 = no throttle; the minimum over active kHbmThrottle windows).
  u32 hbm_keep_percent(Cycle now);
  /// True from the first query at/after a kClusterStall event's cycle on —
  /// the stall latches (a wedged cluster stays wedged).
  bool stall_due(u32 cluster, Cycle now);
  /// Consume one due kTcdmBitFlip event (cycle <= now) and return its
  /// payload; false when none is due. Callers loop until false.
  bool take_bitflip(u32 cluster, Cycle now, u64* payload);

  // ---- post-run inspection ----
  /// True iff at least one event of `kind` fired on `cluster`.
  bool fired(FaultKind kind, u32 cluster) const;
  /// Words denied by kDmaWordError windows on `cluster` so far.
  u64 denied_words(u32 cluster) const;
  /// Every fired fault in canonical (cluster, cycle, kind, payload) order —
  /// comparable across runs of the same plan.
  std::vector<FiredFault> trace() const;
  std::string trace_string() const;  ///< one line per fired fault

  /// Clear cursors, latches, counters, and the trace so the same plan can
  /// drive a second run (bit-identical to the first).
  void rewind();

 private:
  struct PerCluster {
    std::vector<FaultEvent> word_errors;  ///< sorted by cycle
    std::vector<FaultEvent> bitflips;     ///< sorted by cycle
    Cycle stall_cycle = kNever;           ///< earliest stall event
    // Cursors / latches.
    std::size_t we_cur = 0;
    Cycle we_active_until = 0;
    std::size_t bf_cur = 0;
    bool stalled = false;
    u64 denied_words = 0;
    std::vector<FiredFault> fired;
  };

  static constexpr Cycle kNever = ~Cycle{0};

  PerCluster& cluster_state(u32 cluster);

  std::vector<FaultEvent> throttles_;  ///< sorted by cycle
  std::vector<char> throttle_fired_;   ///< trace-once latch per throttle
  std::vector<PerCluster> per_cluster_;
  std::vector<FiredFault> hbm_fired_;
  u32 attempt_ = 0;  ///< add() drops events with persistence <= attempt_
};

}  // namespace saris
