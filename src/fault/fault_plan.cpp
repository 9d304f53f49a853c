#include "fault/fault_plan.hpp"

#include <algorithm>
#include <sstream>

#include "common/splitmix.hpp"

namespace saris {

namespace {

/// Uniform draw in [lo, hi] (inclusive). Modulo bias is irrelevant here:
/// the draw only has to be deterministic, not statistically perfect.
u64 draw(u64& state, u64 lo, u64 hi) {
  return lo + splitmix64(state) % (hi - lo + 1);
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kHbmThrottle: return "hbm-throttle";
    case FaultKind::kDmaWordError: return "dma-word-error";
    case FaultKind::kTcdmBitFlip: return "tcdm-bitflip";
    case FaultKind::kClusterStall: return "cluster-stall";
  }
  return "?";
}

FaultPlan FaultPlan::storm(const FaultStormConfig& cfg, u64 seed,
                           u32 attempt) {
  FaultPlan plan;
  plan.attempt_ = attempt;
  // The generation sequence depends on `seed` ALONE: every attempt draws the
  // identical event list, and `attempt` only filters it (inside add()). A
  // retried job therefore faces the same storm minus expired events.
  u64 state = seed;
  auto gen = [&](FaultKind kind, u32 count) {
    for (u32 i = 0; i < count; ++i) {
      FaultEvent e;
      e.kind = kind;
      e.cluster = static_cast<u32>(draw(state, 0, cfg.clusters - 1));
      e.cycle = draw(state, 1, cfg.horizon);
      e.duration = draw(state, 1, cfg.max_duration);
      u64 payload_bits = splitmix64(state);
      e.persistence = static_cast<u32>(draw(state, 1, cfg.max_persistence));
      switch (kind) {
        case FaultKind::kHbmThrottle:
          // Keep 0..50% of the budget: anything above barely registers.
          e.payload = payload_bits % 51;
          break;
        case FaultKind::kTcdmBitFlip:
          // High mantissa / exponent bits (40..62) so the flip lands far
          // above any practical verification tolerance; bit 63 (sign) is
          // avoided only to keep flipped values finite-magnitude-comparable.
          e.payload = (payload_bits >> 8 << 6) | (40 + payload_bits % 23);
          break;
        default:
          e.payload = payload_bits;
          break;
      }
      plan.add(e);
    }
  };
  gen(FaultKind::kHbmThrottle, cfg.hbm_throttles);
  gen(FaultKind::kDmaWordError, cfg.dma_word_errors);
  gen(FaultKind::kTcdmBitFlip, cfg.tcdm_bitflips);
  gen(FaultKind::kClusterStall, cfg.cluster_stalls);
  return plan;
}

void FaultPlan::add(const FaultEvent& e) {
  if (attempt_ >= e.persistence) return;  // expired for this attempt
  auto by_cycle = [](const FaultEvent& a, const FaultEvent& b) {
    return a.cycle < b.cycle;
  };
  auto insert_sorted = [&](std::vector<FaultEvent>& v) {
    v.insert(std::upper_bound(v.begin(), v.end(), e, by_cycle), e);
  };
  switch (e.kind) {
    case FaultKind::kHbmThrottle:
      insert_sorted(throttles_);
      throttle_fired_.assign(throttles_.size(), 0);
      break;
    case FaultKind::kDmaWordError:
      insert_sorted(cluster_state(e.cluster).word_errors);
      break;
    case FaultKind::kTcdmBitFlip:
      insert_sorted(cluster_state(e.cluster).bitflips);
      break;
    case FaultKind::kClusterStall: {
      PerCluster& pc = cluster_state(e.cluster);
      pc.stall_cycle = std::min(pc.stall_cycle, e.cycle);
      break;
    }
  }
}

bool FaultPlan::empty() const {
  if (!throttles_.empty()) return false;
  for (const PerCluster& pc : per_cluster_) {
    if (!pc.word_errors.empty() || !pc.bitflips.empty() ||
        pc.stall_cycle != kNever) {
      return false;
    }
  }
  return true;
}

FaultPlan::PerCluster& FaultPlan::cluster_state(u32 cluster) {
  if (cluster >= per_cluster_.size()) per_cluster_.resize(cluster + 1);
  return per_cluster_[cluster];
}

bool FaultPlan::dma_deny(u32 cluster, Cycle now) {
  if (cluster >= per_cluster_.size()) return false;
  PerCluster& pc = per_cluster_[cluster];
  // Activate every window whose start has passed; overlapping windows merge
  // into one active span (max end). Each activation is traced once.
  while (pc.we_cur < pc.word_errors.size() &&
         pc.word_errors[pc.we_cur].cycle <= now) {
    const FaultEvent& e = pc.word_errors[pc.we_cur];
    pc.we_active_until =
        std::max(pc.we_active_until, e.cycle + e.duration);
    pc.fired.push_back({e.kind, cluster, e.cycle, e.payload});
    ++pc.we_cur;
  }
  if (now < pc.we_active_until) {
    ++pc.denied_words;
    return true;
  }
  return false;
}

u32 FaultPlan::hbm_keep_percent(Cycle now) {
  // Throttle lists are tiny (a handful of events per storm); a linear scan
  // per system cycle is cheaper than maintaining an interval structure.
  u32 keep = 100;
  for (std::size_t i = 0; i < throttles_.size(); ++i) {
    const FaultEvent& e = throttles_[i];
    if (e.cycle > now) break;  // sorted: nothing later has started
    if (now < e.cycle + e.duration) {
      keep = std::min(keep, static_cast<u32>(e.payload));
      if (!throttle_fired_[i]) {
        throttle_fired_[i] = 1;
        hbm_fired_.push_back({e.kind, e.cluster, e.cycle, e.payload});
      }
    }
  }
  return keep;
}

bool FaultPlan::stall_due(u32 cluster, Cycle now) {
  if (cluster >= per_cluster_.size()) return false;
  PerCluster& pc = per_cluster_[cluster];
  if (pc.stalled) return true;
  if (now >= pc.stall_cycle) {
    pc.stalled = true;
    pc.fired.push_back({FaultKind::kClusterStall, cluster, pc.stall_cycle, 0});
    return true;
  }
  return false;
}

bool FaultPlan::take_bitflip(u32 cluster, Cycle now, u64* payload) {
  if (cluster >= per_cluster_.size()) return false;
  PerCluster& pc = per_cluster_[cluster];
  if (pc.bf_cur < pc.bitflips.size() && pc.bitflips[pc.bf_cur].cycle <= now) {
    const FaultEvent& e = pc.bitflips[pc.bf_cur];
    *payload = e.payload;
    pc.fired.push_back({e.kind, cluster, e.cycle, e.payload});
    ++pc.bf_cur;
    return true;
  }
  return false;
}

bool FaultPlan::fired(FaultKind kind, u32 cluster) const {
  if (kind == FaultKind::kHbmThrottle) return !hbm_fired_.empty();
  if (cluster >= per_cluster_.size()) return false;
  const PerCluster& pc = per_cluster_[cluster];
  return std::any_of(pc.fired.begin(), pc.fired.end(),
                     [&](const FiredFault& f) { return f.kind == kind; });
}

u64 FaultPlan::denied_words(u32 cluster) const {
  if (cluster >= per_cluster_.size()) return 0;
  return per_cluster_[cluster].denied_words;
}

std::vector<FiredFault> FaultPlan::trace() const {
  std::vector<FiredFault> out = hbm_fired_;
  for (const PerCluster& pc : per_cluster_) {
    out.insert(out.end(), pc.fired.begin(), pc.fired.end());
  }
  // Canonical order makes the trace comparable across runs, whatever order
  // the clusters hit their events in.
  std::sort(out.begin(), out.end(), [](const FiredFault& a,
                                       const FiredFault& b) {
    if (a.cluster != b.cluster) return a.cluster < b.cluster;
    if (a.cycle != b.cycle) return a.cycle < b.cycle;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.payload < b.payload;
  });
  return out;
}

std::string FaultPlan::trace_string() const {
  std::ostringstream oss;
  for (const FiredFault& f : trace()) {
    oss << fault_kind_name(f.kind) << " g=" << f.cluster
        << " cycle=" << f.cycle << " payload=0x" << std::hex << f.payload
        << std::dec << "\n";
  }
  return oss.str();
}

void FaultPlan::rewind() {
  for (PerCluster& pc : per_cluster_) {
    pc.we_cur = 0;
    pc.we_active_until = 0;
    pc.bf_cur = 0;
    pc.stalled = false;
    pc.denied_words = 0;
    pc.fired.clear();
  }
  throttle_fired_.assign(throttles_.size(), 0);
  hbm_fired_.clear();
}

}  // namespace saris
