#include "system/system.hpp"

#include "common/log.hpp"
#include "common/sim_error.hpp"

namespace saris {

System::System(const SystemConfig& cfg)
    : cfg_(cfg),
      mem_(static_cast<u64>(cfg.clusters) * cfg.arena_bytes) {
  if (cfg.clusters < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0, "a System needs at least one cluster");
  }
  if (cfg.arena_bytes == 0 || cfg.arena_bytes % MainMemory::kChunkBytes != 0) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "arena_bytes must be a positive multiple of the memory chunk "
                "size (" << MainMemory::kChunkBytes << " B), got "
                         << cfg.arena_bytes);
  }
  // G=1 forced pass-through: see SystemConfig::hbm_limit.
  bool limited = cfg.hbm_limit && cfg.clusters > 1;
  hbm_ = std::make_unique<HbmFrontend>(mem_, cfg.hbm, cfg.clusters,
                                       cfg.arena_bytes, limited);
  clusters_.resize(cfg.clusters);
  for (u32 g = 0; g < cfg.clusters; ++g) fresh_cluster(g);
}

Cluster& System::cluster(u32 g) {
  SARIS_CHECK(g < clusters_.size(), "bad cluster index " << g);
  return *clusters_[g];
}

Cluster& System::fresh_cluster(u32 g) {
  SARIS_CHECK(g < clusters_.size(), "bad cluster index " << g);
  HbmFrontend::Port& port = hbm_->port(g);
  clusters_[g] = nullptr;  // never two clusters g alive at once
  clusters_[g] = std::make_unique<Cluster>(cfg_.cluster, port, g);
  port.set_client(&clusters_[g]->dma());
  return *clusters_[g];
}

Cycle System::run_until(const std::function<bool(u32)>& done,
                        Cycle max_cycles, const std::string& label,
                        const std::function<void(u32)>& after_tick) {
  const Cycle start = now_;
  const u32 g_count = num_clusters();
  std::vector<u8> ticking(g_count, 0);
  for (;;) {
    bool any = false;
    for (u32 g = 0; g < g_count; ++g) {
      ticking[g] = done(g) ? 0 : 1;
      any = any || ticking[g];
    }
    if (!any) return now_ - start;
    if (now_ - start >= max_cycles) {
      SARIS_RAISE(SimErrc::kMaxCyclesExceeded, now_ - start,
                  label << ": system did not finish within " << max_cycles
                        << " cycles (" << (now_ - start) << " elapsed)");
    }
    hbm_->begin_cycle();
    ++now_;
    for (u32 g = 0; g < g_count; ++g) {
      if (!ticking[g]) continue;
      clusters_[g]->step();
      if (after_tick) after_tick(g);
    }
  }
}

}  // namespace saris
