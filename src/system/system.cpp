#include "system/system.hpp"

#include <atomic>
#include <barrier>
#include <thread>

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

Cycle System::run_until(const std::function<bool(u32)>& done, u32 threads,
                        Cycle max_cycles, const std::string& label,
                        const std::function<void(u32)>& after_tick,
                        u32 batch,
                        const std::function<bool(u32)>& may_spawn_dma) {
  const Cycle start = now_;
  const u32 g_count = num_clusters();
  std::vector<u8> finished(g_count, 0);
  if (batch == 0) batch = 1;

  // Per-cluster cycle body, identical in the serial and parallel paths:
  // re-evaluate done at each boundary, tick only unfinished clusters.
  auto eval_done = [&](u32 g) {
    if (!finished[g] && done(g)) finished[g] = 1;
  };
  auto tick = [&](u32 g) {
    if (finished[g]) return;
    clusters_[g]->step();
    if (after_tick) after_tick(g);
  };

  // Cycles the coming batch may legally run without re-synchronizing, from
  // the exact state visible at the serial point. The credit cap is one DMA
  // datapath round — a demanding engine can drain it in a single cycle —
  // so with bandwidth arbitration on, any unfinished cluster whose DMA
  // holds work (or whose after_tick may stage work mid-batch, making it
  // demand credits no boundary has dealt) forces per-cycle dealing. In the
  // legal cases the per-cycle deals are state-independent (no demand, or
  // an unarbitrated frontend whose begin_cycle is a pure counter), so
  // front-loading them at the boundary is bit-identical to batch = 1.
  auto legal_batch = [&]() -> u32 {
    if (batch <= 1) return 1;
    u32 b = batch;
    // Never run past the hang guard: the boundary that would trip it must
    // be reached exactly as with batch = 1 (a batch overshooting
    // max_cycles could let a barely-late run succeed that per-cycle
    // ticking would abort). elapsed < max_cycles was checked just before,
    // so at least one cycle remains.
    const Cycle left = max_cycles - (now_ - start);
    if (left < b) b = static_cast<u32>(left);
    if (b > 1 && hbm_->limited()) {
      for (u32 g = 0; g < g_count; ++g) {
        if (finished[g]) continue;
        if (!clusters_[g]->dma().idle()) return 1;
        if (may_spawn_dma && may_spawn_dma(g)) return 1;
      }
    }
    return b;
  };

  u32 n = threads == 0 ? 1 : threads;
  if (n > g_count) n = g_count;

  if (n <= 1) {
    for (;;) {
      u32 left = 0;
      for (u32 g = 0; g < g_count; ++g) {
        eval_done(g);
        if (!finished[g]) ++left;
      }
      if (left == 0) break;
      if (now_ - start >= max_cycles) {
        SARIS_RAISE(SimErrc::kMaxCyclesExceeded, now_ - start,
                    label << ": system did not finish within " << max_cycles
                          << " cycles (" << (now_ - start) << " elapsed)");
      }
      const u32 b = legal_batch();
      for (u32 j = 0; j < b; ++j) hbm_->begin_cycle();
      now_ += b;
      for (u32 j = 0; j < b; ++j) {
        for (u32 g = 0; g < g_count; ++g) tick(g);
      }
    }
    return now_ - start;
  }

  // Parallel ticking: worker t owns the fixed cluster set {g : g % n == t}.
  // One barrier per batch; its completion step (runs on exactly one thread,
  // after every worker arrived and before any is released) is the serial
  // point that checks termination, sizes the batch, and deals the HBM
  // credits — so the grant schedule, and hence every simulated bit, matches
  // the serial loop above. A max_cycles overrun is only latched here: the
  // completion step is noexcept and runs on whichever worker arrived last,
  // so the labeled SARIS_CHECK is raised from the calling thread after the
  // pool joins instead of terminating mid-barrier.
  std::atomic<u32> unfinished{g_count};
  std::atomic<bool> stop{false};
  bool overrun = false;   // completion-step-owned; read after the join
  u32 batch_now = 1;      // completion-step-owned; workers read post-barrier
  auto on_cycle_boundary = [&]() noexcept {
    if (unfinished.load(std::memory_order_relaxed) == 0) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    if (now_ - start >= max_cycles) {
      overrun = true;
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    const u32 b = legal_batch();
    batch_now = b;
    for (u32 j = 0; j < b; ++j) hbm_->begin_cycle();
    now_ += b;
  };
  std::barrier sync(n, on_cycle_boundary);

  auto worker = [&](u32 t) {
    for (;;) {
      for (u32 g = t; g < g_count; g += n) {
        bool was = finished[g];
        eval_done(g);
        if (!was && finished[g]) {
          unfinished.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();
      if (stop.load(std::memory_order_relaxed)) return;
      for (u32 j = 0; j < batch_now; ++j) {
        for (u32 g = t; g < g_count; g += n) tick(g);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (u32 t = 1; t < n; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& w : pool) w.join();
  if (overrun) {
    SARIS_RAISE(SimErrc::kMaxCyclesExceeded, now_ - start,
                label << ": system did not finish within " << max_cycles
                      << " cycles (" << (now_ - start) << " elapsed)");
  }
  return now_ - start;
}

}  // namespace saris
