#include "cluster/cluster.hpp"

#include "common/log.hpp"

namespace saris {

Cluster::Cluster(const ClusterConfig& cfg)
    : cfg_(cfg),
      tcdm_(cfg.tcdm_bytes, cfg.tcdm_banks),
      owned_mem_(std::make_unique<MainMemory>(cfg.main_mem_bytes)),
      owned_port_(std::make_unique<DirectMemoryPort>(*owned_mem_)),
      barrier_(cfg.num_cores) {
  init(*owned_port_);
}

Cluster::Cluster(const ClusterConfig& cfg, MemoryPort& mem_port,
                 u32 cluster_id)
    : cfg_(cfg),
      id_(cluster_id),
      tcdm_(cfg.tcdm_bytes, cfg.tcdm_banks),
      barrier_(cfg.num_cores) {
  init(mem_port);
}

void Cluster::init(MemoryPort& mem_port) {
  for (u32 i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, tcdm_, barrier_));
  }
  dma_ = std::make_unique<Dma>(tcdm_, mem_port);
  tcdm_.set_ideal_arbitration(cfg_.ideal_tcdm);
  state_.assign(cfg_.num_cores, CoreState::kActive);
  last_ticked_.assign(cfg_.num_cores, 0);
  halted_seen_.assign(cfg_.num_cores, false);
  active_ids_.reserve(cfg_.num_cores);
  for (u32 i = 0; i < cfg_.num_cores; ++i) active_ids_.push_back(i);
}

void Cluster::rearm() {
  for (auto& c : cores_) c->rearm();
  barrier_.reset();
  tcdm_.reset();
  dma_->reset();
  now_ = 0;
  state_.assign(cfg_.num_cores, CoreState::kActive);
  last_ticked_.assign(cfg_.num_cores, 0);
  halted_seen_.assign(cfg_.num_cores, false);
  just_deactivated_.clear();
  active_ids_.clear();
  for (u32 i = 0; i < cfg_.num_cores; ++i) active_ids_.push_back(i);
  halted_count_ = 0;
  barrier_episodes_seen_ = 0;
}

Core& Cluster::core(u32 i) {
  SARIS_CHECK(i < cores_.size(), "bad core index " << i);
  return *cores_[i];
}

MainMemory& Cluster::mem() {
  SARIS_CHECK(owned_mem_ != nullptr,
              "cluster " << id_ << " uses an external (system-shared) main "
                            "memory; it has no private one");
  return *owned_mem_;
}

void Cluster::step() {
  just_deactivated_.clear();

  // A retired or parked core can only come back to life from the outside
  // (load_program/reset between runs); re-admit such cores before ticking.
  if (active_ids_.size() < cores_.size()) {
    for (u32 id = 0; id < cores_.size(); ++id) {
      if ((state_[id] == CoreState::kRetired && !cores_[id]->halted()) ||
          (state_[id] == CoreState::kParked &&
           !cores_[id]->waiting_at_barrier())) {
        reactivate(id);
      }
    }
  }

  for (u32 id : active_ids_) cores_[id]->tick(now_);
  dma_->tick(now_);
  tcdm_.arbitrate(now_);
  barrier_.tick(now_);
  update_core_states();
  ++now_;
}

void Cluster::update_core_states() {
  // Wake parked cores first: if the barrier released this very cycle, a
  // would-be parker must not park (it proceeds next tick, as it would if
  // every core were ticked every cycle).
  if (barrier_.episodes() != barrier_episodes_seen_) {
    barrier_episodes_seen_ = barrier_.episodes();
    for (u32 id = 0; id < cores_.size(); ++id) {
      if (state_[id] == CoreState::kParked) wake(id);
    }
  }

  // Park newly idle barrier-waiters, retire halted cores whose ports have
  // drained. Cores halted with a write ack still in flight stay active for
  // the one tick that swallows it.
  for (std::size_t i = 0; i < active_ids_.size();) {
    const u32 id = active_ids_[i];
    Core& c = *cores_[id];
    if (c.halted() && !halted_seen_[id]) {
      halted_seen_[id] = true;
      ++halted_count_;
    }
    if (c.quiescent() &&
        (c.halted() ||
         (c.waiting_at_barrier() && !barrier_.released(id)))) {
      state_[id] = c.halted() ? CoreState::kRetired : CoreState::kParked;
      last_ticked_[id] = now_;
      just_deactivated_.push_back(id);
      active_ids_[i] = active_ids_.back();
      active_ids_.pop_back();
    } else {
      ++i;
    }
  }
}

void Cluster::wake(u32 id) {
  // Ticking this core on every skipped cycle and on the release cycle
  // itself would have cost one FPU idle bump and one barrier stall each.
  // `now_` has not advanced past the release cycle yet.
  cores_[id]->credit_idle_cycles(now_ - last_ticked_[id], /*at_barrier=*/true);
  state_[id] = CoreState::kActive;
  last_ticked_[id] = now_;
  active_ids_.push_back(id);
}

void Cluster::reactivate(u32 id) {
  if (state_[id] == CoreState::kRetired) {
    SARIS_CHECK(halted_count_ > 0, "halted count underflow");
    --halted_count_;
    halted_seen_[id] = false;
  }
  state_[id] = CoreState::kActive;
  last_ticked_[id] = now_;
  active_ids_.push_back(id);
}

void Cluster::sync_idle_counters() {
  if (now_ == 0) return;
  const Cycle through = now_ - 1;  // last simulated cycle
  for (u32 id = 0; id < cores_.size(); ++id) {
    if (state_[id] == CoreState::kActive || last_ticked_[id] >= through) {
      continue;
    }
    cores_[id]->credit_idle_cycles(
        through - last_ticked_[id],
        /*at_barrier=*/state_[id] == CoreState::kParked);
    last_ticked_[id] = through;
  }
}

Cycle Cluster::run_until_halted(Cycle max_cycles) {
  Cycle start = now_;
  while (!all_halted()) {
    SARIS_CHECK(now_ - start < max_cycles,
                "cluster did not halt within " << max_cycles << " cycles");
    step();
  }
  sync_idle_counters();
  return now_ - start;
}

Cycle Cluster::run_until_dma_idle(Cycle max_cycles) {
  Cycle start = now_;
  while (!dma_->idle()) {
    SARIS_CHECK(now_ - start < max_cycles,
                "DMA did not drain within " << max_cycles << " cycles");
    step();
  }
  sync_idle_counters();
  return now_ - start;
}

}  // namespace saris
