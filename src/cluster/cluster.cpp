#include "cluster/cluster.hpp"

#include "common/log.hpp"

namespace saris {

Cluster::Cluster(const ClusterConfig& cfg)
    : cfg_(cfg),
      tcdm_(cfg.tcdm_bytes),
      owned_mem_(std::make_unique<MainMemory>(kClusterMemBytes)),
      owned_port_(std::make_unique<DirectMemoryPort>(*owned_mem_)),
      barrier_(cfg.num_cores) {
  init(*owned_port_);
}

Cluster::Cluster(const ClusterConfig& cfg, MemoryPort& mem_port,
                 u32 cluster_id)
    : cfg_(cfg),
      id_(cluster_id),
      tcdm_(cfg.tcdm_bytes),
      barrier_(cfg.num_cores) {
  init(mem_port);
}

void Cluster::init(MemoryPort& mem_port) {
  for (u32 i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, tcdm_, barrier_));
  }
  dma_ = std::make_unique<Dma>(tcdm_, mem_port);
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
  for (auto& c : cores_) c->tick(now_);
  dma_->tick(now_);
  tcdm_.arbitrate(now_);
  barrier_.tick(now_);
  ++now_;
}

Cycle Cluster::run_until_halted(Cycle max_cycles) {
  const Cycle start = now_;
  while (!all_halted() && now_ - start < max_cycles) step();
  return now_ - start;
}

}  // namespace saris
