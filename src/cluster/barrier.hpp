// Cluster hardware barrier: cores arrive and stall until all have arrived;
// release happens a fixed number of cycles later (synchronizer cost).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace saris {

inline constexpr u32 kBarrierReleaseDelay = 2;

class Barrier {
 public:
  explicit Barrier(u32 num_cores);

  void arrive(u32 core);
  /// May `core` proceed (i.e. it is not currently held at the barrier)?
  bool released(u32 core) const;
  /// Called once per cycle by the cluster after all cores ticked.
  void tick(Cycle now);

  u64 episodes() const { return episodes_; }

 private:
  std::vector<bool> waiting_;
  u32 arrived_ = 0;
  bool release_pending_ = false;
  Cycle release_at_ = 0;
  u64 episodes_ = 0;
};

}  // namespace saris
