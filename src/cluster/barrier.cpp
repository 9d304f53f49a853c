#include "cluster/barrier.hpp"

#include "common/log.hpp"

namespace saris {

Barrier::Barrier(u32 num_cores) : waiting_(num_cores, false) {}

void Barrier::arrive(u32 core) {
  SARIS_CHECK(core < waiting_.size(), "bad core id " << core);
  SARIS_CHECK(!waiting_[core], "double arrival at barrier");
  waiting_[core] = true;
  ++arrived_;
}

bool Barrier::released(u32 core) const {
  SARIS_CHECK(core < waiting_.size(), "bad core id " << core);
  return !waiting_[core];
}

void Barrier::tick(Cycle now) {
  if (!release_pending_ && arrived_ == waiting_.size()) {
    release_pending_ = true;
    release_at_ = now + kBarrierReleaseDelay;
  }
  if (release_pending_ && now >= release_at_) {
    for (std::size_t i = 0; i < waiting_.size(); ++i) waiting_[i] = false;
    arrived_ = 0;
    release_pending_ = false;
    ++episodes_;
  }
}

}  // namespace saris
