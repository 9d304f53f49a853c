#include "system/hbm_frontend.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "fault/fault_plan.hpp"
#include "mem/dma.hpp"

namespace saris {

namespace {
/// Per-port credit cap: one full DMA datapath round. Credits bank across
/// cycles only up to this, so a port that goes quiet cannot hoard bandwidth
/// and a hungry port can still burst a whole datapath width in one cycle.
constexpr u32 kCreditCapBytes = kDmaWidthBytes;
constexpr u64 kWordFp = static_cast<u64>(kWordBytes) << 16;
}  // namespace

HbmFrontend::HbmFrontend(MainMemory& mem, const HbmConfig& hbm, u32 num_ports,
                         u64 arena_bytes, bool limited)
    : mem_(mem), hbm_(hbm), limited_(limited) {
  validate(hbm);
  SARIS_CHECK(num_ports >= 1, "HBM frontend needs at least one port");
  SARIS_CHECK(arena_bytes >= 1 &&
                  mem.size_bytes() >= static_cast<u64>(num_ports) * arena_bytes,
              "shared memory smaller than " << num_ports << " x "
                                            << arena_bytes << " B arenas");
  for (u32 g = 0; g < num_ports; ++g) {
    ports_.emplace_back(
        new Port(*this, static_cast<u64>(g) * arena_bytes, arena_bytes));
  }
  // Exact 16.16 rate from the one HbmConfig formula (floored, so the dealt
  // budget can never exceed the configured bandwidth); utilization() is
  // measured against this same fixed-point budget and is therefore <= 1 by
  // construction. llround here used to over-grant whenever the fractional
  // part rounded up, letting long saturated runs report > 100% utilization.
  rate_fp_ = hbm_.bytes_per_cycle_fp_for_clusters(num_ports);
  if (limited_ && rate_fp_ == 0) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "HbmConfig: gbps_per_pin " << hbm.gbps_per_pin
                    << " x pins_per_device " << hbm.pins_per_device
                    << " / freq_ghz " << hbm.freq_ghz
                    << " rounds to zero bytes/cycle");
  }
}

HbmFrontend::Port& HbmFrontend::port(u32 g) {
  SARIS_CHECK(g < ports_.size(), "bad HBM port index " << g);
  return *ports_[g];
}

void HbmFrontend::begin_cycle() {
  ++cycles_;
  if (!limited_) return;

  // Latch demand: a port wants bandwidth iff its cluster's DMA has work
  // (job active, queued, or words in flight).
  for (auto& p : ports_) {
    p->demand_ = !p->quarantined_ &&
                 (p->client_ ? !p->client_->idle() : p->manual_demand_);
  }

  // An active injected HBM-throttle window scales this cycle's fresh budget
  // to its keep-percent (0 = blackout: every demanding DMA word is denied
  // until the window passes).
  u64 rate = rate_fp_;
  if (faults_) rate = rate * faults_->hbm_keep_percent(cycles_) / 100;

  // Deal the cycle's budget in word quanta, one word per demanding port per
  // round, starting at the rotating pointer. Ports at the credit cap stop
  // receiving; whole words nobody can take are lost (a streaming link does
  // not bank idle bandwidth), but the sub-word remainder carries so
  // fractional rates (e.g. 6.4 words/cycle) average out exactly.
  u64 budget = carry_fp_ + rate;
  bool dealt = true;
  while (budget >= kWordFp && dealt) {
    dealt = false;
    for (u32 k = 0; k < ports_.size() && budget >= kWordFp; ++k) {
      Port& p = *ports_[(rr_ + k) % ports_.size()];
      if (!p.demand_ || p.credit_bytes_ + kWordBytes > kCreditCapBytes) {
        continue;
      }
      p.credit_bytes_ += kWordBytes;
      budget -= kWordFp;
      dealt = true;
    }
  }
  rr_ = (rr_ + 1) % static_cast<u32>(ports_.size());
  carry_fp_ = std::min(budget, kWordFp - 1);
}

bool HbmFrontend::Port::acquire_word() {
  if (!owner_.limited_) return true;
  if (credit_bytes_ >= kWordBytes) {
    credit_bytes_ -= kWordBytes;
    granted_bytes_ += kWordBytes;
    return true;
  }
  ++denied_;
  return false;
}

void HbmFrontend::Port::check_window(u64 addr, u64 len) const {
  SARIS_CHECK(addr >= base_ && len <= span_ && addr - base_ <= span_ - len,
              "access [" << addr << ", +" << len
                         << ") outside this cluster's arena [" << base_
                         << ", +" << span_ << ")");
}

void HbmFrontend::Port::read(u64 addr, void* dst, u64 len) {
  check_window(addr, len);
  owner_.mem_.read(addr, dst, len);
}

void HbmFrontend::Port::write(u64 addr, const void* src, u64 len) {
  check_window(addr, len);
  owner_.mem_.write(addr, src, len);
}

u64 HbmFrontend::granted_bytes() const {
  u64 n = 0;
  for (const auto& p : ports_) n += p->granted_bytes_;
  return n;
}

u64 HbmFrontend::denied_grants() const {
  u64 n = 0;
  for (const auto& p : ports_) n += p->denied_;
  return n;
}

double HbmFrontend::utilization() const {
  return utilization_of(granted_bytes(), cycles_);
}

double HbmFrontend::utilization_of(u64 bytes, Cycle cycles) const {
  if (!limited_ || cycles == 0) return 0.0;
  // Granted over offered, both in the frontend's own 16.16 budget units:
  // grants draw from the dealt budget and the dealt budget is bounded by
  // cycles * rate_fp_, so with bytes granted inside the window this ratio
  // cannot exceed 1 (test-enforced).
  return static_cast<double>(bytes) * 65536.0 /
         (static_cast<double>(rate_fp_) * static_cast<double>(cycles));
}

}  // namespace saris
