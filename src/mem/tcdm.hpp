// Tightly coupled data memory (TCDM) model.
//
// 128 KiB across 32 banks of 64-bit words, single-cycle access, per-bank
// round-robin arbitration among requester ports — matching the Snitch
// cluster's memory subsystem at the fidelity needed to reproduce bank-
// conflict behaviour. Requesters obtain a port, post at most one request per
// cycle, and receive the response at the start of the next cycle. A request
// that loses arbitration stays pending and retries automatically.
//
// A port is busy from post() until its response is taken. A requester's own
// in-flight state is its port-busy state (SsrLane::inflight_data_,
// SsrUnit::idx_inflight_lane_, FpSubsystem::lsu_busy_, Core's LSU waits,
// Dma::busy_mask_), so requesters never poll port_idle(). post() checks the
// port and aborts on a busy one, which catches any drift in that state.
//
// bank_of is the one definition of which bank an address hits. Under ideal
// arbitration the TCDM counts every port's grants per bank (bank_grants):
// the static cost pass reads bank traffic off that record.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace saris {

inline constexpr u32 kTcdmSizeBytes = 128 * 1024;
inline constexpr u32 kTcdmBanks = 32;

class Tcdm {
 public:
  explicit Tcdm(u32 size_bytes = kTcdmSizeBytes);

  /// Register a requester; returns its port id. `name` is for diagnostics.
  u32 make_port(std::string name);
  u32 num_ports() const { return static_cast<u32>(ports_.size()); }

  /// True iff the port has neither a pending request nor an unread response.
  /// For tests; requesters track this themselves (see the file comment).
  bool port_idle(u32 port) const {
    SARIS_CHECK(port < ports_.size(), "bad port " << port);
    const Port& p = ports_[port];
    return !p.pending && !p.resp_ready;
  }

  /// Post a request (port must be idle). `size` in {2,4,8} bytes; accesses
  /// must not cross a 64-bit word boundary (they never do in our kernels).
  void post(u32 port, Addr addr, u32 size, bool is_write, u64 wdata);

  /// Resolve this cycle's arbitration; at most one grant per bank.
  ///
  /// Cost is O(pending requests): banks with no request posted are never
  /// visited. Each bank grants the pending port nearest at or after its
  /// round-robin pointer, circularly in port order, and counts every other
  /// pending port on that bank as a conflict. tests/test_arbiter_equiv.cpp
  /// pins the outcome of adversarial random traffic to a recorded digest.
  void arbitrate(Cycle now);

  /// Grant *every* pending request each cycle instead of one per bank — a
  /// conflict-free TCDM with unchanged single-cycle response timing. The
  /// static cost pass (analysis/cost.hpp) prices a cell by running it on
  /// this memory; it is not a paper configuration. Requests to one bank in
  /// one cycle are granted in post order, so a read posted after a write to
  /// the same word sees the written value and one posted before it does
  /// not. The arbitrated run grants such a pair in round-robin order
  /// instead, so values may differ from it when two ports touch the same
  /// word in the same cycle. In this mode the TCDM also counts each port's
  /// grants per bank (bank_grants); arbitrated runs count none.
  void set_ideal_arbitration(bool on) {
    ideal_ = on;
    if (on) bank_grants_.resize(kTcdmBanks * ports_.size());
  }

  /// Response interface (valid from the cycle after the grant).
  bool response_ready(u32 port) const {
    SARIS_CHECK(port < ports_.size(), "bad port " << port);
    return ports_[port].resp_ready;
  }
  u64 take_response(u32 port) {
    SARIS_CHECK(port < ports_.size(), "bad port " << port);
    Port& p = ports_[port];
    SARIS_CHECK(p.resp_ready, "no response on port " << port_names_[port]);
    p.resp_ready = false;
    return p.rdata;
  }

  // ---- zero-time host access (test setup, verification, DMA data path) ----
  void host_write(Addr addr, const void* src, u32 len);
  void host_read(Addr addr, void* dst, u32 len) const;
  u64 host_read_u64(Addr addr) const;
  void host_write_u64(Addr addr, u64 v);
  double host_read_f64(Addr addr) const;
  void host_write_f64(Addr addr, double v);

  u32 size_bytes() const { return static_cast<u32>(mem_.size()); }
  static constexpr u32 num_banks() { return kTcdmBanks; }
  static constexpr u32 bank_of(Addr addr) {
    return (addr / kWordBytes) % kTcdmBanks;
  }

  // ---- statistics ----
  u64 total_accesses() const { return total_accesses_; }
  u64 total_conflicts() const { return total_conflicts_; }
  u64 port_conflicts(u32 port) const;
  u64 port_accesses(u32 port) const;
  /// Grants of `port` on `bank` under ideal arbitration; 0 for a port that
  /// never ran in that mode.
  u64 bank_grants(u32 port, u32 bank) const;

 private:
  struct Port {
    bool pending = false;
    bool resp_ready = false;
    Addr addr = 0;
    u32 size = 0;
    bool is_write = false;
    u64 wdata = 0;
    u64 rdata = 0;
    u64 accesses = 0;
    u64 conflicts = 0;
  };

  /// [addr, addr + len) lies inside the memory. Written so that no sum can
  /// wrap: a 32-bit addr + len past 4 GiB would otherwise pass.
  bool in_range(Addr addr, u32 len) const {
    return len <= mem_.size() && addr <= mem_.size() - len;
  }
  u64 do_access(Port& p);
  void grant(u32 winner, u32 bank);
  void arbitrate_sparse();
  void arbitrate_ideal();

  std::vector<u8> mem_;
  std::vector<Port> ports_;
  std::vector<std::string> port_names_;  ///< diagnostics, by port id
  /// Per-bank round-robin pointer, < num_ports.
  std::array<u32, kTcdmBanks> rr_next_{};

  // Pending-work tracking, populated at post() time so arbitration only
  // ever touches banks with work. A port has at most one request pending,
  // so bank b's list is the num_ports() slots from b * num_ports() in
  // pending_, of which the first bank_count_[b] are in use.
  std::vector<u32> pending_;
  std::array<u32, kTcdmBanks> bank_count_{};
  std::array<u32, kTcdmBanks> active_banks_{};  ///< first num_active_ used
  u32 num_active_ = 0;
  bool ideal_ = false;

  u64 total_accesses_ = 0;
  u64 total_conflicts_ = 0;
  /// Ideal mode only: grants of port p on bank b at p * kTcdmBanks + b.
  std::vector<u64> bank_grants_;
};

}  // namespace saris
