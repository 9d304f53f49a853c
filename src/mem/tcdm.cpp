#include "mem/tcdm.hpp"

#include <cstring>

#include "common/log.hpp"

namespace saris {

Tcdm::Tcdm(u32 size_bytes) : mem_(size_bytes, 0) {
  SARIS_CHECK(size_bytes % (kTcdmBanks * kWordBytes) == 0,
              "TCDM size must be a multiple of the bank row");
}

u32 Tcdm::make_port(std::string name) {
  SARIS_CHECK(num_active_ == 0, "make_port with requests pending");
  ports_.push_back(Port{});
  port_names_.push_back(std::move(name));
  pending_.resize(kTcdmBanks * ports_.size());
  if (ideal_) bank_grants_.resize(kTcdmBanks * ports_.size());
  return static_cast<u32>(ports_.size() - 1);
}

void Tcdm::post(u32 port, Addr addr, u32 size, bool is_write, u64 wdata) {
  SARIS_CHECK(port < ports_.size(), "bad port " << port);
  Port& p = ports_[port];
  SARIS_CHECK(!p.pending && !p.resp_ready,
              "post to busy port " << port_names_[port]);
  SARIS_CHECK(size == 2 || size == 4 || size == 8, "bad access size " << size);
  SARIS_CHECK((addr & (size - 1)) == 0, "unaligned access at " << addr);
  SARIS_CHECK(in_range(addr, size),
              "TCDM access out of range: " << addr << "+" << size);
  p.pending = true;
  p.addr = addr;
  p.size = size;
  p.is_write = is_write;
  p.wdata = wdata;
  const u32 bank = bank_of(addr);
  u32& count = bank_count_[bank];
  if (count == 0) active_banks_[num_active_++] = bank;
  pending_[bank * num_ports() + count++] = port;
}

u64 Tcdm::do_access(Port& p) {
  // Nearly every access is a whole word; a constant-size copy compiles to
  // one load or store.
  u8* const at = mem_.data() + p.addr;
  u64 rdata = 0;
  if (p.is_write) {
    if (p.size == kWordBytes) {
      std::memcpy(at, &p.wdata, kWordBytes);
    } else {
      std::memcpy(at, &p.wdata, p.size);
    }
  } else if (p.size == kWordBytes) {
    std::memcpy(&rdata, at, kWordBytes);
  } else {
    std::memcpy(&rdata, at, p.size);
  }
  return rdata;
}

void Tcdm::grant(u32 winner, u32 bank) {
  Port& w = ports_[winner];
  w.rdata = do_access(w);
  w.pending = false;
  w.resp_ready = true;
  ++w.accesses;
  ++total_accesses_;
  rr_next_[bank] = winner + 1 == num_ports() ? 0 : winner + 1;
}

void Tcdm::arbitrate(Cycle /*now*/) {
  if (ideal_) {
    arbitrate_ideal();
    return;
  }
  arbitrate_sparse();
}

void Tcdm::arbitrate_ideal() {
  // Conflict-free validation mode: every pending request is granted this
  // cycle, as if each requester had a private single-cycle memory. Grants
  // within a bank happen in post order (the order of its pending list).
  // Round-robin pointers are left untouched — there are never losers.
  for (u32 bi = 0; bi < num_active_; ++bi) {
    const u32 bank = active_banks_[bi];
    const u32* const pend = &pending_[bank * num_ports()];
    for (u32 j = 0; j < bank_count_[bank]; ++j) {
      Port& p = ports_[pend[j]];
      p.rdata = do_access(p);
      p.pending = false;
      p.resp_ready = true;
      ++p.accesses;
      ++total_accesses_;
      ++bank_grants_[pend[j] * kTcdmBanks + bank];
    }
    bank_count_[bank] = 0;
  }
  num_active_ = 0;
}

void Tcdm::arbitrate_sparse() {
  // Visit only banks that have pending requests; each port has at most one
  // request in exactly one bank, so banks are independent and the visit
  // order does not affect the outcome.
  const u32 n = num_ports();
  for (u32 bi = 0; bi < num_active_;) {
    const u32 bank = active_banks_[bi];
    u32* const pend = &pending_[bank * n];
    u32& count = bank_count_[bank];
    // Round robin: the winner is the pending port with the smallest
    // circular distance from the bank's pointer. Every pending port is
    // charged a conflict in the same pass, and the winner's is taken back.
    const u32 rr = rr_next_[bank];
    u32 best_dist = n;
    u32 best_pos = 0;
    for (u32 j = 0; j < count; ++j) {
      const u32 d = pend[j] >= rr ? pend[j] - rr : pend[j] + n - rr;
      if (d < best_dist) {
        best_dist = d;
        best_pos = j;
      }
      ++ports_[pend[j]].conflicts;
    }
    const u32 winner = pend[best_pos];
    --ports_[winner].conflicts;
    total_conflicts_ += count - 1;
    grant(winner, bank);
    pend[best_pos] = pend[--count];
    if (count == 0) {
      // Swap-remove the bank; the bank swapped into slot `bi` still needs a
      // visit, so do not advance.
      active_banks_[bi] = active_banks_[--num_active_];
    } else {
      ++bi;
    }
  }
}

void Tcdm::host_write(Addr addr, const void* src, u32 len) {
  SARIS_CHECK(in_range(addr, len), "host_write out of range");
  std::memcpy(mem_.data() + addr, src, len);
}

void Tcdm::host_read(Addr addr, void* dst, u32 len) const {
  SARIS_CHECK(in_range(addr, len), "host_read out of range");
  std::memcpy(dst, mem_.data() + addr, len);
}

u64 Tcdm::host_read_u64(Addr addr) const {
  u64 v;
  host_read(addr, &v, 8);
  return v;
}

void Tcdm::host_write_u64(Addr addr, u64 v) { host_write(addr, &v, 8); }

double Tcdm::host_read_f64(Addr addr) const {
  double v;
  host_read(addr, &v, 8);
  return v;
}

void Tcdm::host_write_f64(Addr addr, double v) { host_write(addr, &v, 8); }

u64 Tcdm::port_conflicts(u32 port) const {
  SARIS_CHECK(port < ports_.size(), "bad port");
  return ports_[port].conflicts;
}

u64 Tcdm::port_accesses(u32 port) const {
  SARIS_CHECK(port < ports_.size(), "bad port");
  return ports_[port].accesses;
}

u64 Tcdm::bank_grants(u32 port, u32 bank) const {
  SARIS_CHECK(port < ports_.size() && bank < kTcdmBanks, "bad port or bank");
  const std::size_t i = std::size_t{port} * kTcdmBanks + bank;
  return i < bank_grants_.size() ? bank_grants_[i] : 0;
}

}  // namespace saris
