// Abstract interpretation of the integer subset of a compiled kernel.
//
// The Snitch kernels our code generators emit are statically bounded: the
// integer core only ever computes addresses and loop counters from
// compile-time constants (the register file is zeroed at reset, and nothing
// in the generated code loads a value that later feeds an address or a
// branch). That makes a concrete walk of the integer instruction stream a
// sound static analysis: every kLw/kSw/kLh/kSh effective address, every
// fld/fsd target and every SSR address-generator stream can be enumerated
// exactly and checked against the KernelLayout's TCDM arenas.
//
// Values that ARE runtime-dependent (int loads, rdcycle) are tracked as
// "unknown"; an unknown value reaching an address is an error (the program
// is not statically boundable), an unknown branch condition aborts the walk
// with a warning (the analysis is incomplete, not the program wrong).
//
// The walk is exact but not element by element where it need not be: a
// stream or gather none of whose accesses can make a finding is accounted
// in one pass, and a loop whose trace repeats with registers moving by
// constants is accounted for many iterations at once (absint.cpp). Anything
// else is stepped, so every finding is the same. Each overlap DMA job gets
// the TCDM extent check Dma::push applies at run time.
//
// As a by-product the walk records, per TCDM requester port, the exact
// number of accesses and the per-bank access histogram. Those counts are
// schedule-independent in the simulator (arbitration delays requests, it
// never reroutes or drops them), so they double as a static cross-check of
// the simulator's port statistics, and they show whether any bank has two
// core requesters (AbsintResult::conflict_free).
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "runtime/compiled_kernel.hpp"

namespace saris {

/// TCDM port kinds of one core, in the order the simulator registers them
/// (SsrUnit's shared index port, the three SSR lane data ports, the FP LSU,
/// the integer LSU). Core c's ports occupy simulator port ids
/// [c * kCorePorts, (c+1) * kCorePorts); the DMA ports follow all cores.
inline constexpr u32 kCorePorts = 6;
enum CorePort : u32 {
  kPortSsrIdx = 0,
  kPortSsr0 = 1,
  kPortSsr1 = 2,
  kPortSsr2 = 3,
  kPortFlsu = 4,
  kPortIlsu = 5,
};
const char* core_port_name(u32 port);

/// One named TCDM address range the layout assigns meaning to.
struct Arena {
  Addr begin = 0;
  Addr end = 0;  ///< half-open
  std::string name;
  bool writable = false;
};

/// The layout's arenas plus the TCDM bound, for address legality checks.
struct ArenaMap {
  u32 tcdm_bytes = 0;
  std::vector<Arena> arenas;
  bool disjoint = false;  ///< no two arenas overlap

  static ArenaMap from_layout(const KernelLayout& lay, u32 tcdm_bytes);
  /// Index into `arenas` of the first arena containing [addr, addr+size), or
  /// -1. When the arenas are disjoint, at most one holds the range, so
  /// `hint` (an earlier result) is tried before the scan.
  i32 find(Addr addr, u32 size, i32 hint = -1) const;
};

/// Predicted access counts for one TCDM requester port.
struct PortPrediction {
  u64 accesses = 0;
  std::vector<u64> per_bank;  ///< size = kTcdmBanks

  void account(Addr addr) {
    ++accesses;
    per_bank[Tcdm::bank_of(addr)] += 1;
  }
};

struct CorePrediction {
  std::array<PortPrediction, kCorePorts> ports;
  /// True when the walk reached kHalt with every address bounded; false
  /// after an unknown branch, a budget overrun, or a fatal address error.
  bool complete = false;
  u64 int_steps = 0;
};

struct AbsintResult {
  std::vector<CorePrediction> cores;
  /// Per TCDM bank, the number of core ports whose walk touched it.
  std::array<u32, kTcdmBanks> bank_requesters{};
  bool all_complete = false;

  /// No bank has two core requesters. A port posts at most one request per
  /// cycle and a bank's lone pending request is granted, so the cores'
  /// traffic then never conflicts (the overlap DMA's may).
  bool conflict_free() const {
    return std::all_of(bank_requesters.begin(), bank_requesters.end(),
                       [](u32 n) { return n <= 1; });
  }
};

/// Walk every core's program and range-check the overlap DMA jobs. Appends
/// diagnostics for out-of-arena / out-of-TCDM accesses, bad scfgwi
/// configuration, unbounded values and budget overruns.
AbsintResult abstract_interpret(const CompiledKernel& ck,
                                std::vector<Diagnostic>& diags);

}  // namespace saris
