#include "analysis/absint.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/known_regs.hpp"
#include "isa/disasm.hpp"
#include "mem/dma.hpp"
#include "ssr/addr_gen.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {

namespace {

constexpr u64 kIntStepBudget = 32u << 20;   ///< integer steps per core
constexpr u64 kAccessBudget = 1u << 26;     ///< accounted accesses per core
constexpr u32 kMaxAddrDiags = 8;            ///< address findings per core
constexpr u32 kMaxTrace = 4096;             ///< longest trace accelerated
constexpr u32 kHistory = 2 * kMaxTrace;     ///< latest steps' pcs kept
constexpr u64 kNever = ~u64{0};

Addr align8(Addr a) { return (a + 7u) & ~7u; }

/// The addresses base + sum_d i_d * strides[d], 0 <= i_d < bounds[d], in
/// nested-loop order with dim 0 innermost: an SSR affine stream.
struct AffinePattern {
  i64 base = 0;
  std::array<u64, kSsrMaxDims> bounds{1, 1, 1, 1};
  std::array<i64, kSsrMaxDims> strides{};

  i64 lo() const {
    i64 a = base;
    for (u32 d = 0; d < kSsrMaxDims; ++d) {
      a += std::min<i64>(0, static_cast<i64>(bounds[d] - 1) * strides[d]);
    }
    return a;
  }
  i64 hi() const {
    i64 a = base;
    for (u32 d = 0; d < kSsrMaxDims; ++d) {
      a += std::max<i64>(0, static_cast<i64>(bounds[d] - 1) * strides[d]);
    }
    return a;
  }
  /// Every address lies at the base's offset within its word.
  bool word_strided() const {
    for (u32 d = 0; d < kSsrMaxDims; ++d) {
      if (bounds[d] > 1 && strides[d] % kWordBytes != 0) return false;
    }
    return true;
  }
};

/// The element count of `pat`, or 0 when it exceeds `limit` (every bound
/// is at least 1, so the partial products never overflow). A limit of at
/// most kAccessBudget keeps lo() and hi() far from overflowing.
u64 count_within(const AffinePattern& pat, u64 limit) {
  u64 n = 1;
  for (u64 b : pat.bounds) {
    if (b == 0 || b > limit / n) return 0;
    n *= b;
  }
  return n;
}

}  // namespace

const char* core_port_name(u32 port) {
  switch (port) {
    case kPortSsrIdx: return "idx";
    case kPortSsr0: return "ssr0";
    case kPortSsr1: return "ssr1";
    case kPortSsr2: return "ssr2";
    case kPortFlsu: return "flsu";
    case kPortIlsu: return "ilsu";
    default: return "?";
  }
}

ArenaMap ArenaMap::from_layout(const KernelLayout& lay, u32 tcdm_bytes) {
  ArenaMap am;
  am.tcdm_bytes = tcdm_bytes;
  for (u32 i = 0; i < lay.inputs.size(); ++i) {
    am.arenas.push_back(Arena{lay.inputs[i],
                              lay.inputs[i] + static_cast<Addr>(lay.tile_bytes),
                              "input" + std::to_string(i), false});
  }
  am.arenas.push_back(Arena{lay.output,
                            lay.output + static_cast<Addr>(lay.tile_bytes),
                            "output", true});
  // Replica size is uniform; recover it from consecutive bases (or, for a
  // single core, from whatever allocation follows).
  if (!lay.coeffs_per_core.empty()) {
    Addr next = lay.top;
    for (const auto& specs : lay.core_idx) {
      for (const IdxArraySpec& s : specs) {
        if (s.count > 0 && s.addr < next && s.addr > lay.coeffs_per_core[0]) {
          next = s.addr;
        }
      }
    }
    const Addr sz = lay.coeffs_per_core.size() > 1
                        ? lay.coeffs_per_core[1] - lay.coeffs_per_core[0]
                        : next - lay.coeffs_per_core[0];
    for (u32 c = 0; c < lay.coeffs_per_core.size(); ++c) {
      am.arenas.push_back(Arena{lay.coeffs_per_core[c],
                                lay.coeffs_per_core[c] + sz,
                                "coeffs/c" + std::to_string(c), false});
    }
  }
  for (u32 c = 0; c < lay.core_idx.size(); ++c) {
    for (u32 l = 0; l < 2; ++l) {
      const IdxArraySpec& s = lay.core_idx[c][l];
      if (s.count == 0) continue;
      am.arenas.push_back(
          Arena{s.addr, s.addr + align8(s.count * static_cast<Addr>(2)),
                "idx/c" + std::to_string(c) + "/l" + std::to_string(l),
                false});
    }
  }
  std::vector<std::pair<Addr, Addr>> spans;
  for (const Arena& a : am.arenas) {
    if (a.begin < a.end) spans.emplace_back(a.begin, a.end);
  }
  std::sort(spans.begin(), spans.end());
  am.disjoint = true;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    am.disjoint = am.disjoint && spans[i].first >= spans[i - 1].second;
  }
  return am;
}

i32 ArenaMap::find(Addr addr, u32 size, i32 hint) const {
  auto holds = [&](u32 i) {
    return addr >= arenas[i].begin && addr + size <= arenas[i].end;
  };
  if (disjoint && hint >= 0 && holds(static_cast<u32>(hint))) return hint;
  for (u32 i = 0; i < arenas.size(); ++i) {
    if (holds(i)) return static_cast<i32>(i);
  }
  return -1;
}

namespace {

/// An integer register over one iteration of a loop trace: the value it
/// had at the iteration's start (`base` >= 0) or nothing (`base` < 0), plus
/// `off`, modulo 2^32.
struct Sym {
  i32 base = -1;
  u32 off = 0;
};

/// `in`'s integer result from operands `a` and `b`, when it stays in that
/// form.
std::optional<Sym> sym_alu(const Instr& in, Sym a, Sym b) {
  switch (in.op) {
    case Op::kAddi:
      return Sym{a.base, a.off + static_cast<u32>(in.imm)};
    case Op::kAdd:
      if (a.base < 0) return Sym{b.base, a.off + b.off};
      if (b.base < 0) return Sym{a.base, a.off + b.off};
      return std::nullopt;
    case Op::kSub:
      if (b.base < 0) return Sym{a.base, a.off - b.off};
      if (a.base == b.base) return Sym{-1, a.off - b.off};
      return std::nullopt;
    default:
      if (a.base < 0 && b.base < 0) {
        return Sym{-1, int_alu(in.op, a.off, b.off, in.imm)};
      }
      return std::nullopt;
  }
}

/// The first iteration j >= 0 at which `d + j * e` (mod 2^32) is zero, or
/// kNever.
u64 first_zero(u32 d, u32 e) {
  if (d == 0) return 0;
  if (e == 0) return kNever;
  // j * e == -d (mod 2^32): solvable when 2^t, the power of two in e,
  // divides d; then j = (-d / 2^t) * inverse(e / 2^t) mod 2^(32 - t).
  const int t = std::countr_zero(e);
  if (std::countr_zero(d) < t) return kNever;
  const u32 odd = e >> t;
  u32 inv = odd;  // Newton's iteration doubles the correct low bits
  for (int k = 0; k < 5; ++k) inv *= 2u - odd * inv;
  const u64 modulus = u64{1} << (32 - t);
  return (static_cast<u64>((0u - d) >> t) * inv) & (modulus - 1);
}

/// The accesses of a loop trace that share a base register, port, size
/// and direction. Across iterations each is a stream with the base
/// register's stride, and their addresses differ by constant offsets.
struct TraceStreams {
  i32 base = -1;  ///< register, or -1 for constant addresses
  u32 port = 0;
  u32 size = 0;
  bool is_write = false;
  u64 count = 0;  ///< accesses per iteration
  i64 lo = 0;     ///< lowest offset
  i64 hi = 0;     ///< highest offset
};

/// One conditional branch of a loop trace, with the outcome it took.
struct TraceBranch {
  Sym a;
  Sym b;
  bool equal = false;  ///< the operands compared equal
};

/// What the ops of one loop trace prove whatever the register values: each
/// register at the iteration's end, and every access and branch operand,
/// in terms of the iteration's start values.
struct TraceSummary {
  std::vector<u32> pcs;  ///< the trace
  bool ok = false;       ///< no op rules acceleration out
  u32 read_first = 0;    ///< registers read before the trace writes them
  u32 written = 0;       ///< registers the trace writes
  std::array<Sym, kNumXRegs> end{};
  std::vector<TraceStreams> streams;
  u64 accesses = 0;  ///< per iteration
  std::vector<TraceBranch> branches;
};

/// Concrete walk of one core's integer stream.
///
/// Loops are accelerated. At a loop header (a backward branch's target)
/// reached along the same pc trace as on the previous visit, the trace's
/// integer ops are evaluated symbolically. When they prove that every
/// register the trace reads before writing moves by a constant per
/// iteration, every branch operand and address is affine in the iteration
/// number. The walk finds the first iteration at which a branch changes
/// outcome and accounts all iterations before it at once: each access
/// becomes a stream, int_steps grows by the trace length per iteration and
/// the registers advance. It steps as before through traces with an scfgwi,
/// an frep, an integer load, rdcycle, an ordered compare or an unknown
/// value, through iterations that would cross the step or access budget,
/// and when any stream would make a finding.
class Walker {
 public:
  Walker(const CompiledKernel& ck, u32 core, const ArenaMap& am,
         std::vector<Diagnostic>& diags)
      : ck_(ck), prog_(ck.programs.at(core)), core_(core), am_(am),
        diags_(diags) {
    const u32 n = prog_.size();
    loop_of_.assign(n, -1);
    for (u32 pc = 0; pc < n; ++pc) {
      const Instr& in = prog_.instrs()[pc];
      if (op_class(in.op) == OpClass::kBranch && in.target <= pc &&
          loop_of_[in.target] < 0) {
        loop_of_[in.target] = static_cast<i32>(summaries_.size());
        summaries_.emplace_back();
      }
    }
    visit_.assign(n, kNever);
    prev_visit_.assign(n, kNever);
    history_.resize(kHistory);
  }

  CorePrediction run() {
    const u32 n = prog_.size();
    u32 pc = 0;
    while (pc < n) {
      if (loop_of_[pc] >= 0) visit(pc);
      history_[pred_.int_steps % kHistory] = pc;
      if (++pred_.int_steps > kIntStepBudget) {
        diag(DiagKind::kStepBudgetExceeded, DiagSeverity::kWarning, pc,
             "static execution exceeded the step budget");
        return finish(false);
      }
      if (fatal_) return finish(false);
      const Instr& in = prog_.at(pc);
      const OpDesc& d = op_desc(in.op);

      if (d.mem != MemDir::kNone) {
        if (!regs_.known(in.rs1)) {
          diag(DiagKind::kUnboundedValue, DiagSeverity::kError, pc,
               std::string(d.is_fp() ? "FP memory" : "memory") +
                   " address depends on a runtime value: " + disasm(in));
          return finish(false);
        }
        if (!access(pc, d.is_fp() ? kPortFlsu : kPortIlsu, regs_.address(in),
                    d.mem_bytes, d.mem == MemDir::kStore,
                    [&] { return disasm(in); })) {
          return finish(false);
        }
      } else if (d.cls == OpClass::kBranch) {
        switch (regs_.branch(in)) {
          case KnownRegs::Branch::kUnknown:
            diag(DiagKind::kUnboundedValue, DiagSeverity::kWarning, pc,
                 "branch condition depends on a runtime value; static "
                 "execution stops here: " +
                     disasm(in));
            return finish(false);
          case KnownRegs::Branch::kTaken:
            pc = in.target;
            continue;
          case KnownRegs::Branch::kFallThrough:
            break;
        }
      } else {
        switch (in.op) {
          case Op::kHalt:
            return finish(true);
          case Op::kFrep:
            blocked_until_ = pred_.int_steps;
            if (!regs_.known(in.rs1)) {
              diag(DiagKind::kUnboundedValue, DiagSeverity::kWarning, pc,
                   "frep repetition count depends on a runtime value: " +
                       disasm(in));
            } else if (regs_.value(in.rs1) == 0) {
              diag(DiagKind::kBadFrepBody, DiagSeverity::kError, pc,
                   "frep with zero repetitions aborts at runtime: " +
                       disasm(in));
            }
            break;
          case Op::kScfgwi:
            blocked_until_ = pred_.int_steps;
            if (!scfgwi(pc, in)) return finish(false);
            break;
          default:  // ALU, FP compute, SSR enable, barrier, ...
            break;
        }
      }
      regs_.retire(in);
      ++pc;
    }
    // Running off the end is a structural finding (kFallOffEnd); the walk
    // just stops.
    return finish(false);
  }

 private:
  /// Arrival at loop header `h`: accelerate when the last two iterations
  /// took one trace, and note the visit.
  void visit(u32 h) {
    const u64 now = pred_.int_steps;
    const u64 len = now - visit_[h];
    const u64 v0 = prev_visit_[h];
    if (v0 != kNever && v0 >= blocked_until_ && visit_[h] - v0 == len &&
        len <= kMaxTrace) {
      TraceSummary& sum = summaries_[loop_of_[h]];
      if (sum.pcs.size() != len || !holds_trace(sum, visit_[h])) {
        summarize(sum, h, len);
      }
      if (sum.ok && holds_trace(sum, v0)) accelerate(sum);
    }
    // After an acceleration the last iteration took the trace too.
    prev_visit_[h] = pred_.int_steps == now ? visit_[h] : pred_.int_steps - len;
    visit_[h] = pred_.int_steps;
  }

  /// Call fn(ring piece, offset, length) over the history's steps
  /// [from, from + n), n <= kHistory, in at most two contiguous pieces.
  template <typename Fn>
  void ring_pieces(u64 from, u64 n, Fn&& fn) {
    const u64 at = from % kHistory;
    const u64 first = std::min(n, kHistory - at);
    fn(history_.data() + at, u64{0}, first);
    if (first < n) fn(history_.data(), first, n - first);
  }

  /// The history's steps from `from` took `sum`'s trace (`from` is at
  /// most kHistory - size steps back).
  bool holds_trace(const TraceSummary& sum, u64 from) {
    bool same = true;
    ring_pieces(from, sum.pcs.size(), [&](const u32* r, u64 off, u64 n) {
      same = same && std::equal(r, r + n, sum.pcs.data() + off);
    });
    return same;
  }

  /// Add one access at offset `off` from register `base` (-1: from 0) to
  /// its group in `sum`; false when its offset is not a whole number of
  /// words from the group's.
  static bool add_access(TraceSummary& sum, i32 base, i64 off, u32 port,
                         u32 size, bool is_write) {
    ++sum.accesses;
    for (TraceStreams& g : sum.streams) {
      if (g.base != base || g.port != port || g.size != size ||
          g.is_write != is_write) {
        continue;
      }
      if ((off - g.lo) % kWordBytes != 0) return false;
      g.lo = std::min(g.lo, off);
      g.hi = std::max(g.hi, off);
      ++g.count;
      return true;
    }
    TraceStreams g;
    g.base = base;
    g.port = port;
    g.size = size;
    g.is_write = is_write;
    g.count = 1;
    g.lo = g.hi = off;
    sum.streams.push_back(g);
    return true;
  }

  /// Evaluate the ops of the last iteration at `h` (`len` steps)
  /// symbolically into `sum`.
  void summarize(TraceSummary& sum, u32 h, u64 len) {
    sum.pcs.resize(len);
    ring_pieces(visit_[h], len, [&](const u32* r, u64 off, u64 n) {
      std::copy(r, r + n, sum.pcs.data() + off);
    });
    sum.ok = false;
    sum.read_first = 0;
    sum.written = 0;
    sum.streams.clear();
    sum.accesses = 0;
    sum.branches.clear();
    std::array<Sym, kNumXRegs>& f = sum.end;
    f = {};
    for (u32 r = 1; r < kNumXRegs; ++r) f[r] = Sym{static_cast<i32>(r), 0};
    auto read = [&](XReg r) {
      if (((sum.written >> r.idx) & 1u) == 0) sum.read_first |= 1u << r.idx;
      return f[r.idx];
    };
    for (u64 t = 0; t < len; ++t) {
      const u32 pc = sum.pcs[t];
      const Instr& in = prog_.instrs()[pc];
      const OpDesc& d = op_desc(in.op);
      const Sym a = (d.x_reads & kSlot1) ? read(in.rs1) : Sym{};
      const Sym b = (d.x_reads & kSlot2) ? read(in.rs2) : Sym{};
      if (d.mem != MemDir::kNone) {
        if (d.x_write) return;  // an integer load: an unknown value
        if (!add_access(sum, a.base,
                        static_cast<i32>(a.off + static_cast<u32>(in.imm)),
                        d.is_fp() ? kPortFlsu : kPortIlsu, d.mem_bytes,
                        d.mem == MemDir::kStore)) {
          return;
        }
        continue;
      }
      if (d.cls == OpClass::kBranch) {
        if (in.op == Op::kJal || in.target == pc + 1) continue;
        if (in.op != Op::kBeq && in.op != Op::kBne) return;
        const u32 next = t + 1 < len ? sum.pcs[t + 1] : h;
        sum.branches.push_back(
            TraceBranch{a, b, (next == in.target) == (in.op == Op::kBeq)});
        continue;
      }
      if (in.op == Op::kFrep || in.op == Op::kScfgwi) return;
      if (!d.x_write || in.rd.idx == 0) continue;
      if (d.cls != OpClass::kInt) return;  // rdcycle
      const std::optional<Sym> v = sym_alu(in, a, b);
      if (!v) return;
      f[in.rd.idx] = *v;
      sum.written |= 1u << in.rd.idx;
    }
    // Every register read before written must move by a constant.
    sum.read_first &= ~1u;  // x0
    for (u32 m = sum.read_first; m != 0; m &= m - 1) {
      const u32 r = static_cast<u32>(std::countr_zero(m));
      if (f[r].base != static_cast<i32>(r)) return;
    }
    sum.ok = true;
  }

  /// Account at once the coming iterations that provably take `sum`'s
  /// trace, if any: the first iteration at which a branch changes outcome,
  /// an access would make a finding or a budget would be crossed is left
  /// to the step loop.
  void accelerate(const TraceSummary& sum) {
    for (u32 m = sum.read_first; m != 0; m &= m - 1) {
      if (!regs_.known(XReg{static_cast<u8>(std::countr_zero(m))})) return;
    }
    auto value = [&](Sym s) {
      return s.base < 0 ? s.off
                        : regs_.value(XReg{static_cast<u8>(s.base)}) + s.off;
    };
    auto slope = [&](Sym s) { return s.base < 0 ? 0u : sum.end[s.base].off; };

    const u64 len = sum.pcs.size();
    u64 iters = (kIntStepBudget - pred_.int_steps) / len;
    if (sum.accesses > 0) {
      iters = std::min<u64>(iters, (kAccessBudget - accounted_) /
                                       sum.accesses);
    }
    for (const TraceBranch& br : sum.branches) {
      const u32 d = value(br.a) - value(br.b);
      const u32 e = slope(br.a) - slope(br.b);
      const u64 change = br.equal ? (d != 0 ? 0 : e != 0 ? 1 : kNever)
                                  : first_zero(d, e);
      iters = std::min(iters, change);
    }
    if (iters == 0) return;

    // Each access is a stream over the iterations; all must be legal
    // before any is accounted. A group is legal when its extremes are.
    for (const TraceStreams& g : sum.streams) {
      const i64 x = value(Sym{g.base, 0});
      const i64 stride = static_cast<i32>(slope(Sym{g.base, 0}));
      const i64 span = static_cast<i64>(iters - 1) * stride;
      if ((iters > 1 && stride % kWordBytes != 0) ||
          !all_legal(x + g.lo + std::min<i64>(span, 0),
                     x + g.hi + std::max<i64>(span, 0), iters * g.count,
                     g.size, g.is_write)) {
        return;
      }
    }
    for (const TraceStreams& g : sum.streams) {
      pred_.ports[g.port].accesses += iters * g.count;
    }
    accounted_ += iters * sum.accesses;
    std::array<u32, kNumXRegs> next{};
    for (u32 m = sum.written; m != 0; m &= m - 1) {
      const u32 r = static_cast<u32>(std::countr_zero(m));
      next[r] = value(sum.end[r]) +
                static_cast<u32>(iters - 1) * slope(sum.end[r]);
    }
    for (u32 m = sum.written; m != 0; m &= m - 1) {
      const u32 r = static_cast<u32>(std::countr_zero(m));
      regs_.set(XReg{static_cast<u8>(r)}, next[r]);
    }
    // The history holds the latest kHistory steps: the trace repeated.
    const u64 begin = pred_.int_steps;
    const u64 end = begin + iters * len;
    u64 p = std::max(begin, end - std::min<u64>(end, kHistory));
    for (u64 t = (p - begin) % len; p < end;) {
      const u64 n = std::min({end - p, len - t, kHistory - p % kHistory});
      std::copy_n(sum.pcs.data() + t, n, history_.data() + p % kHistory);
      p += n;
      t = t + n == len ? 0 : t + n;
    }
    pred_.int_steps = end;
  }

  CorePrediction finish(bool halted) {
    pred_.complete = halted && !fatal_ && !inexact_ && addr_diags_ == 0;
    return std::move(pred_);
  }

  void diag(DiagKind kind, DiagSeverity sev, u32 pc, std::string msg) {
    diags_.push_back(Diagnostic{kind, sev, core_, pc, std::move(msg)});
  }

  /// Bounds/arena checks for one access; accounts it on `port` when legal.
  /// Returns false when the walk should stop (diagnostic cap reached).
  /// `what()` names the access in a finding; it runs only when one is made.
  template <typename Describe>
  bool access(u32 pc, u32 port, Addr a, u32 size, bool is_write,
              const Describe& what) {
    if (++accounted_ > kAccessBudget) {
      diag(DiagKind::kStepBudgetExceeded, DiagSeverity::kWarning, pc,
           "static execution exceeded the access budget");
      fatal_ = true;
      return false;
    }
    const char* bad = nullptr;
    DiagKind kind = DiagKind::kOutOfTcdmAccess;
    i32 arena = -1;
    if (static_cast<u64>(a) + size > am_.tcdm_bytes) {
      bad = "outside TCDM";
    } else if (a % kWordBytes + size > kWordBytes) {
      bad = "crosses a 64-bit word boundary";
    } else if ((arena = am_.find(a, size, last_arena_)) < 0) {
      bad = "inside TCDM but outside every layout arena";
      kind = DiagKind::kOutOfArenaAccess;
    } else if (is_write && !am_.arenas[arena].writable) {
      bad = "write into read-only arena";
      kind = DiagKind::kOutOfArenaAccess;
    }
    if (bad != nullptr) {
      if (addr_diags_ < kMaxAddrDiags) {
        std::ostringstream os;
        os << (is_write ? "write" : "read") << " of " << size << " B at 0x"
           << std::hex << a << std::dec << " " << bad;
        if (kind == DiagKind::kOutOfArenaAccess && arena >= 0) {
          os << " '" << am_.arenas[arena].name << "'";
        }
        os << ": " << what();
        diag(kind, DiagSeverity::kError, pc, os.str());
      }
      if (++addr_diags_ >= kMaxAddrDiags) {
        fatal_ = true;
        return false;
      }
      return true;  // keep walking; the access itself is not accounted
    }
    last_arena_ = arena;
    ++pred_.ports[port].accesses;
    return true;
  }

  /// True when `n` accesses of `size` bytes, each at `lo`'s offset within
  /// its word and between `lo` and `hi`, would all pass access(): they fit
  /// their word, lie in one arena they may use, and fit the access budget.
  bool all_legal(i64 lo, i64 hi, u64 n, u32 size, bool is_write) {
    if (!am_.disjoint || n > kAccessBudget - accounted_ || lo < 0 ||
        hi + size > am_.tcdm_bytes || lo % kWordBytes + size > kWordBytes) {
      return false;
    }
    const i32 arena = am_.find(static_cast<Addr>(lo),
                               static_cast<u32>(hi + size - lo), last_arena_);
    if (arena < 0 || (is_write && !am_.arenas[arena].writable)) return false;
    last_arena_ = arena;
    return true;
  }

  /// Account all of `pat`'s 8-byte accesses on `port` at once when none of
  /// them can make a finding; false (nothing accounted) otherwise.
  bool account_at_once(u32 port, const AffinePattern& pat, bool is_write) {
    const u64 n = count_within(pat, kAccessBudget - accounted_);
    if (n == 0 || !pat.word_strided() ||
        !all_legal(pat.lo(), pat.hi(), n, kWordBytes, is_write)) {
      return false;
    }
    accounted_ += n;
    pred_.ports[port].accesses += n;
    return true;
  }

  bool scfgwi(u32 pc, const Instr& in) {
    if (!regs_.known(in.rs1)) {
      diag(DiagKind::kUnboundedValue, DiagSeverity::kError, pc,
           "SSR configuration value depends on a runtime value: " +
               disasm(in));
      return false;
    }
    const u32 value = regs_.value(in.rs1);
    const ScfgSel sel = scfg_select(in.imm);
    if (!sel.lane_ok()) {
      diag(DiagKind::kBadScfgwi, DiagSeverity::kError, pc,
           "scfgwi to bad lane " + std::to_string(sel.lane) + ": " +
               disasm(in));
      return false;
    }
    const ScfgEffect e = apply_scfg_word(ssr_cfg_[sel.lane], sel, value);
    if (e.status != ScfgStatus::kOk) {
      diag(DiagKind::kBadScfgwi, DiagSeverity::kError, pc,
           std::string(scfg_status_text(e.status)) + ": " + disasm(in));
      return false;
    }
    switch (e.launch) {
      case SsrStreamKind::kNone:
        return true;
      case SsrStreamKind::kAffineRead:
        return launch_affine(pc, in, sel.lane, value, /*is_write=*/false);
      case SsrStreamKind::kAffineWrite:
        return launch_affine(pc, in, sel.lane, value, /*is_write=*/true);
      case SsrStreamKind::kIndirectRead:
        return launch_indirect(pc, in, sel.lane, value);
    }
    return true;
  }

  bool launch_affine(u32 pc, const Instr& in, u32 lane, Addr base,
                     bool is_write) {
    const SsrLaneConfig& cfg = ssr_cfg_[lane];
    const u64 elems = cfg.affine_elems();
    if (elems == 0) {
      diag(DiagKind::kBadScfgwi, DiagSeverity::kWarning, pc,
           "SSR launch with zero elements: " + disasm(in));
      return true;
    }
    AffinePattern pat;
    pat.base = base;
    for (u32 d = 0; d < kSsrMaxDims; ++d) {
      pat.bounds[d] = cfg.bounds[d];
      pat.strides[d] = cfg.strides[d];
    }
    if (account_at_once(kPortSsr0 + lane, pat, is_write)) return true;
    AffineAddrGen gen;
    gen.start(cfg, base);
    while (!gen.done()) {
      if (!access(pc, kPortSsr0 + lane, gen.next(), 8, is_write, [&] {
            return "SSR lane " + std::to_string(lane) +
                   (is_write ? " write stream" : " read stream");
          })) {
        return false;
      }
    }
    return true;
  }

  bool launch_indirect(u32 pc, const Instr& in, u32 lane, Addr base) {
    const SsrLaneConfig& cfg = ssr_cfg_[lane];
    // Index-word fetches through the shared index port, 8 B at a time.
    const u32 per_word = kWordBytes / cfg.idx_size;
    const u64 n_words = (cfg.idx_count + per_word - 1) / per_word;
    AffinePattern fetch;
    fetch.base = cfg.idx_base;
    fetch.bounds[0] = n_words;
    fetch.strides[0] = kWordBytes;
    if (!account_at_once(kPortSsrIdx, fetch, /*is_write=*/false)) {
      for (u64 k = 0; k < n_words; ++k) {
        if (!access(pc, kPortSsrIdx, cfg.idx_base + k * kWordBytes, 8,
                    /*is_write=*/false, [&] {
                      return "SSR lane " + std::to_string(lane) +
                             " index fetch";
                    })) {
          return false;
        }
      }
    }
    // Gather addresses need the index values. The compile artifact carries
    // them for the generated kernels; anything else is out of static reach.
    const std::vector<u16>* vals = nullptr;
    if (cfg.idx_size == 2 && core_ < ck_.idx_values.size() &&
        core_ < ck_.layout.core_idx.size() &&
        cfg.idx_base == ck_.layout.core_idx[core_][lane].addr &&
        ck_.idx_values[core_][lane].size() >= cfg.idx_count) {
      vals = &ck_.idx_values[core_][lane];
    }
    if (vals == nullptr) {
      diag(DiagKind::kUnboundedValue, DiagSeverity::kWarning, pc,
           "indirect stream indices are not statically available; gather "
           "addresses unchecked: " +
               disasm(in));
      inexact_ = true;
      return true;
    }
    GatherSummary& g = gathers_[lane];
    if (g.vals != vals || g.count != cfg.idx_count) {
      g = summarize_gather(vals, cfg);
    }
    if (all_legal(base + i64{g.lo} * kWordBytes, base + i64{g.hi} * kWordBytes,
                  g.count, kWordBytes, /*is_write=*/false)) {
      accounted_ += g.count;
      pred_.ports[kPortSsr0 + lane].accesses += g.count;
      return true;
    }
    for (u32 k = 0; k < cfg.idx_count; ++k) {
      const Addr a =
          base + static_cast<Addr>((*vals)[k]) * kWordBytes;
      if (!access(pc, kPortSsr0 + lane, a, 8, /*is_write=*/false, [&] {
            return "SSR lane " + std::to_string(lane) + " gather";
          })) {
        return false;
      }
    }
    return true;
  }

  /// One lane's gather indices, summarized for launches that reuse them:
  /// their extremes.
  struct GatherSummary {
    const std::vector<u16>* vals = nullptr;
    u32 count = 0;
    u16 lo = 0;
    u16 hi = 0;
  };

  static GatherSummary summarize_gather(const std::vector<u16>* vals,
                                        const SsrLaneConfig& cfg) {
    GatherSummary g;
    g.vals = vals;
    g.count = cfg.idx_count;
    const auto first = vals->begin();
    const auto [lo, hi] = std::minmax_element(first, first + g.count);
    g.lo = *lo;
    g.hi = *hi;
    return g;
  }

  const CompiledKernel& ck_;
  const Program& prog_;
  u32 core_;
  const ArenaMap& am_;
  std::vector<Diagnostic>& diags_;

  KnownRegs regs_;
  std::array<SsrLaneConfig, kNumSsrLanes> ssr_cfg_{};

  std::array<GatherSummary, kNumIndirectSsrLanes> gathers_{};

  // Loop acceleration: per pc, its loop's summary (-1 unless the pc is a
  // loop header) and int_steps at its last two visits; the pcs of the
  // latest kHistory steps; int_steps after the latest scfgwi or frep, which
  // no accelerated trace may hold.
  std::vector<i32> loop_of_;
  std::vector<TraceSummary> summaries_;
  std::vector<u64> visit_;
  std::vector<u64> prev_visit_;
  std::vector<u32> history_;
  u64 blocked_until_ = 0;
  i32 last_arena_ = -1;

  CorePrediction pred_;
  u64 accounted_ = 0;
  u32 addr_diags_ = 0;
  bool fatal_ = false;
  bool inexact_ = false;
};

}  // namespace

AbsintResult abstract_interpret(const CompiledKernel& ck,
                                std::vector<Diagnostic>& diags) {
  AbsintResult r;
  const ArenaMap am = ArenaMap::from_layout(ck.layout, ck.tcdm_bytes);
  r.all_complete = true;
  for (u32 c = 0; c < ck.programs.size(); ++c) {
    Walker w(ck, c, am, diags);
    const CorePrediction& cp = r.cores.emplace_back(w.run());
    r.all_complete = r.all_complete && cp.complete;
  }

  // Each overlap DMA job's whole TCDM extent must lie inside the TCDM, as
  // Dma::push checks when the run queues it. A job with no words moves
  // nothing.
  for (const DmaJob& j : ck.overlap_jobs) {
    if (j.row_bytes == 0 || j.rows == 0 || j.planes == 0) continue;
    const DmaExtent e = job_extent(j.tcdm_addr, j.tcdm_row_stride,
                                   j.tcdm_plane_stride, j.rows, j.planes,
                                   j.row_bytes);
    if (e.lo >= 0 && e.hi <= ck.tcdm_bytes) continue;
    std::ostringstream os;
    os << "overlap DMA job at 0x" << std::hex << j.tcdm_addr << std::dec
       << " (" << j.rows << " rows x " << j.planes << " planes of "
       << j.row_bytes << " B) reaches outside TCDM";
    diags.push_back(Diagnostic{DiagKind::kOutOfTcdmAccess,
                               DiagSeverity::kError, kOverlapDmaCore, 0,
                               os.str()});
  }
  return r;
}

}  // namespace saris
