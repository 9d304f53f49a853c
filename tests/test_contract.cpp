// Behavioural contract fixture: absolute results of all 20 (code, variant)
// cells at seed 1, pinned against a committed text file.
//
// This is the oracle for the simulator's one cycle loop. It compares
// against recorded numbers, not a second implementation, so drift fails
// even where two paths share code (as the arbitrated run and the cost
// pass's ideal-TCDM run do). Per cell it records:
//   * every field metrics_bit_identical compares (record_timeline on, the
//     timeline as a digest) and a digest of the output grid;
//   * from a compile with verify and cost on: the diagnostic count, absint
//     per-port counts, each core's register pressure (peak live x and f
//     registers and their pcs), the cost pass's predicted cycles and
//     per-core counters, the lint count,
//     digests of every lint finding (kind, core, pc, message) and of the
//     stream launch log (core, pc, lane), and a digest of each core's
//     disassembly.
//
// On a mismatch the test prints the actual record. After an intended
// behaviour change, regenerate the fixture from the repository root with
//
//   ./build/test_contract --gtest_also_run_disabled_tests --gtest_filter=Contract.DISABLED_Regenerate
//
// and review the diff of tests/data/contract_seed1.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "isa/disasm.hpp"
#include "runtime/kernel_runner.hpp"
#include "stencil/codes.hpp"
#include "stencil/reference.hpp"

namespace saris {
namespace {

constexpr u32 kCores = 8;
constexpr u64 kSeed = 1;
const char* const kFixture = SARIS_TEST_DATA_DIR "/contract_seed1.txt";

/// FNV-1a over raw bytes: a stable digest for long vectors.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  u64 h_ = 0xcbf29ce484222325ull;
};

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string join(const std::vector<T>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

std::string perf_line(const CorePerf& p) {
  std::ostringstream os;
  for (const CounterRow& r : kCounterTable) os << p.*r.field << ' ';
  os << p.halted << ' ' << p.halted_at;
  return os.str();
}

/// The measured half: one seeded run with the timeline recorded.
void record_run(const StencilCode& sc, KernelVariant variant,
                std::ostringstream& os) {
  RunConfig cfg;
  cfg.variant = variant;
  cfg.seed = kSeed;
  cfg.record_timeline = true;
  KernelIO io;
  io.inputs = seeded_inputs(sc, cfg.seed);
  io.coeffs = sc.default_coeffs();
  const RunMetrics m = run_kernel_io(sc, cfg, io);

  Digest timeline;
  for (u32 v : m.fpu_timeline) timeline.pod(v);
  Digest grid;
  for (const Grid<>& g : io.outputs) grid.bytes(g.data(), g.bytes());

  os << "run cycles " << m.cycles << "\n"
     << "run core_busy " << join(m.core_busy) << "\n"
     << "run totals " << m.flops << ' ' << m.fpu_useful_ops << ' '
     << m.fp_instrs << ' ' << m.int_instrs << ' ' << m.fp_loads << ' '
     << m.fp_stores << "\n"
     << "run tcdm " << m.tcdm_accesses << ' ' << m.tcdm_conflicts << "\n"
     << "run port_accesses " << join(m.tcdm_port_accesses) << "\n"
     << "run port_conflicts " << join(m.tcdm_port_conflicts) << "\n"
     << "run ssr " << m.ssr_elems << ' ' << m.ssr_idx_words << "\n"
     << "run icache " << m.icache_misses << ' ' << m.icache_hits << "\n"
     << "run dma " << exact(m.dma_util) << ' ' << m.dma_bytes << "\n"
     << "run max_rel_err " << exact(m.max_rel_err) << "\n"
     << "run timeline " << m.fpu_timeline.size() << ' ' << timeline.hex()
     << "\n"
     << "run output " << grid.hex() << "\n";
  for (std::size_t c = 0; c < m.per_core.size(); ++c) {
    os << "run core " << c << ' ' << perf_line(m.per_core[c]) << "\n";
  }
}

/// The static half: verify + cost on a fresh compile.
void record_compile(const StencilCode& sc, KernelVariant variant,
                    std::ostringstream& os) {
  CodegenOptions cg;
  cg.verify = true;
  cg.analyze_cost = true;
  const CompiledKernel ck = compile_kernel(sc, variant, cg, kCores);
  const VerifyReport& rep = *ck.verify_report;

  os << "verify diags " << rep.diags.size() << " complete "
     << rep.absint.all_complete << "\n";
  for (std::size_t c = 0; c < rep.absint.cores.size(); ++c) {
    const CorePrediction& cp = rep.absint.cores[c];
    Digest banks;
    os << "absint core " << c << " steps " << cp.int_steps << " ports";
    for (const PortPrediction& p : cp.ports) {
      os << ' ' << p.accesses;
      for (u64 b : p.per_bank) banks.pod(b);
    }
    os << " banks " << banks.hex() << "\n";
  }
  for (std::size_t c = 0; c < rep.pressure.size(); ++c) {
    const RegPressure& rp = rep.pressure[c];
    os << "pressure core " << c << ' ' << rp.max_live_x << '@' << rp.at_pc_x
       << ' ' << rp.max_live_f << '@' << rp.at_pc_f << "\n";
  }
  const CostReport& cost = *rep.cost;
  os << "cost cycles " << cost.predicted_cycles << " complete "
     << cost.complete << " exact " << cost.exact << " lint "
     << cost.lint.size() << " launches " << cost.launches.size() << "\n";
  for (std::size_t c = 0; c < cost.cores.size(); ++c) {
    Digest stalls;
    for (const PcStalls& s : cost.cores[c].pc_stalls) stalls.pod(s);
    os << "cost core " << c << " busy " << cost.cores[c].busy << ' '
       << perf_line(cost.cores[c].perf) << " pc_stalls " << stalls.hex()
       << "\n";
  }
  Digest findings;
  for (const Diagnostic& d : cost.lint) {
    findings.pod(d.kind);
    findings.pod(d.core);
    findings.pod(d.pc);
    findings.str(d.message);
  }
  Digest launches;
  for (const StreamLaunch& sl : cost.launches) {
    launches.pod(sl.core);
    launches.pod(sl.pc);
    launches.pod(sl.lane);
  }
  os << "cost lint " << findings.hex() << " launches " << launches.hex()
     << "\n";
  for (std::size_t c = 0; c < ck.programs.size(); ++c) {
    Digest text;
    text.str(disasm(ck.programs[c]));
    os << "disasm core " << c << ' ' << ck.programs[c].size() << ' '
       << text.hex() << "\n";
  }
}

std::string cell_key(const StencilCode& sc, KernelVariant v) {
  return sc.name + " " + variant_name(v);
}

std::string record(const StencilCode& sc, KernelVariant v) {
  std::ostringstream os;
  os << "cell " << cell_key(sc, v) << "\n";
  record_run(sc, v, os);
  record_compile(sc, v, os);
  return os.str();
}

/// Fixture blocks keyed by "code variant"; each block starts at its
/// "cell ..." header line.
std::map<std::string, std::string> load_fixture() {
  std::ifstream in(kFixture);
  std::map<std::string, std::string> cells;
  std::string line, key;
  while (std::getline(in, line)) {
    if (line.rfind("cell ", 0) == 0) key = line.substr(5);
    if (!key.empty()) cells[key] += line + "\n";
  }
  return cells;
}

struct CellId {
  std::string code;
  KernelVariant variant;
};

std::vector<CellId> all_cells() {
  std::vector<CellId> cells;
  for (const StencilCode& sc : all_codes()) {
    cells.push_back({sc.name, KernelVariant::kBase});
    cells.push_back({sc.name, KernelVariant::kSaris});
  }
  return cells;
}

class ContractTest : public ::testing::TestWithParam<CellId> {};

TEST_P(ContractTest, MatchesFixture) {
  const StencilCode& sc = code_by_name(GetParam().code);
  const KernelVariant v = GetParam().variant;
  static const std::map<std::string, std::string> fixture = load_fixture();
  const auto it = fixture.find(cell_key(sc, v));
  ASSERT_NE(it, fixture.end())
      << "no record for '" << cell_key(sc, v) << "' in " << kFixture;
  const std::string actual = record(sc, v);
  EXPECT_EQ(actual, it->second) << "actual record:\n" << actual;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ContractTest, ::testing::ValuesIn(all_cells()),
    [](const ::testing::TestParamInfo<CellId>& info) {
      return info.param.code + "_" + variant_name(info.param.variant);
    });

TEST(Contract, DISABLED_Regenerate) {
  std::ofstream out(kFixture);
  ASSERT_TRUE(out) << "cannot write " << kFixture;
  for (const CellId& cell : all_cells()) {
    out << record(code_by_name(cell.code), cell.variant);
  }
}

}  // namespace
}  // namespace saris
