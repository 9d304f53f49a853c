// Developer diagnostic (not a paper figure): per-cause stall breakdown.
//
// Modes:
//   debug_stalls [CODE] [VARIANT]   one cell, per-core detail + activity strip
//   debug_stalls --all              full 10-code x 2-variant stall matrix
//   either mode: --json PATH        machine-readable dump of the cells run
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "report/table.hpp"
#include "runtime/kernel_runner.hpp"
#include "runtime/trace.hpp"
#include "stencil/codes.hpp"

namespace {

using namespace saris;

struct CellStalls {
  std::string code;
  const char* variant = "";
  RunMetrics m;
  CorePerf sum;  ///< all counters summed across cores
};

CorePerf sum_cores(const RunMetrics& m) {
  CorePerf s;
  for (const CorePerf& p : m.per_core) {
    for (const CounterRow& r : kCounterTable) s.*r.field += p.*r.field;
  }
  return s;
}

CellStalls run_cell(const StencilCode& sc, KernelVariant v, bool timeline) {
  CellStalls r;
  r.code = sc.name;
  r.variant = variant_name(v);
  RunConfig cfg;
  cfg.variant = v;
  cfg.record_timeline = timeline;
  r.m = run_kernel(sc, cfg);
  r.sum = sum_cores(r.m);
  return r;
}

void print_detail(const CellStalls& r) {
  const RunMetrics& m = r.m;
  std::printf("%s/%s: cycles=%llu util=%.3f ipc=%.3f\n", r.code.c_str(),
              r.variant, (unsigned long long)m.cycles, m.fpu_util(), m.ipc());
  TextTable t({"core", "int", "fp", "useful", "icache", "fpuq", "seq",
               "scfg", "branch", "barrier", "ilsu", "operand", "sr e/f",
               "mem", "idle"});
  for (u32 c = 0; c < m.per_core.size(); ++c) {
    const CorePerf& p = m.per_core[c];
    t.add_row({std::to_string(c), std::to_string(p.int_instrs),
               std::to_string(p.fp_instrs), std::to_string(p.fpu_useful_ops),
               std::to_string(p.stall_icache),
               std::to_string(p.stall_fpu_queue_full),
               std::to_string(p.stall_seq_busy),
               std::to_string(p.stall_scfg_busy),
               std::to_string(p.stall_branch),
               std::to_string(p.stall_barrier),
               std::to_string(p.stall_int_lsu),
               std::to_string(p.fpu_stall_operand),
               std::to_string(p.fpu_stall_sr_empty) + "/" +
                   std::to_string(p.fpu_stall_sr_full),
               std::to_string(p.fpu_stall_mem),
               std::to_string(p.fpu_idle_empty)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("tcdm: accesses=%llu conflicts=%llu  ssr elems=%llu idx=%llu\n",
              (unsigned long long)m.tcdm_accesses,
              (unsigned long long)m.tcdm_conflicts,
              (unsigned long long)m.ssr_elems,
              (unsigned long long)m.ssr_idx_words);
  std::printf("fpu activity (cores busy, 0-8, over time):\n  [%s]\n",
              ascii_activity_strip(m.fpu_timeline, 72).c_str());
}

void print_matrix(const std::vector<CellStalls>& cells) {
  TextTable t({"code", "variant", "cycles", "util", "ipc", "icache", "fpuq",
               "seq+scfg", "branch", "barrier", "ilsu", "operand", "sr e/f",
               "mem", "idle", "conf"});
  for (const CellStalls& r : cells) {
    const CorePerf& s = r.sum;
    t.add_row({r.code, r.variant, std::to_string(r.m.cycles),
               TextTable::fmt(r.m.fpu_util(), 3),
               TextTable::fmt(r.m.ipc(), 3), std::to_string(s.stall_icache),
               std::to_string(s.stall_fpu_queue_full),
               std::to_string(s.stall_seq_busy + s.stall_scfg_busy),
               std::to_string(s.stall_branch),
               std::to_string(s.stall_barrier),
               std::to_string(s.stall_int_lsu),
               std::to_string(s.fpu_stall_operand),
               std::to_string(s.fpu_stall_sr_empty) + "/" +
                   std::to_string(s.fpu_stall_sr_full),
               std::to_string(s.fpu_stall_mem),
               std::to_string(s.fpu_idle_empty),
               std::to_string(r.m.tcdm_conflicts)});
  }
  std::printf("stall cycles summed across cores:\n%s\n", t.str().c_str());
}

/// False when `path` cannot be opened.
bool write_json(const char* path, const std::vector<CellStalls>& cells) {
  FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"debug_stalls\",\n  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellStalls& r = cells[i];
    std::fprintf(f,
                 "    {\"code\": \"%s\", \"variant\": \"%s\", \"cycles\": "
                 "%llu, \"fpu_util\": %.6f, \"ipc\": %.6f, ",
                 r.code.c_str(), r.variant, (unsigned long long)r.m.cycles,
                 r.m.fpu_util(), r.m.ipc());
    // Every stall and idle counter, summed across cores.
    for (const CounterRow& row : kCounterTable) {
      if (row.tally != Tally::kIntIssue && row.tally != Tally::kFpuIssue &&
          row.tally != Tally::kCount) {
        std::fprintf(f, "\"%s\": %llu, ", row.name,
                     (unsigned long long)(r.sum.*row.field));
      }
    }
    std::fprintf(f, "\"tcdm_accesses\": %llu, \"tcdm_conflicts\": %llu}%s\n",
                 (unsigned long long)r.m.tcdm_accesses,
                 (unsigned long long)r.m.tcdm_conflicts,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [CODE [base|saris]] [--all] [--json PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  const char* json_path = nullptr;
  const char* name = nullptr;
  const char* var_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 == argc) return usage(argv[0]);
      json_path = argv[++i];
    } else if (!name) {
      name = argv[i];
    } else if (!var_arg) {
      var_arg = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  KernelVariant v = KernelVariant::kSaris;
  if (var_arg && std::strcmp(var_arg, "base") == 0) {
    v = KernelVariant::kBase;
  } else if (var_arg && std::strcmp(var_arg, "saris") != 0) {
    return usage(argv[0]);
  }
  const StencilCode* code = nullptr;
  try {
    code = &code_by_name(name ? name : "box2d1r");
  } catch (const SimError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }

  std::vector<CellStalls> cells;
  if (all) {
    for (const StencilCode& sc : all_codes()) {
      for (KernelVariant kv : {KernelVariant::kBase, KernelVariant::kSaris}) {
        cells.push_back(run_cell(sc, kv, /*timeline=*/false));
      }
    }
    print_matrix(cells);
  } else {
    cells.push_back(run_cell(*code, v, /*timeline=*/true));
    print_detail(cells.back());
  }
  if (json_path) {
    if (!write_json(json_path, cells)) return 1;
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
