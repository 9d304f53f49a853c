// Fault storm: the robustness bench behind the error-taxonomy /
// fault-injection harness (common/sim_error.hpp, fault/fault_plan.hpp).
//
// Three stages, all seeded and deterministic:
//
//  1. Bit-identity self-check — a run with no fault plan and a run with an
//     attached-but-empty plan must produce bit-identical metrics (the
//     harness is provably inert when disabled).
//  2. Fault-isolated sweep — the paper's (code x variant) matrix with K
//     cells carrying seeded fault storms, run through run_sweep_isolated
//     with bounded retry: healthy cells are unaffected,
//     transient faults (persistence 1) recover on retry, sticky ones fail
//     typed. The survival table is the whole point: one storm never takes
//     the matrix down.
//  3. System degradation — a G-cluster, T-tile system run with a storm
//     that stalls one cluster mid-run: the cluster is quarantined, the
//     survivors finish their tile queues, and the degraded shard set is
//     reported.
//
// Emits BENCH_fault_storm.json.
//
//   fault_storm [--seed S] [--faulty K] [--retries R] [--clusters G]
//               [--tiles T] [--threads N] [--json PATH]
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "common/splitmix.hpp"
#include "fault/fault_plan.hpp"
#include "report/table.hpp"
#include "runtime/kernel_runner.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/sweep.hpp"
#include "stencil/codes.hpp"
#include "system/system_runner.hpp"

namespace {

using namespace saris;

u32 parse_u32(const char* flag, const char* value, u32 min_value) {
  char* end = nullptr;
  errno = 0;
  unsigned long v = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      v > 0xFFFFFFFFull || v < min_value) {
    std::fprintf(stderr, "%s needs an integer >= %u, got \"%s\"\n", flag,
                 min_value, value);
    std::exit(2);
  }
  return static_cast<u32>(v);
}

u64 parse_u64(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s needs an integer, got \"%s\"\n", flag, value);
    std::exit(2);
  }
  return static_cast<u64>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace saris;
  u64 seed = 1;
  u32 faulty = 3;
  u32 retries = 2;  // attempts per job
  u32 clusters = 3;
  u32 tiles = 3;
  u32 threads = 0;
  const char* json_path = "BENCH_fault_storm.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = parse_u64("--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--faulty") == 0 && i + 1 < argc) {
      faulty = parse_u32("--faulty", argv[++i], 0);
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      retries = parse_u32("--retries", argv[++i], 1);
    } else if (std::strcmp(argv[i], "--clusters") == 0 && i + 1 < argc) {
      clusters = parse_u32("--clusters", argv[++i], 2);
    } else if (std::strcmp(argv[i], "--tiles") == 0 && i + 1 < argc) {
      tiles = parse_u32("--tiles", argv[++i], 1);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = parse_u32("--threads", argv[++i], 1);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed S] [--faulty K] [--retries R] "
                   "[--clusters G] [--tiles T] [--threads N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // ---- 1. disabled-fault bit-identity self-check -----------------------
  std::printf("== Fault storm (seed %llu) ==\n",
              static_cast<unsigned long long>(seed));
  {
    const StencilCode& sc = code_by_name("jacobi_2d");
    RunConfig cfg;
    RunMetrics plain = run_kernel(sc, cfg);
    FaultPlan empty;
    cfg.faults = &empty;
    RunMetrics hooked = run_kernel(sc, cfg);
    std::string why;
    SARIS_CHECK(metrics_bit_identical(plain, hooked, &why),
                "disabled-fault run diverged from the plain run: " << why);
    SARIS_CHECK(empty.trace().empty(), "an empty plan fired a fault");
  }
  std::printf("bit-identity: empty fault plan == no fault plan (OK)\n\n");

  // ---- 2. fault-isolated sweep over the paper matrix -------------------
  std::vector<SweepJob> jobs = matrix_jobs();
  std::vector<char> injected(jobs.size(), 0);
  u64 pick_state = seed;
  for (u32 k = 0; k < faulty && k < jobs.size(); ++k) {
    std::size_t i;
    do {
      i = static_cast<std::size_t>(splitmix64(pick_state) % jobs.size());
    } while (injected[i]);
    injected[i] = 1;
    jobs[i].inject_faults = true;
    jobs[i].storm.clusters = 1;
    jobs[i].storm.cluster_stalls = 1;  // a guaranteed typed failure
    jobs[i].storm.dma_word_errors = 2;
    jobs[i].storm.horizon = 500;
    jobs[i].storm.max_persistence = 2;  // some transient, some sticky
    jobs[i].fault_seed = seed ^ (0x5bull << 32) ^ i;
  }

  SweepOptions opts;
  opts.max_attempts = retries;
  opts.threads = threads;
  std::vector<SweepResult> rs = run_sweep_isolated(jobs, opts);

  TextTable t({"cell", "storm", "outcome", "attempts", "error"});
  u32 n_ok = 0, n_recovered = 0, n_failed = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const SweepResult& r = rs[i];
    if (r.ok) {
      ++n_ok;
      if (r.attempts > 1) ++n_recovered;
    } else {
      ++n_failed;
    }
    t.add_row({jobs[i].label, injected[i] ? "yes" : "-",
               r.ok ? (r.attempts > 1 ? "recovered" : "ok") : "FAILED",
               std::to_string(r.attempts),
               r.ok ? "" : sim_errc_name(r.error_code)});
  }
  std::printf("== Fault-isolated sweep: %zu cells, %u storms, %u attempts "
              "each ==\n%s",
              jobs.size(), faulty, retries, t.str().c_str());
  std::printf("survival: %u ok (%u recovered on retry), %u failed typed — "
              "matrix completed\n\n",
              n_ok, n_recovered, n_failed);
  // Under isolate-and-continue a storm can only take down its own cell.
  SARIS_CHECK(n_ok + n_failed == jobs.size(), "sweep lost results");
  SARIS_CHECK(n_failed <= faulty,
              "a healthy cell failed: " << n_failed << " failures from "
                                        << faulty << " storms");

  // ---- 3. System graceful degradation ----------------------------------
  SystemRunConfig sys_cfg;
  sys_cfg.clusters = clusters;
  sys_cfg.tiles = tiles;
  FaultStormConfig sys_storm;
  sys_storm.clusters = clusters;
  sys_storm.cluster_stalls = 1;  // kill one cluster mid-run
  sys_storm.dma_word_errors = clusters;
  sys_storm.hbm_throttles = 1;
  sys_storm.horizon = 4000;
  FaultPlan sys_plan = FaultPlan::storm(sys_storm, seed);
  sys_cfg.run.faults = &sys_plan;
  const StencilCode& sys_code = code_by_name("jacobi_2d");
  SystemRunMetrics sm = run_system_kernel(sys_code, sys_cfg);

  std::printf("== System degradation: %s on %u clusters x %u tiles ==\n",
              sys_code.name.c_str(), clusters, tiles);
  for (u32 g = 0; g < clusters; ++g) {
    if (sm.quarantined[g]) {
      std::printf("  cluster %u: QUARANTINED — %s\n", g,
                  sm.errors[g].c_str());
    } else {
      std::printf("  cluster %u: healthy, %u tiles done\n", g, tiles);
    }
  }
  std::printf("degraded run: %u/%u clusters healthy, %u/%u tiles completed "
              "and verified, system window %llu cycles\n",
              sm.healthy_clusters(), clusters, sm.tiles_ok,
              clusters * tiles, static_cast<unsigned long long>(sm.cycles));
  std::string trace = sys_plan.trace_string();
  std::printf("fired faults:\n%s\n", trace.c_str());

  // ---- JSON -------------------------------------------------------------
  std::FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fault_storm\",\n"
               "  \"seed\": %llu,\n  \"retries\": %u,\n"
               "  \"bit_identity_ok\": true,\n  \"sweep\": [\n",
               static_cast<unsigned long long>(seed), retries);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const SweepResult& r = rs[i];
    std::fprintf(f,
                 "    {\"cell\": \"%s\", \"storm\": %s, \"ok\": %s, "
                 "\"attempts\": %u, \"error_code\": \"%s\"}%s\n",
                 jobs[i].label.c_str(), injected[i] ? "true" : "false",
                 r.ok ? "true" : "false", r.attempts,
                 r.ok ? "" : sim_errc_name(r.error_code),
                 i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"sweep_summary\": {\"cells\": %zu, \"storms\": %u, "
               "\"ok\": %u, \"recovered\": %u, \"failed\": %u},\n",
               jobs.size(), faulty, n_ok, n_recovered, n_failed);
  std::fprintf(f,
               "  \"system\": {\"code\": \"%s\", \"clusters\": %u, "
               "\"tiles\": %u, \"healthy_clusters\": %u, \"tiles_ok\": %u, "
               "\"cycles\": %llu,\n    \"quarantined\": [",
               sys_code.name.c_str(), clusters, tiles, sm.healthy_clusters(),
               sm.tiles_ok, static_cast<unsigned long long>(sm.cycles));
  bool first = true;
  for (u32 g = 0; g < clusters; ++g) {
    if (!sm.quarantined[g]) continue;
    std::fprintf(f, "%s{\"cluster\": %u, \"error_code\": \"%s\"}",
                 first ? "" : ", ", g, sim_errc_name(sm.error_codes[g]));
    first = false;
  }
  std::fprintf(f, "],\n    \"fired_faults\": [\n");
  std::vector<FiredFault> fired = sys_plan.trace();
  for (std::size_t i = 0; i < fired.size(); ++i) {
    std::fprintf(f,
                 "      {\"kind\": \"%s\", \"cluster\": %u, \"cycle\": "
                 "%llu}%s\n",
                 fault_kind_name(fired[i].kind), fired[i].cluster,
                 static_cast<unsigned long long>(fired[i].cycle),
                 i + 1 < fired.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);

  std::printf("%s\n%s", PlanCache::global().summary().c_str(),
              PlanCache::global().cell_summary().c_str());
  return 0;
}
