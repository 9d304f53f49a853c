#include "runtime/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "common/log.hpp"

namespace saris {

u32 sweep_thread_count(u32 requested, std::size_t num_jobs) {
  u32 n = requested;
  if (n == 0) {
    if (const char* env = std::getenv("SARIS_SWEEP_THREADS")) {
      // A set-but-broken value is a misconfiguration, not a preference:
      // reject zero, trailing garbage, and overflow with a typed error
      // instead of silently falling back to hardware concurrency (or worse,
      // truncating) — the user asked for a specific worker count.
      char* end = nullptr;
      errno = 0;
      long v = std::strtol(env, &end, 10);
      auto reject = [&](const char* why) {
        SARIS_RAISE(SimErrc::kBadConfig, 0,
                    "SARIS_SWEEP_THREADS " << why << " \"" << env << "\"");
      };
      if (end == env || *end != '\0') reject("must be a positive integer, got");
      if (errno == ERANGE ||
          v > static_cast<long>(std::numeric_limits<u32>::max())) {
        reject("overflows:");
      }
      if (v < 1) reject("must be >= 1, got");
      n = static_cast<u32>(v);
    }
  }
  if (n == 0) n = std::thread::hardware_concurrency();
  // At least one worker, and never more workers than jobs (zero jobs
  // included).
  return static_cast<u32>(
      std::clamp<std::size_t>(n, 1, std::max<std::size_t>(1, num_jobs)));
}

namespace {

/// One job under the isolation contract: bounded deterministic retry and
/// per-attempt fault-plan construction.
SweepResult run_one_isolated(const SweepJob& job, const SweepOptions& opts) {
  SweepResult r;
  const u32 max_attempts = std::max<u32>(1, opts.max_attempts);
  for (u32 attempt = 0; attempt < max_attempts; ++attempt) {
    r.attempts = attempt + 1;
    RunConfig cfg = job.cfg;
    // The attempt's storm: the same seed replays the same event list, the
    // attempt index expires events whose persistence has run out — so a
    // retry deterministically clears transient faults and deterministically
    // keeps hitting sticky ones.
    FaultPlan plan;
    if (job.inject_faults) {
      plan = FaultPlan::storm(job.storm, job.fault_seed, attempt);
      cfg.faults = &plan;
    } else if (cfg.faults != nullptr) {
      cfg.faults->rewind();
    }
    try {
      r.metrics = run_kernel(*job.code, cfg);
      r.ok = true;
      r.error_code = SimErrc::kNone;
      r.error.clear();
      r.fault.reset();
      return r;
    } catch (const SimError& e) {
      r.ok = false;
      r.error_code = e.errc();
      r.error = e.what();
      r.fault = std::make_shared<const SimError>(e);
      if (!e.retryable()) break;
    }
  }
  return r;
}

}  // namespace

std::vector<SweepResult> run_sweep_isolated(const std::vector<SweepJob>& jobs,
                                            const SweepOptions& opts) {
  std::vector<SweepResult> results(jobs.size());
  if (jobs.empty()) return results;
  for (const SweepJob& j : jobs) {
    SARIS_CHECK(j.code != nullptr, "sweep job without a stencil code");
  }
  u32 n = sweep_thread_count(opts.threads, jobs.size());

  if (n == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_one_isolated(jobs[i], opts);
    }
  } else {
    // Work-stealing by shared counter: each worker claims the next
    // unstarted job. Results land at their job's index, so ordering (and
    // hence output determinism) is independent of which worker finishes
    // when.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (u32 w = 0; w < n; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= jobs.size()) return;
          results[i] = run_one_isolated(jobs[i], opts);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  return results;
}

std::vector<RunMetrics> run_sweep(const std::vector<SweepJob>& jobs,
                                  u32 threads) {
  // All-or-nothing on top of the isolated engine: one attempt per job, and
  // the first failure in job order propagates as its SimError.
  SweepOptions opts;
  opts.threads = threads;
  std::vector<SweepResult> rs = run_sweep_isolated(jobs, opts);
  std::vector<RunMetrics> results(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (!rs[i].ok) throw SimError(*rs[i].fault);
    results[i] = std::move(rs[i].metrics);
  }
  return results;
}

std::vector<SweepJob> matrix_jobs(u64 seed) {
  const std::vector<StencilCode>& codes = all_codes();
  std::vector<SweepJob> jobs;
  jobs.reserve(codes.size() * 2);
  for (const StencilCode& sc : codes) {
    for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
      SweepJob j;
      j.code = &sc;
      j.cfg.variant = v;
      j.cfg.seed = seed;
      j.label = sc.name + "/" + variant_name(v);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::vector<MatrixRun> run_matrix(u64 seed, u32 threads) {
  const std::vector<StencilCode>& codes = all_codes();
  std::vector<RunMetrics> ms = run_sweep(matrix_jobs(seed), threads);
  std::vector<MatrixRun> rows(codes.size());
  for (std::size_t c = 0; c < codes.size(); ++c) {
    rows[c].code = &codes[c];
    rows[c].base = std::move(ms[2 * c]);
    rows[c].saris = std::move(ms[2 * c + 1]);
  }
  return rows;
}

bool metrics_bit_identical(const RunMetrics& a, const RunMetrics& b,
                           std::string* why) {
  auto fail = [&](const std::string& what) {
    if (why) *why = what;
    return false;
  };
#define SARIS_SWEEP_EQ(field)                    \
  do {                                           \
    if (a.field != b.field) return fail(#field); \
  } while (0)
  SARIS_SWEEP_EQ(cycles);
  SARIS_SWEEP_EQ(core_busy);
  SARIS_SWEEP_EQ(flops);
  SARIS_SWEEP_EQ(fpu_useful_ops);
  SARIS_SWEEP_EQ(fp_instrs);
  SARIS_SWEEP_EQ(int_instrs);
  SARIS_SWEEP_EQ(fp_loads);
  SARIS_SWEEP_EQ(fp_stores);
  SARIS_SWEEP_EQ(tcdm_accesses);
  SARIS_SWEEP_EQ(tcdm_conflicts);
  SARIS_SWEEP_EQ(tcdm_port_accesses);
  SARIS_SWEEP_EQ(tcdm_port_conflicts);
  SARIS_SWEEP_EQ(ssr_elems);
  SARIS_SWEEP_EQ(ssr_idx_words);
  SARIS_SWEEP_EQ(icache_misses);
  SARIS_SWEEP_EQ(icache_hits);
  SARIS_SWEEP_EQ(dma_util);
  SARIS_SWEEP_EQ(dma_bytes);
  SARIS_SWEEP_EQ(max_rel_err);
  SARIS_SWEEP_EQ(fpu_timeline);
#undef SARIS_SWEEP_EQ
  if (a.per_core.size() != b.per_core.size()) return fail("per_core.size");
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    const CorePerf& x = a.per_core[c];
    const CorePerf& y = b.per_core[c];
    const std::string who = "per_core[" + std::to_string(c) + "].";
    for (const CounterRow& r : kCounterTable) {
      if (x.*r.field != y.*r.field) return fail(who + r.name);
    }
    if (x.halted != y.halted) return fail(who + "halted");
    if (x.halted_at != y.halted_at) return fail(who + "halted_at");
  }
  return true;
}

}  // namespace saris
