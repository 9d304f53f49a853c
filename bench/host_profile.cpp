// Host profiler for the cycle loop and the static verifier: which simulator
// component, or which verify stage, the host's time goes to.
//
//   host_profile [--workload saris|base|scaleout|verify] [--seconds N]
//
// `saris` and `base` run the ten warm cells of one variant through
// run_kernel. `scaleout` runs the six scaleout_steady system jobs (G=4
// clusters x T=4 tiles, jacobi_2d, star3d2r and j3d27pt in both variants)
// through run_system_kernel, ticked serially. Both use the repository
// benchmark's settings: verify on, tolerance 1e-6. The seed is fixed at 4,
// since timing does not depend on it. `verify` compiles the 20 cells once
// with verify off and then calls verify_kernel on them; it profiles no
// cycle loop. After one warm-up pass, passes
// repeat for --seconds (default 12) of wall time while an
// ITIMER_PROF handler samples the process. It asks for one sample per
// millisecond of CPU time; the kernel may deliver fewer (about 250 per
// second at HZ=250). Each sample keeps the interrupted pc and a backtrace()
// in a buffer allocated up front. backtrace() runs once before the timer is
// armed, so the handler never allocates.
//
// After the run, `addr2line -a -f -C -i` expands each address into its
// chain of inlined frames. A sample is charged to the innermost frame of a
// component class: Tcdm; SsrLane/SsrUnit/AffineAddrGen; FpSubsystem/fp_alu;
// Core; ICache; FrepSequencer/stagger_rotate; Dma; Cluster/Barrier;
// HbmFrontend/System. Generic frames (FixedQueue, std::, libc) go to their
// caller. A sample with no Cluster::step frame is "outside Cluster::step".
// The `verify` workload charges samples under verify_kernel to its stages
// instead: CFG build (Cfg, check_structure), dataflow (analyze_dataflow)
// and abstract walk (abstract_interpret). The table gives each component's
// share of the samples under the profiled frame and of all samples. It
// gives no host time per simulated cycle: process CPU time has no control
// for host speed, which drifts up to 2x between runs, so only shares
// compare two builds. To turn a share into time, multiply it by the
// repository benchmark's 1/sim_mcps, which is in reference seconds.
//
// Below the table it lists the 15 source lines that take the most samples
// under the profiled frame: each sample counts once, for the innermost
// saris:: frame of its interrupted pc (a sample in std:: or libc code
// counts for the simulator line that called it; one with no saris:: frame
// for its innermost frame), printed as `function @ file:line`. Component
// shares say which class is hot; this list says which line.
//
// Inlined frames need debug info. Configure a separate build with -g:
//
//   cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=Release
//         -DCMAKE_CXX_FLAGS=-g -DCMAKE_EXE_LINKER_FLAGS=-no-pie
//   cmake --build build-prof --target host_profile -j
//   ./build-prof/host_profile --workload saris
//
// addr2line takes addresses in the executable's own numbering. Linking with
// -no-pie makes a sampled pc that number; in a PIE build the profiler
// subtracts the executable's load base from every pc inside it (found with
// dl_iterate_phdr), so both work. Without -g, addr2line still names the
// non-inlined functions, which is enough to tell the cycle loop from the
// rest; its hot-line list then reads ?? for every line.
//
// Exit status 1 when no sample was recorded, or when fewer than 90% of the
// samples fall under the profiled frame (Cluster::step, or verify_kernel).
// Every workload here spends at least 96% of its time there, so a lower
// share means unwinding or symbolizing failed.
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "report/table.hpp"
#include "runtime/kernel_runner.hpp"
#include "stencil/codes.hpp"
#include "system/system_runner.hpp"

namespace {

using namespace saris;

// ------------------------------------------------------------- sampling

constexpr int kMaxDepth = 40;
constexpr u64 kSeed = 4;
constexpr double kMinLoopShare = 0.9;

struct Sample {
  void* pc = nullptr;
  int depth = 0;
  std::array<void*, kMaxDepth> frames{};
};

Sample* g_samples = nullptr;
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_dropped{0};

void* interrupted_pc(void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void on_prof(int /*sig*/, siginfo_t* /*info*/, void* uctx) {
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Sample& s = g_samples[i];
  s.pc = interrupted_pc(uctx);
  s.depth = backtrace(s.frames.data(), kMaxDepth);
  g_count.store(i + 1, std::memory_order_relaxed);
}

void set_timer(long usec) {
  itimerval t{};
  t.it_interval.tv_usec = usec;
  t.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &t, nullptr);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::vector<const StencilCode*> codes;  ///< one per job
  RunConfig cell;                         ///< saris / base: every job's
  std::vector<SystemRunConfig> systems;   ///< scaleout: one per job
  std::vector<CompiledKernel> verify;     ///< verify: the cells to verify
};

RunConfig bench_config(KernelVariant v) {
  RunConfig cfg;
  cfg.variant = v;
  cfg.seed = kSeed;
  cfg.cg.verify = true;
  cfg.cg.analyze_cost = false;
  cfg.tolerance = 1e-6;
  return cfg;
}

bool make_workload(const std::string& name, Workload* w) {
  if (name == "saris" || name == "base") {
    w->cell = bench_config(name == "saris" ? KernelVariant::kSaris
                                           : KernelVariant::kBase);
    for (const StencilCode& sc : all_codes()) w->codes.push_back(&sc);
    return true;
  }
  if (name == "verify") {
    CodegenOptions cg;
    cg.verify = false;
    cg.analyze_cost = false;
    for (const StencilCode& sc : all_codes()) {
      for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
        w->verify.push_back(compile_kernel(sc, v, cg, 8));
      }
    }
    return true;
  }
  if (name == "scaleout") {
    for (const char* code : {"jacobi_2d", "star3d2r", "j3d27pt"}) {
      for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
        SystemRunConfig cfg;
        cfg.clusters = 4;
        cfg.tiles = 4;
        cfg.run = bench_config(v);
        cfg.on_error = SystemFaultPolicy::kQuarantine;
        w->codes.push_back(&code_by_name(code));
        w->systems.push_back(cfg);
      }
    }
    return true;
  }
  return false;
}

/// One pass over the jobs; returns the simulated cycles it ran.
u64 run_pass(const Workload& w) {
  for (const CompiledKernel& ck : w.verify) {
    if (!verify_kernel(ck).ok()) {
      std::fprintf(stderr, "host_profile: a cell failed verification\n");
      std::exit(1);
    }
  }
  u64 cycles = 0;
  for (std::size_t i = 0; i < w.codes.size(); ++i) {
    if (w.systems.empty()) {
      cycles += run_kernel(*w.codes[i], w.cell).cycles;
      continue;
    }
    const SystemRunMetrics sm = run_system_kernel(*w.codes[i], w.systems[i]);
    if (sm.tiles_ok != w.systems[i].clusters * sm.tiles) {
      std::fprintf(stderr, "host_profile: a system job lost tiles\n");
      std::exit(1);
    }
    cycles += sm.cycles;
  }
  return cycles;
}

// ------------------------------------------------------------ symbolizing

/// The executable's load bias and address ranges, so pcs inside it can be
/// turned into the addresses addr2line expects.
struct ExeMap {
  uintptr_t bias = 0;
  std::vector<std::pair<uintptr_t, uintptr_t>> ranges;

  bool contains(uintptr_t a) const {
    for (const auto& [lo, hi] : ranges) {
      if (a >= lo && a < hi) return true;
    }
    return false;
  }
};

ExeMap exe_map() {
  ExeMap m;
  // The first object dl_iterate_phdr reports is the executable itself.
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* data) {
        auto* out = static_cast<ExeMap*>(data);
        out->bias = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const ElfW(Phdr)& ph = info->dlpi_phdr[i];
          if (ph.p_type != PT_LOAD) continue;
          const uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
          out->ranges.emplace_back(lo, lo + ph.p_memsz);
        }
        return 1;
      },
      &m);
  return m;
}

/// One frame of addr2line's inline chain.
struct Frame {
  std::string function;
  std::string line;  ///< file:line, or ??:? without debug info
};

/// addr2line's inline chain (innermost first) for each executable address.
std::map<uintptr_t, std::vector<Frame>> symbolize(
    const std::vector<uintptr_t>& addrs) {
  std::map<uintptr_t, std::vector<Frame>> out;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) return out;
  exe[len] = '\0';
  constexpr std::size_t kBatch = 512;  // keeps each command line short
  for (std::size_t b = 0; b < addrs.size(); b += kBatch) {
    std::string cmd = std::string("addr2line -a -f -C -i -e '") + exe + "'";
    char hex[32];
    for (std::size_t i = b; i < addrs.size() && i < b + kBatch; ++i) {
      std::snprintf(hex, sizeof hex, " 0x%lx",
                    static_cast<unsigned long>(addrs[i]));
      cmd += hex;
    }
    FILE* p = popen(cmd.c_str(), "r");
    if (p == nullptr) return out;
    // Per address: its "0x..." line, then (function, file:line) pairs.
    std::vector<Frame>* cur = nullptr;
    bool want_function = false;
    char line[8192];
    while (std::fgets(line, sizeof line, p) != nullptr) {
      line[std::strcspn(line, "\n")] = '\0';
      if (std::strncmp(line, "0x", 2) == 0) {
        cur = &out[std::strtoul(line, nullptr, 16)];
        want_function = true;
      } else if (cur != nullptr) {
        if (want_function) {
          cur->push_back(Frame{line, ""});
        } else {
          cur->back().line = line;
        }
        want_function = !want_function;
      }
    }
    pclose(p);
  }
  return out;
}

// ----------------------------------------------------------- classifying

struct Component {
  const char* name;
  std::vector<const char*> prefixes;
};

const std::vector<Component>& loop_components() {
  static const std::vector<Component> kComponents = {
      {"TCDM", {"saris::Tcdm::"}},
      {"SSR", {"saris::SsrLane::", "saris::SsrUnit::",
               "saris::AffineAddrGen::"}},
      {"FPU", {"saris::FpSubsystem::", "saris::fp_alu"}},
      {"core integer step", {"saris::Core::"}},
      {"icache", {"saris::ICache::"}},
      {"FREP sequencer", {"saris::FrepSequencer::", "saris::stagger_rotate"}},
      {"DMA", {"saris::Dma::"}},
      {"cluster step, barrier", {"saris::Cluster::", "saris::Barrier::"}},
      {"HBM frontend, system", {"saris::HbmFrontend::", "saris::System::"}},
  };
  return kComponents;
}

const std::vector<Component>& verify_components() {
  static const std::vector<Component> kComponents = {
      {"CFG build", {"saris::Cfg::", "saris::check_structure"}},
      {"dataflow", {"saris::analyze_dataflow"}},
      {"abstract walk", {"saris::abstract_interpret"}},
  };
  return kComponents;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// Index into `components` of the innermost component frame, or -1.
int classify(const std::vector<Component>& components,
             const std::vector<const Frame*>& chain) {
  for (const Frame* f : chain) {
    for (std::size_t c = 0; c < components.size(); ++c) {
      for (const char* prefix : components[c].prefixes) {
        if (starts_with(f->function, prefix)) return static_cast<int>(c);
      }
    }
  }
  return -1;
}

/// The innermost saris:: frame of `chain`, or its innermost frame if it has
/// none: the line a hot-line sample counts for.
const Frame& hot_frame(const std::vector<const Frame*>& chain) {
  for (const Frame* f : chain) {
    if (starts_with(f->function, "saris::")) return *f;
  }
  return *chain.front();
}

/// `function @ file:line` of a frame, the file relative to the source tree
/// (the directory above this file's bench/) and without addr2line's
/// "(discriminator N)" suffix, so that one line is one entry.
std::string source_line(const Frame& f) {
  static const std::string root = [] {
    const std::string self = __FILE__;
    const std::size_t at = self.rfind("bench/host_profile.cpp");
    return at == std::string::npos ? std::string() : self.substr(0, at);
  }();
  std::string line = f.line.substr(0, f.line.find(" ("));
  if (!root.empty() && line.compare(0, root.size(), root) == 0) {
    line.erase(0, root.size());
  }
  return f.function + " @ " + line;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "saris";
  double seconds = 12.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: host_profile "
                   "[--workload saris|base|scaleout|verify] [--seconds N]\n");
      return 2;
    }
  }
  Workload w;
  if (!make_workload(workload, &w) || seconds <= 0.0) {
    std::fprintf(stderr, "host_profile: bad workload or seconds\n");
    return 2;
  }

  // Warm the plan cache and golden memo, and let backtrace() load what it
  // needs before the handler may call it.
  run_pass(w);
  std::array<void*, kMaxDepth> warm{};
  backtrace(warm.data(), kMaxDepth);

  // At most one sample per millisecond of CPU time, with room to spare.
  std::vector<Sample> samples(static_cast<std::size_t>(seconds * 1000) +
                              1000);
  g_samples = samples.data();
  g_capacity = samples.size();
  struct sigaction sa{};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  u64 cycles = 0;
  u32 passes = 0;
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  set_timer(1000);
  do {
    cycles += run_pass(w);
    ++passes;
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() < seconds);
  set_timer(0);
  const double cpu = cpu_seconds() - cpu0;
  signal(SIGPROF, SIG_DFL);

  const std::size_t n = g_count.load();
  if (n == 0) {
    std::fprintf(stderr, "host_profile: no samples recorded\n");
    return 1;
  }

  // The caller frames of a sample are those the unwinder reports past the
  // interrupted pc; a return address minus one lies in the call.
  const ExeMap exe = exe_map();
  auto exe_addr = [&](void* p, bool ret) -> uintptr_t {
    const auto a = reinterpret_cast<uintptr_t>(p) - (ret ? 1 : 0);
    return exe.contains(a) ? a - exe.bias : 0;
  };
  std::vector<std::vector<uintptr_t>> stacks(n);
  std::vector<uintptr_t> unique;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    int first = 0;
    while (first < s.depth && s.frames[first] != s.pc) ++first;
    if (first == s.depth) first = std::min(s.depth, 2);  // skip the handler
    stacks[i].push_back(exe_addr(s.pc, false));
    for (int k = first + 1; k < s.depth; ++k) {
      stacks[i].push_back(exe_addr(s.frames[k], true));
    }
    for (uintptr_t a : stacks[i]) {
      if (a != 0) unique.push_back(a);
    }
  }
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const auto symbols = symbolize(unique);

  const bool verify = !w.verify.empty();
  const std::vector<Component>& components =
      verify ? verify_components() : loop_components();
  const char* const frame =
      verify ? "saris::verify_kernel" : "saris::Cluster::step";
  const char* const frame_name = verify ? "verify_kernel" : "Cluster::step";
  std::vector<u64> counts(components.size(), 0);
  std::map<std::string, u64> lines;  ///< samples by hot_frame's source line
  u64 loop = 0, loop_other = 0;
  for (const std::vector<uintptr_t>& stack : stacks) {
    std::vector<const Frame*> chain;
    for (uintptr_t a : stack) {
      const auto it = symbols.find(a);
      if (it == symbols.end()) continue;
      for (const Frame& f : it->second) chain.push_back(&f);
    }
    bool in_loop = false;
    for (const Frame* f : chain) {
      in_loop = in_loop || starts_with(f->function, frame);
    }
    if (!in_loop) continue;
    ++loop;
    ++lines[source_line(hot_frame(chain))];
    const int c = classify(components, chain);
    if (c < 0) {
      ++loop_other;
    } else {
      ++counts[static_cast<std::size_t>(c)];
    }
  }

  const double total = static_cast<double>(n);
  std::printf("host_profile: workload %s, %u passes, %.1f s CPU",
              workload.c_str(), passes, cpu);
  if (!verify) {
    std::printf(", %llu simulated cycles",
                static_cast<unsigned long long>(cycles));
  }
  std::printf("\n");
  std::printf("samples: %zu (%zu dropped), %.1f%% under %s\n\n", n,
              g_dropped.load(), 100.0 * static_cast<double>(loop) / total,
              frame_name);
  TextTable t({verify ? "stage" : "component",
               verify ? "% of verify" : "% of loop", "% of all"});
  auto row = [&](const std::string& name, u64 count, bool in_loop) {
    const double all = static_cast<double>(count) / total;
    const double of_loop = static_cast<double>(count) /
                           static_cast<double>(std::max<u64>(loop, 1));
    t.add_row({name, in_loop ? TextTable::pct(of_loop, 1) : "-",
               TextTable::pct(all, 1)});
  };
  for (std::size_t c = 0; c < components.size(); ++c) {
    row(components[c].name, counts[c], true);
  }
  row(verify ? "other, in verify_kernel" : "other, in the loop", loop_other,
      true);
  row(std::string("outside ") + frame_name, n - loop, false);
  std::printf("%s", t.str().c_str());
  // A share p of n samples has binomial standard error sqrt(p(1-p)/n).
  std::printf("\nsampling noise: a share's standard error is at most %.1f "
              "points\n",
              50.0 / std::sqrt(total));

  constexpr std::size_t kHotLines = 15;
  std::vector<std::pair<u64, std::string>> hot;
  for (const auto& [where, count] : lines) hot.emplace_back(count, where);
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  hot.resize(std::min(hot.size(), kHotLines));
  std::printf("\nhottest lines under %s (innermost saris:: frame of each "
              "sample)\n",
              frame_name);
  TextTable h({verify ? "% of verify" : "% of loop", "samples",
               "function @ file:line"});
  for (const auto& [count, where] : hot) {
    h.add_row({TextTable::pct(static_cast<double>(count) /
                                  static_cast<double>(loop),
                              1),
               std::to_string(count), where});
  }
  std::printf("%s", h.str().c_str());

  if (static_cast<double>(loop) < kMinLoopShare * total) {
    std::fprintf(stderr, "host_profile: under %.0f%% of samples in %s\n",
                 100.0 * kMinLoopShare, frame_name);
    return 1;
  }
  return 0;
}
