#include "profiler.h"

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdio>
#include <cstring>

extern "C" {
#define PB_MARKERS(m)              \
  void perfbench_##m##_begin();    \
  void perfbench_##m##_end();
PB_MARKERS(workload)
PB_MARKERS(federation)
PB_MARKERS(highlight)
PB_MARKERS(lfs)
PB_MARKERS(tertiary)
PB_MARKERS(blockdev)
PB_MARKERS(sim)
PB_MARKERS(util)
PB_MARKERS(bench)
#undef PB_MARKERS
}

namespace pb {
namespace {

constexpr int kBench = kNumLayers;
constexpr int kOther = kNumLayers + 1;
constexpr int kBuckets = kNumLayers + 2;

struct Range {
  uintptr_t begin = 0;
  uintptr_t end = 0;
};
Range g_ranges[kNumLayers + 1];  // Layers, then the benchmark's own code.
std::atomic<uint64_t> g_counts[kBuckets];
bool g_ranges_ok = false;

uintptr_t Addr(void (*fn)()) { return reinterpret_cast<uintptr_t>(fn); }

int Classify(uintptr_t pc) {
  if (!g_ranges_ok) {
    return kOther;
  }
  for (int i = 0; i <= kNumLayers; ++i) {
    if (pc >= g_ranges[i].begin && pc < g_ranges[i].end) {
      return i;
    }
  }
  return kOther;
}

void OnSample(int, siginfo_t*, void* context) {
  uintptr_t pc = 0;
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(static_cast<ucontext_t*>(context)->uc_mcontext.pc);
#else
  (void)context;
#endif
  g_counts[Classify(pc)].fetch_add(1, std::memory_order_relaxed);
}

void SetTimer(long usec) {
  itimerval t{};
  t.it_interval.tv_usec = usec;
  t.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &t, nullptr);
}

}  // namespace

Profiler& Profiler::Get() {
  static Profiler profiler;
  return profiler;
}

Profiler::Profiler() {
  const Range ranges[kNumLayers + 1] = {
      {Addr(perfbench_workload_begin), Addr(perfbench_workload_end)},
      {Addr(perfbench_federation_begin), Addr(perfbench_federation_end)},
      {Addr(perfbench_highlight_begin), Addr(perfbench_highlight_end)},
      {Addr(perfbench_lfs_begin), Addr(perfbench_lfs_end)},
      {Addr(perfbench_tertiary_begin), Addr(perfbench_tertiary_end)},
      {Addr(perfbench_blockdev_begin), Addr(perfbench_blockdev_end)},
      {Addr(perfbench_sim_begin), Addr(perfbench_sim_end)},
      {Addr(perfbench_util_begin), Addr(perfbench_util_end)},
      {Addr(perfbench_bench_begin), Addr(perfbench_bench_end)},
  };
  // The build promises each range is non-empty and no two overlap.
  bool ok = true;
  for (int i = 0; i <= kNumLayers; ++i) {
    ok = ok && ranges[i].begin < ranges[i].end;
    for (int j = 0; j < i; ++j) {
      ok = ok && (ranges[i].end <= ranges[j].begin ||
                  ranges[j].end <= ranges[i].begin);
    }
    g_ranges[i] = ranges[i];
  }
#if !defined(__x86_64__) && !defined(__aarch64__)
  ok = false;
#endif
  g_ranges_ok = ok;
  ranges_ok_ = ok;

  struct sigaction sa {};
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
}

void Profiler::Start() {
  for (auto& c : g_counts) {
    c.store(0, std::memory_order_relaxed);
  }
  SetTimer(1000);
}

void Profiler::Stop() { SetTimer(0); }

Profiler::Shares Profiler::TakeShares() {
  Shares s;
  uint64_t counts[kBuckets];
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = g_counts[i].exchange(0, std::memory_order_relaxed);
    s.samples += counts[i];
  }
  if (s.samples == 0) {
    return s;
  }
  const double n = static_cast<double>(s.samples);
  for (int i = 0; i < kNumLayers; ++i) {
    s.layer[i] = static_cast<double>(counts[i]) / n;
  }
  s.bench = static_cast<double>(counts[kBench]) / n;
  s.other = static_cast<double>(counts[kOther]) / n;
  return s;
}

}  // namespace pb
