// Sampling CPU profiler that attributes time to the repository's modules
// without any code in src/. A SIGPROF timer interrupts the process every
// millisecond of CPU time; the handler reads the interrupted instruction
// address and counts it against the module whose code range holds it. The
// ranges come from marker functions the build links before and after each
// module's objects (see CMakeLists.txt). Addresses outside every range are
// libc/libstdc++ code (memcpy, malloc, page-fault return points) or the
// benchmark's own code, and are counted separately.

#ifndef PERFBENCH_PROFILER_H_
#define PERFBENCH_PROFILER_H_

#include <array>
#include <cstdint>

#include "harness.h"

namespace pb {

class Profiler {
 public:
  struct Shares {
    std::array<double, kNumLayers> layer{};  // Fractions of all samples.
    double bench = 0;
    double other = 0;
    uint64_t samples = 0;
  };

  static Profiler& Get();

  // False when the marker ranges are not laid out as the build intends (or
  // the platform has no known program-counter register); samples are then
  // all counted as `other` and the self-test reports it.
  bool ranges_ok() const { return ranges_ok_; }

  void Start();
  void Stop();
  // Shares since the last call; resets the counters.
  Shares TakeShares();

 private:
  Profiler();
  bool ranges_ok_ = false;
};

}  // namespace pb

#endif  // PERFBENCH_PROFILER_H_
