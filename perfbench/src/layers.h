// Per-layer metrics every workload emits. Count metrics come from the
// program's own metrics registries, as deltas over the timed phase; host
// timings come from the benchmark's spans. Every workload fills every name
// (a layer a workload does not exercise reads 0), so the metric set is the
// same on all four.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "highlight/highlight.h"

namespace pb {

// Counter and gauge deltas between two snapshots, summed over deployments.
class Deltas {
 public:
  void Add(const hl::MetricsSnapshot& before, const hl::MetricsSnapshot& after);
  double Get(const std::string& name) const;
  double Sum(const std::string& prefix, const std::string& suffix) const;
  // Histogram observations added between the snapshots, merged.
  double HistP99(const std::string& name) const;
  double HistSum(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, hl::Histogram::Data> hists_;
};

// Snapshots of each deployment taken when the timed phase starts.
struct LayerInputs {
  std::vector<hl::HighLightFs*> fs;
  std::vector<hl::MetricsSnapshot> before;
  hl::SimTime sim_elapsed = 0;
  double recalls = 0;             // Demand recalls served (0: use faults).
  double user_bytes_written = 0;  // Through Lfs::Write in the timed phase.
  double user_bytes_migrated = 0;
  // Stager and replicator registries, when the workload has them.
  const hl::MetricsSnapshot* stager_before = nullptr;
  const hl::MetricsSnapshot* stager_after = nullptr;
  const hl::MetricsSnapshot* site_before = nullptr;
  const hl::MetricsSnapshot* site_after = nullptr;
};

// Snapshots every deployment (call when the timed phase starts).
std::vector<hl::MetricsSnapshot> SnapshotAll(
    const std::vector<hl::HighLightFs*>& fs);

// Fills the count-based per-layer metrics into out->det, the span-based
// host timings into out->host, and the util.crc_* estimate.
void FillLayers(const RoundContext& ctx, const LayerInputs& in,
                const Spans* spans, RoundResult* out);

// End-of-round checks shared by the workloads: every deployment's span
// context is quiescent and CheckFs finds no error.
void CheckDeployments(const std::vector<hl::HighLightFs*>& fs,
                      RoundResult* out);

// Seeds one generator stream per purpose from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Percentile summary of simulated op latencies into the end-to-end
// sim_p50_ms / sim_p99_ms and their sample count.
void LatencyMetrics(const std::vector<double>& latencies_us,
                    RoundResult* out);

// Bytes written to tertiary over the whole round per user byte migrated
// (setup migrations and rebuild installs included).
double TertiaryBytesPerMigratedByte(const std::vector<hl::HighLightFs*>& fs);

// Crash + remount of one deployment (checkpoint load and roll-forward):
// recovery_sim_s is the simulated time the remount takes. A failed remount
// is counted in lfs.remount_failures rather than aborting the run, so the
// defect shows in every traced run; CheckFs runs again after a successful
// one. Returns whether the remount succeeded.
bool RemountCheck(hl::HighLightFs* fs, RoundResult* out);

}  // namespace pb

#endif  // PERFBENCH_LAYERS_H_
