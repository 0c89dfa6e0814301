// Shared machinery of the perfbench binary: the in-memory span recorder,
// per-round results, host probes, and the timing decorators that sit on the
// FetchBackend and SiteStore seams. Everything here lives outside src/ and
// drives the system through its public surface only.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "highlight/fetch_backend.h"
#include "sim/sim_clock.h"
#include "util/metrics.h"
#include "util/observability_hub.h"

namespace pb {

// The repository's modules, in src/ directory names.
enum Layer : uint8_t {
  kWorkload,
  kFederation,
  kHighlight,
  kLfs,
  kTertiary,
  kBlockdev,
  kSim,
  kUtil,
  kNumLayers
};
extern const char* const kLayerNames[kNumLayers];

int64_t WallNs();
double WallS();

// ---------------------------------------------------------------------------
// Span recorder. One span per call the benchmark makes into a layer; spans
// nest through an implicit stack (perfbench is single-threaded). A layer's
// self time is its spans' time minus the part covered by child spans.
// Aggregates are kept for every span; full records (for the written-out
// trace) only up to a cap, so the artifact stays bounded.
class Spans {
 public:
  static constexpr size_t kMaxRecords = 200'000;

  int32_t Open(Layer layer, const char* name, uint64_t request);
  void Close(int32_t open_index);

  bool Quiescent() const { return open_.empty(); }
  // Self seconds per layer, and per span name.
  std::array<double, kNumLayers> LayerSelfSeconds() const;
  double SelfSeconds(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  // Host durations (microseconds) of every span with this name.
  const std::vector<float>& DurationsUs(const std::string& name) const;
  size_t records() const { return records_.size(); }
  // Chrome trace-event JSON of the recorded spans.
  std::string ToJson() const;

 private:
  struct NameStats {
    std::string name;
    Layer layer = kWorkload;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<float> durations_us;
  };
  struct OpenSpan {
    uint32_t name = 0;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    int32_t record = -1;
  };
  struct Record {
    uint32_t name = 0;
    int32_t parent = -1;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
  };
  uint32_t NameId(Layer layer, const char* name);
  const NameStats* Find(const std::string& name) const;

  std::vector<NameStats> names_;
  std::vector<const char*> name_keys_;  // Parallel to names_ (literal ptrs).
  std::vector<OpenSpan> open_;
  std::vector<Record> records_;
  std::array<int64_t, kNumLayers> layer_self_ns_{};
  int64_t epoch_ns_ = 0;
};

// RAII span; a null recorder (tracing off) costs one branch.
class Scope {
 public:
  Scope(Spans* spans, Layer layer, const char* name, uint64_t request = 0)
      : spans_(spans) {
    if (spans_ != nullptr) {
      index_ = spans_->Open(layer, name, request);
    }
  }
  ~Scope() {
    if (spans_ != nullptr) {
      spans_->Close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int32_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Latency samples in simulated microseconds, with exact nearest-rank
// percentiles.
double Percentile(std::vector<double> values, double p);

// Host resource probe: wall clock plus getrusage() counters.
struct HostSample {
  double wall_s = 0;
  double sys_s = 0;
  double cpu_s = 0;  // User + sys.
  uint64_t minor_faults = 0;
  static HostSample Now();
};
double PeakRssMb();

// ---------------------------------------------------------------------------
// One round: set up a fresh system, run the timed phase, export telemetry.
// `det` holds values that must be identical for every round of one seed
// (simulated time and program counters); `host` holds wall-clock values.
struct RoundResult {
  std::map<std::string, double> det;
  std::map<std::string, double> host;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  }
};

// What every workload round needs: its seed, size, tracing, the span
// recorder (null when tracing is off) and where artifacts go.
struct RoundContext {
  uint64_t seed = 1;
  bool small = false;
  bool traced = false;
  bool verify = false;  // Read every file back and compare with its payload.
  bool setup_only = false;  // Return right after setup (setup_s samples).
  double export_window_s = 1.0;  // How long the export renders repeat.
  Spans* spans = nullptr;
  std::string out_dir;
  std::string workload;
};

// Phase bookkeeping shared by the workloads: the setup and timed-phase
// marks, the getrusage deltas over the timed phase, and the sampling
// profiler (traced rounds) around it.
class RoundClock {
 public:
  RoundClock(const RoundContext& ctx, RoundResult* out);
  // Setup ends, the timed phase begins (spans and samples start here).
  void StartTimed();
  // The timed phase ends; `ops` and `user_bytes` are its work.
  void EndTimed(uint64_t ops, double user_bytes);
  // The recorder while the timed phase runs, else null. Decorators and
  // scopes read it through live(), so setup calls are never traced.
  Spans* spans() const { return live_; }
  Spans* const* live() const { return &live_; }

 private:
  const RoundContext& ctx_;
  RoundResult* out_;
  Spans* live_ = nullptr;
  double start_s_ = 0;
  HostSample timed_start_;
};

// The hub every workload reports through: the hub's defaults, except that
// its span window and each probe series keep the last kHubWindow entries
// (instead of 65536 spans and 4096 samples).
constexpr size_t kHubWindow = 1024;
hl::ObservabilityHub::Config HubConfig();

// The export phase: snapshot the hub's merged metrics and render its merged
// timeline over and over for ctx.export_window_s (export_s is the fastest
// render), then write both to the artifact directory; util.* export
// metrics come from the renders.
void ExportTelemetry(const RoundContext& ctx, hl::ObservabilityHub& hub,
                     RoundResult* out);

// Fills in util.crc_* metrics from counter totals: the estimated CRC bytes
// and the share of the timed phase they cost at the calibrated kernel rate.
void CrcEstimate(const RoundContext& ctx, uint64_t crc_bytes,
                 RoundResult* out);

// Host p50/p99 (microseconds) of the spans named `span_name`, written into
// `host` as <metric_prefix>_p50 and _p99; zeros when tracing is off.
void SpanPercentiles(const Spans* spans, const std::string& span_name,
                     const std::string& metric_prefix, RoundResult* out);

// Deterministic content of file `key` at byte `offset`: every writer and
// every verifier derives bytes from this, so a read can be checked against
// the seeded payload without a shadow copy.
void FillPayload(uint64_t key, uint64_t offset, uint8_t* out, size_t n);
uint64_t KeyOf(uint64_t seed, const std::string& path);

// ---------------------------------------------------------------------------
// Timing decorators on the two pure-interface seams. They forward every
// call, wrap it in a span (layer highlight, so the caller's self time
// excludes shard-side time), and record each recall's simulated completion
// instant for the open-loop accounting.
struct Completion {
  uint32_t tseg = 0;
  hl::SimTime done_at = 0;
  bool ok = true;
};

class TimedBackend final : public hl::FetchBackend {
 public:
  TimedBackend(hl::FetchBackend* inner, hl::SimClock* clock,
               Spans* const* spans)
      : inner_(inner), clock_(clock), spans_(spans) {}

  bool SegmentCached(uint32_t tseg) const override;
  uint32_t TertiarySegments() const override;
  std::vector<uint32_t> FetchableSegments() const override;
  hl::Result<hl::FetchOutcome> FetchSegment(uint32_t tseg) override;
  hl::Result<std::vector<hl::FetchOutcome>> FetchBatch(
      const std::vector<uint32_t>& tsegs) override;
  hl::Result<hl::MigrationReport> Migrate(
      const hl::MigrationRequest& request) override;
  hl::Result<uint32_t> ScrubStep(uint32_t max_segments) override;
  uint64_t MediaSwaps() const override;

  // Recalls completed since the last TakeCompletions().
  std::vector<Completion> TakeCompletions();
  // Simulated time spent inside FetchBatch/FetchSegment.
  hl::SimTime fetch_busy_us() const { return busy_us_; }
  uint64_t migrated_bytes() const { return migrated_bytes_; }

 private:
  hl::FetchBackend* inner_;
  hl::SimClock* clock_;
  Spans* const* spans_;
  std::vector<Completion> completions_;
  hl::SimTime busy_us_ = 0;
  uint64_t migrated_bytes_ = 0;
};

class TimedSiteStore final : public hl::SiteStore {
 public:
  TimedSiteStore(hl::SiteStore* inner, Spans* const* spans)
      : inner_(inner), spans_(spans) {}

  uint64_t SegmentImageBytes() const override;
  std::vector<uint32_t> ReplicableSegments() const override;
  hl::Result<std::vector<uint8_t>> ReadSegmentImage(uint32_t tseg) override;
  hl::Status InstallSegmentImage(uint32_t tseg,
                                 std::span<const uint8_t> image) override;
  bool SegmentCrc(uint32_t tseg, uint32_t* crc) const override;
  void StampSegmentCrc(uint32_t tseg, uint32_t crc) override;
  hl::Status PersistBlob(const std::string& name,
                         std::span<const uint8_t> data) override;
  hl::Result<std::vector<uint8_t>> LoadBlob(const std::string& name) override;

 private:
  hl::SiteStore* inner_;
  Spans* const* spans_;
};

// Aborts the round with a message when a setup call fails: setup failures
// are program faults, never benchmark results.
void Require(const hl::Status& status, const char* what);
template <typename T>
T RequireOr(hl::Result<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(*result);
}

}  // namespace pb

#endif  // PERFBENCH_HARNESS_H_
