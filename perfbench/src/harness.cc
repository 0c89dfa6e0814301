#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "profiler.h"
#include "util/crc32.h"

namespace pb {

const char* const kLayerNames[kNumLayers] = {
    "workload", "federation", "highlight", "lfs",
    "tertiary", "blockdev",   "sim",       "util"};

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double WallS() { return static_cast<double>(WallNs()) * 1e-9; }

// --- Spans -----------------------------------------------------------------

uint32_t Spans::NameId(Layer layer, const char* name) {
  // Span names are string literals: pointer identity first, then contents.
  for (size_t i = 0; i < name_keys_.size(); ++i) {
    if (name_keys_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i].name == name) {
      return static_cast<uint32_t>(i);
    }
  }
  NameStats stats;
  stats.name = name;
  stats.layer = layer;
  names_.push_back(std::move(stats));
  name_keys_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int32_t Spans::Open(Layer layer, const char* name, uint64_t request) {
  OpenSpan span;
  span.name = NameId(layer, name);
  span.start_ns = WallNs();
  if (epoch_ns_ == 0) {
    epoch_ns_ = span.start_ns;
  }
  if (records_.size() < kMaxRecords) {
    Record rec;
    rec.name = span.name;
    rec.parent = open_.empty() ? -1 : open_.back().record;
    rec.request = request;
    rec.start_ns = span.start_ns - epoch_ns_;
    span.record = static_cast<int32_t>(records_.size());
    records_.push_back(rec);
  }
  open_.push_back(span);
  return static_cast<int32_t>(open_.size() - 1);
}

void Spans::Close(int32_t open_index) {
  if (open_.empty() || open_index != static_cast<int32_t>(open_.size() - 1)) {
    std::fprintf(stderr, "span nesting violated\n");
    std::abort();
  }
  const OpenSpan span = open_.back();
  open_.pop_back();
  const int64_t dur = WallNs() - span.start_ns;
  const int64_t self = std::max<int64_t>(0, dur - span.child_ns);
  if (!open_.empty()) {
    open_.back().child_ns += dur;
  }
  NameStats& stats = names_[span.name];
  stats.total_ns += dur;
  stats.self_ns += self;
  stats.durations_us.push_back(static_cast<float>(dur) * 1e-3f);
  layer_self_ns_[stats.layer] += self;
  if (span.record >= 0) {
    records_[span.record].dur_ns = dur;
  }
}

std::array<double, kNumLayers> Spans::LayerSelfSeconds() const {
  std::array<double, kNumLayers> out{};
  for (int i = 0; i < kNumLayers; ++i) {
    out[i] = static_cast<double>(layer_self_ns_[i]) * 1e-9;
  }
  return out;
}

const Spans::NameStats* Spans::Find(const std::string& name) const {
  for (const NameStats& stats : names_) {
    if (stats.name == name) {
      return &stats;
    }
  }
  return nullptr;
}

double Spans::SelfSeconds(const std::string& name) const {
  const NameStats* s = Find(name);
  return s == nullptr ? 0.0 : static_cast<double>(s->self_ns) * 1e-9;
}

double Spans::TotalSeconds(const std::string& name) const {
  const NameStats* s = Find(name);
  return s == nullptr ? 0.0 : static_cast<double>(s->total_ns) * 1e-9;
}

const std::vector<float>& Spans::DurationsUs(const std::string& name) const {
  static const std::vector<float> kEmpty;
  const NameStats* s = Find(name);
  return s == nullptr ? kEmpty : s->durations_us;
}

std::string Spans::ToJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const NameStats& n = names_[r.name];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", n.name.c_str(), kLayerNames[n.layer],
                  static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.dur_ns) * 1e-3, i, r.parent,
                  static_cast<unsigned long long>(r.request));
    out += buf;
  }
  out += "]}\n";
  return out;
}

// --- Probes ----------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

namespace {
double TvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

HostSample HostSample::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostSample s;
  s.wall_s = WallS();
  s.sys_s = TvSeconds(ru.ru_stime);
  s.cpu_s = TvSeconds(ru.ru_utime) + s.sys_s;
  s.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

// --- Round phases ------------------------------------------------------------

RoundClock::RoundClock(const RoundContext& ctx, RoundResult* out)
    : ctx_(ctx), out_(out), start_s_(WallS()) {}

void RoundClock::StartTimed() {
  out_->host["setup_s"] = WallS() - start_s_;
  live_ = ctx_.spans;
  if (ctx_.traced) {
    Profiler::Get().Start();
  }
  timed_start_ = HostSample::Now();
}

void RoundClock::EndTimed(uint64_t ops, double user_bytes) {
  const HostSample end = HostSample::Now();
  if (ctx_.traced) {
    Profiler::Get().Stop();
  }
  live_ = nullptr;
  const double wall = end.wall_s - timed_start_.wall_s;
  out_->host["timed_s"] = wall;
  out_->host["host_ops_per_s"] = static_cast<double>(ops) / wall;
  out_->host["host_mb_per_s"] = user_bytes / 1e6 / wall;
  out_->host["host.sys_s"] = end.sys_s - timed_start_.sys_s;
  out_->host["host.minor_faults"] =
      static_cast<double>(end.minor_faults - timed_start_.minor_faults);
  if (ctx_.traced) {
    // Sampled CPU self time per module, scaled to the phase's measured CPU
    // seconds (user + sys), so the shares add up to what getrusage saw.
    const Profiler::Shares shares = Profiler::Get().TakeShares();
    const double cpu = end.cpu_s - timed_start_.cpu_s;
    for (int i = 0; i < kNumLayers; ++i) {
      out_->host[std::string(kLayerNames[i]) + ".self_s"] =
          shares.layer[i] * cpu;
    }
    out_->host["host.libc_self_s"] = shares.other * cpu;
    out_->host["host.bench_self_s"] = shares.bench * cpu;
    out_->host["host.profile_samples"] = static_cast<double>(shares.samples);
    if (ctx_.spans != nullptr) {
      const auto self = ctx_.spans->LayerSelfSeconds();
      for (int i = 0; i < kNumLayers; ++i) {
        out_->host[std::string(kLayerNames[i]) + ".span_self_s"] = self[i];
      }
    }
  }
}

// --- Export ------------------------------------------------------------------

namespace {
void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << body;
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
}
}  // namespace

hl::ObservabilityHub::Config HubConfig() {
  hl::ObservabilityHub::Config config;
  config.span_capacity = kHubWindow;
  config.series_capacity = kHubWindow;
  return config;
}

void ExportTelemetry(const RoundContext& ctx, hl::ObservabilityHub& hub,
                     RoundResult* out) {
  // A render is at the mercy of whatever else the machine runs: on a shared
  // host any statistic of a few renders moves by a fifth or more from one
  // process to the next. The render repeats for ctx.export_window_s (at
  // least kMinReps times, at most kMaxReps) and export_s is the fastest
  // render, its intrinsic cost. That floor is only reached when a render is
  // short enough (well under a millisecond) for thousands to fit in the
  // window, hence the hub's small windows (HubConfig).
  constexpr int kMinReps = 5;
  constexpr int kMaxReps = 200000;
  std::vector<double> export_s, snapshot_us;
  std::string metrics_json, timeline;
  const double start = WallS();
  while (static_cast<int>(export_s.size()) < kMinReps ||
         (WallS() - start < ctx.export_window_s &&
          static_cast<int>(export_s.size()) < kMaxReps)) {
    Scope span(ctx.spans, kUtil, "util.export");
    const int64_t t0 = WallNs();
    hl::MetricsSnapshot snap = hub.MergedSnapshot();
    const int64_t t1 = WallNs();
    metrics_json = snap.ToJson();
    timeline = hub.MergedTimelineJson();
    export_s.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
    snapshot_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  const std::string base = ctx.out_dir + "/" + ctx.workload;
  WriteFile(base + ".metrics.json", metrics_json);
  WriteFile(base + ".timeline.json", timeline);
  out->host["export_s"] = *std::min_element(export_s.begin(), export_s.end());
  out->host["util.metrics_snapshot_us"] =
      *std::min_element(snapshot_us.begin(), snapshot_us.end());
  out->host["util.span_window_bytes"] =
      static_cast<double>(hub.spans().window_bytes());
  out->det["util.trace_bytes"] =
      static_cast<double>(metrics_json.size() + timeline.size());
}

namespace {
volatile uint32_t crc_sink = 0;  // Keeps the calibration loop observable.
}  // namespace

void CrcEstimate(const RoundContext& ctx, uint64_t crc_bytes,
                 RoundResult* out) {
  out->det["util.crc_bytes_est"] = static_cast<double>(crc_bytes);
  if (!ctx.traced) {
    return;
  }
  // Calibration: hl::Crc32 over 1 MB buffers, called directly.
  constexpr size_t kBuf = 1 << 20;
  std::vector<uint8_t> buf(kBuf);
  FillPayload(ctx.seed, 0, buf.data(), buf.size());
  uint32_t sink = 0;
  const double t0 = WallS();
  int reps = 0;
  double elapsed = 0;
  do {
    sink ^= hl::Crc32(buf, sink);
    reps++;
    elapsed = WallS() - t0;
  } while (elapsed < 0.05 || reps < 4);
  crc_sink = sink;
  const double mb_per_s = reps * static_cast<double>(kBuf) / 1e6 / elapsed;
  out->host["util.crc_kernel_mb_per_s"] = mb_per_s;
  const double timed = out->host["timed_s"];
  out->host["util.crc_share_est"] =
      timed > 0 ? static_cast<double>(crc_bytes) / 1e6 / mb_per_s / timed : 0;
}

void SpanPercentiles(const Spans* spans, const std::string& span_name,
                     const std::string& metric_prefix, RoundResult* out) {
  std::vector<double> us;
  if (spans != nullptr) {
    const std::vector<float>& d = spans->DurationsUs(span_name);
    us.assign(d.begin(), d.end());
  }
  out->host[metric_prefix + "_p50"] = Percentile(us, 0.50);
  out->host[metric_prefix + "_p99"] = Percentile(us, 0.99);
}

// --- Payloads ----------------------------------------------------------------

namespace {
uint64_t Mix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

void FillPayload(uint64_t key, uint64_t offset, uint8_t* out, size_t n) {
  size_t i = 0;
  while (i < n) {
    const uint64_t pos = offset + i;
    const uint64_t word = Mix(key ^ (pos >> 3) * 0xD6E8FEB86659FD93ull);
    const size_t lane = pos & 7;
    const size_t take = std::min<size_t>(8 - lane, n - i);
    for (size_t k = 0; k < take; ++k) {
      out[i + k] = static_cast<uint8_t>(word >> ((lane + k) * 8));
    }
    i += take;
  }
}

uint64_t KeyOf(uint64_t seed, const std::string& path) {
  uint64_t h = Mix(seed);
  for (char c : path) {
    h = Mix(h ^ static_cast<uint8_t>(c));
  }
  return h;
}

// --- Seam decorators -----------------------------------------------------------

bool TimedBackend::SegmentCached(uint32_t tseg) const {
  Scope s(*spans_, kHighlight, "seam.segment_cached");
  return inner_->SegmentCached(tseg);
}

uint32_t TimedBackend::TertiarySegments() const {
  Scope s(*spans_, kHighlight, "seam.tertiary_segments");
  return inner_->TertiarySegments();
}

std::vector<uint32_t> TimedBackend::FetchableSegments() const {
  Scope s(*spans_, kHighlight, "seam.fetchable_segments");
  return inner_->FetchableSegments();
}

hl::Result<hl::FetchOutcome> TimedBackend::FetchSegment(uint32_t tseg) {
  Scope s(*spans_, kHighlight, "seam.fetch_segment");
  const hl::SimTime t0 = clock_->Now();
  hl::Result<hl::FetchOutcome> r = inner_->FetchSegment(tseg);
  busy_us_ += clock_->Now() - t0;
  if (r.ok()) {
    completions_.push_back({tseg, t0 + r->delay_us, r->status.ok()});
  }
  return r;
}

hl::Result<std::vector<hl::FetchOutcome>> TimedBackend::FetchBatch(
    const std::vector<uint32_t>& tsegs) {
  Scope s(*spans_, kHighlight, "seam.fetch_batch");
  const hl::SimTime t0 = clock_->Now();
  hl::Result<std::vector<hl::FetchOutcome>> r = inner_->FetchBatch(tsegs);
  busy_us_ += clock_->Now() - t0;
  if (r.ok()) {
    for (size_t i = 0; i < r->size() && i < tsegs.size(); ++i) {
      const hl::FetchOutcome& o = (*r)[i];
      completions_.push_back({tsegs[i], t0 + o.delay_us, o.status.ok()});
    }
  }
  return r;
}

hl::Result<hl::MigrationReport> TimedBackend::Migrate(
    const hl::MigrationRequest& request) {
  Scope s(*spans_, kHighlight, "seam.migrate");
  hl::Result<hl::MigrationReport> r = inner_->Migrate(request);
  if (r.ok()) {
    migrated_bytes_ += r->bytes_migrated;
  }
  return r;
}

hl::Result<uint32_t> TimedBackend::ScrubStep(uint32_t max_segments) {
  Scope s(*spans_, kHighlight, "seam.scrub_step");
  return inner_->ScrubStep(max_segments);
}

uint64_t TimedBackend::MediaSwaps() const {
  Scope s(*spans_, kHighlight, "seam.media_swaps");
  return inner_->MediaSwaps();
}

std::vector<Completion> TimedBackend::TakeCompletions() {
  std::vector<Completion> out;
  out.swap(completions_);
  return out;
}

uint64_t TimedSiteStore::SegmentImageBytes() const {
  Scope s(*spans_, kHighlight, "seam.segment_image_bytes");
  return inner_->SegmentImageBytes();
}

std::vector<uint32_t> TimedSiteStore::ReplicableSegments() const {
  Scope s(*spans_, kHighlight, "seam.replicable_segments");
  return inner_->ReplicableSegments();
}

hl::Result<std::vector<uint8_t>> TimedSiteStore::ReadSegmentImage(
    uint32_t tseg) {
  Scope s(*spans_, kHighlight, "seam.read_segment_image");
  return inner_->ReadSegmentImage(tseg);
}

hl::Status TimedSiteStore::InstallSegmentImage(uint32_t tseg,
                                               std::span<const uint8_t> image) {
  Scope s(*spans_, kHighlight, "seam.install_segment_image");
  return inner_->InstallSegmentImage(tseg, image);
}

bool TimedSiteStore::SegmentCrc(uint32_t tseg, uint32_t* crc) const {
  Scope s(*spans_, kHighlight, "seam.segment_crc");
  return inner_->SegmentCrc(tseg, crc);
}

void TimedSiteStore::StampSegmentCrc(uint32_t tseg, uint32_t crc) {
  Scope s(*spans_, kHighlight, "seam.stamp_segment_crc");
  inner_->StampSegmentCrc(tseg, crc);
}

hl::Status TimedSiteStore::PersistBlob(const std::string& name,
                                       std::span<const uint8_t> data) {
  Scope s(*spans_, kHighlight, "seam.persist_blob");
  return inner_->PersistBlob(name, data);
}

hl::Result<std::vector<uint8_t>> TimedSiteStore::LoadBlob(
    const std::string& name) {
  Scope s(*spans_, kHighlight, "seam.load_blob");
  return inner_->LoadBlob(name);
}

void Require(const hl::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace pb
