// recall_zipf: CASTOR-style staged recalls against a shared drive farm.
//
// Four shards sit behind one serial StagerScheduler with two drive tokens,
// each shard on the async read pipeline. A seeded population (Zipf 0.99
// over the catalog, 6 tenants, diurnal arrivals) is replayed open-loop for
// three simulated days at 1/2x, 1x and 2x the nominal rate; the queue
// drains at each day's end. Each session is one recall (independent
// users): multi-recall sessions make a seed's latency tail hinge on a few
// bursts, and the tail would then differ more between seeds than between
// builds. Hourly cold-range migration and scrub
// increments ride the same admission queue below demand. The tertiary
// working set (4 x 60 one-segment files) is larger than the 4 x 16 cache
// lines, so recalls keep missing, swapping media and verifying CRCs.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "federation/stager.h"
#include "highlight/highlight.h"
#include "layers.h"
#include "recall_load.h"
#include "workload/population.h"
#include "workloads.h"

namespace pb {
namespace {

struct Size {
  uint64_t users;
  uint64_t nominal_sessions;  // Sessions per simulated day at 1x.
  uint64_t catalog_files;
  uint32_t files_per_shard;
  uint32_t cache_lines;
};
constexpr Size kFull = {1'000'000, 2'400, 32'768, 60, 16};
constexpr Size kSmall = {20'000, 240, 4'096, 12, 4};

constexpr int kShards = 4;
constexpr uint64_t kFileBytes = 200 * 1024;
constexpr hl::SimTime kHour = 3600ull * hl::kUsPerSec;
constexpr hl::SimTime kDay = 24 * kHour;
constexpr double kRates[3] = {0.5, 1.0, 2.0};
// Latency limit on a day's p99 for sim_max_rate: ten simulated minutes
// from due to usable, a staged-recall service level.
constexpr double kLimitMs = 600'000.0;

hl::JukeboxProfile SmallJukebox() {
  hl::JukeboxProfile j = hl::Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 20ull * 64 * hl::kBlockSize;  // 20 segs per side.
  return j;
}

std::string FilePath(uint32_t i) { return "/f" + std::to_string(i); }
uint64_t FileKey(uint64_t seed, int shard, uint32_t i) {
  return KeyOf(seed, "shard" + std::to_string(shard) + FilePath(i));
}

std::unique_ptr<hl::HighLightFs> BuildShard(hl::SimClock* clock,
                                            const Size& size, int shard,
                                            uint64_t seed,
                                            hl::SpanTracer* shared) {
  hl::HighLightConfig config = RequireOr(
      hl::HighLightConfig::Builder()
          .AddDisk(hl::Rz57Profile(), 16 * 1024)
          .AddJukebox(SmallJukebox(), /*write_once=*/false,
                      /*segs_per_volume=*/20)
          .SegSizeBlocks(64)
          .CacheMaxSegments(size.cache_lines)
          .AsyncReadPipeline(true)
          .TimeseriesCadence(0)
          .SharedSpans(shared, "shard" + std::to_string(shard) + ".")
          .Build(),
      "shard config");
  auto fs = RequireOr(hl::HighLightFs::Create(config, clock), "shard create");
  std::vector<uint8_t> buf(kFileBytes);
  for (uint32_t i = 0; i < size.files_per_shard; ++i) {
    uint32_t ino = RequireOr(fs->fs().Create(FilePath(i)), "create");
    FillPayload(FileKey(seed, shard, i), 0, buf.data(), buf.size());
    Require(fs->fs().Write(ino, 0, buf), "write");
  }
  Require(fs->fs().Sync(), "sync");
  hl::MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;
  hl::MigrationRequest everything;
  everything.options = data_only;
  RequireOr(fs->Migrate(everything), "initial migration");
  Require(fs->DropCleanCacheLines(), "drop cache");
  return fs;
}

// Highest offered rate whose p99 meets the limit, interpolated linearly in
// p99 between the measured rates (a rate with a growing backlog counts as
// over the limit). Below the lowest rate it scales that rate down.
double MaxRate(const std::vector<double>& rates, std::vector<double> p99,
               const std::vector<bool>& backlog_grew) {
  for (size_t i = 0; i < p99.size(); ++i) {
    if (backlog_grew[i]) {
      p99[i] = std::max(p99[i], 2 * kLimitMs);
    }
  }
  if (p99[0] > kLimitMs) {
    return rates[0] * kLimitMs / p99[0];
  }
  for (size_t i = 0; i + 1 < rates.size(); ++i) {
    if (p99[i + 1] > kLimitMs) {
      const double span = std::max(p99[i + 1] - p99[i], 1e-9);
      return rates[i] + (rates[i + 1] - rates[i]) * (kLimitMs - p99[i]) / span;
    }
  }
  return rates.back();
}

}  // namespace

RoundResult RunRecallZipf(const RoundContext& ctx) {
  RoundResult out;
  RoundClock phases(ctx, &out);
  const Size& size = ctx.small ? kSmall : kFull;

  hl::SimClock clock;
  hl::ObservabilityHub hub(&clock, HubConfig());
  std::vector<std::unique_ptr<hl::HighLightFs>> shards;
  std::vector<hl::HighLightFs*> fs;
  std::vector<std::vector<uint32_t>> pool(kShards);
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(BuildShard(&clock, size, s, ctx.seed, &hub.spans()));
    fs.push_back(shards.back().get());
    pool[s] = fs.back()->FetchableSegments();
    out.Check(!pool[s].empty(), "shard has no tertiary pool");
    if (pool[s].empty()) {
      return out;
    }
    hub.Register("shard" + std::to_string(s), &fs.back()->metrics(),
                 &fs.back()->trace(), &fs.back()->spans(),
                 &fs.back()->timeseries());
  }
  std::vector<std::unique_ptr<TimedBackend>> timed;
  std::vector<TimedBackend*> backends;
  hl::StagerConfig config;
  config.max_queue = 8192;
  config.max_batch = 16;
  config.fair_share_quantum = 8;
  config.drive_tokens = 2;  // Shared drive farm: 2 of 4 shards per round.
  hl::StagerScheduler stager(&clock, config);
  for (int s = 0; s < kShards; ++s) {
    timed.push_back(
        std::make_unique<TimedBackend>(fs[s], &clock, phases.live()));
    backends.push_back(timed.back().get());
    stager.AddShard(backends.back());
  }
  stager.SetSpans(&hub.spans());
  stager.SetTracer(hl::Tracer(&hub.trace()));
  hub.Register("stager", &stager.metrics(), nullptr, nullptr, nullptr);
  hub.AddSeries("stager.queue_depth", [&stager] {
    return static_cast<int64_t>(stager.PendingRequests());
  });
  hub.InstallTickHook();
  const uint64_t seg_bytes = fs[0]->SegmentImageBytes();

  RecallLoad load(&clock, &stager, backends, std::vector<int>(kShards, -1),
                  phases.live(), 5 * hl::kUsPerSec);
  const std::vector<std::string> tenants = {"t0", "t1", "t2",
                                            "t3", "t4", "t5"};
  LayerInputs layer_in;
  layer_in.fs = fs;
  layer_in.before = SnapshotAll(fs);
  const hl::MetricsSnapshot stager_before = stager.Metrics();
  const hl::SimTime t0 = clock.Now();
  phases.StartTimed();
  if (ctx.setup_only) {
    return out;
  }

  std::vector<double> rates, day_p99, day_p50, drain_s;
  std::vector<bool> grew;
  uint64_t request = 0;
  for (int day = 0; day < 3; ++day) {
    hl::PopulationParams pop;
    pop.users = size.users;
    pop.tenants = 6;
    pop.catalog_files = size.catalog_files;
    pop.zipf_theta = 0.99;
    pop.sessions =
        static_cast<uint64_t>(static_cast<double>(size.nominal_sessions) *
                              kRates[day]);
    pop.mean_session_requests = 1;
    pop.diurnal_amplitude = 0.6;
    pop.sequential_fraction = 0;
    pop.seed = SubSeed(ctx.seed, 100 + day);
    hl::PopulationGenerator gen(pop);
    const hl::SimTime base = std::max(clock.Now(), t0 + day * kDay);
    const size_t first = load.latencies_us().size();
    hl::SimTime next_maintenance = kHour;
    for (;;) {
      std::optional<hl::PopulationEvent> ev;
      {
        Scope s(phases.spans(), kWorkload, "workload.draw", request + 1);
        ev = gen.Next();
      }
      if (!ev) {
        break;
      }
      const hl::SimTime due = base + ev->at;
      load.AdvanceTo(due);
      while (ev->at >= next_maintenance) {
        Scope s(phases.spans(), kFederation, "stager.submit_maintenance");
        hl::MigrationRequest cold;
        cold.cold_cutoff = clock.Now() - kHour;
        for (int sh = 0; sh < kShards; ++sh) {
          Require(stager.SubmitMigration("ops", sh, cold), "submit migration");
          Require(stager.SubmitScrub(sh, 4), "submit scrub");
        }
        next_maintenance += kHour;
      }
      const int shard = static_cast<int>(ev->file % kShards);
      const std::vector<uint32_t>& p = pool[shard];
      const uint32_t tseg = p[(ev->file / kShards) % p.size()];
      load.Submit(tenants[ev->tenant % tenants.size()], shard, tseg, due,
                  ++request);
    }
    const hl::SimTime last_due = clock.Now();
    load.Drain();
    const double drain = static_cast<double>(clock.Now() - last_due) / 1e6;
    std::vector<double> lat(load.latencies_us().begin() + first,
                            load.latencies_us().end());
    rates.push_back(static_cast<double>(lat.size()) / 24.0);
    day_p50.push_back(Percentile(lat, 0.50) / 1e3);
    day_p99.push_back(Percentile(lat, 0.99) / 1e3);
    drain_s.push_back(drain);
    // A backlog that outlives the day by more than an hour is growing.
    grew.push_back(drain > 3600.0);
  }
  const uint64_t recalls = load.latencies_us().size();
  phases.EndTimed(recalls, static_cast<double>(recalls * seg_bytes));
  const hl::SimTime elapsed = clock.Now() - t0;

  const hl::MetricsSnapshot stager_after = stager.Metrics();
  layer_in.sim_elapsed = elapsed;
  layer_in.recalls = static_cast<double>(recalls);
  layer_in.stager_before = &stager_before;
  layer_in.stager_after = &stager_after;
  for (TimedBackend* b : backends) {
    layer_in.user_bytes_migrated += static_cast<double>(b->migrated_bytes());
  }
  FillLayers(ctx, layer_in, ctx.spans, &out);

  ExportTelemetry(ctx, hub, &out);

  // End-to-end, simulated: latency over all three days, the rate sweep,
  // busy-time throughput and write amplification over the whole round.
  LatencyMetrics(load.latencies_us(), &out);
  out.det["sim_max_rate"] = MaxRate(rates, day_p99, grew);
  double busy_us = 0;
  for (TimedBackend* b : backends) {
    busy_us += static_cast<double>(b->fetch_busy_us());
  }
  out.det["sim_mb_per_s"] =
      static_cast<double>(recalls * seg_bytes) / 1e6 / (busy_us / 1e6);
  out.det["tertiary_bytes_per_user_byte"] = TertiaryBytesPerMigratedByte(fs);
  for (int day = 0; day < 3; ++day) {
    const std::string tag = "workload.rate" + std::to_string(day);
    out.det[tag + "_offered_per_h"] = rates[day];
    out.det[tag + "_p50_ms"] = day_p50[day];
    out.det[tag + "_p99_ms"] = day_p99[day];
    out.det[tag + "_drain_s"] = drain_s[day];
  }
  out.det["workload.gen_lag_p99_ms"] = Percentile(load.lag_us(), 0.99) / 1e3;
  out.attempted = load.attempted();
  out.failed = load.failed() + load.refusals();

  CheckDeployments(fs, &out);
  out.Check(hub.spans().quiescent(), "hub span context leak");
  if (RemountCheck(fs[0], &out) && ctx.verify) {
    std::vector<uint8_t> got(kFileBytes), want(kFileBytes);
    for (int s = 0; s < kShards; ++s) {
      for (uint32_t i = 0; i < size.files_per_shard; ++i) {
        uint32_t ino = RequireOr(fs[s]->fs().LookupPath(FilePath(i)), "lookup");
        size_t n = RequireOr(fs[s]->fs().Read(ino, 0, got), "read back");
        FillPayload(FileKey(ctx.seed, s, i), 0, want.data(), want.size());
        out.Check(n == kFileBytes && got == want,
                  "recalled bytes differ from the seeded payload");
      }
    }
  }
  return out;
}

}  // namespace pb
