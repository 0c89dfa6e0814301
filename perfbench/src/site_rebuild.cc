// site_rebuild: disaster recovery of a whole site.
//
// Two sites hold the same tertiary layout, kept in sync by the
// SiteReplicator over one WanLink (the initial sync is setup). When the
// timed phase starts, site A is killed: every jukebox volume erased, its
// CRC catalog wiped, its cache dropped, the site quarantined. A seeded
// population keeps recalling A's segments open-loop through the stager,
// which fails them over to site B, while every stager tick also runs one
// anti-entropy increment that re-ships divergent segments from B to A.
// When the catalogs reconverge A is un-quarantined. The drill runs 24
// times per round; each session is one recall, as in recall_zipf. The op
// is one re-shipped segment; recall latency is reported for the failover
// recalls (those due while A was down).

#include <algorithm>
#include <memory>
#include <utility>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "federation/site_replicator.h"
#include "federation/stager.h"
#include "highlight/highlight.h"
#include "layers.h"
#include "recall_load.h"
#include "util/wan_link.h"
#include "workload/population.h"
#include "workloads.h"

namespace pb {
namespace {

struct Size {
  uint64_t users;
  uint64_t sessions;
  uint64_t catalog_files;
  uint32_t files_per_site;
  uint32_t cache_lines;
  uint32_t ae_batch;  // Segments per anti-entropy increment.
  int drills;         // Kill-and-rebuild cycles per round.
};
constexpr Size kFull = {1'000'000, 240, 32'768, 120, 16, 2, 24};
constexpr Size kSmall = {20'000, 20, 4'096, 16, 4, 2, 2};

constexpr uint64_t kFileBytes = 200 * 1024;
// The population window: recalls keep arriving through the rebuild.
constexpr hl::SimTime kWindow = 1800ull * hl::kUsPerSec;

hl::JukeboxProfile SmallJukebox() {
  hl::JukeboxProfile j = hl::Hp6300MoProfile();
  j.num_slots = 8;
  j.volume_capacity_bytes = 20ull * 64 * hl::kBlockSize;  // 20 segs per side.
  return j;
}

std::string FilePath(uint32_t i) { return "/f" + std::to_string(i); }

// Both sites are built from the same inputs, so their tertiary layouts
// (tseg numbering, volume geometry) match — the replication contract.
std::unique_ptr<hl::HighLightFs> BuildSite(hl::SimClock* clock,
                                           const Size& size, uint64_t seed,
                                           hl::SpanTracer* shared,
                                           const std::string& prefix) {
  hl::HighLightConfig config = RequireOr(
      hl::HighLightConfig::Builder()
          .AddDisk(hl::Rz57Profile(), 40 * 1024)
          .AddJukebox(SmallJukebox(), /*write_once=*/false,
                      /*segs_per_volume=*/20)
          .SegSizeBlocks(64)
          .CacheMaxSegments(size.cache_lines)
          .AsyncReadPipeline(true)
          .TimeseriesCadence(0)
          .SharedSpans(shared, prefix)
          .Build(),
      "site config");
  auto fs = RequireOr(hl::HighLightFs::Create(config, clock), "site create");
  std::vector<uint8_t> buf(kFileBytes);
  for (uint32_t i = 0; i < size.files_per_site; ++i) {
    uint32_t ino = RequireOr(fs->fs().Create(FilePath(i)), "create");
    FillPayload(KeyOf(seed, FilePath(i)), 0, buf.data(), buf.size());
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

// The disaster: every volume holding A's segments erased and the in-core
// CRC catalog wiped. This is fault injection, so it reaches past the
// public surface through the Internals() facade.
void KillSite(hl::HighLightFs* site) {
  auto internals = site->Internals();
  std::set<uint32_t> volumes;
  for (uint32_t tseg : site->FetchableSegments()) {
    volumes.insert(internals.address_map.VolumeOfTseg(tseg));
  }
  for (uint32_t volume : volumes) {
    Require(internals.footprint.EraseVolume(static_cast<int>(volume)),
            "erase volume");
  }
  for (uint32_t tseg = 0; tseg < internals.tseg_table.size(); ++tseg) {
    internals.tseg_table.ClearCrc(tseg);
  }
  Require(site->DropCleanCacheLines(), "drop cache");
}

}  // namespace

RoundResult RunSiteRebuild(const RoundContext& ctx) {
  RoundResult out;
  RoundClock phases(ctx, &out);
  const Size& size = ctx.small ? kSmall : kFull;

  hl::SimClock clock;
  hl::FaultInjector faults(&clock, SubSeed(ctx.seed, 7));
  hl::ObservabilityHub hub(&clock, HubConfig());
  auto site_a = BuildSite(&clock, size, ctx.seed, &hub.spans(), "siteA.");
  auto site_b = BuildSite(&clock, size, ctx.seed, &hub.spans(), "siteB.");
  std::vector<hl::HighLightFs*> fs = {site_a.get(), site_b.get()};
  const std::vector<uint32_t> pool = site_a->FetchableSegments();
  out.Check(!pool.empty(), "site has no tertiary pool");
  if (pool.empty()) {
    return out;
  }

  hl::WanLink link("a-b", &clock);
  link.AttachFaults(faults.Channel("wan.a-b"));
  link.SetSpans(&hub.spans());
  TimedSiteStore store_a(site_a.get(), phases.live());
  TimedSiteStore store_b(site_b.get(), phases.live());
  hl::SiteReplicator repl(&clock);
  repl.SetSpans(&hub.spans());
  const int kA = repl.AddSite("a", &store_a);
  const int kB = repl.AddSite("b", &store_b);
  repl.SetLink(kA, kB, &link);
  RequireOr(repl.EnqueueNewSegments(kA), "enqueue");
  Require(repl.RunUntilIdle(), "initial sync");
  out.Check(repl.DivergentCountVs(kA, kB) == 0, "sites diverged after sync");

  TimedBackend backend_a(site_a.get(), &clock, phases.live());
  TimedBackend backend_b(site_b.get(), &clock, phases.live());
  hl::StagerConfig config;
  config.max_queue = 8192;
  config.max_batch = 16;
  config.fair_share_quantum = 8;
  config.aging_rounds = 4;
  hl::StagerScheduler stager(&clock, config);
  const int kShardA = stager.AddShard(&backend_a);
  const int kShardB = stager.AddShard(&backend_b);
  stager.SetShardSite(kShardA, kA);
  stager.SetShardSite(kShardB, kB);
  stager.SetFailoverPeer(kShardA, kShardB);
  stager.SetFailoverPeer(kShardB, kShardA);
  stager.SetSiteHealthProvider(&repl);
  stager.SetSpans(&hub.spans());
  stager.SetTracer(hl::Tracer(&hub.trace()));
  hub.Register("siteA", &site_a->metrics(), &site_a->trace(),
               &site_a->spans(), &site_a->timeseries());
  hub.Register("siteB", &site_b->metrics(), &site_b->trace(),
               &site_b->spans(), &site_b->timeseries());
  hub.Register("stager", &stager.metrics(), nullptr, nullptr, nullptr);
  hub.Register("replicator", &repl.metrics(), nullptr, nullptr, nullptr);
  hub.AddSeries("wan.inflight_bytes", [&link] {
    return static_cast<int64_t>(link.inflight_bytes());
  });
  hub.InstallTickHook();

  LayerInputs layer_in;
  layer_in.fs = fs;
  layer_in.before = SnapshotAll(fs);
  const hl::MetricsSnapshot stager_before = stager.Metrics();
  const hl::MetricsSnapshot site_before = repl.Metrics();
  const uint64_t shipped_before = repl.stats().segments_shipped;
  const uint64_t bytes_before = repl.stats().bytes_shipped;
  const hl::SimTime t0 = clock.Now();
  phases.StartTimed();
  if (ctx.setup_only) {
    return out;
  }

  // The drill repeats size.drills times in one timed phase: kill, rebuild under
  // a fresh recall stream, drain. Pooling the drills steadies the latency
  // tail and the recovery time.
  bool recovered = true;
  hl::SimTime killed_at = 0;
  hl::SimTime rebuild_busy_us = 0;
  std::vector<std::pair<hl::SimTime, hl::SimTime>> outages;
  RecallLoad load(&clock, &stager, {&backend_a, &backend_b}, {kShardB, kShardA},
                  phases.live(), 5 * hl::kUsPerSec);
  load.on_tick = [&] {
    if (recovered) {
      return false;
    }
    const hl::SimTime r0 = clock.Now();
    {
      Scope s(phases.spans(), kFederation, "site.antientropy_round");
      RequireOr(repl.AntiEntropyRound(kB, kA, size.ae_batch), "anti-entropy");
    }
    rebuild_busy_us += clock.Now() - r0;
    if (repl.DivergentCountVs(kB, kA) == 0) {
      recovered = true;
      outages.push_back({killed_at, clock.Now()});
      repl.SetSiteQuarantined(kA, false);
    }
    return !recovered;
  };
  const std::vector<std::string> tenants = {"t0", "t1", "t2",
                                            "t3", "t4", "t5"};
  uint64_t request = 0;
  for (int drill = 0; drill < size.drills; ++drill) {
    KillSite(site_a.get());
    repl.SetSiteQuarantined(kA, true);
    killed_at = clock.Now();
    recovered = false;
    hl::PopulationParams pop;
    pop.users = size.users;
    pop.tenants = 6;
    pop.catalog_files = size.catalog_files;
    pop.zipf_theta = 0.99;
    pop.sessions = size.sessions;
    pop.duration_us = kWindow;
    pop.mean_session_requests = 1;
    pop.diurnal_amplitude = 0.6;
    pop.sequential_fraction = 0;
    pop.seed = SubSeed(ctx.seed, 10 + drill);
    hl::PopulationGenerator gen(pop);
    for (;;) {
      std::optional<hl::PopulationEvent> ev;
      {
        Scope s(phases.spans(), kWorkload, "workload.draw", request + 1);
        ev = gen.Next();
      }
      if (!ev) {
        break;
      }
      const hl::SimTime due = killed_at + ev->at;
      load.AdvanceTo(due);
      const uint32_t tseg = pool[ev->file % pool.size()];
      load.Submit(tenants[ev->tenant % tenants.size()], kShardA, tseg, due,
                  ++request);
    }
    load.Drain();
    // Each rebuild must leave nothing to ship.
    hl::SiteReplicator::AntiEntropyStats post =
        RequireOr(repl.AntiEntropyRound(kB, kA), "post-rebuild round");
    out.Check(post.shipped == 0 && post.divergent == 0,
              "post-rebuild anti-entropy round still found divergence");
  }
  const uint64_t reshipped = repl.stats().segments_shipped - shipped_before;
  const uint64_t rebuilt_bytes = repl.stats().bytes_shipped - bytes_before;
  phases.EndTimed(reshipped, static_cast<double>(rebuilt_bytes));
  const hl::SimTime elapsed = clock.Now() - t0;

  const hl::MetricsSnapshot stager_after = stager.Metrics();
  const hl::MetricsSnapshot site_after = repl.Metrics();
  layer_in.sim_elapsed = elapsed;
  layer_in.recalls = static_cast<double>(load.latencies_us().size());
  layer_in.stager_before = &stager_before;
  layer_in.stager_after = &stager_after;
  layer_in.site_before = &site_before;
  layer_in.site_after = &site_after;
  FillLayers(ctx, layer_in, ctx.spans, &out);
  ExportTelemetry(ctx, hub, &out);

  // Failover recalls: those due while site A was down.
  std::vector<double> failover;
  for (size_t i = 0; i < load.latencies_us().size(); ++i) {
    const hl::SimTime due = load.due_us()[i];
    for (const auto& [down, up] : outages) {
      if (due >= down && due < up) {
        failover.push_back(load.latencies_us()[i]);
        break;
      }
    }
  }
  LatencyMetrics(failover, &out);
  hl::SimTime outage_us = 0;
  for (const auto& [down, up] : outages) {
    outage_us += up - down;
  }
  const double recovery_s = static_cast<double>(outage_us) / 1e6 /
                            static_cast<double>(std::max<size_t>(outages.size(), 1));
  out.det["recovery_sim_s"] = recovery_s;
  out.det["sim_mb_per_s"] =
      static_cast<double>(rebuilt_bytes) / 1e6 / (static_cast<double>(outage_us) / 1e6);
  out.det["sim_max_rate"] =
      static_cast<double>(reshipped) / (static_cast<double>(outage_us) / 3.6e9);
  out.det["tertiary_bytes_per_user_byte"] = TertiaryBytesPerMigratedByte(fs);
  out.det["workload.gen_lag_p99_ms"] = Percentile(load.lag_us(), 0.99) / 1e3;
  out.det["workload.rebuild_busy_sim_s"] =
      static_cast<double>(rebuild_busy_us) / 1e6;
  out.det["workload.recalls"] = static_cast<double>(load.latencies_us().size());
  out.det["lfs.remount_failures"] = 0;
  out.attempted = reshipped + load.attempted();
  out.failed = load.failed() + load.refusals();
  out.Check(outages.size() == static_cast<size_t>(size.drills),
            "site A did not reconverge after every drill");
  const uint64_t expected = pool.size() * static_cast<uint64_t>(size.drills);
  out.Check(reshipped == expected,
            "rebuilds re-shipped " + std::to_string(reshipped) + " of " +
                std::to_string(expected) + " segments");

  // Zero-loss gate: a full scrub of the rebuilt site finds no lost segment.
  uint32_t scrubbed = 0;
  while (scrubbed < site_a->TertiarySegments()) {
    const uint32_t n = RequireOr(site_a->ScrubStep(16), "scrub");
    if (n == 0) {
      break;
    }
    scrubbed += n;
  }
  const hl::MetricsSnapshot a_snap = site_a->Metrics();
  out.Check(a_snap.Value("scrub.lost_segments") == 0 &&
                a_snap.Value("scrub.unrecoverable_losses") == 0,
            "rebuilt site has lost segments");
  CheckDeployments(fs, &out);
  out.Check(hub.spans().quiescent(), "hub span context leak");
  if (ctx.verify) {
    // Every file reads back from the rebuilt site's tertiary copy.
    Require(site_a->DropCleanCacheLines(), "drop cache");
    std::vector<uint8_t> got(kFileBytes), want(kFileBytes);
    for (uint32_t i = 0; i < size.files_per_site; ++i) {
      uint32_t ino = RequireOr(site_a->fs().LookupPath(FilePath(i)), "lookup");
      size_t n = RequireOr(site_a->fs().Read(ino, 0, got), "read back");
      FillPayload(KeyOf(ctx.seed, FilePath(i)), 0, want.data(), want.size());
      out.Check(n == kFileBytes && got == want,
                "rebuilt bytes differ from the seeded payload");
    }
  }
  return out;
}

}  // namespace pb
