// Disaster-recovery drill: two HighLight sites paired by the
// SiteReplicator over a simulated WAN. Site A (primary) serves a seeded
// million-user demand population through the StagerScheduler; site B holds
// the replicated copy of A's tertiary population, shipped before the drill
// starts.
//
// Mid-workload the drill kills site A outright — every jukebox volume
// erased, the CRC catalog wiped, the cache dropped, the site quarantined.
// From that instant:
//
//   - demand recalls whose home is site A fail over to site B (counted);
//   - incremental anti-entropy rounds rebuild A from B's copy, shipping
//     only divergent segments verified against the CRC32 catalogs,
//     interleaved with the surviving site serving the population;
//   - when the catalogs reconverge the site is un-quarantined and demand
//     returns home.
//
// Reported (all bit-deterministic): recovery time, bytes/segments
// re-shipped, fetch p99 during the degraded window vs healthy operation,
// failover counts, and the zero-data-loss gates (a post-rebuild scrub of
// the dead site finds no unrecoverable segment; a post-rebuild anti-entropy
// round ships nothing).
//
//   site_disaster            full drill (1M users; committed baseline
//                            bench/baselines/site_disaster.json)
//   site_disaster --smoke    small population for CI
//                            (bench/baselines/site_disaster_smoke.json)

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "federation/site_replicator.h"
#include "highlight/highlight.h"
#include "util/observability_hub.h"
#include "util/wan_link.h"
#include "workload/population.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

constexpr uint64_t kSeed = 0xD15A57E4;

struct DrillParams {
  const char* report_name;
  uint64_t users;
  uint64_t sessions;
  uint64_t catalog_files;
  uint32_t files_per_site;  // Migrated one-segment files (tseg pool).
  uint32_t cache_lines;
  uint32_t ae_batch;        // Segments per anti-entropy increment.
};

constexpr DrillParams kFull = {
    .report_name = "site_disaster",
    .users = 1'000'000,
    .sessions = 8'000,
    .catalog_files = 32'768,
    .files_per_site = 60,
    .cache_lines = 16,
    .ae_batch = 6,
};

constexpr DrillParams kSmoke = {
    .report_name = "site_disaster_smoke",
    .users = 20'000,
    .sessions = 400,
    .catalog_files = 4'096,
    .files_per_site = 24,
    .cache_lines = 8,
    .ae_batch = 4,
};

JukeboxProfile SmallJukebox() {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 20ull * 64 * kBlockSize;  // 20 segs per side.
  return j;
}

// One complete site: a HighLight deployment whose tertiary pool holds
// `files_per_site` migrated one-segment files. Both sites are built from
// the same deterministic inputs, so their layouts (tseg numbering, volume
// geometry) are identical — the cross-site replication contract.
std::unique_ptr<HighLightFs> BuildSite(SimClock* clock,
                                       const DrillParams& params,
                                       SpanTracer* shared_spans,
                                       const std::string& track_prefix) {
  HighLightConfig config =
      DieOr(HighLightConfig::Builder()
                .AddDisk(Rz57Profile(), 16 * 1024)
                .AddJukebox(SmallJukebox(), /*write_once=*/false,
                            /*segs_per_volume=*/20)
                .SegSizeBlocks(64)
                .CacheMaxSegments(params.cache_lines)
                .AsyncReadPipeline(true)
                .TimeseriesCadence(0)
                .SharedSpans(shared_spans, track_prefix)
                .Build(),
            "site config");
  auto hl = DieOr(HighLightFs::Create(config, clock), "site create");

  MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;
  std::vector<uint32_t> inos;
  for (uint32_t i = 0; i < params.files_per_site; ++i) {
    std::string path = "/f" + std::to_string(i);
    uint32_t ino = DieOr(hl->fs().Create(path), "create");
    Die(hl->fs().Write(ino, 0, bench::Payload(200 * 1024, kSeed + i)),
        "write");
    inos.push_back(ino);
  }
  Die(hl->fs().Sync(), "sync");
  DieOr(hl->Internals().migrator.MigrateFiles(inos, data_only), "migrate");
  Die(hl->DropCleanCacheLines(), "drop cache");
  return hl;
}

// Total disaster at one site: every jukebox volume erased and the in-core
// CRC catalog wiped (the machine room burned down; what survives is the
// disk farm's LFS metadata and the peer site).
void KillSite(HighLightFs* site) {
  auto internals = site->Internals();
  std::set<uint32_t> volumes;
  for (uint32_t tseg : site->FetchableSegments()) {
    volumes.insert(internals.address_map.VolumeOfTseg(tseg));
  }
  for (uint32_t volume : volumes) {
    Die(internals.footprint.EraseVolume(static_cast<int>(volume)),
        "erase volume");
  }
  for (uint32_t tseg = 0; tseg < internals.tseg_table.size(); ++tseg) {
    internals.tseg_table.ClearCrc(tseg);
  }
  Die(site->DropCleanCacheLines(), "drop cache");
}

const Histogram::Data* FindHist(const MetricsSnapshot& snap,
                                const std::string& name) {
  for (const auto& [hist_name, data] : snap.histograms) {
    if (hist_name == name) {
      return &data;
    }
  }
  return nullptr;
}

// Observations added between two snapshots of the same histogram.
Histogram::Data DiffHist(const Histogram::Data& after,
                         const Histogram::Data& before) {
  Histogram::Data d = after;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

}  // namespace
}  // namespace hl

int main(int argc, char** argv) {
  using namespace hl;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const DrillParams& drill = smoke ? kSmoke : kFull;

  bench::Title(std::string("Site disaster drill: 2 sites, ") +
               std::to_string(drill.users) + " users, kill-and-rebuild");
  bench::Note("site A dies mid-workload; recalls fail over to site B while "
              "anti-entropy rebuilds A from B's replicated copy");

  SimClock clock;
  FaultInjector faults(&clock, kSeed);
  // One observability plane over the drill: both sites, the stager, the
  // replicator and the WAN link all trace into the hub's core tracer, so a
  // failover fetch is a single span tree from stager admission through the
  // WAN hop to the peer site's install.
  ObservabilityHub hub(&clock);
  auto site_a = BuildSite(&clock, drill, &hub.spans(), "siteA.");
  auto site_b = BuildSite(&clock, drill, &hub.spans(), "siteB.");
  std::vector<uint32_t> pool = site_a->FetchableSegments();
  if (pool.empty()) {
    bench::Die(Status(ErrorCode::kInternal, "site has no tertiary pool"),
               "setup");
  }

  WanLink link("a-b", &clock);
  link.AttachFaults(faults.Channel("wan.a-b"));
  link.SetSpans(&hub.spans());
  SiteReplicator repl(&clock);
  repl.SetSpans(&hub.spans());
  const int kSiteA = repl.AddSite("a", site_a.get());
  const int kSiteB = repl.AddSite("b", site_b.get());
  repl.SetLink(kSiteA, kSiteB, &link);

  // Steady-state replication before the drill: A's whole tertiary
  // population ships to B asynchronously, with a durable ledger.
  const uint32_t initial_sync =
      DieOr(repl.EnqueueNewSegments(kSiteA), "enqueue");
  Die(repl.RunUntilIdle(), "initial sync");
  if (repl.DivergentCountVs(kSiteA, kSiteB) != 0) {
    bench::Die(Status(ErrorCode::kInternal, "sites diverged after sync"),
               "setup");
  }
  const uint64_t sync_bytes = repl.stats().bytes_shipped;

  StagerConfig stager_config;
  stager_config.max_queue = 8192;
  stager_config.max_batch = 16;
  stager_config.fair_share_quantum = 8;
  stager_config.aging_rounds = 4;  // Maintenance survives the demand flood.
  StagerScheduler stager(&clock, stager_config);
  const int kShardA = stager.AddShard(site_a.get());
  const int kShardB = stager.AddShard(site_b.get());
  stager.SetShardSite(kShardA, kSiteA);
  stager.SetShardSite(kShardB, kSiteB);
  stager.SetFailoverPeer(kShardA, kShardB);
  stager.SetFailoverPeer(kShardB, kShardA);
  stager.SetSiteHealthProvider(&repl);
  stager.SetSpans(&hub.spans());
  stager.SetTracer(Tracer(&hub.trace()));

  hub.Register("siteA", &site_a->metrics(), &site_a->trace(),
               &site_a->spans(), &site_a->timeseries());
  hub.Register("siteB", &site_b->metrics(), &site_b->trace(),
               &site_b->spans(), &site_b->timeseries());
  hub.Register("stager", &stager.metrics(), nullptr, nullptr, nullptr);
  hub.Register("replicator", &repl.metrics(), nullptr, nullptr, nullptr);

  // Federation-level series + the SLO watch over them: fetch-delay tail,
  // admission queue depth, the dead site's replication lag, and bytes on
  // the WAN (sampled mid-transfer by the tick hook).
  hub.AddSeries("stager.queue_depth", [&stager] {
    return static_cast<int64_t>(stager.PendingRequests());
  });
  hub.AddSeries("wan.inflight_bytes", [&link] {
    return static_cast<int64_t>(link.inflight_bytes());
  });
  hub.AddSeries("siteA.replication_lag_s", [&repl, kSiteA] {
    return static_cast<int64_t>(repl.ReplicationLag(kSiteA) / kUsPerSec);
  });
  hub.AddSeries("siteB.replication_lag_s", [&repl, kSiteB] {
    return static_cast<int64_t>(repl.ReplicationLag(kSiteB) / kUsPerSec);
  });
  Histogram::Data* fetch_delay =
      stager.metrics().HistogramSlot("stager.fetch_delay_us");
  hub.AddSeries("stager.fetch_delay_p99_us", [fetch_delay] {
    return static_cast<int64_t>(fetch_delay->Percentile(0.99));
  });
  hub.AddSlo(SloRule{.name = "fetch_p99",
                     .series = "stager.fetch_delay_p99_us",
                     .threshold = 5'000'000});  // 5 s end-to-end recall.
  hub.AddSlo(SloRule{.name = "queue_depth",
                     .series = "stager.queue_depth",
                     .threshold = 64});
  hub.AddSlo(SloRule{.name = "replication_lag",
                     .series = "siteB.replication_lag_s",
                     .threshold = 30});
  hub.AddSlo(SloRule{.name = "wan_inflight",
                     .series = "wan.inflight_bytes",
                     .threshold = 4 << 20});
  // After every HighLightFs::Create (each installs its own tick hook).
  hub.InstallTickHook();

  PopulationParams pop;
  pop.users = drill.users;
  pop.tenants = 6;
  pop.catalog_files = drill.catalog_files;
  pop.zipf_theta = 0.99;
  pop.sessions = drill.sessions;
  pop.mean_session_requests = 4;
  pop.diurnal_amplitude = 0.6;
  pop.sequential_fraction = 0.3;
  pop.seed = kSeed;

  // The generator is deterministic: a counting pass sizes the stream so
  // the disaster lands at a fixed fraction of it.
  uint64_t total_events = 0;
  {
    PopulationGenerator counter(pop);
    while (counter.Next()) {
      total_events++;
    }
  }
  const uint64_t kill_at_event = total_events * 2 / 5;

  PopulationGenerator gen(pop);
  const SimTime epoch = clock.Now();
  constexpr SimTime kPumpInterval = 5 * kUsPerSec;
  SimTime next_pump = kPumpInterval;
  uint64_t busy_retries = 0;
  uint64_t event_index = 0;

  bool killed = false;
  bool recovered = false;
  SimTime killed_at = 0;
  SimTime recovered_at = 0;
  uint64_t bytes_before_rebuild = 0;
  uint64_t shipped_before_rebuild = 0;
  uint64_t rounds_before_rebuild = 0;
  uint64_t demand_served_at_kill = 0;
  uint64_t demand_served_at_recovery = 0;
  Histogram::Data delay_at_kill{};
  Histogram::Data delay_at_recovery{};
  const auto wall_start = std::chrono::steady_clock::now();

  auto pump_round = [&] {
    if (stager.PendingRequests() > 0) {
      Die(stager.Pump(), "pump");
    }
    // While the dead site rebuilds, each service round also runs one
    // anti-entropy increment from the survivor.
    if (killed && !recovered) {
      DieOr(repl.AntiEntropyRound(kSiteB, kSiteA, drill.ae_batch),
            "anti-entropy");
      if (repl.DivergentCountVs(kSiteB, kSiteA) == 0) {
        recovered = true;
        recovered_at = clock.Now();
        repl.SetSiteQuarantined(kSiteA, false);
        MetricsSnapshot snap = stager.Metrics();
        demand_served_at_recovery = snap.Value("stager.demand_served");
        if (const Histogram::Data* h =
                FindHist(snap, "stager.fetch_delay_us")) {
          delay_at_recovery = *h;
        }
      }
    }
  };

  while (auto ev = gen.Next()) {
    event_index++;
    if (!killed && event_index == kill_at_event) {
      KillSite(site_a.get());
      repl.SetSiteQuarantined(kSiteA, true);
      killed = true;
      killed_at = clock.Now();
      bytes_before_rebuild = repl.stats().bytes_shipped;
      shipped_before_rebuild = repl.stats().segments_shipped;
      rounds_before_rebuild = repl.stats().antientropy_rounds;
      MetricsSnapshot snap = stager.Metrics();
      demand_served_at_kill = snap.Value("stager.demand_served");
      if (const Histogram::Data* h =
              FindHist(snap, "stager.fetch_delay_us")) {
        delay_at_kill = *h;
      }
    }
    while (next_pump <= ev->at) {
      if (epoch + next_pump > clock.Now()) {
        clock.AdvanceTo(epoch + next_pump);
      }
      pump_round();
      next_pump += kPumpInterval;
    }
    SimTime at = epoch + ev->at;
    if (at > clock.Now()) {
      clock.AdvanceTo(at);
    }
    // Every recall targets its home shard at site A; routing (and, during
    // the outage, failover) is the stager's problem.
    uint32_t tseg = pool[ev->file % pool.size()];
    std::string tenant = "t";
    tenant.append(std::to_string(ev->tenant));
    Status s = stager.SubmitFetch(tenant, kShardA, tseg);
    while (s.code() == ErrorCode::kBusy) {
      busy_retries++;
      pump_round();
      s = stager.SubmitFetch(tenant, kShardA, tseg);
    }
    Die(s, "submit fetch");
  }
  while (stager.PendingRequests() > 0 || (killed && !recovered)) {
    pump_round();
  }
  Die(stager.RunUntilIdle(), "drain");
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // --- Zero-data-loss gates ----------------------------------------------
  // A post-rebuild anti-entropy round must find nothing left to ship...
  SiteReplicator::AntiEntropyStats post =
      DieOr(repl.AntiEntropyRound(kSiteB, kSiteA), "post-rebuild round");
  // ...and a full scrub of the rebuilt site must find every fully
  // replicated segment intact.
  Scrubber::Report scrub =
      DieOr(site_a->Internals().scrubber.ScrubAll(), "post-rebuild scrub");

  const double recovery_s =
      recovered ? static_cast<double>(recovered_at - killed_at) / kUsPerSec
                : -1.0;
  const uint64_t bytes_reshipped =
      repl.stats().bytes_shipped - bytes_before_rebuild;
  const uint64_t segments_reshipped =
      repl.stats().segments_shipped - shipped_before_rebuild;
  const uint64_t rebuild_rounds =
      repl.stats().antientropy_rounds - rounds_before_rebuild;

  MetricsSnapshot stager_snap = stager.Metrics();
  MetricsSnapshot repl_snap = repl.Metrics();
  const Histogram::Data* delay_total =
      FindHist(stager_snap, "stager.fetch_delay_us");
  Histogram::Data healthy = delay_at_kill;  // Before the kill.
  Histogram::Data degraded = DiffHist(delay_at_recovery, delay_at_kill);
  auto ms = [](uint64_t us) { return static_cast<double>(us) / 1000.0; };
  const double healthy_p99 = ms(healthy.Percentile(0.99));
  const double degraded_p99 = ms(degraded.Percentile(0.99));
  const double overall_p99 =
      delay_total != nullptr ? ms(delay_total->Percentile(0.99)) : 0.0;
  const uint64_t demand_degraded =
      demand_served_at_recovery - demand_served_at_kill;

  bench::JsonReport report(drill.report_name);
  report.Value("users", pop.users);
  report.Value("sessions", gen.sessions_emitted());
  report.Value("requests", gen.requests_emitted());
  report.Value("initial_sync_segments", static_cast<uint64_t>(initial_sync));
  report.Value("initial_sync_bytes", sync_bytes);
  report.Value("kill_at_event", kill_at_event);
  report.Value("recovery_time_s", recovery_s);
  report.Value("segments_reshipped", segments_reshipped);
  report.Value("bytes_reshipped", bytes_reshipped);
  report.Value("rebuild_antientropy_rounds", rebuild_rounds);
  report.Value("failover_fetches",
               stager_snap.Value("stager.failover_fetches"));
  report.Value("demand_served_degraded", demand_degraded);
  report.Value("demand_served_total",
               stager_snap.Value("stager.demand_served"));
  report.Value("aging_promotions",
               stager_snap.Value("stager.aging_promotions"));
  report.Value("healthy_fetch_p99_ms", healthy_p99);
  report.Value("degraded_fetch_p99_ms", degraded_p99);
  report.Value("overall_fetch_p99_ms", overall_p99);
  report.Value("busy_retries", busy_retries);
  report.Value("wan_transfers", link.transfers());
  report.Value("wan_bytes", link.bytes_shipped());
  report.Value("wan_corrupted_in_flight", link.corrupted_in_flight());
  report.Value("post_rebuild_divergent", static_cast<uint64_t>(post.divergent));
  report.Value("post_rebuild_reshipped", static_cast<uint64_t>(post.shipped));
  report.Value("post_rebuild_unrecoverable",
               static_cast<uint64_t>(scrub.unrecoverable));
  report.Value("ledger_persists", repl_snap.Value("site.ledger_persists"));
  // Wall-clock facts go in the non-compared "info" section: host speed is
  // nondeterministic, and these must never perturb the bit-identity gate.
  report.Info("wall_seconds", wall_seconds);
  report.Info("sim_ops_per_sec",
              wall_seconds > 0.0
                  ? static_cast<double>(gen.requests_emitted()) / wall_seconds
                  : 0.0);
  report.Snapshot("replicator", repl_snap);
  report.Snapshot("stager", stager_snap);
  report.Snapshot("hub", hub.MergedSnapshot());
  report.Trace("hub", hub.trace());
  report.TimelineDocument(hub.MergedTimelineJson());
  bench::CheckSpansQuiescent(hub.spans(), "site_disaster");

  bench::Table table({"Metric", "Value"});
  table.AddRow({"requests", std::to_string(gen.requests_emitted())});
  table.AddRow({"recovery time", bench::Fmt("%.1f s", recovery_s)});
  table.AddRow({"segments re-shipped", std::to_string(segments_reshipped)});
  table.AddRow({"bytes re-shipped", std::to_string(bytes_reshipped)});
  table.AddRow({"failover fetches",
                std::to_string(stager_snap.Value("stager.failover_fetches"))});
  table.AddRow({"healthy fetch p99", bench::Fmt("%.1f ms", healthy_p99)});
  table.AddRow({"degraded fetch p99", bench::Fmt("%.1f ms", degraded_p99)});
  table.AddRow({"post-rebuild divergent", std::to_string(post.divergent)});
  table.AddRow(
      {"post-rebuild unrecoverable", std::to_string(scrub.unrecoverable)});
  table.Print();

  report.Write();
  return 0;
}
