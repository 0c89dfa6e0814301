// archive_mixed: a scaled-up Sequoia 2000 trace replayed through Lfs calls.
//
// Daily satellite-image ingest, a growing relation with random page reads
// (85% on its hot 15% tail), and a retrospective re-read of the first
// archived days. Events are issued open-loop at their trace times on the
// default synchronous fetch path. A tight 96 MB disk with 16 one-segment
// cache lines forces UniTree-style water-mark migration (STP policy) plus
// CleanUntil, so this is the one workload where writes, migration, the
// cleaner and demand faults run side by side. The relation's hot tail fits
// in the cache; the analysis re-reads do not. The op is one trace event,
// timed from its trace time to its completion.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "highlight/highlight.h"
#include "highlight/migration_policy.h"
#include "layers.h"
#include "workload/trace.h"
#include "workloads.h"

namespace pb {
namespace {

struct Size {
  int image_days;
  int db_queries;
  uint64_t db_bytes;
  int analysis_days;
  uint32_t disk_blocks;
  uint32_t cache_lines;
};
constexpr Size kFull = {12, 3000, 16ull << 20, 4, 24 * 1024, 16};
constexpr Size kSmall = {4, 200, 4ull << 20, 2, 8 * 1024, 4};

constexpr uint64_t kImageBytes = 2ull << 20;
// A read whose simulated service time exceeds this went to tertiary media.
constexpr hl::SimTime kFaultThresholdUs = 500'000;

// UniTree water marks (section 8.1), as fractions of log segments clean.
constexpr double kHighWater = 0.30;
constexpr double kLowWater = 0.50;
constexpr hl::SimTime kMinMigrationInterval = 3600ull * hl::kUsPerSec;

// 64-bit digest of a read's bytes, checked against the seeded payload
// after the timed phase.
uint64_t Digest(const uint8_t* p, size_t n) {
  uint64_t h = 0xCBF29CE484222325ull ^ n;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ull;
  }
  return h;
}

struct ReadRecord {
  std::string path;
  uint64_t offset = 0;
  size_t bytes = 0;
  uint64_t digest = 0;
};

}  // namespace

RoundResult RunArchiveMixed(const RoundContext& ctx) {
  RoundResult out;
  RoundClock phases(ctx, &out);
  const Size& size = ctx.small ? kSmall : kFull;

  hl::SequoiaTraceParams params;
  params.image_days = size.image_days;
  params.images_per_day = 4;
  params.image_bytes = kImageBytes;
  params.db_bytes = size.db_bytes;
  params.db_queries = size.db_queries;
  params.db_hot_fraction = 0.15;
  params.analysis_days = size.analysis_days;
  params.seed = SubSeed(ctx.seed, 1);

  // A small buffer cache (512 KB), so relation page reads reach the disk
  // cache lines instead of stopping in memory.
  hl::LfsParams lfs_params;
  lfs_params.buffer_cache_blocks = 128;
  lfs_params.cache_max_segments = size.cache_lines;
  hl::SimClock clock;
  hl::HighLightConfig config = RequireOr(
      hl::HighLightConfig::Builder()
          .AddDisk(hl::Rz57Profile(), size.disk_blocks)
          .AddJukebox(hl::Hp6300MoProfile())
          .Lfs(lfs_params)
          .TimeseriesCadence(0)
          .Build(),
      "config");
  auto owned = RequireOr(hl::HighLightFs::Create(config, &clock), "create");
  hl::HighLightFs* fs = owned.get();
  hl::Lfs& lfs = fs->fs();
  hl::ObservabilityHub hub(&clock, HubConfig());
  hub.Register("fs", &fs->metrics(), &fs->trace(), &fs->spans(),
               &fs->timeseries());
  hub.InstallTickHook();
  hl::StpPolicy stp;
  // Data blocks only: whole-file migration that also moves inodes and
  // indirect blocks (the MigratorOptions default) leaves block-map entries
  // pointing into the dead zone on this trace (CheckFs fails), so the
  // workload keeps metadata on disk until that is fixed.
  hl::MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;

  LayerInputs layer_in;
  layer_in.fs = {fs};
  layer_in.before = SnapshotAll(layer_in.fs);
  const hl::SimTime t0 = clock.Now();
  phases.StartTimed();
  if (ctx.setup_only) {
    return out;
  }

  hl::Trace trace;
  {
    Scope s(phases.spans(), kWorkload, "workload.draw");
    trace = hl::GenerateSequoiaTrace(params);
  }
  std::map<std::string, uint32_t> inodes;
  std::vector<double> latency_us;
  std::vector<double> lag_us;  // Due -> issue: how late the replay ran.
  std::vector<double> read_hit_us, read_fault_us;
  std::vector<ReadRecord> reads;
  std::vector<uint8_t> buf;
  hl::SimTime service_us = 0;
  hl::SimTime last_migration = 0;
  uint64_t migrations = 0, migrated_bytes = 0, cleaner_refusals = 0;
  uint64_t user_read = 0, user_written = 0;
  uint64_t request = 0;

  // Water-mark migration, run after writes as the replayer does.
  auto maybe_migrate = [&] {
    const uint32_t total = lfs.NumSegments() - lfs.superblock().cache_max_segments;
    const double clean =
        static_cast<double>(lfs.CleanSegmentCount()) / std::max(total, 1u);
    if (clean >= kHighWater) {
      return;
    }
    if (migrations > 0 && clock.Now() - last_migration < kMinMigrationInterval) {
      return;
    }
    last_migration = clock.Now();
    const uint32_t want_clean = static_cast<uint32_t>(kLowWater * total);
    const uint32_t deficit = want_clean > lfs.CleanSegmentCount()
                                 ? want_clean - lfs.CleanSegmentCount()
                                 : 1;
    hl::MigrationRequest req;
    req.policy = &stp;
    req.options = data_only;
    req.bytes_target = static_cast<uint64_t>(deficit) *
                       lfs.superblock().SegByteSize();
    {
      Scope s(phases.spans(), kHighlight, "highlight.migrate");
      hl::MigrationReport report = RequireOr(fs->Migrate(req), "migrate");
      migrated_bytes += report.bytes_migrated;
    }
    migrations++;
    Scope s(phases.spans(), kLfs, "lfs.clean_until");
    hl::Result<uint32_t> cleaned = fs->CleanUntil(want_clean);
    // kBusy: the cleaner picked a segment the log is writing and stopped.
    // The pass is maintenance, not a trace event, so it is counted as a
    // refusal and the next water-mark check tries again.
    if (!cleaned.ok() && cleaned.status().code() == hl::ErrorCode::kBusy) {
      cleaner_refusals++;
    } else {
      Require(cleaned.status(), "clean");
    }
  };

  for (const hl::WorkloadEvent& ev : trace.events) {
    Spans* spans = phases.spans();
    const hl::SimTime due = t0 + ev.at;
    if (due > clock.Now()) {
      Scope s(spans, kSim, "sim.advance");
      clock.AdvanceTo(due);
    }
    const hl::SimTime start = clock.Now();
    lag_us.push_back(static_cast<double>(start - due));
    ++request;
    switch (ev.op) {
      case hl::TraceOp::kMkdir: {
        Scope s(spans, kLfs, "lfs.mkdir", request);
        RequireOr(lfs.Mkdir(ev.path), "mkdir");
        break;
      }
      case hl::TraceOp::kCreate: {
        Scope s(spans, kLfs, "lfs.create", request);
        inodes[ev.path] = RequireOr(lfs.Create(ev.path), "create file");
        break;
      }
      case hl::TraceOp::kWrite: {
        {
          Scope s(spans, kWorkload, "workload.draw", request);
          buf.resize(ev.size);
          FillPayload(KeyOf(ctx.seed, ev.path), ev.offset, buf.data(),
                      buf.size());
        }
        Scope s(spans, kLfs, "lfs.write", request);
        Require(lfs.Write(inodes.at(ev.path), ev.offset, buf), "write");
        user_written += ev.size;
        break;
      }
      case hl::TraceOp::kRead: {
        buf.resize(ev.size);
        const int64_t h0 = WallNs();
        size_t n;
        {
          Scope s(spans, kLfs, "lfs.read", request);
          n = RequireOr(lfs.Read(inodes.at(ev.path), ev.offset, buf), "read");
        }
        const double host_us = static_cast<double>(WallNs() - h0) * 1e-3;
        (clock.Now() - start > kFaultThresholdUs ? read_fault_us
                                                 : read_hit_us)
            .push_back(host_us);
        reads.push_back({ev.path, ev.offset, n, Digest(buf.data(), n)});
        user_read += n;
        break;
      }
      case hl::TraceOp::kDelete: {
        Scope s(spans, kLfs, "lfs.unlink", request);
        Require(lfs.Unlink(ev.path), "unlink");
        inodes.erase(ev.path);
        break;
      }
    }
    service_us += clock.Now() - start;
    latency_us.push_back(static_cast<double>(clock.Now() - due));
    if (ev.op == hl::TraceOp::kWrite) {
      maybe_migrate();
    }
  }
  {
    Scope s(phases.spans(), kLfs, "lfs.sync");
    Require(lfs.Sync(), "sync");
  }
  const uint64_t user_bytes = user_read + user_written;
  phases.EndTimed(trace.events.size(), static_cast<double>(user_bytes));
  const hl::SimTime elapsed = clock.Now() - t0;

  layer_in.sim_elapsed = elapsed;
  layer_in.user_bytes_written = static_cast<double>(user_written);
  layer_in.user_bytes_migrated = static_cast<double>(migrated_bytes);
  FillLayers(ctx, layer_in, ctx.spans, &out);
  if (ctx.traced) {
    out.host["lfs.read_hit_us_p50"] = Percentile(read_hit_us, 0.50);
    out.host["lfs.read_hit_us_p99"] = Percentile(read_hit_us, 0.99);
    out.host["lfs.read_fault_us_p99"] = Percentile(read_fault_us, 0.99);
  }
  out.det["workload.read_faults"] = static_cast<double>(read_fault_us.size());
  ExportTelemetry(ctx, hub, &out);

  LatencyMetrics(latency_us, &out);
  const double service_s = static_cast<double>(service_us) / 1e6;
  out.det["sim_max_rate"] =
      static_cast<double>(trace.events.size()) / (service_s / 3600.0);
  out.det["sim_mb_per_s"] = static_cast<double>(user_bytes) / 1e6 / service_s;
  out.det["tertiary_bytes_per_user_byte"] =
      migrated_bytes == 0 ? 0.0
                          : out.det["tertiary.bytes_written"] /
                                static_cast<double>(migrated_bytes);
  out.det["workload.gen_lag_p99_ms"] = Percentile(lag_us, 0.99) / 1e3;
  out.det["workload.migrations"] = static_cast<double>(migrations);
  out.det["lfs.cleaner_refusals"] = static_cast<double>(cleaner_refusals);
  out.attempted = trace.events.size();
  out.Check(migrated_bytes > 0, "the trace never triggered migration");

  // Every read returned the seeded bytes.
  std::vector<uint8_t> want;
  for (const ReadRecord& r : reads) {
    want.resize(r.bytes);
    FillPayload(KeyOf(ctx.seed, r.path), r.offset, want.data(), want.size());
    if (Digest(want.data(), want.size()) != r.digest) {
      out.failed++;
      out.Check(false, "read bytes differ from the seeded payload: " + r.path);
    }
  }

  CheckDeployments({fs}, &out);
  out.Check(hub.spans().quiescent(), "hub span context leak");
  RemountCheck(fs, &out);
  return out;
}

}  // namespace pb
