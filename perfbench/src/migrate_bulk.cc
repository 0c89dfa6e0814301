// migrate_bulk: ingest plus migration, the Table 6 shape.
//
// Files of mixed sizes (16 log-spaced classes from 16 KB to 2 MB, seeded
// jitter, order and payloads) are ingested into twelve directories through
// Lfs::Create/Write/Sync, one Sync per sixteen files. Each
// directory is then one migration job: an STP-ranked HighLightFs::Migrate
// of that subtree with immediate copy-out on the write-behind pipeline.
// Flush policy: the write-behind queue runs at its default depth and every
// job ends in the migrator's FlushStaging, so no copy-out crosses a job
// boundary. 1 MB segments on an RZ57 data disk with an RZ58 staging disk
// and one HP 6300 MO jukebox, on separate buses. It is a closed loop; the
// op is one migrated file, timed from its job's start to the job's end.
// Nothing goes through the stager or the read pipeline.

#include <cmath>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "highlight/highlight.h"
#include "highlight/migration_policy.h"
#include "layers.h"
#include "util/rng.h"
#include "workloads.h"

namespace pb {
namespace {

struct Size {
  int dirs;  // Migration jobs; each holds one file of every size class.
  uint32_t data_blocks;
  uint32_t staging_blocks;
  uint32_t cache_lines;
};
constexpr Size kFull = {12, 48 * 1024, 24 * 1024, 64};
constexpr Size kSmall = {2, 16 * 1024, 8 * 1024, 16};

// Size classes, log-spaced from 16 KB to 2 MB (about 7.4 MB per job).
constexpr int kClasses = 16;
constexpr double kMinFile = 16 * 1024;
constexpr double kMaxFile = 2 * 1024 * 1024;

struct File {
  std::string path;
  uint64_t bytes = 0;
};

}  // namespace

RoundResult RunMigrateBulk(const RoundContext& ctx) {
  RoundResult out;
  RoundClock phases(ctx, &out);
  const Size& size = ctx.small ? kSmall : kFull;

  hl::MigratorOptions write_behind;
  write_behind.write_behind = true;
  hl::SimClock clock;
  hl::HighLightConfig config = RequireOr(
      hl::HighLightConfig::Builder()
          .AddDisk(hl::Rz57Profile(), size.data_blocks)
          .AddDisk(hl::Rz58Profile(), size.staging_blocks)
          .AddJukebox(hl::Hp6300MoProfile())
          .CacheMaxSegments(size.cache_lines)
          .MigratorDefaults(write_behind)
          .TimeseriesCadence(0)
          .Build(),
      "config");
  auto owned = RequireOr(hl::HighLightFs::Create(config, &clock), "create");
  hl::HighLightFs* fs = owned.get();
  hl::ObservabilityHub hub(&clock, HubConfig());
  hub.Register("fs", &fs->metrics(), &fs->trace(), &fs->spans(),
               &fs->timeseries());
  hub.InstallTickHook();
  for (int d = 0; d < size.dirs; ++d) {
    RequireOr(fs->fs().Mkdir("/d" + std::to_string(d)), "mkdir");
  }

  // The file list is drawn in setup; payload bytes are generated in the
  // timed phase (under a workload span) as they are written. Every job gets
  // the same size mix, each size jittered by up to 10%, in a seeded order,
  // so job lengths (and with them the per-file latencies) are comparable
  // across seeds.
  std::vector<File> files;
  hl::Rng rng(SubSeed(ctx.seed, 1));
  uint64_t planned = 0;
  for (int d = 0; d < size.dirs; ++d) {
    for (int k = 0; k < kClasses; ++k) {
      const double base =
          kMinFile * std::pow(kMaxFile / kMinFile,
                              static_cast<double>(k) / (kClasses - 1));
      const uint64_t bytes =
          static_cast<uint64_t>(base * (0.9 + 0.2 * rng.NextDouble()));
      files.push_back({"/d" + std::to_string(d) + "/f" + std::to_string(k),
                       bytes});
      planned += bytes;
    }
  }
  for (size_t i = files.size(); i > 1; --i) {
    std::swap(files[i - 1], files[rng.Below(i)]);
  }

  LayerInputs layer_in;
  layer_in.fs = {fs};
  layer_in.before = SnapshotAll(layer_in.fs);
  const hl::SimTime t0 = clock.Now();
  phases.StartTimed();
  if (ctx.setup_only) {
    return out;
  }

  // Ingest.
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < files.size(); ++i) {
    Spans* spans = phases.spans();
    const File& f = files[i];
    {
      Scope s(spans, kWorkload, "workload.draw", i + 1);
      buf.resize(f.bytes);
      FillPayload(KeyOf(ctx.seed, f.path), 0, buf.data(), buf.size());
    }
    uint32_t ino;
    {
      Scope s(spans, kLfs, "lfs.create", i + 1);
      ino = RequireOr(fs->fs().Create(f.path), "create");
    }
    {
      Scope s(spans, kLfs, "lfs.write", i + 1);
      Require(fs->fs().Write(ino, 0, buf), "write");
    }
    if ((i + 1) % kClasses == 0 || i + 1 == files.size()) {
      Scope s(spans, kLfs, "lfs.sync");
      Require(fs->fs().Sync(), "sync");
    }
  }
  const hl::SimTime ingest_end = clock.Now();

  // Migration jobs, one per directory.
  hl::StpPolicy stp;
  std::vector<double> file_latency_us;
  uint64_t migrated_files = 0;
  for (int d = 0; d < size.dirs; ++d) {
    hl::MigrationRequest job;
    job.path = "/d" + std::to_string(d);
    job.policy = &stp;
    const hl::SimTime start = clock.Now();
    hl::MigrationReport report;
    {
      Scope s(phases.spans(), kHighlight, "highlight.migrate");
      report = RequireOr(fs->Migrate(job), "migrate");
    }
    const double job_us = static_cast<double>(clock.Now() - start);
    for (uint32_t k = 0; k < report.files_migrated; ++k) {
      file_latency_us.push_back(job_us);
    }
    migrated_files += report.files_migrated;
  }
  phases.EndTimed(migrated_files, static_cast<double>(planned));
  const hl::SimTime end = clock.Now();
  const double migrate_s = static_cast<double>(end - ingest_end) / 1e6;

  layer_in.sim_elapsed = end - t0;
  layer_in.user_bytes_written = static_cast<double>(planned);
  layer_in.user_bytes_migrated = static_cast<double>(planned);
  FillLayers(ctx, layer_in, ctx.spans, &out);
  ExportTelemetry(ctx, hub, &out);

  LatencyMetrics(file_latency_us, &out);
  out.det["sim_max_rate"] = static_cast<double>(migrated_files) /
                            (migrate_s / 3600.0);
  out.det["sim_mb_per_s"] = static_cast<double>(planned) / 1e6 / migrate_s;
  out.det["tertiary_bytes_per_user_byte"] =
      out.det["tertiary.bytes_written"] / static_cast<double>(planned);
  out.det["workload.gen_lag_p99_ms"] = 0;  // Closed loop: nothing is late.
  out.attempted = files.size();
  out.failed = files.size() - migrated_files;
  out.Check(migrated_files == files.size(),
            "migration left ingested files on disk");

  CheckDeployments({fs}, &out);
  out.Check(hub.spans().quiescent(), "hub span context leak");
  if (RemountCheck(fs, &out) && ctx.verify) {
    // Read every file back from tertiary storage after the remount.
    Require(fs->DropCleanCacheLines(), "drop cache");
    std::vector<uint8_t> got, want;
    for (const File& f : files) {
      uint32_t ino = RequireOr(fs->fs().LookupPath(f.path), "lookup");
      got.assign(f.bytes, 0);
      want.resize(f.bytes);
      size_t n = RequireOr(fs->fs().Read(ino, 0, got), "read back");
      FillPayload(KeyOf(ctx.seed, f.path), 0, want.data(), want.size());
      out.Check(n == f.bytes && got == want,
                "migrated bytes differ from the seeded payload: " + f.path);
    }
  }
  return out;
}

}  // namespace pb
