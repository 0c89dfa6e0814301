#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "lfs/fsck.h"

namespace pb {
namespace {

bool Matches(const std::string& name, const std::string& prefix,
             const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

const hl::Histogram::Data* FindHistogram(const hl::MetricsSnapshot& snap,
                                         const std::string& name) {
  for (const auto& [hist_name, data] : snap.histograms) {
    if (hist_name == name) {
      return &data;
    }
  }
  return nullptr;
}

}  // namespace

void Deltas::Add(const hl::MetricsSnapshot& before,
                 const hl::MetricsSnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    values_[name] += static_cast<double>(value) -
                     static_cast<double>(before.Value(name));
  }
  for (const auto& [name, data] : after.gauges) {
    values_[name] += static_cast<double>(data.value) -
                     static_cast<double>(before.Value(name));
  }
  for (const auto& [name, data] : after.histograms) {
    hl::Histogram::Data d = data;
    if (const hl::Histogram::Data* b = FindHistogram(before, name)) {
      for (int i = 0; i < hl::Histogram::kNumBuckets; ++i) {
        d.buckets[i] -= b->buckets[i];
      }
      d.count -= b->count;
      d.sum -= b->sum;
    }
    auto [it, fresh] = hists_.try_emplace(name, d);
    if (!fresh) {
      for (int i = 0; i < hl::Histogram::kNumBuckets; ++i) {
        it->second.buckets[i] += d.buckets[i];
      }
      it->second.count += d.count;
      it->second.sum += d.sum;
      it->second.min = std::min(it->second.min, d.min);
      it->second.max = std::max(it->second.max, d.max);
    }
  }
}

double Deltas::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double Deltas::Sum(const std::string& prefix, const std::string& suffix) const {
  double total = 0;
  for (const auto& [name, value] : values_) {
    if (Matches(name, prefix, suffix)) {
      total += value;
    }
  }
  return total;
}

double Deltas::HistP99(const std::string& name) const {
  auto it = hists_.find(name);
  if (it == hists_.end() || it->second.count == 0) {
    return 0.0;
  }
  return static_cast<double>(it->second.Percentile(0.99));
}

double Deltas::HistSum(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? 0.0 : static_cast<double>(it->second.sum);
}

std::vector<hl::MetricsSnapshot> SnapshotAll(
    const std::vector<hl::HighLightFs*>& fs) {
  std::vector<hl::MetricsSnapshot> out;
  for (hl::HighLightFs* f : fs) {
    out.push_back(f->Metrics());
  }
  return out;
}

void FillLayers(const RoundContext& ctx, const LayerInputs& in,
                const Spans* spans, RoundResult* out) {
  auto& det = out->det;
  auto& host = out->host;
  Deltas d;
  double seg_bytes = 0;
  // Per-disk busy share over the timed phase; disks ordered by name within
  // a deployment, the highest share across deployments reported.
  double disk_busy[2] = {0, 0};
  for (size_t i = 0; i < in.fs.size(); ++i) {
    hl::MetricsSnapshot after = in.fs[i]->Metrics();
    d.Add(in.before[i], after);
    seg_bytes = static_cast<double>(in.fs[i]->SegmentImageBytes());
    std::set<std::string> disks;
    for (const auto& [name, data] : after.gauges) {
      if (Matches(name, "disk.", ".busy_us")) {
        disks.insert(name);
      }
    }
    size_t k = 0;
    for (const std::string& name : disks) {
      if (k >= 2) {
        break;
      }
      const double busy = static_cast<double>(after.Value(name)) -
                          static_cast<double>(in.before[i].Value(name));
      disk_busy[k] = std::max(
          disk_busy[k],
          Ratio(busy * 1000.0, static_cast<double>(in.sim_elapsed)));
      k++;
    }
  }
  Deltas st;
  if (in.stager_before != nullptr && in.stager_after != nullptr) {
    st.Add(*in.stager_before, *in.stager_after);
  }
  Deltas site;
  if (in.site_before != nullptr && in.site_after != nullptr) {
    site.Add(*in.site_before, *in.site_after);
  }

  // federation (stager)
  det["federation.queue_wait_p99_ms"] = st.HistP99("stager.queue_wait_us") / 1e3;
  det["federation.batches"] = st.Get("stager.batches_dispatched");
  det["federation.recalls_per_batch"] =
      Ratio(st.Get("stager.demand_served"), st.Get("stager.batches_dispatched"));
  det["federation.coalesced"] = st.Get("stager.coalesced");
  det["federation.drive_waits"] = st.Get("stager.drive_waits");
  det["federation.refusals"] = st.Get("stager.rejected");
  // federation (sites)
  det["federation.site_bytes_shipped"] = site.Get("site.bytes_shipped");
  det["federation.ae_divergent_per_compared"] =
      Ratio(site.Get("site.antientropy_divergent"),
            site.Get("site.antientropy_compared"));
  det["federation.ship_failures"] = site.Get("site.ship_failures");
  det["federation.wan_busy_sim_s"] = site.HistSum("wan.transfer_us") / 1e6;

  // highlight (read)
  det["highlight.fetch_delay_p99_ms"] =
      d.HistP99("service.demand_latency_us") / 1e3;
  det["highlight.read_queue_coalesced"] = d.Get("io.read_queue.coalesced");
  det["highlight.mounted_picks"] = d.Get("io.read_queue.mounted_picks");
  det["highlight.cache_hit_ratio"] =
      Ratio(d.Get("cache.hits"), d.Get("cache.hits") + d.Get("cache.misses"));
  det["highlight.cache_evictions"] = d.Get("cache.evictions");
  det["highlight.prefetch_accuracy"] =
      Ratio(d.Get("cache.prefetches_used"), d.Get("cache.prefetches_installed"));
  det["highlight.demand_faults"] = d.Get("blockmap.demand_faults");
  det["highlight.crc_mismatches"] = d.Get("io.crc_mismatches");
  det["highlight.io_retries"] = d.Get("io.retries");
  // highlight (migrate/scrub)
  det["highlight.segments_completed"] = d.Get("migrator.segments_completed");
  det["highlight.bytes_copied_out"] = d.Get("io.bytes_copied_out");
  det["highlight.backpressure_stalls"] = d.Get("io.backpressure_stalls");
  det["highlight.copyout_p99_ms"] = d.HistP99("io.copyout_latency_us") / 1e3;
  det["highlight.segments_scrubbed"] = d.Get("scrub.segments_scrubbed");

  // lfs
  det["lfs.disk_bytes_per_user_byte"] =
      Ratio(d.Sum("disk.", ".bytes_written"), in.user_bytes_written);
  det["lfs.summary_blocks_written"] = d.Get("lfs.summary_blocks_written");
  det["lfs.segments_cleaned"] = d.Get("cleaner.segments_cleaned");
  det["lfs.cleaner_refusals"] = 0;  // Set by workloads that run the cleaner.
  det["lfs.cleaner_live_ratio"] =
      Ratio(d.Get("cleaner.blocks_live"), d.Get("cleaner.blocks_examined"));

  // tertiary
  const double swaps = d.Get("footprint.media_swaps");
  det["tertiary.media_swaps"] = swaps;
  det["tertiary.swaps_per_recall"] = Ratio(
      swaps, in.recalls > 0 ? in.recalls : d.Get("service.demand_fetches"));
  det["tertiary.drive_busy_sim_s"] = d.Sum("jukebox.", ".busy_us") / 1e6;
  det["tertiary.bytes_read"] = d.Sum("jukebox.", ".bytes_read");
  det["tertiary.bytes_written"] = d.Sum("jukebox.", ".bytes_written");

  // blockdev
  det["blockdev.disk0_busy_permille"] = disk_busy[0];
  det["blockdev.disk1_busy_permille"] = disk_busy[1];
  det["blockdev.disk_bytes_written"] = d.Sum("disk.", ".bytes_written");

  // sim
  det["sim.elapsed_s"] = static_cast<double>(in.sim_elapsed) / 1e6;

  // util: CRC bytes implied by the counters. Every tertiary read is
  // verified, every copy-out and scrub examines a whole segment, a shipped
  // image is checked by sender and receiver and stamped at install, and the
  // log writer checksums every block it writes.
  const double crc_bytes =
      seg_bytes * (d.Get("io.crc_verified") + d.Get("io.segments_copied_out") +
                   d.Get("scrub.segments_scrubbed")) +
      3.0 * site.Get("site.bytes_shipped") +
      static_cast<double>(hl::kBlockSize) * d.Get("lfs.blocks_written");
  CrcEstimate(ctx, static_cast<uint64_t>(crc_bytes), out);

  // Span-derived host timings (zeros in untraced rounds).
  auto total = [&](const char* name) {
    return spans == nullptr ? 0.0 : spans->TotalSeconds(name);
  };
  auto self = [&](const char* name) {
    return spans == nullptr ? 0.0 : spans->SelfSeconds(name);
  };
  host["federation.stager_self_s"] = self("stager.submit") +
                                     self("stager.pump") +
                                     self("stager.submit_maintenance");
  SpanPercentiles(spans, "stager.pump", "federation.pump_us", out);
  host["federation.site_self_s"] = self("site.antientropy_round") +
                                   self("site.run_until_idle") +
                                   self("site.enqueue");
  SpanPercentiles(spans, "seam.fetch_batch", "highlight.fetch_batch_us", out);
  host["highlight.fetch_host_s"] =
      total("seam.fetch_batch") + total("seam.fetch_segment");
  host["highlight.migrate_host_s"] =
      total("seam.migrate") + total("highlight.migrate");
  host["highlight.migrate_ms_per_mb"] =
      Ratio(host["highlight.migrate_host_s"] * 1e3,
            in.user_bytes_migrated / 1e6);
  host["highlight.scrub_host_s"] = total("seam.scrub_step");
  SpanPercentiles(spans, "lfs.write", "lfs.write_us", out);
  // Read hit/fault timings need the read's simulated service time; the
  // workloads that issue Lfs reads in the timed phase overwrite these.
  host["lfs.read_hit_us_p50"] = 0;
  host["lfs.read_hit_us_p99"] = 0;
  host["lfs.read_fault_us_p99"] = 0;
  host["lfs.sync_host_s"] = total("lfs.sync");
  host["lfs.cleaner_host_s"] = total("lfs.clean_until");
  host["workload.gen_host_s"] = total("workload.draw");
}

void CheckDeployments(const std::vector<hl::HighLightFs*>& fs,
                      RoundResult* out) {
  for (size_t i = 0; i < fs.size(); ++i) {
    const std::string tag = "deployment " + std::to_string(i);
    out->Check(fs[i]->spans().quiescent(), tag + ": span context leak");
    hl::FsckReport report = hl::CheckFs(fs[i]->fs());
    out->Check(report.clean(),
               tag + ": CheckFs: " +
                   (report.errors.empty() ? "" : report.errors.front()));
  }
}

bool RemountCheck(hl::HighLightFs* fs, RoundResult* out) {
  const hl::SimTime t0 = fs->clock().Now();
  const hl::Status status = fs->Remount();
  out->det["recovery_sim_s"] =
      static_cast<double>(fs->clock().Now() - t0) / 1e6;
  out->det["lfs.remount_failures"] = status.ok() ? 0 : 1;
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: remount failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  CheckDeployments({fs}, out);
  return true;
}

}  // namespace pb

namespace pb {

double TertiaryBytesPerMigratedByte(const std::vector<hl::HighLightFs*>& fs) {
  Deltas round;
  for (hl::HighLightFs* f : fs) {
    round.Add(hl::MetricsSnapshot{}, f->Metrics());
  }
  return Ratio(round.Sum("jukebox.", ".bytes_written"),
               round.Get("migrator.bytes_migrated"));
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return KeyOf(seed, "stream" + std::to_string(stream));
}

void LatencyMetrics(const std::vector<double>& latencies_us,
                    RoundResult* out) {
  out->det["sim_p50_ms"] = Percentile(latencies_us, 0.50) / 1e3;
  out->det["sim_p99_ms"] = Percentile(latencies_us, 0.99) / 1e3;
  out->det["workload.latency_samples"] =
      static_cast<double>(latencies_us.size());
}

}  // namespace pb
