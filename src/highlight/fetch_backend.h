// FetchBackend: the scheduler-facing seam of one disk-farm shard.
//
// A federation stager (src/federation/) admits demand recalls, migration
// passes and scrub increments for many HighLightFs shards; everything it
// needs from a shard crosses this narrow interface. The per-shard
// ServiceProcess / IoServer machinery (elevator issue, coalescing,
// critical-segment-first resume) stays behind it — the stager hands a whole
// demand batch over at once and the backend orders the transfers on the
// drives. HighLightFs implements the interface; tests can substitute fakes.

#ifndef HIGHLIGHT_HIGHLIGHT_FETCH_BACKEND_H_
#define HIGHLIGHT_HIGHLIGHT_FETCH_BACKEND_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "highlight/migrator.h"
#include "sim/sim_clock.h"
#include "util/status.h"

namespace hl {

// The unified migration request: one entry point covering whole-subtree
// migration, policy-driven migration with a byte budget, and block-range
// (cold-range) migration. Part of the scheduler-facing API: the stager's
// migration admission class carries one of these per pass.
struct MigrationRequest {
  // Subtree (or single file) the migration considers.
  std::string path = "/";
  // Ranking policy: candidates under `path` migrate best-first until at
  // least `bytes_target` bytes are staged (0 = everything rankable).
  // Null = wholesale migration of the subtree.
  MigrationPolicy* policy = nullptr;
  uint64_t bytes_target = 0;
  // Block-range mode (section 5.2): migrate only the block ranges not read
  // since this cutoff; files modified since then are skipped as unstable.
  // Mutually exclusive with `policy`.
  std::optional<SimTime> cold_cutoff{};
  // Per-request migrator options (default: the config's options).
  std::optional<MigratorOptions> options{};
};

// One serviced demand recall. `delay_us` is the request's end-to-end stall:
// batch handoff (or call time) to the instant its segment became usable.
struct FetchOutcome {
  uint32_t tseg = kNoSegment;
  Status status = OkStatus();
  SimTime delay_us = 0;
};

class FetchBackend {
 public:
  virtual ~FetchBackend() = default;

  // True when the tertiary segment is staged in the shard's disk cache — a
  // recall for it is a hit, no drive time needed.
  virtual bool SegmentCached(uint32_t tseg) const = 0;

  // Tertiary address-space size, and the dirty primary segments a demand
  // recall may target (ascending; replicas and clean segments excluded).
  virtual uint32_t TertiarySegments() const = 0;
  virtual std::vector<uint32_t> FetchableSegments() const = 0;

  // One demand recall, serviced synchronously.
  virtual Result<FetchOutcome> FetchSegment(uint32_t tseg) = 0;

  // Batched recalls: the whole batch is handed over before the first issue
  // so the backend can amortize media swaps across it. The returned vector
  // parallels `tsegs`.
  virtual Result<std::vector<FetchOutcome>> FetchBatch(
      const std::vector<uint32_t>& tsegs) = 0;

  // The two background admission classes: a migration pass and an idle-time
  // scrub increment (returns segments examined).
  virtual Result<MigrationReport> Migrate(const MigrationRequest& request) = 0;
  virtual Result<uint32_t> ScrubStep(uint32_t max_segments) = 0;

  // Media swaps this shard has paid so far — the stager's drive-farm
  // accounting reads it before/after a dispatch round.
  virtual uint64_t MediaSwaps() const = 0;
};

// SiteStore: the replication-facing surface of one shard — everything a
// cross-site replicator needs beyond FetchBackend. Whole-segment images in
// and out of the tertiary store, the per-segment CRC32 catalog TsegTable
// stamps at copy-out (the currency of anti-entropy comparison), and a
// durable site-local blob store for the replication ledger (backed by the
// site's own LFS, so it survives a crash + remount like any other file).
// HighLightFs implements both interfaces; tests substitute fakes.
class SiteStore {
 public:
  virtual ~SiteStore() = default;

  // Segment geometry: every image is exactly this many bytes.
  virtual uint64_t SegmentImageBytes() const = 0;

  // The dirty primary segments worth replicating, ascending (replicas and
  // clean segments excluded — peers hold their own copies).
  virtual std::vector<uint32_t> ReplicableSegments() const = 0;

  // Whole-segment image read (charges normal drive/robot time).
  virtual Result<std::vector<uint8_t>> ReadSegmentImage(uint32_t tseg) = 0;

  // Installs a verified image over segment `tseg` in place (repair-style
  // write, allowed on full volumes) and stamps the CRC catalog with the
  // image's checksum.
  virtual Status InstallSegmentImage(uint32_t tseg,
                                     std::span<const uint8_t> image) = 0;

  // Catalog lookup: false when no CRC is recorded for `tseg` (fresh mount,
  // or the segment was never stamped).
  virtual bool SegmentCrc(uint32_t tseg, uint32_t* crc) const = 0;

  // Stamps the CRC catalog with a checksum the caller just computed from
  // (and verified against) the on-media bytes — e.g. the replicator before
  // shipping. Restores catalog stamps lost to a remount without waiting
  // for a scrub pass.
  virtual void StampSegmentCrc(uint32_t tseg, uint32_t crc) = 0;

  // Durable site-local blobs, keyed by name. PersistBlob overwrites and
  // syncs; LoadBlob returns kNotFound when the blob was never persisted.
  virtual Status PersistBlob(const std::string& name,
                             std::span<const uint8_t> data) = 0;
  virtual Result<std::vector<uint8_t>> LoadBlob(const std::string& name) = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_FETCH_BACKEND_H_
