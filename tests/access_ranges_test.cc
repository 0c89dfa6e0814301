// Tests for section 5.2 access-range tracking and the cold-range migration
// it enables.

#include <gtest/gtest.h>

#include <tuple>

#include "highlight/highlight.h"
#include "lfs/access_ranges.h"
#include "util/rng.h"

namespace hl {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

// --- Tracker unit tests --------------------------------------------------------

TEST(AccessRangeTrackerTest, SequentialReadsCoalesceToOneRecord) {
  AccessRangeTracker tracker;
  // A file read sequentially and completely: one record, as the paper
  // promises.
  for (uint32_t lbn = 0; lbn < 100; lbn += 10) {
    tracker.RecordRead(7, lbn, 10, 1000 + lbn);
  }
  std::vector<AccessRange> ranges = tracker.Ranges(7);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].start_lbn, 0u);
  EXPECT_EQ(ranges[0].end_lbn, 100u);
  EXPECT_EQ(ranges[0].last_access, 1090u);  // Most recent touch wins.
}

TEST(AccessRangeTrackerTest, ScatteredReadsKeepSeparateRecords) {
  AccessRangeTracker tracker;
  tracker.RecordRead(7, 0, 4, 100);
  tracker.RecordRead(7, 100, 4, 200);
  tracker.RecordRead(7, 500, 4, 300);
  EXPECT_EQ(tracker.RecordCount(7), 3u);
}

TEST(AccessRangeTrackerTest, OverlapMergesAndRefreshes) {
  AccessRangeTracker tracker;
  tracker.RecordRead(7, 10, 10, 100);
  tracker.RecordRead(7, 15, 10, 999);  // Overlaps [10,20).
  std::vector<AccessRange> ranges = tracker.Ranges(7);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].start_lbn, 10u);
  EXPECT_EQ(ranges[0].end_lbn, 25u);
  EXPECT_EQ(ranges[0].last_access, 999u);
}

TEST(AccessRangeTrackerTest, CapCoarsensGranularity) {
  AccessRangeTracker tracker(/*max_records_per_file=*/4);
  // 8 scattered single-block reads exceed the cap: the closest pairs merge,
  // trading precision for space (the paper's dynamic granularity).
  for (uint32_t i = 0; i < 8; ++i) {
    tracker.RecordRead(7, i * 100, 1, 50 + i);
  }
  EXPECT_LE(tracker.RecordCount(7), 4u);
  // Every accessed block is still covered (coarsely).
  std::vector<uint32_t> cold = tracker.ColdBlocks(7, 800, /*cutoff=*/0);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(std::count(cold.begin(), cold.end(), i * 100), 0)
        << "accessed block " << i * 100 << " reported cold";
  }
}

TEST(AccessRangeTrackerTest, ColdBlocksRespectCutoff) {
  AccessRangeTracker tracker;
  tracker.RecordRead(7, 0, 10, /*now=*/100);    // Old access.
  tracker.RecordRead(7, 20, 10, /*now=*/5000);  // Recent access.
  std::vector<uint32_t> cold = tracker.ColdBlocks(7, 40, /*cutoff=*/1000);
  // Blocks 0..9 are cold (accessed before the cutoff), 20..29 warm,
  // 10..19 and 30..39 never accessed -> cold.
  EXPECT_NE(std::find(cold.begin(), cold.end(), 5u), cold.end());
  EXPECT_EQ(std::find(cold.begin(), cold.end(), 25u), cold.end());
  EXPECT_NE(std::find(cold.begin(), cold.end(), 15u), cold.end());
  EXPECT_NE(std::find(cold.begin(), cold.end(), 35u), cold.end());
}

TEST(AccessRangeTrackerTest, ForgetDropsFile) {
  AccessRangeTracker tracker;
  tracker.RecordRead(7, 0, 10, 100);
  tracker.Forget(7);
  EXPECT_EQ(tracker.RecordCount(7), 0u);
  EXPECT_EQ(tracker.TrackedFiles(), 0u);
}

// --- End-to-end cold-range migration ----------------------------------------------

class ColdRangeMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 8 * 1024});
    JukeboxProfile j = Hp6300MoProfile();
    j.num_slots = 4;
    j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
    config.jukeboxes.push_back({j, false, 16});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 8;
    config.migrator.migrate_inode = false;
    config.migrator.migrate_metadata = false;
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok());
    hl_ = std::move(*hl);
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(ColdRangeMigrationTest, HotTailStaysOnDiskColdPrefixMigrates) {
  // A DB-style file: 2 MB; only its last 32 pages are queried.
  Result<uint32_t> ino = hl_->fs().Create("/rel");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(2 << 20, 1);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());

  clock_.Advance(10 * kUsPerSec);
  SimTime cutoff = clock_.Now();
  clock_.Advance(10 * kUsPerSec);
  // Query the hot tail after the cutoff.
  std::vector<uint8_t> page(4096);
  for (uint32_t p = 512 - 32; p < 512; ++p) {
    ASSERT_TRUE(
        hl_->fs().Read(*ino, static_cast<uint64_t>(p) * 4096, page).ok());
  }

  Result<MigrationReport> report = hl_->Migrate(MigrationRequest{.cold_cutoff = cutoff});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->blocks_migrated, 512u - 32u);

  // Verify the split: hot tail on disk, prefix on tertiary.
  Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(*ino);
  ASSERT_TRUE(refs.ok());
  for (const BlockRef& r : *refs) {
    if (IsMetaLbn(r.lbn)) {
      continue;
    }
    AddressMap::Zone zone = hl_->Internals().address_map.Classify(r.daddr);
    if (r.lbn >= 512 - 32) {
      EXPECT_EQ(zone, AddressMap::Zone::kDisk) << "hot lbn " << r.lbn;
    } else {
      EXPECT_EQ(zone, AddressMap::Zone::kTertiary) << "cold lbn " << r.lbn;
    }
  }
  // Contents intact.
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(ColdRangeMigrationTest, RecentlyModifiedFilesAreSkipped) {
  // A cutoff chosen before the file is written marks it unstable.
  SimTime cutoff = clock_.Now();
  Result<uint32_t> ino = hl_->fs().Create("/busy");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(256 * 1024, 2)).ok());
  Result<MigrationReport> report = hl_->Migrate(MigrationRequest{.cold_cutoff = cutoff});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->blocks_migrated, 0u);
}

TEST_F(ColdRangeMigrationTest, SequentiallyReadFileCostsOneRecord) {
  Result<uint32_t> ino = hl_->fs().Create("/seq");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(1 << 20, 3)).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());
  // Read through an 8 KB buffer, start to finish.
  std::vector<uint8_t> buf(8192);
  for (uint64_t off = 0; off < (1 << 20); off += buf.size()) {
    ASSERT_TRUE(hl_->fs().Read(*ino, off, buf).ok());
  }
  EXPECT_EQ(hl_->Internals().access_tracker.RecordCount(*ino), 1u);
}

// Tape-side traffic (demand fetches, jukebox bytes read, media swaps) that a
// cold-range pass must leave alone for blocks already on tertiary.
using TertiaryTraffic = std::tuple<uint64_t, uint64_t, uint64_t>;

TertiaryTraffic Traffic(HighLightFs& hl) {
  return {hl.Internals().service.stats().demand_fetches,
          hl.Internals().jukebox(0).bytes_read(),
          hl.Internals().footprint.TotalMediaSwaps()};
}

// Lets everything written so far settle, then runs a cold-range pass whose
// cutoff lies after it.
Result<MigrationReport> ColdPass(HighLightFs& hl, SimClock& clock) {
  clock.Advance(10 * kUsPerSec);
  SimTime cutoff = clock.Now();
  clock.Advance(10 * kUsPerSec);
  return hl.Migrate(MigrationRequest{.cold_cutoff = cutoff});
}

TEST_F(ColdRangeMigrationTest, SecondPassSkipsTertiaryBlocksWithoutRecall) {
  Result<uint32_t> ino = hl_->fs().Create("/cold");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(1 << 20, 4);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());
  Result<MigrationReport> first = ColdPass(*hl_, clock_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->blocks_migrated, 256u);

  // Nothing cached: reading any migrated block now would fetch from tape.
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  const TertiaryTraffic before = Traffic(*hl_);
  Result<MigrationReport> second = ColdPass(*hl_, clock_);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->blocks_migrated, 0u);
  EXPECT_EQ(second->blocks_skipped, 256u);
  EXPECT_EQ(second->segments_completed, 0u);
  EXPECT_EQ(Traffic(*hl_), before) << "cold pass recalled from tape";

  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(ColdRangeMigrationTest, AppendedDiskBlocksMigrateAloneWithoutRecall) {
  Result<uint32_t> ino = hl_->fs().Create("/grow");
  ASSERT_TRUE(ino.ok());
  auto head = Pattern(1 << 20, 5);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, head).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());
  Result<MigrationReport> first = ColdPass(*hl_, clock_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->blocks_migrated, 256u);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  // Sixteen whole blocks appended after the migrated prefix live on disk.
  auto tail = Pattern(16 * kBlockSize, 6);
  ASSERT_TRUE(hl_->fs().Write(*ino, head.size(), tail).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());
  const TertiaryTraffic before = Traffic(*hl_);
  Result<MigrationReport> second = ColdPass(*hl_, clock_);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->blocks_migrated, 16u);
  EXPECT_EQ(second->blocks_skipped, 256u);
  EXPECT_EQ(Traffic(*hl_), before) << "cold pass recalled from tape";

  Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(*ino);
  ASSERT_TRUE(refs.ok());
  for (const BlockRef& r : *refs) {
    if (!IsMetaLbn(r.lbn)) {
      EXPECT_EQ(hl_->Internals().address_map.Classify(r.daddr),
                AddressMap::Zone::kTertiary)
          << "lbn " << r.lbn;
    }
  }
  std::vector<uint8_t> out(head.size() + tail.size());
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  head.insert(head.end(), tail.begin(), tail.end());
  EXPECT_EQ(out, head);
}

TEST_F(ColdRangeMigrationTest, ReportMatchesLifetimeDelta) {
  Result<uint32_t> ino = hl_->fs().Create("/parity");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(1 << 20, 7)).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());
  const MigrationReport before =
      hl_->Internals().migrator.lifetime_report();
  Result<MigrationReport> r = ColdPass(*hl_, clock_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MigrationReport& after = hl_->Internals().migrator.lifetime_report();
  EXPECT_GT(r->segments_completed, 0u);
  EXPECT_EQ(r->segments_completed,
            after.segments_completed - before.segments_completed);
  EXPECT_EQ(r->eom_retargets, after.eom_retargets - before.eom_retargets);
  EXPECT_EQ(r->files_migrated, after.files_migrated - before.files_migrated);
  EXPECT_EQ(r->blocks_migrated,
            after.blocks_migrated - before.blocks_migrated);
  EXPECT_EQ(r->blocks_skipped, after.blocks_skipped - before.blocks_skipped);
}

}  // namespace
}  // namespace hl
