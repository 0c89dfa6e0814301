// Read-in-place tests: block-map pointers read straight out of the buffer
// cache (dirty copies first, device only on a miss, the same hit/miss
// accounting as a copying read) and segment transfer images (a buffered
// read-ahead survives other transfers, a failover never installs
// unverified bytes), plus the seam recalls the segment cache's hit/miss
// counters must see.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "blockdev/sim_disk.h"
#include "highlight/highlight.h"
#include "lfs/lfs.h"
#include "util/media_image.h"
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

// --- Block map read in place -------------------------------------------------

// First lbn mapped by the double-indirect tree, and its second child's.
constexpr uint32_t kDindFirst = kNumDirect + kPtrsPerBlock;
constexpr uint32_t kDindSecondChild = kDindFirst + kPtrsPerBlock;

class BmapInPlaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", 16 * 1024, Rz57Profile(),
                                      &clock_);
    LfsParams params;
    params.seg_size_blocks = 64;
    auto fs = Lfs::Mkfs(disk_.get(), &clock_, params);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(*fs);
    Result<uint32_t> ino = fs_->Create("/sparse");
    ASSERT_TRUE(ino.ok());
    ino_ = *ino;
    // Direct, single-indirect and both double-indirect child ranges, with
    // holes in between.
    for (uint32_t lbn : kWritten) {
      ASSERT_TRUE(fs_->Write(ino_, static_cast<uint64_t>(lbn) * kBlockSize,
                             Pattern(kBlockSize, lbn))
                      .ok());
    }
  }

  BlockRef Ref(uint32_t lbn) {
    Result<DInode> inode = fs_->GetInode(ino_);
    EXPECT_TRUE(inode.ok());
    return BlockRef{ino_, inode->version, lbn, kNoBlock};
  }

  std::map<uint32_t, uint32_t> MapAll() {
    std::map<uint32_t, uint32_t> out;
    for (uint32_t lbn : kWritten) {
      out[lbn] = fs_->BmapV({Ref(lbn)})[0];
    }
    for (uint32_t lbn : kHoles) {
      out[lbn] = fs_->BmapV({Ref(lbn)})[0];
    }
    return out;
  }

  static constexpr uint32_t kWritten[] = {
      0, 7, kNumDirect - 1, kNumDirect, kNumDirect + 500,
      kDindFirst - 1, kDindFirst, kDindFirst + 3, kDindSecondChild + 9};
  static constexpr uint32_t kHoles[] = {3, kNumDirect + 1, kDindFirst + 1,
                                        kDindSecondChild + 8};

  SimClock clock_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<Lfs> fs_;
  uint32_t ino_ = 0;
};

TEST_F(BmapInPlaceTest, AddressesResolveToEachBlocksBytesAtEveryLevel) {
  ASSERT_TRUE(fs_->Sync().ok());
  fs_->FlushBufferCache();
  const std::map<uint32_t, uint32_t> cold = MapAll();  // Misses, then inserts.
  const std::map<uint32_t, uint32_t> warm = MapAll();  // In-place hits.
  EXPECT_EQ(cold, warm);
  std::vector<uint8_t> raw(kBlockSize);
  for (uint32_t lbn : kWritten) {
    const uint32_t daddr = cold.at(lbn);
    ASSERT_NE(daddr, kNoBlock) << "lbn " << lbn;
    ASSERT_TRUE(disk_->ReadBlocks(daddr, 1, raw).ok());
    EXPECT_EQ(raw, Pattern(kBlockSize, lbn)) << "lbn " << lbn;
    EXPECT_TRUE(fs_->IsLive(BlockRef{ino_, Ref(lbn).version, lbn, daddr}));
  }
  for (uint32_t lbn : kHoles) {
    EXPECT_EQ(cold.at(lbn), kNoBlock) << "hole lbn " << lbn;
  }
  // Metadata lbns map too: the root's child pointer is read in place.
  EXPECT_NE(fs_->BmapV({Ref(DindChildLbn(1))})[0], kNoBlock);
  EXPECT_EQ(fs_->BmapV({Ref(DindChildLbn(2))})[0], kNoBlock);
}

TEST_F(BmapInPlaceTest, DirtyIndirectBlockWinsOverStaleCachedCopy) {
  ASSERT_TRUE(fs_->Sync().ok());
  fs_->FlushBufferCache();
  const std::map<uint32_t, uint32_t> before = MapAll();  // Caches the tree.
  ASSERT_GT(fs_->buffer_cache().size(), 0u);
  // Truncating into the second double-indirect child, then into the single
  // indirect range, rewrites those pointer blocks in the dirty map only:
  // the cached copies still hold the old addresses until the next flush.
  ASSERT_TRUE(
      fs_->Truncate(ino_, static_cast<uint64_t>(kDindFirst + 4) * kBlockSize)
          .ok());
  EXPECT_EQ(fs_->BmapV({Ref(kDindSecondChild + 9)})[0], kNoBlock);
  EXPECT_EQ(fs_->BmapV({Ref(kDindFirst + 3)})[0], before.at(kDindFirst + 3));
  ASSERT_TRUE(
      fs_->Truncate(ino_, static_cast<uint64_t>(kNumDirect + 2) * kBlockSize)
          .ok());
  EXPECT_EQ(fs_->BmapV({Ref(kNumDirect + 500)})[0], kNoBlock);
  EXPECT_EQ(fs_->BmapV({Ref(kNumDirect)})[0], before.at(kNumDirect));
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(fs_->BmapV({Ref(kNumDirect + 500)})[0], kNoBlock);
}

TEST_F(BmapInPlaceTest, MissInsertsAndCountsMatchACopyingRead) {
  ASSERT_TRUE(fs_->Sync().ok());
  fs_->FlushBufferCache();
  BufferCache& cache = fs_->buffer_cache();
  // A direct pointer needs no indirect block; counting starts after it.
  ASSERT_NE(fs_->BmapV({Ref(0)})[0], kNoBlock);
  const uint64_t hits0 = cache.hits();
  const uint64_t misses0 = cache.misses();
  const size_t size0 = cache.size();

  // A single-indirect pointer: one miss, and the block stays cached.
  (void)fs_->BmapV({Ref(kNumDirect + 500)});
  EXPECT_EQ(cache.misses() - misses0, 1u);
  EXPECT_EQ(cache.hits() - hits0, 0u);
  EXPECT_EQ(cache.size() - size0, 1u);
  (void)fs_->BmapV({Ref(kNumDirect + 500)});
  EXPECT_EQ(cache.misses() - misses0, 1u);
  EXPECT_EQ(cache.hits() - hits0, 1u);

  // A double-indirect pointer: root and child, each one lookup.
  (void)fs_->BmapV({Ref(kDindSecondChild + 9)});
  EXPECT_EQ(cache.misses() - misses0, 3u);
  EXPECT_EQ(cache.size() - size0, 3u);
  (void)fs_->BmapV({Ref(kDindSecondChild + 9)});
  EXPECT_EQ(cache.misses() - misses0, 3u);
  EXPECT_EQ(cache.hits() - hits0, 3u);

  // A copying read of the same indirect block counts exactly like Peek.
  std::vector<uint8_t> copy(kBlockSize);
  const uint32_t ind_daddr = fs_->BmapV({Ref(kLbnSingleIndirect)})[0];
  ASSERT_TRUE(cache.Lookup(ind_daddr, copy));
  EXPECT_EQ(cache.hits() - hits0, 4u);
  std::span<const uint8_t> peeked = cache.Peek(ind_daddr);
  EXPECT_EQ(cache.hits() - hits0, 5u);
  EXPECT_TRUE(std::equal(peeked.begin(), peeked.end(), copy.begin()));
  EXPECT_TRUE(cache.Peek(0xFFFFFu).empty());
  EXPECT_EQ(cache.misses() - misses0, 4u);
}

// --- Transfer images ---------------------------------------------------------

JukeboxProfile SmallJukebox() {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 20ull * 64 * kBlockSize;
  return j;
}

std::unique_ptr<HighLightFs> MakeHighLight(SimClock* clock, bool async,
                                           bool readahead) {
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 16 * 1024});
  config.jukeboxes.push_back({SmallJukebox(), false, 20});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 8;
  config.sequential_readahead = readahead;
  config.async_read_pipeline = async;
  auto hl = HighLightFs::Create(config, clock);
  EXPECT_TRUE(hl.ok()) << hl.status().ToString();
  return hl.ok() ? std::move(*hl) : nullptr;
}

uint32_t WriteFile(HighLightFs& hl, const std::string& path, size_t bytes,
                   uint64_t seed) {
  Result<uint32_t> ino = hl.fs().Create(path);
  EXPECT_TRUE(ino.ok());
  EXPECT_TRUE(hl.fs().Write(*ino, 0, Pattern(bytes, seed)).ok());
  return *ino;
}

void ExpectContents(HighLightFs& hl, const std::string& path, size_t bytes,
                    uint64_t seed) {
  Result<uint32_t> ino = hl.fs().LookupPath(path);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> out(bytes);
  Result<size_t> n = hl.fs().Read(*ino, 0, out);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, bytes);
  EXPECT_EQ(out, Pattern(bytes, seed)) << path;
}

TEST(TransferPoolTest, BufferedReadaheadImageSurvivesOtherFetches) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async pipeline" : "sync path");
    SimClock clock;
    auto hl = MakeHighLight(&clock, async, /*readahead=*/true);
    ASSERT_NE(hl, nullptr);
    const AddressMap& amap = hl->Internals().address_map;
    uint32_t seq = WriteFile(*hl, "/seq", 600 * 1024, 71);
    MigratorOptions on_v0;
    on_v0.preferred_volume = 0;
    ASSERT_TRUE(hl->Internals().migrator.MigrateFiles({seq}, on_v0).ok());
    uint32_t other = WriteFile(*hl, "/other", 200 * 1024, 72);
    MigratorOptions on_v2;
    on_v2.preferred_volume = 2;
    ASSERT_TRUE(hl->Internals().migrator.MigrateFiles({other}, on_v2).ok());
    ASSERT_TRUE(hl->DropCleanCacheLines().ok());
    const uint32_t first = amap.FirstTsegOfVolume(0);
    const uint32_t other_tseg = amap.FirstTsegOfVolume(2);

    ServiceProcess& service = hl->Internals().service;
    // Fetching `first` buffers a read-ahead image of first+1 ...
    ASSERT_TRUE(service.DemandFetch(first).ok());
    ASSERT_EQ(service.stats().readaheads_issued, 1u);
    // ... which must survive while other transfers run (the async
    // read-ahead sits queued, then buffered).
    ASSERT_TRUE(service.DemandFetch(other_tseg).ok());
    ASSERT_TRUE(hl->Internals().io_server.Drain().ok());
    ASSERT_TRUE(service.DemandFetch(first + 2).ok());
    EXPECT_EQ(service.stats().readaheads_wasted, 0u);
    // The predicted miss installs the untouched read-ahead bytes.
    ASSERT_TRUE(service.DemandFetch(first + 1).ok());
    EXPECT_EQ(service.stats().readaheads_consumed, 1u);
    // Zero-copy: the installed line holds the volume's own chunks.
    const uint32_t line = hl->Internals().cache.Lookup(first + 1);
    ASSERT_NE(line, kNoSegment);
    const uint64_t line_at =
        uint64_t{hl->fs().superblock().SegFirstBlock(line)} * kBlockSize;
    Result<Volume*> vol = hl->Internals().footprint.GetVolume(0);
    ASSERT_TRUE(vol.ok());
    EXPECT_EQ(hl->Internals().disk(0).image().chunk_at(line_at),
              (*vol)->image().chunk_at(amap.ByteOffsetOnVolume(first + 1)));
    ExpectContents(*hl, "/seq", 600 * 1024, 71);
    ExpectContents(*hl, "/other", 200 * 1024, 72);
    EXPECT_GT(hl->Internals().io_server.stats().segments_fetched, 3u);
  }
}

TEST(TransferPoolTest, CrcFailoverOnRecycledBufferInstallsVerifiedBytes) {
  SimClock clock;
  auto hl = MakeHighLight(&clock, /*async=*/false, /*readahead=*/false);
  ASSERT_NE(hl, nullptr);
  const AddressMap& amap = hl->Internals().address_map;
  uint32_t warm = WriteFile(*hl, "/warm", 200 * 1024, 81);
  MigratorOptions on_v3;
  on_v3.preferred_volume = 3;
  ASSERT_TRUE(hl->Internals().migrator.MigrateFiles({warm}, on_v3).ok());
  uint32_t ino = WriteFile(*hl, "/f", 200 * 1024, 82);
  MigratorOptions replicated;
  replicated.preferred_volume = 0;
  replicated.replicas = 1;
  ASSERT_TRUE(hl->Internals().migrator.MigrateFiles({ino}, replicated).ok());
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());
  const uint32_t primary = amap.FirstTsegOfVolume(0);
  ASSERT_FALSE(hl->Internals().tseg_table.ReplicasOf(primary).empty());

  // Recall another segment first.
  ExpectContents(*hl, "/warm", 200 * 1024, 81);

  // Corrupt the primary in the middle of its image and mount its volume so
  // it is the first source tried.
  Result<Volume*> vol = hl->Internals().footprint.GetVolume(0);
  ASSERT_TRUE(vol.ok());
  std::vector<uint8_t> junk(kBlockSize, 0x5C);
  ASSERT_TRUE((*vol)->Rewrite(amap.ByteOffsetOnVolume(primary) +
                                  8 * kBlockSize,
                              junk)
                  .ok());
  std::vector<uint8_t> sector(kBlockSize);
  ASSERT_TRUE(hl->Internals().footprint.Read(0, 0, sector).ok());

  const IoServer::Stats& io = hl->Internals().io_server.stats();
  const uint64_t mismatches = io.crc_mismatches;
  const uint64_t failovers = io.failovers;
  ExpectContents(*hl, "/f", 200 * 1024, 82);
  EXPECT_GT(io.crc_mismatches, mismatches);
  EXPECT_EQ(io.failovers, failovers + 1);
  // The corrupt primary stays corrupt: the failed read shared its chunks
  // and never wrote through them.
  std::vector<uint8_t> still(kBlockSize);
  ASSERT_TRUE(
      (*vol)->Read(amap.ByteOffsetOnVolume(primary) + 8 * kBlockSize, still)
          .ok());
  EXPECT_EQ(still, junk);
}

// --- Seam recalls count in the segment cache -----------------------------------

TEST(SeamRecallCountTest, FetchBatchCountsOneHitAndOneMiss) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async pipeline" : "sync path");
    SimClock clock;
    auto hl = MakeHighLight(&clock, async, /*readahead=*/false);
    ASSERT_NE(hl, nullptr);
    const AddressMap& amap = hl->Internals().address_map;
    uint32_t a = WriteFile(*hl, "/a", 200 * 1024, 91);
    MigratorOptions on_v0;
    on_v0.preferred_volume = 0;
    ASSERT_TRUE(hl->Internals().migrator.MigrateFiles({a}, on_v0).ok());
    uint32_t b = WriteFile(*hl, "/b", 200 * 1024, 92);
    MigratorOptions on_v1;
    on_v1.preferred_volume = 1;
    ASSERT_TRUE(hl->Internals().migrator.MigrateFiles({b}, on_v1).ok());
    ASSERT_TRUE(hl->DropCleanCacheLines().ok());
    const uint32_t resident = amap.FirstTsegOfVolume(0);
    const uint32_t absent = amap.FirstTsegOfVolume(1);

    Result<FetchOutcome> warm = hl->FetchSegment(resident);
    ASSERT_TRUE(warm.ok() && warm->status.ok());
    const SegmentCache::Stats before = hl->Internals().cache.Snapshot();
    Result<std::vector<FetchOutcome>> out =
        hl->FetchBatch({resident, absent});
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)[0].status.ok() && (*out)[1].status.ok());
    const SegmentCache::Stats after = hl->Internals().cache.Snapshot();
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.prefetches_used, before.prefetches_used);
  }
}

}  // namespace
}  // namespace hl
