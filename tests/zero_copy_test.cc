// Zero-copy segment transfers: a recall leaves the cache line sharing the
// volume's chunks, and copy-on-write keeps every sharer's bytes its own — a
// later rewrite of the tertiary copy leaves the line alone, LFS writes into
// a reused staging line leave the volume (and its catalog CRC) alone, and
// injected read corruption lands in the transfer image, never on the medium.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "highlight/highlight.h"
#include "util/media_image.h"
#include "util/rng.h"

namespace hl {
namespace {

constexpr uint64_t kChunk = MediaImage::kChunkSize;
constexpr uint32_t kSegBlocks = 64;  // 256 KB: four whole chunks.
constexpr uint64_t kSegBytes = uint64_t{kSegBlocks} * kBlockSize;
constexpr size_t kFileBytes = 200 * 1024;  // One tertiary segment each.

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

std::vector<uint8_t> ReadBack(const MediaImage& image, uint64_t at) {
  std::vector<uint8_t> out(kSegBytes);
  image.Read(at, out);
  return out;
}

class ZeroCopyTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    JukeboxProfile jukebox = Hp6300MoProfile();
    jukebox.num_slots = 4;
    jukebox.volume_capacity_bytes = 20 * kSegBytes;
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 16 * 1024});
    config.jukeboxes.push_back({jukebox, false, 20});
    config.lfs.seg_size_blocks = kSegBlocks;
    config.lfs.cache_max_segments = 8;
    config.async_read_pipeline = GetParam();
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok()) << hl.status().ToString();
    hl_ = std::move(*hl);
    volume_ = *hl_->Internals().footprint.GetVolume(0);
  }

  // Writes `path` and migrates it to volume 0; returns its tseg.
  uint32_t Migrate(const std::string& path, uint64_t seed) {
    Result<uint32_t> ino = hl_->fs().Create(path);
    EXPECT_TRUE(ino.ok());
    EXPECT_TRUE(hl_->fs().Write(*ino, 0, Pattern(kFileBytes, seed)).ok());
    MigratorOptions on_v0;
    on_v0.preferred_volume = 0;
    EXPECT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, on_v0).ok());
    return hl_->Internals().address_map.FirstTsegOfVolume(0) + migrated_++;
  }

  void ExpectContents(const std::string& path, uint64_t seed) {
    Result<uint32_t> ino = hl_->fs().LookupPath(path);
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> out(kFileBytes);
    Result<size_t> n = hl_->fs().Read(*ino, 0, out);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(out, Pattern(kFileBytes, seed)) << path;
  }

  // Byte offset of `tseg`'s cache line on disk 0.
  uint64_t LineOffset(uint32_t tseg) {
    const uint32_t line = hl_->Internals().cache.Lookup(tseg);
    EXPECT_NE(line, kNoSegment);
    return uint64_t{hl_->fs().superblock().SegFirstBlock(line)} * kBlockSize;
  }

  uint64_t VolumeOffset(uint32_t tseg) {
    return hl_->Internals().address_map.ByteOffsetOnVolume(tseg);
  }

  const MediaImage& Disk() { return hl_->Internals().disk(0).image(); }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
  Volume* volume_ = nullptr;
  uint32_t migrated_ = 0;
};

TEST_P(ZeroCopyTest, RecallSharesVolumeChunksAndRewriteLeavesLineAlone) {
  const uint32_t tseg = Migrate("/f", 11);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectContents("/f", 11);  // Demand fetch into a fresh line.

  const uint64_t line_at = LineOffset(tseg);
  const uint64_t vol_at = VolumeOffset(tseg);
  ASSERT_EQ(line_at % kChunk, 0u);
  for (uint64_t k = 0; k < kSegBytes; k += kChunk) {
    ASSERT_NE(volume_->image().chunk_at(vol_at + k), nullptr);
    EXPECT_EQ(Disk().chunk_at(line_at + k),
              volume_->image().chunk_at(vol_at + k))
        << "chunk " << k / kChunk;
  }

  const std::vector<uint8_t> line = ReadBack(Disk(), line_at);
  const std::vector<uint8_t> junk(kSegBytes, 0x5C);
  ASSERT_TRUE(volume_->Rewrite(vol_at, junk).ok());
  EXPECT_EQ(ReadBack(volume_->image(), vol_at), junk);
  EXPECT_EQ(ReadBack(Disk(), line_at), line);
  ExpectContents("/f", 11);  // Still served from the untouched line.
}

TEST_P(ZeroCopyTest, LfsWritesIntoReusedStagingLineLeaveVolumeAlone) {
  const uint32_t first = Migrate("/f0", 100);
  // Copy-out shared the staging line's chunks into the volume.
  const uint64_t line_at = LineOffset(first);
  const uint64_t vol_at = VolumeOffset(first);
  ASSERT_EQ(Disk().chunk_at(line_at), volume_->image().chunk_at(vol_at));
  const std::vector<uint8_t> on_tape = ReadBack(volume_->image(), vol_at);

  // Free every line, then stage more segments: the LFS writer lays them
  // into the recycled lines, `first`'s among them.
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  for (uint64_t f = 1; f < 10; ++f) {
    Migrate("/f" + std::to_string(f), 100 + f);
  }
  EXPECT_NE(ReadBack(Disk(), line_at), on_tape) << "line was not reused";
  EXPECT_EQ(ReadBack(volume_->image(), vol_at), on_tape);

  Result<Scrubber::Report> scrub = hl_->Internals().scrubber.ScrubAll();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_EQ(scrub->scanned, 10u);
  EXPECT_EQ(scrub->clean, 10u);
  EXPECT_EQ(scrub->repaired, 0u);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  for (uint64_t f = 0; f < 10; ++f) {
    ExpectContents("/f" + std::to_string(f), 100 + f);
  }
}

TEST_P(ZeroCopyTest, InjectedReadCorruptionNeverReachesTheMedium) {
  const uint32_t tseg = Migrate("/f", 21);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  const uint64_t vol_at = VolumeOffset(tseg);
  const std::vector<uint8_t> on_tape = ReadBack(volume_->image(), vol_at);

  FaultProfile flips;
  flips.read_corrupt_p = 1.0;
  ASSERT_GT(hl_->Internals().faults.SetProfile("volume.*", flips), 0);
  const uint64_t corruptions = hl_->Internals().faults.stats().corruptions;
  Result<uint32_t> ino = hl_->fs().LookupPath("/f");
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> out(kFileBytes);
  EXPECT_FALSE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_GT(hl_->Internals().faults.stats().corruptions, corruptions);
  EXPECT_GT(hl_->Internals().io_server.stats().crc_mismatches, 0u);
  EXPECT_EQ(ReadBack(volume_->image(), vol_at), on_tape);

  ASSERT_GT(hl_->Internals().faults.SetProfile("volume.*", FaultProfile{}),
            0);
  ExpectContents("/f", 21);
}

INSTANTIATE_TEST_SUITE_P(ReadPaths, ZeroCopyTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Async" : "Sync";
                         });

}  // namespace
}  // namespace hl
