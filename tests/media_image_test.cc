// Tests for MediaImage, the sparse recycled byte store under SimDisk and
// Volume: holes, chunk-straddling I/O, and no stale bytes through the
// process-wide chunk free list.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blockdev/sim_disk.h"
#include "tertiary/volume.h"
#include "util/media_image.h"

namespace hl {
namespace {

constexpr uint64_t kChunk = MediaImage::kChunkSize;

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

// Fills `chunks` whole chunks of a throwaway image with 0xAB and destroys
// it, so the free list's top holds dirty chunks for the next image.
void DirtyFreeList(size_t chunks) {
  MediaImage dirty;
  dirty.Write(0, std::vector<uint8_t>(chunks * kChunk, 0xAB));
  ASSERT_EQ(dirty.resident_chunks(), chunks);
}

TEST(MediaImageTest, HolesReadZeroAndHoldNoChunks) {
  MediaImage image;
  std::vector<uint8_t> out(3 * kChunk, 0xFF);
  image.Read(5 * kChunk - 100, out);
  for (uint8_t b : out) {
    ASSERT_EQ(b, 0);
  }
  EXPECT_EQ(image.resident_chunks(), 0u);
}

TEST(MediaImageTest, WriteStraddlingTwoChunksRoundTrips) {
  MediaImage image;
  const uint64_t at = 7 * kChunk - 1000;
  auto data = Pattern(3000, 9);
  image.Write(at, data);
  EXPECT_EQ(image.resident_chunks(), 2u);

  std::vector<uint8_t> back(data.size());
  image.Read(at, back);
  EXPECT_EQ(back, data);

  // A read that straddles the written chunks and the holes around them sees
  // the data where it was written and zeros everywhere else.
  std::vector<uint8_t> wide(4 * kChunk, 0xFF);
  const uint64_t from = 5 * kChunk + 17;
  image.Read(from, wide);
  for (uint64_t i = 0; i < wide.size(); ++i) {
    const uint64_t pos = from + i;
    const bool written = pos >= at && pos < at + data.size();
    ASSERT_EQ(wide[i], written ? data[pos - at] : 0) << "byte " << pos;
  }
}

TEST(MediaImageTest, OverwriteKeepsTheRestOfTheChunk) {
  MediaImage image;
  auto first = Pattern(kChunk, 3);
  image.Write(0, first);
  auto patch = Pattern(100, 200);
  image.Write(500, patch);
  std::vector<uint8_t> out(kChunk);
  image.Read(0, out);
  for (uint64_t i = 0; i < kChunk; ++i) {
    const bool patched = i >= 500 && i < 600;
    ASSERT_EQ(out[i], patched ? patch[i - 500] : first[i]) << "byte " << i;
  }
  EXPECT_EQ(image.resident_chunks(), 1u);
}

TEST(MediaImageTest, RecycledChunksCarryNoStaleBytes) {
  DirtyFreeList(4);
  MediaImage image;
  const uint64_t at = 2 * kChunk - 4096;
  image.Write(at, std::vector<uint8_t>(8192, 0x5C));
  std::vector<uint8_t> out(4 * kChunk, 0xFF);
  image.Read(0, out);
  for (uint64_t i = 0; i < out.size(); ++i) {
    const bool written = i >= at && i < at + 8192;
    ASSERT_EQ(out[i], written ? 0x5C : 0) << "byte " << i;
  }
}

TEST(MediaImageTest, ClearReturnsToAllZeros) {
  MediaImage image;
  image.Write(kChunk / 2, std::vector<uint8_t>(2 * kChunk, 0xAB));
  ASSERT_EQ(image.resident_chunks(), 3u);
  image.Clear();
  EXPECT_EQ(image.resident_chunks(), 0u);
  std::vector<uint8_t> out(4 * kChunk, 0xFF);
  image.Read(0, out);
  for (uint8_t b : out) {
    ASSERT_EQ(b, 0);
  }
  // The chunks just cleared are the next ones handed out.
  image.Write(kChunk + 10, std::vector<uint8_t>(10, 0x11));
  image.Read(0, out);
  for (uint64_t i = 0; i < out.size(); ++i) {
    const bool written = i >= kChunk + 10 && i < kChunk + 20;
    ASSERT_EQ(out[i], written ? 0x11 : 0) << "byte " << i;
  }
}

TEST(MediaImageTest, VolumeEraseThenReadThenWriteAgain) {
  Volume v("t0", 1 << 22);
  ASSERT_TRUE(v.Write(0, std::vector<uint8_t>(3 * kChunk, 0xAB)).ok());
  ASSERT_TRUE(v.Erase().ok());
  std::vector<uint8_t> out(3 * kChunk, 0xFF);
  ASSERT_TRUE(v.Read(0, out).ok());
  for (uint8_t b : out) {
    ASSERT_EQ(b, 0);
  }
  auto data = Pattern(5000, 4);
  ASSERT_TRUE(v.Write(kChunk - 2500, data).ok());
  ASSERT_TRUE(v.Read(0, out).ok());
  for (uint64_t i = 0; i < out.size(); ++i) {
    const uint64_t at = kChunk - 2500;
    const bool written = i >= at && i < at + data.size();
    ASSERT_EQ(out[i], written ? data[i - at] : 0) << "byte " << i;
  }
}

TEST(MediaImageTest, SimDiskPartialChunkWriteOverRecycledChunks) {
  DirtyFreeList(4);
  SimClock clock;
  SimDisk disk("d0", 256, Rz57Profile(), &clock);
  auto data = Pattern(kBlockSize, 6);
  ASSERT_TRUE(disk.WriteBlocks(17, 1, data).ok());
  std::vector<uint8_t> out(static_cast<size_t>(256) * kBlockSize, 0xFF);
  ASSERT_TRUE(disk.ReadBlocks(0, 256, out).ok());
  for (uint64_t i = 0; i < out.size(); ++i) {
    const uint64_t at = 17 * kBlockSize;
    const bool written = i >= at && i < at + kBlockSize;
    ASSERT_EQ(out[i], written ? data[i - at] : 0) << "byte " << i;
  }
}

TEST(MediaImageTest, SimDiskBuiltAfterAnotherIsDestroyedReadsZero) {
  SimClock clock;
  constexpr uint32_t kBlocks = 512;
  const std::vector<uint8_t> ones(static_cast<size_t>(kBlocks) * kBlockSize,
                                  0xAB);
  {
    auto first = std::make_unique<SimDisk>("d0", kBlocks, Rz57Profile(),
                                           &clock);
    ASSERT_TRUE(first->WriteBlocks(0, kBlocks, ones).ok());
  }
  SimDisk second("d1", kBlocks, Rz57Profile(), &clock);
  EXPECT_EQ(second.profile().capacity_bytes,
            static_cast<uint64_t>(kBlocks) * kBlockSize);
  std::vector<uint8_t> out(ones.size(), 0xFF);
  ASSERT_TRUE(second.ReadBlocks(0, kBlocks, out).ok());
  for (uint8_t b : out) {
    ASSERT_EQ(b, 0);
  }
}

}  // namespace
}  // namespace hl
