// Tests for MediaImage, the sparse recycled byte store under SimDisk and
// Volume: holes, chunk-straddling I/O, no stale bytes through the
// process-wide chunk free list, and copy-on-write chunk sharing (writes,
// Clear and edges of a share, CRC folded over shared chunks and holes).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blockdev/sim_disk.h"
#include "sim/sim_clock.h"
#include "tertiary/volume.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
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

// --- Copy-on-write sharing ---------------------------------------------------

std::vector<uint8_t> ReadBack(const MediaImage& image, uint64_t at,
                              size_t n) {
  std::vector<uint8_t> out(n, 0xEE);
  image.Read(at, out);
  return out;
}

TEST(MediaImageShareTest, WriteToSharedChunkLeavesTheOtherImageUnchanged) {
  const auto data = Pattern(2 * kChunk, 21);
  MediaImage a;
  a.Write(0, data);
  MediaImage b;
  b.Share(0, a, 0, 2 * kChunk);
  ASSERT_EQ(b.chunk_at(0), a.chunk_at(0));
  ASSERT_EQ(b.chunk_at(kChunk), a.chunk_at(kChunk));

  const auto patch = Pattern(300, 99);
  b.Write(kChunk - 100, patch);  // Touches both shared chunks.
  EXPECT_EQ(ReadBack(a, 0, data.size()), data);
  auto expect = data;
  std::copy(patch.begin(), patch.end(), expect.begin() + kChunk - 100);
  EXPECT_EQ(ReadBack(b, 0, data.size()), expect);
  EXPECT_NE(b.chunk_at(0), a.chunk_at(0));

  // The other direction: the source writing leaves the sharer alone.
  MediaImage c;
  c.Share(0, a, 0, kChunk);
  a.Write(5, std::vector<uint8_t>(10, 0x33));
  EXPECT_EQ(ReadBack(c, 0, kChunk),
            std::vector<uint8_t>(data.begin(), data.begin() + kChunk));
}

TEST(MediaImageShareTest, ChunkReachesFreeListOnlyAtItsLastHolder) {
  const auto data = Pattern(2 * kChunk, 5);
  MediaImage a;
  a.Write(0, data);
  const size_t idle = MediaImage::idle_chunks();
  {
    MediaImage b;
    b.Share(0, a, 0, 2 * kChunk);
    EXPECT_EQ(MediaImage::idle_chunks(), idle);
    a.Clear();
    // Still held by b: not idle, not poisoned, bytes intact.
    EXPECT_EQ(MediaImage::idle_chunks(), idle);
    EXPECT_EQ(ReadBack(b, 0, data.size()), data);
    EXPECT_EQ(ReadBack(a, 0, data.size()),
              std::vector<uint8_t>(data.size(), 0));
  }
  EXPECT_EQ(MediaImage::idle_chunks(), idle + 2);
}

TEST(MediaImageShareTest, UnalignedShareCopiesOnlyItsEdges) {
  const auto data = Pattern(4 * kChunk, 77);
  MediaImage src;
  src.Write(0, data);

  // Same 64 KB phase on both sides: the two whole chunks inside are
  // shared, the partial chunks at either end are private copies.
  MediaImage same;
  const uint64_t from = kChunk - 100;
  const uint64_t len = 2 * kChunk + 200;
  same.Share(from, src, from, len);
  EXPECT_EQ(same.chunk_at(kChunk), src.chunk_at(kChunk));
  EXPECT_EQ(same.chunk_at(2 * kChunk), src.chunk_at(2 * kChunk));
  ASSERT_NE(same.chunk_at(0), nullptr);
  EXPECT_NE(same.chunk_at(0), src.chunk_at(0));
  ASSERT_NE(same.chunk_at(3 * kChunk), nullptr);
  EXPECT_NE(same.chunk_at(3 * kChunk), src.chunk_at(3 * kChunk));
  auto expect = std::vector<uint8_t>(4 * kChunk, 0);
  std::copy(data.begin() + from, data.begin() + from + len,
            expect.begin() + from);
  EXPECT_EQ(ReadBack(same, 0, expect.size()), expect);

  // Different phases: nothing can be shared, every byte is copied.
  MediaImage shifted;
  shifted.Share(1, src, 0, 2 * kChunk);
  for (uint64_t at = 0; at < 3 * kChunk; at += kChunk) {
    EXPECT_NE(shifted.chunk_at(at), src.chunk_at(at));
    EXPECT_NE(shifted.chunk_at(at), src.chunk_at(at + kChunk));
  }
  EXPECT_EQ(ReadBack(shifted, 1, 2 * kChunk),
            std::vector<uint8_t>(data.begin(), data.begin() + 2 * kChunk));
}

TEST(MediaImageShareTest, SharedHolesStayHoles) {
  MediaImage src;  // Chunk 1 written, chunks 0 and 2 holes.
  src.Write(kChunk, Pattern(kChunk, 8));
  MediaImage dst;
  dst.Write(0, std::vector<uint8_t>(3 * kChunk, 0xAB));
  dst.Share(0, src, 0, 3 * kChunk);
  EXPECT_EQ(dst.resident_chunks(), 1u);
  EXPECT_EQ(dst.chunk_at(0), nullptr);
  EXPECT_EQ(dst.chunk_at(kChunk), src.chunk_at(kChunk));
  EXPECT_EQ(ReadBack(dst, 0, 3 * kChunk), ReadBack(src, 0, 3 * kChunk));
}

TEST(MediaImageShareTest, InPlaceCrcOverHolesEqualsCrcOfTheBytes) {
  MediaImage empty;
  const std::vector<uint8_t> zeros(3 * kChunk + 123, 0);
  EXPECT_EQ(empty.Crc32(7, zeros.size()), Crc32(zeros));

  MediaImage image;  // Data, a hole, data straddling a boundary.
  image.Write(100, Pattern(kChunk, 1));
  image.Write(3 * kChunk - 50, Pattern(500, 2));
  const uint64_t at = 33;
  const size_t n = 4 * kChunk - 70;
  const std::vector<uint8_t> bytes = ReadBack(image, at, n);
  EXPECT_EQ(image.Crc32(at, n), Crc32(bytes));
  EXPECT_EQ(image.Crc32(at, n, 0x1234), Crc32(bytes, 0x1234));
}

TEST(MediaImageShareTest, VolumeRecallIntoImageSharesTheMediumsChunks) {
  Volume v("t0", 1 << 22);
  const auto data = Pattern(4 * kChunk, 13);
  ASSERT_TRUE(v.Write(kChunk, data).ok());
  MediaImage transfer;
  ASSERT_TRUE(v.Read(kChunk, ByteSink(transfer, data.size())).ok());
  for (uint64_t at = 0; at < data.size(); at += kChunk) {
    EXPECT_EQ(transfer.chunk_at(at), v.image().chunk_at(kChunk + at));
  }
  EXPECT_EQ(ReadBack(transfer, 0, data.size()), data);
}

// Three corrupted reads of a zeroed 256 KB segment through channel
// "volume.t0" of an injector seeded 42: the bytes they flip, as the
// byte-buffer path has always flipped them. Seeded fault runs depend on the
// draw order staying put.
const std::vector<std::pair<size_t, uint8_t>> kSeed42Flips = {
    {9928, 0x01},   {35716, 0x02},  {37698, 0x04},  {45728, 0x10},
    {59914, 0x20},  {67584, 0x01},  {132710, 0x10}, {210963, 0x20},
    {222410, 0x08}, {234877, 0x40}, {239904, 0x08}, {249143, 0x04},
    {260148, 0x02}};

std::vector<std::pair<size_t, uint8_t>> Flipped(
    const std::vector<uint8_t>& bytes) {
  std::vector<std::pair<size_t, uint8_t>> out;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != 0) {
      out.emplace_back(i, bytes[i]);
    }
  }
  return out;
}

void CorruptThrice(ByteSink sink) {
  SimClock clock;
  FaultInjector faults(&clock, 42);
  FaultProfile flips;
  flips.read_corrupt_p = 1.0;
  FaultChannel* channel = faults.Channel("volume.t0");
  channel->set_profile(flips);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(channel->MaybeCorruptRead(sink, 0));
  }
}

TEST(MediaImageShareTest, ReadCorruptionFlipsTheSameBytesInSpanAndImage) {
  constexpr size_t kSeg = 4 * kChunk;
  std::vector<uint8_t> bytes(kSeg, 0);
  CorruptThrice(bytes);
  EXPECT_EQ(Flipped(bytes), kSeed42Flips);

  // An image sink sharing the medium's chunks: the flips privatise the
  // chunks they land in, so the medium keeps its zeros.
  MediaImage medium;
  medium.Write(0, std::vector<uint8_t>(kSeg, 0));
  MediaImage transfer;
  const ByteSink sink(transfer, kSeg);
  sink.FillFrom(medium, 0);
  CorruptThrice(sink);
  EXPECT_EQ(Flipped(ReadBack(transfer, 0, kSeg)), kSeed42Flips);
  EXPECT_EQ(ReadBack(medium, 0, kSeg), std::vector<uint8_t>(kSeg, 0));
}

}  // namespace
}  // namespace hl
