// MediaImage: the byte contents of one simulated medium, stored sparsely.
//
// Both media stores — a SimDisk's platters and a tertiary Volume — hold log
// segments in one flat byte address space. The image keeps that space as
// 64 KB chunks behind a flat directory indexed by chunk number, grown only
// up to the highest chunk ever written. Unwritten ranges read as zeros and
// cost nothing, so a simulated multi-gigabyte disk or tape library holds
// memory only for the data actually written to it.
//
// Chunks are reference-counted and copy-on-write. Share() makes a range of
// one image equal to a range of another by pointing both directories at the
// same chunks, so a whole-segment transfer — tape to transfer image to cache
// line, staging line to tape — moves no bytes on the host. A write to a
// chunk another image still holds first takes a private copy; a write to an
// unshared chunk checks one count and stores in place.
//
// Chunks are recycled through one process-wide free list (the free-list
// idiom of a log store's popfree/freedata): a chunk returns to it when its
// last holder lets go, and the next image — the next file-system instance in
// a bench or test loop — reuses memory that is already faulted in instead of
// paying the kernel to zero fresh pages. New chunks are carved from 2 MB-
// aligned anonymous mappings with a transparent-huge-page hint, so even the
// first round faults once per 2 MB rather than once per 4 KB where the host
// allows it. Slabs are never returned to the system.
//
// A recycled chunk holds stale bytes, so the first write to a chunk zeroes
// exactly the bytes it does not cover. Single-threaded, like the engine.

#ifndef HIGHLIGHT_UTIL_MEDIA_IMAGE_H_
#define HIGHLIGHT_UTIL_MEDIA_IMAGE_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hl {

class MediaImage {
 public:
  static constexpr size_t kChunkSize = 64 * 1024;

  MediaImage() = default;
  ~MediaImage() { Clear(); }
  MediaImage(const MediaImage&) = delete;
  MediaImage& operator=(const MediaImage&) = delete;

  // Copies `out.size()` bytes at `offset` into `out`; holes read as zero.
  // The caller checks the range against the medium's capacity.
  void Read(uint64_t offset, std::span<uint8_t> out) const;

  // Stores `data` at `offset`, taking a chunk for every hole it touches and
  // a private copy of every chunk it touches that another image shares.
  void Write(uint64_t offset, std::span<const uint8_t> data);

  // Makes bytes [offset, offset + len) equal to `src`'s bytes
  // [src_offset, src_offset + len). Whole chunks that sit at the same
  // 64 KB phase on both sides are shared, and holes stay holes; only the
  // unaligned edges are copied.
  void Share(uint64_t offset, const MediaImage& src, uint64_t src_offset,
             uint64_t len);

  // Calls `fn(std::span<const uint8_t>)` for consecutive runs covering
  // [offset, offset + len), in order, each within one chunk. A hole's run
  // points at zeros.
  template <typename Fn>
  void ForEachRun(uint64_t offset, uint64_t len, Fn&& fn) const;

  // CRC-32 of [offset, offset + len), folded over the chunks in place with
  // holes read as zeros; equals hl::Crc32 of the same bytes copied out.
  uint32_t Crc32(uint64_t offset, uint64_t len, uint32_t seed = 0) const;

  // Drops every chunk (back to the free list when this was its last
  // holder): the whole image reads as zeros again.
  void Clear();

  // Chunks this image holds; a test probe.
  size_t resident_chunks() const;
  // The chunk holding byte `offset`, null for a hole. Two images that
  // return the same pointer share the chunk; a test probe.
  const uint8_t* chunk_at(uint64_t offset) const;
  // Chunks on the process-wide free list; a test probe.
  static size_t idle_chunks();

 private:
  struct Chunk {
    uint8_t* bytes = nullptr;
    uint32_t refs = 0;  // Images holding this chunk; 0 on the free list.
  };
  // Idle chunks of every image in the process.
  static std::vector<Chunk*>& FreeChunks();
  // Maps one slab and pushes its chunks onto the free list.
  static void CarveSlab(std::vector<Chunk*>& free_chunks);
  // A chunk off the free list, held once; its bytes are stale.
  static Chunk* PopChunk();
  // Drops one hold; the last one returns the chunk to the free list.
  static void Release(Chunk* chunk);
  static const uint8_t* Zeros();
  // The directory slot of chunk `index`, growing the directory to hold it.
  Chunk*& Slot(uint64_t index);

  std::vector<Chunk*> dir_;  // Chunk number -> chunk, or null for a hole.
};

template <typename Fn>
void MediaImage::ForEachRun(uint64_t offset, uint64_t len, Fn&& fn) const {
  uint64_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / kChunkSize;
    const size_t at = static_cast<size_t>(pos % kChunkSize);
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(kChunkSize - at, len - done));
    const Chunk* chunk = index < dir_.size() ? dir_[index] : nullptr;
    fn(std::span<const uint8_t>((chunk ? chunk->bytes : Zeros()) + at, take));
    done += take;
  }
}

// The host side of one device read: contiguous caller bytes (block I/O), or
// a range of a transfer image, which the device fills by sharing its
// medium's chunks instead of copying them. Devices keep one fault and timing
// implementation for both; only the data movement at the bottom differs.
class ByteSink {
 public:
  // Any contiguous mutable byte range: a span, a vector, an array.
  // Implicit, so block I/O callers pass their buffers as before.
  template <typename R>
    requires std::constructible_from<std::span<uint8_t>, R&&>
  ByteSink(R&& bytes) : bytes_(std::span<uint8_t>(bytes)) {}
  // Bytes [offset, offset + size) of `image`.
  ByteSink(MediaImage& image, uint64_t size, uint64_t offset = 0)
      : image_(&image), offset_(offset), size_(size) {}

  uint64_t size() const { return image_ ? size_ : bytes_.size(); }
  ByteSink subspan(uint64_t offset, uint64_t len) const;
  // Fills the whole sink with `medium`'s bytes starting at `medium_offset`.
  void FillFrom(const MediaImage& medium, uint64_t medium_offset) const;
  // XORs `mask` into byte `pos` (injected read corruption). On an image the
  // flip privatises the chunk, so the medium it came from never changes.
  void FlipBits(uint64_t pos, uint8_t mask) const;

 private:
  std::span<uint8_t> bytes_;
  MediaImage* image_ = nullptr;
  uint64_t offset_ = 0;
  uint64_t size_ = 0;
};

// The host side of one device write: contiguous caller bytes, or a range of
// a transfer image whose chunks the medium takes by sharing.
class ByteSource {
 public:
  ByteSource() = default;
  template <typename R>
    requires std::constructible_from<std::span<const uint8_t>, R&&>
  ByteSource(R&& bytes) : bytes_(std::span<const uint8_t>(bytes)) {}
  ByteSource(const MediaImage& image, uint64_t size, uint64_t offset = 0)
      : image_(&image), offset_(offset), size_(size) {}

  uint64_t size() const { return image_ ? size_ : bytes_.size(); }
  ByteSource subspan(uint64_t offset, uint64_t len) const;
  // Stores the whole source into `medium` at `medium_offset`.
  void StoreTo(MediaImage& medium, uint64_t medium_offset) const;

 private:
  std::span<const uint8_t> bytes_;
  const MediaImage* image_ = nullptr;
  uint64_t offset_ = 0;
  uint64_t size_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_MEDIA_IMAGE_H_
