// MediaImage: the byte contents of one simulated medium, stored sparsely.
//
// Both media stores — a SimDisk's platters and a tertiary Volume — hold log
// segments in one flat byte address space. The image keeps that space as
// 64 KB chunks behind a flat directory indexed by chunk number, grown only
// up to the highest chunk ever written. Unwritten ranges read as zeros and
// cost nothing, so a simulated multi-gigabyte disk or tape library holds
// memory only for the data actually written to it.
//
// Chunks are recycled through one process-wide free list (the free-list
// idiom of a log store's popfree/freedata): destroying or Clear()ing an
// image hands its chunks back, and the next image — the next file-system
// instance in a bench or test loop — reuses memory that is already faulted
// in instead of paying the kernel to zero fresh pages. New chunks are carved
// from 2 MB-aligned anonymous mappings with a transparent-huge-page hint, so
// even the first round faults once per 2 MB rather than once per 4 KB where
// the host allows it. Slabs are never returned to the system.
//
// A recycled chunk holds stale bytes, so the first write to a chunk zeroes
// exactly the bytes it does not cover. Single-threaded, like the engine.

#ifndef HIGHLIGHT_UTIL_MEDIA_IMAGE_H_
#define HIGHLIGHT_UTIL_MEDIA_IMAGE_H_

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

  // Stores `data` at `offset`, taking a chunk for every hole it touches.
  void Write(uint64_t offset, std::span<const uint8_t> data);

  // Drops every chunk back to the free list: the whole image reads as
  // zeros again.
  void Clear();

  // Chunks this image holds; a test probe.
  size_t resident_chunks() const;

 private:
  std::vector<uint8_t*> dir_;  // Chunk number -> chunk, or null for a hole.
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_MEDIA_IMAGE_H_
