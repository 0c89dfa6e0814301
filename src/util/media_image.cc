#include "util/media_image.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#define HL_POISON_CHUNK(p) \
  ASAN_POISON_MEMORY_REGION((p), MediaImage::kChunkSize)
#define HL_UNPOISON_CHUNK(p) \
  ASAN_UNPOISON_MEMORY_REGION((p), MediaImage::kChunkSize)
#else
#define HL_POISON_CHUNK(p) ((void)(p))
#define HL_UNPOISON_CHUNK(p) ((void)(p))
#endif

namespace hl {
namespace {

// Chunks are carved from slabs of this size, aligned to it: one huge page.
constexpr size_t kSlabSize = 2 * 1024 * 1024;

// Idle chunks of every image in the process. Never destroyed, so an image
// destroyed during static teardown still pushes onto a live list.
std::vector<uint8_t*>& FreeChunks() {
  static auto* free_chunks = new std::vector<uint8_t*>();
  return *free_chunks;
}

// Maps one kSlabSize-aligned slab and pushes its chunks onto the free list,
// lowest address on top.
void CarveSlab(std::vector<uint8_t*>& free_chunks) {
  void* raw = mmap(nullptr, 2 * kSlabSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    throw std::bad_alloc();
  }
  // Trim the over-allocation down to one aligned slab.
  auto* base = static_cast<uint8_t*>(raw);
  auto addr = reinterpret_cast<uintptr_t>(base);
  uint8_t* slab = base + ((kSlabSize - addr % kSlabSize) % kSlabSize);
  if (slab > base) {
    munmap(base, static_cast<size_t>(slab - base));
  }
  uint8_t* tail = slab + kSlabSize;
  if (tail < base + 2 * kSlabSize) {
    munmap(tail, static_cast<size_t>(base + 2 * kSlabSize - tail));
  }
#ifdef MADV_HUGEPAGE
  madvise(slab, kSlabSize, MADV_HUGEPAGE);
#endif
  for (size_t off = kSlabSize; off > 0; off -= MediaImage::kChunkSize) {
    uint8_t* chunk = slab + off - MediaImage::kChunkSize;
    HL_POISON_CHUNK(chunk);
    free_chunks.push_back(chunk);
  }
}

uint8_t* PopChunk() {
  std::vector<uint8_t*>& free_chunks = FreeChunks();
  if (free_chunks.empty()) {
    CarveSlab(free_chunks);
  }
  uint8_t* chunk = free_chunks.back();
  free_chunks.pop_back();
  HL_UNPOISON_CHUNK(chunk);
  return chunk;
}

}  // namespace

void MediaImage::Read(uint64_t offset, std::span<uint8_t> out) const {
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / kChunkSize;
    const size_t at = static_cast<size_t>(pos % kChunkSize);
    const size_t take = std::min(kChunkSize - at, out.size() - done);
    const uint8_t* chunk = index < dir_.size() ? dir_[index] : nullptr;
    if (chunk == nullptr) {
      std::memset(out.data() + done, 0, take);
    } else {
      std::memcpy(out.data() + done, chunk + at, take);
    }
    done += take;
  }
}

void MediaImage::Write(uint64_t offset, std::span<const uint8_t> data) {
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / kChunkSize;
    const size_t at = static_cast<size_t>(pos % kChunkSize);
    const size_t take = std::min(kChunkSize - at, data.size() - done);
    if (index >= dir_.size()) {
      dir_.resize(index + 1, nullptr);
    }
    uint8_t*& chunk = dir_[index];
    if (chunk == nullptr) {
      // A hole reads as zeros outside the write; zero only those bytes.
      chunk = PopChunk();
      std::memset(chunk, 0, at);
      std::memset(chunk + at + take, 0, kChunkSize - at - take);
    }
    std::memcpy(chunk + at, data.data() + done, take);
    done += take;
  }
}

void MediaImage::Clear() {
  std::vector<uint8_t*>& free_chunks = FreeChunks();
  for (uint8_t* chunk : dir_) {
    if (chunk != nullptr) {
      HL_POISON_CHUNK(chunk);
      free_chunks.push_back(chunk);
    }
  }
  dir_.clear();
}

size_t MediaImage::resident_chunks() const {
  return dir_.size() - std::count(dir_.begin(), dir_.end(), nullptr);
}

}  // namespace hl
