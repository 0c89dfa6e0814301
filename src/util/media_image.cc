#include "util/media_image.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "util/crc32.h"

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
constexpr size_t kChunksPerSlab = kSlabSize / MediaImage::kChunkSize;

}  // namespace

// Never destroyed, so an image destroyed during static teardown still
// pushes onto a live list.
std::vector<MediaImage::Chunk*>& MediaImage::FreeChunks() {
  static auto* free_chunks = new std::vector<Chunk*>();
  return *free_chunks;
}

// Maps one kSlabSize-aligned slab and pushes its chunks onto the free list,
// lowest address on top. The chunk records live as long as the slab: for
// the process.
void MediaImage::CarveSlab(std::vector<Chunk*>& free_chunks) {
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
  auto* records = new Chunk[kChunksPerSlab];
  for (size_t i = kChunksPerSlab; i > 0; --i) {
    Chunk* chunk = &records[i - 1];
    chunk->bytes = slab + (i - 1) * kChunkSize;
    HL_POISON_CHUNK(chunk->bytes);
    free_chunks.push_back(chunk);
  }
}

MediaImage::Chunk* MediaImage::PopChunk() {
  std::vector<Chunk*>& free_chunks = FreeChunks();
  if (free_chunks.empty()) {
    CarveSlab(free_chunks);
  }
  Chunk* chunk = free_chunks.back();
  free_chunks.pop_back();
  HL_UNPOISON_CHUNK(chunk->bytes);
  chunk->refs = 1;
  return chunk;
}

void MediaImage::Release(Chunk* chunk) {
  if (chunk != nullptr && --chunk->refs == 0) {
    HL_POISON_CHUNK(chunk->bytes);
    FreeChunks().push_back(chunk);
  }
}

const uint8_t* MediaImage::Zeros() {
  static const auto* zeros = new uint8_t[kChunkSize]();
  return zeros;
}

MediaImage::Chunk*& MediaImage::Slot(uint64_t index) {
  if (index >= dir_.size()) {
    dir_.resize(index + 1, nullptr);
  }
  return dir_[index];
}

void MediaImage::Read(uint64_t offset, std::span<uint8_t> out) const {
  size_t done = 0;
  ForEachRun(offset, out.size(), [&](std::span<const uint8_t> run) {
    std::memcpy(out.data() + done, run.data(), run.size());
    done += run.size();
  });
}

void MediaImage::Write(uint64_t offset, std::span<const uint8_t> data) {
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const size_t at = static_cast<size_t>(pos % kChunkSize);
    const size_t take = std::min(kChunkSize - at, data.size() - done);
    Chunk*& chunk = Slot(pos / kChunkSize);
    if (chunk == nullptr) {
      // A hole reads as zeros outside the write; zero only those bytes.
      chunk = PopChunk();
      std::memset(chunk->bytes, 0, at);
      std::memset(chunk->bytes + at + take, 0, kChunkSize - at - take);
    } else if (chunk->refs > 1) {
      // Another image holds this chunk: write into a private copy of it.
      Chunk* own = PopChunk();
      std::memcpy(own->bytes, chunk->bytes, at);
      std::memcpy(own->bytes + at + take, chunk->bytes + at + take,
                  kChunkSize - at - take);
      Release(chunk);
      chunk = own;
    }
    std::memcpy(chunk->bytes + at, data.data() + done, take);
    done += take;
  }
}

void MediaImage::Share(uint64_t offset, const MediaImage& src,
                       uint64_t src_offset, uint64_t len) {
  uint64_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t src_pos = src_offset + done;
    const size_t at = static_cast<size_t>(pos % kChunkSize);
    const size_t src_at = static_cast<size_t>(src_pos % kChunkSize);
    const uint64_t src_index = src_pos / kChunkSize;
    Chunk* from = src_index < src.dir_.size() ? src.dir_[src_index] : nullptr;
    if (at == 0 && src_at == 0 && len - done >= kChunkSize) {
      // A whole aligned chunk: hold the source's (or become a hole).
      if (from != nullptr || pos / kChunkSize < dir_.size()) {
        Chunk*& slot = Slot(pos / kChunkSize);
        if (from != nullptr) {
          ++from->refs;  // Before the release: `slot` may already be it.
        }
        Release(slot);
        slot = from;
      }
      done += kChunkSize;
      continue;
    }
    // An edge: copy up to the nearer chunk boundary of either side.
    const size_t take = static_cast<size_t>(std::min<uint64_t>(
        {kChunkSize - at, kChunkSize - src_at, len - done}));
    const uint64_t index = pos / kChunkSize;
    const bool hole = index >= dir_.size() || dir_[index] == nullptr;
    if (from != nullptr || !hole) {
      Write(pos, std::span<const uint8_t>(
                     (from != nullptr ? from->bytes : Zeros()) + src_at, take));
    }
    done += take;
  }
}

uint32_t MediaImage::Crc32(uint64_t offset, uint64_t len,
                           uint32_t seed) const {
  uint32_t crc = seed;
  ForEachRun(offset, len,
             [&](std::span<const uint8_t> run) { crc = hl::Crc32(run, crc); });
  return crc;
}

void MediaImage::Clear() {
  for (Chunk* chunk : dir_) {
    Release(chunk);
  }
  dir_.clear();
}

size_t MediaImage::resident_chunks() const {
  return dir_.size() - std::count(dir_.begin(), dir_.end(), nullptr);
}

const uint8_t* MediaImage::chunk_at(uint64_t offset) const {
  const uint64_t index = offset / kChunkSize;
  return index < dir_.size() && dir_[index] != nullptr ? dir_[index]->bytes
                                                       : nullptr;
}

size_t MediaImage::idle_chunks() { return FreeChunks().size(); }

ByteSink ByteSink::subspan(uint64_t offset, uint64_t len) const {
  if (image_ == nullptr) {
    return ByteSink(bytes_.subspan(offset, len));
  }
  return ByteSink(*image_, len, offset_ + offset);
}

void ByteSink::FillFrom(const MediaImage& medium,
                        uint64_t medium_offset) const {
  if (image_ == nullptr) {
    medium.Read(medium_offset, bytes_);
  } else {
    image_->Share(offset_, medium, medium_offset, size_);
  }
}

void ByteSink::FlipBits(uint64_t pos, uint8_t mask) const {
  if (image_ == nullptr) {
    bytes_[pos] ^= mask;
    return;
  }
  uint8_t byte = 0;
  image_->Read(offset_ + pos, std::span<uint8_t>(&byte, 1));
  byte ^= mask;
  image_->Write(offset_ + pos, std::span<const uint8_t>(&byte, 1));
}

ByteSource ByteSource::subspan(uint64_t offset, uint64_t len) const {
  if (image_ == nullptr) {
    return ByteSource(bytes_.subspan(offset, len));
  }
  return ByteSource(*image_, len, offset_ + offset);
}

void ByteSource::StoreTo(MediaImage& medium, uint64_t medium_offset) const {
  if (image_ == nullptr) {
    medium.Write(medium_offset, bytes_);
  } else {
    medium.Share(medium_offset, *image_, offset_, size_);
  }
}

}  // namespace hl
