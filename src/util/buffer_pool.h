// BufferPool: a bounded free list of segment-sized transfer buffers.
//
// Every tertiary transfer moves a whole segment (1 MB by default) through a
// scratch image: demand and read-ahead fetches, copy-outs, scrub reads and
// cross-site ships. Allocating each image afresh zero-fills a buffer that
// the device read then overwrites in full, and with glibc's mmap threshold
// below a segment every free/alloc pair is a munmap/mmap plus page faults.
// The pool recycles instead (the free-list idiom of a log store's
// popfree/freedata): Acquire pops an idle buffer, and a buffer returns to
// the list when its last holder drops it. Because the handle is a
// shared_ptr, an image shared with a read-ahead buffer or a coalesced read
// stays out of the pool until every holder has let go — never recycled while
// referenced.
//
// Recycled buffers keep their previous contents: callers must overwrite
// every byte they later read. Only kMaxIdle buffers are retained; extra
// returns are freed. Single-threaded, like the rest of the engine.

#ifndef HIGHLIGHT_UTIL_BUFFER_POOL_H_
#define HIGHLIGHT_UTIL_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hl {

class BufferPool {
 public:
  // Idle buffers kept for reuse. Transfers hold at most a few images at
  // once (one in flight, plus buffered read-aheads), so a handful covers
  // the steady state without pinning much memory.
  static constexpr size_t kMaxIdle = 4;

  using Buffer = std::shared_ptr<std::vector<uint8_t>>;

  BufferPool();

  // A buffer of exactly `bytes` bytes: a recycled one (stale contents) when
  // one is idle, else a new zero-filled one.
  Buffer Acquire(size_t bytes);

  size_t idle() const { return free_->buffers.size(); }
  // Buffers ever allocated (not recycled); a test and telemetry probe.
  uint64_t allocations() const { return free_->allocations; }

 private:
  // Shared with every outstanding buffer's deleter, so a buffer released
  // after the pool is gone still finds a live list (or is simply freed
  // with it).
  struct FreeList {
    std::vector<std::unique_ptr<std::vector<uint8_t>>> buffers;
    uint64_t allocations = 0;
  };
  std::shared_ptr<FreeList> free_;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_BUFFER_POOL_H_
