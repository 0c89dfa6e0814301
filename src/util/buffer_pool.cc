#include "util/buffer_pool.h"

namespace hl {

BufferPool::BufferPool() : free_(std::make_shared<FreeList>()) {}

BufferPool::Buffer BufferPool::Acquire(size_t bytes) {
  std::unique_ptr<std::vector<uint8_t>> buf;
  if (!free_->buffers.empty()) {
    buf = std::move(free_->buffers.back());
    free_->buffers.pop_back();
    buf->resize(bytes);  // No-op for the usual same-size reuse.
  } else {
    buf = std::make_unique<std::vector<uint8_t>>(bytes);
    free_->allocations++;
  }
  return Buffer(buf.release(),
                [list = free_](std::vector<uint8_t>* released) {
                  std::unique_ptr<std::vector<uint8_t>> owned(released);
                  if (list->buffers.size() < kMaxIdle) {
                    list->buffers.push_back(std::move(owned));
                  }
                });
}

}  // namespace hl
