// Abstract block device interface shared by disks, the concatenation
// pseudo-driver, and HighLight's block-map driver.
//
// All HighLight media use 4 KB blocks (the paper's block size; pointers are
// 32-bit block numbers addressing 4 KB units, giving the 16 TB ceiling).

#ifndef HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_
#define HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_

#include <cstdint>
#include <string>

#include "util/media_image.h"
#include "util/status.h"

namespace hl {

constexpr uint32_t kBlockSize = 4096;
constexpr uint32_t kBlockShift = 12;

// Out-of-band block number meaning "unassigned" (the paper's -1 sentinel).
constexpr uint32_t kNoBlock = 0xFFFFFFFFu;

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t NumBlocks() const = 0;
  virtual const std::string& Name() const = 0;

  // Reads `count` consecutive blocks starting at `block`. `out` must be
  // exactly count * kBlockSize bytes: caller memory, or a transfer image
  // that takes the blocks by sharing the medium's chunks.
  virtual Status ReadBlocks(uint32_t block, uint32_t count, ByteSink out) = 0;

  // Writes `count` consecutive blocks starting at `block`.
  virtual Status WriteBlocks(uint32_t block, uint32_t count,
                             ByteSource data) = 0;

  // Flushes any volatile state (a no-op for the simulated devices, but part
  // of the contract mount code relies on).
  virtual Status Flush() { return OkStatus(); }
};

}  // namespace hl

#endif  // HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_
