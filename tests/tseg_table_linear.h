// Linear-scan reference implementations of TsegTable's indexed queries: the
// pre-index code paths, kept out of the production header. The index
// property test compares the indices against them, and the engine_ops bench
// times the indexed queries against them.

#ifndef HIGHLIGHT_TESTS_TSEG_TABLE_LINEAR_H_
#define HIGHLIGHT_TESTS_TSEG_TABLE_LINEAR_H_

#include <cstdint>
#include <set>
#include <vector>

#include "highlight/address_map.h"
#include "highlight/tseg_table.h"

namespace hl {

// TsegTable::NextFreshTseg by scanning every volume's segments.
inline uint32_t NextFreshTsegLinear(const TsegTable& table,
                                    const AddressMap& amap,
                                    const std::set<uint32_t>& full_volumes,
                                    uint32_t preferred_volume = kNoSegment) {
  auto scan_volume = [&](uint32_t volume) -> uint32_t {
    if (full_volumes.count(volume) > 0) {
      return kNoSegment;
    }
    const uint32_t first = amap.FirstTsegOfVolume(volume);
    for (uint32_t s = 0; s < amap.segs_per_volume(); ++s) {
      if (table.Get(first + s).flags & kSegClean) {
        return first + s;
      }
    }
    return kNoSegment;
  };
  if (preferred_volume != kNoSegment && preferred_volume < amap.num_volumes()) {
    const uint32_t tseg = scan_volume(preferred_volume);
    if (tseg != kNoSegment) {
      return tseg;
    }
  }
  for (uint32_t volume = 0; volume < amap.num_volumes(); ++volume) {
    const uint32_t tseg = scan_volume(volume);
    if (tseg != kNoSegment) {
      return tseg;
    }
  }
  return kNoSegment;
}

// TsegTable::ReplicasOf by scanning the whole table.
inline std::vector<uint32_t> ReplicasOfLinear(const TsegTable& table,
                                              uint32_t primary) {
  std::vector<uint32_t> out;
  for (uint32_t t = 0; t < table.size(); ++t) {
    const SegUsage& u = table.Get(t);
    if ((u.flags & kSegReplica) && u.cache_tseg == primary) {
      out.push_back(t);
    }
  }
  return out;
}

// TsegTable::TotalLiveBytes and DirtyTsegCount by summing every entry.
inline uint64_t TotalLiveBytesLinear(const TsegTable& table) {
  uint64_t total = 0;
  for (uint32_t t = 0; t < table.size(); ++t) {
    total += table.Get(t).live_bytes;
  }
  return total;
}

inline uint32_t DirtyTsegCountLinear(const TsegTable& table) {
  uint32_t n = 0;
  for (uint32_t t = 0; t < table.size(); ++t) {
    if (!(table.Get(t).flags & kSegClean)) {
      ++n;
    }
  }
  return n;
}

}  // namespace hl

#endif  // HIGHLIGHT_TESTS_TSEG_TABLE_LINEAR_H_
