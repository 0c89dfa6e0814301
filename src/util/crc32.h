// CRC-32 (IEEE 802.3 polynomial, reflected) used for LFS partial-segment
// summary and data checksums (ss_sumsum / ss_datasum in the paper's Table 1).
//
// The original 4.4BSD LFS used a cheap additive checksum over the first word
// of each block; we use a real CRC so that the recovery tests can detect torn
// partial segments reliably.
//
// On x86-64 CPUs with PCLMULQDQ and SSE4.1, the 16-byte-multiple bulk of any
// input of 64 bytes or more is folded with carry-less multiplies (four
// 128-bit lanes per 64-byte step, then a Barrett reduction), using the
// constants of Intel's "Fast CRC Computation Using PCLMULQDQ" paper. The CPU
// is probed once at run time; no compiler flag is needed. The bytewise table
// loop takes the tail of fewer than 16 bytes, short inputs, and every input
// on other CPUs and architectures. Both paths compute the same values, so
// on-media checksums and CRC catalogs do not depend on the host.

#ifndef HIGHLIGHT_UTIL_CRC32_H_
#define HIGHLIGHT_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace hl {

// Incremental CRC: pass the previous value as `seed` to chain buffers.
uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed = 0);

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_CRC32_H_
