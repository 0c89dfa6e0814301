#include "util/crc32.h"

#include <array>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HL_CRC32_CLMUL 1
#endif

namespace hl {
namespace {

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// Advances the reflected CRC state (pre- and post-inverted by the caller)
// one byte at a time.
uint32_t BytewiseUpdate(uint32_t crc, const uint8_t* p, size_t n) {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef HL_CRC32_CLMUL

// Folding constants for the reflected polynomial 0xEDB88320, from Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), also used by zlib's crc32_simd: one pair folds
// a lane 512 bits forward, one pair folds a lane 128 bits forward, one
// constant folds 64 bits, and P' (the polynomial with its x^32 term) and mu
// drive the final Barrett reduction.
constexpr uint64_t kFold512Lo = 0x0154442BD4;
constexpr uint64_t kFold512Hi = 0x01C6E41596;
constexpr uint64_t kFold128Lo = 0x01751997D0;
constexpr uint64_t kFold128Hi = 0x00CCAA009E;
constexpr uint64_t kFold64 = 0x0163CD6124;
constexpr uint64_t kPolyP = 0x01DB710641;
constexpr uint64_t kBarrettMu = 0x01F7011641;

// Moves `acc` forward by the distance the pair `k` encodes and xors in
// `next`: each 64-bit half of `acc` is carry-less multiplied by its half of
// `k`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i acc,
                                                            __m128i k,
                                                            __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Advances the reflected CRC state over `n` bytes; n >= 64 and n % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) uint32_t ClmulUpdate(
    uint32_t crc, const uint8_t* p, size_t n) {
  auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  // Four independent 128-bit lanes, each folded 512 bits forward per step.
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k512, load(p));
    x1 = Fold(x1, k512, load(p + 16));
    x2 = Fold(x2, k512, load(p + 32));
    x3 = Fold(x3, k512, load(p + 48));
  }

  // Collapse the lanes into one, then absorb any remaining 16-byte blocks.
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i x = Fold(x0, k128, x1);
  x = Fold(x, k128, x2);
  x = Fold(x, k128, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x = Fold(x, k128, load(p));
  }

  // Fold 128 bits down to 64.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  const __m128i k64 = _mm_set_epi64x(0, kFold64);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));

  // Barrett reduction to the 32-bit remainder.
  const __m128i barrett = _mm_set_epi64x(kBarrettMu, kPolyP);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool HaveClmul() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return have;
}

#endif  // HL_CRC32_CLMUL

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
#ifdef HL_CRC32_CLMUL
  if (n >= 64 && HaveClmul()) {
    const size_t bulk = n & ~size_t{15};
    crc = ClmulUpdate(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return BytewiseUpdate(crc, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace hl
