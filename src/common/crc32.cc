#include "common/crc32.h"

#include <array>
#include <cstring>

// The carry-less-multiply kernel needs only a GCC-compatible x86-64
// compiler: it is compiled with a per-function target attribute (no global
// -mpclmul) and chosen at runtime, so the binary still runs on CPUs
// without PCLMULQDQ.
#if defined(__x86_64__) && defined(__GNUC__)
#define DECIBEL_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace decibel {

namespace {

/// Slice-by-8 lookup tables: t[0] is the classic byte-at-a-time table;
/// t[j][b] is the CRC of byte b followed by j zero bytes, letting the hot
/// loop fold 8 input bytes per iteration instead of 1.
struct Crc32Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables.t[0][i];
    for (int j = 1; j < 8; ++j) {
      c = tables.t[0][c & 0xff] ^ (c >> 8);
      tables.t[j][i] = c;
    }
  }
  return tables;
}

/// Extends the raw (pre-inverted) CRC state \p c over \p n bytes at \p p.
uint32_t ExtendPortable(uint32_t c, const uint8_t* p, size_t n) {
  static const Crc32Tables kTables = MakeTables();
  const auto& t = kTables.t;
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // Fold 8 bytes per iteration (slice-by-8). The word loads fold into the
  // running CRC in little-endian byte order; big-endian targets take the
  // bytewise tail loop below for everything.
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^ t[5][(c >> 16) & 0xff] ^
        t[4][c >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c;
}

#if defined(DECIBEL_CRC32_CLMUL)

bool CpuHasClmul() {
  static const bool has =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return has;
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds lane \p a forward over the next 128 bits and adds lane \p b:
/// hi(a)*k_hi ^ lo(a)*k_lo ^ b.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold128(__m128i a,
                                                              __m128i b,
                                                              __m128i k) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x11),
                                     _mm_clmulepi64_si128(a, k, 0x00)),
                       b);
}

/// Extends the raw CRC state \p c over \p n bytes at \p p, where n >= 64
/// and n is a multiple of 16, by carry-less-multiply folding (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009) in the bit-reflected domain of the IEEE
/// polynomial. Four 128-bit lanes fold 64 bytes per iteration; the lanes
/// then fold into one, 16 bytes at a time, and a Barrett reduction takes
/// the 64-bit remainder down to 32 bits. The result equals the table
/// path's bit for bit.
__attribute__((target("pclmul,sse4.1"))) uint32_t ExtendClmul(
    uint32_t c, const uint8_t* p, size_t n) {
  // Fold constants x^k mod P (reflected), in the paper's naming:
  // k1/k2 fold across 512 bits, k3/k4 across 128, k5 takes 96 bits to 64;
  // mu and P' drive the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = Fold128(x1, Load128(p), k1k2);
    x2 = Fold128(x2, Load128(p + 16), k1k2);
    x3 = Fold128(x3, Load128(p + 32), k1k2);
    x4 = Fold128(x4, Load128(p + 48), k1k2);
    p += 64;
    n -= 64;
  }
  x1 = Fold128(x1, x2, k3k4);
  x1 = Fold128(x1, x3, k3k4);
  x1 = Fold128(x1, x4, k3k4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold128(x1, Load128(p), k3k4);

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // DECIBEL_CRC32_CLMUL

}  // namespace

namespace internal {

uint32_t Crc32Portable(Slice data, uint32_t seed) {
  return ExtendPortable(seed ^ 0xffffffffu,
                        reinterpret_cast<const uint8_t*>(data.data()),
                        data.size()) ^
         0xffffffffu;
}

}  // namespace internal

uint32_t Crc32(Slice data, uint32_t seed) {
#if defined(DECIBEL_CRC32_CLMUL)
  if (data.size() >= 64 && CpuHasClmul()) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
    const size_t bulk = data.size() & ~size_t{15};
    const uint32_t c = ExtendClmul(seed ^ 0xffffffffu, p, bulk);
    return ExtendPortable(c, p + bulk, data.size() - bulk) ^ 0xffffffffu;
  }
#endif
  return internal::Crc32Portable(data, seed);
}

}  // namespace decibel
