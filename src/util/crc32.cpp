#include "util/crc32.h"

#include <array>

#include "util/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#define SPMV_X86 1
#include <immintrin.h>
#endif

namespace spmv {

namespace {

/// 8 slicing tables: table[0] is the classic byte-at-a-time table, and
/// table[k][b] extends a CRC by byte b followed by k zero bytes, which is
/// what lets one iteration fold 8 input bytes.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Crc32Tables() {
    constexpr std::uint32_t kPoly = 0xEDB88320u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
  }
};

const Crc32Tables& tables() {
  static const Crc32Tables instance;
  return instance;
}

#if defined(SPMV_X86)

#define SPMV_PCLMUL __attribute__((target("pclmul")))

/// Shortest input worth folding: the four lanes start from 64 bytes.
constexpr std::size_t kFoldMin = 64;

SPMV_PCLMUL inline __m128i load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advance one 128-bit lane by `k`'s distance and add `next`: the lane's
/// low and high 64-bit halves are carried forward by multiplying them
/// with the low and high constant of `k`.
SPMV_PCLMUL inline __m128i fold(__m128i lane, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Raw CRC state (no pre- or post-inversion) after `n` bytes at `p`;
/// n >= kFoldMin and a multiple of 16.  The constants are those of Gopal
/// et al. for the bit-reflected P(x) = 0x104C11DB7, written as
/// (x^e mod P(x))' << 1 with ' the 32-bit reflection.
SPMV_PCLMUL std::uint32_t crc32_fold(const unsigned char* p, std::size_t n,
                                     std::uint32_t crc) {
  // Four lanes, 512 bits apart: e = 4*128 + 32 (low), 4*128 - 32 (high).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // One lane, 128 bits apart: e = 128 + 32 (low), 128 - 32 (high).
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // 64 -> 32 bits: e = 64.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // Barrett reduction: P(x)' (low) and mu = floor(x^64 / P(x))' (high).
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load16(p));
    x1 = fold(x1, k1k2, load16(p + 16));
    x2 = fold(x2, k1k2, load16(p + 32));
    x3 = fold(x3, k1k2, load16(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load16(p));

  // 128 -> 64 bits: the low half, times k4, folds onto the high half.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                     _mm_srli_si128(x0, 8));
  // 64 -> 32 bits.
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction to the 32-bit remainder, left in bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#endif  // SPMV_X86

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
#if defined(SPMV_X86)
  static const bool has_fold = host_info().has_pclmul;
  if (n >= kFoldMin && has_fold) {
    // The fold takes whole 16-byte blocks; slicing-by-8 finishes the
    // remaining 0..15 bytes from the folded CRC.
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t body = n & ~std::size_t{15};
    return crc32_portable(p + body, n - body, ~crc32_fold(p, body, ~seed));
  }
#endif
  return crc32_portable(data, n, seed);
}

std::uint32_t crc32_portable(const void* data, std::size_t n,
                             std::uint32_t seed) {
  const auto& t = tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  while (n >= 8) {
    // Fold 8 bytes per iteration: the low word XORs into the running CRC,
    // the high word is fresh input; each byte picks the table that
    // accounts for its distance from the end of the group.
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- != 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace spmv
