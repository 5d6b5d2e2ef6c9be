// AVX2 register-tile kernels + the backend registry (see kernels_simd.h).
//
// Compiled with per-function target("avx2") attributes so the default
// (portable) build carries them and dispatches at runtime.  The attribute
// deliberately does NOT enable FMA: with FMA in scope the compiler may
// contract our separate multiply/add intrinsics into fused ones, changing
// rounding and breaking the bit-identical-to-scalar contract.  The vector
// lanes below always map to *independent scalar accumulation chains*
// (output rows, or the 1×1 kernel's four pipelined accumulators), so each
// lane performs exactly the scalar kernel's operation sequence.
#include "core/kernels_simd.h"

#include <cstdint>

#include "util/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#define SPMV_X86 1
#include <immintrin.h>
#endif

namespace spmv {

namespace {

#if defined(SPMV_X86)

#define SPMV_AVX2 __attribute__((target("avx2")))

// Four x elements at four independent offsets, assembled with plain
// load+shuffle µops.  Deliberately NOT vpgatherdpd: the µcoded gather
// measured slower than the scalar reference on several AVX2 parts and is
// hypersensitive to cache aliasing; explicit inserts pipeline on the load
// ports like the scalar kernel's own four loads.
template <typename Idx>
SPMV_AVX2 inline __m256d load_x4(const double* xb, const Idx* c) {
  return _mm256_set_pd(xb[c[3]], xb[c[2]], xb[c[1]], xb[c[0]]);
}

// y ← y + tile·x for one R-row tile, lane i = output row i, every lane
// reproducing the scalar chain a_i = ((0 + v_i0·x_0) + v_i1·x_1) + … .
// Tiles are row-major, so products are formed row-major too (against a
// duplicated x pattern — identical multiplications to scalar, cheaper
// than transposing the values), then the *product* vectors are transposed
// so each add runs down a column in the scalar order.  Shuffles cost no
// FP rounding.

template <unsigned C>
SPMV_AVX2 inline __m256d tile_partial_r4(const double* tile,
                                         const double* xs) {
  __m256d a = _mm256_setzero_pd();
  if constexpr (C == 1) {
    // 4×1 tile: the four rows are contiguous values times one x element.
    a = _mm256_add_pd(
        a, _mm256_mul_pd(_mm256_loadu_pd(tile), _mm256_broadcast_sd(xs)));
  } else if constexpr (C == 2) {
    const __m256d xd =
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(xs));
    // p0 = p00 p01 p10 p11, p1 = p20 p21 p30 p31
    const __m256d p0 = _mm256_mul_pd(_mm256_loadu_pd(tile), xd);
    const __m256d p1 = _mm256_mul_pd(_mm256_loadu_pd(tile + 4), xd);
    // unpacklo = p00 p20 p10 p30; 0xD8 reorders lanes (0,2,1,3) → column 0
    a = _mm256_add_pd(
        a, _mm256_permute4x64_pd(_mm256_unpacklo_pd(p0, p1), 0xD8));
    a = _mm256_add_pd(
        a, _mm256_permute4x64_pd(_mm256_unpackhi_pd(p0, p1), 0xD8));
  } else {
    static_assert(C == 4);
    const __m256d xv = _mm256_loadu_pd(xs);
    const __m256d p0 = _mm256_mul_pd(_mm256_loadu_pd(tile), xv);
    const __m256d p1 = _mm256_mul_pd(_mm256_loadu_pd(tile + 4), xv);
    const __m256d p2 = _mm256_mul_pd(_mm256_loadu_pd(tile + 8), xv);
    const __m256d p3 = _mm256_mul_pd(_mm256_loadu_pd(tile + 12), xv);
    const __m256d t0 = _mm256_unpacklo_pd(p0, p1);  // p00 p10 p02 p12
    const __m256d t1 = _mm256_unpackhi_pd(p0, p1);  // p01 p11 p03 p13
    const __m256d t2 = _mm256_unpacklo_pd(p2, p3);  // p20 p30 p22 p32
    const __m256d t3 = _mm256_unpackhi_pd(p2, p3);  // p21 p31 p23 p33
    a = _mm256_add_pd(a, _mm256_permute2f128_pd(t0, t2, 0x20));  // col 0
    a = _mm256_add_pd(a, _mm256_permute2f128_pd(t1, t3, 0x20));  // col 1
    a = _mm256_add_pd(a, _mm256_permute2f128_pd(t0, t2, 0x31));  // col 2
    a = _mm256_add_pd(a, _mm256_permute2f128_pd(t1, t3, 0x31));  // col 3
  }
  return a;
}

template <unsigned C>
SPMV_AVX2 inline __m128d tile_partial_r2(const double* tile,
                                         const double* xs) {
  __m128d a = _mm_setzero_pd();
  if constexpr (C == 1) {
    a = _mm_add_pd(a, _mm_mul_pd(_mm_loadu_pd(tile), _mm_loaddup_pd(xs)));
  } else if constexpr (C == 2) {
    // One 256-bit multiply covers the whole tile: p = p00 p01 p10 p11.
    const __m256d p = _mm256_mul_pd(
        _mm256_loadu_pd(tile),
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(xs)));
    const __m128d lo = _mm256_castpd256_pd128(p);      // p00 p01
    const __m128d hi = _mm256_extractf128_pd(p, 1);    // p10 p11
    a = _mm_add_pd(a, _mm_unpacklo_pd(lo, hi));        // col 0
    a = _mm_add_pd(a, _mm_unpackhi_pd(lo, hi));        // col 1
  } else {
    static_assert(C == 4);
    const __m256d xv = _mm256_loadu_pd(xs);
    const __m256d p0 = _mm256_mul_pd(_mm256_loadu_pd(tile), xv);
    const __m256d p1 = _mm256_mul_pd(_mm256_loadu_pd(tile + 4), xv);
    const __m128d lo0 = _mm256_castpd256_pd128(p0);    // p00 p01
    const __m128d hi0 = _mm256_extractf128_pd(p0, 1);  // p02 p03
    const __m128d lo1 = _mm256_castpd256_pd128(p1);    // p10 p11
    const __m128d hi1 = _mm256_extractf128_pd(p1, 1);  // p12 p13
    a = _mm_add_pd(a, _mm_unpacklo_pd(lo0, lo1));      // col 0
    a = _mm_add_pd(a, _mm_unpackhi_pd(lo0, lo1));      // col 1
    a = _mm_add_pd(a, _mm_unpacklo_pd(hi0, hi1));      // col 2
    a = _mm_add_pd(a, _mm_unpackhi_pd(hi0, hi1));      // col 3
  }
  return a;
}

// 1×4 tile: SIMD products, then the scalar kernel's sequential reduction
// (the chain is one output row, so it cannot be widened — the win is the
// single 256-bit multiply and x load).
SPMV_AVX2 inline double tile_partial_r1c4(const double* tile,
                                          const double* xs) {
  alignas(32) double p[4];
  _mm256_store_pd(
      p, _mm256_mul_pd(_mm256_loadu_pd(tile), _mm256_loadu_pd(xs)));
  double a = 0.0;
  a += p[0];
  a += p[1];
  a += p[2];
  a += p[3];
  return a;
}

// ---- BCSR ----

// 1×1 BCSR (plain CSR rows): the scalar kernel's four software-pipelined
// accumulators become the four lanes of one vector accumulator; the
// chains and their final (a0+a1)+(a2+a3) reduction are unchanged.
template <typename Idx>
SPMV_AVX2 void bcsr_1x1_avx2(const EncodedBlock& b, const double* x,
                             double* y, unsigned prefetch_distance) {
  const double* v = b.values.data();
  const Idx* cols = detail::col_array<Idx>(b);
  const std::uint32_t* rp = b.row_ptr.data();
  const double* xb = x + b.col0;
  double* yb = y + b.row0;
  const std::uint32_t rows = b.row1 - b.row0;
  const std::uint64_t pf = prefetch_distance;

  std::uint64_t t = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint64_t end = rp[r + 1];
    __m256d acc = _mm256_setzero_pd();
    for (; t + 4 <= end; t += 4) {
      if (pf != 0) {
        __builtin_prefetch(v + t + pf, 0, 0);
        __builtin_prefetch(cols + t + pf, 0, 0);
      }
      const __m256d vv = _mm256_loadu_pd(v + t);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(vv, load_x4(xb, cols + t)));
    }
    alignas(32) double a[4];
    _mm256_store_pd(a, acc);
    for (; t < end; ++t) a[0] += v[t] * xb[cols[t]];
    yb[r] += (a[0] + a[1]) + (a[2] + a[3]);
  }
}

template <unsigned R, unsigned C, typename Idx>
SPMV_AVX2 void bcsr_avx2(const EncodedBlock& b, const double* x, double* y,
                         unsigned prefetch_distance) {
  const double* v = b.values.data();
  const Idx* cols = detail::col_array<Idx>(b);
  const std::uint32_t* rp = b.row_ptr.data();
  const double* xb = x + b.col0;
  double* yb = y + b.row0;
  const std::uint32_t span = b.row1 - b.row0;
  const std::uint32_t full_tile_rows = span / R;
  const std::uint32_t tail_height = span % R;
  const std::uint64_t pf = prefetch_distance;

  std::uint64_t t = 0;
  for (std::uint32_t tr = 0; tr < full_tile_rows; ++tr) {
    const std::uint64_t end = rp[tr + 1];
    double* ys = yb + static_cast<std::uint64_t>(tr) * R;
    if constexpr (R == 4) {
      __m256d acc = _mm256_setzero_pd();
      for (; t < end; ++t) {
        if (pf != 0) {
          __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
          __builtin_prefetch(cols + t + pf, 0, 0);
        }
        acc = _mm256_add_pd(
            acc, tile_partial_r4<C>(v + t * R * C, xb + cols[t]));
      }
      _mm256_storeu_pd(ys, _mm256_add_pd(_mm256_loadu_pd(ys), acc));
    } else if constexpr (R == 2) {
      __m128d acc = _mm_setzero_pd();
      for (; t < end; ++t) {
        if (pf != 0) {
          __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
          __builtin_prefetch(cols + t + pf, 0, 0);
        }
        acc = _mm_add_pd(acc, tile_partial_r2<C>(v + t * R * C,
                                                 xb + cols[t]));
      }
      _mm_storeu_pd(ys, _mm_add_pd(_mm_loadu_pd(ys), acc));
    } else {
      static_assert(R == 1 && C == 4);
      double acc = 0.0;
      for (; t < end; ++t) {
        if (pf != 0) {
          __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
          __builtin_prefetch(cols + t + pf, 0, 0);
        }
        acc += tile_partial_r1c4(v + t * R * C, xb + cols[t]);
      }
      ys[0] += acc;
    }
  }
  if (tail_height != 0) {
    // Ragged final tile row: scalar, exactly as the reference kernel.
    const std::uint64_t end = rp[full_tile_rows + 1];
    double acc[R] = {};
    for (; t < end; ++t) {
      const double* tile = v + t * R * C;
      const double* xs = xb + cols[t];
      for (unsigned i = 0; i < R; ++i) {
        double a = 0.0;
        for (unsigned j = 0; j < C; ++j) {
          a += tile[i * C + j] * xs[j];
        }
        acc[i] += a;
      }
    }
    double* ys = yb + static_cast<std::uint64_t>(full_tile_rows) * R;
    for (unsigned i = 0; i < tail_height; ++i) ys[i] += acc[i];
  }
}

// ---- BCOO ----

template <unsigned R, unsigned C, typename Idx>
SPMV_AVX2 void bcoo_avx2(const EncodedBlock& b, const double* x, double* y,
                         unsigned prefetch_distance) {
  const double* v = b.values.data();
  const Idx* cols = detail::col_array<Idx>(b);
  const Idx* brows = detail::brow_array<Idx>(b);
  const double* xb = x + b.col0;
  double* yb = y + b.row0;
  const std::uint64_t tiles = b.tiles;
  const std::uint64_t pf = prefetch_distance;

  for (std::uint64_t t = 0; t < tiles; ++t) {
    if (pf != 0) {
      __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
      __builtin_prefetch(cols + t + pf, 0, 0);
      __builtin_prefetch(brows + t + pf, 0, 0);
    }
    const double* tile = v + t * R * C;
    const double* xs = xb + cols[t];
    double* ys = yb + brows[t];
    if constexpr (R == 4) {
      // Successive tiles may overlap in rows (edge tiles shift up), but
      // this read-modify-write is sequential within the block, so the
      // vector update equals the scalar per-row updates.
      const __m256d a = tile_partial_r4<C>(tile, xs);
      _mm256_storeu_pd(ys, _mm256_add_pd(_mm256_loadu_pd(ys), a));
    } else if constexpr (R == 2) {
      const __m128d a = tile_partial_r2<C>(tile, xs);
      _mm_storeu_pd(ys, _mm_add_pd(_mm_loadu_pd(ys), a));
    } else {
      static_assert(R == 1 && C == 4);
      ys[0] += tile_partial_r1c4(tile, xs);
    }
  }
}

// ---- Fused multi-vector (SpMM) kernels ----
//
// The k packed right-hand sides make the panel the vector dimension:
// every lane is one rhs's independent accumulation chain, so vectorizing
// across lanes is bit-safe for every tile shape (no transposes, no
// gathers — x loads are contiguous k-wide runs).  Multiply and add stay
// separate intrinsics: with FMA the rounding would diverge from the
// scalar fused reference.

/// A k-lane accumulator: K ∈ {2, 4, 8} doubles.
template <unsigned K>
struct KVec;
template <>
struct KVec<2> {
  __m128d v;
};
template <>
struct KVec<4> {
  __m256d v;
};
template <>
struct KVec<8> {
  __m256d lo, hi;
};

template <unsigned K>
SPMV_AVX2 inline KVec<K> kv_zero() {
  if constexpr (K == 2) {
    return {_mm_setzero_pd()};
  } else if constexpr (K == 4) {
    return {_mm256_setzero_pd()};
  } else {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
}

template <unsigned K>
SPMV_AVX2 inline KVec<K> kv_load(const double* p) {
  if constexpr (K == 2) {
    return {_mm_loadu_pd(p)};
  } else if constexpr (K == 4) {
    return {_mm256_loadu_pd(p)};
  } else {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
}

template <unsigned K>
SPMV_AVX2 inline void kv_store(double* p, KVec<K> a) {
  if constexpr (K == 2) {
    _mm_storeu_pd(p, a.v);
  } else if constexpr (K == 4) {
    _mm256_storeu_pd(p, a.v);
  } else {
    _mm256_storeu_pd(p, a.lo);
    _mm256_storeu_pd(p + 4, a.hi);
  }
}

template <unsigned K>
SPMV_AVX2 inline KVec<K> kv_add(KVec<K> a, KVec<K> b) {
  if constexpr (K == 2) {
    return {_mm_add_pd(a.v, b.v)};
  } else if constexpr (K == 4) {
    return {_mm256_add_pd(a.v, b.v)};
  } else {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
}

/// a + s·load(p), multiply and add as separate ops (scalar rounding).
template <unsigned K>
SPMV_AVX2 inline KVec<K> kv_muladd(KVec<K> a, double s, const double* p) {
  if constexpr (K == 2) {
    return {_mm_add_pd(a.v, _mm_mul_pd(_mm_set1_pd(s), _mm_loadu_pd(p)))};
  } else if constexpr (K == 4) {
    return {_mm256_add_pd(
        a.v, _mm256_mul_pd(_mm256_set1_pd(s), _mm256_loadu_pd(p)))};
  } else {
    const __m256d sv = _mm256_set1_pd(s);
    return {_mm256_add_pd(a.lo, _mm256_mul_pd(sv, _mm256_loadu_pd(p))),
            _mm256_add_pd(a.hi, _mm256_mul_pd(sv, _mm256_loadu_pd(p + 4)))};
  }
}

template <unsigned R, unsigned C, unsigned K, typename Idx>
SPMV_AVX2 void bcsr_avx2_k(const EncodedBlock& b, const double* x, double* y,
                           unsigned prefetch_distance, unsigned /*k*/) {
  const double* v = b.values.data();
  const Idx* cols = detail::col_array<Idx>(b);
  const std::uint32_t* rp = b.row_ptr.data();
  const double* xb = x + static_cast<std::uint64_t>(b.col0) * K;
  double* yb = y + static_cast<std::uint64_t>(b.row0) * K;
  const std::uint32_t span = b.row1 - b.row0;
  const std::uint32_t full_tile_rows = span / R;
  const std::uint32_t tail_height = span % R;
  const std::uint64_t pf = prefetch_distance;

  std::uint64_t t = 0;
  for (std::uint32_t tr = 0; tr < full_tile_rows; ++tr) {
    const std::uint64_t end = rp[tr + 1];
    if constexpr (R == 1 && C == 1) {
      // Four pipelined chains per lane, as in the scalar fused kernel.
      KVec<K> a0 = kv_zero<K>(), a1 = kv_zero<K>(), a2 = kv_zero<K>(),
              a3 = kv_zero<K>();
      for (; t + 4 <= end; t += 4) {
        if (pf != 0) {
          __builtin_prefetch(v + t + pf, 0, 0);
          __builtin_prefetch(cols + t + pf, 0, 0);
        }
        a0 = kv_muladd<K>(a0, v[t + 0],
                          xb + static_cast<std::uint64_t>(cols[t + 0]) * K);
        a1 = kv_muladd<K>(a1, v[t + 1],
                          xb + static_cast<std::uint64_t>(cols[t + 1]) * K);
        a2 = kv_muladd<K>(a2, v[t + 2],
                          xb + static_cast<std::uint64_t>(cols[t + 2]) * K);
        a3 = kv_muladd<K>(a3, v[t + 3],
                          xb + static_cast<std::uint64_t>(cols[t + 3]) * K);
      }
      for (; t < end; ++t) {
        a0 = kv_muladd<K>(a0, v[t],
                          xb + static_cast<std::uint64_t>(cols[t]) * K);
      }
      double* ys = yb + static_cast<std::uint64_t>(tr) * K;
      kv_store<K>(ys, kv_add<K>(kv_load<K>(ys),
                                kv_add<K>(kv_add<K>(a0, a1),
                                          kv_add<K>(a2, a3))));
    } else {
      KVec<K> acc[R];
      for (unsigned i = 0; i < R; ++i) acc[i] = kv_zero<K>();
      for (; t < end; ++t) {
        if (pf != 0) {
          __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
          __builtin_prefetch(cols + t + pf, 0, 0);
        }
        const double* tile = v + t * R * C;
        const double* xs = xb + static_cast<std::uint64_t>(cols[t]) * K;
        for (unsigned i = 0; i < R; ++i) {
          KVec<K> a = kv_zero<K>();
          for (unsigned c = 0; c < C; ++c) {
            a = kv_muladd<K>(a, tile[i * C + c],
                             xs + static_cast<std::uint64_t>(c) * K);
          }
          acc[i] = kv_add<K>(acc[i], a);
        }
      }
      double* ys = yb + static_cast<std::uint64_t>(tr) * R * K;
      for (unsigned i = 0; i < R; ++i) {
        double* yr = ys + static_cast<std::uint64_t>(i) * K;
        kv_store<K>(yr, kv_add<K>(kv_load<K>(yr), acc[i]));
      }
    }
  }
  if (tail_height != 0) {
    const std::uint64_t end = rp[full_tile_rows + 1];
    KVec<K> acc[R];
    for (unsigned i = 0; i < R; ++i) acc[i] = kv_zero<K>();
    for (; t < end; ++t) {
      const double* tile = v + t * R * C;
      const double* xs = xb + static_cast<std::uint64_t>(cols[t]) * K;
      for (unsigned i = 0; i < R; ++i) {
        KVec<K> a = kv_zero<K>();
        for (unsigned c = 0; c < C; ++c) {
          a = kv_muladd<K>(a, tile[i * C + c],
                           xs + static_cast<std::uint64_t>(c) * K);
        }
        acc[i] = kv_add<K>(acc[i], a);
      }
    }
    double* ys = yb + static_cast<std::uint64_t>(full_tile_rows) * R * K;
    for (unsigned i = 0; i < tail_height; ++i) {
      double* yr = ys + static_cast<std::uint64_t>(i) * K;
      kv_store<K>(yr, kv_add<K>(kv_load<K>(yr), acc[i]));
    }
  }
}

template <unsigned R, unsigned C, unsigned K, typename Idx>
SPMV_AVX2 void bcoo_avx2_k(const EncodedBlock& b, const double* x, double* y,
                           unsigned prefetch_distance, unsigned /*k*/) {
  const double* v = b.values.data();
  const Idx* cols = detail::col_array<Idx>(b);
  const Idx* brows = detail::brow_array<Idx>(b);
  const double* xb = x + static_cast<std::uint64_t>(b.col0) * K;
  double* yb = y + static_cast<std::uint64_t>(b.row0) * K;
  const std::uint64_t tiles = b.tiles;
  const std::uint64_t pf = prefetch_distance;

  for (std::uint64_t t = 0; t < tiles; ++t) {
    if (pf != 0) {
      __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
      __builtin_prefetch(cols + t + pf, 0, 0);
      __builtin_prefetch(brows + t + pf, 0, 0);
    }
    const double* tile = v + t * R * C;
    const double* xs = xb + static_cast<std::uint64_t>(cols[t]) * K;
    double* ys = yb + static_cast<std::uint64_t>(brows[t]) * K;
    // Sequential read-modify-write per row, so overlapping edge tiles
    // still accumulate in the scalar order.
    for (unsigned i = 0; i < R; ++i) {
      KVec<K> a = kv_zero<K>();
      for (unsigned c = 0; c < C; ++c) {
        a = kv_muladd<K>(a, tile[i * C + c],
                         xs + static_cast<std::uint64_t>(c) * K);
      }
      double* yr = ys + static_cast<std::uint64_t>(i) * K;
      kv_store<K>(yr, kv_add<K>(kv_load<K>(yr), a));
    }
  }
}

// Fused registry: every shape is covered at K ∈ {2, 4, 8} (see the header
// note — the panel supplies the vector dimension).
template <typename Idx, unsigned K>
struct Avx2KernelsK {
  static constexpr BlockKernelKFn bcsr[3][3] = {
      {bcsr_avx2_k<1, 1, K, Idx>, bcsr_avx2_k<1, 2, K, Idx>,
       bcsr_avx2_k<1, 4, K, Idx>},
      {bcsr_avx2_k<2, 1, K, Idx>, bcsr_avx2_k<2, 2, K, Idx>,
       bcsr_avx2_k<2, 4, K, Idx>},
      {bcsr_avx2_k<4, 1, K, Idx>, bcsr_avx2_k<4, 2, K, Idx>,
       bcsr_avx2_k<4, 4, K, Idx>},
  };
  static constexpr BlockKernelKFn bcoo[3][3] = {
      {bcoo_avx2_k<1, 1, K, Idx>, bcoo_avx2_k<1, 2, K, Idx>,
       bcoo_avx2_k<1, 4, K, Idx>},
      {bcoo_avx2_k<2, 1, K, Idx>, bcoo_avx2_k<2, 2, K, Idx>,
       bcoo_avx2_k<2, 4, K, Idx>},
      {bcoo_avx2_k<4, 1, K, Idx>, bcoo_avx2_k<4, 2, K, Idx>,
       bcoo_avx2_k<4, 4, K, Idx>},
  };
};

template <unsigned K>
BlockKernelKFn avx2_lookup_k_width(BlockFormat fmt, IndexWidth idx, int rs,
                                   int cs) {
  if (idx == IndexWidth::k16) {
    return fmt == BlockFormat::kBcsr
               ? Avx2KernelsK<std::uint16_t, K>::bcsr[rs][cs]
               : Avx2KernelsK<std::uint16_t, K>::bcoo[rs][cs];
  }
  return fmt == BlockFormat::kBcsr
             ? Avx2KernelsK<std::uint32_t, K>::bcsr[rs][cs]
             : Avx2KernelsK<std::uint32_t, K>::bcoo[rs][cs];
}

BlockKernelKFn avx2_lookup_k(BlockFormat fmt, IndexWidth idx, int rs, int cs,
                             unsigned k) {
  switch (k) {
    case 2: return avx2_lookup_k_width<2>(fmt, idx, rs, cs);
    case 4: return avx2_lookup_k_width<4>(fmt, idx, rs, cs);
    case 8: return avx2_lookup_k_width<8>(fmt, idx, rs, cs);
    default: return nullptr;  // runtime widths run the scalar fused kernel
  }
}

// Registry: [idx][row slot][col slot], nullptr = no specialization (shape
// falls back to scalar).  1×2 has no vector form at all; 1×1/1×2 BCOO
// would need scattered single-element writes AVX2 cannot express.
template <typename Idx>
struct Avx2Kernels {
  static constexpr BlockKernelFn bcsr[3][3] = {
      {bcsr_1x1_avx2<Idx>, nullptr, bcsr_avx2<1, 4, Idx>},
      {bcsr_avx2<2, 1, Idx>, bcsr_avx2<2, 2, Idx>, bcsr_avx2<2, 4, Idx>},
      {bcsr_avx2<4, 1, Idx>, bcsr_avx2<4, 2, Idx>, bcsr_avx2<4, 4, Idx>},
  };
  static constexpr BlockKernelFn bcoo[3][3] = {
      {nullptr, nullptr, bcoo_avx2<1, 4, Idx>},
      {bcoo_avx2<2, 1, Idx>, bcoo_avx2<2, 2, Idx>, bcoo_avx2<2, 4, Idx>},
      {bcoo_avx2<4, 1, Idx>, bcoo_avx2<4, 2, Idx>, bcoo_avx2<4, 4, Idx>},
  };
};

BlockKernelFn avx2_lookup(BlockFormat fmt, IndexWidth idx, int rs, int cs) {
  if (idx == IndexWidth::k16) {
    return fmt == BlockFormat::kBcsr
               ? Avx2Kernels<std::uint16_t>::bcsr[rs][cs]
               : Avx2Kernels<std::uint16_t>::bcoo[rs][cs];
  }
  return fmt == BlockFormat::kBcsr ? Avx2Kernels<std::uint32_t>::bcsr[rs][cs]
                                   : Avx2Kernels<std::uint32_t>::bcoo[rs][cs];
}

#endif  // SPMV_X86

}  // namespace

bool kernel_backend_available(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if defined(SPMV_X86)
      return host_info().has_avx2;
#else
      return false;
#endif
  }
  return false;
}

KernelBackend resolve_kernel_backend(KernelBackend requested) {
  switch (requested) {
    case KernelBackend::kAuto:
    case KernelBackend::kAvx2:
      return kernel_backend_available(KernelBackend::kAvx2)
                 ? KernelBackend::kAvx2
                 : KernelBackend::kScalar;
    case KernelBackend::kScalar:
      return KernelBackend::kScalar;
  }
  return KernelBackend::kScalar;
}

BlockKernelFn simd_block_kernel(KernelBackend backend, BlockFormat fmt,
                                IndexWidth idx, unsigned br, unsigned bc) {
  const int rs = detail::tile_dim_slot(br);
  const int cs = detail::tile_dim_slot(bc);
  if (rs < 0 || cs < 0) return nullptr;
  switch (backend) {
    case KernelBackend::kAvx2:
#if defined(SPMV_X86)
      return avx2_lookup(fmt, idx, rs, cs);
#else
      return nullptr;
#endif
    case KernelBackend::kAuto:
    case KernelBackend::kScalar:
      return nullptr;
  }
  return nullptr;
}

BlockKernelKFn simd_block_kernel_k(KernelBackend backend, BlockFormat fmt,
                                   IndexWidth idx, unsigned br, unsigned bc,
                                   unsigned k) {
  const int rs = detail::tile_dim_slot(br);
  const int cs = detail::tile_dim_slot(bc);
  if (rs < 0 || cs < 0) return nullptr;
  switch (backend) {
    case KernelBackend::kAvx2:
#if defined(SPMV_X86)
      return avx2_lookup_k(fmt, idx, rs, cs, k);
#else
      (void)k;
      return nullptr;
#endif
    case KernelBackend::kAuto:
    case KernelBackend::kScalar:
      return nullptr;
  }
  return nullptr;
}

}  // namespace spmv
