// 16-lane AVX-512F kernels for the kAvx2 bit contract.
//
// kAvx2 names a bit contract, not a vector width: every output element of
// the avx2 backend is a fixed per-lane chain of float ops (ops_avx2.cc
// header), and a fused multiply-add rounds once per lane whatever the
// register holds. So a kernel that issues the same chains over 16 lanes
// reproduces the 8-lane kernels' bits exactly. This TU holds such kernels
// for the three hot slots of the table — packed GEMM, packed GEMV and
// attention_rows — and GetKernelOps(kAvx2) hands out a copy of the 8-lane
// table with those slots replaced when the CPU reports AVX-512F. The
// backend, its name and its golden fingerprints are unchanged;
// KernelParityTest compares the two tables bitwise.
//
// ISA confinement: this TU is built with the default flags, and only the
// functions marked PO_AVX512 (all named Avx512*) may use AVX-512. A
// per-file -mavx512f would also compile the inline and template code this
// TU shares with others (std::vector, std::fill, ...) with EVEX encodings,
// and the linker may keep that copy for the whole program — which would
// then fault on AVX2-only hosts before any cpuid check. CI disassembles
// the library and fails if any function not named Avx512* touches a zmm
// register.
#include "src/tensor/ops_dispatch.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/tensor/prepack.h"

#define PO_AVX512 __attribute__((target("avx512f,avx2,fma")))

namespace prefillonly {

namespace {

constexpr __mmask16 kAllLanes = 0xFFFF;

// Lanes [0, width) of a 16-lane register (all of them when width >= 16).
PO_AVX512 inline __mmask16 Avx512LaneMask(int64_t width) {
  return width >= 16 ? kAllLanes : static_cast<__mmask16>((1u << width) - 1u);
}

// GCC 12's avx512fintrin.h seeds the unmasked forms of these intrinsics
// with a self-initialised register, which -Wmaybe-uninitialized reports
// (GCC bug 105593). The all-lanes masked forms compute the same values and
// compile to the same instructions.
PO_AVX512 inline __m512 Avx512Max(__m512 a, __m512 b) {
  return _mm512_mask_max_ps(a, kAllLanes, a, b);
}
PO_AVX512 inline __m512 Avx512Min(__m512 a, __m512 b) {
  return _mm512_mask_min_ps(a, kAllLanes, a, b);
}
template <int kHalf>
PO_AVX512 inline __m256 Avx512Half(__m512 v) {
  return _mm256_castpd_ps(
      _mm512_mask_extractf64x4_pd(_mm256_setzero_pd(), 0xF, _mm512_castps_pd(v), kHalf));
}

// -------------------------------------------------------------- packed GEMM

// kRows rows x kPanels consecutive panels of c = a * b, b prepacked. Each
// element is one FMA per k step, k ascending from a zero accumulator: the
// chain the 8-lane PackedPanelRow1 and MR=4 tile issue, so neither the tile
// shape nor where a row or panel falls in it can change a bit. Padded
// columns of a partial last panel are computed (they are zero) and masked
// off at the store.
template <int kRows, int kPanels>
PO_AVX512 inline void Avx512PackedTile(const float* __restrict a, const PackedMatrix& bp,
                                       float* __restrict c, int64_t i, int64_t p) {
  const int64_t k = bp.k;
  const int64_t n = bp.n;
  const float* panel[kPanels];
  __mmask16 mask[kPanels];
#pragma GCC unroll 4
  for (int q = 0; q < kPanels; ++q) {
    panel[q] = bp.panel(p + q);
    mask[q] = Avx512LaneMask(n - (p + q) * kPackPanelWidth);
  }
  __m512 acc[kRows][kPanels];
#pragma GCC unroll 6
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < kPanels; ++q) {
      acc[r][q] = _mm512_setzero_ps();
    }
  }
  const float* __restrict a0 = a + i * k;
  for (int64_t kk = 0; kk < k; ++kk) {
    __m512 b[kPanels];
#pragma GCC unroll 4
    for (int q = 0; q < kPanels; ++q) {
      b[q] = _mm512_load_ps(panel[q] + kk * kPackPanelWidth);
    }
#pragma GCC unroll 6
    for (int r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(a0[r * k + kk]);
#pragma GCC unroll 4
      for (int q = 0; q < kPanels; ++q) {
        acc[r][q] = _mm512_fmadd_ps(av, b[q], acc[r][q]);
      }
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < kPanels; ++q) {
      _mm512_mask_storeu_ps(c + (i + r) * n + (p + q) * kPackPanelWidth, mask[q],
                            acc[r][q]);
    }
  }
}

// Rows [i, r1) over panels [p, p + kPanels): 6-row tiles, then one 1-5 row
// tile of the same template for the remainder.
template <int kPanels>
PO_AVX512 inline void Avx512PackedRows(const float* a, const PackedMatrix& bp, float* c,
                                       int64_t i, int64_t r1, int64_t p) {
  for (; i + 6 <= r1; i += 6) {
    Avx512PackedTile<6, kPanels>(a, bp, c, i, p);
  }
  switch (r1 - i) {
    case 5:
      Avx512PackedTile<5, kPanels>(a, bp, c, i, p);
      break;
    case 4:
      Avx512PackedTile<4, kPanels>(a, bp, c, i, p);
      break;
    case 3:
      Avx512PackedTile<3, kPanels>(a, bp, c, i, p);
      break;
    case 2:
      Avx512PackedTile<2, kPanels>(a, bp, c, i, p);
      break;
    case 1:
      Avx512PackedTile<1, kPanels>(a, bp, c, i, p);
      break;
    default:
      break;
  }
}

// Rows [r0, r1) over a prepacked B, two panels (32 columns) per tile:
// 6 x 2 = 12 zmm accumulators, two aligned 64-byte panel rows per k step.
// Panel-pair outer, so the pair stays hot across every row of the range.
PO_AVX512 void Avx512MatMulRowsPacked(const float* a, const PackedMatrix& bp, float* c,
                                      int64_t r0, int64_t r1) {
  const int64_t n_panels = bp.n_panels();
  int64_t p = 0;
  for (; p + 2 <= n_panels; p += 2) {
    Avx512PackedRows<2>(a, bp, c, r0, r1, p);
  }
  if (p < n_panels) {
    Avx512PackedRows<1>(a, bp, c, r0, r1, p);
  }
}

// Column panels [p0, p1) of the single-row product: four panels per step
// keep four independent FMA chains in flight.
PO_AVX512 void Avx512MatMulPanelsPacked(const float* a, const PackedMatrix& bp, float* c,
                                        int64_t p0, int64_t p1) {
  int64_t p = p0;
  for (; p + 4 <= p1; p += 4) {
    Avx512PackedTile<1, 4>(a, bp, c, 0, p);
  }
  switch (p1 - p) {
    case 3:
      Avx512PackedTile<1, 3>(a, bp, c, 0, p);
      break;
    case 2:
      Avx512PackedTile<1, 2>(a, bp, c, 0, p);
      break;
    case 1:
      Avx512PackedTile<1, 1>(a, bp, c, 0, p);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------- attention

// Exp256's op sequence (ops_avx2.cc) on 16 lanes: clamp, Cody-Waite range
// reduction, the same degree-6 polynomial, 2^n by exponent construction.
PO_AVX512 inline __m512 Avx512Exp(__m512 x) {
  const __m512 kHi = _mm512_set1_ps(88.3762626647949f);
  const __m512 kLo = _mm512_set1_ps(-88.3762626647949f);
  x = Avx512Max(Avx512Min(x, kHi), kLo);

  const __m512 kLog2e = _mm512_set1_ps(1.44269504088896341f);
  __m512 fx = _mm512_fmadd_ps(x, kLog2e, _mm512_set1_ps(0.5f));
  fx = _mm512_mask_roundscale_ps(fx, kAllLanes, fx,
                                 _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);

  const __m512 kLn2Hi = _mm512_set1_ps(0.693359375f);
  const __m512 kLn2Lo = _mm512_set1_ps(-2.12194440e-4f);
  x = _mm512_fnmadd_ps(fx, kLn2Hi, x);
  x = _mm512_fnmadd_ps(fx, kLn2Lo, x);

  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  const __m512 x2 = _mm512_mul_ps(x, x);
  y = _mm512_fmadd_ps(y, x2, x);
  y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));

  __m512i n = _mm512_mask_cvttps_epi32(_mm512_setzero_si512(), kAllLanes, fx);
  n = _mm512_add_epi32(n, _mm512_set1_epi32(0x7f));
  n = _mm512_mask_slli_epi32(n, kAllLanes, n, 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(n));
}

// Hsum8 of ops_avx2.cc: (lane i + lane i+4) pairs, then 2+2, then 1+1.
PO_AVX512 inline float Avx512Hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// Avx2SoftmaxRow's bits with 16-lane max, exp and normalise, all
// elementwise or order-free (the max is exact in any order; a ±0 max only
// changes x - max for x = ±0, whose exp is 1 either way). The sum is the
// one order-sensitive step and keeps the 8-lane striped order: each
// 16-block adds its low 8 lanes, then its high 8, into one __m256
// accumulator, exactly as two consecutive 8-blocks; then Hsum8 and the
// scalar tail over n % 8 elements.
PO_AVX512 inline void Avx512SoftmaxRow(float* x, int64_t n) {
  __m512 vmax = _mm512_set1_ps(-__builtin_inff());
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vmax = Avx512Max(vmax, _mm512_loadu_ps(x + i));
  }
  const __mmask16 tail = Avx512LaneMask(n - i);
  if (i < n) {
    vmax = _mm512_mask_max_ps(vmax, tail, vmax, _mm512_maskz_loadu_ps(tail, x + i));
  }
  const __m256 m8 = _mm256_max_ps(Avx512Half<0>(vmax), Avx512Half<1>(vmax));
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(m8), _mm256_extractf128_ps(m8, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 0x1));
  const __m512 vmaxb = _mm512_set1_ps(_mm_cvtss_f32(m4));

  __m256 vsum = _mm256_setzero_ps();
  i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 e = Avx512Exp(_mm512_sub_ps(_mm512_loadu_ps(x + i), vmaxb));
    _mm512_storeu_ps(x + i, e);
    vsum = _mm256_add_ps(vsum, Avx512Half<0>(e));
    vsum = _mm256_add_ps(vsum, Avx512Half<1>(e));
  }
  if (i < n) {
    const __m512 e =
        Avx512Exp(_mm512_sub_ps(_mm512_maskz_loadu_ps(tail, x + i), vmaxb));
    _mm512_mask_storeu_ps(x + i, tail, e);
    if (i + 8 <= n) {
      vsum = _mm256_add_ps(vsum, Avx512Half<0>(e));
      i += 8;
    }
  }
  float sum = Avx512Hsum8(vsum);
  for (; i < n; ++i) {
    sum += x[i];
  }

  const __m512 vinv = _mm512_set1_ps(1.0f / sum);
  i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), vinv));
  }
  if (i < n) {
    _mm512_mask_storeu_ps(x + i, tail,
                          _mm512_mul_ps(_mm512_maskz_loadu_ps(tail, x + i), vinv));
  }
}

// Scores of one query vector (head_dim 16, its 16 values pre-broadcast in
// q) against the 16 keys of one packed block ([16 d][16 keys]), lanes over
// keys. Lane j replays Avx2Dot(q, k_j) at n = 16 exactly — acc0 = q[l] *
// k[l] and acc1 = q[l+8] * k[l+8] as FMAs into zero, t_l = acc0 + acc1,
// Hsum8's tree ((t0+t4) + (t2+t6)) + ((t1+t5) + (t3+t7)) — then the
// composition's * scale.
PO_AVX512 inline __m512 Avx512ScoreBlock(const __m512 (&q)[16], const float* kb,
                                         __m512 scale) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 t[8];
#pragma GCC unroll 8
  for (int l = 0; l < 8; ++l) {
    const __m512 acc0 = _mm512_fmadd_ps(q[l], _mm512_load_ps(kb + l * 16), zero);
    const __m512 acc1 =
        _mm512_fmadd_ps(q[l + 8], _mm512_load_ps(kb + (l + 8) * 16), zero);
    t[l] = _mm512_add_ps(acc0, acc1);
  }
  const __m512 u0 = _mm512_add_ps(t[0], t[4]);
  const __m512 u1 = _mm512_add_ps(t[1], t[5]);
  const __m512 u2 = _mm512_add_ps(t[2], t[6]);
  const __m512 u3 = _mm512_add_ps(t[3], t[7]);
  const __m512 sum = _mm512_add_ps(_mm512_add_ps(u0, u2), _mm512_add_ps(u1, u3));
  return _mm512_mul_ps(sum, scale);
}

// P.V for kRows consecutive query rows x kHeads heads, head_dim 16 (one
// zmm per output vector). out[r][h] is an FMA chain over keys j ascending
// from a zero accumulator, p[r][h][j] * v_j — Avx2Axpy's per-element op.
// Row r attends n_keys0 + r keys, so the second row's extra key is one
// more FMA after the shared loop. Each V load serves every (row, head).
template <int kRows, int kHeads>
PO_AVX512 inline void Avx512WeightedValues(const float* p, int64_t row_stride,
                                           int64_t head_stride, const float* v,
                                           int64_t n_keys0, float* out,
                                           int64_t out_stride) {
  __m512 acc[kRows][kHeads];
#pragma GCC unroll 2
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int h = 0; h < kHeads; ++h) {
      acc[r][h] = _mm512_setzero_ps();
    }
  }
  for (int64_t j = 0; j < n_keys0; ++j) {
    const __m512 vj = _mm512_load_ps(v + j * 16);
#pragma GCC unroll 2
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
      for (int h = 0; h < kHeads; ++h) {
        const __m512 prh = _mm512_set1_ps(p[r * row_stride + h * head_stride + j]);
        acc[r][h] = _mm512_fmadd_ps(prh, vj, acc[r][h]);
      }
    }
  }
  if constexpr (kRows == 2) {
    const __m512 vj = _mm512_load_ps(v + n_keys0 * 16);
#pragma GCC unroll 4
    for (int h = 0; h < kHeads; ++h) {
      const __m512 p1h = _mm512_set1_ps(p[row_stride + h * head_stride + n_keys0]);
      acc[1][h] = _mm512_fmadd_ps(p1h, vj, acc[1][h]);
    }
  }
#pragma GCC unroll 2
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int h = 0; h < kHeads; ++h) {
      _mm512_storeu_ps(out + r * out_stride + h * 16, acc[r][h]);
    }
  }
}

template <int kRows>
PO_AVX512 inline void Avx512WeightedValuesHeads(const float* p, int64_t row_stride,
                                                int64_t head_stride, const float* v,
                                                int64_t n_keys0, float* out,
                                                int64_t out_stride, int64_t n_heads) {
  for (int64_t h = 0; h < n_heads; h += 4) {
    const float* ph = p + h * head_stride;
    float* oh = out + h * 16;
    switch (std::min<int64_t>(4, n_heads - h)) {
      case 4:
        Avx512WeightedValues<kRows, 4>(ph, row_stride, head_stride, v, n_keys0, oh,
                                       out_stride);
        break;
      case 3:
        Avx512WeightedValues<kRows, 3>(ph, row_stride, head_stride, v, n_keys0, oh,
                                       out_stride);
        break;
      case 2:
        Avx512WeightedValues<kRows, 2>(ph, row_stride, head_stride, v, n_keys0, oh,
                                       out_stride);
        break;
      default:
        Avx512WeightedValues<kRows, 1>(ph, row_stride, head_stride, v, n_keys0, oh,
                                       out_stride);
        break;
    }
  }
}

// Per-thread scratch of Avx512AttentionRows, grown to the largest call
// seen: the call's KV head packed (K in 16-key blocks, V one 64-byte row
// per key) and the score rows of two query rows x every head of the call.
struct WideAttentionScratch {
  std::vector<float> k;
  std::vector<float> v;
  std::vector<float> scores;
};

WideAttentionScratch& ThreadWideAttentionScratch() {
  thread_local WideAttentionScratch scratch;
  return scratch;
}

// 64-byte aligned start of `v` grown (never shrunk) to n floats.
float* AlignedAtLeast(std::vector<float>& v, int64_t n) {
  if (v.size() < static_cast<size_t>(n + 16)) {
    v.resize(static_cast<size_t>(n + 16));
  }
  const uintptr_t addr = reinterpret_cast<uintptr_t>(v.data());
  return v.data() + ((64 - addr % 64) % 64) / sizeof(float);
}

// Head_dim 16: keys across the 16 lanes of a score block, then
// Avx512SoftmaxRow per (row, head) and a register-resident P.V over two
// query rows and up to four heads at a time. Every element goes through
// exactly the float ops of Avx2Dot * scale -> Avx2SoftmaxRow -> Avx2Axpy.
PO_AVX512 void Avx512AttentionRows16(const AttentionArgs& args, int64_t r0, int64_t r1,
                                     int64_t h0, int64_t h1) {
  constexpr int64_t kD = 16;
  const int64_t qs = args.n_heads * kD;
  const int64_t kvw = args.n_kv_heads * kD;
  const int64_t kv_col = h0 / (args.n_heads / args.n_kv_heads) * kD;
  const int64_t n_keys_max = args.q_pos0 + r1;
  const int64_t n_blocks = (n_keys_max + 15) / 16;
  const int64_t score_stride = n_blocks * 16;
  const int64_t n_heads = h1 - h0;

  WideAttentionScratch& scratch = ThreadWideAttentionScratch();
  float* kp = AlignedAtLeast(scratch.k, n_blocks * 16 * kD);
  float* vp = AlignedAtLeast(scratch.v, n_keys_max * kD);
  float* scores = AlignedAtLeast(scratch.scores, 2 * n_heads * score_stride);
  std::memset(kp + (n_blocks - 1) * 16 * kD, 0, 16 * kD * sizeof(float));
  ForEachKvRun(args, n_keys_max, [&](int64_t j0, int64_t j1, const float* k_run,
                                      const float* v_run) {
    for (int64_t j = j0; j < j1; ++j) {
      const float* k = k_run + (j - j0) * kvw + kv_col;
      const float* v = v_run + (j - j0) * kvw + kv_col;
      float* kb = kp + (j / 16) * 16 * kD + j % 16;
      for (int64_t d = 0; d < kD; ++d) {
        kb[d * 16] = k[d];
      }
      std::memcpy(vp + j * kD, v, kD * sizeof(float));
    }
  });

  const __m512 scale = _mm512_set1_ps(args.scale);
  const int64_t row_stride = n_heads * score_stride;
  for (int64_t i = r0; i < r1; i += 2) {
    const int64_t rows = std::min<int64_t>(2, r1 - i);
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t n_keys = args.q_pos0 + i + r + 1;
      const int64_t row_blocks = (n_keys + 15) / 16;
      for (int64_t h = 0; h < n_heads; ++h) {
        const float* q = args.q + (i + r) * qs + (h0 + h) * kD;
        __m512 qb[16];
#pragma GCC unroll 16
        for (int d = 0; d < 16; ++d) {
          qb[d] = _mm512_set1_ps(q[d]);
        }
        float* srow = scores + r * row_stride + h * score_stride;
        for (int64_t b = 0; b < row_blocks; ++b) {
          _mm512_store_ps(srow + b * 16, Avx512ScoreBlock(qb, kp + b * 16 * kD, scale));
        }
        Avx512SoftmaxRow(srow, n_keys);
      }
    }
    float* out = args.out + i * qs + h0 * kD;
    const int64_t n_keys0 = args.q_pos0 + i + 1;
    if (rows == 2) {
      Avx512WeightedValuesHeads<2>(scores, row_stride, score_stride, vp, n_keys0, out, qs,
                                   n_heads);
    } else {
      Avx512WeightedValuesHeads<1>(scores, row_stride, score_stride, vp, n_keys0, out, qs,
                                   n_heads);
    }
  }
}

void Avx512AttentionRows(const AttentionArgs& args, int64_t r0, int64_t r1, int64_t h0,
                         int64_t h1, float* scores) {
  if (args.head_dim != 16) {
    // Other widths keep the 8-lane kernel: same bits, no 16-lane tiling.
    GetAvx2KernelOps()->attention_rows(args, r0, r1, h0, h1, scores);
    return;
  }
  if (r0 < r1 && h0 < h1) {
    Avx512AttentionRows16(args, r0, r1, h0, h1);
  }
}

}  // namespace

const KernelOps* GetAvx512KernelOps() {
  static const KernelOps* const ops = []() -> const KernelOps* {
    if (!Avx2Available() || !__builtin_cpu_supports("avx512f")) {
      return nullptr;
    }
    static KernelOps wide = *GetAvx2KernelOps();
    wide.matmul_rows_packed = Avx512MatMulRowsPacked;
    wide.matmul_panels_packed = Avx512MatMulPanelsPacked;
    wide.attention_rows = Avx512AttentionRows;
    return &wide;
  }();
  return ops;
}

}  // namespace prefillonly

#else  // not x86 with GNU target attributes

namespace prefillonly {

const KernelOps* GetAvx512KernelOps() { return nullptr; }

}  // namespace prefillonly

#endif
