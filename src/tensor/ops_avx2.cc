// AVX2+FMA kernel backend (ISSUE 3).
//
// Compiled in its own translation unit with -mavx2 -mfma (CMakeLists.txt
// sets the per-file flags); everything else in the library stays baseline
// so the binary still runs on pre-AVX2 hosts — the dispatch layer
// (ops_dispatch.cc) consults cpuid before ever handing out this table.
//
// Determinism discipline, the reason these kernels can honor the
// within-backend bitwise contract (docs/PERFORMANCE.md): every output
// element's value is produced by a fixed op sequence that depends only on
// the element's coordinates and the call shape — never on thread-range or
// row-chunk boundaries. Concretely:
//
//  * GEMM accumulation is one FMA per k step, k strictly ascending, whether
//    the element sits in a 16-wide vector block, an 8-wide block, a scalar
//    tail (__builtin_fmaf — the same fused op, one lane), an MR=4 row
//    micro-kernel or the MR=1 remainder. A row that falls in the MR=4 block
//    of one partition and the MR=1 remainder of another gets identical bits.
//  * Reductions (dot, rmsnorm's sum of squares, softmax's sum) have a fixed
//    lane-striped order determined by the vector length alone.
//  * exp is a single polynomial (Exp256); tails run the same polynomial on
//    a zero-padded vector, so no element ever sees a different exp.
//  * Attention (Avx2AttentionRows) tiles keys across lanes but replays the
//    per-key composition's ops per element: Avx2Dot's reduction tree, the
//    score scale, Avx2SoftmaxRow, Avx2Axpy's ascending-key FMA chain.
//
// Cross-backend, FMA fuses what the scalar backend rounds twice and the
// reductions reassociate — so AVX2 output is tolerance-close to scalar,
// not bit-equal. That trade is the whole point of the two-tier contract.
//
// kAvx2 is a bit contract, served by 8- or 16-lane kernels. These per-lane
// op chains are what the backend promises, not the 8-lane width: on a CPU
// with AVX-512F, GetKernelOps(kAvx2) swaps in the 16-lane packed GEMM,
// packed GEMV and attention_rows of ops_avx512.cc, which issue the same
// chains per element (and keep the softmax sum in the 8-lane striped order
// below, the one step whose order the width would otherwise change). Any
// change to an op sequence here must be mirrored there;
// KernelParityTest.Avx512* memcmp the two tables.
#include "src/tensor/ops_dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/tensor/prepack.h"

namespace prefillonly {

namespace {

// One fused multiply-add on one lane: the scalar-tail twin of
// _mm256_fmadd_ps, so vector blocks and tails build identical per-element
// chains.
inline float Fma1(float a, float b, float c) { return __builtin_fmaf(a, b, c); }

// Fixed-order horizontal sum: (lane i + lane i+4) pairs, then 2+2, then 1+1.
inline float Hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

inline float Hmax8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// 8-lane expf: range reduction x = n*ln2 + r (Cody-Waite two-part ln2),
// degree-6 polynomial on r, scale by 2^n via exponent-field construction.
// ~1 ulp over the clamped range; the clamp keeps 2^n finite.
inline __m256 Exp256(__m256 x) {
  const __m256 kHi = _mm256_set1_ps(88.3762626647949f);
  const __m256 kLo = _mm256_set1_ps(-88.3762626647949f);
  x = _mm256_max_ps(_mm256_min_ps(x, kHi), kLo);

  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  __m256 fx = _mm256_fmadd_ps(x, kLog2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);

  const __m256 kLn2Hi = _mm256_set1_ps(0.693359375f);
  const __m256 kLn2Lo = _mm256_set1_ps(-2.12194440e-4f);
  x = _mm256_fnmadd_ps(fx, kLn2Hi, x);
  x = _mm256_fnmadd_ps(fx, kLn2Lo, x);

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 x2 = _mm256_mul_ps(x, x);
  y = _mm256_fmadd_ps(y, x2, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));

  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

// --------------------------------------------------------------- dense GEMM

// Columns [j0, j1) of one output row: accumulators live in registers across
// the whole k sweep (no c load/store round trip per k step, unlike the
// scalar kernel). Vector blocks and the scalar tail all run one FMA per k,
// ascending — any [j0, j1) split of the same row reproduces the same bits.
void MatMulRowColsAvx2(const float* __restrict a, const float* __restrict b,
                       float* __restrict c, int64_t k, int64_t n, int64_t j0,
                       int64_t j1) {
  int64_t j = j0;
  for (; j + 16 <= j1; j += 16) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    const float* __restrict bj = b + j;
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_broadcast_ss(a + kk);
      const float* __restrict brow = bj + kk * n;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
    }
    _mm256_storeu_ps(c + j, acc0);
    _mm256_storeu_ps(c + j + 8, acc1);
  }
  for (; j + 8 <= j1; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    const float* __restrict bj = b + j;
    for (int64_t kk = 0; kk < k; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a + kk),
                            _mm256_loadu_ps(bj + kk * n), acc);
    }
    _mm256_storeu_ps(c + j, acc);
  }
  for (; j < j1; ++j) {
    float acc = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      acc = Fma1(a[kk], b[kk * n + j], acc);
    }
    c[j] = acc;
  }
}

// MR=4 row blocking amortizes each (strided) b row load over four output
// rows; the remainder rows and the n % 16 column tail reuse
// MatMulRowColsAvx2, whose 16-wide block and tails issue the identical
// per-element FMA chain — so MR grouping is invisible in the bits.
void Avx2MatMulRows(const float* a, const float* b, float* c, int64_t r0,
                    int64_t r1, int64_t k, int64_t n) {
  const int64_t n16 = n - n % 16;
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float* __restrict a0 = a + i * k;
    const float* __restrict a1 = a0 + k;
    const float* __restrict a2 = a1 + k;
    const float* __restrict a3 = a2 + k;
    for (int64_t j = 0; j < n16; j += 16) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      const float* __restrict bj = b + j;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* __restrict brow = bj + kk * n;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_broadcast_ss(a0 + kk);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(a1 + kk);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(a2 + kk);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(a3 + kk);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
      }
      float* __restrict crow = c + i * n + j;
      _mm256_storeu_ps(crow, c00);
      _mm256_storeu_ps(crow + 8, c01);
      _mm256_storeu_ps(crow + n, c10);
      _mm256_storeu_ps(crow + n + 8, c11);
      _mm256_storeu_ps(crow + 2 * n, c20);
      _mm256_storeu_ps(crow + 2 * n + 8, c21);
      _mm256_storeu_ps(crow + 3 * n, c30);
      _mm256_storeu_ps(crow + 3 * n + 8, c31);
    }
    if (n16 < n) {
      for (int64_t r = i; r < i + 4; ++r) {
        MatMulRowColsAvx2(a + r * k, b, c + r * n, k, n, n16, n);
      }
    }
  }
  for (; i < r1; ++i) {
    MatMulRowColsAvx2(a + i * k, b, c + i * n, k, n, 0, n);
  }
}

void Avx2MatMulColRange(const float* a, const float* b, float* c, int64_t k,
                        int64_t n, int64_t j0, int64_t j1) {
  MatMulRowColsAvx2(a, b, c, k, n, j0, j1);
}

// -------------------------------------------------------------- packed GEMM

// Stores a full 16-float panel row, or the first `width` floats of it for
// the zero-padded last panel.
inline void StorePanelRow(float* dst, __m256 v0, __m256 v1, int64_t width) {
  if (width == kPackPanelWidth) {
    _mm256_storeu_ps(dst, v0);
    _mm256_storeu_ps(dst + 8, v1);
    return;
  }
  alignas(32) float tmp[kPackPanelWidth];
  _mm256_store_ps(tmp, v0);
  _mm256_store_ps(tmp + 8, v1);
  std::memcpy(dst, tmp, static_cast<size_t>(width) * sizeof(float));
}

// One row x one panel: the MR=1 micro-kernel. Aligned loads — the packed
// layout makes every k step two consecutive 32-byte loads of one cache
// line.
inline void PackedPanelRow1(const float* __restrict a_row,
                            const float* __restrict panel, float* __restrict c,
                            int64_t k, int64_t width) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* __restrict brow = panel + kk * kPackPanelWidth;
    const __m256 av = _mm256_broadcast_ss(a_row + kk);
    acc0 = _mm256_fmadd_ps(av, _mm256_load_ps(brow), acc0);
    acc1 = _mm256_fmadd_ps(av, _mm256_load_ps(brow + 8), acc1);
  }
  StorePanelRow(c, acc0, acc1, width);
}

// Rows [r0, r1) over a prepacked B. Panel-outer so the k*64-byte panel
// stays hot across all rows; MR=4 register tile amortizes each panel load
// over four rows (8 accumulators + 2 panel vectors in 16 ymm registers).
// The MR=1 remainder issues the exact same per-element FMA chain, so where
// a row lands relative to the r0 + 4*t grid cannot change its bits.
void Avx2MatMulRowsPacked(const float* a, const PackedMatrix& bp, float* c,
                          int64_t r0, int64_t r1) {
  const int64_t k = bp.k;
  const int64_t n = bp.n;
  for (int64_t p = 0; p < bp.n_panels(); ++p) {
    const float* __restrict panel = bp.panel(p);
    const int64_t j0 = p * kPackPanelWidth;
    const int64_t width = std::min(kPackPanelWidth, n - j0);
    int64_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      const float* __restrict a0 = a + i * k;
      const float* __restrict a1 = a0 + k;
      const float* __restrict a2 = a1 + k;
      const float* __restrict a3 = a2 + k;
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* __restrict brow = panel + kk * kPackPanelWidth;
        const __m256 b0 = _mm256_load_ps(brow);
        const __m256 b1 = _mm256_load_ps(brow + 8);
        __m256 av = _mm256_broadcast_ss(a0 + kk);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(a1 + kk);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(a2 + kk);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(a3 + kk);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
      }
      StorePanelRow(c + (i + 0) * n + j0, c00, c01, width);
      StorePanelRow(c + (i + 1) * n + j0, c10, c11, width);
      StorePanelRow(c + (i + 2) * n + j0, c20, c21, width);
      StorePanelRow(c + (i + 3) * n + j0, c30, c31, width);
    }
    for (; i < r1; ++i) {
      PackedPanelRow1(a + i * k, panel, c + i * n + j0, k, width);
    }
  }
}

// Column panels [p0, p1) of the single-row product: the GEMV path.
// Parallelism shards whole panels, so lane grouping is partition-invariant
// by construction.
void Avx2MatMulPanelsPacked(const float* a, const PackedMatrix& bp, float* c,
                            int64_t p0, int64_t p1) {
  const int64_t k = bp.k;
  const int64_t n = bp.n;
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t j0 = p * kPackPanelWidth;
    PackedPanelRow1(a, bp.panel(p), c + j0, k,
                    std::min(kPackPanelWidth, n - j0));
  }
}

// -------------------------------------------------------------- row kernels

void Avx2RmsNormRows(const float* x, const float* weight, float* y, int64_t r0,
                     int64_t r1, int64_t h, float eps) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* __restrict row = x + i * h;
    float* __restrict out = y + i * h;
    __m256 acc = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= h; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      acc = _mm256_fmadd_ps(v, v, acc);
    }
    float ssq = Hsum8(acc);
    for (; j < h; ++j) {
      ssq = Fma1(row[j], row[j], ssq);
    }
    const float scale = 1.0f / std::sqrt(ssq / static_cast<float>(h) + eps);
    const __m256 vscale = _mm256_set1_ps(scale);
    j = 0;
    for (; j + 8 <= h; j += 8) {
      const __m256 scaled = _mm256_mul_ps(_mm256_loadu_ps(row + j), vscale);
      _mm256_storeu_ps(out + j,
                       _mm256_mul_ps(scaled, _mm256_loadu_ps(weight + j)));
    }
    for (; j < h; ++j) {
      out[j] = row[j] * scale * weight[j];
    }
  }
}

inline __m256 SiluVec(__m256 g) {
  const __m256 neg = _mm256_sub_ps(_mm256_setzero_ps(), g);
  const __m256 denom = _mm256_add_ps(_mm256_set1_ps(1.0f), Exp256(neg));
  return _mm256_div_ps(g, denom);
}

void Avx2SiluMul(const float* gate, const float* up, float* out,
                 int64_t count) {
  int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 s = SiluVec(_mm256_loadu_ps(gate + i));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(s, _mm256_loadu_ps(up + i)));
  }
  if (i < count) {
    // Padded tail: the same vector math on a stack buffer, so tail elements
    // see the identical exp/div sequence as full blocks.
    const size_t rest = static_cast<size_t>(count - i);
    alignas(32) float gbuf[8] = {0};
    alignas(32) float ubuf[8] = {0};
    alignas(32) float obuf[8];
    std::memcpy(gbuf, gate + i, rest * sizeof(float));
    std::memcpy(ubuf, up + i, rest * sizeof(float));
    const __m256 s = SiluVec(_mm256_load_ps(gbuf));
    _mm256_store_ps(obuf, _mm256_mul_ps(s, _mm256_load_ps(ubuf)));
    std::memcpy(out + i, obuf, rest * sizeof(float));
  }
}

// noinline: the attention kernel calls this directly, and an inlined copy
// must not become a second, differently optimized softmax.
[[gnu::noinline]] void Avx2SoftmaxRow(float* x, int64_t n) {
  assert(n > 0);
  // Max: exact under any evaluation order, so mixing vector and scalar
  // steps is safe even bitwise.
  float max_val;
  int64_t i;
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
    }
    max_val = Hmax8(vmax);
  } else {
    max_val = x[0];
    i = 1;
  }
  for (; i < n; ++i) {
    max_val = std::max(max_val, x[i]);
  }

  const __m256 vmaxb = _mm256_set1_ps(max_val);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, Exp256(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmaxb)));
  }
  if (i < n) {
    const size_t rest = static_cast<size_t>(n - i);
    alignas(32) float buf[8];
    _mm256_store_ps(buf, vmaxb);  // padding exps to 1.0f; never stored back
    std::memcpy(buf, x + i, rest * sizeof(float));
    _mm256_store_ps(buf, Exp256(_mm256_sub_ps(_mm256_load_ps(buf), vmaxb)));
    std::memcpy(x + i, buf, rest * sizeof(float));
  }

  __m256 vsum = _mm256_setzero_ps();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(x + i));
  }
  float sum = Hsum8(vsum);
  for (; i < n; ++i) {
    sum += x[i];
  }

  const float inv = 1.0f / sum;
  const __m256 vinv = _mm256_set1_ps(inv);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
  }
  for (; i < n; ++i) {
    x[i] *= inv;
  }
}

void Avx2AddRange(float* a, const float* b, int64_t i0, int64_t i1) {
  int64_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    _mm256_storeu_ps(a + i,
                     _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < i1; ++i) {
    a[i] += b[i];
  }
}

float Avx2Dot(const float* a, const float* b, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8),
                           acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float sum = Hsum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    sum = Fma1(a[i], b[i], sum);
  }
  return sum;
}

void Avx2Axpy(float* y, const float* x, float scale, int64_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(vs, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) {
    y[i] = Fma1(scale, x[i], y[i]);
  }
}

// ---------------------------------------------------------------- attention

// Per-thread scratch of Avx2AttentionRows, grown to the largest call seen:
// the call's KV head packed for key-parallel scores, and one score row per
// query head.
struct AttentionScratch {
  std::vector<float> k;       // 8-key blocks, each [head_dim][8]
  std::vector<float> v;       // [n_keys][v_stride], zero-padded columns
  std::vector<float> scores;  // [heads][score_stride]
};

AttentionScratch& ThreadAttentionScratch() {
  thread_local AttentionScratch scratch;
  return scratch;
}

// Grows (never shrinks) `v` to at least n floats.
float* AtLeast(std::vector<float>& v, int64_t n) {
  if (v.size() < static_cast<size_t>(n)) {
    v.resize(static_cast<size_t>(n));
  }
  return v.data();
}

// Scores of one query vector against the 8 keys of one packed block, with
// lanes over keys. Lane j replays Avx2Dot(q, k_j) exactly: the acc0/acc1
// FMA chains over d (16-wide steps, then one 8-wide step into acc0),
// acc0 + acc1, Hsum8's tree ((t0+t4) + (t2+t6)) + ((t1+t5) + (t3+t7)), the
// Fma1 tail — then the * scale the composition applies. kHeadDim > 0 fixes
// head_dim at compile time so the loops unroll into registers; 0 reads it
// at run time.
template <int kHeadDim>
inline __m256 ScoreBlock(const float* q, const float* kb, int64_t head_dim_arg,
                         __m256 scale) {
  const int64_t head_dim = kHeadDim > 0 ? kHeadDim : head_dim_arg;
  const int64_t n16 = head_dim - head_dim % 16;
  const int64_t n8 = head_dim - n16 >= 8 ? n16 + 8 : n16;
  __m256 t[8];
#pragma GCC unroll 8
  for (int64_t l = 0; l < 8; ++l) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (int64_t d = l; d < n16; d += 16) {
      acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(q + d), _mm256_loadu_ps(kb + d * 8),
                             acc0);
      acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(q + d + 8),
                             _mm256_loadu_ps(kb + (d + 8) * 8), acc1);
    }
    if (n8 > n16) {
      acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(q + n16 + l),
                             _mm256_loadu_ps(kb + (n16 + l) * 8), acc0);
    }
    t[l] = _mm256_add_ps(acc0, acc1);
  }
  const __m256 u0 = _mm256_add_ps(t[0], t[4]);
  const __m256 u1 = _mm256_add_ps(t[1], t[5]);
  const __m256 u2 = _mm256_add_ps(t[2], t[6]);
  const __m256 u3 = _mm256_add_ps(t[3], t[7]);
  __m256 sum = _mm256_add_ps(_mm256_add_ps(u0, u2), _mm256_add_ps(u1, u3));
  for (int64_t d = n8; d < head_dim; ++d) {
    sum = _mm256_fmadd_ps(_mm256_broadcast_ss(q + d), _mm256_loadu_ps(kb + d * 8), sum);
  }
  return _mm256_mul_ps(sum, scale);
}

// Stores the first `width` lanes of v (all 8 when width >= 8).
inline void StoreLanes(float* dst, __m256 v, int64_t width) {
  if (width >= 8) {
    _mm256_storeu_ps(dst, v);
    return;
  }
  const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(width)),
                                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  _mm256_maskstore_ps(dst, mask, v);
}

// P.V for kHeads heads of one query row, 16 columns at a time: out_h[d] is
// an FMA chain over keys j ascending from 0, p_h[j] * v_j[d] — Avx2Axpy's
// per-element op, with the accumulator kept in a register instead of
// re-read from memory. Each V load serves every head of the group.
template <int kHeads, int kHeadDim>
void WeightedValues(const float* p, int64_t p_stride, const float* v,
                    int64_t v_stride, int64_t n_keys, float* out,
                    int64_t head_dim_arg) {
  const int64_t head_dim = kHeadDim > 0 ? kHeadDim : head_dim_arg;
  for (int64_t d0 = 0; d0 < head_dim; d0 += 16) {
    __m256 acc0[kHeads];
    __m256 acc1[kHeads];
#pragma GCC unroll 4
    for (int h = 0; h < kHeads; ++h) {
      acc0[h] = _mm256_setzero_ps();
      acc1[h] = _mm256_setzero_ps();
    }
    for (int64_t j = 0; j < n_keys; ++j) {
      const float* vj = v + j * v_stride + d0;
      const __m256 v0 = _mm256_loadu_ps(vj);
      const __m256 v1 = _mm256_loadu_ps(vj + 8);
#pragma GCC unroll 4
      for (int h = 0; h < kHeads; ++h) {
        const __m256 ph = _mm256_broadcast_ss(p + h * p_stride + j);
        acc0[h] = _mm256_fmadd_ps(ph, v0, acc0[h]);
        acc1[h] = _mm256_fmadd_ps(ph, v1, acc1[h]);
      }
    }
#pragma GCC unroll 4
    for (int h = 0; h < kHeads; ++h) {
      float* o = out + h * head_dim + d0;
      StoreLanes(o, acc0[h], head_dim - d0);
      if (d0 + 8 < head_dim) {
        StoreLanes(o + 8, acc1[h], head_dim - d0 - 8);
      }
    }
  }
}

// Keys run across vector lanes: the call's KV head is packed once into
// 8-key blocks ([head_dim][8] each, so one load is one d of 8 keys) and
// every (row, head) of the call scores against it. Then softmax per row
// and a register-resident P.V over all heads of the row. Every element
// goes through exactly the float ops of Avx2Dot * scale -> Avx2SoftmaxRow ->
// Avx2Axpy, so bits are those of the per-key composition.
template <int kHeadDim>
void AttentionRowsImpl(const AttentionArgs& args, int64_t r0, int64_t r1, int64_t h0,
                       int64_t h1) {
  const int64_t head_dim = kHeadDim > 0 ? kHeadDim : args.head_dim;
  const int64_t qs = args.n_heads * head_dim;
  const int64_t kvw = args.n_kv_heads * head_dim;
  const int64_t kv_col = h0 / (args.n_heads / args.n_kv_heads) * head_dim;
  const int64_t n_keys_max = args.q_pos0 + r1;
  const int64_t n_blocks = (n_keys_max + 7) / 8;
  const int64_t v_stride = (head_dim + 15) / 16 * 16;  // whole 16-column steps
  const int64_t score_stride = n_blocks * 8;
  const int64_t n_heads = h1 - h0;

  AttentionScratch& scratch = ThreadAttentionScratch();
  float* kp = AtLeast(scratch.k, n_blocks * 8 * head_dim);
  float* vp = AtLeast(scratch.v, n_keys_max * v_stride);
  float* scores = AtLeast(scratch.scores, n_heads * score_stride);
  std::fill(kp + (n_blocks - 1) * 8 * head_dim, kp + n_blocks * 8 * head_dim, 0.0f);
  ForEachKvRun(args, n_keys_max, [&](int64_t j0, int64_t j1, const float* k_run,
                                      const float* v_run) {
    for (int64_t j = j0; j < j1; ++j) {
      const float* k = k_run + (j - j0) * kvw + kv_col;
      const float* v = v_run + (j - j0) * kvw + kv_col;
      float* kb = kp + (j / 8) * 8 * head_dim + j % 8;
      for (int64_t d = 0; d < head_dim; ++d) {
        kb[d * 8] = k[d];
      }
      float* vj = vp + j * v_stride;
      std::memcpy(vj, v, static_cast<size_t>(head_dim) * sizeof(float));
      std::fill(vj + head_dim, vj + v_stride, 0.0f);
    }
  });

  const __m256 scale = _mm256_set1_ps(args.scale);
  for (int64_t i = r0; i < r1; ++i) {
    const int64_t n_keys = args.q_pos0 + i + 1;
    const int64_t row_blocks = (n_keys + 7) / 8;
    for (int64_t h = 0; h < n_heads; ++h) {
      const float* q = args.q + i * qs + (h0 + h) * head_dim;
      float* srow = scores + h * score_stride;
      for (int64_t b = 0; b < row_blocks; ++b) {
        _mm256_storeu_ps(srow + b * 8, ScoreBlock<kHeadDim>(q, kp + b * 8 * head_dim,
                                                            head_dim, scale));
      }
      Avx2SoftmaxRow(srow, n_keys);
    }
    float* out = args.out + i * qs + h0 * head_dim;
    for (int64_t h = 0; h < n_heads; h += 4) {
      const float* p = scores + h * score_stride;
      float* o = out + h * head_dim;
      switch (std::min<int64_t>(4, n_heads - h)) {
        case 4:
          WeightedValues<4, kHeadDim>(p, score_stride, vp, v_stride, n_keys, o, head_dim);
          break;
        case 3:
          WeightedValues<3, kHeadDim>(p, score_stride, vp, v_stride, n_keys, o, head_dim);
          break;
        case 2:
          WeightedValues<2, kHeadDim>(p, score_stride, vp, v_stride, n_keys, o, head_dim);
          break;
        default:
          WeightedValues<1, kHeadDim>(p, score_stride, vp, v_stride, n_keys, o, head_dim);
          break;
      }
    }
  }
}

void Avx2AttentionRows(const AttentionArgs& args, int64_t r0, int64_t r1, int64_t h0,
                       int64_t h1, float* /*scores*/) {
  if (r0 >= r1 || h0 >= h1) {
    return;
  }
  // head_dim 16 (every preset the benchmarks serve) gets the unrolled
  // instance; other widths run the same code with run-time loop bounds.
  if (args.head_dim == 16) {
    AttentionRowsImpl<16>(args, r0, r1, h0, h1);
  } else {
    AttentionRowsImpl<0>(args, r0, r1, h0, h1);
  }
}

constexpr KernelOps kAvx2Ops = {
    /*backend=*/KernelBackend::kAvx2,
    /*name=*/"avx2",
    /*gemm_layout=*/GemmLayout::kPacked,
    /*matmul_rows=*/Avx2MatMulRows,
    /*matmul_col_range=*/Avx2MatMulColRange,
    /*matmul_rows_packed=*/Avx2MatMulRowsPacked,
    /*matmul_panels_packed=*/Avx2MatMulPanelsPacked,
    /*rmsnorm_rows=*/Avx2RmsNormRows,
    /*silu_mul=*/Avx2SiluMul,
    /*softmax_row=*/Avx2SoftmaxRow,
    /*add_range=*/Avx2AddRange,
    /*dot=*/Avx2Dot,
    /*axpy=*/Avx2Axpy,
    /*attention_rows=*/Avx2AttentionRows,
};

}  // namespace

const KernelOps* GetAvx2KernelOps() { return &kAvx2Ops; }

}  // namespace prefillonly

#else  // !(__AVX2__ && __FMA__)

namespace prefillonly {

// TU built without AVX2 support (non-x86 target or missing -mavx2/-mfma):
// the backend simply does not exist; dispatch falls back to scalar.
const KernelOps* GetAvx2KernelOps() { return nullptr; }

}  // namespace prefillonly

#endif
