#include "src/tensor/ops_dispatch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"

namespace prefillonly {

namespace {

// ------------------------------------------------------------------ scalar
// The PR 1 blocked kernels, verbatim — the parity tests assert these are
// bitwise equal to the seed reference (src/tensor/ops_ref.h) at every
// thread count, so their loop structure must not change casually.

// k-panel height: a [kKc, N] panel of b (kKc * N * 4 bytes; 64KB at N=256)
// is swept once per row of the thread's range and stays in L1/L2 instead of
// streaming the whole of b per row.
constexpr int64_t kKc = 64;

// Computes rows [r0, r1) of c. The per-element accumulation order is
// strictly ascending in k (panels ascending, k ascending inside each panel,
// and the 4-way unroll issues its adds in k order), and depends only on
// (k, kKc) — never on r0/r1 or m — which is what makes row-chunked,
// threaded, and full executions bitwise identical. The unroll exists so the
// compiler keeps the c row in vector registers across four b rows instead
// of doing a load/store round trip per k step.
void ScalarMatMulRows(const float* __restrict a, const float* __restrict b,
                      float* __restrict c, int64_t r0, int64_t r1, int64_t k,
                      int64_t n) {
  for (int64_t i = r0; i < r1; ++i) {
    std::memset(c + i * n, 0, static_cast<size_t>(n) * sizeof(float));
  }
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const int64_t k1 = std::min(k0 + kKc, k);
    for (int64_t i = r0; i < r1; ++i) {
      const float* __restrict a_row = a + i * k;
      float* __restrict c_row = c + i * n;
      int64_t kk = k0;
      for (; kk + 4 <= k1; kk += 4) {
        const float a0 = a_row[kk];
        const float a1 = a_row[kk + 1];
        const float a2 = a_row[kk + 2];
        const float a3 = a_row[kk + 3];
        const float* __restrict b0 = b + kk * n;
        const float* __restrict b1 = b0 + n;
        const float* __restrict b2 = b1 + n;
        const float* __restrict b3 = b2 + n;
        for (int64_t j = 0; j < n; ++j) {
          float acc = c_row[j];
          acc += a0 * b0[j];
          acc += a1 * b1[j];
          acc += a2 * b2[j];
          acc += a3 * b3[j];
          c_row[j] = acc;
        }
      }
      for (; kk < k1; ++kk) {
        const float a_val = a_row[kk];
        const float* __restrict b_row = b + kk * n;
        for (int64_t j = 0; j < n; ++j) {
          c_row[j] += a_val * b_row[j];
        }
      }
    }
  }
}

// Columns [j0, j1) of the single-row product c[1,N] = a[1,K] * b[K,N].
// Same k-panel order and 4-way unroll as ScalarMatMulRows restricted to a
// column range: each c[j] is element-owned with strictly ascending k-adds,
// so any column partition is bitwise identical to the full serial call.
void ScalarMatMulColRange(const float* __restrict a, const float* __restrict b,
                          float* __restrict c, int64_t k, int64_t n, int64_t j0,
                          int64_t j1) {
  std::memset(c + j0, 0, static_cast<size_t>(j1 - j0) * sizeof(float));
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const int64_t k1 = std::min(k0 + kKc, k);
    int64_t kk = k0;
    for (; kk + 4 <= k1; kk += 4) {
      const float a0 = a[kk];
      const float a1 = a[kk + 1];
      const float a2 = a[kk + 2];
      const float a3 = a[kk + 3];
      const float* __restrict b0 = b + kk * n;
      const float* __restrict b1 = b0 + n;
      const float* __restrict b2 = b1 + n;
      const float* __restrict b3 = b2 + n;
      for (int64_t j = j0; j < j1; ++j) {
        float acc = c[j];
        acc += a0 * b0[j];
        acc += a1 * b1[j];
        acc += a2 * b2[j];
        acc += a3 * b3[j];
        c[j] = acc;
      }
    }
    for (; kk < k1; ++kk) {
      const float a_val = a[kk];
      const float* __restrict b_row = b + kk * n;
      for (int64_t j = j0; j < j1; ++j) {
        c[j] += a_val * b_row[j];
      }
    }
  }
}

void ScalarRmsNormRows(const float* x, const float* weight, float* y,
                       int64_t r0, int64_t r1, int64_t h, float eps) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* __restrict row = x + i * h;
    const float* __restrict w = weight;
    float* __restrict out = y + i * h;
    float ssq = 0.0f;
    for (int64_t j = 0; j < h; ++j) {
      ssq += row[j] * row[j];
    }
    const float scale = 1.0f / std::sqrt(ssq / static_cast<float>(h) + eps);
    for (int64_t j = 0; j < h; ++j) {
      out[j] = row[j] * scale * w[j];
    }
  }
}

void ScalarSiluMul(const float* gate, const float* up, float* out,
                   int64_t count) {
  const float* __restrict g_ = gate;
  const float* __restrict u_ = up;
  float* __restrict o_ = out;
  for (int64_t i = 0; i < count; ++i) {
    const float g = g_[i];
    const float silu = g / (1.0f + std::exp(-g));
    o_[i] = silu * u_[i];
  }
}

void ScalarSoftmaxRow(float* x, int64_t n) {
  assert(n > 0);
  float max_val = x[0];
  for (int64_t i = 1; i < n; ++i) {
    max_val = std::max(max_val, x[i]);
  }
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - max_val);
    sum += x[i];
  }
  const float inv = 1.0f / sum;
  for (int64_t i = 0; i < n; ++i) {
    x[i] *= inv;
  }
}

void ScalarAddRange(float* a, const float* b, int64_t i0, int64_t i1) {
  float* __restrict a_ = a;
  const float* __restrict b_ = b;
  for (int64_t i = i0; i < i1; ++i) {
    a_[i] += b_[i];
  }
}

float ScalarDot(const float* a, const float* b, int64_t n) {
  const float* __restrict a_ = a;
  const float* __restrict b_ = b;
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    sum += a_[i] * b_[i];
  }
  return sum;
}

void ScalarAxpy(float* y, const float* x, float scale, int64_t n) {
  float* __restrict y_ = y;
  const float* __restrict x_ = x;
  for (int64_t i = 0; i < n; ++i) {
    y_[i] += scale * x_[i];
  }
}

// One (row, head) at a time through this table's own dot, softmax_row and
// axpy: the composition the attention_rows contract is stated against.
void ScalarAttentionRows(const AttentionArgs& args, int64_t r0, int64_t r1,
                         int64_t h0, int64_t h1, float* scores) {
  const int64_t head_dim = args.head_dim;
  const int64_t qs = args.n_heads * head_dim;
  const int64_t kv_col = h0 / (args.n_heads / args.n_kv_heads) * head_dim;
  for (int64_t i = r0; i < r1; ++i) {
    const int64_t n_keys = args.q_pos0 + i + 1;
    for (int64_t head = h0; head < h1; ++head) {
      const float* q_vec = args.q + i * qs + head * head_dim;
      for (int64_t j = 0; j < n_keys; ++j) {
        const float* k_row = AttentionKvRow(args, /*values=*/false, j) + kv_col;
        scores[j] = ScalarDot(q_vec, k_row, head_dim) * args.scale;
      }
      ScalarSoftmaxRow(scores, n_keys);
      float* o_vec = args.out + i * qs + head * head_dim;
      std::memset(o_vec, 0, static_cast<size_t>(head_dim) * sizeof(float));
      for (int64_t j = 0; j < n_keys; ++j) {
        const float* v_row = AttentionKvRow(args, /*values=*/true, j) + kv_col;
        ScalarAxpy(o_vec, v_row, scores[j], head_dim);
      }
    }
  }
}

constexpr KernelOps kScalarOps = {
    /*backend=*/KernelBackend::kScalar,
    /*name=*/"scalar",
    /*gemm_layout=*/GemmLayout::kDense,
    /*matmul_rows=*/ScalarMatMulRows,
    /*matmul_col_range=*/ScalarMatMulColRange,
    // No packed kernels: the scalar layout policy is kDense.
    /*matmul_rows_packed=*/nullptr,
    /*matmul_panels_packed=*/nullptr,
    /*rmsnorm_rows=*/ScalarRmsNormRows,
    /*silu_mul=*/ScalarSiluMul,
    /*softmax_row=*/ScalarSoftmaxRow,
    /*add_range=*/ScalarAddRange,
    /*dot=*/ScalarDot,
    /*axpy=*/ScalarAxpy,
    /*attention_rows=*/ScalarAttentionRows,
};

bool CpuSupportsAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

bool Avx2Available() {
  return GetAvx2KernelOps() != nullptr && CpuSupportsAvx2Fma();
}

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<KernelBackend> ParseKernelBackend(std::string_view name) {
  if (name == "auto") {
    return KernelBackend::kAuto;
  }
  if (name == "scalar") {
    return KernelBackend::kScalar;
  }
  if (name == "avx2") {
    return KernelBackend::kAvx2;
  }
  return std::nullopt;
}

KernelBackend ResolveKernelBackend(KernelBackend requested) {
  if (requested == KernelBackend::kAuto) {
    if (const char* env = std::getenv("PREFILLONLY_KERNEL_BACKEND")) {
      const auto parsed = ParseKernelBackend(env);
      if (parsed.has_value()) {
        requested = *parsed;
      } else {
        PO_LOG_WARNING << "unrecognized PREFILLONLY_KERNEL_BACKEND='" << env
                       << "' (want auto|scalar|avx2); using auto";
      }
    }
  }
  if (requested == KernelBackend::kAuto) {
    return Avx2Available() ? KernelBackend::kAvx2 : KernelBackend::kScalar;
  }
  if (requested == KernelBackend::kAvx2 && !Avx2Available()) {
    PO_LOG_WARNING << "kernel backend avx2 requested but unavailable on this "
                      "host; falling back to scalar";
    return KernelBackend::kScalar;
  }
  return requested;
}

const KernelOps* GetKernelOps(KernelBackend backend) {
  switch (ResolveKernelBackend(backend)) {
    case KernelBackend::kAvx2: {
      if (const KernelOps* wide = GetAvx512KernelOps()) {
        return wide;  // same contract and bits, 16 lanes
      }
      const KernelOps* avx2 = GetAvx2KernelOps();
      assert(avx2 != nullptr);  // ResolveKernelBackend guaranteed availability
      return avx2;
    }
    case KernelBackend::kScalar:
    case KernelBackend::kAuto:  // unreachable: Resolve never returns kAuto
      break;
  }
  return &kScalarOps;
}

const KernelOps* DefaultKernelOps() {
  static const KernelOps* const ops = GetKernelOps(KernelBackend::kAuto);
  return ops;
}

}  // namespace prefillonly
