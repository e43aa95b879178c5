// Runtime kernel-backend dispatch (ISSUE 3).
//
// The tensor layer has one public API (src/tensor/ops.h) and several
// implementations of the serial inner kernels behind it:
//
//   * kScalar — the PR 1 cache-blocked scalar loops, bit-identical to the
//     seed reference (src/tensor/ops_ref.h). Always available.
//   * kAvx2   — explicit AVX2+FMA intrinsics (src/tensor/ops_avx2.cc,
//     compiled in its own TU with -mavx2 -mfma), plus packed-weight GEMM
//     kernels over the panel-major layout of src/tensor/prepack.h.
//     Available when the TU was built with AVX2 support AND the CPU
//     reports AVX2+FMA at runtime.
//
// A backend is a table of function pointers over SERIAL range kernels; all
// threading/partitioning stays in ops.cc, shared by every backend. That is
// what keeps the determinism contract two-tier (docs/PERFORMANCE.md):
//
//   * WITHIN a backend, results are bitwise identical across thread counts,
//     row chunkings, partition widths and prefill modes — every backend's
//     per-element computation (including the AVX2 kernels' FMA chains)
//     depends only on the element's coordinates, with k strictly ascending,
//     never on range boundaries.
//   * ACROSS backends, parity is tolerance-based: 8-lane FMA accumulation
//     legitimately reorders (and fuses) float operations, so kAvx2 output
//     is close to — not bit-equal with — kScalar output.
//
// Selection: EngineOptions::kernel_backend, or the
// PREFILLONLY_KERNEL_BACKEND environment variable ("auto", "scalar",
// "avx2") for the process default; kAuto resolves env first, then picks the
// best available backend. Forcing kAvx2 on a host without AVX2 falls back
// to kScalar with a logged warning.
#ifndef SRC_TENSOR_OPS_DISPATCH_H_
#define SRC_TENSOR_OPS_DISPATCH_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace prefillonly {

struct PackedMatrix;

enum class KernelBackend {
  kAuto,    // env override, else best available
  kScalar,  // PR 1 blocked scalar kernels (reference-exact)
  kAvx2,    // AVX2+FMA intrinsics + prepacked weights
};

// Which weight layout a backend's GEMM wants. This is a PER-BACKEND policy,
// not a global switch: the panel-major prepack is what lets the AVX2
// kernels stream weights at unit stride (66 vs 51 GFLOP/s in
// BENCH_kernels.json), but the same layout defeats the scalar backend's
// cache blocking (3.8 vs 23 GFLOP/s — 6x slower). LlamaModel keeps each
// weight matrix in exactly the layout its backend's policy names, so the
// slow combination is unreachable by construction.
enum class GemmLayout {
  kDense,   // row-major, read in place (scalar's blocked loops)
  kPacked,  // panel-major prepack of src/tensor/prepack.h (AVX2 kernels)
};

// Operands of one causal grouped-query attention pass (KernelOps::
// attention_rows). Query row i sits at absolute position q_pos0 + i and
// attends keys [0, q_pos0 + i]; key/value position p < n_prefix is row p of
// k_prefix/v_prefix, position p >= n_prefix is row p - n_prefix of
// k_new/v_new. q and out rows are n_heads * head_dim wide, K/V rows
// n_kv_heads * head_dim; query head h reads KV head h / (n_heads /
// n_kv_heads).
struct AttentionArgs {
  const float* q;
  float* out;
  const float* k_prefix;  // null when n_prefix == 0
  const float* v_prefix;
  const float* k_new;
  const float* v_new;
  int64_t n_prefix;
  int64_t q_pos0;
  int64_t n_heads;
  int64_t n_kv_heads;
  int64_t head_dim;
  float scale;  // multiplies every q.k score (1 / sqrt(head_dim))
};

// Serial inner kernels of one backend. Range arguments ([r0, r1), [j0, j1),
// [i0, i1), [p0, p1), [h0, h1)) come from the partitioning wrappers in
// ops.cc and LlamaModel::Attention; every implementation must compute each
// output element identically for every possible range split (the
// within-backend determinism contract above).
struct KernelOps {
  KernelBackend backend;
  const char* name;
  // Dense-vs-packed weight layout for MatMul over this backend (see
  // GemmLayout above; LlamaModel packs each weight matrix at load time iff
  // the policy says kPacked).
  GemmLayout gemm_layout;

  // c rows [r0, r1) of c[M,N] = a[M,K] * b[K,N], b row-major.
  void (*matmul_rows)(const float* a, const float* b, float* c, int64_t r0,
                      int64_t r1, int64_t k, int64_t n);
  // Columns [j0, j1) of the single-row product c[1,N] = a[1,K] * b[K,N].
  void (*matmul_col_range)(const float* a, const float* b, float* c, int64_t k,
                           int64_t n, int64_t j0, int64_t j1);
  // c rows [r0, r1) with b in prepacked panel-major layout.
  void (*matmul_rows_packed)(const float* a, const PackedMatrix& b, float* c,
                             int64_t r0, int64_t r1);
  // Column panels [p0, p1) of the single-row product, b prepacked (the
  // GEMV path: parallelism shards panels, never splits one).
  void (*matmul_panels_packed)(const float* a, const PackedMatrix& b, float* c,
                               int64_t p0, int64_t p1);
  // RMSNorm of rows [r0, r1): y = x / sqrt(mean(x^2) + eps) * weight.
  void (*rmsnorm_rows)(const float* x, const float* weight, float* y,
                       int64_t r0, int64_t r1, int64_t h, float eps);
  // out = silu(gate) * up elementwise over count values.
  void (*silu_mul)(const float* gate, const float* up, float* out,
                   int64_t count);
  // Numerically stable in-place softmax of one row of n values.
  void (*softmax_row)(float* x, int64_t n);
  // a[i] += b[i] for i in [i0, i1).
  void (*add_range)(float* a, const float* b, int64_t i0, int64_t i1);
  // Dot product of two length-n vectors.
  float (*dot)(const float* a, const float* b, int64_t n);
  // y += scale * x over n values.
  void (*axpy)(float* y, const float* x, float scale, int64_t n);
  // Attention for query rows [r0, r1) x query heads [h0, h1), all of which
  // share one KV head. Each (row, head) output must be BITWISE the
  // composition of this table's own kernels: scores[j] = dot(q, k_j) *
  // scale for keys j ascending, softmax_row(scores, n_keys), then out =
  // 0 followed by axpy(out, v_j, scores[j]) for j ascending. Tiling is
  // free; the per-element float operations are not. `scores` is a scratch
  // row of at least q_pos0 + r1 floats; a backend that needs more scratch
  // (packed K/V, one score row per head) keeps it thread-local and
  // untracked, no larger than one KV head's keys and values plus one score
  // row per head of the largest call the thread has run.
  void (*attention_rows)(const AttentionArgs& args, int64_t r0, int64_t r1,
                         int64_t h0, int64_t h1, float* scores);
};

// True when the AVX2 backend can run here: the TU was compiled with AVX2
// support and the CPU reports AVX2 + FMA. Tests use this to skip
// avx2-forced cases with a clear message on older hosts.
bool Avx2Available();

// Resolves kAuto (env override, then best available) and downgrades an
// unavailable explicit choice to kScalar with a logged warning. Never
// returns kAuto.
KernelBackend ResolveKernelBackend(KernelBackend requested);

// Table for a (possibly unresolved) backend choice; never null.
const KernelOps* GetKernelOps(KernelBackend backend);

// Process-default table: GetKernelOps(kAuto), resolved once and cached.
// Kernel calls that pass ops == nullptr use this.
const KernelOps* DefaultKernelOps();

// "auto" / "scalar" / "avx2".
const char* KernelBackendName(KernelBackend backend);
std::optional<KernelBackend> ParseKernelBackend(std::string_view name);

// Implemented in ops_avx2.cc; null when that TU was built without AVX2
// support (non-x86 target or compiler lacking -mavx2/-mfma).
const KernelOps* GetAvx2KernelOps();

}  // namespace prefillonly

#endif  // SRC_TENSOR_OPS_DISPATCH_H_
