// Math kernels used by the transformer.
//
// All kernels are plain row-major float32 routines. Their key property for
// this reproduction: every kernel computes each output ROW independently and
// with a fixed inner summation order. Row-independence is what makes hybrid
// prefilling exact — running a linear layer on row-chunks produces bitwise
// identical results to running it on the full matrix (§4.2 of the paper),
// and the equivalence tests in tests/model_test.cc assert exactly that.
//
// Determinism contract (ISSUE 1, extended by ISSUE 3): kernels that accept
// a ThreadPool partition work so each output element is OWNED by exactly
// one thread, and the per-element computation (including the k-accumulation
// order of MatMul) depends only on the element's coordinates — never on the
// row-chunk or thread-range boundaries. Results are therefore bitwise
// identical across num_threads ∈ {1, 2, ...} and across row chunk sizes
// WITHIN a kernel backend. The `ops` parameter selects the backend table
// (src/tensor/ops_dispatch.h): nullptr means the process default
// (PREFILLONLY_KERNEL_BACKEND env, else best available). The kScalar
// backend is additionally bitwise equal to the scalar reference kernels in
// ops_ref.h (tests/kernel_parity_test.cc); kAvx2 is tolerance-close to it
// (tests/dispatch_test.cc).
#ifndef SRC_TENSOR_OPS_H_
#define SRC_TENSOR_OPS_H_

#include <cstdint>
#include <span>

#include "src/tensor/ops_dispatch.h"

namespace prefillonly {

class ThreadPool;
struct PackedMatrix;

// c[M,N] = a[M,K] * b[K,N]; c is overwritten. k-accumulation is strictly
// ascending per output element, so row-chunked and threaded calls are
// bitwise identical to one full serial call (within a backend). Rows are
// split across `pool` when given; the m == 1 GEMV shards columns instead.
void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            ThreadPool* pool = nullptr, const KernelOps* ops = nullptr);

// MatMul with B in the panel-major prepacked layout (src/tensor/prepack.h):
// the inner loop does contiguous aligned loads instead of strided
// `b + kk * n` row hops. The m == 1 GEMV shards whole column panels so the
// partition can never split a panel. Requires a backend whose gemm_layout
// is kPacked.
void MatMulPacked(const float* a, const PackedMatrix& b, float* c, int64_t m,
                  ThreadPool* pool = nullptr, const KernelOps* ops = nullptr);

// RMSNorm per row: y = x / sqrt(mean(x^2) + eps) * weight. Row-parallel.
void RmsNormRows(const float* x, const float* weight, float* y, int64_t m, int64_t h,
                 float eps = 1e-5f, ThreadPool* pool = nullptr,
                 const KernelOps* ops = nullptr);

// SwiGLU combine: out = silu(gate) * up, elementwise over count values.
void SiluMul(const float* gate, const float* up, float* out, int64_t count,
             const KernelOps* ops = nullptr);

// SwiGLU over a fused gate-up matrix: gate_up is [m, 2*i] with the gate in
// columns [0, i) and the up-projection in columns [i, 2i); out is [m, i].
// This fused layout matches the single gate_up_proj matmul in production
// engines and is what makes the paper's "intermediate 1" tensor 2x the MLP
// width (28672 floats/token for Llama-3.1-8B, Fig. 4). Row-parallel.
void SwiGluRows(const float* gate_up, float* out, int64_t m, int64_t i,
                ThreadPool* pool = nullptr, const KernelOps* ops = nullptr);

// a += b over count values; each element is touched by exactly one thread.
void AddInPlace(float* a, const float* b, int64_t count, ThreadPool* pool = nullptr,
                const KernelOps* ops = nullptr);

// Rotary position embedding applied in place to a [rows, n_heads*head_dim]
// matrix; positions[i] is the absolute position of row i. Pairs are the
// (x_j, x_{j+d/2}) convention used by Llama. This is the recomputing
// variant kept for callers without a model; the engine's hot path uses the
// precomputed table (src/model/rope_table.h), which is bitwise identical.
// RoPE is NOT backend-dispatched: both backends share one implementation,
// so rotated inputs are bit-equal across backends.
void ApplyRope(float* x, int64_t rows, int64_t n_heads, int64_t head_dim,
               std::span<const int32_t> positions, float theta);

// out[i,:] = table[tokens[i],:] for an [vocab, h] embedding table.
void EmbeddingLookup(const float* table, std::span<const int32_t> tokens, float* out,
                     int64_t h);

}  // namespace prefillonly

#endif  // SRC_TENSOR_OPS_H_
