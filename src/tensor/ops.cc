// Public kernel API: backend-independent partitioning over the serial inner
// kernels of a KernelOps table (src/tensor/ops_dispatch.h). Threading
// policy (grains, row-vs-column sharding) lives here ONCE; backends only
// provide the range kernels, which is what keeps the within-backend
// determinism contract a property of this file plus the per-element
// discipline of each backend.
#include "src/tensor/ops.h"

#include <cassert>
#include <cstring>

#include "src/common/thread_pool.h"
#include "src/tensor/ops_ref.h"
#include "src/tensor/prepack.h"

namespace prefillonly {

namespace {

inline const KernelOps* Resolve(const KernelOps* ops) {
  return ops != nullptr ? ops : DefaultKernelOps();
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            ThreadPool* pool, const KernelOps* ops) {
  ops = Resolve(ops);
  if (pool == nullptr) {
    ops->matmul_rows(a, b, c, 0, m, k, n);
    return;
  }
  if (m == 1) {
    // Row-parallelism has nothing to split for a single row (the LM-head
    // GEMV — the largest per-request m=1 matrix); shard columns instead.
    pool->ParallelFor(n, /*grain=*/512, [&](int64_t j0, int64_t j1, int /*worker*/) {
      ops->matmul_col_range(a, b, c, k, n, j0, j1);
    });
    return;
  }
  pool->ParallelFor(m, /*grain=*/1, [&](int64_t r0, int64_t r1, int /*worker*/) {
    ops->matmul_rows(a, b, c, r0, r1, k, n);
  });
}

void MatMulPacked(const float* a, const PackedMatrix& b, float* c, int64_t m,
                  ThreadPool* pool, const KernelOps* ops) {
  ops = Resolve(ops);
  assert(ops->gemm_layout == GemmLayout::kPacked);
  if (pool == nullptr) {
    ops->matmul_rows_packed(a, b, c, 0, m);
    return;
  }
  if (m == 1) {
    // Shard whole panels: a partition can then never split the lane group
    // of one panel, so bits don't depend on the worker count.
    pool->ParallelFor(b.n_panels(), /*grain=*/32,
                      [&](int64_t p0, int64_t p1, int /*worker*/) {
                        ops->matmul_panels_packed(a, b, c, p0, p1);
                      });
    return;
  }
  pool->ParallelFor(m, /*grain=*/1, [&](int64_t r0, int64_t r1, int /*worker*/) {
    ops->matmul_rows_packed(a, b, c, r0, r1);
  });
}

void RmsNormRows(const float* x, const float* weight, float* y, int64_t m, int64_t h,
                 float eps, ThreadPool* pool, const KernelOps* ops) {
  ops = Resolve(ops);
  if (pool == nullptr) {
    ops->rmsnorm_rows(x, weight, y, 0, m, h, eps);
    return;
  }
  pool->ParallelFor(m, /*grain=*/4, [&](int64_t r0, int64_t r1, int /*worker*/) {
    ops->rmsnorm_rows(x, weight, y, r0, r1, h, eps);
  });
}

void SiluMul(const float* gate, const float* up, float* out, int64_t count,
             const KernelOps* ops) {
  Resolve(ops)->silu_mul(gate, up, out, count);
}

void SwiGluRows(const float* gate_up, float* out, int64_t m, int64_t i,
                ThreadPool* pool, const KernelOps* ops) {
  ops = Resolve(ops);
  const auto body = [&](int64_t r0, int64_t r1, int /*worker*/) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* gate = gate_up + r * 2 * i;
      const float* up = gate + i;
      ops->silu_mul(gate, up, out + r * i, i);
    }
  };
  if (pool == nullptr) {
    body(0, m, 0);
  } else {
    pool->ParallelFor(m, /*grain=*/2, body);
  }
}

void AddInPlace(float* a, const float* b, int64_t count, ThreadPool* pool,
                const KernelOps* ops) {
  ops = Resolve(ops);
  if (pool == nullptr) {
    ops->add_range(a, b, 0, count);
    return;
  }
  pool->ParallelFor(count, /*grain=*/1 << 14,
                    [&](int64_t i0, int64_t i1, int /*worker*/) {
                      ops->add_range(a, b, i0, i1);
                    });
}

void ApplyRope(float* x, int64_t rows, int64_t n_heads, int64_t head_dim,
               std::span<const int32_t> positions, float theta) {
  // Single implementation of the recomputing path: the retained reference.
  ref::ApplyRope(x, rows, n_heads, head_dim, positions, theta);
}

void EmbeddingLookup(const float* table, std::span<const int32_t> tokens, float* out,
                     int64_t h) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::memcpy(out + static_cast<int64_t>(i) * h, table + tokens[i] * h,
                static_cast<size_t>(h) * sizeof(float));
  }
}

}  // namespace prefillonly
