#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_dispatch.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tracking_allocator.h"

namespace prefillonly {
namespace {

// ----------------------------------------------------- TrackingAllocator

TEST(TrackingAllocatorTest, TracksCurrentAndPeak) {
  TrackingAllocator alloc;
  void* a = alloc.Allocate(1000, "a");
  void* b = alloc.Allocate(2000, "b");
  EXPECT_EQ(alloc.current_bytes(), 3000u);
  EXPECT_EQ(alloc.peak_bytes(), 3000u);
  alloc.Deallocate(a);
  EXPECT_EQ(alloc.current_bytes(), 2000u);
  EXPECT_EQ(alloc.peak_bytes(), 3000u);  // peak sticks
  alloc.Deallocate(b);
  EXPECT_EQ(alloc.current_bytes(), 0u);
  EXPECT_EQ(alloc.live_allocations(), 0u);
}

TEST(TrackingAllocatorTest, BudgetRejectsOverflow) {
  TrackingAllocator alloc(1024);
  void* a = alloc.Allocate(512, "a");
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(alloc.Allocate(1024, "too big"), nullptr);
  void* b = alloc.Allocate(512, "b");
  EXPECT_NE(b, nullptr);
  EXPECT_EQ(alloc.Allocate(1, "over"), nullptr);
  alloc.Deallocate(a);
  alloc.Deallocate(b);
}

TEST(TrackingAllocatorTest, TimelineRecordsAllocAndFree) {
  TrackingAllocator alloc;
  alloc.EnableTimeline(true);
  void* a = alloc.Allocate(100, "spike");
  alloc.Deallocate(a);
  ASSERT_EQ(alloc.timeline().size(), 2u);
  EXPECT_EQ(alloc.timeline()[0].tag, "spike");
  EXPECT_EQ(alloc.timeline()[0].delta_bytes, 100);
  EXPECT_EQ(alloc.timeline()[1].delta_bytes, -100);
  EXPECT_EQ(alloc.timeline()[1].current_bytes, 0u);
}

TEST(TrackingAllocatorTest, ResetPeak) {
  TrackingAllocator alloc;
  void* a = alloc.Allocate(500, "a");
  alloc.Deallocate(a);
  EXPECT_EQ(alloc.peak_bytes(), 500u);
  alloc.ResetPeak();
  EXPECT_EQ(alloc.peak_bytes(), 0u);
}

// ---------------------------------------------------------------- Tensor

TEST(TensorTest, ZerosIsZeroed) {
  TrackingAllocator alloc;
  Tensor t = Tensor::Zeros(alloc, {4, 8}, "t");
  for (float v : t.span()) {
    EXPECT_EQ(v, 0.0f);
  }
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 8);
  EXPECT_EQ(t.numel(), 32);
  EXPECT_EQ(t.bytes(), 32u * sizeof(float));
}

TEST(TensorTest, MoveTransfersOwnership) {
  TrackingAllocator alloc;
  Tensor a = Tensor::Zeros(alloc, {2, 2}, "a");
  const float* data = a.data();
  Tensor b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(alloc.live_allocations(), 1u);
}

TEST(TensorTest, DestructionReleasesMemory) {
  TrackingAllocator alloc;
  {
    Tensor t = Tensor::Zeros(alloc, {16, 16}, "t");
    EXPECT_GT(alloc.current_bytes(), 0u);
  }
  EXPECT_EQ(alloc.current_bytes(), 0u);
}

TEST(TensorTest, CloneIsDeepCopy) {
  TrackingAllocator alloc;
  Tensor a = Tensor::Zeros(alloc, {2, 2}, "a");
  a.data()[0] = 7.0f;
  Tensor b = a.Clone("b");
  b.data()[0] = 9.0f;
  EXPECT_EQ(a.data()[0], 7.0f);
  EXPECT_EQ(b.data()[0], 9.0f);
}

TEST(TensorTest, TryCreateFailsUnderBudget) {
  TrackingAllocator alloc(64);
  Tensor t = Tensor::TryCreate(alloc, {1024}, "big");
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, UninitAbortsLoudlyOverBudget) {
  // Uninit is the infallible path: budget exhaustion must abort in every
  // build type (the assert it replaced compiled out under -DNDEBUG and the
  // next kernel wrote through nullptr), naming the tag and size.
  EXPECT_DEATH(
      {
        TrackingAllocator alloc(64);
        Tensor t = Tensor::Uninit(alloc, {1024}, "too.big");
      },
      "Tensor::Uninit: allocation 'too.big' of 4096 bytes failed");
}

TEST(TrackingAllocatorTest, ZeroByteAllocationIsAccounted) {
  // A zero-byte request still consumes one 64-byte cache line; the
  // accounting must charge what was actually allocated, or peak/current
  // undercount by a line per empty tensor.
  TrackingAllocator alloc;
  void* p = alloc.Allocate(0, "empty");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(alloc.current_bytes(), 64u);
  EXPECT_EQ(alloc.peak_bytes(), 64u);
  EXPECT_EQ(alloc.live_allocations(), 1u);
  alloc.Deallocate(p);
  EXPECT_EQ(alloc.current_bytes(), 0u);
  EXPECT_EQ(alloc.peak_bytes(), 64u);
}

TEST(TrackingAllocatorTest, ZeroByteAllocationRespectsBudget) {
  TrackingAllocator alloc(100);
  void* p = alloc.Allocate(0, "empty");  // charged 64 of the 100
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(alloc.Allocate(64, "over"), nullptr);
  alloc.Deallocate(p);
  void* q = alloc.Allocate(64, "fits now");
  EXPECT_NE(q, nullptr);
  alloc.Deallocate(q);
}

TEST(TensorTest, RowAccessor) {
  TrackingAllocator alloc;
  Tensor t = Tensor::Zeros(alloc, {3, 4}, "t");
  t.row(2)[1] = 5.0f;
  EXPECT_EQ(t.data()[2 * 4 + 1], 5.0f);
}

// ------------------------------------------------------------------- Ops

TEST(OpsTest, MatMulMatchesNaive) {
  Rng rng(1);
  const int64_t m = 7;
  const int64_t k = 13;
  const int64_t n = 5;
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  for (auto& v : a) {
    v = rng.NextUniformFloat(1.0f);
  }
  for (auto& v : b) {
    v = rng.NextUniformFloat(1.0f);
  }
  std::vector<float> c(m * n);
  MatMul(a.data(), b.data(), c.data(), m, k, n);

  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double expected = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        expected += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      EXPECT_NEAR(c[i * n + j], expected, 1e-4) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(OpsTest, MatMulRowChunkingIsBitwiseIdentical) {
  // The property hybrid prefilling relies on: computing row blocks
  // separately gives EXACTLY the same bits as one full call.
  Rng rng(2);
  const int64_t m = 24;
  const int64_t k = 16;
  const int64_t n = 10;
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  for (auto& v : a) {
    v = rng.NextUniformFloat(1.0f);
  }
  for (auto& v : b) {
    v = rng.NextUniformFloat(1.0f);
  }
  std::vector<float> full(m * n);
  MatMul(a.data(), b.data(), full.data(), m, k, n);

  for (int64_t chunk : {1, 3, 8, 24}) {
    std::vector<float> chunked(m * n);
    for (int64_t r0 = 0; r0 < m; r0 += chunk) {
      const int64_t cs = std::min(chunk, m - r0);
      MatMul(a.data() + r0 * k, b.data(), chunked.data() + r0 * n, cs, k, n);
    }
    EXPECT_EQ(std::memcmp(full.data(), chunked.data(), full.size() * sizeof(float)), 0)
        << "chunk=" << chunk;
  }
}

TEST(OpsTest, SoftmaxRowSumsToOne) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  DefaultKernelOps()->softmax_row(x.data(), 4);
  float sum = 0;
  for (float v : x) {
    EXPECT_GT(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_GT(x[3], x[2]);  // monotone in logits
}

TEST(OpsTest, SoftmaxRowNumericallyStableForLargeValues) {
  std::vector<float> x{1000.0f, 1001.0f};
  DefaultKernelOps()->softmax_row(x.data(), 2);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-6);
}

TEST(OpsTest, RmsNormUnitScale) {
  // Row of constant c: rms = c, so normalized values = weight.
  const int64_t h = 8;
  std::vector<float> x(h, 3.0f);
  std::vector<float> w(h, 2.0f);
  std::vector<float> y(h);
  RmsNormRows(x.data(), w.data(), y.data(), 1, h, 0.0f);
  for (float v : y) {
    EXPECT_NEAR(v, 2.0f, 1e-5);
  }
}

TEST(OpsTest, SiluMulMatchesDefinition) {
  std::vector<float> gate{0.0f, 1.0f, -1.0f};
  std::vector<float> up{2.0f, 2.0f, 2.0f};
  std::vector<float> out(3);
  SiluMul(gate.data(), up.data(), out.data(), 3);
  EXPECT_NEAR(out[0], 0.0f, 1e-6);
  EXPECT_NEAR(out[1], 2.0f / (1.0f + std::exp(-1.0f)), 1e-6);
  EXPECT_NEAR(out[2], -2.0f / (1.0f + std::exp(1.0f)), 1e-6);
}

TEST(OpsTest, SwiGluRowsMatchesUnfused) {
  const int64_t m = 3;
  const int64_t inter = 4;
  Rng rng(4);
  std::vector<float> gate_up(m * 2 * inter);
  for (auto& v : gate_up) {
    v = rng.NextUniformFloat(2.0f);
  }
  std::vector<float> fused(m * inter);
  SwiGluRows(gate_up.data(), fused.data(), m, inter);
  for (int64_t r = 0; r < m; ++r) {
    std::vector<float> expected(inter);
    SiluMul(gate_up.data() + r * 2 * inter, gate_up.data() + r * 2 * inter + inter,
            expected.data(), inter);
    for (int64_t j = 0; j < inter; ++j) {
      EXPECT_EQ(fused[r * inter + j], expected[j]);
    }
  }
}

TEST(OpsTest, RopePreservesNorm) {
  // Rotations preserve vector length per head.
  const int64_t heads = 2;
  const int64_t hd = 8;
  Rng rng(6);
  std::vector<float> x(heads * hd);
  for (auto& v : x) {
    v = rng.NextUniformFloat(1.0f);
  }
  double norm_before = 0;
  for (float v : x) {
    norm_before += static_cast<double>(v) * v;
  }
  std::vector<int32_t> pos{17};
  ApplyRope(x.data(), 1, heads, hd, pos, 10000.0f);
  double norm_after = 0;
  for (float v : x) {
    norm_after += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(norm_before, norm_after, 1e-4);
}

TEST(OpsTest, RopeAtPositionZeroIsIdentity) {
  const int64_t hd = 4;
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> orig = x;
  std::vector<int32_t> pos{0};
  ApplyRope(x.data(), 1, 1, hd, pos, 10000.0f);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], orig[i], 1e-6);
  }
}

TEST(OpsTest, RopeIsPositionDependent) {
  const int64_t hd = 4;
  std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> b = a;
  std::vector<int32_t> pos_a{1};
  std::vector<int32_t> pos_b{2};
  ApplyRope(a.data(), 1, 1, hd, pos_a, 10000.0f);
  ApplyRope(b.data(), 1, 1, hd, pos_b, 10000.0f);
  EXPECT_NE(a[0], b[0]);
}

TEST(OpsTest, EmbeddingLookupCopiesRows) {
  const int64_t h = 4;
  std::vector<float> table(3 * h);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<float>(i);
  }
  std::vector<int32_t> tokens{2, 0};
  std::vector<float> out(2 * h);
  EmbeddingLookup(table.data(), tokens, out.data(), h);
  EXPECT_EQ(out[0], 8.0f);   // row 2 starts at 2*4
  EXPECT_EQ(out[h], 0.0f);   // row 0
}

TEST(OpsTest, DotAndAxpy) {
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{4, 5, 6};
  const KernelOps* ops = DefaultKernelOps();
  EXPECT_EQ(ops->dot(a.data(), b.data(), 3), 32.0f);
  ops->axpy(a.data(), b.data(), 2.0f, 3);
  EXPECT_EQ(a[0], 9.0f);
  EXPECT_EQ(a[2], 15.0f);
}

TEST(OpsTest, AddInPlace) {
  std::vector<float> a{1, 2};
  std::vector<float> b{10, 20};
  AddInPlace(a.data(), b.data(), 2);
  EXPECT_EQ(a[0], 11.0f);
  EXPECT_EQ(a[1], 22.0f);
}

}  // namespace
}  // namespace prefillonly
