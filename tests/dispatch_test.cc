// Tests for the kernel-backend dispatch layer (ISSUE 3).
//
// The two-tier determinism contract (docs/PERFORMANCE.md "Kernel
// backends"):
//
//  * WITHIN a backend: bitwise identical results across thread counts, row
//    chunkings, column partitions, prefill modes, and packed-vs-dense
//    weight layout.
//  * ACROSS backends: tolerance parity against the scalar reference —
//    8-lane FMA accumulation legitimately reorders (and fuses) float adds.
//
// Every avx2-forced case is skipped with a clear message when the host
// lacks AVX2+FMA, so the suite stays green on any machine while the CI
// matrix (PREFILLONLY_KERNEL_BACKEND = scalar / auto) exercises both
// backends end to end where it can.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/model/llama.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_dispatch.h"
#include "src/tensor/ops_ref.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tracking_allocator.h"

namespace prefillonly {
namespace {

#define PO_SKIP_WITHOUT_AVX2()                                            \
  if (!Avx2Available()) {                                                 \
    GTEST_SKIP() << "host lacks AVX2+FMA (or the backend TU was built "   \
                    "without it); avx2 backend cases skipped";            \
  }

std::vector<float> RandomVec(int64_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = rng.NextUniformFloat(scale);
  }
  return v;
}

// |a - b| <= abs_tol + rel_tol * |b| elementwise.
void ExpectClose(const float* a, const float* b, int64_t n, double abs_tol,
                 double rel_tol, const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    const double diff = std::abs(static_cast<double>(a[i]) - b[i]);
    const double bound = abs_tol + rel_tol * std::abs(static_cast<double>(b[i]));
    ASSERT_LE(diff, bound) << what << " diverges at element " << i << ": " << a[i]
                           << " vs " << b[i];
  }
}

// ------------------------------------------------------------------ prepack

TEST(PrepackTest, RoundTripIsBitExact) {
  // Shapes straddle the 16-column panel boundary (n % 16 ∈ {0, odd}).
  for (const auto [k, n] : {std::pair<int64_t, int64_t>{7, 16},
                            {64, 48},
                            {33, 37},
                            {5, 3},
                            {128, 250}}) {
    const auto b = RandomVec(k * n, 1000 + k + n);
    TrackingAllocator alloc;
    const PackedMatrix packed = PackWeights(alloc, b.data(), k, n, "test.pack");
    ASSERT_EQ(packed.k, k);
    ASSERT_EQ(packed.n, n);
    std::vector<float> unpacked(static_cast<size_t>(k * n), -7.0f);
    UnpackWeights(packed, unpacked.data());
    EXPECT_EQ(std::memcmp(b.data(), unpacked.data(), b.size() * sizeof(float)), 0)
        << "k=" << k << " n=" << n;
  }
}

TEST(PrepackTest, PaddedLanesAreZero) {
  const int64_t k = 9;
  const int64_t n = 21;  // last panel holds 5 real + 11 padded columns
  const auto b = RandomVec(k * n, 7);
  TrackingAllocator alloc;
  const PackedMatrix packed = PackWeights(alloc, b.data(), k, n, "test.pack");
  ASSERT_EQ(packed.n_panels(), 2);
  const int64_t last_panel = packed.n_panels() - 1;
  const int64_t first_pad = n - last_panel * kPackPanelWidth;  // real columns
  ASSERT_LT(first_pad, kPackPanelWidth);  // the shape must leave padded lanes
  const float* last = packed.panel(last_panel);
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t lane = first_pad; lane < kPackPanelWidth; ++lane) {
      EXPECT_EQ(last[kk * kPackPanelWidth + lane], 0.0f)
          << "kk=" << kk << " lane=" << lane;
    }
  }
}

// ----------------------------------------------------------------- resolve

TEST(DispatchTest, NamesRoundTrip) {
  for (KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2}) {
    const auto parsed = ParseKernelBackend(KernelBackendName(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(ParseKernelBackend("sse9").has_value());
}

TEST(DispatchTest, ResolutionNeverYieldsAuto) {
  for (KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2}) {
    const KernelBackend resolved = ResolveKernelBackend(b);
    EXPECT_NE(resolved, KernelBackend::kAuto);
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->backend, resolved);
  }
  // Forcing scalar always sticks; forcing avx2 sticks iff available.
  EXPECT_EQ(ResolveKernelBackend(KernelBackend::kScalar), KernelBackend::kScalar);
  EXPECT_EQ(ResolveKernelBackend(KernelBackend::kAvx2),
            Avx2Available() ? KernelBackend::kAvx2 : KernelBackend::kScalar);
}

// ------------------------------------------------------- avx2 kernel parity

TEST(DispatchTest, Avx2MatMulToleranceParityVsReference) {
  PO_SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = GetKernelOps(KernelBackend::kAvx2);
  for (const auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{5, 64, 48},
                               {33, 130, 41},
                               {1, 100, 2048},
                               {128, 512, 96}}) {
    const auto a = RandomVec(m * k, 100 + m);
    const auto b = RandomVec(k * n, 200 + n);
    std::vector<float> want(static_cast<size_t>(m * n));
    ref::MatMul(a.data(), b.data(), want.data(), m, k, n);
    std::vector<float> got(static_cast<size_t>(m * n));
    MatMul(a.data(), b.data(), got.data(), m, k, n, nullptr, avx2);
    // k <= 512 accumulation: generous but tight enough to catch indexing
    // bugs (a wrong element would be off by O(1), not O(1e-4)).
    ExpectClose(got.data(), want.data(), m * n, 1e-4, 1e-4, "avx2 matmul");
  }
}

TEST(DispatchTest, Avx2MatMulBitwiseAcrossThreadsAndChunks) {
  PO_SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = GetKernelOps(KernelBackend::kAvx2);
  const int64_t m = 48, k = 100, n = 37;
  const auto a = RandomVec(m * k, 21);
  const auto b = RandomVec(k * n, 22);
  std::vector<float> full(static_cast<size_t>(m * n));
  MatMul(a.data(), b.data(), full.data(), m, k, n, nullptr, avx2);

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (int64_t chunk : {1, 5, 16, 48}) {
      std::vector<float> chunked(static_cast<size_t>(m * n), -1.0f);
      for (int64_t r0 = 0; r0 < m; r0 += chunk) {
        const int64_t cs = std::min(chunk, m - r0);
        MatMul(a.data() + r0 * k, b.data(), chunked.data() + r0 * n, cs, k, n,
               &pool, avx2);
      }
      EXPECT_EQ(
          std::memcmp(full.data(), chunked.data(), full.size() * sizeof(float)), 0)
          << "threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST(DispatchTest, Avx2PackedMatMulBitwiseMatchesDenseAvx2) {
  PO_SKIP_WITHOUT_AVX2();
  // Dense and packed kernels build the identical per-element FMA chain
  // (ascending k), so the layouts agree BITWISE within the avx2 backend.
  const KernelOps* avx2 = GetKernelOps(KernelBackend::kAvx2);
  for (const auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{9, 40, 23},
                               {48, 100, 64},
                               {1, 64, 250},
                               {130, 64, 96}}) {
    const auto a = RandomVec(m * k, 300 + m);
    const auto b = RandomVec(k * n, 400 + n);
    TrackingAllocator alloc;
    const PackedMatrix packed = PackWeights(alloc, b.data(), k, n, "test.pack");

    std::vector<float> dense(static_cast<size_t>(m * n));
    MatMul(a.data(), b.data(), dense.data(), m, k, n, nullptr, avx2);

    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
      MatMulPacked(a.data(), packed, got.data(), m, &pool, avx2);
      EXPECT_EQ(std::memcmp(dense.data(), got.data(), dense.size() * sizeof(float)),
                0)
          << "m=" << m << " n=" << n << " threads=" << threads;
    }
  }
}

TEST(DispatchTest, Avx2GemvColumnPartitionBitwise) {
  PO_SKIP_WITHOUT_AVX2();
  // The m == 1 path shards columns (dense) / panels (packed) across
  // workers; partition boundaries must not leak into the bits.
  const KernelOps* avx2 = GetKernelOps(KernelBackend::kAvx2);
  const int64_t k = 130, n = 2048 + 5;  // past the 512-column grain, odd tail
  const auto a = RandomVec(k, 51);
  const auto b = RandomVec(k * n, 52);
  TrackingAllocator alloc;
  const PackedMatrix packed = PackWeights(alloc, b.data(), k, n, "test.pack");

  std::vector<float> serial(static_cast<size_t>(n));
  MatMul(a.data(), b.data(), serial.data(), 1, k, n, nullptr, avx2);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::vector<float> dense(static_cast<size_t>(n), -1.0f);
    MatMul(a.data(), b.data(), dense.data(), 1, k, n, &pool, avx2);
    EXPECT_EQ(std::memcmp(serial.data(), dense.data(), serial.size() * sizeof(float)),
              0)
        << "dense threads=" << threads;
    std::vector<float> pk(static_cast<size_t>(n), -1.0f);
    MatMulPacked(a.data(), packed, pk.data(), 1, &pool, avx2);
    EXPECT_EQ(std::memcmp(serial.data(), pk.data(), serial.size() * sizeof(float)), 0)
        << "packed threads=" << threads;
  }
}

TEST(DispatchTest, Avx2RowKernelsToleranceVsRefBitwiseAcrossThreads) {
  PO_SKIP_WITHOUT_AVX2();
  const KernelOps* avx2 = GetKernelOps(KernelBackend::kAvx2);
  const int64_t m = 53, h = 100;  // h % 8 != 0: exercises the scalar tails

  // RMSNorm.
  const auto x = RandomVec(m * h, 61);
  const auto w = RandomVec(h, 62);
  std::vector<float> ref_y(static_cast<size_t>(m * h));
  ref::RmsNormRows(x.data(), w.data(), ref_y.data(), m, h);
  std::vector<float> serial_y(static_cast<size_t>(m * h));
  RmsNormRows(x.data(), w.data(), serial_y.data(), m, h, 1e-5f, nullptr, avx2);
  ExpectClose(serial_y.data(), ref_y.data(), m * h, 1e-5, 1e-5, "avx2 rmsnorm");

  // SwiGLU (vector exp vs std::exp: the loosest cross-backend pairing).
  const auto gate_up = RandomVec(m * 2 * h, 63, 2.0f);
  std::vector<float> ref_s(static_cast<size_t>(m * h));
  ref::SwiGluRows(gate_up.data(), ref_s.data(), m, h);
  std::vector<float> serial_s(static_cast<size_t>(m * h));
  SwiGluRows(gate_up.data(), serial_s.data(), m, h, nullptr, avx2);
  ExpectClose(serial_s.data(), ref_s.data(), m * h, 1e-5, 1e-5, "avx2 swiglu");

  // Softmax: probabilities sum to ~1 and match scalar closely.
  auto row_scalar = RandomVec(101, 64, 4.0f);
  auto row_avx2 = row_scalar;
  GetKernelOps(KernelBackend::kScalar)->softmax_row(row_scalar.data(), 101);
  avx2->softmax_row(row_avx2.data(), 101);
  ExpectClose(row_avx2.data(), row_scalar.data(), 101, 1e-6, 1e-4, "avx2 softmax");

  // Dot / Axpy against scalar.
  const auto va = RandomVec(100, 65);
  const auto vb = RandomVec(100, 66);
  const float d_scalar =
      GetKernelOps(KernelBackend::kScalar)->dot(va.data(), vb.data(), 100);
  const float d_avx2 = avx2->dot(va.data(), vb.data(), 100);
  EXPECT_NEAR(d_avx2, d_scalar, 1e-4);

  // Threaded bitwise invariance for the row-parallel kernels.
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::vector<float> y(static_cast<size_t>(m * h), -1.0f);
    RmsNormRows(x.data(), w.data(), y.data(), m, h, 1e-5f, &pool, avx2);
    EXPECT_EQ(std::memcmp(serial_y.data(), y.data(), y.size() * sizeof(float)), 0)
        << "rmsnorm threads=" << threads;
    std::vector<float> s(static_cast<size_t>(m * h), -1.0f);
    SwiGluRows(gate_up.data(), s.data(), m, h, &pool, avx2);
    EXPECT_EQ(std::memcmp(serial_s.data(), s.data(), s.size() * sizeof(float)), 0)
        << "swiglu threads=" << threads;
  }
}

// --------------------------------------------------------- model end to end

// Logits of one prefill under the given backend / threads / mode.
std::vector<float> PrefillLogits(KernelBackend backend, int threads,
                                 PrefillMode mode) {
  LlamaModel model(ModelConfig::Tiny(), /*seed=*/17, backend);
  ThreadPool pool(threads);
  model.SetThreadPool(&pool);
  Rng rng(5);
  std::vector<int32_t> tokens(150);
  for (auto& t : tokens) {
    t = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(model.config().vocab_size)));
  }
  TrackingAllocator act;
  PrefillOptions options;
  options.mode = mode;
  options.chunk_size = 32;
  auto result = model.Prefill(tokens, nullptr, options, act);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return std::move(result.value().last_logits);
}

TEST(DispatchModelTest, PerBackendLogitsBitwiseAcrossThreadsAndModes) {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  if (Avx2Available()) {
    backends.push_back(KernelBackend::kAvx2);
  }
  for (KernelBackend backend : backends) {
    const std::vector<float> want =
        PrefillLogits(backend, /*threads=*/1, PrefillMode::kStandard);
    for (int threads : {1, 2, 8}) {
      for (PrefillMode mode :
           {PrefillMode::kStandard, PrefillMode::kChunked, PrefillMode::kHybrid}) {
        const std::vector<float> got = PrefillLogits(backend, threads, mode);
        ASSERT_EQ(want.size(), got.size());
        EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
                  0)
            << "backend=" << KernelBackendName(backend) << " threads=" << threads
            << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

TEST(DispatchModelTest, CrossBackendLogitParityWithinTolerance) {
  PO_SKIP_WITHOUT_AVX2();
  const std::vector<float> scalar =
      PrefillLogits(KernelBackend::kScalar, 1, PrefillMode::kHybrid);
  const std::vector<float> avx2 =
      PrefillLogits(KernelBackend::kAvx2, 1, PrefillMode::kHybrid);
  ASSERT_EQ(scalar.size(), avx2.size());
  // Two layers of f32 accumulation divergence; logits are O(1).
  ExpectClose(avx2.data(), scalar.data(), static_cast<int64_t>(scalar.size()),
              5e-3, 5e-3, "cross-backend logits");
}

TEST(DispatchModelTest, PackedImageReplacesDense) {
  const LlamaModel scalar(ModelConfig::Tiny(), 3, KernelBackend::kScalar);
  EXPECT_GT(scalar.weight_bytes(), 0u);
  EXPECT_EQ(scalar.kernel_backend(), KernelBackend::kScalar);
  if (Avx2Available()) {
    const LlamaModel avx2(ModelConfig::Tiny(), 3, KernelBackend::kAvx2);
    EXPECT_EQ(avx2.kernel_backend(), KernelBackend::kAvx2);
    // The packed image replaces the dense one (released after the pack):
    // resident weight memory must NOT double — only panel zero-padding may
    // add a little.
    EXPECT_GE(avx2.weight_bytes(), scalar.weight_bytes());
    EXPECT_LT(avx2.weight_bytes(),
              scalar.weight_bytes() + scalar.weight_bytes() / 5);
  }
}

TEST(DispatchModelTest, GemmLayoutFollowsBackend) {
  // Dense-vs-packed is a per-backend property of the KernelOps table, not a
  // global: the scalar GEMM reads packed panels ~6x slower than dense rows
  // (3.8 vs 23 GFLOP/s), so scalar declares kDense and only the avx2
  // backend asks for the packed image its panel kernel needs.
  EXPECT_EQ(GetKernelOps(KernelBackend::kScalar)->gemm_layout, GemmLayout::kDense);
  EXPECT_EQ(GetKernelOps(KernelBackend::kScalar)->matmul_rows_packed, nullptr);
  EXPECT_EQ(GetKernelOps(KernelBackend::kScalar)->matmul_panels_packed, nullptr);
  if (Avx2Available()) {
    EXPECT_EQ(GetKernelOps(KernelBackend::kAvx2)->gemm_layout, GemmLayout::kPacked);
  }
  // kAuto resolves to a concrete backend and inherits ITS layout choice —
  // there is no path that hands a packed image to the scalar GEMM.
  const KernelOps* resolved = GetKernelOps(KernelBackend::kAuto);
  EXPECT_EQ(resolved->gemm_layout, GetKernelOps(resolved->backend)->gemm_layout);
  EXPECT_EQ(resolved->gemm_layout, resolved->backend == KernelBackend::kAvx2
                                       ? GemmLayout::kPacked
                                       : GemmLayout::kDense);
}

// --------------------------------------------------------- engine end to end

ScoringRequest MakeRequest(const ModelConfig& config) {
  ScoringRequest request;
  Rng rng(23);
  request.tokens.resize(96);
  for (auto& t : request.tokens) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(config.vocab_size)));
  }
  request.allowed_tokens = {1, 2, 3};
  return request;
}

TEST(DispatchEngineTest, EngineHonorsKernelBackendKnob) {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.num_threads = 2;
  options.kernel_backend = KernelBackend::kScalar;
  Engine scalar_engine(options);
  EXPECT_EQ(scalar_engine.model().kernel_backend(), KernelBackend::kScalar);
  auto scalar_response = scalar_engine.ScoreSync(MakeRequest(options.model));
  ASSERT_TRUE(scalar_response.ok());

  if (!Avx2Available()) {
    GTEST_SKIP() << "host lacks AVX2+FMA; cross-backend engine case skipped";
  }
  options.kernel_backend = KernelBackend::kAvx2;
  Engine avx2_engine(options);
  EXPECT_EQ(avx2_engine.model().kernel_backend(), KernelBackend::kAvx2);
  auto avx2_response = avx2_engine.ScoreSync(MakeRequest(options.model));
  ASSERT_TRUE(avx2_response.ok());

  // Same request, same weights: probabilities agree within tolerance.
  const auto& sp = scalar_response.value().probabilities;
  const auto& ap = avx2_response.value().probabilities;
  ASSERT_EQ(sp.size(), ap.size());
  for (size_t i = 0; i < sp.size(); ++i) {
    EXPECT_EQ(sp[i].token, ap[i].token);
    EXPECT_NEAR(sp[i].probability, ap[i].probability, 5e-3);
  }
}

}  // namespace
}  // namespace prefillonly
