#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/gpu/activation_model.h"
#include "src/gpu/cost_model.h"
#include "src/gpu/memory_model.h"
#include "src/gpu/specs.h"
#include "src/model/config.h"
#include "src/model/llama.h"
#include "src/tensor/ops_dispatch.h"
#include "src/tensor/tracking_allocator.h"

namespace prefillonly {
namespace {

// ------------------------------------------------------------------ Specs

TEST(SpecsTest, Llama8BMatchesPaperArithmetic) {
  const LlmSpec spec = LlmSpec::Llama31_8B();
  // §2.1: "the KV cache size of a request with 100,000 tokens is around
  // 12 GB for Llama-3.1-8B".
  const double kv_100k = 100000.0 * static_cast<double>(spec.kv_bytes_per_token());
  EXPECT_NEAR(kv_100k / 1e9, 12.8, 1.0);
  // 4 KiB per token per layer (2 * 8 KV heads * 128 dim * 2 bytes).
  EXPECT_EQ(spec.kv_bytes_per_token_layer(), 4096);
  // ~8B parameters, ~16 GB bf16.
  EXPECT_NEAR(static_cast<double>(spec.total_params()) / 1e9, 8.0, 0.3);
  EXPECT_NEAR(spec.weight_bytes() / 1e9, 16.1, 0.5);
}

TEST(SpecsTest, MlpIntermediateRatiosMatchFig4) {
  // Fig. 4: intermediate 1 holds 28672 floats/token (14x one-layer KV),
  // intermediate 2 holds 14336 (7x).
  const LlmSpec spec = LlmSpec::Llama31_8B();
  const int64_t one_layer_kv_floats = 2 * spec.kv_width();  // 2048
  EXPECT_EQ(2 * spec.intermediate, 28672);
  EXPECT_EQ(2 * spec.intermediate / one_layer_kv_floats, 14);
  EXPECT_EQ(spec.intermediate / one_layer_kv_floats, 7);
}

TEST(SpecsTest, Fp8ModelsHalveWeightBytes) {
  const LlmSpec qwen = LlmSpec::Qwen_32B_Fp8();
  EXPECT_NEAR(static_cast<double>(qwen.total_params()) / 1e9, 32.5, 1.0);
  EXPECT_NEAR(qwen.weight_bytes() / 1e9, 32.8, 1.0);  // 1 byte/param
  const LlmSpec llama70 = LlmSpec::Llama33_70B_Fp8();
  EXPECT_NEAR(static_cast<double>(llama70.total_params()) / 1e9, 70.5, 1.0);
}

TEST(SpecsTest, HardwareSetupsMatchTable3) {
  const auto all = HardwareSetup::All();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].llm.name, "Llama-3.1-8B");
  EXPECT_EQ(all[1].llm.name, "Qwen-32B-FP8");
  EXPECT_EQ(all[2].llm.name, "Llama-3.3-70B-FP8");
  EXPECT_EQ(all[3].link.name, "NVLink");
  EXPECT_LT(all[2].link.bandwidth, all[3].link.bandwidth);
}

// -------------------------------------------- Walker == measured (property)
//
// The analytic activation walker must replay the REAL allocator schedule of
// LlamaModel::Prefill exactly: for CPU shapes, the predicted peak equals
// the measured TrackingAllocator peak to the byte. This pins the analytic
// models (Table 2, Fig. 10) to the actually-executed code.

ActivationShape ShapeOf(const ModelConfig& config) {
  ActivationShape s;
  s.n_layers = config.n_layers;
  s.hidden = config.hidden_size;
  s.q_size = config.q_size();
  s.kv_width = config.kv_size();
  s.intermediate = config.intermediate_size;
  s.act_bytes = sizeof(float);
  s.kv_bytes = sizeof(float);
  s.score_bytes = sizeof(float);
  return s;
}

struct WalkerParam {
  PrefillMode mode;
  int64_t chunk;
  bool prealloc;
  bool in_place;
  bool drop_kv;
  int64_t n_tokens;
  int64_t n_cached;
  int64_t budget;  // hybrid retained-prefix budget; <0 = keep all (std/chunked)
};

class WalkerMatchesMeasuredTest : public ::testing::TestWithParam<WalkerParam> {};

void ExpectWalkerMatchesMeasured(const WalkerParam& p, KernelBackend backend) {
  const ModelConfig config = ModelConfig::Tiny();
  LlamaModel model(config, 7, backend);

  Rng rng(p.n_tokens * 31 + p.n_cached);
  std::vector<int32_t> tokens(static_cast<size_t>(p.n_tokens));
  for (auto& t : tokens) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(config.vocab_size)));
  }

  // Cached prefix KV lives in its own allocator so it never pollutes the
  // measured activation peak.
  TrackingAllocator prefix_alloc;
  KvCacheData prefix;
  if (p.n_cached > 0) {
    prefix.n_tokens = p.n_cached;
    prefix.layers.resize(static_cast<size_t>(config.n_layers));
    for (auto& layer : prefix.layers) {
      layer.k = Tensor::Zeros(prefix_alloc, {p.n_cached, config.kv_size()}, "p.k");
      layer.v = Tensor::Zeros(prefix_alloc, {p.n_cached, config.kv_size()}, "p.v");
    }
  }

  PrefillOptions options;
  options.mode = p.mode;
  options.chunk_size = p.chunk;
  options.preallocate_outputs = p.prealloc;
  options.in_place = p.in_place;
  options.drop_kv_in_pass = p.drop_kv;
  if (p.mode == PrefillMode::kHybrid && p.budget >= 0) {
    options.retention = KvRetention::kPrefixBudget;
    options.prefix_budget_tokens = p.budget;
  } else if (p.mode != PrefillMode::kHybrid && !p.drop_kv) {
    options.retention = KvRetention::kAll;
  }

  TrackingAllocator measured;
  auto result = model.Prefill(tokens, p.n_cached > 0 ? &prefix : nullptr, options,
                              measured);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  PassOptions walker;
  walker.strategy = p.mode == PrefillMode::kStandard ? PassStrategy::kStandard
                    : p.mode == PrefillMode::kChunked
                        ? PassStrategy::kChunkedPrefill
                        : PassStrategy::kHybrid;
  walker.chunk = p.chunk;
  walker.preallocate_outputs = p.prealloc;
  walker.in_place = p.in_place;
  walker.drop_kv_in_pass = p.drop_kv;
  const int64_t n_new = p.n_tokens - p.n_cached;
  if (p.mode == PrefillMode::kHybrid && p.budget >= 0) {
    walker.retained_new_tokens =
        std::clamp<int64_t>(p.budget - p.n_cached, 0, n_new);
  }
  const PassPeak predicted =
      SimulatePassMemory(ShapeOf(config), n_new, p.n_cached, walker);

  EXPECT_EQ(static_cast<size_t>(predicted.peak_bytes), measured.peak_bytes())
      << "walker and real allocator disagree";
}

TEST_P(WalkerMatchesMeasuredTest, PeakBytesExactlyEqual) {
  ExpectWalkerMatchesMeasured(GetParam(), KernelBackend::kAuto);
}

// Pinned to avx2: its attention kernel keeps packed K/V and per-head score
// rows in untracked thread-local scratch, so the tracked peak — and the
// walker's prediction of it — must not move on that backend either.
TEST_P(WalkerMatchesMeasuredTest, PeakBytesExactlyEqualOnAvx2) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "host lacks AVX2+FMA; avx2 walker case skipped";
  }
  ExpectWalkerMatchesMeasured(GetParam(), KernelBackend::kAvx2);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, WalkerMatchesMeasuredTest,
    ::testing::Values(
        WalkerParam{PrefillMode::kStandard, 0, true, true, false, 96, 0, -1},
        WalkerParam{PrefillMode::kStandard, 0, true, true, false, 96, 32, -1},
        WalkerParam{PrefillMode::kStandard, 0, true, true, true, 96, 0, -1},
        WalkerParam{PrefillMode::kChunked, 16, true, true, false, 96, 0, -1},
        WalkerParam{PrefillMode::kChunked, 32, true, true, false, 100, 0, -1},
        WalkerParam{PrefillMode::kChunked, 16, true, true, false, 96, 32, -1},
        WalkerParam{PrefillMode::kHybrid, 16, true, true, false, 96, 0, 0},
        WalkerParam{PrefillMode::kHybrid, 16, true, true, false, 96, 0, 48},
        WalkerParam{PrefillMode::kHybrid, 16, true, true, false, 96, 32, 64},
        WalkerParam{PrefillMode::kHybrid, 16, true, false, false, 96, 0, 0},
        WalkerParam{PrefillMode::kHybrid, 16, false, false, false, 96, 0, 0},
        WalkerParam{PrefillMode::kHybrid, 128, true, true, false, 96, 0, 0}),
    [](const ::testing::TestParamInfo<WalkerParam>& info) {
      const auto& p = info.param;
      std::string name = p.mode == PrefillMode::kStandard  ? "Std"
                         : p.mode == PrefillMode::kChunked ? "Chunked"
                                                           : "Hybrid";
      name += 'C';
      name += std::to_string(p.chunk);
      name += 'N';
      name += std::to_string(p.n_tokens);
      name += 'P';
      name += std::to_string(p.n_cached);
      if (p.drop_kv) name += "Drop";
      if (!p.prealloc) name += "NoPre";
      else if (!p.in_place) name += "NoIp";
      if (p.budget >= 0) {
        name += 'B';
        name += std::to_string(p.budget);
      }
      return name;
    });

// ----------------------------------------------------------- Memory model

TEST(MemoryModelTest, MilOrderingMatchesTable2OnAllHardware) {
  for (const auto& hw : HardwareSetup::All()) {
    MemoryModel mem(hw.llm, hw.gpu);
    const int64_t paged = mem.MaxInputLength(EngineKind::kPagedAttention);
    const int64_t chunked = mem.MaxInputLength(EngineKind::kChunkedPrefill);
    const int64_t naive = mem.MaxInputLength(EngineKind::kKvDropNaive);
    const int64_t po = mem.MaxInputLength(EngineKind::kPrefillOnly);
    const int64_t tp = mem.MaxInputLength(EngineKind::kTensorParallel);

    EXPECT_GT(paged, 0) << hw.name;
    EXPECT_GT(chunked, paged) << hw.name;          // §2.5
    EXPECT_LT(chunked, 3 * paged) << hw.name;      // "less than 2x-3x"
    EXPECT_GT(naive, paged) << hw.name;            // §4.1 naive drop helps...
    EXPECT_LT(naive, 3 * paged) << hw.name;        // ...but only marginally
    EXPECT_GE(po, 4 * paged) << hw.name;           // "up to 5x" headline
    EXPECT_GT(po, chunked * 2) << hw.name;
    EXPECT_GT(tp, po / 2) << hw.name;              // TP competitive via 2nd GPU
  }
}

TEST(MemoryModelTest, KvDropNaiveGainIsMarginal) {
  // §4.1: measured 1.6x on L4 + Llama-8B. Allow [1.3, 2.3].
  const auto hw = HardwareSetup::L4_Llama8B();
  MemoryModel mem(hw.llm, hw.gpu);
  const double ratio =
      static_cast<double>(mem.MaxInputLength(EngineKind::kKvDropNaive)) /
      static_cast<double>(mem.MaxInputLength(EngineKind::kPagedAttention));
  EXPECT_GE(ratio, 1.3);
  EXPECT_LE(ratio, 2.3);
}

TEST(MemoryModelTest, MilScalesWithGpuMemory) {
  const LlmSpec llm = LlmSpec::Llama31_8B();
  MemoryModel small(llm, GpuSpec::L4());
  MemoryModel big(llm, GpuSpec::H100_80G());
  EXPECT_GT(big.MaxInputLength(EngineKind::kPagedAttention),
            small.MaxInputLength(EngineKind::kPagedAttention));
}

TEST(MemoryModelTest, MilZeroWhenWeightsDontFit) {
  MemoryModel mem(LlmSpec::Llama33_70B_Fp8(), GpuSpec::L4());  // 70 GB on 24 GB
  EXPECT_EQ(mem.MaxInputLength(EngineKind::kPagedAttention), 0);
  EXPECT_EQ(mem.MaxInputLength(EngineKind::kPrefillOnly), 0);
}

TEST(MemoryModelTest, PeakMonotonicInLength) {
  const auto hw = HardwareSetup::A100_Qwen32B();
  MemoryModel mem(hw.llm, hw.gpu);
  for (EngineKind kind : {EngineKind::kPagedAttention, EngineKind::kChunkedPrefill,
                          EngineKind::kPrefillOnly}) {
    int64_t prev = 0;
    for (int64_t len : {1000, 4000, 16000, 64000}) {
      const int64_t peak = mem.PassPeakBytes(kind, len).peak_bytes;
      EXPECT_GT(peak, prev) << EngineKindName(kind) << " at " << len;
      prev = peak;
    }
  }
}

TEST(MemoryModelTest, CachePoolShrinksWithReserve) {
  const auto hw = HardwareSetup::H100_Llama70B();
  MemoryModel mem(hw.llm, hw.gpu);
  const double small = mem.CachePoolBytesPerGpu(EngineKind::kPrefillOnly, 10000);
  const double large = mem.CachePoolBytesPerGpu(EngineKind::kPrefillOnly, 60000);
  EXPECT_GT(small, large);
  EXPECT_GE(large, 0.0);
}

TEST(MemoryModelTest, ParallelInstancePoolSpansGpus) {
  const auto hw = HardwareSetup::H100_Llama70B();
  MemoryModel mem(hw.llm, hw.gpu);
  // TP splits KV across 2 GPUs: per-instance token capacity uses both.
  const int64_t tp_pool =
      mem.CachePoolTokensPerInstance(EngineKind::kTensorParallel, 60000);
  const int64_t single_pool =
      mem.CachePoolTokensPerInstance(EngineKind::kPrefillOnly, 60000);
  EXPECT_GT(tp_pool, single_pool);
}

TEST(MemoryModelTest, Fig10AblationIsMonotonic) {
  // Fig. 10: chunking < +preallocation < +in-place, all >> vanilla.
  const auto hw = HardwareSetup::A100_Qwen32B();
  auto mil_with = [&](bool prealloc, bool in_place) {
    MemoryModelConfig config;
    config.hybrid_preallocate = prealloc;
    config.hybrid_in_place = in_place;
    MemoryModel mem(hw.llm, hw.gpu, config);
    return mem.MaxInputLength(EngineKind::kPrefillOnly);
  };
  MemoryModel vanilla(hw.llm, hw.gpu);
  const int64_t base = vanilla.MaxInputLength(EngineKind::kPagedAttention);
  const int64_t chunking = mil_with(false, false);
  const int64_t prealloc = mil_with(true, false);
  const int64_t in_place = mil_with(true, true);
  EXPECT_GT(chunking, 3 * base);
  EXPECT_GT(prealloc, chunking);
  EXPECT_GT(in_place, prealloc);
  // Headline: 7.9x vanilla with everything on; allow [6, 12].
  const double ratio = static_cast<double>(in_place) / static_cast<double>(base);
  EXPECT_GE(ratio, 6.0);
  EXPECT_LE(ratio, 12.0);
}

// ------------------------------------------------------------- Cost model

TEST(CostModelTest, PrefillTimeMonotonicInLength) {
  const auto hw = HardwareSetup::L4_Llama8B();
  CostModel cost(hw.llm, hw.gpu);
  double prev = 0;
  for (int64_t n : {512, 2048, 8192, 32768}) {
    const double t = cost.PrefillTime(n, 0, PassStrategy::kHybrid, 2048);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModelTest, CacheHitsReduceTime) {
  const auto hw = HardwareSetup::H100_Llama70B();
  CostModel cost(hw.llm, hw.gpu);
  const double cold = cost.PrefillTime(14000, 0, PassStrategy::kHybrid, 2048);
  const double warm = cost.PrefillTime(300, 13700, PassStrategy::kHybrid, 2048);
  EXPECT_LT(warm, cold / 10);  // hits make requests an order cheaper
}

TEST(CostModelTest, ChunkedPrefillCostsRoughly14Percent) {
  // §2.5: chunking a 20k-token input at 512 lowers throughput by ~14%.
  const auto hw = HardwareSetup::L4_Llama8B();
  CostModel cost(hw.llm, hw.gpu);
  const double standard = cost.PrefillTime(20000, 0, PassStrategy::kStandard, 0);
  const double chunked = cost.PrefillTime(20000, 0, PassStrategy::kChunkedPrefill, 512);
  const double overhead = chunked / standard - 1.0;
  EXPECT_GE(overhead, 0.08);
  EXPECT_LE(overhead, 0.22);
}

TEST(CostModelTest, HybridChunkingIsNearlyFree) {
  // Hybrid chunks only linear layers with large chunks: <2% overhead.
  const auto hw = HardwareSetup::L4_Llama8B();
  CostModel cost(hw.llm, hw.gpu);
  const double standard = cost.PrefillTime(20000, 0, PassStrategy::kStandard, 0);
  const double hybrid = cost.PrefillTime(20000, 0, PassStrategy::kHybrid, 2048);
  EXPECT_LE(hybrid / standard, 1.02);
}

TEST(CostModelTest, TensorParallelAddsCommunication) {
  const auto hw = HardwareSetup::H100_Llama70B();
  CostModel cost(hw.llm, hw.gpu);
  const int64_t n = 50000;
  const double single = cost.PrefillTime(n, 0, PassStrategy::kHybrid, 2048);
  const double tp_pcie = cost.TensorParallelTime(n, 0, 2, LinkSpec::PcieGen5(),
                                                 PassStrategy::kStandard, 0);
  const double tp_nvlink = cost.TensorParallelTime(n, 0, 2, LinkSpec::NvLink(),
                                                   PassStrategy::kStandard, 0);
  // TP reduces latency (2 GPUs), NVLink more than PCIe...
  EXPECT_LT(tp_nvlink, tp_pcie);
  EXPECT_LT(tp_nvlink, single);
  // ...but never reaches the ideal 2x: communication is not free.
  EXPECT_GT(tp_nvlink, single / 2);
  // And per-GPU THROUGHPUT is worse than one unparallelized GPU (Fig. 8):
  // 2 GPUs x tp_time > 1 GPU x single_time per request.
  EXPECT_GT(2 * tp_pcie, single);
}

TEST(CostModelTest, PipelineStageIsAboutHalfThePass) {
  const auto hw = HardwareSetup::H100_Llama70B();
  CostModel cost(hw.llm, hw.gpu);
  const int64_t n = 40000;
  const double full = cost.PrefillTime(n, 0, PassStrategy::kStandard, 0);
  const double stage = cost.PipelineStageTime(n, 0, 2, hw.link,
                                              PassStrategy::kStandard, 0);
  EXPECT_GT(stage, full / 2 * 0.9);
  EXPECT_LT(stage, full);  // half the layers plus handoff
}

TEST(CostModelTest, PrefillVsDecodeMatches15xClaim) {
  // §2.3: 2048-in/256-out is ~1.5x the service demand of 2048-in/1-out
  // (decode amortized over a continuous batch of 64).
  const LlmSpec llm = LlmSpec::Llama31_8B();
  CostModel cost(llm, GpuSpec::H100_80G());
  const double prefill_only = cost.PrefillTime(2048, 0, PassStrategy::kStandard, 0);
  const int batch = 64;
  const double decode_demand = 256.0 * cost.DecodeStepTime(batch) / batch;
  const double ratio = (prefill_only + decode_demand) / prefill_only;
  EXPECT_GE(ratio, 1.25);
  EXPECT_LE(ratio, 1.8);
}

TEST(CostModelTest, DecodeIsMemoryBoundAtSmallBatch) {
  const LlmSpec llm = LlmSpec::Llama31_8B();
  const GpuSpec gpu = GpuSpec::H100_80G();
  CostModel cost(llm, gpu);
  const double step = cost.DecodeStepTime(1);
  EXPECT_GE(step, llm.weight_bytes() / gpu.hbm_bandwidth);
  // Batching barely changes the step until compute catches up.
  EXPECT_LT(cost.DecodeStepTime(32), step * 1.5);
}

TEST(CostModelTest, AttentionFlopsQuadratic) {
  const LlmSpec llm = LlmSpec::Llama31_8B();
  CostModel cost(llm, GpuSpec::H100_80G());
  const double f1 = cost.AttentionFlops(1000, 0);
  const double f2 = cost.AttentionFlops(2000, 0);
  EXPECT_NEAR(f2 / f1, 4.0, 0.1);  // ~quadratic in sequence length
  // Cached tokens still cost key-attention but not query FLOPs.
  EXPECT_LT(cost.AttentionFlops(1000, 1000), f2);
  EXPECT_GT(cost.AttentionFlops(1000, 1000), f1);
}

}  // namespace
}  // namespace prefillonly
