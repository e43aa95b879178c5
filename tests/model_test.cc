#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/config.h"
#include "src/model/kv.h"
#include "src/model/llama.h"
#include "src/model/sampler.h"
#include "src/tensor/tracking_allocator.h"

namespace prefillonly {
namespace {

std::vector<int32_t> MakeTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> tokens(static_cast<size_t>(n));
  for (auto& t : tokens) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vocab)));
  }
  return tokens;
}

const LlamaModel& TinyModel() {
  static const LlamaModel* model = new LlamaModel(ModelConfig::Tiny(), /*seed=*/7);
  return *model;
}

PrefillResult MustPrefill(const LlamaModel& model, std::span<const int32_t> tokens,
                          const KvCacheData* prefix, const PrefillOptions& options,
                          TrackingAllocator& act) {
  auto result = model.Prefill(tokens, prefix, options, act);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.take();
}

// ------------------------------------------------------------ Equivalence
//
// The paper's central correctness claim (§4.2): hybrid prefilling "will not
// change the LLM inference results". Because every linear layer is
// row-independent and the attention/accumulation order is fixed, the three
// execution strategies must agree BITWISE, for any chunk size.

struct EquivalenceParam {
  PrefillMode mode;
  int64_t chunk;
  PrefillAblation ablation;
};

class PrefillEquivalenceTest : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(PrefillEquivalenceTest, MatchesStandardBitwise) {
  const auto& model = TinyModel();
  const auto param = GetParam();
  const auto tokens = MakeTokens(97, model.config().vocab_size, 11);

  TrackingAllocator act_ref;
  PrefillOptions reference;
  reference.mode = PrefillMode::kStandard;
  const auto expected = MustPrefill(model, tokens, nullptr, reference, act_ref);

  TrackingAllocator act;
  PrefillOptions options;
  options.mode = param.mode;
  options.chunk_size = param.chunk;
  options.ablation = param.ablation;
  const auto got = MustPrefill(model, tokens, nullptr, options, act);

  ASSERT_EQ(expected.last_logits.size(), got.last_logits.size());
  EXPECT_EQ(std::memcmp(expected.last_logits.data(), got.last_logits.data(),
                        expected.last_logits.size() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndChunks, PrefillEquivalenceTest,
    ::testing::Values(
        EquivalenceParam{PrefillMode::kHybrid, 1, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kHybrid, 7, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kHybrid, 16, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kHybrid, 64, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kHybrid, 97, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kHybrid, 128, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kHybrid, 16, PrefillAblation::kNoInPlace},
        EquivalenceParam{PrefillMode::kHybrid, 16, PrefillAblation::kNoPreallocate},
        EquivalenceParam{PrefillMode::kChunked, 1, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kChunked, 13, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kChunked, 64, PrefillAblation::kNone},
        EquivalenceParam{PrefillMode::kChunked, 97, PrefillAblation::kNone}),
    [](const ::testing::TestParamInfo<EquivalenceParam>& info) {
      const auto& p = info.param;
      std::string name = p.mode == PrefillMode::kHybrid ? "Hybrid" : "Chunked";
      name += "Chunk" + std::to_string(p.chunk);
      if (p.ablation == PrefillAblation::kNoPreallocate) {
        name += "NoPrealloc";
      } else if (p.ablation == PrefillAblation::kNoInPlace) {
        name += "NoInPlace";
      }
      return name;
    });

TEST(PrefillEquivalenceSweep, SmallModelManyLengths) {
  LlamaModel model(ModelConfig::Tiny(), 99);
  for (int64_t len : {1, 2, 31, 32, 33, 64}) {
    const auto tokens = MakeTokens(len, model.config().vocab_size, 100 + len);
    TrackingAllocator a1;
    TrackingAllocator a2;
    PrefillOptions standard;
    standard.mode = PrefillMode::kStandard;
    PrefillOptions hybrid;
    hybrid.mode = PrefillMode::kHybrid;
    hybrid.chunk_size = 16;
    const auto e = MustPrefill(model, tokens, nullptr, standard, a1);
    const auto g = MustPrefill(model, tokens, nullptr, hybrid, a2);
    EXPECT_EQ(std::memcmp(e.last_logits.data(), g.last_logits.data(),
                          e.last_logits.size() * sizeof(float)),
              0)
        << "len=" << len;
  }
}

// ------------------------------------------------------ Prefix cache reuse

TEST(PrefixReuseTest, CachedPrefixGivesIdenticalLogits) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(80, model.config().vocab_size, 21);

  // Full pass, keep all KV.
  TrackingAllocator act;
  PrefillOptions keep_all;
  keep_all.mode = PrefillMode::kHybrid;
  keep_all.chunk_size = 16;
  keep_all.retention = KvRetention::kAll;
  const auto full = MustPrefill(model, tokens, nullptr, keep_all, act);
  ASSERT_EQ(full.kv.n_tokens, 80);

  // Reuse the first 48 tokens as a cached prefix; logits must not change.
  TrackingAllocator act2;
  KvCacheData prefix = SliceKv(full.kv, 48, act2);
  PrefillOptions options;
  options.mode = PrefillMode::kHybrid;
  options.chunk_size = 16;
  const auto cached = MustPrefill(model, tokens, &prefix, options, act2);
  EXPECT_EQ(cached.n_new, 32);
  EXPECT_EQ(std::memcmp(full.last_logits.data(), cached.last_logits.data(),
                        full.last_logits.size() * sizeof(float)),
            0);
}

TEST(PrefixReuseTest, EveryPrefixSplitAgrees) {
  LlamaModel model(ModelConfig::Tiny(), 3);
  const auto tokens = MakeTokens(40, model.config().vocab_size, 33);
  TrackingAllocator act;
  PrefillOptions keep_all;
  keep_all.retention = KvRetention::kAll;
  keep_all.mode = PrefillMode::kStandard;
  const auto full = MustPrefill(model, tokens, nullptr, keep_all, act);

  for (int64_t split : {1, 8, 20, 39}) {
    TrackingAllocator act2;
    KvCacheData prefix = SliceKv(full.kv, split, act2);
    PrefillOptions options;
    options.mode = PrefillMode::kHybrid;
    options.chunk_size = 8;
    const auto got = MustPrefill(model, tokens, &prefix, options, act2);
    EXPECT_EQ(std::memcmp(full.last_logits.data(), got.last_logits.data(),
                          full.last_logits.size() * sizeof(float)),
              0)
        << "split=" << split;
  }
}

// ------------------------------------------------------- Retention policy

TEST(RetentionTest, NoneKeepsNothing) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(32, model.config().vocab_size, 41);
  TrackingAllocator act;
  PrefillOptions options;
  options.retention = KvRetention::kNone;
  const auto result = MustPrefill(model, tokens, nullptr, options, act);
  EXPECT_TRUE(result.kv.empty());
}

TEST(RetentionTest, PrefixBudgetKeepsExactlyBudget) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(64, model.config().vocab_size, 43);
  TrackingAllocator act;
  PrefillOptions options;
  options.mode = PrefillMode::kHybrid;
  options.retention = KvRetention::kPrefixBudget;
  options.prefix_budget_tokens = 24;
  const auto result = MustPrefill(model, tokens, nullptr, options, act);
  EXPECT_EQ(result.kv.n_tokens, 24);
  EXPECT_EQ(result.kv_start, 0);
}

TEST(RetentionTest, SuffixDiscardedKvMatchesFullKv) {
  // The retained prefix KV must be byte-identical to the same rows of a
  // full-retention pass: discarding the suffix must not perturb the prefix.
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(48, model.config().vocab_size, 45);

  TrackingAllocator a1;
  PrefillOptions keep_all;
  keep_all.mode = PrefillMode::kHybrid;
  keep_all.retention = KvRetention::kAll;
  const auto full = MustPrefill(model, tokens, nullptr, keep_all, a1);

  TrackingAllocator a2;
  PrefillOptions budget;
  budget.mode = PrefillMode::kHybrid;
  budget.retention = KvRetention::kPrefixBudget;
  budget.prefix_budget_tokens = 16;
  const auto partial = MustPrefill(model, tokens, nullptr, budget, a2);

  ASSERT_EQ(partial.kv.n_tokens, 16);
  for (size_t l = 0; l < partial.kv.layers.size(); ++l) {
    EXPECT_EQ(std::memcmp(partial.kv.layers[l].k.data(), full.kv.layers[l].k.data(),
                          partial.kv.layers[l].k.bytes()),
              0);
    EXPECT_EQ(std::memcmp(partial.kv.layers[l].v.data(), full.kv.layers[l].v.data(),
                          partial.kv.layers[l].v.bytes()),
              0);
  }
}

TEST(RetentionTest, BudgetBeyondLengthClampsToAll) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(20, model.config().vocab_size, 47);
  TrackingAllocator act;
  PrefillOptions options;
  options.mode = PrefillMode::kHybrid;
  options.retention = KvRetention::kPrefixBudget;
  options.prefix_budget_tokens = 10000;
  const auto result = MustPrefill(model, tokens, nullptr, options, act);
  EXPECT_EQ(result.kv.n_tokens, 20);
}

// ------------------------------------------------------- Memory behaviour

TEST(MemoryTest, HybridPeakIsLowerThanStandard) {
  // The headline memory claim at CPU scale: for a long-enough sequence the
  // hybrid pass peaks far below the standard pass.
  LlamaModel model(ModelConfig::Small(), 5);
  const auto tokens = MakeTokens(512, model.config().vocab_size, 51);

  TrackingAllocator std_alloc;
  PrefillOptions standard;
  standard.mode = PrefillMode::kStandard;
  MustPrefill(model, tokens, nullptr, standard, std_alloc);

  TrackingAllocator hyb_alloc;
  PrefillOptions hybrid;
  hybrid.mode = PrefillMode::kHybrid;
  hybrid.chunk_size = 32;
  MustPrefill(model, tokens, nullptr, hybrid, hyb_alloc);

  EXPECT_LT(hyb_alloc.peak_bytes(), std_alloc.peak_bytes() / 2)
      << "hybrid=" << hyb_alloc.peak_bytes() << " standard=" << std_alloc.peak_bytes();
}

TEST(MemoryTest, PreallocationAndInPlaceEachReducePeak) {
  LlamaModel model(ModelConfig::Small(), 5);
  const auto tokens = MakeTokens(512, model.config().vocab_size, 53);

  auto peak_with = [&](PrefillAblation ablation) {
    TrackingAllocator alloc;
    PrefillOptions options;
    options.mode = PrefillMode::kHybrid;
    options.chunk_size = 32;
    options.ablation = ablation;
    MustPrefill(model, tokens, nullptr, options, alloc);
    return alloc.peak_bytes();
  };

  const size_t chunking_only = peak_with(PrefillAblation::kNoPreallocate);
  const size_t with_prealloc = peak_with(PrefillAblation::kNoInPlace);
  const size_t with_in_place = peak_with(PrefillAblation::kNone);
  EXPECT_LT(with_prealloc, chunking_only);
  EXPECT_LT(with_in_place, with_prealloc);
}

TEST(MemoryTest, NoLeaksAfterPrefill) {
  LlamaModel model(ModelConfig::Tiny(), 5);
  const auto tokens = MakeTokens(64, model.config().vocab_size, 55);
  TrackingAllocator alloc;
  {
    PrefillOptions options;
    options.retention = KvRetention::kNone;
    MustPrefill(model, tokens, nullptr, options, alloc);
  }
  EXPECT_EQ(alloc.current_bytes(), 0u);
  EXPECT_EQ(alloc.live_allocations(), 0u);
}

TEST(MemoryTest, BudgetedAllocatorFailsGracefully) {
  LlamaModel model(ModelConfig::Small(), 5);
  const auto tokens = MakeTokens(256, model.config().vocab_size, 57);
  TrackingAllocator tight(64 * 1024);  // way below the pass requirement
  PrefillOptions options;
  options.mode = PrefillMode::kStandard;
  auto result = model.Prefill(tokens, nullptr, options, tight);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tight.current_bytes(), 0u);  // everything rolled back
}

TEST(MemoryTest, HybridFitsWhereStandardCannot) {
  // The MIL expansion in miniature: pick a budget between the two peaks.
  LlamaModel model(ModelConfig::Small(), 5);
  const auto tokens = MakeTokens(512, model.config().vocab_size, 59);

  TrackingAllocator probe;
  PrefillOptions standard;
  standard.mode = PrefillMode::kStandard;
  MustPrefill(model, tokens, nullptr, standard, probe);
  const size_t budget = probe.peak_bytes() / 2;

  TrackingAllocator tight_std(budget);
  EXPECT_FALSE(model.Prefill(tokens, nullptr, standard, tight_std).ok());

  TrackingAllocator tight_hyb(budget);
  PrefillOptions hybrid;
  hybrid.mode = PrefillMode::kHybrid;
  hybrid.chunk_size = 32;
  EXPECT_TRUE(model.Prefill(tokens, nullptr, hybrid, tight_hyb).ok());
}

// ------------------------------------------------------------- Validation

TEST(ValidationTest, RejectsEmptyTokens) {
  const auto& model = TinyModel();
  TrackingAllocator act;
  auto result = model.Prefill({}, nullptr, PrefillOptions{}, act);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, RejectsOutOfVocabToken) {
  const auto& model = TinyModel();
  TrackingAllocator act;
  std::vector<int32_t> tokens{0, 1, static_cast<int32_t>(model.config().vocab_size)};
  auto result = model.Prefill(tokens, nullptr, PrefillOptions{}, act);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, RejectsFullCachedPrefix) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(16, model.config().vocab_size, 61);
  TrackingAllocator act;
  PrefillOptions keep;
  keep.retention = KvRetention::kAll;
  keep.mode = PrefillMode::kStandard;
  const auto full = MustPrefill(model, tokens, nullptr, keep, act);
  // Prefix covering the whole request is invalid: the last token must run.
  auto result = model.Prefill(tokens, &full.kv, PrefillOptions{}, act);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, RejectsAblationOfAnotherMode) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(8, model.config().vocab_size, 63);
  TrackingAllocator act;
  PrefillOptions standard;
  standard.mode = PrefillMode::kStandard;
  standard.ablation = PrefillAblation::kNoPreallocate;
  EXPECT_EQ(model.Prefill(tokens, nullptr, standard, act).status().code(),
            StatusCode::kInvalidArgument);
  PrefillOptions hybrid;
  hybrid.mode = PrefillMode::kHybrid;
  hybrid.ablation = PrefillAblation::kDropKvPerLayer;
  EXPECT_EQ(model.Prefill(tokens, nullptr, hybrid, act).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidationTest, RejectsDropKvWithRetention) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(8, model.config().vocab_size, 65);
  TrackingAllocator act;
  PrefillOptions options;
  options.mode = PrefillMode::kStandard;
  options.ablation = PrefillAblation::kDropKvPerLayer;
  options.retention = KvRetention::kAll;
  auto result = model.Prefill(tokens, nullptr, options, act);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, ConfigValidCatchesBadShapes) {
  ModelConfig config = ModelConfig::Tiny();
  EXPECT_TRUE(config.Valid());
  config.n_heads = 3;
  config.n_kv_heads = 2;  // 3 % 2 != 0
  EXPECT_FALSE(config.Valid());
  config = ModelConfig::Tiny();
  config.head_dim = 7;  // odd: RoPE impossible
  EXPECT_FALSE(config.Valid());
}

// ---------------------------------------------------------------- Sampler

TEST(SamplerTest, ProbabilitiesSumToOne) {
  std::vector<float> logits{0.1f, 2.0f, -1.0f, 0.5f};
  std::vector<int32_t> allowed{1, 3};
  auto probs = ConstrainedProbabilities(logits, allowed);
  ASSERT_TRUE(probs.ok());
  ASSERT_EQ(probs.value().size(), 2u);
  EXPECT_NEAR(probs.value()[0].probability + probs.value()[1].probability, 1.0, 1e-12);
  EXPECT_GT(probs.value()[0].probability, probs.value()[1].probability);
}

TEST(SamplerTest, IgnoresDisallowedLogits) {
  // A huge disallowed logit must not influence the constrained softmax.
  std::vector<float> logits{1000.0f, 1.0f, 2.0f};
  std::vector<int32_t> allowed{1, 2};
  auto probs = ConstrainedProbabilities(logits, allowed);
  ASSERT_TRUE(probs.ok());
  EXPECT_NEAR(probs.value()[1].probability,
              1.0 / (1.0 + std::exp(-1.0)), 1e-6);
}

TEST(SamplerTest, RejectsEmptyAllowed) {
  std::vector<float> logits{1.0f};
  EXPECT_FALSE(ConstrainedProbabilities(logits, {}).ok());
}

TEST(SamplerTest, RejectsOutOfRangeToken) {
  std::vector<float> logits{1.0f, 2.0f};
  std::vector<int32_t> allowed{5};
  EXPECT_FALSE(ConstrainedProbabilities(logits, allowed).ok());
}

TEST(SamplerTest, RejectsDuplicates) {
  std::vector<float> logits{1.0f, 2.0f};
  std::vector<int32_t> allowed{1, 1};
  EXPECT_FALSE(ConstrainedProbabilities(logits, allowed).ok());
}

TEST(SamplerTest, ScoreFirstTokenIsPYes) {
  std::vector<float> logits{0.0f, 0.0f};
  std::vector<int32_t> allowed{0, 1};
  auto score = ScoreFirstToken(logits, allowed);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(score.value(), 0.5, 1e-12);
}

// ------------------------------------------------------------ Determinism

TEST(DeterminismTest, SameSeedSameWeightsSameLogits) {
  LlamaModel a(ModelConfig::Tiny(), 1234);
  LlamaModel b(ModelConfig::Tiny(), 1234);
  const auto tokens = MakeTokens(32, a.config().vocab_size, 71);
  TrackingAllocator act_a;
  TrackingAllocator act_b;
  const auto ra = MustPrefill(a, tokens, nullptr, PrefillOptions{}, act_a);
  const auto rb = MustPrefill(b, tokens, nullptr, PrefillOptions{}, act_b);
  EXPECT_EQ(std::memcmp(ra.last_logits.data(), rb.last_logits.data(),
                        ra.last_logits.size() * sizeof(float)),
            0);
}

TEST(DeterminismTest, DifferentSeedDifferentLogits) {
  LlamaModel a(ModelConfig::Tiny(), 1);
  LlamaModel b(ModelConfig::Tiny(), 2);
  const auto tokens = MakeTokens(16, a.config().vocab_size, 73);
  TrackingAllocator act_a;
  TrackingAllocator act_b;
  const auto ra = MustPrefill(a, tokens, nullptr, PrefillOptions{}, act_a);
  const auto rb = MustPrefill(b, tokens, nullptr, PrefillOptions{}, act_b);
  EXPECT_NE(std::memcmp(ra.last_logits.data(), rb.last_logits.data(),
                        ra.last_logits.size() * sizeof(float)),
            0);
}

// ------------------------------------------------- Thread determinism
//
// ISSUE 1's contract: intra-op parallelism partitions work so each output
// element is owned by exactly one thread with a fixed accumulation order,
// so Prefill logits are bitwise identical for every thread count — and
// that holds simultaneously across all three execution strategies.

TEST(ThreadDeterminismTest, LogitsBitwiseIdenticalAcrossThreadCountsAndModes) {
  LlamaModel model(ModelConfig::Tiny(), 17);
  const auto tokens = MakeTokens(97, model.config().vocab_size, 91);

  // Reference: serial, no pool at all (the legacy execution).
  TrackingAllocator act_ref;
  PrefillOptions standard;
  standard.mode = PrefillMode::kStandard;
  const auto expected = MustPrefill(model, tokens, nullptr, standard, act_ref);

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    model.SetThreadPool(&pool);
    for (PrefillMode mode :
         {PrefillMode::kStandard, PrefillMode::kChunked, PrefillMode::kHybrid}) {
      TrackingAllocator act;
      PrefillOptions options;
      options.mode = mode;
      options.chunk_size = 16;
      const auto got = MustPrefill(model, tokens, nullptr, options, act);
      ASSERT_EQ(expected.last_logits.size(), got.last_logits.size());
      EXPECT_EQ(std::memcmp(expected.last_logits.data(), got.last_logits.data(),
                            expected.last_logits.size() * sizeof(float)),
                0)
          << "threads=" << threads << " mode=" << static_cast<int>(mode);
    }
    model.SetThreadPool(nullptr);
  }
}

TEST(ThreadDeterminismTest, RetainedKvBitwiseIdenticalAcrossThreadCounts) {
  // KV written by the threaded K/V projections + RoPE must match the serial
  // bits too — it is what later cache hits recompute from.
  LlamaModel model(ModelConfig::Tiny(), 19);
  const auto tokens = MakeTokens(64, model.config().vocab_size, 93);

  PrefillOptions keep_all;
  keep_all.mode = PrefillMode::kHybrid;
  keep_all.chunk_size = 16;
  keep_all.retention = KvRetention::kAll;

  TrackingAllocator act_ref;
  const auto expected = MustPrefill(model, tokens, nullptr, keep_all, act_ref);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    model.SetThreadPool(&pool);
    TrackingAllocator act;
    const auto got = MustPrefill(model, tokens, nullptr, keep_all, act);
    ASSERT_EQ(got.kv.layers.size(), expected.kv.layers.size());
    for (size_t l = 0; l < got.kv.layers.size(); ++l) {
      EXPECT_EQ(std::memcmp(got.kv.layers[l].k.data(), expected.kv.layers[l].k.data(),
                            expected.kv.layers[l].k.bytes()),
                0)
          << "threads=" << threads << " layer=" << l;
      EXPECT_EQ(std::memcmp(got.kv.layers[l].v.data(), expected.kv.layers[l].v.data(),
                            expected.kv.layers[l].v.bytes()),
                0)
          << "threads=" << threads << " layer=" << l;
    }
    model.SetThreadPool(nullptr);
  }
}

TEST(ThreadDeterminismTest, CachedPrefixReuseUnderThreads) {
  LlamaModel model(ModelConfig::Tiny(), 23);
  ThreadPool pool(4);
  model.SetThreadPool(&pool);
  const auto tokens = MakeTokens(80, model.config().vocab_size, 95);

  TrackingAllocator act;
  PrefillOptions keep_all;
  keep_all.mode = PrefillMode::kHybrid;
  keep_all.chunk_size = 16;
  keep_all.retention = KvRetention::kAll;
  const auto full = MustPrefill(model, tokens, nullptr, keep_all, act);

  TrackingAllocator act2;
  KvCacheData prefix = SliceKv(full.kv, 48, act2);
  PrefillOptions options;
  options.mode = PrefillMode::kHybrid;
  options.chunk_size = 16;
  const auto cached = MustPrefill(model, tokens, &prefix, options, act2);
  EXPECT_EQ(std::memcmp(full.last_logits.data(), cached.last_logits.data(),
                        full.last_logits.size() * sizeof(float)),
            0);
}

// -------------------------------------------------------------- KV utils

TEST(KvUtilTest, SliceThenRecomputeRoundTrips) {
  const auto& model = TinyModel();
  const auto tokens = MakeTokens(32, model.config().vocab_size, 81);
  TrackingAllocator act;
  PrefillOptions keep;
  keep.retention = KvRetention::kAll;
  keep.mode = PrefillMode::kStandard;
  const auto full = MustPrefill(model, tokens, nullptr, keep, act);

  KvCacheData first_half = SliceKv(full.kv, 16, act);
  // Recompute the second half against the first as prefix, keeping its KV:
  // the two halves are the full pass's rows.
  PrefillOptions keep2 = keep;
  const auto second = MustPrefill(model, tokens, &first_half, keep2, act);
  ASSERT_EQ(second.kv.n_tokens, 16);
  const size_t half_bytes = first_half.layers[0].k.bytes();
  for (size_t l = 0; l < full.kv.layers.size(); ++l) {
    EXPECT_EQ(std::memcmp(first_half.layers[l].k.data(), full.kv.layers[l].k.data(),
                          half_bytes),
              0)
        << "layer " << l;
    EXPECT_EQ(std::memcmp(second.kv.layers[l].k.data(), full.kv.layers[l].k.row(16),
                          half_bytes),
              0)
        << "layer " << l;
  }
}

}  // namespace
}  // namespace prefillonly
