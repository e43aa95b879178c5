#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/capacity_planner.h"
#include "src/core/engine.h"
#include "src/core/kv_block_store.h"
#include "src/core/request.h"
#include "src/model/llama.h"
#include "src/workload/dataset.h"
#include "tests/engine_backlog.h"

namespace prefillonly {
namespace {

EngineOptions TinyEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.chunk_size = 32;
  return options;
}

std::vector<int32_t> Tokens(int64_t n, uint64_t seed, int64_t vocab = 256) {
  Rng rng(seed);
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vocab)));
  }
  return out;
}

ScoringRequest YesNoRequest(std::vector<int32_t> tokens, int64_t user = 0) {
  ScoringRequest request;
  request.user_id = user;
  request.tokens = std::move(tokens);
  request.allowed_tokens = {10, 20};  // "Yes", "No"
  return request;
}

// -------------------------------------------------------------- Scoring

TEST(EngineTest, ScoreSyncReturnsValidProbability) {
  Engine engine(TinyEngineOptions());
  auto response = engine.ScoreSync(YesNoRequest(Tokens(70, 1)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response.value().score, 0.0);
  EXPECT_LT(response.value().score, 1.0);
  ASSERT_EQ(response.value().probabilities.size(), 2u);
  EXPECT_NEAR(response.value().probabilities[0].probability +
                  response.value().probabilities[1].probability,
              1.0, 1e-9);
  EXPECT_EQ(response.value().n_cached, 0);
  EXPECT_EQ(response.value().n_input, 70);
}

TEST(EngineTest, ScoreMatchesDirectModelInference) {
  // The engine (hybrid + caching + scheduling) must produce exactly the
  // probability a bare standard-prefill + constrained softmax produces.
  EngineOptions options = TinyEngineOptions();
  Engine engine(options);
  const auto tokens = Tokens(90, 2);
  auto via_engine = engine.ScoreSync(YesNoRequest(tokens));
  ASSERT_TRUE(via_engine.ok());

  LlamaModel model(options.model, options.weight_seed);
  TrackingAllocator act;
  PrefillOptions prefill;
  prefill.mode = PrefillMode::kStandard;
  auto direct = model.Prefill(tokens, nullptr, prefill, act);
  ASSERT_TRUE(direct.ok());
  std::vector<int32_t> allowed{10, 20};
  auto probs = ConstrainedProbabilities(direct.value().last_logits, allowed);
  ASSERT_TRUE(probs.ok());
  EXPECT_DOUBLE_EQ(via_engine.value().score, probs.value()[0].probability);
}

TEST(EngineTest, NumThreadsDoesNotChangeScores) {
  // The EngineOptions::num_threads knob (ISSUE 1): thread counts change
  // wall time, never bits.
  const auto tokens = Tokens(85, 7);
  std::vector<double> scores;
  for (int threads : {1, 2, 8}) {
    EngineOptions options = TinyEngineOptions();
    options.num_threads = threads;
    Engine engine(options);
    auto response = engine.ScoreSync(YesNoRequest(tokens));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    scores.push_back(response.value().score);
  }
  EXPECT_EQ(scores[0], scores[1]);
  EXPECT_EQ(scores[0], scores[2]);
}

TEST(EngineTest, SecondRequestHitsPrefixCache) {
  Engine engine(TinyEngineOptions());
  auto profile = Tokens(64, 3);
  auto post_a = profile;
  post_a.push_back(5);
  post_a.push_back(6);
  auto post_b = profile;
  post_b.push_back(7);
  post_b.push_back(8);

  auto first = engine.ScoreSync(YesNoRequest(post_a));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().n_cached, 0);

  auto second = engine.ScoreSync(YesNoRequest(post_b));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().n_cached, 64);  // whole shared profile reused
}

TEST(EngineTest, CacheHitDoesNotChangeScores) {
  // Cold engine vs warm engine must agree bitwise on the score.
  const auto profile = Tokens(64, 4);
  auto query = profile;
  query.push_back(42);

  EngineOptions options = TinyEngineOptions();
  Engine cold(options);
  auto cold_score = cold.ScoreSync(YesNoRequest(query));
  ASSERT_TRUE(cold_score.ok());

  Engine warm(options);
  auto warm_up = profile;
  warm_up.push_back(99);
  ASSERT_TRUE(warm_up != query);
  ASSERT_TRUE(warm.ScoreSync(YesNoRequest(warm_up)).ok());
  auto warm_score = warm.ScoreSync(YesNoRequest(query));
  ASSERT_TRUE(warm_score.ok());
  EXPECT_GT(warm_score.value().n_cached, 0);
  EXPECT_DOUBLE_EQ(warm_score.value().score, cold_score.value().score);
}

// Two TokenProbability vectors are bitwise identical (memcmp over the
// doubles, not EXPECT_DOUBLE_EQ): the cached path must reproduce the cold
// path exactly, bit for bit.
bool SameProbabilityBits(const std::vector<TokenProbability>& a,
                         const std::vector<TokenProbability>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].token != b[i].token ||
        std::memcmp(&a[i].probability, &b[i].probability, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(KvSharingTest, DivergingRequestsShareBlockAlignedPrefixBitwise) {
  // The ISSUE 7 acceptance scenario: A = P|X and B = P|Y share only the
  // block-aligned prefix P and then genuinely diverge (neither is a prefix
  // of the other). The radix tree must split A's cached run at the
  // divergence point and serve B the shared physical blocks — visible as
  // n_cached == |P| — while B's probabilities stay bitwise identical to a
  // solo cold run.
  const auto shared_prefix = Tokens(48, 11);  // 3 whole blocks at size 16
  auto request_a = shared_prefix;
  for (int32_t t : {31, 32, 33, 34, 35, 36, 37, 38}) {
    request_a.push_back(t);
  }
  auto request_b = shared_prefix;
  for (int32_t t : {131, 132, 133, 134, 135, 136, 137, 138}) {
    request_b.push_back(t);
  }

  EngineOptions options = TinyEngineOptions();
  Engine shared(options);
  auto first = shared.ScoreSync(YesNoRequest(request_a));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().n_cached, 0);

  auto second = shared.ScoreSync(YesNoRequest(request_b));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // B reuses exactly the block-aligned shared prefix, not a token more.
  EXPECT_EQ(second.value().n_cached, 48);

  Engine solo(options);
  auto cold = solo.ScoreSync(YesNoRequest(request_b));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().n_cached, 0);
  EXPECT_TRUE(SameProbabilityBits(second.value().probabilities,
                                  cold.value().probabilities));
  EXPECT_EQ(std::memcmp(&second.value().score, &cold.value().score,
                        sizeof(double)), 0);
}

TEST(KvSharingTest, ThreeWaySharingReusesDeepestSplitPoint) {
  // A third request diverging deeper than the first split still matches the
  // longest cached block-aligned prefix it shares with *any* prior request.
  const auto base = Tokens(80, 12);  // 5 whole blocks
  auto request_a = base;
  request_a.push_back(1);
  auto shallow = std::vector<int32_t>(base.begin(), base.begin() + 48);
  shallow.resize(64, 7);  // diverges after block 3
  auto deep = base;
  deep[78] = (base[78] + 1) % 256;  // diverges in block 5: shares 4 blocks with A

  Engine engine(TinyEngineOptions());
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(request_a)).ok());
  auto mid = engine.ScoreSync(YesNoRequest(shallow));
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.value().n_cached, 48);  // split at block 3
  auto late = engine.ScoreSync(YesNoRequest(deep));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().n_cached, 64);  // matches through the split, 4 blocks
}

TEST(EngineTest, SuffixDiscardingCapsCacheUse) {
  EngineOptions options = TinyEngineOptions();
  options.cache_budget_tokens = 32;  // 2 blocks only
  Engine engine(options);
  const auto tokens = Tokens(100, 5);
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(tokens)).ok());
  // Re-scoring the same input can reuse at most the retained prefix.
  auto again = engine.ScoreSync(YesNoRequest(tokens));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().n_cached, 32);
  const auto stats = engine.stats();
  EXPECT_LE(static_cast<int64_t>(stats.cache_bytes),
            32 * options.model.kv_bytes_per_token() + 1024);
}

TEST(EngineTest, ZeroCacheBudgetStillCorrect) {
  EngineOptions options = TinyEngineOptions();
  options.cache_budget_tokens = 0;
  Engine engine(options);
  const auto tokens = Tokens(50, 6);
  auto first = engine.ScoreSync(YesNoRequest(tokens));
  auto second = engine.ScoreSync(YesNoRequest(tokens));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().n_cached, 0);
  EXPECT_DOUBLE_EQ(first.value().score, second.value().score);
}

TEST(EngineTest, LruEvictionAcrossUsers) {
  EngineOptions options = TinyEngineOptions();
  options.cache_budget_tokens = 64;  // room for ~one profile
  Engine engine(options);
  const auto user_a = Tokens(64, 7);
  const auto user_b = Tokens(64, 8);
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(user_a, 1)).ok());
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(user_b, 2)).ok());  // evicts A
  auto again_a = engine.ScoreSync(YesNoRequest(user_a, 1));
  ASSERT_TRUE(again_a.ok());
  EXPECT_EQ(again_a.value().n_cached, 0);  // A was evicted
  const auto stats = engine.stats();
  EXPECT_GT(stats.cache.evictions, 0);
}

// --------------------------------------------------------- Offload tier

TEST(EngineTest, OffloadRecoversEvictedPrefix) {
  // With offload enabled, an LRU-evicted profile is demoted to the CPU
  // tier and reloaded on the next hit instead of being recomputed.
  EngineOptions options = TinyEngineOptions();
  options.cache_budget_tokens = 64;        // one profile fits
  options.cpu_offload_budget_tokens = 256; // plenty of host space
  Engine engine(options);
  const auto user_a = Tokens(64, 7);
  const auto user_b = Tokens(64, 8);
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(user_a, 1)).ok());
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(user_b, 2)).ok());  // demotes A

  auto again_a = engine.ScoreSync(YesNoRequest(user_a, 1));
  ASSERT_TRUE(again_a.ok());
  EXPECT_EQ(again_a.value().n_cached, 48);          // (64-1)/16 blocks
  EXPECT_GT(again_a.value().n_cached_offload, 0);   // served from CPU tier
  const auto stats = engine.stats();
  EXPECT_GT(stats.offload_demotions, 0);
  EXPECT_GT(stats.offload_hit_tokens, 0);
  EXPECT_GT(stats.offload_promotions, 0);
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
}

TEST(EngineTest, OffloadHitScoresBitwiseEqualToCold) {
  const auto query = Tokens(80, 31);

  EngineOptions options = TinyEngineOptions();
  Engine cold(options);
  auto cold_score = cold.ScoreSync(YesNoRequest(query));
  ASSERT_TRUE(cold_score.ok());

  EngineOptions offload = TinyEngineOptions();
  offload.cache_budget_tokens = 80;
  offload.cpu_offload_budget_tokens = 512;
  Engine warm(offload);
  ASSERT_TRUE(warm.ScoreSync(YesNoRequest(query)).ok());      // fill GPU tier
  ASSERT_TRUE(warm.ScoreSync(YesNoRequest(Tokens(80, 32))).ok());  // demote
  auto via_offload = warm.ScoreSync(YesNoRequest(query));
  ASSERT_TRUE(via_offload.ok());
  EXPECT_GT(via_offload.value().n_cached_offload, 0);
  EXPECT_DOUBLE_EQ(via_offload.value().score, cold_score.value().score);
  EXPECT_TRUE(warm.CheckInvariants().ok()) << warm.CheckInvariants().ToString();
}

TEST(EngineTest, OffloadDisabledByDefault) {
  Engine engine(TinyEngineOptions());
  const auto a = Tokens(64, 7);
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(a, 1)).ok());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.offload_bytes, 0u);
  EXPECT_EQ(stats.offload_demotions, 0);
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
}

TEST(EngineTest, OffloadMemoryAccountedSeparately) {
  EngineOptions options = TinyEngineOptions();
  options.cache_budget_tokens = 32;
  options.cpu_offload_budget_tokens = 128;
  Engine engine(options);
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(Tokens(48, 41), 1)).ok());
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(Tokens(48, 42), 2)).ok());
  const auto stats = engine.stats();
  EXPECT_GT(stats.offload_bytes, 0u);
  // Host tier bounded by its own budget.
  EXPECT_LE(static_cast<int64_t>(stats.offload_bytes),
            options.cpu_offload_budget_tokens * options.model.kv_bytes_per_token());
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
}

TEST(EngineTest, WarmHitLanePeakIsThePassPeak) {
  // A prefix hit is read in place from the pinned cache blocks, so a warm
  // lane's arena holds exactly what its pass allocates: the lane peak is
  // the model-level tracked peak of the same pass with its prefix allocated
  // outside the arena.
  const EngineOptions options = TinyEngineOptions();
  Engine engine(options);
  const auto tokens = Tokens(200, 51);
  const std::vector<int32_t> head(tokens.begin(), tokens.begin() + 65);
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(head)).ok());  // caches 4 blocks
  auto warm = engine.ScoreSync(YesNoRequest(tokens));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm.value().n_cached, 64);

  LlamaModel model(options.model, options.weight_seed, options.kernel_backend);
  PrefillOptions prefill;
  prefill.mode = options.mode;
  prefill.chunk_size = options.chunk_size;
  prefill.retention = KvRetention::kPrefixBudget;
  // The engine retains every whole block that fits the cache budget.
  const auto peak_of = [&](std::span<const int32_t> request, const KvCacheData* prefix) {
    prefill.prefix_budget_tokens =
        std::min<int64_t>(static_cast<int64_t>(request.size()) / options.block_size *
                              options.block_size,
                          options.cache_budget_tokens);
    TrackingAllocator arena;
    EXPECT_TRUE(model.Prefill(request, prefix, prefill, arena).ok());
    return arena.peak_bytes();
  };
  TrackingAllocator prefix_alloc;
  KvCacheData prefix;
  prefix.n_tokens = 64;
  prefix.layers.resize(static_cast<size_t>(options.model.n_layers));
  for (auto& layer : prefix.layers) {
    layer.k = Tensor::Zeros(prefix_alloc, {64, options.model.kv_size()}, "p.k");
    layer.v = Tensor::Zeros(prefix_alloc, {64, options.model.kv_size()}, "p.v");
  }
  const size_t warm_peak = peak_of(tokens, &prefix);
  ASSERT_GT(warm_peak, peak_of(head, nullptr)) << "the warm pass must set the lane peak";
  EXPECT_EQ(engine.stats().peak_activation_bytes, warm_peak);
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
}

// ----------------------------------------------------------- Scheduling

TEST(EngineTest, BacklogDrainsShortestFirst) {
  EngineOptions options = TinyEngineOptions();
  options.lambda = 0.0;
  Engine engine(options);
  Backlog backlog(engine);
  auto long_id = backlog.Submit(YesNoRequest(Tokens(120, 9)));
  auto short_id = backlog.Submit(YesNoRequest(Tokens(20, 10)));
  ASSERT_TRUE(long_id.ok());
  ASSERT_TRUE(short_id.ok());
  const auto responses = backlog.Drain().value();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].request_id, short_id.value());
  EXPECT_EQ(responses[1].request_id, long_id.value());
}

TEST(EngineTest, FifoPolicyPreservesSubmissionOrder) {
  EngineOptions options = TinyEngineOptions();
  options.policy = SchedPolicy::kFifo;
  Engine engine(options);
  Backlog backlog(engine);
  auto long_id = backlog.Submit(YesNoRequest(Tokens(120, 11)));
  auto short_id = backlog.Submit(YesNoRequest(Tokens(20, 12)));
  const auto responses = backlog.Drain().value();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].request_id, long_id.value());
  EXPECT_EQ(responses[1].request_id, short_id.value());
}

TEST(EngineTest, CalibrationPrioritizesCacheHitRequest) {
  // Fig. 5's mechanism end-to-end on the REAL engine: after the shared-
  // prefix request runs, its sibling jumps ahead of a shorter stranger.
  EngineOptions options = TinyEngineOptions();
  options.lambda = 0.0;
  Engine engine(options);
  const auto profile = Tokens(96, 13);

  auto first = profile;
  first.push_back(1);
  ASSERT_TRUE(engine.ScoreSync(YesNoRequest(first, 1)).ok());  // warm cache

  auto sibling = profile;  // 96 cached + 3 fresh vs stranger's 48 fresh
  sibling.push_back(2);
  sibling.push_back(3);
  sibling.push_back(4);
  Backlog backlog(engine);
  auto stranger_id = backlog.Submit(YesNoRequest(Tokens(48, 14), 2));
  auto sibling_id = backlog.Submit(YesNoRequest(sibling, 1));
  const auto responses = backlog.Drain().value();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].request_id, sibling_id.value());
  EXPECT_GT(responses[0].n_cached, 0);
  EXPECT_EQ(responses[1].request_id, stranger_id.value());
}

// ----------------------------------------------------------- Validation

TEST(EngineTest, RejectsEmptyRequest) {
  Engine engine(TinyEngineOptions());
  EXPECT_EQ(engine.ScoreSync(YesNoRequest({})).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, RejectsOverlongRequest) {
  EngineOptions options = TinyEngineOptions();
  options.max_input_length = 64;
  Engine engine(options);
  EXPECT_EQ(engine.ScoreSync(YesNoRequest(Tokens(65, 15))).status().code(),
            StatusCode::kOutOfRange);
}

TEST(EngineTest, RejectsBadAllowedTokens) {
  Engine engine(TinyEngineOptions());
  ScoringRequest request = YesNoRequest(Tokens(10, 16));
  request.allowed_tokens = {9999};
  EXPECT_EQ(engine.ScoreSync(std::move(request)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, ActivationBudgetFailureIsReported) {
  EngineOptions options = TinyEngineOptions();
  options.activation_budget_bytes = 16 * 1024;  // far too small
  Engine engine(options);
  auto response = engine.ScoreSync(YesNoRequest(Tokens(64, 17)));
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().failed, 1);
}

// ---------------------------------------------------------------- Async

TEST(EngineTest, AsyncWorkerDeliversAllResponses) {
  Engine engine(TinyEngineOptions());
  std::atomic<int> delivered{0};
  std::atomic<int> ok{0};
  auto hook = [&](size_t, const Result<ScoringResponse>& response) {
    if (response.ok()) {
      ++ok;
    }
    ++delivered;
  };
  ASSERT_TRUE(engine.StartWorker().ok());
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(SubmitOne(engine, YesNoRequest(Tokens(30 + i, 18 + i), i), hook).ok());
  }
  engine.StopWorker();  // drains the queue before returning
  EXPECT_EQ(delivered.load(), n);
  EXPECT_EQ(ok.load(), n);
  EXPECT_EQ(engine.stats().completed, n);
}

// ----------------------------------------------------------- KvBlockStore

TEST(KvBlockStoreTest, PutFindRoundTrip) {
  const ModelConfig config = ModelConfig::Tiny();
  TrackingAllocator alloc;
  KvBlockStore store(config, /*block_size=*/8, alloc);

  // Source KV covering 16 tokens starting at position 0.
  KvCacheData source;
  source.n_tokens = 16;
  source.layers.resize(static_cast<size_t>(config.n_layers));
  float fill = 1.0f;
  for (auto& layer : source.layers) {
    layer.k = Tensor::Uninit(alloc, {16, config.kv_size()}, "k");
    layer.v = Tensor::Uninit(alloc, {16, config.kv_size()}, "v");
    for (float& x : layer.k.span()) {
      x = fill++;
    }
    for (float& x : layer.v.span()) {
      x = fill++;
    }
  }
  store.Put(1, source, /*source_start=*/0, /*block_index=*/0);
  store.Put(2, source, /*source_start=*/0, /*block_index=*/1);
  EXPECT_EQ(store.block_count(), 2u);

  // Each block reads back its own 8 rows of the source, K and V, where the
  // store keeps them.
  const size_t block_bytes = 8 * static_cast<size_t>(config.kv_size()) * sizeof(float);
  for (const BlockId id : {1, 2}) {
    const KvBlock* block = store.Find(id);
    ASSERT_NE(block, nullptr);
    ASSERT_EQ(block->layers.size(), source.layers.size());
    const int64_t row0 = (id - 1) * 8;
    for (size_t l = 0; l < source.layers.size(); ++l) {
      ASSERT_EQ(block->layers[l].k.rows(), 8);
      EXPECT_EQ(std::memcmp(block->layers[l].k.data(), source.layers[l].k.row(row0),
                            block_bytes),
                0);
      EXPECT_EQ(std::memcmp(block->layers[l].v.data(), source.layers[l].v.row(row0),
                            block_bytes),
                0);
    }
  }
  EXPECT_EQ(store.Find(3), nullptr);
  store.Drop(1);
  EXPECT_EQ(store.Find(1), nullptr);
}

TEST(KvBlockStoreTest, DropReleasesMemory) {
  const ModelConfig config = ModelConfig::Tiny();
  TrackingAllocator alloc;
  KvBlockStore store(config, 8, alloc);
  KvCacheData source;
  source.n_tokens = 8;
  source.layers.resize(static_cast<size_t>(config.n_layers));
  for (auto& layer : source.layers) {
    layer.k = Tensor::Zeros(alloc, {8, config.kv_size()}, "k");
    layer.v = Tensor::Zeros(alloc, {8, config.kv_size()}, "v");
  }
  store.Put(5, source, 0, 0);
  const size_t with_block = store.bytes();
  EXPECT_GT(with_block, 0u);
  store.Drop(5);
  EXPECT_EQ(store.bytes(), 0u);
  EXPECT_FALSE(store.Contains(5));
}

// ------------------------------------------------------ Capacity planner

TEST(CapacityPlannerTest, RecommendsFeasibleEngine) {
  CreditVerificationConfig config;
  config.n_users = 6;
  const Dataset dataset = MakeCreditVerificationDataset(config);
  const auto plan = PlanCapacity(HardwareSetup::H100_Llama70B(), dataset, 0.02);
  ASSERT_EQ(plan.assessments.size(), 5u);
  // Paged cannot fit 40k-60k requests on H100+70B.
  for (const auto& a : plan.assessments) {
    if (a.kind == EngineKind::kPagedAttention) {
      EXPECT_FALSE(a.fits_workload);
    }
    if (a.kind == EngineKind::kPrefillOnly) {
      EXPECT_TRUE(a.fits_workload);
      EXPECT_GT(a.saturated_throughput, 0.0);
    }
  }
  // The paper's result: PrefillOnly should be the pick for this workload.
  EXPECT_EQ(plan.recommended, EngineKind::kPrefillOnly);
}

}  // namespace
}  // namespace prefillonly
