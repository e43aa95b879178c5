// Cross-module integration tests: the real engine, the analytic models and
// the simulator exercised against each other.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/core/capacity_planner.h"
#include "src/core/engine.h"
#include "src/engine/cluster.h"
#include "src/gpu/activation_model.h"
#include "src/gpu/memory_model.h"
#include "src/workload/dataset.h"
#include "src/workload/tokenizer.h"
#include "tests/engine_backlog.h"

namespace prefillonly {
namespace {

std::vector<int32_t> Tokens(int64_t n, uint64_t seed, int64_t vocab) {
  Rng rng(seed);
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vocab)));
  }
  return out;
}

ScoringRequest Request(std::vector<int32_t> tokens, int64_t user = 0) {
  ScoringRequest request;
  request.user_id = user;
  request.tokens = std::move(tokens);
  request.allowed_tokens = {10, 20};
  return request;
}

// ------------------------------------------------ Walker predicts real OOM
//
// The activation walker says how many bytes a pass needs; the real engine
// under exactly that budget must succeed, and under one byte less (well,
// one tensor less) must fail. This welds Table 2's MIL logic to the real
// execution path.

TEST(ModelIntegrationTest, WalkerPredictsRealEngineFeasibility) {
  const ModelConfig config = ModelConfig::Tiny();
  const int64_t n_tokens = 128;

  ActivationShape shape;
  shape.n_layers = config.n_layers;
  shape.hidden = config.hidden_size;
  shape.q_size = config.q_size();
  shape.kv_width = config.kv_size();
  shape.intermediate = config.intermediate_size;
  shape.act_bytes = sizeof(float);
  shape.kv_bytes = sizeof(float);
  shape.score_bytes = sizeof(float);

  PassOptions pass;
  pass.strategy = PassStrategy::kHybrid;
  pass.chunk = 32;
  const int64_t predicted =
      SimulatePassMemory(shape, n_tokens, 0, pass).peak_bytes;

  EngineOptions exact;
  exact.model = config;
  exact.chunk_size = 32;
  exact.cache_budget_tokens = 0;
  exact.activation_budget_bytes = static_cast<size_t>(predicted);
  Engine fits(exact);
  EXPECT_TRUE(fits.ScoreSync(Request(Tokens(n_tokens, 1, config.vocab_size))).ok());

  EngineOptions tight = exact;
  tight.activation_budget_bytes = static_cast<size_t>(predicted - 64);
  Engine fails(tight);
  auto result = fails.ScoreSync(Request(Tokens(n_tokens, 1, config.vocab_size)));
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // Thread count must not perturb the walker contract: attention's extra
  // per-thread score rows are untracked host scratch, so the same exact
  // budget still fits at 8 threads (regardless of how many cores the test
  // machine has).
  EngineOptions threaded = exact;
  threaded.num_threads = 8;
  Engine fits_threaded(threaded);
  EXPECT_TRUE(
      fits_threaded.ScoreSync(Request(Tokens(n_tokens, 1, config.vocab_size))).ok());
}

// ----------------------------------------- Engine modes agree on decisions
//
// The same engine configured as the chunked-prefill or standard baseline
// must produce the exact same probabilities as the hybrid engine: the
// execution strategy is a performance choice, never a quality choice.

class EngineModeTest : public ::testing::TestWithParam<PrefillMode> {};

TEST_P(EngineModeTest, ScoresMatchHybridBitwise) {
  const auto tokens = Tokens(100, 5, 256);

  EngineOptions hybrid_options;
  hybrid_options.model = ModelConfig::Tiny();
  hybrid_options.block_size = 16;
  Engine hybrid(hybrid_options);
  auto expected = hybrid.ScoreSync(Request(tokens));
  ASSERT_TRUE(expected.ok());

  EngineOptions options = hybrid_options;
  options.mode = GetParam();
  Engine engine(options);
  auto got = engine.ScoreSync(Request(tokens));
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got.value().score, expected.value().score);
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineModeTest,
                         ::testing::Values(PrefillMode::kStandard,
                                           PrefillMode::kChunked,
                                           PrefillMode::kHybrid),
                         [](const ::testing::TestParamInfo<PrefillMode>& info) {
                           switch (info.param) {
                             case PrefillMode::kStandard:
                               return "Standard";
                             case PrefillMode::kChunked:
                               return "Chunked";
                             case PrefillMode::kHybrid:
                               return "Hybrid";
                           }
                           return "?";
                         });

// -------------------------------------------------- Fig. 5 on real compute
//
// The A/B/C/D walkthrough with actual prefills: a tiny cache holds one
// request's prefix; calibrated SRJF finds both possible hits.

TEST(RealFig5Test, CalibratedSrjfGetsBothHits) {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 208;  // holds one 200-ish-token prefix
  options.lambda = 0.0;
  Engine engine(options);
  Backlog backlog(engine);
  const int64_t vocab = options.model.vocab_size;

  // Shared prefixes: {A, D} and {B, C}; lengths A<C<B<D.
  const auto prefix_ad = Tokens(144, 100, vocab);
  const auto prefix_bc = Tokens(176, 200, vocab);
  auto make = [&](const std::vector<int32_t>& prefix, int64_t len, int64_t user) {
    auto tokens = prefix;
    tokens.resize(static_cast<size_t>(len));
    for (size_t i = prefix.size(); i < tokens.size(); ++i) {
      tokens[i] = static_cast<int32_t>((i * 13 + user) % vocab);
    }
    return Request(std::move(tokens), user);
  };

  const auto id_a = backlog.Submit(make(prefix_ad, 150, 1)).value();
  const auto id_b = backlog.Submit(make(prefix_bc, 190, 2)).value();
  const auto id_c = backlog.Submit(make(prefix_bc, 180, 2)).value();
  const auto id_d = backlog.Submit(make(prefix_ad, 200, 1)).value();
  const auto responses = backlog.Drain().value();
  ASSERT_EQ(responses.size(), 4u);

  // Expected order: A (shortest), D (hits A's prefix), C, B (hits C's).
  EXPECT_EQ(responses[0].request_id, id_a);
  EXPECT_EQ(responses[1].request_id, id_d);
  EXPECT_GT(responses[1].n_cached, 0);
  EXPECT_EQ(responses[2].request_id, id_c);
  EXPECT_EQ(responses[3].request_id, id_b);
  EXPECT_GT(responses[3].n_cached, 0);
  int hits = 0;
  for (const auto& r : responses) {
    hits += r.n_cached > 0 ? 1 : 0;
  }
  EXPECT_EQ(hits, 2);
}

// ---------------------------------------------- Tokenizer -> engine -> score

TEST(TextPipelineTest, SharedTextPrefixProducesCacheHits) {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 8;
  Engine engine(options);
  HashTokenizer tokenizer(static_cast<int32_t>(options.model.vocab_size));

  const std::string profile =
      "user profile : reads systems papers , bakes bread , rides gravel "
      "bikes , follows distributed databases and storage engines closely";
  ScoringRequest first;
  first.tokens = tokenizer.Encode(profile + " article : cats answer :");
  first.allowed_tokens = {tokenizer.TokenFor("yes"), tokenizer.TokenFor("no")};
  auto r1 = engine.ScoreSync(std::move(first));
  ASSERT_TRUE(r1.ok());

  ScoringRequest second;
  second.tokens = tokenizer.Encode(profile + " article : compilers answer :");
  second.allowed_tokens = {tokenizer.TokenFor("yes"), tokenizer.TokenFor("no")};
  auto r2 = engine.ScoreSync(std::move(second));
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2.value().n_cached, 0);
  EXPECT_GT(r2.value().score, 0.0);
  EXPECT_LT(r2.value().score, 1.0);
}

// ------------------------------------------------- Planner <-> sim agreement

TEST(PlannerIntegrationTest, RecommendationHasHighestThroughputAmongFeasible) {
  CreditVerificationConfig config;
  config.n_users = 5;
  const Dataset dataset = MakeCreditVerificationDataset(config);
  const auto plan = PlanCapacity(HardwareSetup::A100_Qwen32B(), dataset, 0.01);
  double best = 0.0;
  for (const auto& a : plan.assessments) {
    if (a.fits_workload) {
      best = std::max(best, a.saturated_throughput);
    }
    if (a.kind == plan.recommended) {
      EXPECT_TRUE(a.fits_workload);
    }
  }
  for (const auto& a : plan.assessments) {
    if (a.kind == plan.recommended) {
      EXPECT_DOUBLE_EQ(a.saturated_throughput, best);
    }
  }
}

// ------------------------------------------ Determinism across whole stacks

TEST(DeterminismIntegrationTest, RealEngineRepeatable) {
  auto run = [] {
    EngineOptions options;
    options.model = ModelConfig::Tiny();
    Engine engine(options);
    std::vector<double> scores;
    for (int i = 0; i < 5; ++i) {
      auto r = engine.ScoreSync(Request(Tokens(40 + i * 7, 50 + i, 256), i));
      scores.push_back(r.ok() ? r.value().score : -1.0);
    }
    return scores;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace prefillonly
