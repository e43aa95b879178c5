#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/workload/dataset.h"
#include "src/workload/router.h"
#include "src/workload/tokenizer.h"

namespace prefillonly {
namespace {

// ----------------------------------------------------- Post recommendation

TEST(PostRecTest, MatchesTable1Shape) {
  const Dataset data = MakePostRecommendationDataset({});
  EXPECT_EQ(data.requests.size(), 20u * 50u);
  EXPECT_EQ(data.UserCount(), 20);
  EXPECT_DOUBLE_EQ(data.RequestsPerUser(), 50.0);
  // Table 1: ~14M tokens total.
  EXPECT_GT(data.TotalTokens(), 10'000'000);
  EXPECT_LT(data.TotalTokens(), 18'000'000);
  // Profile lengths clamped to [11k, 17k]; +150-token post.
  for (const auto& r : data.requests) {
    EXPECT_GE(r.n_tokens, 11'000 + 150);
    EXPECT_LE(r.n_tokens, 17'000 + 150);
  }
}

TEST(PostRecTest, RequestsOfOneUserSharePrefix) {
  PostRecommendationConfig config;
  config.n_users = 2;
  config.posts_per_user = 3;
  // Fixed 512-token profile (2 blocks at block 256) + 300-token post: the
  // third chain block is guaranteed to contain post tokens.
  config.profile_min_tokens = 512;
  config.profile_max_tokens = 512;
  config.post_tokens = 300;
  const Dataset data = MakePostRecommendationDataset(config);
  ASSERT_EQ(data.requests.size(), 6u);

  const auto& a = data.requests[0];
  const auto& b = data.requests[1];
  ASSERT_EQ(a.user_id, b.user_id);
  ASSERT_EQ(a.block_hashes.size(), 3u);
  // Shared profile: the two profile blocks equal; the post block differs.
  EXPECT_EQ(a.block_hashes[0], b.block_hashes[0]);
  EXPECT_EQ(a.block_hashes[1], b.block_hashes[1]);
  EXPECT_NE(a.block_hashes[2], b.block_hashes[2]);

  // Different users share nothing.
  const auto& c = data.requests[3];
  ASSERT_NE(a.user_id, c.user_id);
  EXPECT_NE(a.block_hashes[0], c.block_hashes[0]);
}

TEST(PostRecTest, DeterministicAcrossCalls) {
  const Dataset a = MakePostRecommendationDataset({});
  const Dataset b = MakePostRecommendationDataset({});
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].n_tokens, b.requests[i].n_tokens);
    EXPECT_EQ(a.requests[i].block_hashes, b.requests[i].block_hashes);
  }
}

TEST(PostRecTest, KeepTokensPopulatesIds) {
  PostRecommendationConfig config;
  config.n_users = 1;
  config.posts_per_user = 2;
  config.keep_tokens = true;
  const Dataset data = MakePostRecommendationDataset(config);
  for (const auto& r : data.requests) {
    EXPECT_EQ(static_cast<int64_t>(r.tokens.size()), r.n_tokens);
    for (int32_t t : r.tokens) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, config.vocab);
    }
  }
}

// ----------------------------------------------------- Credit verification

TEST(CreditTest, MatchesTable1Shape) {
  const Dataset data = MakeCreditVerificationDataset({});
  EXPECT_EQ(data.requests.size(), 60u);
  EXPECT_EQ(data.UserCount(), 60);
  // Table 1: ~3M tokens total, lengths in [40k, 60k].
  EXPECT_GT(data.TotalTokens(), 2'400'000);
  EXPECT_LT(data.TotalTokens(), 3'600'000);
  for (const auto& r : data.requests) {
    EXPECT_GE(r.n_tokens, 40'000);
    EXPECT_LE(r.n_tokens, 60'000);
  }
}

TEST(CreditTest, NoSharedPrefixes) {
  CreditVerificationConfig config;
  config.n_users = 10;
  const Dataset data = MakeCreditVerificationDataset(config);
  std::set<uint64_t> first_blocks;
  for (const auto& r : data.requests) {
    first_blocks.insert(r.block_hashes[0]);
  }
  EXPECT_EQ(first_blocks.size(), data.requests.size());
}

// ----------------------------------------------------------------- Arrivals

TEST(ArrivalsTest, AllAtOnceZeroes) {
  Dataset data = MakeCreditVerificationDataset({.n_users = 5});
  AssignAllAtOnce(data);
  for (const auto& r : data.requests) {
    EXPECT_EQ(r.arrival_time, 0.0);
  }
}

TEST(ArrivalsTest, PoissonMeanRateApproximatesQps) {
  CreditVerificationConfig config;
  config.n_users = 2000;
  config.min_tokens = 100;
  config.max_tokens = 200;
  Dataset data = MakeCreditVerificationDataset(config);
  const double qps = 10.0;
  AssignPoissonArrivals(data, qps, /*seed=*/3);
  const double makespan = data.requests.back().arrival_time;
  EXPECT_NEAR(static_cast<double>(data.requests.size()) / makespan, qps, 1.0);
  // Nondecreasing arrival order.
  for (size_t i = 1; i < data.requests.size(); ++i) {
    EXPECT_GE(data.requests[i].arrival_time, data.requests[i - 1].arrival_time);
  }
}

TEST(ArrivalsTest, UserBurstsClusterInTime) {
  PostRecommendationConfig config;
  config.n_users = 4;
  config.posts_per_user = 5;
  config.profile_mean_tokens = 500;
  config.profile_min_tokens = 400;
  config.profile_max_tokens = 600;
  Dataset data = MakePostRecommendationDataset(config);
  AssignUserBurstArrivals(data, /*qps=*/20.0, /*seed=*/5, /*intra_burst_gap_s=*/0.01);
  // Within a user: nondecreasing, tightly spaced; across users: distinct
  // session starts.
  std::set<double> starts;
  double prev = -1.0;
  int64_t prev_user = -1;
  for (const auto& r : data.requests) {
    if (r.user_id != prev_user) {
      starts.insert(r.arrival_time);
      prev_user = r.user_id;
    } else {
      EXPECT_GE(r.arrival_time, prev);
      EXPECT_LT(r.arrival_time - prev, 1.0);  // jitter stays small
    }
    prev = r.arrival_time;
  }
  EXPECT_EQ(starts.size(), 4u);

  // The same seed replays the same arrival times, bit for bit.
  Dataset again = MakePostRecommendationDataset(config);
  AssignUserBurstArrivals(again, /*qps=*/20.0, /*seed=*/5, /*intra_burst_gap_s=*/0.01);
  std::vector<double> first_times;
  std::vector<double> again_times;
  for (const auto& r : data.requests) {
    first_times.push_back(r.arrival_time);
  }
  for (const auto& r : again.requests) {
    again_times.push_back(r.arrival_time);
  }
  EXPECT_EQ(first_times, again_times);
}

TEST(ArrivalsTest, ZeroGapRecoversSharedBurstArrival) {
  PostRecommendationConfig config;
  config.n_users = 2;
  config.posts_per_user = 3;
  config.profile_min_tokens = 400;
  config.profile_max_tokens = 600;
  Dataset data = MakePostRecommendationDataset(config);
  AssignUserBurstArrivals(data, 10.0, 5, /*intra_burst_gap_s=*/0.0);
  EXPECT_EQ(data.requests[0].arrival_time, data.requests[1].arrival_time);
  EXPECT_EQ(data.requests[1].arrival_time, data.requests[2].arrival_time);
  EXPECT_NE(data.requests[2].arrival_time, data.requests[3].arrival_time);
}

// --------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, DeterministicAndInRange) {
  HashTokenizer tok(32000, 32);
  const auto a = tok.Encode("Here is the user profile: likes systems papers.");
  const auto b = tok.Encode("Here is the user profile: likes systems papers.");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  for (int32_t t : a) {
    EXPECT_GE(t, 32);
    EXPECT_LT(t, 32000);
  }
}

TEST(TokenizerTest, SharedTextPrefixSharesTokenPrefix) {
  HashTokenizer tok(32000);
  const std::string profile = "user 42 reads distributed systems and databases";
  const auto a = tok.Encode(profile + " . candidate post: cats");
  const auto b = tok.Encode(profile + " . candidate post: compilers");
  const auto prefix_len = tok.Encode(profile).size();
  ASSERT_GT(a.size(), prefix_len);
  for (size_t i = 0; i < prefix_len; ++i) {
    EXPECT_EQ(a[i], b[i]) << "position " << i;
  }
  EXPECT_NE(a.back(), b.back());
}

TEST(TokenizerTest, CaseInsensitive) {
  HashTokenizer tok(1000);
  EXPECT_EQ(tok.TokenFor("Yes"), tok.TokenFor("yes"));
  EXPECT_EQ(tok.Encode("YES no"), tok.Encode("yes NO"));
}

TEST(TokenizerTest, PunctuationIsSeparate) {
  HashTokenizer tok(1000);
  const auto with = tok.Encode("hello, world");
  const auto without = tok.Encode("hello world");
  EXPECT_EQ(with.size(), 3u);
  EXPECT_EQ(without.size(), 2u);
  EXPECT_EQ(with[0], without[0]);
  EXPECT_EQ(with[2], without[1]);
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  HashTokenizer tok(1000);
  EXPECT_TRUE(tok.Encode("").empty());
  EXPECT_TRUE(tok.Encode("   \t\n ").empty());
}

TEST(TokenizerTest, ReservedRangeIsNeverEmitted) {
  HashTokenizer tok(256, 16);
  // Hammer many words; none may fall below the reserved boundary.
  for (int i = 0; i < 500; ++i) {
    const int32_t t = tok.TokenFor("word" + std::to_string(i));
    EXPECT_GE(t, 16);
    EXPECT_LT(t, 256);
  }
}

// ------------------------------------------------------------------ Router

TEST(RouterTest, StickyPerUser) {
  UserRoundRobinRouter router(2);
  const int a = router.Route(10);
  const int b = router.Route(20);
  EXPECT_NE(a, b);  // round robin
  EXPECT_EQ(router.Route(10), a);
  EXPECT_EQ(router.Route(20), b);
  EXPECT_EQ(router.Route(10), a);
}

TEST(RouterTest, RoundRobinBalances) {
  UserRoundRobinRouter router(3);
  int counts[3] = {0, 0, 0};
  for (int64_t user = 0; user < 9; ++user) {
    ++counts[router.Route(user)];
  }
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 3);
}

TEST(RouterTest, AssignmentTableIsBoundedByLruEviction) {
  // ISSUE 8 regression: an unbounded stream of distinct users must not grow
  // the sticky map past max_tracked_users.
  UserRoundRobinRouter router(2, /*max_tracked_users=*/4);
  for (int64_t user = 0; user < 100; ++user) {
    router.Route(user);
    EXPECT_LE(router.tracked_users(), 4u);
  }
  EXPECT_EQ(router.tracked_users(), 4u);
  EXPECT_EQ(router.max_tracked_users(), 4u);
  // The last 4 users are still tracked, so routing them is a no-op on the
  // table; anyone older was forgotten.
  for (int64_t user = 96; user < 100; ++user) {
    router.Route(user);
    EXPECT_EQ(router.tracked_users(), 4u);
  }
}

TEST(RouterTest, RoutingRefreshesRecencySoHotUsersSurvive) {
  UserRoundRobinRouter router(2, /*max_tracked_users=*/2);
  const int hot = router.Route(1);
  router.Route(2);
  // Touch user 1: user 2 is now the LRU entry, so user 3 evicts 2, not 1.
  EXPECT_EQ(router.Route(1), hot);
  router.Route(3);
  EXPECT_EQ(router.Route(1), hot);  // survived: still sticky, no table churn
  EXPECT_EQ(router.tracked_users(), 2u);
}

TEST(RouterTest, EvictedUserReentersRoundRobinLikeANewcomer) {
  UserRoundRobinRouter router(3, /*max_tracked_users=*/1);
  const int first = router.Route(42);   // next_ was 0
  router.Route(7);                      // evicts 42, takes instance 1
  const int again = router.Route(42);   // re-assigned round-robin: instance 2
  EXPECT_EQ(first, 0);
  EXPECT_EQ(again, 2);
  // Stickiness within the tracked window is unaffected by past evictions.
  EXPECT_EQ(router.Route(42), again);
}

}  // namespace
}  // namespace prefillonly
