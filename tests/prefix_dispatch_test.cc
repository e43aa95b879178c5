// Prefix-aware dispatch: never compute a shared uncached prefix twice at
// once (docs/CONCURRENCY.md, "Prefix-aware dispatch").
//
//  * PrefixAwareSchedulerTest.* — the policy rules on hand-built queues:
//    runnable before blocked inside a priority class, work conservation,
//    at most one rider per share_key (group-mates included), and warm
//    riders before cold ones with first-fit decreasing inside each tier;
//  * PrefixDispatchEngineTest.* — the same rules on the real engine, where
//    the engine computes share_key/blocked from the live cache and its
//    in-flight registry, plus Engine::CheckInvariants after every drain;
//  * LaneAccountingTest.* — a lane's wall time counts once per batch;
//  * ChaosPrefixDispatchTest.* — the seeded multi-site fault schedules over
//    shared-prefix traffic: the registry must drain on every failure path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/sched/jct.h"
#include "src/sched/scheduler.h"
#include "tests/engine_backlog.h"

namespace prefillonly {
namespace {

// ------------------------------------------------------------ scheduler

SchedEntry Entry(double arrival, int64_t n_input, int64_t cached_now = 0,
                 uint64_t share_key = 0, bool blocked = false) {
  SchedEntry e;
  e.arrival_time = arrival;
  e.n_input = n_input;
  e.n_cached_at_arrival = cached_now;
  e.n_cached_now = cached_now;
  e.share_key = share_key;
  e.blocked = blocked;
  return e;
}

TEST(PrefixAwareSchedulerTest, RunnableBeatsBlockedInsideAClass) {
  // The 10-token entry scores best but its prefix is being computed by an
  // in-flight batch; the runnable 500-token entry runs instead.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{Entry(0.0, 10, 0, 7, /*blocked=*/true),
                                Entry(1.0, 500), Entry(2.0, 600)};
  EXPECT_EQ(sched.PickNext(queue, 3.0), 1u);
  queue[0].blocked = false;
  EXPECT_EQ(sched.PickNext(queue, 3.0), 0u);
}

TEST(PrefixAwareSchedulerTest, WholeClassBlockedStillDispatchesItsBestEntry) {
  // Work-conserving: when every entry of the top class is blocked, the
  // best-scored blocked one still runs — a lane never idles — and a
  // runnable entry of a LOWER class does not jump the strict class order.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{Entry(0.0, 500, 0, 7, true), Entry(1.0, 20, 0, 8, true),
                                Entry(2.0, 5)};
  queue[0].priority = 1;
  queue[1].priority = 1;
  EXPECT_EQ(sched.PickNext(queue, 3.0), 1u);
  const BatchPick pick = sched.PickBatch(queue, 3.0, 4, BatchBudget{});
  ASSERT_FALSE(pick.picked.empty());
  EXPECT_EQ(pick.picked[0], 1u) << "the blocked seed is still admitted";
  // Riders obey the prefix rule: the other blocked entry waits, the
  // runnable low-class one rides.
  ASSERT_EQ(pick.picked.size(), 2u);
  EXPECT_EQ(pick.picked[1], 2u);
  EXPECT_EQ(pick.prefix_waits, 1);
}

TEST(PrefixAwareSchedulerTest, PriorityStillDominatesBlocking) {
  // A blocked high-priority entry beats every runnable lower-class entry.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{Entry(0.0, 5), Entry(1.0, 900, 0, 7, true)};
  queue[1].priority = 2;
  EXPECT_EQ(sched.PickNext(queue, 2.0), 1u);
}

TEST(PrefixAwareSchedulerTest, AtMostOneRiderPerShareKey) {
  // Keys 7 and 9 each name one uncached prefix; 0 means "nothing to share"
  // and never collides. The seed carries key 7.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 10, 0, 7),   // seed: best score
      Entry(1.0, 500, 0, 7),  // same uncached prefix as the seed: waits
      Entry(2.0, 400, 0, 9),  // rides, claims key 9
      Entry(3.0, 300, 0, 9),  // duplicate of the rider above: waits
      Entry(4.0, 200),        // rides
      Entry(5.0, 100),        // rides
      Entry(6.0, 50, 0, 11, /*blocked=*/true)};  // in flight elsewhere: waits
  const BatchPick pick = sched.PickBatch(queue, 7.0, 8, BatchBudget{});
  EXPECT_EQ(pick.picked, (std::vector<size_t>{0, 2, 4, 5}));
  EXPECT_EQ(pick.prefix_waits, 3);
  EXPECT_EQ(pick.budget_skips, 0);
  EXPECT_EQ(pick.miss_tokens, 10 + 400 + 200 + 100);
}

TEST(PrefixAwareSchedulerTest, GroupMatesSharingAnUncachedPrefixSplit) {
  // Group-mates ride first, but the prefix rule binds them too: the mate
  // sharing the seed's uncached prefix waits to run warm, the mate with its
  // own prefix rides.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{Entry(0.0, 10, 0, 7), Entry(1.0, 60, 0, 7),
                                Entry(2.0, 70, 0, 8), Entry(3.0, 900)};
  for (size_t i = 0; i < 3; ++i) {
    queue[i].group = 4;
  }
  const BatchPick pick = sched.PickBatch(queue, 4.0, 3, BatchBudget{});
  EXPECT_EQ(pick.picked, (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(pick.prefix_waits, 1);
}

TEST(PrefixAwareSchedulerTest, WarmRidersBeforeColdWithFirstFitDecreasingInEach) {
  // First-fit riders split into a warm tier (a reusable cached prefix) and
  // a cold tier; each is ordered longest remaining length first.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 10),             // seed: 10 miss
      Entry(1.0, 500),            // cold, 500 miss
      Entry(2.0, 200, 160),       // warm, 40 miss
      Entry(3.0, 300),            // cold, 300 miss
      Entry(4.0, 400, 100)};      // warm, 300 miss
  const BatchPick pick = sched.PickBatch(queue, 5.0, 5, BatchBudget{});
  EXPECT_EQ(pick.picked, (std::vector<size_t>{0, 4, 2, 1, 3}));
  // With room for two riders only the warm tier rides.
  const BatchPick small = sched.PickBatch(queue, 5.0, 3, BatchBudget{});
  EXPECT_EQ(small.picked, (std::vector<size_t>{0, 4, 2}));
}

// --------------------------------------------------------------- engine

std::vector<int32_t> Tokens(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.NextBounded(256));
  }
  return out;
}

ScoringRequest YesNoRequest(std::vector<int32_t> tokens, int64_t user) {
  ScoringRequest request;
  request.user_id = user;
  request.tokens = std::move(tokens);
  request.allowed_tokens = {10, 20};
  return request;
}

EngineOptions DispatchOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.chunk_size = 32;
  options.num_threads = 2;
  options.max_batch_size = 4;
  return options;
}

constexpr int kUsers = 3;
constexpr int kPostsPerUser = 4;
constexpr int64_t kProfileTokens = 32;  // two 16-token blocks

// 3 users x 4 posts: each post is its user's 32-token profile plus a
// distinct 8..14-token tail, so the profile is the only reusable prefix
// (n_input - 1 < 48 keeps the tail's block out of reach). user_id indexes
// the request.
std::vector<ScoringRequest> SharedProfileRequests() {
  std::vector<ScoringRequest> requests;
  for (int u = 0; u < kUsers; ++u) {
    const std::vector<int32_t> profile = Tokens(kProfileTokens, 100 + u);
    for (int p = 0; p < kPostsPerUser; ++p) {
      std::vector<int32_t> tokens = profile;
      const std::vector<int32_t> tail =
          Tokens(8 + (u * kPostsPerUser + p) % 7, 200 + u * kPostsPerUser + p);
      tokens.insert(tokens.end(), tail.begin(), tail.end());
      requests.push_back(YesNoRequest(std::move(tokens), u * kPostsPerUser + p));
    }
  }
  return requests;
}

// Solo ScoreSync reference, one request at a time on a serial engine.
std::vector<std::vector<TokenProbability>> SoloReference(
    const std::vector<ScoringRequest>& requests) {
  EngineOptions options = DispatchOptions();
  options.num_threads = 1;
  options.max_batch_size = 1;
  Engine engine(options);
  std::vector<std::vector<TokenProbability>> expected;
  for (const ScoringRequest& request : requests) {
    auto response = engine.ScoreSync(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    expected.push_back(response.ok() ? response.value().probabilities
                                     : std::vector<TokenProbability>{});
  }
  return expected;
}

::testing::AssertionResult SameBits(const std::vector<TokenProbability>& a,
                                    const std::vector<TokenProbability>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].token != b[i].token ||
        std::memcmp(&a[i].probability, &b[i].probability, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "probability " << i << ": " << a[i].probability << " vs "
             << b[i].probability;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PrefixDispatchEngineTest, DrainComputesEachSharedProfileOnce) {
  // One lane, batches of up to 4, a cold cache: the first batch takes one
  // post per user — a second post of the same user would recompute the
  // same profile — and every later post reuses its published profile.
  const std::vector<ScoringRequest> requests = SharedProfileRequests();
  const auto expected = SoloReference(requests);

  Engine engine(DispatchOptions());
  Backlog backlog(engine);
  for (const ScoringRequest& request : requests) {
    ASSERT_TRUE(backlog.Submit(request).ok());
  }
  ASSERT_TRUE(engine.CheckInvariants().ok()) << "queued work counts in the ledger";
  auto responses = backlog.Drain();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses.value().size(), requests.size());
  int cold = 0;
  for (const ScoringResponse& response : responses.value()) {
    const auto index = static_cast<size_t>(response.user_id);
    EXPECT_TRUE(SameBits(response.probabilities, expected[index])) << "request " << index;
    if (response.n_cached == 0) {
      ++cold;
    } else {
      EXPECT_EQ(response.n_cached, kProfileTokens);
    }
  }
  EXPECT_EQ(cold, kUsers) << "each profile is computed exactly once";
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, kUsers * kPostsPerUser);
  EXPECT_GT(stats.prefix_waits, 0);
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
}

TEST(PrefixDispatchEngineTest, TwoLaneRuntimeKeepsBitsAndInvariants) {
  // The concurrent runtime: two lanes, so the second decision sees the
  // first batch's profiles in flight and prefers runnable work. Bits must
  // match solo, and the ledger must balance at every delivery, not only
  // after the drain.
  const std::vector<ScoringRequest> requests = SharedProfileRequests();
  const auto expected = SoloReference(requests);

  EngineOptions options = DispatchOptions();
  options.max_concurrent_requests = 2;
  Engine engine(options);
  std::mutex mu;
  std::vector<ScoringResponse> responses;
  std::vector<std::string> violations;
  auto hook = [&](size_t, const Result<ScoringResponse>& response) {
    const Status invariants = engine.CheckInvariants();
    std::lock_guard<std::mutex> lock(mu);
    if (!invariants.ok()) {
      violations.push_back(invariants.ToString());
    }
    if (response.ok()) {
      responses.push_back(response.value());
    } else {
      violations.push_back(response.status().ToString());
    }
  };
  for (const ScoringRequest& request : requests) {
    ASSERT_TRUE(SubmitOne(engine, request, hook).ok());
  }
  ASSERT_TRUE(engine.StartWorker().ok());
  engine.StopWorker();
  EXPECT_TRUE(violations.empty()) << violations.front();
  ASSERT_EQ(responses.size(), requests.size());
  for (const ScoringResponse& response : responses) {
    const auto index = static_cast<size_t>(response.user_id);
    EXPECT_TRUE(SameBits(response.probabilities, expected[index])) << "request " << index;
  }
  EXPECT_EQ(engine.stats().completed, kUsers * kPostsPerUser);
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
}

TEST(LaneAccountingTest, TotalExecuteCountsABatchOnce) {
  // Four unrelated requests drain as one batch of 4. Every member reports
  // the batch's wall time as its execute_time_s; the engine's lane time
  // counts that wall time once, not once per member.
  Engine engine(DispatchOptions());
  Backlog backlog(engine);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(backlog.Submit(YesNoRequest(Tokens(40 + i, 300 + i), i)).ok());
  }
  auto responses = backlog.Drain();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses.value().size(), 4u);
  double member_sum = 0.0;
  double member_max = 0.0;
  for (const ScoringResponse& response : responses.value()) {
    EXPECT_EQ(response.batch_size, 4);
    member_sum += response.execute_time_s;
    member_max = std::max(member_max, response.execute_time_s);
  }
  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.batches_dispatched, 1);
  EXPECT_GE(stats.total_execute_s, member_max);
  EXPECT_LT(stats.total_execute_s, member_sum);
}

// ---------------------------------------------------------------- chaos

// The seeded multi-site schedules of the chaos suite, replayed over
// shared-profile traffic on two lanes: whatever faults fire (acquisition,
// arena, forced miss), every dispatched prefix must leave the registry and the
// ledger must balance once the runtime drains. A refused acquisition only
// runs its member cold, so only an arena fault may fail a request.
void RunSharedProfileSchedule(const std::string& schedule) {
  SCOPED_TRACE(schedule);
  FaultScope scope(schedule);
  EngineOptions options = DispatchOptions();
  options.max_concurrent_requests = 2;
  options.cache_budget_tokens = 128;  // small: keeps eviction pressure on
  Engine engine(options);
  ASSERT_TRUE(engine.StartWorker().ok());
  std::vector<Engine::ResponseFuture> futures;
  for (int round = 0; round < 2; ++round) {
    for (const ScoringRequest& request : SharedProfileRequests()) {
      auto submitted = SubmitOne(engine, request);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(submitted.value().future));
    }
  }
  const bool arena_faults = schedule.find(fault::kAllocActivation) != std::string::npos;
  for (auto& future : futures) {
    auto result = future.get();
    if (!result.ok()) {
      EXPECT_TRUE(arena_faults) << result.status().ToString();
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << result.status().ToString();
    }
  }
  engine.StopWorker();
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
  EXPECT_EQ(engine.stats().submitted, static_cast<int64_t>(futures.size()));
  EXPECT_GT(engine.stats().faults_injected, 0);
}

TEST(ChaosPrefixDispatchTest, MultiSiteSchedulesDrainTheRegistry) {
  for (const char* schedule :
       {"seed=1;alloc.kv_block=p0.2;cache.force_miss=p0.3",
        "seed=2;alloc.activation=@3,7",
        "seed=3;alloc.kv_block=n5;cache.force_miss=n2"}) {
    RunSharedProfileSchedule(schedule);
  }
}

}  // namespace
}  // namespace prefillonly
