#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/sched/jct.h"
#include "src/sched/scheduler.h"
#include "tests/engine_backlog.h"

namespace prefillonly {
namespace {

SchedEntry Entry(double arrival, int64_t n_input, int64_t cached_arrival,
                 int64_t cached_now) {
  SchedEntry e;
  e.arrival_time = arrival;
  e.n_input = n_input;
  e.n_cached_at_arrival = cached_arrival;
  e.n_cached_now = cached_now;
  return e;
}

// -------------------------------------------------------------- Estimators

TEST(JctEstimatorTest, ProxyIsCacheMissTokens) {
  CacheMissProxyEstimator proxy;
  EXPECT_EQ(proxy.Estimate(1000, 0), 1000.0);
  EXPECT_EQ(proxy.Estimate(1000, 900), 100.0);
}

TEST(JctEstimatorTest, ProfiledRecoversLinearGroundTruth) {
  // Ground truth jct = 2ms/token_input - 1.5ms/token_cached + 40ms.
  auto measure = [](int64_t n_input, int64_t n_cached) {
    return 0.002 * static_cast<double>(n_input) -
           0.0015 * static_cast<double>(n_cached) + 0.04;
  };
  auto estimator = ProfiledJctEstimator::Profile(measure, 8000, 1000);
  ASSERT_TRUE(estimator.ok());
  EXPECT_GT(estimator.value().r_squared(), 0.999);
  EXPECT_NEAR(estimator.value().Estimate(5500, 2500), measure(5500, 2500), 1e-6);
}

TEST(JctEstimatorTest, ProfiledRejectsBadGrid) {
  auto measure = [](int64_t, int64_t) { return 1.0; };
  EXPECT_FALSE(ProfiledJctEstimator::Profile(measure, 500, 1000).ok());
  EXPECT_FALSE(ProfiledJctEstimator::Profile(measure, 1000, 0).ok());
}

// --------------------------------------------------------------- Policies

TEST(SchedulerTest, FifoPicksEarliestArrival) {
  Scheduler sched(SchedPolicy::kFifo, 0.0, nullptr);
  std::vector<SchedEntry> queue{
      Entry(2.0, 100, 0, 0), Entry(1.0, 900, 0, 0), Entry(3.0, 10, 0, 0)};
  EXPECT_EQ(sched.PickNext(queue, 10.0), 1u);
}

TEST(SchedulerTest, SjfPicksShortestJob) {
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSjfStatic, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 500, 0, 0), Entry(0.0, 100, 0, 0), Entry(0.0, 900, 0, 0)};
  EXPECT_EQ(sched.PickNext(queue, 1.0), 1u);
}

TEST(SchedulerTest, StaticSjfIgnoresFreshCacheState) {
  // Request 0 became fully cached AFTER arrival; static SJF cannot see it.
  CacheMissProxyEstimator proxy;
  Scheduler stale(SchedPolicy::kSjfStatic, 0.0, &proxy);
  Scheduler calibrated(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 1000, 0, 950),  // 50 miss tokens NOW, 1000 at arrival
      Entry(0.0, 400, 0, 0)};
  EXPECT_EQ(stale.PickNext(queue, 1.0), 1u);       // sees 1000 vs 400
  EXPECT_EQ(calibrated.PickNext(queue, 1.0), 0u);  // sees 50 vs 400
}

TEST(SchedulerTest, LambdaAgingPreventsStarvation) {
  // A long job that has waited long enough must win over fresh short jobs
  // (Algorithm 1's - lambda * T_queue term).
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, /*lambda=*/500.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 10000, 0, 0),   // 10k miss tokens, waiting since t=0
      Entry(19.0, 100, 0, 0)};   // tiny job, just arrived
  // At t=19: scores are 10000 - 500*19 = 500 vs 100 - 0 = 100: short wins.
  EXPECT_EQ(sched.PickNext(queue, 19.0), 1u);
  // At t=21: 10000 - 500*21 = -500 vs 100 - 500*2 = -900: short STILL wins
  // (it ages at the same rate); the long job wins once the score gap from
  // arrival-time difference dominates.
  EXPECT_EQ(sched.PickNext(queue, 21.0), 1u);
  std::vector<SchedEntry> queue2{
      Entry(0.0, 10000, 0, 0),
      Entry(25.0, 100, 0, 0)};  // arrives 25s later
  // 10000 - 500*25 = -2500 vs 100: the starved job finally runs.
  EXPECT_EQ(sched.PickNext(queue2, 25.0), 0u);
}

TEST(SchedulerTest, ZeroLambdaNeverAges) {
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 10000, 0, 0), Entry(1000.0, 100, 0, 0)};
  EXPECT_EQ(sched.PickNext(queue, 2000.0), 1u);  // short always wins
}

TEST(SchedulerTest, TieBreaksFifo) {
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(1.0, 100, 0, 0), Entry(2.0, 100, 0, 0)};
  EXPECT_EQ(sched.PickNext(queue, 3.0), 0u);
}

TEST(SchedulerTest, ScoreExposesAlgorithm1) {
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 500.0, &proxy);
  const SchedEntry e = Entry(10.0, 5000, 0, 2000);
  // score = (5000 - 2000) - 500 * (now - 10)
  EXPECT_DOUBLE_EQ(sched.Score(e, 14.0), 3000.0 - 500.0 * 4.0);
}

// ------------------------------------------- Batch admission (ISSUE 4)

TEST(LengthBucketTest, PowerOfTwoBrackets) {
  EXPECT_EQ(LengthBucket(1), 0);
  EXPECT_EQ(LengthBucket(2), 1);
  EXPECT_EQ(LengthBucket(3), 1);
  EXPECT_EQ(LengthBucket(4), 2);
  EXPECT_EQ(LengthBucket(31), 4);
  EXPECT_EQ(LengthBucket(32), 5);
  EXPECT_EQ(LengthBucket(63), 5);
  EXPECT_EQ(LengthBucket(64), 6);
  // Degenerate inputs clamp into the smallest bucket.
  EXPECT_EQ(LengthBucket(0), 0);
  EXPECT_EQ(LengthBucket(-5), 0);
}

TEST(SchedulerBatchTest, SeedIsExactlyThePickNextWinner) {
  CacheMissProxyEstimator proxy;
  for (const BatchPacking packing : {BatchPacking::kFirstFit, BatchPacking::kBucket}) {
    Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy, packing);
    std::vector<SchedEntry> queue{
        Entry(0.0, 500, 0, 0), Entry(0.0, 100, 0, 0), Entry(0.0, 900, 0, 0)};
    const auto batch = sched.PickBatch(queue, 1.0, 4);
    ASSERT_FALSE(batch.empty());
    EXPECT_EQ(batch[0], sched.PickNext(queue, 1.0))
        << "packing=" << BatchPackingName(packing);
  }
}

TEST(SchedulerBatchTest, FillsOnlyFromTheSeedsBucketInScoreOrder) {
  // Legacy kBucket semantics (ISSUE 4), kept selectable for bisection.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy, BatchPacking::kBucket);
  // Seed is the 33-token job (bucket 5, = lengths 32..63): the smallest
  // remaining work in the queue. 40 and 60 share the bucket and join in
  // score order; 900 and 700 do not.
  std::vector<SchedEntry> queue{
      Entry(0.0, 900, 0, 0),  // bucket 9
      Entry(1.0, 40, 0, 0),   // bucket 5
      Entry(2.0, 33, 0, 0),   // bucket 5, best score -> seed
      Entry(3.0, 700, 0, 0),  // bucket 9
      Entry(4.0, 60, 0, 0)};  // bucket 5
  const auto batch = sched.PickBatch(queue, 5.0, 4);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 2u);  // seed
  EXPECT_EQ(batch[1], 1u);  // 40 beats 60
  EXPECT_EQ(batch[2], 4u);
  // max_batch truncates the riders, never the seed.
  const auto pair = sched.PickBatch(queue, 5.0, 2);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0], 2u);
  EXPECT_EQ(pair[1], 1u);
  const auto solo = sched.PickBatch(queue, 5.0, 1);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0], 2u);
}

TEST(SchedulerBatchTest, BucketsJudgeRemainingNotTotalLength) {
  // A 1000-token request with 990 cached has 10 miss tokens — it batches
  // with genuinely short requests, not with other 1000-token ones.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy, BatchPacking::kBucket);
  std::vector<SchedEntry> queue{
      Entry(0.0, 1000, 0, 990),  // 10 miss -> bucket 3
      Entry(1.0, 12, 0, 0),      // bucket 3
      Entry(2.0, 1000, 0, 0)};   // bucket 9
  const auto batch = sched.PickBatch(queue, 3.0, 4);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 0u);
  EXPECT_EQ(batch[1], 1u);
}

TEST(SchedulerBatchTest, AgedLongJobSeedsItsOwnBatchDespiteShortBacklog) {
  // The starvation scenario batching must not reintroduce: a long job aged
  // past the lambda bound seeds the next batch ALONE under the legacy
  // bucket rule (the shorts are in another bucket) — small-batch formation
  // around short jobs cannot keep deferring it, because the seed choice is
  // pure PickNext.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, /*lambda=*/500.0, &proxy,
                  BatchPacking::kBucket);
  // Shorts that arrived soon after the long job: their scores stay ahead
  // (everyone ages at the same rate), so they batch together and the long
  // job waits — the efficient steady state.
  std::vector<SchedEntry> fresh{
      Entry(0.0, 10000, 0, 0),
      Entry(5.0, 100, 0, 0),   // bucket 6
      Entry(5.0, 101, 0, 0)};  // bucket 6
  const auto early = sched.PickBatch(fresh, 6.0, 4);
  ASSERT_EQ(early.size(), 2u);
  EXPECT_EQ(early[0], 1u);
  EXPECT_EQ(early[1], 2u);
  // Shorts arriving 25s later: the long job's accumulated queueing offset
  // (500 * 25 > 10000 - 100) now dominates, it wins the seed, and — being
  // alone in its bucket — runs as a batch of one. Repeated small-batch
  // formation can never keep deferring it.
  std::vector<SchedEntry> aged{
      Entry(0.0, 10000, 0, 0),
      Entry(25.0, 100, 0, 0),
      Entry(25.0, 101, 0, 0)};
  const auto batch = sched.PickBatch(aged, 25.0, 4);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 0u);
}

// --------------------------------- Priority classes + co-batch groups (ISSUE 5)

TEST(SchedulerTest, PriorityClassOverridesPolicyScore) {
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  // SRJF alone would run the 100-token job; the 900-token job's higher
  // class is strict and wins regardless.
  std::vector<SchedEntry> queue{Entry(0.0, 100, 0, 0), Entry(0.0, 900, 0, 0)};
  queue[1].priority = 1;
  EXPECT_EQ(sched.PickNext(queue, 1.0), 1u);
  // Within one class the policy decides again.
  queue[0].priority = 1;
  EXPECT_EQ(sched.PickNext(queue, 1.0), 0u);
  // Negative classes deprioritize below the default.
  std::vector<SchedEntry> demoted{Entry(0.0, 100, 0, 0), Entry(0.0, 900, 0, 0)};
  demoted[0].priority = -1;
  EXPECT_EQ(sched.PickNext(demoted, 1.0), 1u);
}

TEST(SchedulerBatchTest, GroupMatesRideRegardlessOfBucketAndBeforeStrangers) {
  CacheMissProxyEstimator proxy;
  for (const BatchPacking packing : {BatchPacking::kFirstFit, BatchPacking::kBucket}) {
    Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy, packing);
    // Seed: 33 tokens, group 7. Its group-mate has 900 miss tokens — a
    // different bucket, normally unweldable under kBucket — but the caller
    // co-submitted them, so the mate rides in BOTH packing modes, and it
    // outranks the stranger when slots are scarce.
    std::vector<SchedEntry> queue{
        Entry(0.0, 33, 0, 0),    // seed, group 7
        Entry(1.0, 900, 0, 0),   // group 7, bucket 9
        Entry(2.0, 40, 0, 0)};   // ungrouped, seed's bucket
    queue[0].group = 7;
    queue[1].group = 7;
    const auto pair = sched.PickBatch(queue, 3.0, 2);
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_EQ(pair[0], 0u);
    EXPECT_EQ(pair[1], 1u);  // the mate, despite bucket 9
    const auto full = sched.PickBatch(queue, 3.0, 4);
    ASSERT_EQ(full.size(), 3u);
    EXPECT_EQ(full[1], 1u);  // mates first...
    EXPECT_EQ(full[2], 2u);  // ...then strangers
  }
}

TEST(SchedulerBatchTest, UngroupedSeedStillFillsFromItsBucket) {
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy, BatchPacking::kBucket);
  // A stranger's group membership neither blocks nor boosts it when the
  // seed is ungrouped: the bucket rule governs as before.
  std::vector<SchedEntry> queue{
      Entry(0.0, 33, 0, 0),    // seed, ungrouped
      Entry(1.0, 40, 0, 0),    // same bucket, grouped among others
      Entry(2.0, 900, 0, 0)};  // other bucket, same group as [1]
  queue[1].group = 9;
  queue[2].group = 9;
  const auto batch = sched.PickBatch(queue, 3.0, 4);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 0u);
  EXPECT_EQ(batch[1], 1u);
}

// ----------------------- Budget-aware first-fit packing (ISSUE 9)

// A budget in "token units": 1 byte per miss token (optionally per cached
// token) makes the arithmetic readable — budget_bytes is a token count.
BatchBudget TokenBudget(size_t budget_tokens, size_t per_cached = 0) {
  BatchBudget budget;
  budget.budget_bytes = budget_tokens;
  budget.bytes_per_miss_token = 1;
  budget.bytes_per_cached_token = per_cached;
  return budget;
}

TEST(BatchBudgetTest, MissTokensAreBlockAlignedAndNeverZero) {
  BatchBudget budget;
  budget.block_tokens = 16;
  // The engine refreshes n_cached_now as min(match, n_input - 1) = 63, but
  // the prefix AcquirePrefix can really assemble is block-aligned: 48
  // tokens, so 16 rows stack — the projection must not assume 1.
  EXPECT_EQ(budget.CachedTokens(64, 63), 48);
  EXPECT_EQ(budget.MissTokens(64, 63), 16);
  // An over-reported match clamps to n_input - 1 first.
  EXPECT_EQ(budget.MissTokens(64, 64), 16);
  // Fully-aligned reuse passes through.
  EXPECT_EQ(budget.CachedTokens(65, 64), 64);
  EXPECT_EQ(budget.MissTokens(65, 64), 1);
  // At least one row always stacks.
  EXPECT_EQ(budget.MissTokens(1, 0), 1);
  budget.block_tokens = 0;  // no alignment information: trust the caller
  EXPECT_EQ(budget.CachedTokens(64, 63), 63);
  EXPECT_EQ(budget.MissTokens(64, 63), 1);
}

TEST(BatchBudgetTest, SequenceBytesChargesAllThreeRates) {
  BatchBudget budget;
  budget.bytes_per_miss_token = 10;
  budget.bytes_per_cached_token = 2;
  budget.bytes_per_sequence = 100;
  budget.block_tokens = 16;
  // n_input 64, match 63 -> 48 cached, 16 miss.
  EXPECT_EQ(budget.SequenceBytes(64, 63), 16u * 10u + 48u * 2u + 100u);
  EXPECT_EQ(budget.SequenceBytes(8, 0), 8u * 10u + 100u);
}

TEST(SchedulerBatchTest, PackedFillsAnyLengthLongestFirst) {
  // kFirstFit with an unlimited budget: the bucket gate is gone — every
  // waiting entry rides, longest remaining length first (first-fit
  // decreasing), behind the unchanged SRJF seed.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 900, 0, 0), Entry(1.0, 40, 0, 0), Entry(2.0, 33, 0, 0),
      Entry(3.0, 700, 0, 0), Entry(4.0, 60, 0, 0)};
  const BatchPick pick = sched.PickBatch(queue, 5.0, 5, BatchBudget{});
  ASSERT_EQ(pick.picked.size(), 5u);
  EXPECT_EQ(pick.picked[0], 2u);  // seed: best score (33)
  EXPECT_EQ(pick.picked[1], 0u);  // 900
  EXPECT_EQ(pick.picked[2], 3u);  // 700
  EXPECT_EQ(pick.picked[3], 4u);  // 60
  EXPECT_EQ(pick.picked[4], 1u);  // 40
  EXPECT_EQ(pick.miss_tokens, 900 + 700 + 60 + 40 + 33);
  EXPECT_EQ(pick.budget_skips, 0);
}

TEST(SchedulerBatchTest, PackedSkipsOversizedRidersAndStillAdmitsSmallerOnes) {
  // THE ISSUE 9 regression: under the old admission code the first rider
  // that overflowed the budget truncated the whole tail. First-fit must
  // skip the oversized candidates and keep scanning — the 60-token rider
  // fits next to the 33-token seed even though 900 and 700 do not.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 900, 0, 0), Entry(1.0, 40, 0, 0), Entry(2.0, 33, 0, 0),
      Entry(3.0, 700, 0, 0), Entry(4.0, 60, 0, 0)};
  const BatchPick pick = sched.PickBatch(queue, 5.0, 5, TokenBudget(100));
  ASSERT_EQ(pick.picked.size(), 2u);
  EXPECT_EQ(pick.picked[0], 2u);  // seed (33)
  EXPECT_EQ(pick.picked[1], 4u);  // 60 fits: 33 + 60 = 93 <= 100
  EXPECT_EQ(pick.projected_bytes, 93u);
  EXPECT_EQ(pick.miss_tokens, 93);
  // 900 and 700 were skipped before 60; 40 after it (93 + 40 > 100).
  EXPECT_EQ(pick.budget_skips, 3);
}

TEST(SchedulerBatchTest, BucketModeAlsoSkipsInsteadOfTruncatingTheTail) {
  // The same skip-not-break fix must hold in the legacy bucket mode: a
  // better-scored rider whose PROJECTED COST is huge (tiny miss length but
  // a megaprefix of cached tokens to assemble) must not evict the cheap
  // rider behind it from consideration.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy, BatchPacking::kBucket);
  std::vector<SchedEntry> queue{
      Entry(0.0, 33, 0, 0),      // seed: 33 miss, cost 33
      Entry(1.0, 1000, 0, 960),  // 40 miss (bucket 5), cost 40 + 960 = 1000
      Entry(2.0, 60, 0, 0)};     // 60 miss (bucket 5), cost 60
  const BatchPick pick =
      sched.PickBatch(queue, 3.0, 4, TokenBudget(100, /*per_cached=*/1));
  ASSERT_EQ(pick.picked.size(), 2u);
  EXPECT_EQ(pick.picked[0], 0u);
  EXPECT_EQ(pick.picked[1], 2u);  // 33 + 60 = 93 <= 100; the megaprefix skipped
  EXPECT_EQ(pick.budget_skips, 1);
  EXPECT_EQ(pick.projected_bytes, 93u);
}

TEST(SchedulerBatchTest, PackedSeedAlwaysDispatchesEvenOverBudget) {
  // A seed alone over budget still dispatches (it would charge the lane the
  // same bytes running solo); only riders are subject to admission.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{Entry(0.0, 200, 0, 0), Entry(1.0, 300, 0, 0)};
  const BatchPick pick = sched.PickBatch(queue, 2.0, 4, TokenBudget(100));
  ASSERT_EQ(pick.picked.size(), 1u);
  EXPECT_EQ(pick.picked[0], 0u);
  EXPECT_EQ(pick.projected_bytes, 200u);
  EXPECT_EQ(pick.budget_skips, 1);
}

TEST(SchedulerBatchTest, PackedPriorityClassesStillDominateLength) {
  // First-fit decreasing orders riders by length only WITHIN a priority
  // class; a higher class still rides first even when it is shorter.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 0.0, &proxy);
  std::vector<SchedEntry> queue{
      Entry(0.0, 10, 0, 0),    // priority 1: best score in top class -> seed
      Entry(1.0, 500, 0, 0),   // priority 0: longest overall
      Entry(2.0, 100, 0, 0)};  // priority 1
  queue[0].priority = 1;
  queue[2].priority = 1;
  const BatchPick pick = sched.PickBatch(queue, 3.0, 2, BatchBudget{});
  ASSERT_EQ(pick.picked.size(), 2u);
  EXPECT_EQ(pick.picked[0], 0u);
  EXPECT_EQ(pick.picked[1], 2u);  // class beats the 500-token rider
}

TEST(SchedulerBatchTest, PackedAgedLongSeedGetsShortRiders) {
  // The flip side of AgedLongJobSeedsItsOwnBatchDespiteShortBacklog: under
  // first-fit the aged long job still wins the seed (the starvation bound
  // is untouched), but the backlogged shorts now ride WITH it instead of
  // leaving the lane nearly empty.
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, /*lambda=*/500.0, &proxy);
  std::vector<SchedEntry> aged{
      Entry(0.0, 10000, 0, 0),
      Entry(25.0, 100, 0, 0),
      Entry(25.0, 101, 0, 0)};
  const BatchPick pick = sched.PickBatch(aged, 25.0, 4, BatchBudget{});
  ASSERT_EQ(pick.picked.size(), 3u);
  EXPECT_EQ(pick.picked[0], 0u);  // the starved long job still seeds
  EXPECT_EQ(pick.picked[1], 2u);  // 101 before 100: longest first
  EXPECT_EQ(pick.picked[2], 1u);
  EXPECT_EQ(pick.miss_tokens, 10000 + 101 + 100);
}

// ------------------------------------------------- Fig. 5 walkthrough
//
// Four requests A, B, C, D with length A < C < B < D; A and D share a
// prefix, B and C share a prefix; the cache holds only ONE request's KV.
// FIFO and static SRJF each get 1 cache hit; SRJF with continuous
// calibration gets 2 (it notices D's JCT collapse right after A runs).
// This mirrors the paper's Fig. 5 exactly, with the cache dynamics
// emulated deterministically.

struct Fig5Request {
  const char* name;
  int64_t length;
  int group;  // shared-prefix group: 0 = {A, D}, 1 = {B, C}
};

int RunFig5(SchedPolicy policy) {
  // Lengths satisfy A < C < B < D, with the shared prefixes large enough
  // that a cache hit flips the JCT order (D's miss after A = 100 tokens,
  // below C's 350) — the situation Fig. 5 illustrates.
  const Fig5Request requests[] = {
      {"A", 300, 0}, {"B", 380, 1}, {"C", 350, 1}, {"D", 400, 0}};
  CacheMissProxyEstimator proxy;
  Scheduler sched(policy, 0.0, &proxy);

  std::vector<int> remaining{0, 1, 2, 3};
  int cached_group = -1;  // cache holds one request's prefix
  int64_t cached_len = 0;
  int hits = 0;
  double now = 0;
  while (!remaining.empty()) {
    std::vector<SchedEntry> queue;
    for (int idx : remaining) {
      const auto& r = requests[idx];
      const int64_t hit =
          (r.group == cached_group) ? std::min(cached_len, r.length - 1) : 0;
      SchedEntry e = Entry(0.0, r.length, 0, hit);
      // Static policies saw an empty cache at arrival.
      if (policy != SchedPolicy::kSrjfCalibrated) {
        e.n_cached_now = e.n_cached_at_arrival;
      }
      queue.push_back(e);
    }
    const size_t pick = sched.PickNext(queue, now);
    const int idx = remaining[pick];
    const auto& r = requests[idx];
    if (r.group == cached_group && cached_len > 0) {
      ++hits;
    }
    cached_group = r.group;  // tiny cache: last request's prefix only
    cached_len = r.length;
    now += 1.0;
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return hits;
}

TEST(Fig5Test, FifoGetsOneHit) { EXPECT_EQ(RunFig5(SchedPolicy::kFifo), 1); }

TEST(Fig5Test, StaticSrjfGetsOneHit) {
  EXPECT_EQ(RunFig5(SchedPolicy::kSjfStatic), 1);
}

TEST(Fig5Test, CalibratedSrjfGetsTwoHits) {
  EXPECT_EQ(RunFig5(SchedPolicy::kSrjfCalibrated), 2);
}

// ------------------------------------- Scheduling order on the REAL engine
//
// Engine::PickIndex end to end (ISSUE 2): not the simulator — a backlog is
// queued into the concurrent runtime and the policy decides completion
// order. All requests are submitted BEFORE StartWorker and executed by a
// single executor slot, so the order is deterministic.

std::vector<int32_t> EngineTokens(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.NextBounded(256));
  }
  return out;
}

ScoringRequest EngineRequest(std::vector<int32_t> tokens, int64_t user = 0) {
  ScoringRequest request;
  request.user_id = user;
  request.tokens = std::move(tokens);
  request.allowed_tokens = {10, 20};
  return request;
}

EngineOptions OrderTestOptions(SchedPolicy policy, double lambda) {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.policy = policy;
  options.lambda = lambda;
  options.max_concurrent_requests = 1;  // serialize so order is observable
  return options;
}

// Runs the queued backlog through the runtime; returns completion order ids.
std::vector<int64_t> DrainAndCollect(Backlog& backlog) {
  auto responses = backlog.Drain();
  EXPECT_TRUE(responses.ok()) << responses.status().ToString();
  std::vector<int64_t> order;
  if (responses.ok()) {
    for (const ScoringResponse& response : responses.value()) {
      order.push_back(response.request_id);
    }
  }
  return order;
}

TEST(EngineSchedulingOrderTest, FifoCompletesInArrivalOrder) {
  Engine engine(OrderTestOptions(SchedPolicy::kFifo, 0.0));
  Backlog backlog(engine);
  const auto long_id = backlog.Submit(EngineRequest(EngineTokens(120, 1))).value();
  const auto mid_id = backlog.Submit(EngineRequest(EngineTokens(60, 2))).value();
  const auto short_id = backlog.Submit(EngineRequest(EngineTokens(20, 3))).value();
  const auto order = DrainAndCollect(backlog);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], long_id);
  EXPECT_EQ(order[1], mid_id);
  EXPECT_EQ(order[2], short_id);
}

TEST(EngineSchedulingOrderTest, CalibratedSrjfRunsCachedShortJobFirst) {
  Engine engine(OrderTestOptions(SchedPolicy::kSrjfCalibrated, 0.0));
  Backlog backlog(engine);
  // Warm the cache with a 96-token prefix.
  const auto profile = EngineTokens(96, 10);
  auto warm = profile;
  warm.push_back(1);
  ASSERT_TRUE(engine.ScoreSync(EngineRequest(warm, 1)).ok());

  // Backlog: a long uncached job arrives FIRST, then a sibling of the cached
  // prefix (97 tokens input but only ~1 block of cache misses). Calibrated
  // SRJF must complete the cached job ahead of the long one.
  const auto long_id = backlog.Submit(EngineRequest(EngineTokens(120, 11), 2)).value();
  auto sibling = profile;
  sibling.push_back(2);
  sibling.push_back(3);
  const auto sibling_id = backlog.Submit(EngineRequest(sibling, 1)).value();
  const auto order = DrainAndCollect(backlog);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], sibling_id);
  EXPECT_EQ(order[1], long_id);
}

TEST(EngineSchedulingOrderTest, LambdaBoundsQueueingOfTheLongJob) {
  // The same backlog twice: a long job that arrived measurably earlier than
  // a swarm of short jobs. With lambda = 0 pure SRJF starves the long job to
  // the back; with a large lambda its accumulated queueing time outweighs
  // the size difference and it runs first (Algorithm 1's starvation offset).
  for (const double lambda : {0.0, 1e9}) {
    Engine engine(OrderTestOptions(SchedPolicy::kSrjfCalibrated, lambda));
    Backlog backlog(engine);
    const auto long_id = backlog.Submit(EngineRequest(EngineTokens(120, 20), 1)).value();
    // Let the long job age so its queueing-time offset is unambiguous.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<int64_t> short_ids;
    for (int i = 0; i < 3; ++i) {
      short_ids.push_back(
          backlog.Submit(EngineRequest(EngineTokens(20 + i, 30 + i), 2 + i)).value());
    }
    const auto order = DrainAndCollect(backlog);
    ASSERT_EQ(order.size(), 4u);
    if (lambda == 0.0) {
      EXPECT_EQ(order.back(), long_id) << "pure SRJF must run the long job last";
    } else {
      EXPECT_EQ(order.front(), long_id)
          << "the starvation offset must bound the long job's queueing";
    }
  }
}

TEST(EngineSchedulingOrderTest, BatchFormationKeepsTheStarvationBound) {
  // The admission-ordering requirement on the REAL engine (ISSUE 4,
  // re-proven for first-fit packing in ISSUE 9): with batching on, SRJF
  // must not starve a long request behind repeated small-batch formation.
  // The backlog is one aged 120-token job plus four shorts (20..23 tokens,
  // one LengthBucket), drained in batches of up to 2. In BOTH packing
  // modes the seed sequence is identical — packing only changes who RIDES:
  //
  //  * lambda = 0   — seeds are the shorts, the long job scores last.
  //    kBucket: the shorts pair up and the long job runs alone, dead last.
  //    kFirstFit: the long job is the biggest rider, so it is welded into
  //    the FIRST batch behind the short seed — same seed order, better
  //    occupancy, and the long job now finishes EARLIER than the legacy
  //    rule allowed (delivery slot 1 instead of last).
  //  * lambda = 1e9 — arrival order dominates: the aged long job seeds the
  //    first dispatch in both modes (the starvation bound). kBucket leaves
  //    it alone in the lane; kFirstFit gives it the longest short as a
  //    rider.
  //
  // Either way: 5 requests over 3 dispatches, peak batch 2.
  for (const BatchPacking packing : {BatchPacking::kFirstFit, BatchPacking::kBucket}) {
    for (const double lambda : {0.0, 1e9}) {
      EngineOptions options = OrderTestOptions(SchedPolicy::kSrjfCalibrated, lambda);
      options.max_batch_size = 2;
      options.batch_packing = packing;
      Engine engine(options);
      Backlog backlog(engine);
      const auto long_id =
          backlog.Submit(EngineRequest(EngineTokens(120, 40), 1)).value();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      for (int i = 0; i < 4; ++i) {
        // Lengths 20..23 share LengthBucket 4.
        ASSERT_TRUE(
            backlog.Submit(EngineRequest(EngineTokens(20 + i, 50 + i), 2 + i)).ok());
      }
      const auto order = DrainAndCollect(backlog);
      ASSERT_EQ(order.size(), 5u);
      if (lambda == 0.0) {
        if (packing == BatchPacking::kBucket) {
          EXPECT_EQ(order.back(), long_id)
              << "pure SRJF + bucket rule: short batches first, long job last";
        } else {
          EXPECT_EQ(order[1], long_id)
              << "first-fit: the long job rides the first short-seeded batch";
          EXPECT_NE(order.front(), long_id)
              << "packing must not usurp the short seed's win";
        }
      } else {
        EXPECT_EQ(order.front(), long_id)
            << "batch formation must not defer the aged long job";
      }
      const auto stats = engine.stats();
      EXPECT_EQ(stats.completed, 5);
      EXPECT_EQ(stats.batched_requests, 5);
      EXPECT_EQ(stats.batches_dispatched, 3);
      EXPECT_EQ(stats.peak_batch_size, 2);
      // Every miss token of every request went through admission accounting
      // (no prefix reuse in this workload: 5 distinct prompts).
      EXPECT_EQ(stats.batched_miss_tokens, 120 + 20 + 21 + 22 + 23);
      EXPECT_EQ(stats.packing_skips, 0);
    }
  }
}

}  // namespace
}  // namespace prefillonly
