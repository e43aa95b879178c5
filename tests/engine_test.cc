#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/engine/cluster.h"
#include "src/engine/engine_config.h"
#include "src/gpu/memory_model.h"
#include "src/workload/dataset.h"
#include "tests/engine_backlog.h"

namespace prefillonly {
namespace {

// Scaled-down Table 1 datasets: same structure, fewer requests, so the
// whole file runs in well under a second.
Dataset SmallPostRec(uint64_t seed = 1) {
  PostRecommendationConfig config;
  config.n_users = 8;
  config.posts_per_user = 12;
  config.seed = seed;
  return MakePostRecommendationDataset(config);
}

Dataset SmallCredit(uint64_t seed = 2) {
  CreditVerificationConfig config;
  config.n_users = 12;
  config.seed = seed;
  return MakeCreditVerificationDataset(config);
}

ClusterResult RunAt(EngineKind kind, const HardwareSetup& hw, Dataset dataset,
                    double qps, double lambda = 500.0) {
  if (dataset.name == "post-recommendation") {
    AssignUserBurstArrivals(dataset, qps, /*seed=*/11);
  } else {
    AssignPoissonArrivals(dataset, qps, /*seed=*/11);
  }
  EngineConfig config = EngineConfig::Make(kind, hw);
  config.lambda = lambda;
  return RunCluster(config, dataset);
}

// ----------------------------------------------------------- Basic sanity

TEST(ClusterTest, CompletesAllFeasibleRequests) {
  const auto hw = HardwareSetup::H100_Llama70B();
  const auto result = RunAt(EngineKind::kPrefillOnly, hw, SmallPostRec(), 2.0);
  EXPECT_EQ(result.submitted, 96);
  EXPECT_EQ(result.completed, 96);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_GT(result.mean_latency_s, 0.0);
  EXPECT_GE(result.p99_latency_s, result.mean_latency_s);
  EXPECT_GT(result.throughput_rps, 0.0);
}

TEST(ClusterTest, DeterministicReplay) {
  const auto hw = HardwareSetup::L4_Llama8B();
  const auto a = RunAt(EngineKind::kPrefillOnly, hw, SmallPostRec(), 3.0);
  const auto b = RunAt(EngineKind::kPrefillOnly, hw, SmallPostRec(), 3.0);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
}

TEST(ClusterTest, EveryEngineServesPostRecOnH100) {
  const auto hw = HardwareSetup::H100_Llama70B();
  for (EngineKind kind :
       {EngineKind::kChunkedPrefill, EngineKind::kPipelineParallel,
        EngineKind::kTensorParallel, EngineKind::kPrefillOnly}) {
    const auto result = RunAt(kind, hw, SmallPostRec(), 1.0);
    EXPECT_EQ(result.completed, result.submitted) << EngineKindName(kind);
  }
}

// ------------------------------------------------- Table 2 infeasibility

TEST(ClusterTest, PagedAttentionRejectsCreditWorkload) {
  // Paged MIL on H100+70B is ~15k; credit requests are 40k-60k: every one
  // must be rejected (the "x" cells of Table 2).
  const auto hw = HardwareSetup::H100_Llama70B();
  const auto result = RunAt(EngineKind::kPagedAttention, hw, SmallCredit(), 0.1);
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.rejected, result.submitted);
}

TEST(ClusterTest, PrefillOnlyServesCreditEverywhere) {
  for (const auto& hw : HardwareSetup::All()) {
    const auto result = RunAt(EngineKind::kPrefillOnly, hw, SmallCredit(), 0.05);
    EXPECT_EQ(result.completed, result.submitted) << hw.name;
  }
}

// ------------------------------------------- Scheduling & caching effects

TEST(ClusterTest, PrefixCacheHitsHappenWithinUsers) {
  const auto hw = HardwareSetup::H100_Llama70B();
  const auto result = RunAt(EngineKind::kPrefillOnly, hw, SmallPostRec(), 2.0);
  // 11 of 12 requests per user can reuse the profile: hit rate near 90%.
  EXPECT_GT(result.cache_hit_rate, 0.5);
}

TEST(ClusterTest, CalibratedSchedulingBeatsFifoUnderOverlap) {
  // At high QPS user bursts overlap; FIFO interleaves users and thrashes
  // the small cache, calibrated SRJF drains cache-hit requests first.
  const auto hw = HardwareSetup::H100_Llama70B();
  const double qps = 20.0;
  EngineConfig calibrated = EngineConfig::Make(EngineKind::kPrefillOnly, hw);
  EngineConfig fifo = EngineConfig::Make(EngineKind::kPrefillOnly, hw);
  fifo.policy = SchedPolicy::kFifo;

  Dataset dataset = SmallPostRec();
  AssignUserBurstArrivals(dataset, qps, 13);
  const auto with_cal = RunCluster(calibrated, dataset);
  const auto with_fifo = RunCluster(fifo, dataset);
  EXPECT_GE(with_cal.cache_hit_rate, with_fifo.cache_hit_rate);
  EXPECT_LE(with_cal.mean_latency_s, with_fifo.mean_latency_s * 1.05);
}

TEST(ClusterTest, KvDropNaiveNeverHitsCache) {
  const auto hw = HardwareSetup::L4_Llama8B();
  const auto result = RunAt(EngineKind::kKvDropNaive, hw, SmallPostRec(), 1.0);
  EXPECT_EQ(result.cache_hit_rate, 0.0);
  EXPECT_EQ(result.completed, result.submitted);
}

// ------------------------------------------------------- Headline results

TEST(ClusterTest, PrefillOnlyHasHighestSaturatedThroughputOnCredit) {
  // Fig. 8: on the long-context workload PrefillOnly out-throughputs both
  // parallelization baselines, with and without NVLink.
  for (const auto& hw :
       {HardwareSetup::H100_Llama70B(), HardwareSetup::H100_NvLink_Llama70B()}) {
    const double po = MeasureSaturatedThroughput(
        EngineConfig::Make(EngineKind::kPrefillOnly, hw), SmallCredit());
    const double tp = MeasureSaturatedThroughput(
        EngineConfig::Make(EngineKind::kTensorParallel, hw), SmallCredit());
    const double pp = MeasureSaturatedThroughput(
        EngineConfig::Make(EngineKind::kPipelineParallel, hw), SmallCredit());
    EXPECT_GT(po, tp) << hw.name;
    EXPECT_GT(po, pp) << hw.name;
  }
}

TEST(ClusterTest, NvLinkHelpsTensorParallelThroughput) {
  const double pcie = MeasureSaturatedThroughput(
      EngineConfig::Make(EngineKind::kTensorParallel, HardwareSetup::H100_Llama70B()),
      SmallCredit());
  const double nvlink = MeasureSaturatedThroughput(
      EngineConfig::Make(EngineKind::kTensorParallel,
                         HardwareSetup::H100_NvLink_Llama70B()),
      SmallCredit());
  EXPECT_GT(nvlink, pcie);
}

TEST(ClusterTest, TensorParallelHasLowerLatencyAtLowQps) {
  // Fig. 6: at low QPS the parallel baselines can beat PrefillOnly on
  // latency (two GPUs serve one request); PrefillOnly wins on throughput.
  const auto hw = HardwareSetup::H100_NvLink_Llama70B();
  const auto po = RunAt(EngineKind::kPrefillOnly, hw, SmallCredit(), 0.01);
  const auto tp = RunAt(EngineKind::kTensorParallel, hw, SmallCredit(), 0.01);
  EXPECT_LT(tp.mean_latency_s, po.mean_latency_s);
}

TEST(ClusterTest, PrefillOnlyWinsLatencyAtHighQps) {
  const auto hw = HardwareSetup::H100_Llama70B();
  const double saturated = MeasureSaturatedThroughput(
      EngineConfig::Make(EngineKind::kPrefillOnly, hw), SmallCredit());
  const double qps = saturated * 0.9;
  const auto po = RunAt(EngineKind::kPrefillOnly, hw, SmallCredit(), qps);
  const auto tp = RunAt(EngineKind::kTensorParallel, hw, SmallCredit(), qps);
  const auto pp = RunAt(EngineKind::kPipelineParallel, hw, SmallCredit(), qps);
  EXPECT_LT(po.mean_latency_s, tp.mean_latency_s);
  EXPECT_LT(po.mean_latency_s, pp.mean_latency_s);
}

// ----------------------------------------------------------- Offload tier

TEST(ClusterTest, OffloadTierCutsRepeatLatency) {
  const auto hw = HardwareSetup::H100_Llama70B();
  CreditVerificationConfig config;
  config.n_users = 8;
  Dataset base = MakeCreditVerificationDataset(config);
  Dataset doubled = base;
  doubled.requests.clear();
  for (const auto& r : base.requests) {
    doubled.requests.push_back(r);
    SimRequest copy = r;
    copy.id += 100;
    doubled.requests.push_back(std::move(copy));
  }
  AssignPoissonArrivals(doubled, 0.1, 3);

  EngineConfig no_offload = EngineConfig::Make(EngineKind::kPrefillOnly, hw);
  EngineConfig with_offload = no_offload;
  with_offload.offload_bytes = 64e9;

  const auto baseline = RunCluster(no_offload, doubled);
  const auto offloaded = RunCluster(with_offload, doubled);
  EXPECT_EQ(baseline.offload_hit_tokens, 0);
  EXPECT_GT(offloaded.offload_hit_tokens, 0);
  EXPECT_LT(offloaded.mean_latency_s, baseline.mean_latency_s);
  EXPECT_GT(offloaded.cache_hit_rate, baseline.cache_hit_rate);
}

TEST(ClusterTest, OffloadReloadIsNotFree) {
  // A fully offload-served request still pays the PCIe reload: its service
  // time must exceed a pure GPU-cache hit of the same length.
  const auto hw = HardwareSetup::H100_Llama70B();
  EngineConfig config = EngineConfig::Make(EngineKind::kPrefillOnly, hw);
  MemoryModel mem(hw.llm, hw.gpu, config.memory);
  const double kv_per_token = mem.KvBytesPerTokenPerGpu(EngineKind::kPrefillOnly);
  const double reload_50k = 50000.0 * kv_per_token / config.offload_load_bandwidth;
  EXPECT_GT(reload_50k, 0.1);  // hundreds of ms: visible but << recompute
  CostModel cost(hw.llm, hw.gpu, config.cost);
  const double recompute_50k = cost.PrefillTime(50000, 0, PassStrategy::kHybrid, 2048);
  EXPECT_LT(reload_50k, recompute_50k / 10);
}

// ------------------------------------------------------------ Fairness/λ

TEST(ClusterTest, HigherLambdaImprovesTailAtSomeMeanCost) {
  const auto hw = HardwareSetup::H100_Llama70B();
  Dataset dataset = SmallPostRec();
  const double qps = 25.0;  // overloaded: scheduling order matters
  AssignUserBurstArrivals(dataset, qps, 17);

  EngineConfig none = EngineConfig::Make(EngineKind::kPrefillOnly, hw);
  none.lambda = 0.0;
  EngineConfig strong = EngineConfig::Make(EngineKind::kPrefillOnly, hw);
  strong.lambda = 2000.0;

  const auto r_none = RunCluster(none, dataset);
  const auto r_strong = RunCluster(strong, dataset);
  EXPECT_LE(r_strong.max_latency_s, r_none.max_latency_s);
}

// --------------------------------------------------------- PP mechanics

TEST(ClusterTest, PipelineOverlapsRequests) {
  // With two stages, serving n requests takes roughly (n+1) stage times,
  // not 2n: the pipeline must overlap. Compare against a no-overlap bound.
  const auto hw = HardwareSetup::H100_Llama70B();
  Dataset dataset = SmallCredit();
  const auto result = RunAt(EngineKind::kPipelineParallel, hw, dataset, 1000.0);
  ASSERT_EQ(result.completed, result.submitted);
  // Mean latency under saturation is far below completed * full-pass time
  // only if overlap happens; check makespan < sum of all full-pass times.
  double serial_sum = 0.0;
  {
    EngineConfig config = EngineConfig::Make(EngineKind::kPipelineParallel, hw);
    CostModel cost(hw.llm, hw.gpu, config.cost);
    for (const auto& r : dataset.requests) {
      serial_sum += 2.0 * cost.PipelineStageTime(r.n_tokens, 0, 2, hw.link,
                                                 PassStrategy::kStandard, 0);
    }
  }
  EXPECT_LT(result.makespan_s, serial_sum * 0.75);
}

// -------------------------- Request lifecycle on the real engine (ISSUE 5)
//
// These tests submit while the concurrent runtime is stopped: submissions
// stay queued until StartWorker() + StopWorker() drain them, so
// cancel-while-queued and pre-dispatch deadline expiry are exercised
// deterministically, and the engine counters prove exactly what executed.

EngineOptions LifecycleOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  return options;
}

ScoringRequest LifecycleRequest(int seed, int n_tokens = 32) {
  ScoringRequest request;
  for (int i = 0; i < n_tokens; ++i) {
    request.tokens.push_back((seed * 31 + i * 7) % 100 + 1);
  }
  request.allowed_tokens = {3, 4};
  return request;
}

TEST(EngineLifecycleTest, CancelledQueuedRequestNeverExecutes) {
  Engine engine(LifecycleOptions());
  Backlog backlog(engine);
  auto submission = backlog.SubmitHandle(LifecycleRequest(1));
  ASSERT_TRUE(submission.ok());
  EXPECT_EQ(engine.Phase(submission.value().id), Engine::RequestPhase::kQueued);

  ASSERT_TRUE(engine.Cancel(submission.value().id).ok());
  auto result = submission.value().future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.Phase(submission.value().id), Engine::RequestPhase::kUnknown);

  // Draining the queue runs nothing: the counters prove the cancelled
  // request never reached a prefill.
  auto drained = backlog.Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained.value().empty());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.batches_dispatched, 0);
}

TEST(EngineLifecycleTest, CancelUnknownOrFinishedIsNotFound) {
  Engine engine(LifecycleOptions());
  EXPECT_EQ(engine.Cancel(12345).code(), StatusCode::kNotFound);

  Backlog backlog(engine);
  auto submission = backlog.SubmitHandle(LifecycleRequest(2));
  ASSERT_TRUE(submission.ok());
  ASSERT_TRUE(backlog.Drain().ok());
  ASSERT_TRUE(submission.value().future.get().ok());
  // Cancel-after-done: the engine reports kNotFound (terminal results live
  // in the caller's future); the API layer turns this into idempotence.
  EXPECT_EQ(engine.Cancel(submission.value().id).code(), StatusCode::kNotFound);
}

TEST(EngineLifecycleTest, ExpiredDeadlineRejectedAtSubmission) {
  Engine engine(LifecycleOptions());
  ScoringRequest request = LifecycleRequest(3);
  request.deadline_ms = 0;
  auto submitted = SubmitOne(engine, std::move(request));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kDeadlineExceeded);
  // Rejected at the door: it never counted as submitted, let alone ran.
  EXPECT_EQ(engine.stats().submitted, 0);
}

TEST(EngineLifecycleTest, ScoreSyncHonorsExpiredDeadline) {
  // The blocking frontend goes through the same admission as async paths:
  // an already-expired deadline never reaches a prefill here either.
  Engine engine(LifecycleOptions());
  ScoringRequest request = LifecycleRequest(40);
  request.deadline_ms = 0;
  auto response = engine.ScoreSync(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().submitted, 0);
}

TEST(EngineLifecycleTest, LapsedDeadlineFailsBeforeDispatch) {
  Engine engine(LifecycleOptions());
  ScoringRequest request = LifecycleRequest(4);
  request.deadline_ms = 1;
  Backlog backlog(engine);
  auto submission = backlog.SubmitHandle(std::move(request));
  ASSERT_TRUE(submission.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The next scheduling decision purges it instead of prefilling it: the
  // drain delivers exactly one result, the deadline failure.
  auto drained = backlog.DrainResults();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].status().code(), StatusCode::kDeadlineExceeded);
  auto result = submission.value().future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.batches_dispatched, 0);
}

TEST(EngineLifecycleTest, GroupSubmissionCoBatchesAcrossBuckets) {
  EngineOptions options = LifecycleOptions();
  options.max_batch_size = 4;
  Engine engine(options);
  // Three lengths in three different LengthBuckets: probabilistic batching
  // would run them solo; the group co-schedules them deliberately.
  std::vector<ScoringRequest> group;
  group.push_back(LifecycleRequest(10, 16));
  group.push_back(LifecycleRequest(11, 40));
  group.push_back(LifecycleRequest(12, 150));
  auto submitted = engine.SubmitGroupAsync(std::move(group));
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().size(), 3u);
  ASSERT_TRUE(engine.StartWorker().ok());
  engine.StopWorker();
  for (auto& submission : submitted.value()) {
    auto result = submission.future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().batch_size, 3);
  }
  EXPECT_EQ(engine.stats().peak_batch_size, 3);
  EXPECT_EQ(engine.stats().batches_dispatched, 1);
}

TEST(EngineLifecycleTest, GroupAdmissionIsAllOrNothing) {
  Engine engine(LifecycleOptions());
  std::vector<ScoringRequest> group;
  group.push_back(LifecycleRequest(20));
  group.push_back(LifecycleRequest(21));
  group.back().allowed_tokens.clear();  // invalid member
  auto submitted = engine.SubmitGroupAsync(std::move(group));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().submitted, 0);  // the valid member was not admitted
}

TEST(EngineLifecycleTest, HigherPriorityClassRunsFirst) {
  Engine engine(LifecycleOptions());
  ScoringRequest low = LifecycleRequest(30);
  ScoringRequest high = LifecycleRequest(31);
  high.priority = 2;
  Backlog backlog(engine);
  auto low_id = backlog.Submit(std::move(low));
  auto high_id = backlog.Submit(std::move(high));
  ASSERT_TRUE(low_id.ok());
  ASSERT_TRUE(high_id.ok());
  // Equal lengths tie FIFO under SRJF — only the class flips the order.
  auto responses = backlog.Drain();
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses.value().size(), 2u);
  EXPECT_EQ(responses.value()[0].request_id, high_id.value());
  EXPECT_EQ(responses.value()[1].request_id, low_id.value());
}

TEST(EngineLifecycleTest, DestroyedEngineCancelsQueuedRequests) {
  // Queued while the runtime is stopped and never drained: destroying the
  // engine must deliver a Status, not a broken promise, and fire the hook.
  std::atomic<int> hook_calls{0};
  std::atomic<int> hook_code{-1};
  Engine::ResponseFuture future;
  {
    Engine engine(LifecycleOptions());
    auto submitted = SubmitOne(engine, LifecycleRequest(50),
                               [&](size_t, const Result<ScoringResponse>& result) {
                                 ++hook_calls;
                                 hook_code = static_cast<int>(result.status().code());
                               });
    ASSERT_TRUE(submitted.ok());
    future = std::move(submitted.value().future);
    EXPECT_EQ(hook_calls.load(), 0);
  }
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(hook_code.load(), static_cast<int>(StatusCode::kCancelled));
}

}  // namespace
}  // namespace prefillonly
