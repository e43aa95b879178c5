// Multi-replica serving suite (ISSUE 8): prefix-affinity routing,
// health-gated failover, per-replica circuit breakers, and draining.
//
// Three kinds of tests live here:
//  * AffinityRouterTest.* — the consistent-hash ring in isolation
//    (determinism, first-block keying, minimal disruption);
//  * ReplicaSetTest.* — fault-free cluster behavior: bitwise-identical
//    scoring through the router, affinity concentration, drain/rejoin;
//  * Chaos*.* — seeded fault schedules (src/common/fault.h) driving the
//    breaker state machine, queued-work failover, the monitor thread, and
//    shed hysteresis. These carry the `chaos` ctest label (CMakeLists.txt)
//    and run as their own CI job alongside tests/chaos_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "prefillonly/client.h"
#include "src/cluster/affinity_router.h"
#include "src/cluster/replica_set.h"
#include "src/common/fault.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/request.h"

namespace prefillonly {
namespace {

EngineOptions TinyClusterEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.mode = PrefillMode::kChunked;
  options.chunk_size = 32;
  options.num_threads = 2;
  return options;
}

// Fault-free cluster defaults: monitor disabled so no thread races the
// assertions; tests that exercise the monitor opt back in explicitly.
ReplicaSetOptions TinyClusterOptions(int n_replicas) {
  ReplicaSetOptions options;
  options.n_replicas = n_replicas;
  options.engine = TinyClusterEngineOptions();
  options.health_poll_ms = 0;
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
  request.allowed_tokens = {10, 20};
  return request;
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

int64_t Terminal(const EngineStats& stats) {
  return stats.completed + stats.failed + stats.cancelled +
         stats.cancelled_in_flight + stats.deadline_expired +
         stats.deadline_expired_in_flight;
}

// A prompt whose affinity primary is `target` under `ref`: vary the seed
// until the first block hashes there (deterministic, converges in a few
// tries for any reasonable replica count).
std::vector<int32_t> TokensWithPrimary(const AffinityRouter& ref, int target,
                                       int block_size, int64_t n = 48) {
  for (uint64_t seed = 1;; ++seed) {
    std::vector<int32_t> tokens = Tokens(n, seed);
    if (ref.Primary(AffinityKey(tokens, block_size)) == target) {
      return tokens;
    }
  }
}

// ------------------------------------------------- consistent-hash router

TEST(AffinityRouterTest, KeyHashesExactlyTheFirstCacheBlock) {
  const std::vector<int32_t> tokens = Tokens(48, 7);
  const int block = 16;
  // The key is the same chain hash the PrefixCache uses for the first block.
  EXPECT_EQ(AffinityKey(tokens, block),
            HashTokenBlock(kFnvOffset, std::span<const int32_t>(tokens).first(16)));
  // Suffix tokens beyond the first block never move the key...
  std::vector<int32_t> suffix_changed = tokens;
  suffix_changed[20] += 1;
  EXPECT_EQ(AffinityKey(tokens, block), AffinityKey(suffix_changed, block));
  // ...while any first-block token does.
  std::vector<int32_t> prefix_changed = tokens;
  prefix_changed[3] += 1;
  EXPECT_NE(AffinityKey(tokens, block), AffinityKey(prefix_changed, block));
  // Prompts shorter than a block hash whatever they have.
  const std::vector<int32_t> stub(tokens.begin(), tokens.begin() + 5);
  EXPECT_EQ(AffinityKey(stub, block),
            HashTokenBlock(kFnvOffset, std::span<const int32_t>(stub)));
}

TEST(AffinityRouterTest, RingIsDeterministicAndOrderIsAPermutation) {
  const AffinityRouter a(4, 64);
  const AffinityRouter b(4, 64);  // same parameters => same ring, any process
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    const uint64_t key = rng.NextU64();
    EXPECT_EQ(a.Primary(key), b.Primary(key));
    const std::vector<int> order = a.PreferenceOrder(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], a.Primary(key));
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
  }
}

TEST(AffinityRouterTest, AddingAReplicaOnlyMovesKeysToTheNewReplica) {
  // Consistent hashing's whole point: growing 3 -> 4 replicas may steal a
  // key for the newcomer, but never reshuffles keys among the old three.
  const AffinityRouter three(3, 64);
  const AffinityRouter four(4, 64);
  Rng rng(13);
  int moved = 0;
  for (int i = 0; i < 512; ++i) {
    const uint64_t key = rng.NextU64();
    const int before = three.Primary(key);
    const int after = four.Primary(key);
    if (after != before) {
      EXPECT_EQ(after, 3) << "key moved between pre-existing replicas";
      ++moved;
    }
  }
  // The newcomer owns roughly a quarter of the keyspace.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 512 / 2);
}

// ---------------------------------------------------- fault-free ReplicaSet

TEST(ReplicaSetTest, ScoreMatchesSingleEngineBitwise) {
  const ScoringRequest request = YesNoRequest(Tokens(48, 3));

  Engine reference(TinyClusterEngineOptions());
  const auto expected = reference.ScoreSync(request);
  ASSERT_TRUE(expected.ok());

  ReplicaSet set(TinyClusterOptions(3));
  ASSERT_EQ(set.n_replicas(), 3);
  const auto result = set.Score(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameBits(result.value().probabilities, expected.value().probabilities));
}

TEST(ReplicaSetTest, SamePrefixConcentratesOnItsPrimaryReplica) {
  ReplicaSetOptions options = TinyClusterOptions(3);
  ReplicaSet set(options);
  const AffinityRouter ref(3, options.vnodes_per_replica);

  // Four prefix families, three requests each: same first block, different
  // suffixes. Blocking submission keeps every queue empty, so no spill.
  std::vector<int64_t> expected_per_replica(3, 0);
  for (uint64_t family = 1; family <= 4; ++family) {
    std::vector<int32_t> base = Tokens(48, family);
    const int primary =
        ref.Primary(AffinityKey(base, options.engine.block_size));
    for (int32_t variant = 0; variant < 3; ++variant) {
      std::vector<int32_t> tokens = base;
      tokens[30] = 100 + variant;  // past the first block: key unchanged
      ASSERT_TRUE(set.Score(YesNoRequest(std::move(tokens))).ok());
      ++expected_per_replica[static_cast<size_t>(primary)];
    }
  }

  const ClusterStats stats = set.Stats();
  EXPECT_EQ(stats.cluster.routed_affinity, 12);
  EXPECT_EQ(stats.cluster.routed_spill, 0);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(stats.replicas[static_cast<size_t>(r)].engine.submitted,
              expected_per_replica[static_cast<size_t>(r)])
        << "replica " << r;
  }
}

TEST(ReplicaSetTest, DrainStopsAdmissionAndRejoinRestores) {
  ReplicaSetOptions options = TinyClusterOptions(2);
  ReplicaSet set(options);
  const AffinityRouter ref(2, options.vnodes_per_replica);
  const std::vector<int32_t> tokens =
      TokensWithPrimary(ref, /*target=*/0, options.engine.block_size);

  ASSERT_TRUE(set.Drain(0).ok());
  ASSERT_TRUE(set.Drain(0).ok());  // idempotent
  EXPECT_EQ(set.Health(), Engine::HealthStatus::kDegraded);
  {
    const auto replicas = set.Replicas();
    EXPECT_TRUE(replicas[0].draining);
    EXPECT_TRUE(replicas[0].drained);  // nothing was outstanding
    EXPECT_FALSE(replicas[0].admitting);
    EXPECT_TRUE(replicas[1].admitting);
  }

  // Affinity says replica 0; draining reroutes to its ring successor.
  ASSERT_TRUE(set.Score(YesNoRequest(tokens)).ok());
  EXPECT_EQ(set.engine(0).stats().submitted, 0);
  EXPECT_EQ(set.engine(1).stats().submitted, 1);
  EXPECT_EQ(set.Replicas()[1].counters.routed_spill, 1);

  ASSERT_TRUE(set.Rejoin(0).ok());
  EXPECT_EQ(set.Health(), Engine::HealthStatus::kOk);
  ASSERT_TRUE(set.Score(YesNoRequest(tokens)).ok());
  EXPECT_EQ(set.engine(0).stats().submitted, 1);
  EXPECT_EQ(set.Replicas()[0].counters.routed_affinity, 1);

  // Drain EVERY replica: the cluster stops admitting entirely — the
  // /v1/health 503 shape — and submissions fail structurally, kUnavailable.
  ASSERT_TRUE(set.Drain(0).ok());
  ASSERT_TRUE(set.Drain(1).ok());
  EXPECT_EQ(set.Health(), Engine::HealthStatus::kOverloaded);
  auto rejected = set.Submit(YesNoRequest(tokens));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(set.Stats().cluster.unavailable_rejections, 1);

  // Out-of-range admin indexes are rejected, not UB.
  EXPECT_FALSE(set.Drain(7).ok());
  EXPECT_FALSE(set.Rejoin(-1).ok());
}

TEST(ReplicaSetTest, ClusterIdsResolveAcrossTheWholeLifecycle) {
  ReplicaSet set(TinyClusterOptions(2));
  auto submission = set.Submit(YesNoRequest(Tokens(48, 5)));
  ASSERT_TRUE(submission.ok());
  const int64_t id = submission.value().id;
  ASSERT_TRUE(submission.value().future.get().ok());
  // Finished => the record is gone: Phase says unknown, Cancel says so too.
  EXPECT_EQ(set.Phase(id), Engine::RequestPhase::kUnknown);
  EXPECT_EQ(set.Cancel(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(set.Cancel(999999).code(), StatusCode::kNotFound);
}

TEST(ReplicaSetTest, ReplicasShareOneComputePool) {
  // Every replica's model forks on ONE pool, as wide as the replicas'
  // private pools would be together: N * (num_threads - 1) spawned workers
  // plus the calling thread. num_threads = 1 stays serial.
  for (const int threads : {1, 2}) {
    ReplicaSetOptions options = TinyClusterOptions(3);
    options.engine.num_threads = threads;
    ReplicaSet set(options);
    const ThreadPool* pool = set.engine(0).model().thread_pool();
    ASSERT_NE(pool, nullptr);
    for (int r = 1; r < set.n_replicas(); ++r) {
      EXPECT_EQ(set.engine(r).model().thread_pool(), pool) << "replica " << r;
    }
    EXPECT_EQ(pool->num_threads(), 3 * (threads - 1) + 1) << "num_threads " << threads;
  }
}

TEST(ReplicaSetTest, SharedPoolKeepsBitsAcrossConcurrentReplicas) {
  // Requests on both replicas of a 2 x 2-lane set run at once, each fork
  // taking whatever of the shared pool is idle; every result must equal a
  // serial standalone engine's, bit for bit.
  ReplicaSetOptions options = TinyClusterOptions(2);
  options.engine.max_concurrent_requests = 2;
  const AffinityRouter ref(2, options.vnodes_per_replica);
  constexpr int kPerReplica = 4;
  std::vector<ScoringRequest> requests;
  std::vector<int> per_replica(2, 0);
  for (uint64_t seed = 1; requests.size() < 2 * kPerReplica; ++seed) {
    std::vector<int32_t> tokens = Tokens(64 + static_cast<int64_t>(seed % 5) * 16, seed);
    const int primary = ref.Primary(AffinityKey(tokens, options.engine.block_size));
    if (per_replica[static_cast<size_t>(primary)] < kPerReplica) {
      ++per_replica[static_cast<size_t>(primary)];
      requests.push_back(YesNoRequest(std::move(tokens)));
    }
  }

  EngineOptions serial = TinyClusterEngineOptions();
  serial.num_threads = 1;
  Engine reference(serial);
  std::vector<Result<ScoringResponse>> expected;
  for (const ScoringRequest& request : requests) {
    expected.push_back(reference.ScoreSync(request));
    ASSERT_TRUE(expected.back().ok()) << expected.back().status().ToString();
  }

  ReplicaSet set(options);
  std::vector<ReplicaSet::Submission> submissions;
  for (const ScoringRequest& request : requests) {
    auto submission = set.Submit(request);
    ASSERT_TRUE(submission.ok()) << submission.status().ToString();
    submissions.push_back(submission.take());
  }
  for (size_t i = 0; i < submissions.size(); ++i) {
    const auto result = submissions[i].future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(SameBits(result.value().probabilities, expected[i].value().probabilities))
        << "request " << i;
  }
  const ClusterStats stats = set.Stats();
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(stats.replicas[static_cast<size_t>(r)].engine.completed, 0)
        << "replica " << r;
  }
}

// Every EngineStats field set by hand to `unit` times its own power of two
// (bit 0, 1, 2, ... in declaration order); `*n_fields` receives the count.
// A new field belongs here too.
EngineStats DistinctStats(int64_t unit, int* n_fields) {
  EngineStats s;
  int bit = 0;
  const auto next = [&] { return unit << bit++; };
  s.submitted = next();
  s.completed = next();
  s.failed = next();
  s.cancelled = next();
  s.cancelled_in_flight = next();
  s.deadline_expired = next();
  s.deadline_expired_in_flight = next();
  s.abort_checks = next();
  s.shed = next();
  s.watchdog_stalls = next();
  s.faults_injected = next();
  s.total_execute_s = static_cast<double>(next());
  s.peak_in_flight = next();
  s.batches_dispatched = next();
  s.batched_requests = next();
  s.peak_batch_size = next();
  s.batched_miss_tokens = next();
  s.packing_skips = next();
  s.prefix_waits = next();
  s.peak_activation_bytes = static_cast<size_t>(next());
  s.cache_bytes = static_cast<size_t>(next());
  s.cache.lookups = next();
  s.cache.hit_tokens = next();
  s.cache.lookup_tokens = next();
  s.cache.evictions = next();
  s.cache.insertions = next();
  s.cache.failed_acquires = next();
  s.offload_bytes = static_cast<size_t>(next());
  s.offload_hit_tokens = next();
  s.offload_demotions = next();
  s.offload_promotions = next();
  s.offload_evictions = next();
  s.offload_read_hits = next();
  s.offload_read_misses = next();
  *n_fields = bit;
  return s;
}

TEST(ReplicaSetTest, StatsMergeFollowsEachCounterRule) {
  // Two replicas' worth of stats, every field distinct, the first replica
  // larger everywhere: sum (3x), max (2x) and the last replica's reading
  // (1x) are three different totals.
  int n_fields = 0;
  const EngineStats first = DistinctStats(2, &n_fields);
  const EngineStats second = DistinctStats(1, &n_fields);
  EngineStats totals;
  MergeEngineStats(totals, first);
  MergeEngineStats(totals, second);

  // The list names every field exactly once: the powers of two sum to
  // 2^n - 1 only then.
  int listed = 0;
  double listed_sum = 0.0;
  ForEachEngineCounter(
      [&](const char* /*key*/, StatMerge /*merge*/, const auto& value) {
        ++listed;
        listed_sum += static_cast<double>(value);
      },
      second);
  EXPECT_EQ(listed, n_fields);
  EXPECT_EQ(listed_sum, std::ldexp(1.0, n_fields) - 1.0);

  // The merge rules, pinned by name: per-lane peaks max, the process-global
  // fault count is taken once, everything else sums — peak_in_flight
  // included, as the cluster's capacity view.
  ForEachEngineCounter(
      [&](const char* key, StatMerge /*merge*/, const auto& total, const auto& a,
          const auto& b) {
        const std::string name = key;
        if (name == "peak_batch_size" || name == "peak_activation_bytes") {
          EXPECT_EQ(total, std::max(a, b)) << name;
        } else if (name == "faults_injected") {
          EXPECT_EQ(total, b) << name;
        } else {
          EXPECT_EQ(total, a + b) << name;
        }
      },
      totals, first, second);
  EXPECT_EQ(totals.peak_in_flight, first.peak_in_flight + second.peak_in_flight);
  EXPECT_EQ(totals.peak_batch_size, first.peak_batch_size);
  EXPECT_EQ(totals.faults_injected, second.faults_injected);
}

// ------------------------------------------------ breaker + failover chaos

TEST(ChaosClusterTest, HandoffFaultTripsBreakerThenHalfOpenProbeRecloses) {
  ReplicaSetOptions options = TinyClusterOptions(3);
  options.breaker_trip_failures = 1;  // one strike opens
  options.breaker_open_ms = 50;
  const AffinityRouter ref(3, options.vnodes_per_replica);
  const std::vector<int32_t> tokens = Tokens(48, 9);
  const int primary =
      ref.Primary(AffinityKey(tokens, options.engine.block_size));

  Engine reference(TinyClusterEngineOptions());
  const auto expected = reference.ScoreSync(YesNoRequest(tokens));
  ASSERT_TRUE(expected.ok());

  ReplicaSet set(options);
  FaultScope scope("replica.submit=@1");

  // Hit 1 fires: the hand-off to the primary fails, its breaker trips, and
  // the SAME submission retries the next ring candidate — the caller only
  // ever sees a bitwise-golden success.
  const auto first = set.Score(YesNoRequest(tokens));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(SameBits(first.value().probabilities, expected.value().probabilities));
  {
    const ClusterStats stats = set.Stats();
    EXPECT_EQ(stats.cluster.breaker_trips, 1);
    EXPECT_EQ(stats.cluster.routed_spill, 1);
    EXPECT_EQ(stats.cluster.routed_affinity, 0);
    const auto& sick = stats.replicas[static_cast<size_t>(primary)];
    EXPECT_EQ(sick.breaker, BreakerState::kOpen);
    EXPECT_FALSE(sick.admitting);
    EXPECT_EQ(sick.counters.admit_failures, 1);
    EXPECT_EQ(sick.engine.submitted, 0);
  }

  // After breaker_open_ms the next same-key submission is admitted to the
  // primary as the half-open probe; its success closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  const auto second = set.Score(YesNoRequest(tokens));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(SameBits(second.value().probabilities, expected.value().probabilities));
  {
    const ClusterStats stats = set.Stats();
    EXPECT_EQ(stats.cluster.half_open_probes, 1);
    const auto& healed = stats.replicas[static_cast<size_t>(primary)];
    EXPECT_EQ(healed.breaker, BreakerState::kClosed);
    EXPECT_TRUE(healed.admitting);
    EXPECT_EQ(healed.engine.submitted, 1);
    EXPECT_EQ(healed.counters.routed_affinity, 1);
  }
}

TEST(ChaosClusterTest, TrippedReplicaFailsOverQueuedWorkExactlyOnce) {
  ReplicaSetOptions options = TinyClusterOptions(3);
  options.engine.max_concurrent_requests = 1;  // one lane => real queueing
  options.spill_margin = 1000;                 // stickiness absolute
  const AffinityRouter ref(3, options.vnodes_per_replica);
  const std::vector<int32_t> base =
      TokensWithPrimary(ref, /*target=*/1, options.engine.block_size);

  // Golden results per request, from a solo engine before any faults.
  constexpr int kRequests = 6;
  std::vector<std::vector<int32_t>> prompts;
  std::vector<std::vector<TokenProbability>> golden;
  {
    Engine reference(TinyClusterEngineOptions());
    for (int32_t i = 0; i < kRequests; ++i) {
      std::vector<int32_t> tokens = base;
      tokens[40] = 100 + i;  // same first block, distinct request
      const auto expected = reference.ScoreSync(YesNoRequest(tokens));
      ASSERT_TRUE(expected.ok());
      golden.push_back(expected.value().probabilities);
      prompts.push_back(std::move(tokens));
    }
  }

  ReplicaSet set(options);
  // Wedge the FIRST execution for 100 ms: request 1 dispatches on the
  // primary and stalls, requests 2..6 stack up queued behind its one lane.
  FaultScope scope("exec.stall=x1;stall_ms=100");
  std::vector<Engine::ResponseFuture> futures;
  for (auto& prompt : prompts) {
    auto submission = set.Submit(YesNoRequest(prompt));
    ASSERT_TRUE(submission.ok());
    futures.push_back(std::move(submission.value().future));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(set.Trip(1, "test kill switch").ok());

  // Every future resolves with the exact solo-engine bits: the queued five
  // were withdrawn and re-ran elsewhere, the dispatched one finished where
  // it was — nothing hung, nothing ran twice, nobody saw the failure.
  for (int i = 0; i < kRequests; ++i) {
    const auto result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    EXPECT_TRUE(SameBits(result.value().probabilities,
                         golden[static_cast<size_t>(i)]))
        << "request " << i;
  }

  const ClusterStats stats = set.Stats();
  // 5 queued requests moved (6 if the trip won the race to request 1 too).
  EXPECT_GE(stats.cluster.failovers, 5);
  EXPECT_LE(stats.cluster.failovers, 6);
  EXPECT_EQ(stats.totals.completed, kRequests);          // no double execution
  EXPECT_EQ(stats.totals.cancelled, stats.cluster.failovers);  // withdrawals
  EXPECT_EQ(stats.replicas[1].breaker, BreakerState::kOpen);
  EXPECT_EQ(stats.replicas[1].counters.failed_over_out, stats.cluster.failovers);
  int64_t failed_over_in = 0;
  for (const ReplicaSnapshot& replica : stats.replicas) {
    // Balance holds per replica: everything admitted reached a terminal
    // bucket on the replica that admitted it.
    EXPECT_EQ(replica.engine.submitted, Terminal(replica.engine))
        << "replica " << replica.index;
    failed_over_in += replica.counters.failed_over_in;
  }
  EXPECT_EQ(failed_over_in, stats.cluster.failovers);
  // ...and summed across the cluster.
  EXPECT_EQ(stats.totals.submitted, Terminal(stats.totals));
}

TEST(ChaosClusterTest, MonitorHealthFaultsTripOnlyTheSickReplica) {
  ReplicaSetOptions options = TinyClusterOptions(3);
  options.health_poll_ms = 5;
  options.health_trip_failures = 2;
  options.breaker_open_ms = 40;
  const AffinityRouter ref(3, options.vnodes_per_replica);

  // The monitor fires `replica.health` once per replica per tick in replica
  // order, so hit (tick-1)*3 + replica + 1 probes `replica` at `tick`:
  // @2,5 fails replica 1 on ticks 1 and 2 — a streak of 2, tripping it —
  // and never touches replicas 0 and 2.
  FaultScope scope("replica.health=@2,5");
  ReplicaSet set(options);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (set.Stats().cluster.breaker_trips == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    const ClusterStats stats = set.Stats();
    ASSERT_EQ(stats.cluster.breaker_trips, 1) << "monitor never tripped";
    EXPECT_NE(stats.replicas[1].breaker, BreakerState::kClosed);
    EXPECT_EQ(stats.replicas[0].breaker, BreakerState::kClosed);
    EXPECT_EQ(stats.replicas[2].breaker, BreakerState::kClosed);
  }

  // The same monitor walks the breaker open -> half-open once the window
  // lapses; a request keyed to the sick replica is then its probe, and
  // success recloses it. No operator action anywhere.
  while (set.Replicas()[1].breaker == BreakerState::kOpen &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(set.Replicas()[1].breaker, BreakerState::kHalfOpen);
  const std::vector<int32_t> tokens =
      TokensWithPrimary(ref, /*target=*/1, options.engine.block_size);
  ASSERT_TRUE(set.Score(YesNoRequest(tokens)).ok());
  const ClusterStats stats = set.Stats();
  EXPECT_EQ(stats.replicas[1].breaker, BreakerState::kClosed);
  EXPECT_EQ(stats.cluster.half_open_probes, 1);
  EXPECT_EQ(stats.cluster.breaker_trips, 1);  // no re-trip after healing
}

// ------------------------------------------- degradation chaos (satellite)

TEST(ChaosDegradeClusterTest, ShedHysteresisNeverFlapsAndClusterBalances) {
  ReplicaSetOptions options = TinyClusterOptions(2);
  options.engine.num_threads = 1;
  options.engine.max_concurrent_requests = 1;
  options.engine.shed_high_watermark = 3;  // low defaults to high/2 = 1
  options.spill_margin = 1000000;          // no load spill
  options.breaker_trip_failures = 1000000;  // shed strikes must not trip
  const AffinityRouter ref(2, options.vnodes_per_replica);
  const std::vector<int32_t> prefix_a =
      TokensWithPrimary(ref, /*target=*/0, options.engine.block_size);
  const std::vector<int32_t> prefix_b =
      TokensWithPrimary(ref, /*target=*/1, options.engine.block_size);

  ReplicaSet set(options);
  // Wedge each replica's first execution for 80 ms, then firehose both
  // prefix families: queues blow past the high watermark on both replicas
  // while the lanes are stuck, so both engines engage shedding.
  FaultScope scope("exec.stall=x2;stall_ms=80");
  std::vector<Engine::ResponseFuture> accepted;
  int64_t rejected = 0;
  for (int32_t i = 0; i < 15; ++i) {
    for (const auto* base : {&prefix_a, &prefix_b}) {
      std::vector<int32_t> tokens = *base;
      tokens[44] = i;
      auto submission = set.Submit(YesNoRequest(std::move(tokens)));
      if (submission.ok()) {
        accepted.push_back(std::move(submission.value().future));
      } else {
        // Saturation propagates honestly as the 429 shape, not 503: every
        // replica was TRIED and refused with resource_exhausted.
        EXPECT_EQ(submission.status().code(), StatusCode::kResourceExhausted);
        ++rejected;
      }
    }
  }
  ASSERT_GT(rejected, 0) << "load never saturated the cluster";
  EXPECT_EQ(set.engine(0).Health(), Engine::HealthStatus::kOverloaded);
  EXPECT_EQ(set.engine(1).Health(), Engine::HealthStatus::kOverloaded);
  EXPECT_EQ(set.Health(), Engine::HealthStatus::kOverloaded);

  // Hysteresis: sample each engine while the backlog drains. Once a
  // replica leaves kOverloaded it must never re-enter it (no submissions
  // are arriving, so a re-entry could only be watermark flapping).
  std::vector<bool> was_ok(2, false);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    bool all_ok = true;
    for (int r = 0; r < 2; ++r) {
      const bool overloaded =
          set.engine(r).Health() == Engine::HealthStatus::kOverloaded;
      ASSERT_FALSE(overloaded && was_ok[static_cast<size_t>(r)])
          << "replica " << r << " flapped back to overloaded";
      if (!overloaded) {
        was_ok[static_cast<size_t>(r)] = true;
      }
      all_ok = all_ok && !overloaded;
    }
    if (all_ok) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(was_ok[0] && was_ok[1]) << "backlog never drained";

  // Every accepted request completes; the books balance per replica and
  // summed across the cluster, with shed requests never entering
  // `submitted` (they were refused, not admitted).
  for (auto& future : accepted) {
    const auto result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  const ClusterStats stats = set.Stats();
  EXPECT_EQ(set.Health(), Engine::HealthStatus::kOk);
  EXPECT_GT(stats.totals.shed, 0);
  EXPECT_EQ(stats.cluster.breaker_trips, 0);
  for (const ReplicaSnapshot& replica : stats.replicas) {
    EXPECT_EQ(replica.breaker, BreakerState::kClosed);
    EXPECT_EQ(replica.engine.submitted, Terminal(replica.engine))
        << "replica " << replica.index;
  }
  EXPECT_EQ(stats.totals.submitted, Terminal(stats.totals));
  EXPECT_EQ(stats.totals.completed, static_cast<int64_t>(accepted.size()));
}

// --------------------------------------------- facade retry (satellite)

TEST(ChaosClientTest, RetryPolicyAbsorbsClusterUnavailable) {
  ClientOptions options;
  options.model = "tiny";
  options.block_size = 16;
  options.n_replicas = 2;
  options.retry.max_retries = 2;
  options.retry.initial_backoff_ms = 1;
  options.retry.retry_after_floor_ms = 40;
  options.retry.jitter_seed = 7;
  Client client(options);
  const std::vector<int32_t> tokens = Tokens(48, 21);

  // Hits 1 and 2 are the first submission's hand-offs to BOTH replicas:
  // the cluster answers "unavailable" (the 503 analogue). The facade's
  // retry honors the Retry-After floor and the second attempt sails through.
  FaultScope scope("replica.submit=@1,2");
  const auto start = std::chrono::steady_clock::now();
  const ScoreResult result = client.Score(tokens, {10, 20});
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(result.ok) << result.error_code << ": " << result.error_message;
  EXPECT_EQ(client.Stats().client_retries, 1);
  EXPECT_GE(elapsed.count(), 40);
}

TEST(ChaosClientTest, WithoutRetriesClusterUnavailableSurfacesStructured) {
  ClientOptions options;
  options.model = "tiny";
  options.block_size = 16;
  options.n_replicas = 2;  // max_retries defaults to 0: fail fast
  Client client(options);

  FaultScope scope("replica.submit=@1,2");
  const ScoreResult result = client.Score(Tokens(48, 22), {10, 20});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "unavailable");
  EXPECT_NE(result.error_message.find("replica"), std::string::npos);
  EXPECT_EQ(client.Stats().client_retries, 0);
}

}  // namespace
}  // namespace prefillonly
