// Concurrent serving runtime tests (ISSUE 2).
//
// Proves the two contracts of the multi-request executor:
//  1. DETERMINISM — a request's logits (hence its constrained probabilities)
//     are bitwise identical whether it ran on 1, 4, or all workers, alone or
//     alongside other requests, at in-flight counts {1, 2, 4};
//  2. ACCOUNTING — under N client threads hammering SubmitGroupAsync, no
//     request is lost or double-completed and the stats counters sum.
// Plus the ThreadPool's per-call worker borrowing under concurrent callers
// and the checked-misuse errors of the runtime lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/request.h"
#include "tests/engine_backlog.h"

namespace prefillonly {
namespace {

EngineOptions TinyEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.chunk_size = 32;
  // A fixed pool width so every machine (including the 1-core CI container)
  // exercises the same partition arithmetic.
  options.num_threads = 4;
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

// Bitwise comparison of two probability lists — the determinism contract is
// exact, not approximate.
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

// --------------------------------------------------- ThreadPool partitions

TEST(ThreadPoolTest, ConcurrentCallersVisitEveryIndexOnce) {
  // Two client threads issue ParallelFor calls at the same time, each
  // borrowing whatever workers the other left idle; every call must cover
  // its range exactly once.
  ThreadPool pool(8);
  constexpr int kClients = 2;
  constexpr int kRounds = 50;
  constexpr int64_t kN = 4096;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &failures] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> visits(kN);
        pool.ParallelFor(kN, /*grain=*/64, [&](int64_t b, int64_t e, int worker) {
          if (worker < 0 || worker >= pool.num_threads()) {
            ++failures;
          }
          for (int64_t i = b; i < e; ++i) {
            visits[static_cast<size_t>(i)].fetch_add(1);
          }
        });
        for (int64_t i = 0; i < kN; ++i) {
          if (visits[static_cast<size_t>(i)].load() != 1) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolTest, IdlePoolLendsEveryWorker) {
  // With the pool idle, a ParallelFor spreads across all workers.
  ThreadPool pool(4);
  std::set<int> seen;
  std::mutex mu;
  pool.ParallelFor(400, /*grain=*/1, [&](int64_t, int64_t, int worker) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(worker);
  });
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ThreadPoolTest, ForkSplitsByTheThreadsItGot) {
  // Every shard of one fork sees the same shard count: the caller plus the
  // workers idle when it forked. A fork inside a fork finds fewer of them.
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<int, int>> outer;
  std::vector<std::pair<int, int>> inner;
  pool.Fork(2, [&](int shard, int shards) {
    {
      std::lock_guard<std::mutex> lock(mu);
      outer.emplace_back(shard, shards);
    }
    if (shard == 0) {
      pool.Fork(4, [&](int s, int n) {
        std::lock_guard<std::mutex> lock(mu);
        inner.emplace_back(s, n);
      });
    }
  });
  std::sort(outer.begin(), outer.end());
  std::sort(inner.begin(), inner.end());
  EXPECT_EQ(outer, (std::vector<std::pair<int, int>>{{0, 2}, {1, 2}}));
  EXPECT_EQ(inner, (std::vector<std::pair<int, int>>{{0, 3}, {1, 3}, {2, 3}}));
}

// ----------------------------------------------- Determinism under load

// Reference probabilities computed serially on a single-thread engine.
std::vector<std::vector<TokenProbability>> ReferenceProbabilities(
    const std::vector<ScoringRequest>& requests) {
  EngineOptions options = TinyEngineOptions();
  options.num_threads = 1;  // exact legacy serial execution
  Engine engine(options);
  std::vector<std::vector<TokenProbability>> out;
  for (const auto& request : requests) {
    auto response = engine.ScoreSync(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    out.push_back(response.value().probabilities);
  }
  return out;
}

TEST(ConcurrencyTest, BitwiseIdenticalAcrossInFlightCounts) {
  // 8 distinct requests; expected bits from the serial single-thread engine.
  std::vector<ScoringRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(YesNoRequest(Tokens(40 + 11 * i, 1000 + i), i));
  }
  const auto expected = ReferenceProbabilities(requests);

  for (int in_flight : {1, 2, 4}) {
    EngineOptions options = TinyEngineOptions();
    options.max_concurrent_requests = in_flight;
    Engine engine(options);
    ASSERT_TRUE(engine.StartWorker().ok());

    // One client thread per request so submissions and executions overlap.
    std::vector<Engine::ResponseFuture> futures(requests.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests.size(); ++i) {
      clients.emplace_back([&engine, &requests, &futures, i] {
        auto submitted = SubmitOne(engine, requests[i]);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures[i] = std::move(submitted.value().future);
      });
    }
    for (auto& t : clients) {
      t.join();
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      auto response = futures[i].get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response.value().user_id, static_cast<int64_t>(i));
      EXPECT_TRUE(SameBits(response.value().probabilities, expected[i]))
          << "request " << i << " at in-flight " << in_flight;
    }
    engine.StopWorker();
    const auto stats = engine.stats();
    EXPECT_LE(stats.peak_in_flight, in_flight);
  }
}

TEST(ConcurrencyTest, ScoreSyncLaneMatchesBitsWhileRuntimeRuns) {
  // The synchronous bypass lane runs alongside dispatched requests and must
  // produce the same bits as the serial reference.
  std::vector<ScoringRequest> requests = {YesNoRequest(Tokens(64, 7), 7)};
  const auto expected = ReferenceProbabilities(requests);

  EngineOptions options = TinyEngineOptions();
  options.max_concurrent_requests = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.StartWorker().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(SubmitOne(engine, YesNoRequest(Tokens(50 + i, 2000 + i), 100 + i)).ok());
  }
  auto inline_response = engine.ScoreSync(requests[0]);
  ASSERT_TRUE(inline_response.ok());
  EXPECT_TRUE(SameBits(inline_response.value().probabilities, expected[0]));
  engine.StopWorker();
  EXPECT_EQ(engine.stats().completed, 5);
}

// ------------------------------------------- Batched + concurrent (ISSUE 4)

TEST(ConcurrencyTest, BatchedRuntimeKeepsBitsAndAccounting) {
  // In-flight {2, 4} lanes, each running batches of up to {1, 2, 4}: every
  // request's probabilities must match the serial solo reference bitwise,
  // and no request may be lost or double-completed. Lengths 33..55 share
  // one LengthBucket, so a backlog submitted before StartWorker guarantees
  // real (>= 2) batches whenever max_batch_size > 1.
  constexpr int kRequests = 12;
  std::vector<ScoringRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    requests.push_back(YesNoRequest(Tokens(33 + 2 * i, 7000 + i), i));
  }
  const auto expected = ReferenceProbabilities(requests);

  for (int in_flight : {2, 4}) {
    for (int max_batch : {1, 2, 4}) {
      EngineOptions options = TinyEngineOptions();
      options.max_concurrent_requests = in_flight;
      options.max_batch_size = max_batch;
      Engine engine(options);

      // Backlog first, runtime second: the first dispatch decisions see the
      // whole queue and can form full batches.
      Backlog backlog(engine);
      std::vector<Engine::ResponseFuture> futures;
      for (const auto& request : requests) {
        auto submitted = backlog.SubmitHandle(request);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures.push_back(std::move(submitted.value().future));
      }
      ASSERT_TRUE(engine.StartWorker().ok());

      std::set<int64_t> response_ids;
      for (size_t i = 0; i < futures.size(); ++i) {
        auto response = futures[i].get();
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_EQ(response.value().user_id, static_cast<int64_t>(i));
        EXPECT_TRUE(SameBits(response.value().probabilities, expected[i]))
            << "request " << i << " at in-flight " << in_flight << " max_batch "
            << max_batch;
        EXPECT_GE(response.value().batch_size, 1);
        EXPECT_LE(response.value().batch_size, max_batch);
        EXPECT_TRUE(response_ids.insert(response.value().request_id).second)
            << "request completed twice";
      }
      engine.StopWorker();

      std::vector<int64_t> delivered_ids;
      for (const Result<ScoringResponse>& response : backlog.Take()) {
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        delivered_ids.push_back(response.value().request_id);
      }
      std::set<int64_t> delivered_set(delivered_ids.begin(), delivered_ids.end());
      EXPECT_EQ(delivered_ids.size(), static_cast<size_t>(kRequests));
      EXPECT_EQ(delivered_set, response_ids);

      const auto stats = engine.stats();
      EXPECT_EQ(stats.completed, kRequests);
      EXPECT_EQ(stats.failed, 0);
      EXPECT_EQ(stats.batched_requests, kRequests);
      EXPECT_LE(stats.peak_batch_size, max_batch);
      EXPECT_LE(stats.peak_in_flight, in_flight);
      if (max_batch == 1) {
        EXPECT_EQ(stats.batches_dispatched, kRequests);  // exact legacy
      } else {
        EXPECT_GE(stats.peak_batch_size, 2)
            << "deep same-bucket backlog must form a real batch";
        EXPECT_LT(stats.batches_dispatched, kRequests);
      }
    }
  }
}

// -------------------------------------- Paged prefix reads under churn

TEST(PagedPrefixConcurrencyTest, HitsReadPinnedBlocksWhileTiersChurn) {
  // A lane reads its prefix hit in place, without cache_mu_: the GPU-tier
  // blocks it pinned and the offloaded ones it promoted. Meanwhile the
  // other lanes evict, demote and promote around it: shared profiles make
  // hits, and each round's unique inserts push a small cache over its
  // budget. Every response must match a solo cold run bitwise, and the
  // tiers must balance after the drain.
  constexpr int kRounds = 3;
  constexpr int kPerRound = 12;
  std::vector<ScoringRequest> requests;
  for (int i = 0; i < kRounds * kPerRound; ++i) {
    std::vector<int32_t> tokens;
    if (i % 3 == 2) {
      tokens = Tokens(64, 9200 + i);  // unique: evicts, and demotes what it evicts
    } else {
      tokens = Tokens(48, 9000 + i % 4);  // one of four shared 3-block profiles
      for (const int32_t t : Tokens(8 + i % 5, 9100 + i)) {
        tokens.push_back(t);
      }
    }
    requests.push_back(YesNoRequest(std::move(tokens), i));
  }
  std::vector<std::vector<TokenProbability>> cold;
  {
    EngineOptions options = TinyEngineOptions();
    options.cache_budget_tokens = 0;  // every request a solo cold run
    Engine engine(options);
    for (const auto& request : requests) {
      auto response = engine.ScoreSync(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      cold.push_back(response.value().probabilities);
    }
  }

  EngineOptions options = TinyEngineOptions();
  options.max_concurrent_requests = 4;
  // 24 blocks: room for four lanes' pins (at most 4 blocks each) next to
  // about three profiles and one unique prefix.
  options.cache_budget_tokens = 384;
  options.cpu_offload_budget_tokens = 512;
  Engine engine(options);
  ASSERT_TRUE(engine.StartWorker().ok());
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Engine::ResponseFuture> futures(kPerRound);
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&engine, &requests, &futures, round, c] {
        for (int i = c; i < kPerRound; i += 4) {
          auto submitted = SubmitOne(engine, requests[round * kPerRound + i]);
          ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
          futures[static_cast<size_t>(i)] = std::move(submitted.value().future);
        }
      });
    }
    for (auto& t : clients) {
      t.join();
    }
    for (int i = 0; i < kPerRound; ++i) {
      const int id = round * kPerRound + i;
      auto response = futures[static_cast<size_t>(i)].get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(SameBits(response.value().probabilities, cold[static_cast<size_t>(id)]))
          << "request " << id << " n_cached " << response.value().n_cached << " (offload "
          << response.value().n_cached_offload << ")";
    }
  }
  engine.StopWorker();
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, kRounds * kPerRound);
  EXPECT_GT(stats.cache.evictions, 0);
  EXPECT_GT(stats.offload_demotions, 0);
  EXPECT_GT(stats.offload_hit_tokens, 0);
  EXPECT_GT(stats.offload_promotions, 0);
}

TEST(PagedPrefixConcurrencyTest, PinnedPoolRunsMembersColdInsteadOfFailing) {
  // Four lanes of up to two members each would pin 32-48 blocks of a
  // 10-block pool at once, so most acquisitions cannot reserve their
  // blocks. Such a member runs cold instead of failing: every response is
  // OK and bitwise equal to a solo cold run, and no pin outlives the drain.
  constexpr int kRequests = 24;
  std::vector<ScoringRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    // 4, 5 or 6 whole blocks plus a partial one, all unique.
    requests.push_back(YesNoRequest(Tokens(64 + 16 * (i % 3) + 1 + i % 7, 9500 + i), i));
  }
  std::vector<std::vector<TokenProbability>> cold;
  {
    EngineOptions options = TinyEngineOptions();
    options.cache_budget_tokens = 0;  // every request a solo cold run
    Engine engine(options);
    for (const auto& request : requests) {
      auto response = engine.ScoreSync(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      cold.push_back(response.value().probabilities);
    }
  }

  EngineOptions options = TinyEngineOptions();
  options.max_concurrent_requests = 4;
  options.max_batch_size = 2;
  options.cache_budget_tokens = 160;  // 10 blocks
  Engine engine(options);
  // Backlog first, so the first decisions fill every lane with a batch.
  Backlog backlog(engine);
  std::vector<Engine::ResponseFuture> futures;
  for (const auto& request : requests) {
    auto submitted = backlog.SubmitHandle(request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted.value().future));
  }
  ASSERT_TRUE(engine.StartWorker().ok());
  for (int i = 0; i < kRequests; ++i) {
    auto response = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(response.ok()) << "request " << i << ": " << response.status().ToString();
    EXPECT_TRUE(SameBits(response.value().probabilities, cold[static_cast<size_t>(i)]))
        << "request " << i << " n_cached " << response.value().n_cached;
  }
  engine.StopWorker();
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GT(stats.cache.failed_acquires, 0) << "no member ran cold";
}

// ------------------------------------------------- Accounting under load

TEST(ConcurrencyTest, NoRequestLostOrDoubleCompleted) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  EngineOptions options = TinyEngineOptions();
  options.max_concurrent_requests = 4;
  Engine engine(options);
  Backlog backlog(engine);
  ASSERT_TRUE(engine.StartWorker().ok());

  std::mutex futures_mu;
  std::vector<std::pair<int64_t, Engine::ResponseFuture>> futures;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto request =
            YesNoRequest(Tokens(30 + 5 * i + c, 3000 + c * 100 + i), c * 100 + i);
        auto submitted = backlog.SubmitHandle(std::move(request));
        ASSERT_TRUE(submitted.ok());
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.emplace_back(c * 100 + i, std::move(submitted.value().future));
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }

  // Every future resolves with its own request (user_id round-trips).
  std::set<int64_t> response_ids;
  for (auto& [user, future] : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().user_id, user);
    EXPECT_TRUE(response_ids.insert(response.value().request_id).second)
        << "request id " << response.value().request_id << " completed twice";
  }
  EXPECT_EQ(response_ids.size(), static_cast<size_t>(kClients * kPerClient));

  engine.StopWorker();

  // Hook deliveries: exactly one per request, no duplicates, none lost.
  std::vector<int64_t> delivered_ids;
  for (const Result<ScoringResponse>& response : backlog.Take()) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    delivered_ids.push_back(response.value().request_id);
  }
  std::set<int64_t> delivered_set(delivered_ids.begin(), delivered_ids.end());
  EXPECT_EQ(delivered_ids.size(), static_cast<size_t>(kClients * kPerClient));
  EXPECT_EQ(delivered_set, response_ids);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(stats.peak_in_flight, 1);
  EXPECT_LE(stats.peak_in_flight, options.max_concurrent_requests);
}

TEST(ConcurrencyTest, StopWorkerDrainsBacklog) {
  EngineOptions options = TinyEngineOptions();
  options.max_concurrent_requests = 2;
  Engine engine(options);
  std::atomic<int> delivered{0};
  auto hook = [&](size_t, const Result<ScoringResponse>&) { ++delivered; };
  ASSERT_TRUE(engine.StartWorker().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(SubmitOne(engine, YesNoRequest(Tokens(25 + i, 4000 + i), i), hook).ok());
  }
  engine.StopWorker();  // must serve everything queued before returning
  EXPECT_EQ(delivered.load(), 10);
  EXPECT_EQ(engine.stats().completed, 10);
  EXPECT_FALSE(engine.worker_running());
}

// --------------------------------------------------- Lifecycle misuse

TEST(ConcurrencyTest, DoubleStartIsCheckedError) {
  Engine engine(TinyEngineOptions());
  ASSERT_TRUE(engine.StartWorker().ok());
  EXPECT_EQ(engine.StartWorker().code(), StatusCode::kFailedPrecondition);
  engine.StopWorker();
  engine.StopWorker();  // idempotent
  // The runtime can be restarted after a full stop.
  ASSERT_TRUE(engine.StartWorker().ok());
  engine.StopWorker();
}

}  // namespace
}  // namespace prefillonly
